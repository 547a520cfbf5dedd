"""Numpy NN engine: autograd tensor, layers, losses, optimizers."""

from .init import xavier_uniform, zeros
from .layers import (GAT, GCN, MLP, Dropout, GATConv, GCNConv, GraphSAGE,
                     Linear, Module, SAGEConv, build_model, model_widths)
from .loss import (accuracy, binary_cross_entropy_with_logits, roc_auc,
                   sigmoid, softmax, softmax_cross_entropy)
from .optim import Adam, Optimizer
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor", "no_grad", "xavier_uniform", "zeros",
    "Module", "Linear", "Dropout", "MLP", "GCNConv", "SAGEConv",
    "GATConv", "GCN", "GraphSAGE", "GAT", "build_model", "model_widths",
    "softmax", "softmax_cross_entropy", "accuracy",
    "binary_cross_entropy_with_logits", "sigmoid", "roc_auc",
    "Optimizer", "Adam",
]
