"""Neural network modules: Linear, MLP, GCN and GraphSAGE convolutions.

Graph convolutions operate on *sampled blocks*: each layer receives the
block's normalized aggregation matrix (``num_dst x num_src``
:class:`~repro.kernels.KernelCSR`) plus the source features, and
produces destination features.  Because block sources always start
with the destinations (MFG convention), a layer can read its
destinations' own features as ``h_src[:num_dst]``.

Every aggregation dispatches through :mod:`repro.kernels` — the
mean-aggregation SpMM of GCN/SAGE, and GAT's attention (edge scores,
edge softmax and attention-weighted SpMM, one ``gat_attention`` node
per head) — so the layers hold no sparse loops of their own.
"""

from __future__ import annotations

import numpy as np

from ..perf.sanitize import check_finite
from ..errors import TrainingError
from ..kernels import (block_attention_edges, gat_attention, gspmm,
                       normalized_block_adjacency)
from ..perf import FLAGS
from .init import xavier_uniform, zeros
from .tensor import Tensor

__all__ = ["Module", "Linear", "Dropout", "MLP", "GCNConv", "SAGEConv",
           "GATConv", "GCN", "GraphSAGE", "GAT", "build_model",
           "model_widths"]


class Module:
    """Base class: parameter collection, checkpoint state and rngs.

    There is no train / eval mode: dropout draws exactly while a tape is
    recorded, so inference is ``with no_grad():``
    (:class:`~repro.nn.tensor.no_grad`)."""

    def parameters(self):
        """All trainable tensors of this module and its children."""
        params = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self):
        """Clear the gradients of all parameters."""
        for param in self.parameters():
            param.grad = None

    def state_dict(self):
        """Flat copy of all parameter arrays (for checkpoint tests)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state):
        """Restore parameters saved by :meth:`state_dict`."""
        params = self.parameters()
        if len(state) != len(params):
            raise TrainingError("state_dict length mismatch")
        for param, saved in zip(params, state):
            if param.data.shape != saved.shape:
                raise TrainingError("state_dict shape mismatch")
            param.data = saved.copy()

    def _rngs(self):
        """Every rng generator used by this module tree (e.g. shared
        dropout rngs), deduplicated by identity, in traversal order."""
        found = []
        seen = set()

        def visit(module):
            rng = getattr(module, "rng", None)
            if isinstance(rng, np.random.Generator) \
                    and id(rng) not in seen:
                seen.add(id(rng))
                found.append(rng)
            for value in module.__dict__.values():
                if isinstance(value, Module):
                    visit(value)
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Module):
                            visit(item)

        visit(self)
        return found

    def rng_state(self):
        """Bit-generator states of the module tree's rngs (dropout
        masks advance these during training, so a bit-identical
        crash-resume must checkpoint them alongside the parameters)."""
        return [rng.bit_generator.state for rng in self._rngs()]

    def load_rng_state(self, states):
        """Restore rng states saved by :meth:`rng_state`."""
        rngs = self._rngs()
        if len(states) != len(rngs):
            raise TrainingError("rng_state length mismatch")
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state


class Linear(Module):
    """Affine layer ``x @ W + b``."""

    def __init__(self, in_dim, out_dim, rng, bias=True):
        self.weight = xavier_uniform(in_dim, out_dim, rng)
        self.bias = zeros(out_dim) if bias else None

    def forward(self, x):
        """Affine transform of the input rows."""
        return Tensor.affine((x, self.weight), bias=self.bias)


class Dropout(Module):
    """Inverted dropout; the identity under ``no_grad``."""

    def __init__(self, p, rng):
        self.p = float(p)
        self.rng = rng

    def forward(self, x):
        """Randomly zero entries (only while a tape is recorded)."""
        return x.dropout(self.p, self.rng)


class MLP(Module):
    """Multi-layer perceptron with ReLU between layers."""

    def __init__(self, dims, rng, dropout=0.0):
        if len(dims) < 2:
            raise TrainingError("MLP needs at least input and output dims")
        self.layers = [Linear(dims[i], dims[i + 1], rng)
                       for i in range(len(dims) - 1)]
        self.dropout = Dropout(dropout, rng) if dropout else None

    def forward(self, x):
        """Apply the layer stack with ReLU (+dropout) in between."""
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            if i < len(self.layers) - 1:
                x = x.relu()
                if self.dropout is not None:
                    x = self.dropout.forward(x)
        return x


class GCNConv(Module):
    """GCN layer on a sampled block: ``h_dst = agg(h_src) @ W + b`` with
    mean normalization including self-loops (Kipf & Welling adapted to
    MFGs)."""

    def __init__(self, in_dim, out_dim, rng):
        self.weight = xavier_uniform(in_dim, out_dim, rng)
        self.bias = zeros(out_dim)

    def forward(self, adjacency, h_src):
        """Aggregate sources with ``adjacency`` then transform."""
        aggregated = gspmm(adjacency, h_src)
        return Tensor.affine((aggregated, self.weight), bias=self.bias)

    def forward_block(self, block, h_src):
        """Run the layer on a sampled block (self-loops included)."""
        return self.forward(
            normalized_block_adjacency(block, self_loops=True), h_src)


class SAGEConv(Module):
    """GraphSAGE layer: ``h_dst = h_self @ W_self + mean(h_neigh) @ W_neigh
    + b`` (the "mean" aggregator of Hamilton et al.).

    ``normalize=True`` applies the original paper's per-row L2
    normalization to the output, which stabilizes training on noisy
    features.
    """

    def __init__(self, in_dim, out_dim, rng, normalize=False):
        self.weight_self = xavier_uniform(in_dim, out_dim, rng)
        self.weight_neigh = xavier_uniform(in_dim, out_dim, rng)
        self.bias = zeros(out_dim)
        self.normalize = bool(normalize)

    def forward(self, adjacency, h_src):
        """Combine each destination's own features with its
        mean-aggregated neighbors."""
        h_self = h_src.leading_rows(adjacency.shape[0])
        aggregated = gspmm(adjacency, h_src)
        out = Tensor.affine((h_self, self.weight_self),
                            (aggregated, self.weight_neigh),
                            bias=self.bias)
        if self.normalize:
            out = out.l2_normalize_rows()
        return out

    def forward_block(self, block, h_src):
        """Run the layer on a sampled block (no self-loops in the
        aggregation; the self path is explicit)."""
        return self.forward(
            normalized_block_adjacency(block, self_loops=False), h_src)


class GATConv(Module):
    """Graph attention layer (Veličković et al.) on a sampled block.

    Per edge ``u -> v``: score ``e = LeakyReLU(a_src . Wh_u +
    a_dst . Wh_v)``; attention coefficients are the per-destination
    softmax over scores (self-loop included); the output is the
    attention-weighted sum of transformed sources.  ``heads`` attention
    heads run independently and concatenate.
    """

    def __init__(self, in_dim, out_dim, rng, heads=1,
                 negative_slope=0.2):
        if heads < 1 or out_dim % heads:
            raise TrainingError(
                f"out_dim {out_dim} must split evenly over {heads} heads")
        self.negative_slope = float(negative_slope)
        if not np.isfinite(self.negative_slope):
            raise TrainingError(
                f"negative_slope must be finite, got {negative_slope}")
        self.heads = int(heads)
        self.head_dim = out_dim // self.heads
        self.weights = [xavier_uniform(in_dim, self.head_dim, rng)
                        for _head in range(self.heads)]
        self.attn_src = [xavier_uniform(self.head_dim, 1, rng)
                         for _head in range(self.heads)]
        self.attn_dst = [xavier_uniform(self.head_dim, 1, rng)
                         for _head in range(self.heads)]
        self.bias = zeros(out_dim)

    def forward_block(self, block, h_src):
        """Attention-weighted aggregation over the block's edges.

        Each head is one :func:`~repro.kernels.gat_attention` node over
        the block's edge list (a :class:`~repro.kernels.KernelCOO`,
        whose edge *order* — block CSR edges then appended self-loops —
        is part of the numerical contract;
        :func:`~repro.kernels.block_attention_edges`, memoized on the
        block with its segment views): scores, LeakyReLU, edge softmax
        and the attention-weighted ``gspmm`` run through
        :mod:`repro.kernels`.
        """
        edges = block_attention_edges(block)
        outputs = [gat_attention(edges, h_src @ weight, a_src, a_dst,
                                 self.negative_slope)
                   for weight, a_src, a_dst in zip(
                       self.weights, self.attn_src, self.attn_dst)]
        out = outputs[0]
        for extra in outputs[1:]:
            out = out.concat(extra, axis=1)
        return out + self.bias


class _GNNBase(Module):
    """Shared stacking logic for block-based GNN models.

    Architecture (mirrors the paper's setup): L graph convolutions with
    hidden width 128, ReLU + dropout between them, followed by an MLP
    classifier head.
    """

    conv_cls = None
    self_loops = True

    def __init__(self, in_dim, hidden_dim, num_classes, num_layers, rng,
                 dropout=0.1, mlp_hidden=None):
        if num_layers < 1:
            raise TrainingError("need at least one GNN layer")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.convs = [self.conv_cls(dims[i], dims[i + 1], rng)
                      for i in range(num_layers)]
        head_dims = ([hidden_dim, mlp_hidden, num_classes]
                     if mlp_hidden else [hidden_dim, num_classes])
        self.head = MLP(head_dims, rng, dropout=0.0)
        self.dropout = Dropout(dropout, rng)
        self.num_layers = num_layers

    def embed(self, subgraph, features):
        """Seed-vertex embeddings (the conv stack without the
        classification head) — used directly by link prediction and
        other embedding-consuming tasks."""
        if len(subgraph.blocks) != self.num_layers:
            raise TrainingError(
                f"model has {self.num_layers} layers but subgraph has "
                f"{len(subgraph.blocks)} blocks")
        h = features if isinstance(features, Tensor) else Tensor(features)
        if FLAGS.sanitize:
            check_finite(h.data, name="input features")
        for i, (conv, block) in enumerate(zip(self.convs, subgraph.blocks)):
            h = conv.forward_block(block, h)
            if FLAGS.sanitize:
                check_finite(h.data, name=f"layer {i} activations")
            h = h.relu()
            if i < len(self.convs) - 1:
                h = self.dropout.forward(h)
        return h

    def forward(self, subgraph, features):
        """Run the model over a :class:`SampledSubgraph`.

        ``features`` must be the raw feature rows of
        ``subgraph.input_nodes`` (a numpy array or Tensor).
        """
        return self.head.forward(self.embed(subgraph, features))


class GCN(_GNNBase):
    """The paper's GCN: L GCNConv layers + MLP head (hidden dim 128)."""

    conv_cls = GCNConv
    self_loops = True


class GraphSAGE(_GNNBase):
    """The paper's GraphSAGE: L SAGEConv layers + MLP head."""

    conv_cls = SAGEConv
    self_loops = False


class GAT(_GNNBase):
    """Graph attention network: L GATConv layers + MLP head (the model
    the paper cites for vertex classification alongside GCN)."""

    conv_cls = GATConv
    self_loops = True


def build_model(name, in_dim, num_classes, num_layers=2, hidden_dim=128,
                rng=None, dropout=0.1):
    """Factory for the supported models ("gcn", "graphsage", "gat")."""
    rng = rng if rng is not None else np.random.default_rng(0)
    models = {"gcn": GCN, "graphsage": GraphSAGE, "sage": GraphSAGE,
              "gat": GAT}
    key = name.lower()
    if key not in models:
        raise TrainingError(
            f"unknown model {name!r}; known: gcn, graphsage, gat")
    return models[key](in_dim, hidden_dim, num_classes, num_layers, rng,
                       dropout=dropout)


def model_widths(model):
    """``(hidden, classes)``: the in-width of ``model``'s head and the
    out-width of its last layer — the widths FLOP and byte meters bill
    (every model of :func:`build_model`, GAT included, has a head)."""
    return (model.head.layers[0].weight.shape[0],
            model.head.layers[-1].weight.shape[1])
