"""repro — reproduction of "Comprehensive Evaluation of GNN Training
Systems: A Data Management Perspective" (VLDB 2024).

The library implements every data-management technique the paper
evaluates — six graph partitioners, five sampler families, two batch
selection policies and the adaptive batch-size schedule, three CPU→GPU
transfer methods, pipelining, and two GPU cache policies — on top of
from-scratch substrates: a CSR graph store with synthetic stand-ins for
the paper's nine datasets, a numpy autograd GNN engine (GCN/GraphSAGE),
and a simulated CPU/GPU/PCIe/network cluster cost model.

Quickstart::

    from repro import load_dataset, TrainingConfig, Trainer

    dataset = load_dataset("ogb-arxiv")
    result = Trainer(dataset, TrainingConfig(partitioner="metis-ve",
                                             batch_size=512)).run()
    print(result.best_val_accuracy, result.mean_epoch_seconds)
"""

from .core import (Trainer, TrainingConfig, TrainingResult,
                   adaptive_batch_training, evaluate_model,
                   make_partitioner, make_sampler)
from .errors import (CheckpointError, DatasetError, FaultError,
                     GraphError, PartitionError, ReproError,
                     SamplingError, ServingError, TrainingError,
                     TransferError)
from .faults import Checkpointer, FaultInjector, FaultPlan, RetryPolicy
from .graph import CSRGraph, Dataset, dataset_names, load_dataset
from .partition import measure_workload
from .perf import FLAGS, PERF, perf_overrides
from .sampling import (HybridSampler, LayerWiseSampler, NeighborSampler,
                       RateSampler, SubgraphSampler)
from .serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                    MicroBatcher, ServeEngine, ServeReport)
from .tasks import train_link_prediction
from .transfer import DEFAULT_SPEC, HardwareSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Trainer", "TrainingConfig", "TrainingResult", "evaluate_model",
    "adaptive_batch_training", "make_partitioner", "make_sampler",
    "CSRGraph", "Dataset", "load_dataset", "dataset_names",
    "measure_workload",
    "NeighborSampler", "RateSampler", "HybridSampler", "LayerWiseSampler",
    "SubgraphSampler",
    "HardwareSpec", "DEFAULT_SPEC", "train_link_prediction",
    "FLAGS", "PERF", "perf_overrides",
    "LoadGenerator", "BatchPolicy", "MicroBatcher", "ServeEngine",
    "ServeReport", "LayerwiseEmbeddings",
    "FaultPlan", "FaultInjector", "RetryPolicy", "Checkpointer",
    "ReproError", "GraphError", "PartitionError", "SamplingError",
    "TrainingError", "TransferError", "DatasetError",
    "ServingError", "FaultError", "CheckpointError",
]
