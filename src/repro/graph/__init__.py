"""Graph substrate: CSR storage, builders, generators, datasets, metrics."""

from .build import from_edges
from .csr import CSRGraph
from .datasets import (DATASET_SPECS, Dataset, DatasetSpec, dataset_names,
                       dataset_table, load_dataset)
from .features import (community_features_and_labels,
                       random_features_and_labels)
from .generators import (community_configuration_graph, flat_graph,
                         power_law_graph, power_law_weights)
from .io import (dataset_from_arrays, load_dataset_file, load_edge_list,
                 load_graph, save_dataset, save_graph)
from .metrics import (degree_gini, is_power_law,
                      local_clustering_coefficients, to_scipy)
from .splits import Split, split_vertices

__all__ = [
    "CSRGraph", "from_edges",
    "community_configuration_graph", "power_law_graph", "flat_graph",
    "power_law_weights",
    "community_features_and_labels", "random_features_and_labels",
    "Dataset", "DatasetSpec", "DATASET_SPECS", "dataset_names",
    "load_dataset", "dataset_table",
    "Split", "split_vertices",
    "to_scipy", "local_clustering_coefficients", "degree_gini",
    "is_power_law",
    "save_graph", "load_graph", "save_dataset", "load_dataset_file",
    "load_edge_list", "dataset_from_arrays",
]
