"""Data partitioning: methods, quality metrics, workload accounting."""

from .base import (PartitionResult, Partitioner, check_num_parts,
                   halo_vertices)
from .hashing import HashPartitioner, hash_vertices
from .metis import MetisPartitioner, metis_clusters, metis_partition
from .quality import (balance_ratio, clustering_coefficient_variance,
                      edge_cut, edge_cut_fraction, quality_report)
from .replication import (k_redundant_replication,
                          partition_aware_replication,
                          remote_access_frequencies)
from .streaming import (StreamBPartitioner, StreamVPartitioner,
                        build_bfs_blocks, l_hop_neighborhood)
from .workload import (BYTES_PER_EDGE, BatchTraffic, MachineWorkload,
                       WorkloadReport, batch_traffic, measure_workload)

__all__ = [
    "PartitionResult", "Partitioner", "check_num_parts", "halo_vertices",
    "HashPartitioner", "hash_vertices",
    "MetisPartitioner", "metis_partition", "metis_clusters",
    "StreamVPartitioner", "StreamBPartitioner", "l_hop_neighborhood",
    "build_bfs_blocks",
    "edge_cut", "edge_cut_fraction", "balance_ratio",
    "clustering_coefficient_variance", "quality_report",
    "MachineWorkload", "WorkloadReport", "measure_workload",
    "BYTES_PER_EDGE", "BatchTraffic", "batch_traffic",
    "k_redundant_replication", "partition_aware_replication",
    "remote_access_frequencies",
]
