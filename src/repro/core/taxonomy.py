"""Machine-readable taxonomy of GNN training systems (Tables 1, 3, 5).

The paper's Table 1 classifies 24 representative systems along the four
data-management axes; Table 3 summarizes the six evaluated partitioning
methods and which of the four partitioning goals (G1-G4, §5.1) each
meets; Table 5 records the default batch-size/fanout settings several
systems ship with.  Encoding them as data makes the taxonomy queryable
and testable, and the table benchmarks simply print these rows.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystemEntry", "SYSTEMS", "table1_rows", "table3_rows",
           "table5_rows", "PARTITIONING_GOALS"]


@dataclass(frozen=True)
class SystemEntry:
    """One row of Table 1."""

    year: int
    name: str
    platform: str          # CPU-cluster / Multi-GPU / GPU-cluster / ...
    partition: str         # Hash / Metis / Metis-extend / Streaming / N/A
    train_method: str      # Mini-batch / Full-batch
    sample: bool
    sample_method: str     # Fanout-based / Ratio-based / both / N/A
    transfer_method: str   # Extract-Load / GPU direct access / N/A
    pipeline: bool
    cache: bool


SYSTEMS = [
    SystemEntry(2019, "DGL", "Multi-GPU", "N/A", "Mini-batch", True,
                "Fanout-based", "Extract-Load", True, False),
    SystemEntry(2019, "PyG", "Multi-GPU", "N/A", "Mini-batch", True,
                "Fanout-based", "Extract-Load", False, False),
    SystemEntry(2019, "AliGraph", "CPU-cluster", "Hash/Metis/Streaming",
                "Mini-batch", True, "Fanout-based/Ratio-based", "N/A",
                False, False),
    SystemEntry(2019, "NeuGraph", "Multi-GPU", "Hash", "Full-batch",
                False, "N/A", "Extract-Load", False, False),
    SystemEntry(2020, "AGL", "CPU-cluster", "Hash", "Mini-batch", True,
                "Fanout-based", "N/A", False, False),
    SystemEntry(2020, "DistDGL", "CPU-cluster", "Metis-extend",
                "Mini-batch", True, "Fanout-based/Ratio-based", "N/A",
                True, False),
    SystemEntry(2020, "ROC", "GPU-cluster", "Hash", "Full-batch", False,
                "N/A", "Extract-Load", False, False),
    SystemEntry(2020, "PaGraph", "Multi-GPU", "Streaming", "Mini-batch",
                True, "Fanout-based", "Extract-Load", False, True),
    SystemEntry(2021, "P3", "GPU-cluster", "Hash", "Mini-batch", True,
                "Fanout-based", "Extract-Load", False, False),
    SystemEntry(2021, "DistGNN", "CPU-cluster", "Hash", "Full-batch",
                False, "N/A", "N/A", False, False),
    SystemEntry(2021, "DGCL", "GPU-cluster", "Hash", "Full-batch", False,
                "N/A", "Extract-Load", False, False),
    SystemEntry(2021, "Dorylus", "Serverless", "Hash", "Full-batch",
                False, "N/A", "N/A", True, False),
    SystemEntry(2021, "Pytorch-direct", "Multi-GPU", "N/A", "Mini-batch",
                True, "Fanout-based", "GPU direct access", True, False),
    SystemEntry(2022, "GNNLab", "Multi-GPU", "N/A", "Mini-batch", True,
                "Fanout-based", "Extract-Load", True, True),
    SystemEntry(2022, "ByteGNN", "CPU-cluster", "Streaming", "Mini-batch",
                True, "Fanout-based", "N/A", True, False),
    SystemEntry(2022, "BNS-GCN", "GPU-cluster", "Metis", "Full-batch",
                True, "Ratio-based", "Extract-Load", False, False),
    SystemEntry(2022, "DistDGLv2", "GPU-cluster", "Metis-extend",
                "Mini-batch", True, "Fanout-based", "Extract-Load", True,
                False),
    SystemEntry(2022, "NeutronStar", "GPU-cluster", "Hash", "Full-batch",
                False, "N/A", "Extract-Load", False, False),
    SystemEntry(2022, "Sancus", "GPU-cluster", "Hash", "Full-batch",
                False, "N/A", "Extract-Load", False, True),
    SystemEntry(2022, "SALIENT", "Multi-GPU", "N/A", "Mini-batch", True,
                "Fanout-based", "GPU direct access", True, False),
    SystemEntry(2023, "MariusGNN", "GPU-only", "Hash", "Mini-batch",
                True, "Fanout-based", "Extract-Load", True, False),
    SystemEntry(2023, "Legion", "Multi-GPU", "Metis/Hash", "Mini-batch",
                True, "Fanout-based", "Extract-Load", True, True),
    SystemEntry(2023, "SALIENT++", "GPU-cluster", "Metis-extend",
                "Mini-batch", True, "Fanout-based", "GPU direct access",
                True, True),
    SystemEntry(2023, "BGL", "Multi-GPU", "Streaming", "Mini-batch",
                True, "Fanout-based", "Extract-Load", True, True),
]

#: §5.1's four goals of GNN graph partitioning.
PARTITIONING_GOALS = {
    "G1": "minimize communication",
    "G2": "balance computational load",
    "G3": "minimize total computational load",
    "G4": "balance communication load",
}


def table1_rows():
    """Table 1 as a list of dicts (one per system)."""
    return [{
        "year": s.year, "system": s.name, "platform": s.platform,
        "partition": s.partition, "train": s.train_method,
        "sample": "yes" if s.sample else "no",
        "sample_method": s.sample_method, "transfer": s.transfer_method,
        "pipeline": "yes" if s.pipeline else "no",
        "cache": "yes" if s.cache else "no",
    } for s in SYSTEMS]


def table3_rows():
    """Table 3: the six evaluated partitioning methods, their strategy,
    representative system, and which goals they meet."""
    return [
        {"method": "Hash",
         "strategy": "randomly assign vertices or edges",
         "system": "P3", "goals": ["G2", "G4"]},
        {"method": "Metis-V",
         "strategy": "Metis + training-vertex balance constraint",
         "system": "(study)", "goals": ["G1", "G2", "G3"]},
        {"method": "Metis-VE",
         "strategy": "Metis + training-vertex and degree constraints",
         "system": "DistDGL", "goals": ["G1", "G2", "G3", "G4"]},
        {"method": "Metis-VET",
         "strategy": "Metis + train/val/test and degree constraints",
         "system": "SALIENT++", "goals": ["G1", "G2", "G3", "G4"]},
        {"method": "Stream-V",
         "strategy": "stream vertices to max-edge partition, cache L-hop",
         "system": "PaGraph", "goals": ["G1", "G2"]},
        {"method": "Stream-B",
         "strategy": "stream BFS blocks to max-edge partition",
         "system": "ByteGNN", "goals": ["G1", "G2"]},
    ]


def table5_rows():
    """Table 5: default batch size and sampling parameters of systems."""
    return [
        {"system": "P3", "batch_size": 1000, "fanout": "(25, 10)",
         "sampling_rate": None},
        {"system": "DistDGL", "batch_size": 2000,
         "fanout": "(25, 10) / (15, 10, 5)", "sampling_rate": None},
        {"system": "PaGraph", "batch_size": 6000, "fanout": "(2, 2)",
         "sampling_rate": None},
        {"system": "GNNLab", "batch_size": 8000,
         "fanout": "(10, 25) / (15, 10, 5)", "sampling_rate": None},
        {"system": "ByteGNN", "batch_size": 512, "fanout": "(10, 5, 3)",
         "sampling_rate": None},
        {"system": "BNS-GCN", "batch_size": "full", "fanout": None,
         "sampling_rate": 0.1},
        {"system": "SALIENT++", "batch_size": 1024,
         "fanout": "(25, 15) / (15, 10, 5)", "sampling_rate": None},
    ]
