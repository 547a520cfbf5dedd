"""Core: training configuration, trainer, convergence, taxonomy,
reporting."""

from .adaptive import adaptive_batch_training, compare_adaptive_to_fixed
from .advisor import AdviceReport, Recommendation, advise
from .config import (PARTITIONER_NAMES, TrainingConfig,
                     config_for_platform, make_cache, make_partitioner,
                     make_sampler)
from .convergence import TrainingCurve, time_to_accuracy
from .experiment import RepeatedResult, repeat
from .report import format_series, format_table
from .taxonomy import (PARTITIONING_GOALS, SYSTEMS, SystemEntry,
                       table1_rows, table3_rows, table5_rows)
from .trainer import Trainer, TrainingResult, evaluate_model

__all__ = [
    "TrainingConfig", "make_partitioner", "make_sampler", "make_cache",
    "config_for_platform", "PARTITIONER_NAMES",
    "Trainer", "TrainingResult", "evaluate_model",
    "TrainingCurve", "time_to_accuracy",
    "adaptive_batch_training", "compare_adaptive_to_fixed",
    "repeat", "RepeatedResult",
    "SystemEntry", "SYSTEMS", "PARTITIONING_GOALS", "table1_rows",
    "table3_rows", "table5_rows",
    "format_table", "format_series",
    "advise", "AdviceReport", "Recommendation",
]
