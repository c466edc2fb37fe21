"""Training systems: preprocessing, checkpointing, tasks, the trainer."""

from repro.train.preprocess import (apply_edge_life, apply_mproduct_smoothing,
                                    compute_laplacians, degree_features,
                                    smooth_for_model)
from repro.train.checkpoint import (CheckpointRunner, ModelCheckpoint,
                                    carry_nbytes, flatten_tensors,
                                    load_model_checkpoint,
                                    save_model_checkpoint)
from repro.train.tasks import LinkPredictionTask, NodeClassificationTask
from repro.train.metrics import ConvergenceCurve, EpochResult
from repro.train.distributed import DistConfig, DistributedTrainer

__all__ = [
    "degree_features", "apply_edge_life", "apply_mproduct_smoothing",
    "compute_laplacians", "smooth_for_model",
    "CheckpointRunner", "carry_nbytes", "flatten_tensors",
    "ModelCheckpoint", "save_model_checkpoint", "load_model_checkpoint",
    "LinkPredictionTask", "NodeClassificationTask",
    "EpochResult", "ConvergenceCurve",
    "DistConfig", "DistributedTrainer",
]
