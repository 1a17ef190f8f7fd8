"""Temporal-modal entity graphs for procedural multimodal comprehension.

Library layout:
  data     - document model, corpus IO, synthetic generation, task instances
  graph    - heterogeneous entity-graph construction (nodes + edge codes)
  autodiff - fused reverse-mode tape nodes over dense numpy arrays
  optim    - parameter store, Adam, gradient checking, checkpoints
  model    - graph-biased attention encoder, scorer, losses
  harness  - training with early stopping, evaluation, ablations, transfer
  cli      - command-line entry points
"""

from .data import (
    BoundingBox, Corpus, NounPhrase, ObjectFeature, PmdDocument, Step,
    StepImage, SyntheticConfig, TaskInstance, build_task_instances,
    generate_synthetic_corpus, load_corpus, mean_pool_image,
    sample_distractors, save_corpus,
)
from .graph import ModalCode, TemporalCode, TmegGraph, assemble_graph, euclidean, iou
from .model import ModelConfig, TmegModel
from .harness import MetricsReport, RunConfig, evaluate, train, transfer

__all__ = [
    "BoundingBox", "Corpus", "NounPhrase", "ObjectFeature", "PmdDocument",
    "Step", "StepImage", "SyntheticConfig", "TaskInstance",
    "build_task_instances", "generate_synthetic_corpus", "load_corpus",
    "mean_pool_image", "sample_distractors", "save_corpus",
    "ModalCode", "TemporalCode", "TmegGraph", "assemble_graph", "euclidean",
    "iou", "ModelConfig", "TmegModel", "MetricsReport", "RunConfig",
    "evaluate", "train", "transfer",
]

__version__ = "0.1.0"
