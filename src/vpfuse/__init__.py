"""Instruction-routed fusion of video token projectors, desk scale.

Three token-aligned visual projectors (per-frame MLP, spatial-temporal 3D
conv, many-frame token compression) feed a convex fusion whose weights come
from a softmax router conditioned on the user instruction; a two-stage
training schedule and a synthetic-task harness measure, per task family,
the accuracy and the mean gate on each projector slot.
"""

__version__ = "0.1.0"

from .config import Config, ConfigError, default_config, parse_config
from .encoders import (
    InstructionEncoder,
    InstructionEncoding,
    VideoEncoder,
    VideoSample,
    sample_frames,
)
from .model import Batch, FusionModel
from .projectors import (
    TokenBudget,
    VisualTokens,
    compute_token_budget,
    validate_alignment,
)
from .router import FusionStrategy, GateWeights, Router, fuse, gate
from .tensor import Tape, Tensor
from .training import Adam, FreezeMask, TrainConfig, freeze_mask_for, train

__all__ = [
    "Adam", "Batch", "Config", "ConfigError", "FreezeMask",
    "FusionModel", "FusionStrategy", "GateWeights", "InstructionEncoder",
    "InstructionEncoding", "Router", "Tape", "Tensor",
    "TokenBudget", "TrainConfig", "VideoEncoder", "VideoSample", "VisualTokens",
    "compute_token_budget", "default_config", "freeze_mask_for", "fuse", "gate",
    "parse_config", "sample_frames", "train", "validate_alignment",
]
