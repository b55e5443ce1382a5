"""Instruction-routed fusion of video token projectors, desk scale.

Three token-aligned visual projectors (per-frame MLP, spatial-temporal 3D
conv, many-frame token compression) feed a convex fusion whose weights come
from a softmax router conditioned on the user instruction; a two-stage
training schedule and a synthetic-task harness measure, per task family,
the accuracy and the mean gate on each projector slot.
"""

__version__ = "0.1.0"

# The benchmark (perfbench/) imports these two from the package itself.
from .config import default_config
from .model import FusionModel
