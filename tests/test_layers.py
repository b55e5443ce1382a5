"""The `Module` naming rule: parameter names come from the attribute layout."""

import numpy as np
import pytest

from vpfuse.ablations import stacked_config
from vpfuse.config import parse_config
from vpfuse.layers import Module
from vpfuse.model import FusionModel
from vpfuse.tensor import Tensor


def param():
    return Tensor(np.zeros(2), requires_grad=True)


class Inner(Module):
    def __init__(self):
        self.w = param()
        self.size = 3


class Toy(Module):
    def __init__(self):
        self.t = param()
        self.inner = Inner()
        self.block = [param(), Inner(), {"g": param()}]
        self.ln = {"g": param(), "sub": Inner(), "items": [param()]}
        self.nothing = None
        self.count = 4
        self.shape = (param(), 2)
        self.label = "toy"


def test_names_follow_attribute_layout():
    toy = Toy()
    params = toy.named_parameters()
    assert list(params) == [
        "t", "inner.w", "block0", "block1.w", "block2.g",
        "ln.g", "ln.sub.w", "ln.items0",
    ]
    assert params["block1.w"] is toy.block[1].w
    assert params["ln.sub.w"] is toy.ln["sub"].w


@pytest.mark.parametrize("variant", ["default", "stacked-stc", "com-only"])
def test_model_parameters_are_distinct_trainable_tensors(variant):
    cfg = parse_config("")
    if variant == "stacked-stc":
        cfg = stacked_config(cfg, "stc")
    elif variant == "com-only":
        cfg = cfg.replace(projectors__active=("com",))
    params = FusionModel(cfg, seed=1).named_parameters()
    tensors = list(params.values())
    assert len({id(t) for t in tensors}) == len(tensors)
    # Only the visual encoder is built frozen.
    assert [n for n, t in params.items() if not t.requires_grad] == [
        "visual_encoder.patch.w", "visual_encoder.patch.b", "visual_encoder.pos_t",
        "visual_encoder.pos_h", "visual_encoder.pos_w"]
