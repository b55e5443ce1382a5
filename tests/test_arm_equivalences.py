"""Metamorphic checks that tie the ablation arms together: arms that should
agree do, so a comparison between them measures only what they ablate."""

import numpy as np
import pytest

from vpfuse.ablations import stage_recipe
from vpfuse.config import default_config
from vpfuse.model import FusionModel
from vpfuse.rng import Rng
from vpfuse.tasks import FAMILIES, generate_sample, make_batch, spec_from_config
from vpfuse.training import train

# Slot permutation reorders the fused sum, so its logits are not bitwise equal;
# these bounds were fixed before the test first ran.
PERMUTED_INIT_ATOL = 1e-12
PERMUTED_LOSS_ATOL = 1e-9


def small_cfg(**overrides):
    return default_config().replace(train__batch=4, **overrides)


def family_batch(cfg, family, n=4, total_frames=None):
    spec = spec_from_config(cfg, family, total_frames=total_frames)
    return make_batch([generate_sample(spec, i) for i in range(n)])


def family_batches(cfg):
    return [family_batch(cfg, fam) for fam in FAMILIES]


def pretrain(cfg, steps=3, seed=1):
    model = FusionModel(cfg.replace(train__seed=seed), seed)
    return model, train(model, *stage_recipe(model, "pretrain", steps)).loss_curve


def projector_bytes(model):
    return {name: p.data.tobytes() for name, p in model.named_parameters().items()
            if name.startswith("projectors.")}


def test_router_and_average_share_stage_one():
    # The router's second stage is zero at init and pretraining freezes it, so
    # its gates stay exactly uniform: the two arms pretrain bitwise alike.
    router, router_curve = pretrain(small_cfg(train__strategy="router"))
    average, average_curve = pretrain(small_cfg(train__strategy="average"))
    _, random_curve = pretrain(small_cfg(train__strategy="random-weights"))
    assert router_curve == average_curve
    assert projector_bytes(router) == projector_bytes(average)
    assert random_curve != router_curve


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_one_hot_gates_equal_the_subset_model(slot):
    cfg = small_cfg()
    fused = FusionModel(cfg, seed=1)
    bias = np.full(len(fused.labels), -1e3)
    bias[slot] = 1e3
    fused.router.mlp2["b"].data[:] = bias
    subset = FusionModel(cfg.replace(projectors__active=(fused.labels[slot],)), seed=1)
    for batch in family_batches(cfg):
        logits, gates = fused.forward(batch)
        np.testing.assert_array_equal(gates.p.data[:, slot], 1.0)
        assert logits.data.tobytes() == subset.forward(batch)[0].data.tobytes()


def permuted_pair():
    base = small_cfg()
    permuted = small_cfg(projectors__kinds=("com", "image", "stc"),
                         projectors__active=("com", "image", "stc"))
    return base, permuted


def test_slot_permutation_builds_the_same_parameters():
    base, permuted = permuted_pair()
    a, b = FusionModel(base, seed=1), FusionModel(permuted, seed=1)
    assert ({n: p.data.tobytes() for n, p in a.named_parameters().items()}
            == {n: p.data.tobytes() for n, p in b.named_parameters().items()})


def test_slot_permutation_permutes_the_gate_columns():
    base, permuted = permuted_pair()
    a, b = FusionModel(base, seed=1), FusionModel(permuted, seed=1)
    order = [a.labels.index(label) for label in b.labels]
    # A router with distinct columns, so the gates are not uniform.
    rng = Rng(7, "test/router")
    w = rng.normal(a.router.mlp2["w"].shape, std=0.5)
    bias = np.array([0.4, -0.3, 0.1])
    a.router.mlp2["w"].data[:] = w
    a.router.mlp2["b"].data[:] = bias
    b.router.mlp2["w"].data[:] = w[:, order]
    b.router.mlp2["b"].data[:] = bias[order]
    batches = family_batches(base) + [family_batch(base, "detail", total_frames=1)]
    for batch in batches:
        logits_a, gates_a = a.forward(batch)
        logits_b, gates_b = b.forward(batch)
        np.testing.assert_allclose(gates_b.p.data, gates_a.p.data[:, order],
                                   rtol=0, atol=PERMUTED_INIT_ATOL)
        np.testing.assert_allclose(logits_b.data, logits_a.data,
                                   rtol=0, atol=PERMUTED_INIT_ATOL)


def test_slot_permutation_keeps_the_tune_loss_curve():
    base, permuted = permuted_pair()
    curves = []
    for cfg in (base, permuted):
        model = FusionModel(cfg, seed=1)
        curves.append([loss for _, loss in
                       train(model, *stage_recipe(model, "tune", 3)).loss_curve])
    np.testing.assert_allclose(curves[1], curves[0], rtol=0, atol=PERMUTED_LOSS_ATOL)
