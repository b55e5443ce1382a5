"""Router logits, softmax gates, and fusion strategies."""

import hashlib
import math

import numpy as np
import pytest

from reference_ops import tsum
from vpfuse.ablations import stacked_config
from vpfuse.config import default_config
from vpfuse.encoders import InstructionEncoder, InstructionEncoding
from vpfuse.model import FusionModel
from vpfuse.projectors import VisualTokens
from vpfuse.rng import Rng
from vpfuse.router import (
    FusionError,
    FusionStrategy,
    GateWeights,
    Router,
    fuse,
    fuse_with_strategy,
    gate,
    make_strategy,
    scatter_gates,
)
from vpfuse.tasks import generate_sample, make_batch, spec_from_config
from vpfuse.tensor import Tape, Tensor, softmax


ALL_SLOTS = (0, 1, 2)


def make_router(seed=0):
    return Router(default_config(), Rng(seed, "init/router"), len(ALL_SLOTS))


def fake_instr(cls_rows):
    cls = Tensor(np.asarray(cls_rows, dtype=float))
    return InstructionEncoding(cls=cls, tokens=Tensor(np.zeros((cls.shape[0], 1, 32))))


def const_embeddings(batch=2, n=4, d=3, values=(1.0, 2.0, 3.0)):
    return [VisualTokens(tokens=Tensor(np.full((batch, n, d), v))) for v in values]


class TestRoute:
    def test_zero_cls_zero_router_gives_second_layer_bias(self):
        router = make_router()
        router.named_parameters()["mlp2.b"].data[:] = [0.5, -0.25, 0.0]
        out = router.route(fake_instr(np.zeros((2, 32))))
        np.testing.assert_array_equal(out.data, [[0.5, -0.25, 0.0]] * 2)

    def test_fresh_router_emits_exactly_zero_logits(self):
        router = make_router()
        out = router.route(fake_instr(np.random.RandomState(0).randn(3, 32)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_deterministic(self):
        router = make_router()
        w2 = router.named_parameters()["mlp2.w"]
        w2.data[:] = Rng(1, "w").normal((32, 3), std=0.1)
        cls = np.random.RandomState(1).randn(2, 32)
        a = router.route(fake_instr(cls)).data
        b = router.route(fake_instr(cls)).data
        np.testing.assert_array_equal(a, b)


class TestGate:
    def test_uniform(self):
        g = gate(Tensor(np.zeros((1, 3))), ALL_SLOTS)
        np.testing.assert_allclose(g.p.data, [[1 / 3] * 3])

    def test_analytic(self):
        g = gate(Tensor(np.array([[math.log(2.0), 0.0, 0.0]])), ALL_SLOTS)
        np.testing.assert_allclose(g.p.data, [[0.5, 0.25, 0.25]], atol=1e-15)

    def test_shift_leaves_gates_bitwise_identical(self):
        logits = np.round(np.random.RandomState(0).randn(4, 3) * 2 ** 20) * 2.0 ** -20
        base = gate(Tensor(logits), ALL_SLOTS).p.data
        shifted = gate(Tensor(logits + 8.0), ALL_SLOTS).p.data
        np.testing.assert_array_equal(base, shifted)

    def test_positive_scaling_preserves_argmax(self):
        rng = np.random.RandomState(2)
        for _ in range(25):
            logits = rng.randn(1, 3)
            a = gate(Tensor(logits), ALL_SLOTS).p.data.argmax()
            b = gate(Tensor(logits * 3.7), ALL_SLOTS).p.data.argmax()
            assert a == b

    def test_simplex(self):
        rng = np.random.RandomState(3)
        for _ in range(25):
            g = gate(Tensor(rng.randn(2, 3) * 5), ALL_SLOTS)
            assert np.all(g.p.data > 0)
            np.testing.assert_allclose(g.p.data.sum(axis=1), 1.0, atol=1e-12)

    def route_subset(self, logits, active, values):
        # A zero instruction summary makes the logits the second-stage bias.
        router = make_router()
        router.named_parameters()["mlp2.b"].data[:] = logits
        embs = const_embeddings(batch=1, values=values)
        out, g = fuse_with_strategy(make_strategy("router", 0, "eval"),
                                    fake_instr(np.zeros((1, 32))), embs, router, active)
        return out.tokens.data, g.p.data, embs

    def test_subset_restriction_zeroes_excluded(self):
        expected = np.exp([1.0, 3.0]) / np.exp([1.0, 3.0]).sum()
        compact = gate(Tensor(np.array([[1.0, 2.0, 3.0]])), (0, 2))
        np.testing.assert_allclose(compact.p.data, [expected])
        tokens, p, _ = self.route_subset([1.0, 2.0, 3.0], (0, 2), (1.0, 3.0))
        assert p[0, 1] == 0.0
        np.testing.assert_allclose(p[0, [0, 2]], expected)
        np.testing.assert_allclose(tokens, expected @ [1.0, 3.0])

    def test_singleton_subset_is_exact_one_hot(self):
        tokens, p, embs = self.route_subset([-4.2, 1.3, 0.7], (1,), (2.0,))
        np.testing.assert_array_equal(p, [[0.0, 1.0, 0.0]])
        assert tokens.tobytes() == embs[0].tokens.data.tobytes()


class TestFuse:
    def test_one_hot_is_bitwise_selected(self):
        embs = const_embeddings()
        embs[0].tokens.data[0, 0, 0] = -0.0  # signed-zero stress
        out = fuse(scatter_gates(np.ones((2, 1)), (0,), len(ALL_SLOTS)), embs)
        assert out.tokens.data.tobytes() == embs[0].tokens.data.tobytes()

    def test_weighted_constant_embeddings(self):
        out = fuse(GateWeights(p=Tensor(np.array([[0.5, 0.25, 0.25]]))),
                   const_embeddings(batch=1))
        np.testing.assert_allclose(out.tokens.data, 1.75)

    def test_convex_bound_property(self):
        rng = np.random.RandomState(4)
        for _ in range(20):
            embs = [VisualTokens(tokens=Tensor(rng.randn(2, 5, 3)))
                    for _ in range(3)]
            logits = Tensor(rng.randn(2, 3))
            out = fuse(gate(logits, ALL_SLOTS), embs).tokens.data
            stack = np.stack([e.tokens.data for e in embs])
            assert np.all(out >= stack.min(axis=0) - 1e-12)
            assert np.all(out <= stack.max(axis=0) + 1e-12)

    def test_linearity(self):
        rng = np.random.RandomState(5)
        p = GateWeights(p=Tensor(rng.dirichlet(np.ones(3), size=2)))
        e1 = [Tensor(rng.randn(2, 4, 3)) for _ in range(3)]
        e2 = [Tensor(rng.randn(2, 4, 3)) for _ in range(3)]
        wrap = lambda ts: [VisualTokens(tokens=t) for t in ts]
        lhs = fuse(p, wrap([Tensor(a.data + b.data) for a, b in zip(e1, e2)])).tokens.data
        rhs = (fuse(p, wrap(e1)).tokens.data + fuse(p, wrap(e2)).tokens.data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        embs = const_embeddings()
        embs[1] = VisualTokens(tokens=Tensor(np.zeros((2, 5, 3))))
        with pytest.raises(FusionError):
            fuse(scatter_gates(np.ones((2, 1)), (0,), len(ALL_SLOTS)), embs)

    def test_per_sample_one_hot_rows_select_bitwise(self):
        embs = const_embeddings()
        p = GateWeights(p=Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])))
        out = fuse(p, embs).tokens.data
        np.testing.assert_array_equal(out[0], embs[0].tokens.data[0])
        np.testing.assert_array_equal(out[1], embs[2].tokens.data[1])

    def test_gradient_reaches_gates_and_embeddings(self):
        rng = np.random.RandomState(6)
        logits = Tensor(rng.randn(1, 3), requires_grad=True)
        embs = [VisualTokens(tokens=Tensor(rng.randn(1, 4, 3), requires_grad=True))
                for _ in range(3)]
        with Tape() as tape:
            out = fuse(gate(logits, ALL_SLOTS), embs)
            tape.backward(tsum(out.tokens))
        assert logits.grad is not None and np.any(logits.grad != 0)
        for e in embs:
            assert e.tokens.grad is not None and np.all(e.tokens.grad != 0)


class TestStrategies:
    def run(self, kind, seed=0, batch=4):
        cfg = default_config()
        text = InstructionEncoder(cfg, Rng(0, "t"))
        instr = text.encode(np.tile(np.array([[0, 1, 2, 3, 4, 5]]), (batch, 1)))
        embs = const_embeddings(batch=batch)
        router = make_router()
        strategy = FusionStrategy(kind=kind, rng=Rng(seed, f"fusion/{kind}"))
        return fuse_with_strategy(strategy, instr, embs, router, ALL_SLOTS)

    def test_average_of_constants(self):
        out, g = self.run("average")
        np.testing.assert_allclose(out.tokens.data, 2.0)
        np.testing.assert_allclose(g.p.data, 1 / 3)

    def test_concat_triples_tokens(self):
        out, g = self.run("concat")
        assert out.tokens.shape == (4, 12, 3)
        assert np.all(g.p.data == 1 / 3)

    def test_router_on_zero_init_equals_average(self):
        out_r, _ = self.run("router")
        out_a, _ = self.run("average")
        np.testing.assert_allclose(out_r.tokens.data, out_a.tokens.data, atol=1e-15)

    def test_random_choose_reproducible(self):
        _, g1 = self.run("random-choose", seed=5)
        _, g2 = self.run("random-choose", seed=5)
        np.testing.assert_array_equal(g1.p.data, g2.p.data)
        assert np.all(g1.p.data.sum(axis=1) == 1.0)
        assert np.all((g1.p.data == 0.0) | (g1.p.data == 1.0))

    def test_random_weights_on_simplex_and_seeded(self):
        _, g1 = self.run("random-weights", seed=5)
        _, g2 = self.run("random-weights", seed=5)
        np.testing.assert_array_equal(g1.p.data, g2.p.data)
        np.testing.assert_allclose(g1.p.data.sum(axis=1), 1.0, atol=1e-12)

    def test_random_weights_rows_on_simplex(self):
        _, g = self.run("random-weights", seed=0, batch=100)
        rows = g.p.data
        assert rows.shape == (100, 3)
        assert np.all(rows >= 0)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-12)
        # Recorded while three slots still took a dedicated draw path.
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "8c523b3d12ab50a594be0e175d0901997ad1a2a8d7709652789711d15b76d680")
        _, g = self.run("random-weights", seed=5, batch=4)
        assert [v.hex() for v in g.p.data[0]] == [
            "0x1.4f548ddaf9c4ep-1", "0x1.3bf62522cfc37p-2", "0x1.2b05f939e5968p-5"]

    def test_unknown_kind(self):
        with pytest.raises(FusionError):
            self.run("sometimes")


def model_batch(cfg, family, n, **spec):
    spec = spec_from_config(cfg, family, **spec)
    return make_batch([generate_sample(spec, i) for i in range(n)])


class TestModalityGate:
    """Gating as ``FusionModel.forward`` applies it per input modality."""

    def test_image_forces_one_hot(self):
        # The first active image-based slot takes every image sample.
        cfg = stacked_config(default_config(), "image").replace(
            projectors__active=("image1", "image2"))
        model = FusionModel(cfg, seed=1)
        w2 = model.named_parameters()["router.mlp2.w"]
        w2.data[:] = Rng(1, "w").normal((32, 3), std=0.5)
        _, g = model.forward(model_batch(cfg, "detail", 3, total_frames=1))
        np.testing.assert_array_equal(g.p.data, [[0.0, 1.0, 0.0]] * 3)

    def test_video_uses_router(self):
        cfg = default_config()
        model = FusionModel(cfg, seed=1)
        w2 = model.named_parameters()["router.mlp2.w"]
        w2.data[:] = Rng(1, "w").normal((32, 3), std=0.5)
        batch = model_batch(cfg, "motion", 2)
        _, g = model.forward(batch)
        instr = model.instruction_encoder.encode(batch.tokens)
        expected = softmax(model.router.route(instr)).data
        np.testing.assert_array_equal(g.p.data, expected)
        assert np.ptp(expected, axis=1).min() > 1e-3  # the router is not uniform
