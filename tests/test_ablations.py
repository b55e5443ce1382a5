"""Evaluation reports and ablation harness structure (tiny training runs)."""

import numpy as np
import pytest

from vpfuse import ablations
from vpfuse.ablations import (
    AblationRow,
    AblationTable,
    EvalReport,
    evaluate,
    run_arms,
    run_two_stage,
    stacked_arms,
    stacked_config,
    stage_recipe,
    stage_steps,
    strategy_arms,
    subset_arms,
)
from vpfuse.config import PROJECTOR_KINDS, STRATEGIES, ConfigError, default_config
from vpfuse.model import FusionModel
from vpfuse.tasks import FAMILIES, TaskError
from vpfuse.training import STAGES

pytestmark = pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")


def tiny_cfg(**overrides):
    base = dict(train__batch=4, eval__samples=32)
    base.update(overrides)
    return default_config().replace(**base)


def short_cfg(steps, n):
    """``tiny_cfg`` with ``steps`` steps a stage and ``n`` eval samples a family."""
    return tiny_cfg(train__pretrain_steps=steps, train__tune_steps=steps, eval__samples=n)


class TestEvaluate:
    def test_untrained_model_is_at_chance(self):
        # labels are uniform over four classes; an untrained model's fixed
        # preferences hit them a quarter of the time
        model = FusionModel(default_config(), seed=11)
        report = evaluate(model, n=334)  # ~1000 samples over three families
        overall = np.mean(list(report.accuracy.values()))
        assert abs(overall - 0.25) < 0.05

    def test_zero_logit_router_gives_exact_uniform_mean_gates(self):
        model = FusionModel(default_config(), seed=0)
        report = evaluate(model, families=("detail",), n=8)
        np.testing.assert_array_equal(report.mean_gates["detail"],
                                      np.full(3, 1.0 / 3.0))

    def test_gate_rows_on_simplex_and_accuracy_in_range(self):
        model = FusionModel(default_config(), seed=3)
        report = evaluate(model, n=16)
        for fam, acc in report.accuracy.items():
            assert 0.0 <= acc <= 1.0
            assert abs(report.mean_gates[fam].sum() - 1.0) < 1e-12
        assert 0.0 <= report.combined <= 1.0

    @pytest.mark.parametrize("kind", ["random-weights", "random-choose"])
    def test_family_row_does_not_depend_on_the_families_before_it(self, kind):
        # Each family draws its random gates from a fresh eval stream.
        model = FusionModel(default_config().replace(train__strategy=kind), seed=1)
        full = evaluate(model, n=16)
        for family in FAMILIES:
            alone = evaluate(model, families=(family,), n=16)
            assert alone.accuracy[family] == full.accuracy[family]
            assert alone.mean_gates[family].tobytes() == full.mean_gates[family].tobytes()

    def test_concat_reports_uniform_gates_over_active_slots_only(self):
        cfg = default_config().replace(train__strategy="concat",
                                       projectors__active=("image", "stc"))
        report = evaluate(FusionModel(cfg, seed=3), families=("detail",), n=4)
        np.testing.assert_array_equal(report.mean_gates["detail"], [0.5, 0.5, 0.0])

    def test_csv_renderings(self):
        model = FusionModel(default_config(), seed=3)
        report = evaluate(model, n=8)
        assert report.gate_csv().startswith("family,p_img,p_stc,p_com\n")
        assert report.accuracy_csv().splitlines()[-1].startswith("combined,")


def test_table_is_computed_from_its_reports():
    # Two seeds' reports over one family: the table has that family's
    # columns and the combined ones, each a mean and population sd.
    def report(acc):
        return EvalReport(accuracy={"detail": acc}, mean_gates={"detail": np.ones(3) / 3},
                          n_per_family=8, strategy="router",
                          gate_columns=("p_img", "p_stc", "p_com"))

    table = AblationTable("strategy", [AblationRow("router", [report(0.25), report(0.625)])])
    m, s = np.mean([0.25, 0.625]), np.std([0.25, 0.625])
    assert table.to_csv() == ("mode,name,detail_mean,detail_sd,combined_mean,combined_sd\n"
                              f"strategy,router,{m:.6f},{s:.6f},{m:.6f},{s:.6f}\n")
    assert table.to_text().splitlines()[0].split() == ["arm", "detail", "combined"]


def test_text_header_names_each_family_whole():
    report = EvalReport(accuracy={f: 0.5 for f in FAMILIES},
                        mean_gates={f: np.ones(3) / 3 for f in FAMILIES}, n_per_family=8,
                        strategy="router", gate_columns=("p_img", "p_stc", "p_com"))
    table = AblationTable("strategy", [AblationRow("router", [report])])
    assert table.to_text().splitlines()[0].split() == [
        "arm", "detail", "motion", "counting", "combined"]


class TestStageRange:
    # Each stage draws from 2^19 sample indices of its own: at train.batch
    # 16 that is 32768 steps, and one step more would draw from the next
    # range (the eval split's, for the tune stage).  Only counts are checked,
    # so no sample is generated.
    LAST = (1 << 19) // 16

    @pytest.mark.parametrize("stage", STAGES)
    def test_boundary(self, stage):
        cfg = default_config()
        assert cfg["train.batch"] == 16
        assert stage_steps(cfg, stage, self.LAST) == self.LAST
        with pytest.raises(TaskError, match=f"{stage}: 32769 steps of train.batch 16 "
                                            "draw 524304 samples, more than the stage's 524288"):
            stage_steps(cfg, stage, self.LAST + 1)

    def test_configured_count_is_checked(self):
        cfg = default_config().replace(train__tune_steps=self.LAST + 1)
        assert stage_steps(cfg, "pretrain", None) == cfg["train.pretrain_steps"]
        with pytest.raises(TaskError, match="tune: 32769 steps"):
            stage_steps(cfg, "tune", None)
        with pytest.raises(TaskError, match="tune: 32769 steps"):
            stage_recipe(FusionModel(cfg, seed=1), "tune", None)

    def test_run_arms_checks_every_arm_before_the_first_run(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("an arm ran before every arm was checked")

        monkeypatch.setattr(ablations, "run_two_stage", no_training)
        arms = strategy_arms(default_config())
        arms[-1] = (arms[-1][0], arms[-1][1].replace(train__pretrain_steps=self.LAST + 1))
        with pytest.raises(TaskError, match="pretrain: 32769 steps"):
            run_arms("strategy", arms, seeds=(1,))


class TestHarnesses:
    def test_strategy_table_has_row_per_strategy(self):
        table = run_arms("strategy", strategy_arms(short_cfg(2, 8)), seeds=(1,))
        assert [r.name for r in table.rows] == list(STRATEGIES)
        csv = table.to_csv()
        assert csv.count("\n") == len(STRATEGIES) + 1

    def test_subset_table_lists_singletons_plus_full(self):
        table = run_arms("subset", subset_arms(short_cfg(2, 8)), seeds=(1,))
        assert [r.name for r in table.rows] == ["image", "stc", "com",
                                                "image+stc+com"]
        assert "\nsubset,image," in table.to_csv()

    def test_stacked_runs_three_copies(self):
        cfg = stacked_config(tiny_cfg(), "stc")
        assert cfg["projectors.kinds"] == ("stc", "stc", "stc")
        model = FusionModel(cfg, seed=1)
        names = model.named_parameters()
        assert any(n.startswith("projectors.stc0.") for n in names)
        assert any(n.startswith("projectors.stc2.") for n in names)
        arms = stacked_arms(tiny_cfg())
        assert [name for name, _ in arms] == ["stacked-image", "stacked-stc",
                                              "stacked-com", "fusion"]
        assert arms[1][1].serialize() == cfg.serialize()
        assert arms[-1][1].serialize() == tiny_cfg().serialize()
        for kind in PROJECTOR_KINDS:
            stacked = stacked_config(tiny_cfg(), kind)
            assert stacked["projectors.active"] == stacked.slot_labels()

    def test_determinism_same_seeds_same_csv(self):
        cfg = short_cfg(2, 8)
        arms = strategy_arms(cfg)[:2]  # router, average
        t1 = run_arms("strategy", arms, seeds=(1, 2))
        t2 = run_arms("strategy", arms, seeds=(1, 2))
        assert t1.to_csv() == t2.to_csv()

    def test_two_stage_preserves_stage1_projectors_into_stage2(self):
        # run_two_stage must not reinitialize between stages; spot-check by
        # rerunning with the same seed and confirming determinism end to end
        cfg = short_cfg(2, 8)
        m1 = run_two_stage(cfg, seed=5)
        m2 = run_two_stage(cfg, seed=5)
        for (n1, p1), (_, p2) in zip(m1.named_parameters().items(),
                                     m2.named_parameters().items()):
            assert p1.data.tobytes() == p2.data.tobytes(), n1

    def test_empty_subset_rejected(self):
        # The config itself is rejected, so no arm can be built from it.
        with pytest.raises(ConfigError, match="at least one slot"):
            arms = [("", short_cfg(1, 4).replace(projectors__active=()))]
            run_arms("subset", arms, seeds=(1,))

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_arms("strategy", strategy_arms(tiny_cfg()), seeds=())
