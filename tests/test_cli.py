"""CLI surface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vpfuse.ablations import stacked_config
from vpfuse.checkpoint import save_checkpoint
from vpfuse.cli import main
from vpfuse.config import parse_config
from vpfuse.model import FusionModel

FAST = """
train.batch = 4
train.pretrain_steps = 3
train.tune_steps = 3
eval.samples = 8
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def untrained_ckpt(tmp_path, cfg):
    path = tmp_path / "model.octo"
    save_checkpoint(FusionModel(cfg, seed=1), path, stage="pretrain")
    return str(path)


class TestTokens:
    def test_desk_defaults_ok(self, capsys):
        assert run_cli("tokens") == 0
        out = capsys.readouterr().out
        assert out.count("128") >= 3
        assert "verdict: OK" in out

    def test_full_scale_profile(self, capsys):
        assert run_cli("tokens", "--config", "configs/full_scale.cfg") == 0
        assert capsys.readouterr().out.count("1568") >= 3

    def test_mismatch_exits_2(self, capsys):
        assert run_cli("tokens", "--config", "configs/stc_unmodified.cfg") == 2
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "676" in out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no.such.key = 1\n")
        assert run_cli("tokens", "--config", str(bad)) == 2


class TestTrainEval:
    def test_pipeline_and_artifacts(self, tmp_path, fast_cfg, capsys):
        out1 = tmp_path / "stage1"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--out", str(out1)) == 0
        assert (out1 / "model.octo").exists()
        assert (out1 / "loss.csv").read_text().startswith("step,loss\n")
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["end_step"] == 3
        assert "config" in manifest

        out2 = tmp_path / "stage2"
        assert run_cli("train", "--stage", "tune", "--config", fast_cfg,
                       "--init", str(out1 / "model.octo"), "--out", str(out2)) == 0

        out3 = tmp_path / "eval"
        assert run_cli("eval", "--ckpt", str(out2 / "model.octo"),
                       "--out", str(out3)) == 0
        assert (out3 / "gates.csv").read_text().startswith("family,p_img,p_stc,p_com")
        assert (out3 / "accuracy.csv").exists()
        assert (out3 / "report.txt").exists()

    def test_run_dir_collision_is_error(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "dir"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--out", str(out)) == 0
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--out", str(out)) == 1

    def test_seeded_determinism_checkpoints_and_losses(self, tmp_path, fast_cfg):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                           "--seed", "4", "--out", str(out)) == 0
            outs.append(out)
        assert ((outs[0] / "model.octo").read_bytes()
                == (outs[1] / "model.octo").read_bytes())
        assert ((outs[0] / "loss.csv").read_text()
                == (outs[1] / "loss.csv").read_text())

    def test_mismatched_init_config_rejected(self, tmp_path, fast_cfg):
        out1 = tmp_path / "s1"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--out", str(out1)) == 0
        other = tmp_path / "other.cfg"
        other.write_text(FAST + "router.hidden = 16\n")
        assert run_cli("train", "--stage", "tune", "--config", str(other),
                       "--init", str(out1 / "model.octo"),
                       "--out", str(tmp_path / "s2")) == 2


class TestGateLabels:
    def test_default_eval_report_names_img_stc_com(self, tmp_path, capsys):
        ckpt = untrained_ckpt(tmp_path, parse_config(FAST))
        assert run_cli("eval", "--ckpt", ckpt, "--families", "detail",
                       "--out", str(tmp_path / "ev")) == 0
        assert "gates img 0.333  stc 0.333  com 0.333" in capsys.readouterr().out

    def test_stacked_model_labels_each_copy(self, tmp_path, capsys):
        ckpt = untrained_ckpt(tmp_path, stacked_config(parse_config(FAST), "stc"))
        out = tmp_path / "ev"
        assert run_cli("eval", "--ckpt", ckpt, "--families", "motion",
                       "--out", str(out)) == 0
        assert "gates stc0 0.333  stc1 0.333  stc2 0.333" in capsys.readouterr().out
        assert (out / "gates.csv").read_text().startswith("family,p_stc0,p_stc1,p_stc2\n")
        assert run_cli("route", "--ckpt", ckpt, "--instruction", "6 7 8 9") == 0
        assert capsys.readouterr().out == ("p_stc0=0.333333 p_stc1=0.333333 "
                                           "p_stc2=0.333333\n")

    def test_route_zeroes_inactive_slot(self, tmp_path, capsys):
        cfg = parse_config(FAST).replace(projectors__active=("image", "com"))
        ckpt = untrained_ckpt(tmp_path, cfg)
        assert run_cli("route", "--ckpt", ckpt, "--instruction", "12 13 14 15") == 0
        assert capsys.readouterr().out == "p_img=0.500000 p_stc=0.000000 p_com=0.500000\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_forward_exits_1(tmp_path, capsys):
    model = FusionModel(parse_config(FAST), seed=1)
    model.named_parameters()["decoder.readout.w"].data[...] = 1e308
    ckpt = tmp_path / "huge.octo"
    save_checkpoint(model, ckpt, stage="tune")
    assert run_cli("eval", "--ckpt", str(ckpt), "--out", str(tmp_path / "ev")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err


class TestRoute:
    def make_ckpt(self, tmp_path, fast_cfg):
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--out", str(out)) == 0
        return str(out / "model.octo")

    def test_zero_router_prints_uniform(self, tmp_path, fast_cfg, capsys):
        ckpt = self.make_ckpt(tmp_path, fast_cfg)
        capsys.readouterr()
        assert run_cli("route", "--ckpt", ckpt, "--instruction", "12 13 14 15") == 0
        out = capsys.readouterr().out
        assert out.count("0.333333") == 3

    def test_malformed_token_id(self, tmp_path, fast_cfg, capsys):
        ckpt = self.make_ckpt(tmp_path, fast_cfg)
        assert run_cli("route", "--ckpt", ckpt, "--instruction", "12 pizza") == 2

    def test_out_of_vocab_token(self, tmp_path, fast_cfg, capsys):
        ckpt = self.make_ckpt(tmp_path, fast_cfg)
        assert run_cli("route", "--ckpt", ckpt, "--instruction", "99") == 2


class TestAblateCommand:
    def test_strategy_mode_emits_five_rows(self, tmp_path, fast_cfg, capsys):
        out = tmp_path / "ab"
        assert run_cli("ablate", "--config", fast_cfg, "--mode", "strategy",
                       "--seeds", "1", "--pretrain-steps", "2",
                       "--tune-steps", "2", "--n", "8", "--out", str(out)) == 0
        csv = (out / "ablation.csv").read_text()
        assert len(csv.strip().splitlines()) == 6  # header + 5 strategies

    def test_subset_mode_rows(self, tmp_path, fast_cfg):
        out = tmp_path / "sub"
        assert run_cli("ablate", "--config", fast_cfg, "--mode", "subset",
                       "--seeds", "1", "--pretrain-steps", "2",
                       "--tune-steps", "2", "--n", "8", "--out", str(out)) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 3 singletons + full set

    def test_rerun_reproduces_csv_byte_for_byte(self, tmp_path, fast_cfg):
        csvs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("ablate", "--config", fast_cfg, "--mode", "stacked",
                           "--seeds", "1,2", "--pretrain-steps", "2",
                           "--tune-steps", "2", "--n", "8", "--out", str(out)) == 0
            csvs.append((out / "ablation.csv").read_bytes())
        assert csvs[0] == csvs[1]


def test_console_entrypoint_runs():
    root = Path(__file__).parent.parent
    # The child imports vpfuse from this checkout, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "vpfuse.cli", "tokens"],
                          capture_output=True, text=True, cwd=root, env=env)
    assert proc.returncode == 0
    assert "verdict: OK" in proc.stdout
