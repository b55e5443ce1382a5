"""CLI surface: exit codes, artifacts, determinism."""

import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from vpfuse.ablations import stacked_config
from vpfuse.checkpoint import save_checkpoint
from vpfuse.cli import main
from vpfuse.config import ConfigError, parse_config
from vpfuse.model import FusionModel
from vpfuse import ablations, cli, tensor

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


def assert_finished(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["wall_s"] > 0


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

    def test_stc_kernel_beyond_padded_extent_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "kernel.cfg"
        bad.write_text("stc.kernel = 40\n")
        assert run_cli("tokens", "--config", str(bad)) == 2
        assert capsys.readouterr().err == "error: stc kernel 40 exceeds padded extent 10\n"

    def test_more_sampled_than_total_frames_exits_2(self, tmp_path, capsys):
        # Every slot counts 640 tokens here, but no video can be sampled.
        text = ("sampler.frames = 40\ncom.context = 20\ncom.content = 0\n"
                "com.sep_period = 0\n")
        bad = tmp_path / "frames.cfg"
        bad.write_text(text)
        assert run_cli("tokens", "--config", str(bad)) == 2
        assert capsys.readouterr().err == ("error: sampler.frames 40 exceeds "
                                           "video.total_frames 32\n")
        with pytest.raises(ConfigError, match="sampler.frames 40"):
            FusionModel(parse_config(text), seed=1)

    # Digests of the full stdout, so every budget derivation, the report
    # tags and the mismatch lines are checked byte for byte.
    @pytest.mark.parametrize("config, code, digest", [
        ("configs/desk.cfg", 0,
         "61a4e9005fecd9435ecb3469e15e3d319ae72661a9d90178a8c6720b5c7a5186"),
        ("configs/full_scale.cfg", 0,
         "a5e5a8d6af67010a31dc0a6b633a71c622705c3b7e07a5155f7eee5a310024fd"),
        ("configs/stc_unmodified.cfg", 2,
         "8eb816f46da5f8cf0b19e66c732c0f3da8bbe8bacfeeade55d51be31de715e5f"),
    ])
    def test_report_pinned(self, capsys, config, code, digest):
        assert run_cli("tokens", "--config", config) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        assert_finished(out1)

        out2 = tmp_path / "stage2"
        assert run_cli("train", "--stage", "tune", "--config", fast_cfg,
                       "--init", str(out1 / "model.octo"), "--out", str(out2)) == 0

        out3 = tmp_path / "eval"
        assert run_cli("eval", "--ckpt", str(out2 / "model.octo"),
                       "--out", str(out3)) == 0
        assert (out3 / "gates.csv").read_text().startswith("family,p_img,p_stc,p_com")
        assert (out3 / "accuracy.csv").exists()
        assert (out3 / "report.txt").exists()
        assert_finished(out3)

    def test_failed_run_keeps_running_status(self, tmp_path, capsys):
        # Adam's first step at this rate makes step 1's loss non-finite: the
        # run dir exists, its artifacts do not, and the manifest says so.
        cfg = tmp_path / "huge_lr.cfg"
        cfg.write_text(FAST + "train.lr = 1e300\n")
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", str(cfg),
                       "--out", str(out)) == 1
        assert "at step 1" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "running" and "wall_s" not in manifest
        assert not (out / "model.octo").exists()

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

    def test_task_config_error_leaves_no_run_dir(self, tmp_path, capsys):
        # The detail family draws one of four glyphs, so five classes cannot
        # be synthesized; that must fail before the run directory exists.
        cfg = tmp_path / "five.cfg"
        cfg.write_text(FAST + "model.classes = 5\n")
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", str(cfg),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: detail family supports up to 4 classes\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("task.noise = 0.9", "task.noise 0.9 plus the counting flash 0.6 exceeds "
                             "the frame range [0, 1]"),
        ("text.vocab = 12", "text.vocab 12 holds fewer than the 18 instruction token ids"),
        ("text.max_len = 4", "text.max_len 4 is shorter than the 6-token instructions"),
        ("video.patch = 2\ncom.context = 0\ncom.content = 16\ncom.sep_period = 0",
         "detail glyphs span 4x4 pixels, more than a video.patch of 2"),
        ("video.grid = 4\nprojectors.kinds = com,com,com\n"
         "projectors.active = com0,com1,com2",
         "motion family needs a video.grid of at least two patches (8), got 4"),
    ])
    def test_undrawable_task_config_leaves_no_run_dir(self, tmp_path, capsys,
                                                      line, message):
        # Each passes config validation and aligns its token budgets, but no
        # batch of the task families fits it; that must fail before the run
        # directory exists.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST + line + "\n")
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", str(cfg),
                       "--steps", "30", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_taken_out_stops_before_any_work(self, tmp_path, fast_cfg, capsys,
                                             monkeypatch, command):
        # A taken --out would otherwise be found only after every arm is
        # trained or every family evaluated, and their results thrown away.
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} worked toward a taken --out")

        monkeypatch.setattr(ablations, "run_two_stage", no_work)
        monkeypatch.setattr(cli, "evaluate", no_work)
        out = tmp_path / "taken"
        out.mkdir()
        argv = {"eval": ["--ckpt", untrained_ckpt(tmp_path, parse_config(FAST))],
                "ablate": ["--config", fast_cfg, "--mode", "subset", "--seeds", "1"]}
        assert run_cli(command, *argv[command], "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["train.beta1", "train.beta2"])
    def test_adam_beta_of_one_leaves_no_run_dir(self, tmp_path, capsys, key):
        # Adam's bias correction would divide by 1 - 1 ** t = 0 and write a
        # NaN checkpoint; the config is rejected before the run directory.
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(FAST + f"{key} = 1.0\n")
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", str(cfg),
                       "--steps", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {key}: must be in [0, 1), got 1.0\n"
        assert not out.exists()

    def test_non_finite_learning_rate_leaves_no_run_dir(self, tmp_path, capsys):
        # train.lr = inf would train to a checkpoint of non-finite parameters.
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(FAST + "train.lr = inf\n")
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", str(cfg),
                       "--steps", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: train.lr: must be finite, got inf\n"
        assert not out.exists()

    def test_manifest_records_threads(self, tmp_path, fast_cfg):
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--steps", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["row_workers"] == tensor._WORKERS >= 1
        assert manifest["blas_threads"] == tensor._BLAS_THREADS

    def test_manifest_records_versions(self, tmp_path, fast_cfg):
        out = tmp_path / "run"
        assert run_cli("train", "--stage", "pretrain", "--config", fast_cfg,
                       "--steps", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__


class TestCountArguments:
    # Step and sample counts must be positive integers.  Anything else exits
    # 2 in argument parsing, before any training or any run directory.
    @pytest.mark.parametrize("argv", [
        "train --config {cfg} --stage pretrain --steps 0",
        "train --config {cfg} --stage tune --steps -2",
        "eval --ckpt unread.octo --n 0",
        "ablate --config {cfg} --mode strategy --seeds 1 --pretrain-steps 1"
        " --tune-steps 1 --n 0",
        "ablate --config {cfg} --mode subset --seeds 1 --pretrain-steps 0",
        "ablate --config {cfg} --mode stacked --seeds 1 --tune-steps two",
    ])
    def test_non_positive_count_exits_2(self, tmp_path, fast_cfg, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv.format(cfg=fast_cfg).split(), "--out", str(out))
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("families, message", [
    ("detail,detail", "each family may be listed once, got 'detail,detail'"),
    ("motion,counting,motion", "each family may be listed once, got 'motion,counting,motion'"),
    ("detail,colour", "unknown families ['colour']"),
])
def test_bad_family_list_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                families, message):
    # A repeated family would be evaluated twice and listed twice in
    # report.txt, but once in accuracy.csv and gates.csv.
    def no_load(*args, **kwargs):
        raise AssertionError("checkpoint read for a rejected family list")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    out = tmp_path / "ev"
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--ckpt", "unread.octo", "--families", families, "--out", str(out))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --families: {message}\n")
    assert not out.exists()


def test_non_finite_forward_exits_1(tmp_path, capsys):
    model = FusionModel(parse_config(FAST), seed=1)
    model.named_parameters()["decoder.readout.w"].data[...] = 1e308
    ckpt = tmp_path / "huge.octo"
    save_checkpoint(model, ckpt, stage="tune")
    assert run_cli("eval", "--ckpt", str(ckpt), "--out", str(tmp_path / "ev")) == 1
    # The error line alone: no numpy overflow warning ahead of it.
    assert capsys.readouterr().err == "error: op 'linear' produced non-finite values\n"
    # eval creates its run directory only after evaluating.
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("command", [
    "train --stage pretrain --config {cfg} --steps 1",
    "eval --ckpt {ckpt} --n 4",
    "ablate --config {cfg} --mode strategy --seeds 1 --pretrain-steps 1 --tune-steps 1 --n 4",
])
def test_manifest_keys(tmp_path, fast_cfg, command):
    ckpt = untrained_ckpt(tmp_path, parse_config(FAST))
    out = tmp_path / "run"
    argv = command.format(cfg=fast_cfg, ckpt=ckpt).split() + ["--out", str(out)]
    assert run_cli(*argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"status", "tool_version", "command", "seed", "start_step",
                             "end_step", "artifacts", "config", "row_workers",
                             "blas_threads", "python", "numpy", "scipy", "wall_s"}
    assert manifest["status"] == "ok"
    # The whole invocation, so that the run can be repeated from it.
    assert manifest["command"] == shlex.join(argv)


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
        assert_finished(out)

    def test_subset_mode_rows(self, tmp_path, fast_cfg):
        out = tmp_path / "sub"
        assert run_cli("ablate", "--config", fast_cfg, "--mode", "subset",
                       "--seeds", "1", "--pretrain-steps", "2",
                       "--tune-steps", "2", "--n", "8", "--out", str(out)) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 3 singletons + full set

    def test_subset_mode_on_stacked_slots(self, tmp_path):
        cfg = tmp_path / "stacked.cfg"
        cfg.write_text(FAST + "projectors.kinds = stc,stc,stc\n"
                              "projectors.active = stc0,stc1,stc2\n")
        out = tmp_path / "sub"
        assert run_cli("ablate", "--config", str(cfg), "--mode", "subset",
                       "--seeds", "1", "--pretrain-steps", "1",
                       "--tune-steps", "1", "--n", "4", "--out", str(out)) == 0
        rows = (out / "ablation.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["stc0", "stc1", "stc2",
                                                   "stc0+stc1+stc2"]

    @pytest.mark.parametrize("seeds", ["", ",", " , "])
    def test_empty_seed_list_exits_2(self, tmp_path, fast_cfg, capsys, seeds):
        out = tmp_path / "none"
        assert run_cli("ablate", "--config", fast_cfg, "--mode", "strategy",
                       "--seeds", seeds, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: at least one seed required\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,-2", "-2", "a", "1,2.5", "1;2"])
    def test_bad_seed_exits_2_before_training(self, tmp_path, fast_cfg, capsys,
                                              monkeypatch, seeds):
        def no_training(*args, **kwargs):
            raise AssertionError("run_two_stage called for a rejected seed list")

        monkeypatch.setattr(ablations, "run_two_stage", no_training)
        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", "--config", fast_cfg, "--mode", "strategy",
                    "--seeds", seeds, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seeds: expected a comma list of "
                            f"non-negative integer seeds, got {seeds!r}\n")
        assert "invalid literal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,1", "2,1,2", "1, 1"])
    def test_repeated_seed_exits_2_before_training(self, tmp_path, fast_cfg, capsys,
                                                   monkeypatch, seeds):
        # Two runs of one seed would be reported as a mean and sd over two seeds.
        def no_training(*args, **kwargs):
            raise AssertionError("run_two_stage called for a rejected seed list")

        monkeypatch.setattr(ablations, "run_two_stage", no_training)
        out = tmp_path / "twice"
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", "--config", fast_cfg, "--mode", "strategy",
                    "--seeds", seeds, "--out", str(out))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --seeds: each seed may be listed once, got {seeds!r}\n")
        assert not out.exists()

    def test_rerun_reproduces_csv_byte_for_byte(self, tmp_path, fast_cfg):
        csvs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("ablate", "--config", fast_cfg, "--mode", "stacked",
                           "--seeds", "1,2", "--pretrain-steps", "2",
                           "--tune-steps", "2", "--n", "8", "--out", str(out)) == 0
            csvs.append((out / "ablation.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_manifest_config_reruns_the_table(self, tmp_path):
        # The step and --n flags are recorded as the config keys they set, so
        # the manifest's config alone repeats the run.
        first = tmp_path / "flags"
        assert run_cli("ablate", "--mode", "strategy", "--seeds", "1",
                       "--pretrain-steps", "2", "--tune-steps", "2", "--n", "8",
                       "--out", str(first)) == 0
        cfg = tmp_path / "recorded.cfg"
        cfg.write_text(json.loads((first / "manifest.json").read_text())["config"])
        again = tmp_path / "config"
        assert run_cli("ablate", "--mode", "strategy", "--seeds", "1",
                       "--config", str(cfg), "--out", str(again)) == 0
        assert ((first / "ablation.csv").read_bytes()
                == (again / "ablation.csv").read_bytes())

    @pytest.mark.parametrize("argv", [
        "train --stage tune --steps 32769",
        "ablate --mode subset --seeds 1 --tune-steps 32769",
        "ablate --mode strategy --seeds 1 --pretrain-steps 32769",
    ])
    def test_stage_past_its_index_range_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, argv):
        # At train.batch 16, step 32769 would draw past the stage's 2^19
        # sample indices: a tune stage into the eval split.
        def no_training(*args, **kwargs):
            raise AssertionError("trained a stage past its index range")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(ablations, "run_two_stage", no_training)
        out = tmp_path / "run"
        assert run_cli(*argv.split(), "--out", str(out)) == 2
        assert "32769 steps of train.batch 16 draw 524304 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_csvs_pinned(self, tmp_path):
        # Recorded with one BLAS thread while each mode had its own harness
        # loop.
        expected = {
            "strategy": "c3c2ffcec93e276faf33266d06a13e00e16d06607f1d4c11e66176031952742e",
            "subset": "068ab88567f9c92cbcba637ce9ca2536468264e780b87e252e728d250d0a537e",
            "stacked": "8ed4bc9c21bbd50c0077a8b83badd673a858ef70dc7ff2a1ebd2e36c44335e00",
        }
        for mode in expected:
            assert run_cli("ablate", "--mode", mode, "--seeds", "1",
                           "--pretrain-steps", "2", "--tune-steps", "2", "--n", "8",
                           "--out", str(tmp_path / mode)) == 0
        assert {mode: hashlib.sha256((tmp_path / mode / "ablation.csv").read_bytes()
                                     ).hexdigest() for mode in expected} == expected


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
