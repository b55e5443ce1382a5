"""The benchmark's own smoke test, run against this checkout.

``perfbench/`` drives the program through its public names: the tracer
patches ``model.fuse_with_strategy`` and ``checkpoint.save_checkpoint`` /
``load_checkpoint`` by name, and the workloads unpack ``load_checkpoint``'s
(model, config, stage) triple.  A change that breaks that contract fails here.
The smoke run writes its records (``*-smoke.json``, and the traced runs'
``*-spans.json``) under ``perfbench/out/``, which git ignores.
"""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke_passes():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: PASS"
