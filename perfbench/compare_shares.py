"""Check that the ordering of per-layer time shares holds across seeds.

    python3 perfbench/compare_shares.py --seeds 1,97

Runs every workload traced (``run.py --trace 1``) once per seed, each in its
own process, and compares each layer's share of the traced time.  For every
pair of layers whose shares differ by at least ``RATIO`` on the first seed,
the same layer must lead on the second seed.  Exits 1 if any pair flips.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RATIO = 1.5  # share ratio on the first seed that the second seed must keep


def traced_shares(workload: str, seed: int, seconds: float) -> dict[str, float]:
    subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                   check=True, capture_output=True, timeout=600)
    result = json.loads((BENCH_DIR / "out" / f"{workload}-s{seed}-t1.json").read_text())
    return result["shares"]


def flipped_pairs(first: dict[str, float], second: dict[str, float]):
    """Pairs (a, b) with a's share >= RATIO * b's on the first seed but not
    above b's on the second."""
    layers = sorted(first)
    return [(a, b) for a in layers for b in layers
            if first[a] >= RATIO * first[b] > 0 and second.get(a, 0.0) <= second.get(b, 0.0)]


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,97",
                        help="reference seed, then the held-out seed")
    args = parser.parse_args(argv)
    first_seed, second_seed = (int(s) for s in args.seeds.split(","))

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_shares(workload, first_seed, spec["run_seconds"])
        second = traced_shares(workload, second_seed, spec["run_seconds"])
        print(f"{workload}: share of traced time, seed {first_seed} vs {second_seed}")
        for layer in sorted(first, key=first.get, reverse=True):
            print(f"  {layer:12s} {first[layer]:7.3f} {second.get(layer, 0.0):7.3f}")
        flips = flipped_pairs(first, second)
        for a, b in flips:
            print(f"  FLIP: {a} led {b} by >= {RATIO}x on seed {first_seed}, "
                  f"not on seed {second_seed}")
        ok &= not flips
        print(f"  ordering {'holds' if not flips else 'does not hold'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
