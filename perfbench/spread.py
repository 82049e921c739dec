"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload decode_long --seeds 1 2 3 4 5

Runs ``BENCHMARK.json``'s command once per seed, one run at a time, and
prints for every end-to-end metric the median of its values and their
interquartile range as a share of the median, next to the metric's bound.
Acceptance asks every spread but ``setup_s``'s to stay within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def run(config: dict, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its parsed result line."""
    command = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    """Run every seed, then print medians and spreads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in args.seeds:
        result = run(config, args.workload, seed, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + json.dumps({k: round(v[-1], 4) for k, v in values.items()}))
        sys.stdout.flush()
    print(f"{'metric':<20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in config["end_to_end"]:
        series = values[metric["name"]]
        print(
            f"{metric['name']:<20s} {statistics.median(series):>12.4f} "
            f"{relative_spread(series):>8.4f} {metric['bound']:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
