"""Run the benchmark once per seed and summarise the spread of each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --out spread.json [--workload NAME ...] [--record]

For every workload (default: all in BENCHMARK.json) it runs ``run.py`` with
``--trace 0`` and the contract's ``run_seconds`` once per seed, one run at a
time, and writes the per-seed values with the median and the spread
(distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) of each metric, next to
its bound. ``--record`` passes ``--record`` on to each run, which stores the
seed's run digest and ndcg10 in ``recorded_rankings.json``.
``spread-seeds-*.json`` in this directory are its outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload of BENCHMARK.json")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    summary = {"seeds": args.seeds, "run_seconds": contract["run_seconds"], "workloads": {}}
    ok = True
    for name in workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(contract["run_seconds"]), "--trace", "0",
                 *(["--record"] if args.record else [])],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: failed or not correct\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
        summary["workloads"][name] = {"runs": runs, "metrics": metrics}
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, data in summary["workloads"].items():
        print(name)
        for metric, m in data["metrics"].items():
            print(f"  {metric:15s} median {m['median']:10.4f}  spread {m['spread']:.3f}"
                  f"  (bound {m['bound']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
