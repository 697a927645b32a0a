"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 28
    python3 perfbench/sweep.py --seeds 1-10 --seconds 28 --record perfbench/trajectory.json

Each run is a separate ``run.py`` process, one after another. For every
workload and end-to-end metric the sweep prints the median over the seeds,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread,
(Q3 - Q1) / median. ``--record`` appends that summary, with the
environment of the last run, to a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--record", type=Path, help="append the summary to this JSON list")
    args = parser.parse_args()

    summary: dict[str, dict] = {}
    env = None
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            *_, detail, result = done.stdout.splitlines()
            detail, result = json.loads(detail), json.loads(result)
            env = detail["env"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, f"jobs={detail['jobs']}", f"failed={result['failed']}",
                  f"scale={detail['speed_scale']:.3f}",
                  " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3}
            print(f"  {workload} {name}: median {median:.4g} "
                  f"spread {(q3 - q1) / median if median else 0.0:.3f}")

    if args.record:
        trajectory = json.loads(args.record.read_text()) if args.record.exists() else []
        trajectory.append({"env": env, "seconds": args.seconds, "seeds": args.seeds,
                           "workloads": summary})
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
