"""Closed-loop benchmark of the pentagon CLI, one client, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The client calls ``pentagon.cli.main(argv)``
with ``--out`` pointing to a scratch file and starts the next request only
after the previous one returns; there are no threads and no subprocesses.
Requests come from the seeded stream in ``workloads.py`` in whole blocks.
``--seconds`` fixes how many: as many as take about that long on the
reference machine (``Workload.block_seconds``), so a run always does the
same requests for a seed and a faster program finishes sooner. Every
output is checked outside the timed region; a job that exits non-zero,
raises, or writes a wrong answer counts as failed and the run goes on.

Times are reported in reference-machine seconds. Before the first job and
after each one the benchmark times ``calibrate``, a fixed piece of
pure-Python work that does not use the package, and multiplies every
measured time by ``CALIBRATION_REF_S`` over the mean calibration time of
the run. A shared host that runs slower for a while slows the calibration
too, so the factor takes that drift out; a slower program does not change
it. The detail line gives the factor and the measured set-up times and
median.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` every request runs twice, untraced and traced (alternating
which goes first), in half as many blocks, and the last line reports
per-layer metrics from ``tracing.py``: counts and self times over the
first block, so the counts repeat exactly for a seed. Spans are written
to ``perfbench/out/spans-<workload>.jsonl`` at the end.

The line before the last is a detail record (the workload, job count, tail
percentile, failures, environment) for a reader; the last is the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from itertools import accumulate
from operator import add
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# One calibration takes this long on the reference machine (see NOTES.md).
CALIBRATION_REF_S = 0.018
CALIBRATION_ROW = tuple(3 ** 400 + 7919 * i for i in range(1000))

sys.path.insert(0, str(HERE))
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402


def import_pentagon() -> dict:
    """Import the package from this checkout's ``src``, fresh each time."""
    for name in [m for m in sys.modules if m == "pentagon" or m.startswith("pentagon.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    modules = {layer: importlib.import_module(f"pentagon.{layer}") for layer in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"pentagon was imported from {origin}, not from {src}")
    return modules


class Client:
    """Runs one request at a time through ``main`` and checks what it wrote."""

    def __init__(self, modules: dict, checker: Checker, out: Path) -> None:
        self.cli = modules["cli"]
        self.checker = checker
        self.out = out

    def call(self, argv) -> tuple[float, int | str]:
        """Timed ``main`` call: (seconds, exit code or the exception raised)."""
        self.out.unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        try:
            code: int | str = self.cli.main(list(argv) + ["--out", str(self.out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the job fails; the run goes on
            code = repr(exc)
        return time.perf_counter() - start, code

    def judge(self, job, code: int | str) -> str | None:
        if not isinstance(code, int):
            return f"raised {code}"
        if code != 0:
            return f"exit code {code}"
        try:
            text = self.out.read_text(encoding="utf-8")
        except OSError as exc:
            return f"no output: {exc}"
        return self.checker.check(job, text)


def set_up(workload, seed: int, blocks: int):
    """Import, generate requests, build references and warm up, once."""
    start = time.perf_counter()
    modules = import_pentagon()
    jobs = workload.jobs(seed, blocks)
    checker = Checker(modules, workload.name)
    client = Client(modules, checker, OUT_DIR / f"job-{workload.name}.out")
    for argv in workload.warmup:
        client.call(argv)
    return time.perf_counter() - start, modules, jobs, client


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs above it: (value, percentile)."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def calibrate() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work mixes what the workloads do: an interpreter loop of exact
    integer subtractions and additions, as in the recurrences, and C-level
    passes of ``map`` and ``accumulate`` over lists of ~630-bit integers,
    as in the series kernels. It does not touch the pentagon package.
    """
    start = time.perf_counter()
    for _ in range(12):
        total = 0
        for i in range(1, len(CALIBRATION_ROW)):
            total += CALIBRATION_ROW[i] - CALIBRATION_ROW[i - 1]
        for _ in range(8):
            list(map(add, CALIBRATION_ROW, CALIBRATION_ROW))
            list(accumulate(CALIBRATION_ROW))
    return time.perf_counter() - start


def speed_scale(calibrations: list[float]) -> float:
    """Factor from this run's seconds to reference-machine seconds."""
    return CALIBRATION_REF_S / statistics.mean(calibrations)


def run_untraced(client, jobs):
    """Runs the jobs in order, with a calibration before the first and after each.

    Returns one (job, seconds, failure or None) per job and the calibrations.
    """
    results, calibrations = [], [calibrate()]
    for job in jobs:
        elapsed, code = client.call(job.argv)
        calibrations.append(calibrate())
        results.append((job, elapsed, client.judge(job, code)))
    return results, calibrations


def end_to_end(results, setup_times, scale: float) -> tuple[dict, dict]:
    """End-to-end metrics, with every time multiplied by ``scale``."""
    times = [elapsed * scale for _, elapsed, _ in results]
    failed = [(job, why) for job, _, why in results if why is not None]
    coeffs = sum(job.size + 1 for job, _, why in results if why is None)
    tail_s, tail_pct = tail(times)
    metrics = {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "coeffs_per_s": (coeffs / sum(times), "1/s"),
        "checked_frac": (1 - len(failed) / len(results), "ratio"),
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"jobs": len(results), "tail_percentile": round(tail_pct, 1),
              "jobs_beyond_tail": TAIL_BEYOND, "failed_frac": len(failed) / len(results),
              "speed_scale": scale, "setup_s_measured": setup_times,
              "job_p50_s_measured": statistics.median(times) / scale}
    return metrics, detail


def run_traced(client, modules, jobs):
    """Each request untraced then traced, or the reverse on odd positions.

    Returns the tracer, one (job, failure or None, traced output bytes) per
    pair, the tracing overhead as a share of untraced job time, and the
    calibrations made before the first pair and after each.
    """
    tracer = Tracer(modules)
    plain = traced = 0.0
    results, calibrations = [], [calibrate()]
    for index, job in enumerate(jobs):
        why = None
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(index)
                try:
                    elapsed, code = client.call(job.argv)
                finally:
                    tracer.uninstall()
                traced += elapsed
                size = client.out.stat().st_size if client.out.exists() else 0
            else:
                elapsed, code = client.call(job.argv)
                plain += elapsed
            why = why or client.judge(job, code)
        calibrations.append(calibrate())
        results.append((job, why, size))
    return tracer, results, (traced - plain) / plain, calibrations


# The per-layer metrics of a traced run, named <module>.<function>.<stat>
# or <module>.<stat>; a layer that does not run on a workload reports 0.
PER_LAYER = {
    "series.div_binomial.calls": "count",
    "series.div_binomial.self_s": "s",
    "series.partial_product.self_s": "s",
    "series.product_range.self_s": "s",
    "series.binomial_coeff_updates": "count",
    "pentagonal.closed_form_series.calls": "count",
    "pentagonal.closed_form_series.self_s": "s",
    "telescope.expand_tail.calls": "count",
    "telescope.expand_tail.self_s": "s",
    "telescope.run_telescope.self_s": "s",
    "telescope.replay_stages.self_s": "s",
    "telescope.stages_verified": "count",
    "telescope.expansions_per_stage": "ratio",
    "partitions.partitions_recurrence.calls": "count",
    "partitions.partitions_recurrence.self_s": "s",
    "partitions.recurrence_terms": "count",
    "verify.full_verification.self_s": "s",
    "verify.division_cascade.self_s": "s",
    "verify.series_fingerprint.calls": "count",
    "verify.series_fingerprint.self_s": "s",
    "verify.fingerprints_computed": "count",
    "verify.fingerprints_used_ratio": "ratio",
    "verify.eval_partial_product_at_root.calls": "count",
    "verify.eval_partial_product_at_root.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def per_layer(tracer: Tracer, results, block: int, overhead: float, scale: float):
    """PER_LAYER values over the first block, and every span's [calls, self_s].

    Self times are multiplied by ``scale``; counts and ratios are not.
    """
    first = range(block)
    stats = {name: (calls, self_s * scale)
             for name, (calls, self_s) in tracer.self_times(first).items()}
    values: dict[str, float] = {}
    for job in first:
        for key, value in tracer.counts[job].items():
            values[key] = values.get(key, 0) + value
    for name, (calls, self_s) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        layer = name.split(".")[0]
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + self_s
    stages = values.get("telescope.stages_verified", 0)
    values["telescope.expansions_per_stage"] = (
        values.get("telescope.expand_tail.calls", 0) / stages if stages else 0.0)
    computed = values.get("verify.fingerprints_computed", 0)
    values["verify.fingerprints_used_ratio"] = (
        values.get("verify.fingerprints_used", 0) / computed if computed else 0.0)
    values["cli.output_bytes"] = sum(size for _, _, size in results[:block])
    values["trace.overhead_frac"] = overhead
    metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    return metrics, {name: [calls, round(s, 6)] for name, (calls, s) in sorted(stats.items())}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()

    block = len(workload.jobs(args.seed, 1))
    blocks = max(round(args.seconds / workload.block_seconds / (1 + args.trace)), 1,
                 0 if args.trace else TAIL_BEYOND // block + 1)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, modules, jobs, client = set_up(workload, args.seed, blocks)
        setup_times.append(elapsed)

    if args.trace:
        tracer, results, overhead, calibrations = run_traced(client, modules, jobs)
        scale = speed_scale(calibrations)
        metrics, spans = per_layer(tracer, results, block, overhead, scale)
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
        failures = [(job, why) for job, why, _ in results if why is not None]
        detail = {"pairs": len(results), "speed_scale": scale, "first_block_spans": spans}
    else:
        results, calibrations = run_untraced(client, jobs)
        metrics, detail = end_to_end(results, setup_times, speed_scale(calibrations))
        failures = [(job, why) for job, _, why in results if why is not None]
    failed = len(failures)
    detail["failures"] = [[" ".join(job.argv), why] for job, why in failures[:5]]
    detail.update(workload=workload.record(), seed=args.seed,
                  run_s=round(time.perf_counter() - started, 3), env=environment())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
