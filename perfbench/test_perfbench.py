"""Tests of the benchmark itself: checks, tracing and work counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, telescope_stage_count
from workloads import WORKLOADS, Checker, Job

SMALL_JOBS = [
    Job(("expand", "--order", "40", "--json"), 40),
    Job(("verify", "--order", "60", "--roots-max-d", "5", "--json"), 60),
    Job(("telescope", "--variant", "1", "--order", "80", "--json"), 80),
    Job(("telescope", "--variant", "2", "--stages", "4", "--order", "80", "--json"), 80),
    Job(("partitions", "--upto", "2100"), 2100, (2050, 2100)),
    Job(("partitions", "--upto", "2100", "--json"), 2100, (2099, 2100)),
    Job(("partitions", "--upto", "2100", "--csv"), 2100, (2001, 2100)),
]


@pytest.fixture(scope="module")
def modules():
    return run.import_pentagon()


@pytest.fixture(scope="module")
def checker(modules):
    return Checker(modules, "partitions")


def corrupt(argv, text: str) -> str:
    """The same output with one answer changed: a coefficient, a verdict, a value."""
    if "--json" not in argv:
        *head, last = text.splitlines()
        sep = "," if "--csv" in argv else " "
        n, value = last.split(sep)
        return "\n".join(head + [f"{n}{sep}{int(value) + 1}"]) + "\n"
    data = json.loads(text)
    if argv[0] == "expand":
        data["terms"][1]["coeff"] = "7"
    elif argv[0] == "verify":
        data["checks"][1]["passed"] = False
    elif argv[0] == "partitions":
        data["values"][-1] = str(int(data["values"][-1]) + 1)
    elif "--stages" in argv:
        data["emissions"][-1]["exps"][0] += 1
    else:
        data["series"]["coeffs"][3] = "1"
    return json.dumps(data)


class CorruptingCli:
    """Stands in for pentagon.cli: runs the real main, then spoils one output."""

    def __init__(self, cli, victim: int) -> None:
        self.cli = cli
        self.victim = victim
        self.calls = 0

    def main(self, argv):
        code = self.cli.main(argv)
        if self.calls == self.victim:
            path = Path(argv[argv.index("--out") + 1])
            path.write_text(corrupt(argv, path.read_text()))
        self.calls += 1
        return code


@pytest.mark.parametrize("victim", range(len(SMALL_JOBS)))
def test_corrupted_output_counts_as_failed(modules, checker, tmp_path, victim):
    client = run.Client(modules, checker, tmp_path / "job.out")
    client.cli = CorruptingCli(modules["cli"], victim)
    results, calibrations = run.run_untraced(client, SMALL_JOBS * 2)
    assert len(calibrations) == len(results) + 1
    assert len(results) > run.TAIL_BEYOND  # the run went on past the failure
    failed = [i for i, (_, _, why) in enumerate(results) if why is not None]
    assert failed == [victim]
    metrics, detail = run.end_to_end(results, [0.1], 1.0)
    assert detail["failed_frac"] == 1 / len(results)
    assert metrics["checked_frac"][0] == 1 - 1 / len(results)


def test_exit_code_and_exception_count_as_failed(modules, checker, tmp_path):
    client = run.Client(modules, checker, tmp_path / "job.out")
    elapsed, code = client.call(("verify", "--order", "1", "--json"))
    assert client.judge(SMALL_JOBS[1], code) == "exit code 2"
    client.cli = None
    elapsed, code = client.call(SMALL_JOBS[0].argv)
    assert client.judge(SMALL_JOBS[0], code).startswith("raised AttributeError")


def test_self_times_sum_to_traced_wall_time(modules, checker, tmp_path):
    client = run.Client(modules, checker, tmp_path / "job.out")
    tracer = Tracer(modules)
    tracer.install(0)
    try:
        wall, code = client.call(("verify", "--order", "150", "--roots-max-d", "6", "--json"))
    finally:
        tracer.uninstall()
    assert code == 0
    assert modules["verify"].div_binomial is modules["series"].div_binomial
    stats = tracer.self_times()
    assert {"cli.main", "verify.full_verification", "series.div_binomial",
            "verify.series_fingerprint", "verify.eval_partial_product_at_root"} <= set(stats)
    total_self = sum(self_s for _, self_s in stats.values())
    root = tracer.root_duration(0)
    assert math.isclose(total_self, root, rel_tol=1e-9)
    assert 0.9 * wall <= root <= wall


def _counts(modules, checker, tmp_path):
    client = run.Client(modules, checker, tmp_path / "job.out")
    tracer, results, _, _ = run.run_traced(client, modules, SMALL_JOBS)
    assert all(why is None for _, why, _ in results)
    metrics, _ = run.per_layer(tracer, results, len(SMALL_JOBS), 0.0, 1.0)
    return {name: value for name, (value, unit) in metrics.items()
            if unit != "s" and name != "trace.overhead_frac"}


def test_work_counts_repeat_and_follow_the_arguments(modules, checker, tmp_path):
    first = _counts(modules, checker, tmp_path)
    assert first == _counts(modules, checker, tmp_path)
    # expand 40 and verify 60 apply factors k = 1..N at order N; the cascade
    # in verify divides by k = 1..60; the sampled products start at m + 1
    product = sum(n * (n + 1) // 2 for n in (40, 60))
    sampled = sum((60 - m) * (60 - m + 1) // 2 for m in (1, 5, 50))
    assert first["series.binomial_coeff_updates"] == product + sampled + 60 * 61 // 2
    terms = modules["pentagonal"].pentagonal_terms_upto
    brute = sum(len(terms(n)) - 1 for n in range(1, 2101))  # offsets <= n, less x^0
    assert first["partitions.recurrence_terms"] == 3 * brute
    assert first["telescope.stages_verified"] == telescope_stage_count(1, 80) + 4
    assert first["verify.fingerprints_computed"] == 60
    assert first["verify.fingerprints_used_ratio"] == 3 / 60
    assert first["series.div_binomial.calls"] == 60


def test_seeded_streams_repeat():
    for workload in WORKLOADS.values():
        assert workload.jobs(3, 2) == workload.jobs(3, 2)
        assert workload.jobs(3, 2) != workload.jobs(4, 2)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    metrics, _ = run.end_to_end([(SMALL_JOBS[0], 1.0, None)] * 11, [0.1], 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partitions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_times_are_scaled_to_the_reference_machine():
    results = [(SMALL_JOBS[0], 1.0, None)] * 11
    plain, _ = run.end_to_end(results, [0.1], 1.0)
    scaled, detail = run.end_to_end(results, [0.1], 2.0)
    assert scaled["job_p50_s"][0] == 2 * plain["job_p50_s"][0] == 2.0
    assert scaled["job_tail_s"][0] == 2.0
    assert scaled["setup_s"][0] == 2 * plain["setup_s"][0]
    assert scaled["coeffs_per_s"][0] == plain["coeffs_per_s"][0] / 2
    assert detail["job_p50_s_measured"] == 1.0
    assert run.speed_scale([run.CALIBRATION_REF_S] * 3) == 1.0
