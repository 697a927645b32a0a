"""Seeded request streams for the three workloads, and the output checks.

Requests come in blocks. A block takes each size from its own equal slice
of the workload's range, near the middle of the slice (within an eighth
of its width either way), pairs the other parameters with the sizes by a
fixed rule, and shuffles the order. The seed picks the exact values, the
order and the sample points, while every block asks for about the same
amount of work, so medians over whole blocks hardly depend on the seed.

Every check reads the file the command wrote and compares it with a
reference built outside the timed region: the closed form for series,
the true verdict for ``verify``, and for partition tables a prefix from
the knapsack oracle plus Euler's identity at sampled points.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI request: its argv (without --out) and the size it asks for."""

    argv: tuple[str, ...]
    size: int
    samples: tuple[int, ...] = ()


def _ladder(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer near the middle of each of ``count`` equal slices of [lo, hi], ascending."""
    width = (hi - lo) / count
    return [round(lo + (i + 0.5 + rng.uniform(-0.125, 0.125)) * width)
            for i in range(count)]


# Verify job i (by ascending order) takes the D of this rank, so that large
# orders do not always meet large root bounds.
_VERIFY_D_RANK = (3, 0, 4, 1, 5, 2)


def _expand_verify_block(rng: random.Random) -> list[Job]:
    ds = _ladder(rng, 8, 40, 6)
    jobs = [
        Job(("verify", "--order", str(n), "--roots-max-d", str(ds[r]), "--json"), n)
        for n, r in zip(_ladder(rng, 1000, 2500, 6), _VERIFY_D_RANK)
    ]
    jobs += [Job(("expand", "--order", str(n), "--json"), n)
             for n in _ladder(rng, 2000, 6000, 2)]
    rng.shuffle(jobs)
    return jobs


def _telescope_block(rng: random.Random) -> list[Job]:
    stages = iter(_ladder(rng, 15, 30, 2))
    jobs = []
    for i, n in enumerate(_ladder(rng, 1000, 2500, 8)):
        argv = ("telescope", "--variant", str(1 + i % 2))
        if i in (2, 5):
            argv += ("--stages", str(next(stages)))
        jobs.append(Job(argv + ("--order", str(n), "--json"), n))
    rng.shuffle(jobs)
    return jobs


PARTITIONS_PREFIX = 2000
EULER_SAMPLES = 16


def _partitions_block(rng: random.Random) -> list[Job]:
    formats = [(), ("--json",), ("--csv",)]
    jobs = []
    for i, n in enumerate(_ladder(rng, 10000, 40000, 18)):
        samples = tuple(sorted(rng.sample(range(PARTITIONS_PREFIX + 1, n + 1),
                                          EULER_SAMPLES - 1))) + (n,)
        jobs.append(Job(("partitions", "--upto", str(n)) + formats[i % 3], n, samples))
    rng.shuffle(jobs)
    return jobs


class Checker:
    """Builds the references once, then judges one output at a time.

    ``check`` returns None for a correct output or a one-line reason.
    """

    def __init__(self, pentagon: dict, workload: str) -> None:
        self.closed_form_series = pentagon["pentagonal"].closed_form_series
        self.pentagonal_terms_upto = pentagon["pentagonal"].pentagonal_terms_upto
        self.partitions_prefix: tuple[int, ...] = ()
        if workload == "partitions":
            self.partitions_prefix = pentagon["partitions"].partitions_oracle_dp(
                PARTITIONS_PREFIX).values

    def check(self, job: Job, text: str) -> str | None:
        command = job.argv[0]
        try:
            if command == "partitions":
                return self._partitions(job, text)
            data = json.loads(text)
            if command == "expand":
                return self._expand(job, data)
            if command == "verify":
                return self._verify(job, data)
            return self._telescope(job, data)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _expand(self, job: Job, data: dict) -> str | None:
        want = [{"exp": e, "coeff": str(c)}
                for e, c in self.closed_form_series(job.size).nonzero_terms()]
        if data != {"order": job.size, "terms": want}:
            return "expanded series differs from the closed form"
        return None

    def _verify(self, job: Job, data: dict) -> str | None:
        names = ["closed form equals product", "division cascade", "root structure"]
        d = int(job.argv[job.argv.index("--roots-max-d") + 1])
        if (data["order"], data["roots_max_d"]) != (job.size, d):
            return "verify echoed the wrong arguments"
        if [c["name"] for c in data["checks"]] != names:
            return "verify ran the wrong checks"
        # d <= 40 here, below the false FAIL of the float root test at d >= 125,
        # so every check's true outcome is a pass.
        if data["passed"] is not True or not all(c["passed"] is True for c in data["checks"]):
            return "verify reported a FAIL where every check holds"
        return None

    def _telescope(self, job: Job, data: dict) -> str | None:
        variant = int(job.argv[2])
        if data["verified"] is not True or data["variant"] != variant:
            return "telescope output is not a verified trace of the variant asked"
        if "--stages" in job.argv:
            stages = int(job.argv[job.argv.index("--stages") + 1])
            if data["stages"] != stages or len(data["emissions"]) != stages:
                return "telescope replayed the wrong number of stages"
            got: dict[int, int] = {}
            for exponent, sign in data["prefix"]:
                got[exponent] = got.get(exponent, 0) + sign
            for record in data["emissions"]:
                for exponent, sign in zip(record["exps"], record["signs"]):
                    got[exponent] = got.get(exponent, 0) + sign
            want = dict(self.pentagonal_terms_upto(max(got)))
            if {e: c for e, c in got.items() if c} != want:
                return "emitted monomials differ from the pentagonal terms"
            return None
        want = [str(c) for c in self.closed_form_series(job.size).coeffs]
        if data["order"] != job.size or data["series"] != {"order": job.size, "coeffs": want}:
            return "telescoped series differs from the closed form"
        return None

    def _partitions(self, job: Job, text: str) -> str | None:
        if "--json" in job.argv:
            data = json.loads(text)
            if data["upto"] != job.size:
                return "partitions echoed the wrong bound"
            values = [int(v) for v in data["values"]]
        else:
            sep = "," if "--csv" in job.argv else " "
            values = []
            for n, line in enumerate(text.splitlines()):
                index, value = line.split(sep)
                if int(index) != n:
                    return f"row {n} is labelled {index}"
                values.append(int(value))
        if len(values) != job.size + 1:
            return f"{len(values)} values for p(0..{job.size})"
        prefix = self.partitions_prefix
        if tuple(values[:len(prefix)]) != prefix:
            return "partition prefix differs from the knapsack oracle"
        if any(a > b for a, b in zip(values[1:], values[2:])):
            return "partition counts decrease"
        for n in job.samples:
            total = sum(sign * values[n - g] for g, sign in self.pentagonal_terms_upto(n))
            if total != 0:
                return f"Euler's identity fails at n = {n}"
        return None


@dataclass(frozen=True)
class Workload:
    """A named request stream with the record the benchmark keeps about it."""

    name: str
    why: str
    argv: str
    layers: tuple[str, ...]
    block: Callable[[random.Random], list[Job]]
    block_seconds: float  # one block's job time on the reference machine
    warmup: tuple[tuple[str, ...], ...]

    def record(self) -> dict:
        return {"name": self.name, "loop": "closed, one client", "argv": self.argv,
                "layers": list(self.layers), "why": self.why}

    def jobs(self, seed: int, blocks: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        return [job for _ in range(blocks) for job in self.block(rng)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="expand_verify",
            why="the division cascade and fingerprints beside the binomial "
                "product, so a series kernel change that helps one side and "
                "hurts the other shows",
            argv="3 of 4: verify --order N --roots-max-d D --json, N in "
                 "[1000, 2500], D in [8, 40]; 1 of 4: expand --order N --json, "
                 "N in [2000, 6000]",
            layers=("series", "verify", "pentagonal", "cli"),
            block=_expand_verify_block,
            block_seconds=14.3,
            warmup=(("verify", "--order", "400", "--roots-max-d", "8", "--json"),
                    ("expand", "--order", "1500", "--json")),
        ),
        Workload(
            name="telescope",
            why="expand_tail does over 90% of the work and stages mode expands "
                "every tail twice; nothing divides or tabulates partitions",
            argv="telescope --variant {1,2} --order N --json, N in [1000, 2500]; "
                 "1 of 4 adds --stages S, S in [15, 30]",
            layers=("telescope", "cli"),
            block=_telescope_block,
            block_seconds=8.4,
            warmup=(("telescope", "--variant", "1", "--order", "500", "--json"),
                    ("telescope", "--variant", "2", "--stages", "8", "--order",
                     "500", "--json")),
        ),
        Workload(
            name="partitions",
            why="the big-integer recurrence plus cli rendering of large "
                "integers; no series kernel runs, so it bypasses every series, "
                "telescope and verify change",
            argv="partitions --upto n, n in [10000, 40000], text, --json and "
                 "--csv in equal shares",
            layers=("partitions", "pentagonal", "cli"),
            block=_partitions_block,
            block_seconds=12.6,
            warmup=(("partitions", "--upto", "3000"),
                    ("partitions", "--upto", "3000", "--json"),
                    ("partitions", "--upto", "3000", "--csv")),
        ),
    )
}
