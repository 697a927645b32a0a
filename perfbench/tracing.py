"""Spans and work counts recorded from outside the pentagon package.

The tracer replaces each public module-level function of the six package
modules with a wrapper, at every binding a caller looks it up by:
``pentagon.verify.div_binomial`` as well as ``pentagon.series.div_binomial``,
``pentagon.cli.partitions_recurrence`` as well as the one in
``pentagon.partitions``. Nothing under ``src/`` changes; ``uninstall``
puts the original objects back.

Each call becomes one span ``[name, start, end, parent, job]`` kept in
memory. A span's self time is its duration minus the durations of its
children; calls are sequential in one thread, so children never overlap
and the self times of one job sum to the duration of its root span.

Generator functions are not wrapped: a span around one would close
before the generator does any work. Their time counts toward the caller.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("series", "pentagonal", "telescope", "partitions", "verify", "cli")


def pentagonal_offsets(limit: int) -> list[int]:
    """Generalized pentagonal numbers k(3k-1)/2, k(3k+1)/2 (k >= 1) up to limit."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        out.append(k * (3 * k - 1) // 2)
        if k * (3 * k + 1) // 2 <= limit:
            out.append(k * (3 * k + 1) // 2)
        k += 1
    return out


def telescope_stage_count(variant: int, order: int) -> int:
    """Stages a full derivation at this order verifies, from its arguments alone.

    Follows the tail parameters (base, step) from the starting family until
    the leading exponent passes the order.
    """
    if variant == 1:
        base, step, bare = 1, 1, False
    else:
        base, step, bare = 5, 2, True
    stages = 0
    while (base if bare else base + step) <= order:
        stages += 1
        base, step = base + 3 * step + 1, step + 1
    return stages


def _updates(order: int, k: int) -> int:
    return order + 1 - k if k <= order else 0


# Work counts, each computed from the arguments of one public call and
# returned as (count name, increment). The binomial updates are counted
# where a factor is applied through a public series function;
# partial_product reaches them through product_range.
def _count_product_range(a):
    first, last, order = a["first"], a["last"], a["order"]
    yield "series.binomial_coeff_updates", sum(
        _updates(order, k) for k in range(first, min(last, order) + 1))


def _count_binomial(a):
    yield "series.binomial_coeff_updates", _updates(a["a"].order, a["k"])


def _count_recurrence(a):
    n_max = a["n_max"]
    yield "partitions.recurrence_terms", sum(
        n_max - g + 1 for g in pentagonal_offsets(n_max))


def _count_run_telescope(a):
    yield "telescope.stages_verified", telescope_stage_count(a["variant"], a["order"])


def _count_replay_stages(a):
    yield "telescope.stages_verified", a["stages"]


def _count_full_verification(a):
    order = a["order"]
    yield "verify.fingerprints_computed", order
    yield "verify.fingerprints_used", sum(1 for m in (1, 5, 50) if m <= order)


COUNTERS = {
    "series.product_range": _count_product_range,
    "series.mul_binomial": _count_binomial,
    "series.div_binomial": _count_binomial,
    "partitions.partitions_recurrence": _count_recurrence,
    "telescope.run_telescope": _count_run_telescope,
    "telescope.replay_stages": _count_replay_stages,
    "verify.full_verification": _count_full_verification,
}


class Tracer:
    """Wraps the package's public functions and records spans and counts."""

    def __init__(self, modules: dict) -> None:
        """``modules`` maps each layer name to its imported module object."""
        self.spans: list[list] = []
        self.counts: defaultdict[int, defaultdict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        targets = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    targets[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patches.append((module, attr, obj, targets[obj]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts = self.counts[self.job]
                for key, value in counter(signature.bind(*args, **kwargs).arguments):
                    counts[key] += value
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, job: int) -> None:
        self.job = job
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self, jobs: range | None = None) -> dict[str, list[float]]:
        """Per span name: [calls, self seconds], over the given jobs (default all)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if jobs is not None and job not in jobs:
                continue
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return out

    def root_duration(self, job: int) -> float:
        return sum(end - start for _, start, end, parent, j in self.spans
                   if j == job and parent < 0)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
