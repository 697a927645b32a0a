"""The two telescoping reductions that turn the product into the series.

Each reduction works on a parametric family of tails. A tail is the sum

    sum over j of  x^(base + j*step) * prod_(i = p .. p+j-1) (1 - x^i)

with j running from 1 upward, or from 0 upward when the tail carries a
bare head monomial (the j = 0 term has an empty product). Splitting the
first binomial factor off every term and recombining like powers leaves
two monomials plus a tail of the same shape one stage further along.
Variant 1 starts from the prefix 1 - x and emits with mixed signs;
variant 2 starts from 1 - x - x^2, carries bare heads, and emits both
monomials with the same sign. Every step is replayed numerically in
the truncated ring, never taken on faith, by one stage checker that
both runners share and that expands each tail once; a large run's
later stages are checked in one forked worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._worker import _forked, _use_worker
from .pentagonal import g_minus
from .series import (TruncatedSeries, _div_binomial_inplace, _require_int,
                     _zeros)


class StageVerificationError(RuntimeError):
    """A replayed reduction step failed its exact identity check."""


@dataclass(frozen=True)
class TailFamily:
    """Parametric tail: everything about it follows from four numbers.

    ``stage`` is the position in the derivation (1-based), ``base`` the
    exponent offset, ``step`` the per-term exponent increment and also
    the index p of the first binomial factor, and ``includes_bare_head``
    whether the j = 0 bare monomial is present. Every tail of both
    derivations has p = step, which is what makes it reducible.
    """

    variant: int
    stage: int
    base: int
    step: int
    includes_bare_head: bool

    def __post_init__(self) -> None:
        _require_int(self.variant, "variant", 1, 2)
        for name in ("stage", "base", "step"):
            _require_int(getattr(self, name), name, 1)
        # a truthy string or 1 would pass an if-test as True
        if type(self.includes_bare_head) is not bool:
            raise ValueError("includes_bare_head must be a bool, "
                             f"got {self.includes_bare_head!r}")

    @property
    def leading_exponent(self) -> int:
        """Smallest exponent the tail can produce; all lower coefficients are 0."""
        return self.base if self.includes_bare_head else self.base + self.step

    @property
    def contribution_sign(self) -> int:
        """Sign this tail carries inside the full series: (-1)^stage."""
        return -1 if self.stage % 2 else 1


@dataclass(frozen=True)
class EmissionRecord:
    """The two monomials one reduction step emits.

    ``first_sign`` and ``second_sign`` are the signs the monomials carry
    in the assembled series; inside the stage equation itself they appear
    multiplied by (-1)^stage, the reduced tail's own sign in the series.
    """

    stage: int
    first_exponent: int
    second_exponent: int
    first_sign: int
    second_sign: int

    def __post_init__(self) -> None:
        _require_int(self.stage, "stage", 1)
        # a negative exponent would wrap to the top of reconstruct's list
        _require_int(self.first_exponent, "first_exponent", 0)
        _require_int(self.second_exponent, "second_exponent", 0)
        for name in ("first_sign", "second_sign"):
            sign = getattr(self, name)
            _require_int(sign, name)
            if sign not in (-1, 1):
                raise ValueError(f"{name} must be -1 or 1, got {sign}")

    @property
    def tail_signs(self) -> tuple[int, int]:
        """Signs of the two monomials inside the tail equation itself."""
        c = -1 if self.stage % 2 else 1
        return self.first_sign * c, self.second_sign * c


@dataclass(frozen=True)
class DerivationTrace:
    """A completed replay: every emission and the unexpanded rest.

    The prefix is not stored: it follows from the variant.
    """

    variant: int
    order: int
    emissions: tuple[EmissionRecord, ...]
    residual: TailFamily

    def __post_init__(self) -> None:
        _require_int(self.variant, "variant", 1, 2)
        _require_int(self.order, "order")

    @property
    def prefix(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) terms peeled off before the first tail."""
        return PREFIX_TERMS[self.variant]

    def reconstruct(self) -> TruncatedSeries:
        """Assemble prefix plus signed emissions into a series.

        Exact at this order: the residual tail's leading exponent is
        beyond it, so dropping the residual loses nothing.
        """
        coeffs = _zeros(self.order)
        for exponent, coeff in self.prefix:
            coeffs[exponent] = coeff
        for record in self.emissions:
            if record.first_exponent <= self.order:
                coeffs[record.first_exponent] += record.first_sign
            if record.second_exponent <= self.order:
                coeffs[record.second_exponent] += record.second_sign
        return TruncatedSeries(tuple(coeffs))


PREFIX_TERMS = {1: ((0, 1), (1, -1)), 2: ((0, 1), (1, -1), (2, -1))}


def initial_tail(variant: int) -> TailFamily:
    """The tail the derivation starts from, after peeling the prefix."""
    _require_int(variant, "variant", 1, 2)
    if variant == 1:
        return TailFamily(1, stage=1, base=1, step=1, includes_bare_head=False)
    return TailFamily(2, stage=2, base=5, step=2, includes_bare_head=True)


def reduce_step(t: TailFamily) -> tuple[EmissionRecord, TailFamily]:
    """One split-and-recombine: emit two monomials, return the next tail.

    Splitting (1 - x^p) off each term and pairing the shifted copy of
    term j with term j+1 needs p == step, which every tail has; the
    pairing then collapses to a single tail with base + 3*step + 1,
    step + 1. The record holds the signs in the series, (c, c) with a
    bare head and (c, -c) without, for c = (-1)^stage the tail's own.
    """
    b, d = t.base, t.step
    c = t.contribution_sign
    if t.includes_bare_head:
        e1, e2, s2 = b, b + d, c
    else:
        e1, e2, s2 = b + d, b + 3 * d + 1, -c
    record = EmissionRecord(
        stage=t.stage,
        first_exponent=e1,
        second_exponent=e2,
        first_sign=c,
        second_sign=s2,
    )
    nxt = TailFamily(
        variant=t.variant,
        stage=t.stage + 1,
        base=b + 3 * d + 1,
        step=d + 1,
        includes_bare_head=t.includes_bare_head,
    )
    return record, nxt


def expand_tail(t: TailFamily, order: int) -> TruncatedSeries:
    """Numerically expand the tail's defining sum modulo x^(order+1).

    With d = step = p, the sum is x^base * F(x^d, x^d), where F(a, z) is
    the sum over j >= 0 of (a; x)_j * z^j and (a; x)_j = prod_(i < j)
    (1 - a*x^i); without the bare head, the j = 0 term 1 is dropped.
    (a; x)_(j+1) = (a; x)_j - a*x^j*(a; x)_j gives F(a, z)*(1 - z) =
    1 - a*z*F(a, x*z), so F_K = F(x^d, x^K) satisfies

        F_K = (1 - x^(d+K) * F_(K+1)) / (1 - x^K),   K = d, d+1, ...

    F_d is needed to degree p_d = order - base, and F_(K+1) only to
    p_(K+1) = p_K - d - K; F_K = 1 + O(x^K), so once p_K < K it is 1.
    That leaves about min(depth/(2d), sqrt(2*depth)) levels, with depth
    = order - base, each one in-place division by (1 - x^K) inside the
    output list: level K is its suffix from order - p_K, a head, then
    F_(K+1) from d + K past it, divided from order - p_K + K. The
    stage checker takes the same list, already in the tail's series
    sign, from ``_tail_coeffs``.
    """
    _require_int(order, "order")
    return TruncatedSeries(tuple(_tail_coeffs(t, order, 1)))


def _levels(t: TailFamily, order: int) -> list[tuple[int, int]]:
    """The levels (K, p_K) of the tail's expansion at ``order``, outermost first.

    These are K = step, step + 1, ... while p_K >= 0. A level with
    p_K >= K divides by (1 - x^K), updating p_K + 1 - K entries; the
    level after the last such one, if p_K >= 0 there, is only its head.
    """
    d = t.step
    levels = []
    k, p = d, order - t.base
    while p >= 0:
        levels.append((k, p))
        k, p = k + 1, p - d - k
    return levels


def _updates(t: TailFamily, order: int) -> int:
    """The coefficient updates ``_tail_coeffs`` makes for the tail at ``order``."""
    return sum(p + 1 - k for k, p in _levels(t, order) if p >= k)


def _tail_coeffs(t: TailFamily, order: int, sign: int) -> list[int]:
    """``sign`` times the tail's expansion, as the list expand_tail wraps.

    Level K gets the opposite sign to level K + 1, so it holds
    sign * (-1)^(K-d) * F_K: the heads carry the sign, the divisions
    are linear, and no pass negates a list.
    """
    out = _zeros(order)
    levels = _levels(t, order)
    head = sign if len(levels) % 2 else -sign
    for k, p in reversed(levels):
        out[order - p] = head
        if p >= k:
            _div_binomial_inplace(out, k, order - p + k)
        head = -head
    if levels and not t.includes_bare_head:
        out[t.base] -= sign
    return out


def _stage_rhs(record: EmissionRecord, nxt: list[int],
               order: int) -> list[int] | None:
    """s1*x^e1 + s2*x^e2 + X_(s+1) at ``order``, None if ``nxt`` stops short."""
    if len(nxt) <= order:
        return None
    want = nxt[:order + 1]
    if record.first_exponent <= order:
        want[record.first_exponent] += record.first_sign
    if record.second_exponent <= order:
        want[record.second_exponent] += record.second_sign
    return want


def _stage_holds(lhs: list[int], record: EmissionRecord,
                 nxt: list[int]) -> bool:
    """X_s = s1*x^e1 + s2*x^e2 + X_(s+1), at the order of ``lhs``.

    Each X is a tail's expansion times its series sign (-1)^stage, as
    ``_tail_coeffs`` gives it, and (s1, s2) are the record's series
    signs. The signs of consecutive tails alternate, so this is the
    tail's own equation, tail = (tail_signs monomials) - next, times
    (-1)^stage. A longer ``nxt`` is cut to that order, which is exact; a
    shorter one cannot show the identity, so it fails.
    """
    return lhs == _stage_rhs(record, nxt, len(lhs) - 1)


def _step_order(t: TailFamily, order: int | None) -> int:
    # By default, deep enough to see one full term of the next tail, not zeros.
    return g_minus(t.stage + 2) + 5 if order is None else order


def _signed_tail(t: TailFamily, order: int | None) -> list[int]:
    """X = (-1)^stage times the tail, expanded at its step order."""
    return _tail_coeffs(t, _step_order(t, order), t.contribution_sign)


def _first_failure(tails: list[TailFamily], records: list[EmissionRecord],
                   order: int | None, lo: int, hi: int) -> int:
    """The first stage index in [lo, hi) whose identity fails, else ``hi``.

    Stage i checks ``tails[i]`` against ``records[i]`` and ``tails[i +
    1]``. Each tail is expanded once, in its series sign, for both of
    its stages; the two signs alternate, so every check is one list
    comparison.
    """
    lhs = _signed_tail(tails[lo], order)
    for i in range(lo, hi):
        nxt = _signed_tail(tails[i + 1], order)
        if not _stage_holds(lhs, records[i], nxt):
            return i
        lhs = nxt
    return hi


def _check_stages(tails: list[TailFamily], records: list[EmissionRecord],
                  order: int | None) -> None:
    """Check every stage; raise StageVerificationError at the first that fails.

    ``tails`` holds the n + 1 tails of the n stages in ``records``. A
    run worth a worker is cut into two contiguous ranges of about equal
    kernel updates, the boundary tail expanded in both processes.
    """
    n = len(records)
    work, total = [], 0  # work[i]: the updates of tails[0..i]
    for t in tails:
        total += _updates(t, _step_order(t, order))
        work.append(total)
    if n > 1 and _use_worker(total):
        mid = min(range(1, n),
                  key=lambda m: max(work[m], total - work[m - 1]))
        # a failure in [0, mid) is the first, so it does not await the worker
        with _forked((lambda: _first_failure(tails, records, order, mid, n),)) as later:
            failed = _first_failure(tails, records, order, 0, mid)
            if failed == mid:
                (failed,) = later
    else:
        failed = _first_failure(tails, records, order, 0, n)
    if failed < n:
        raise _stage_error(tails[failed], records[failed], tails[failed + 1],
                           order)


def _stage_error(t: TailFamily, record: EmissionRecord, nxt: TailFamily,
                 order: int | None) -> StageVerificationError:
    """The failure of the stage that reduces ``t``, read off its two tails
    expanded again, so it reads the same whichever process found it.

    It names the first exponent at which the two sides of the tail's own
    equation, tail = (tail_signs monomials) - next, differ: the series
    sign (-1)^stage is taken back out of both.
    """
    lhs = _signed_tail(t, order)
    rhs = _stage_rhs(record, _signed_tail(nxt, order), len(lhs) - 1)
    e = next(e for e, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    c = t.contribution_sign
    return StageVerificationError(
        f"variant {t.variant} stage {t.stage} failed its identity check at "
        f"order {len(lhs) - 1}: first mismatch at x^{e}: tail {c * lhs[e]}, "
        f"monomials minus next tail {c * rhs[e]}")


def replay_stages(variant: int, stages: int,
                  order: int | None = None) -> list[EmissionRecord]:
    """Run a fixed number of reduction steps, verifying each one.

    With order=None every step is checked at its own default order;
    raises StageVerificationError on the first exact-identity failure.
    An explicit order must reach the leading exponent of the last
    stage's next tail, or that stage would compare only zeros; that
    tail comes from reduce_step in closed form, as fast for any count.
    """
    _require_int(stages, "stages", 1)
    if order is not None:
        _require_int(order, "order")
    first = initial_tail(variant)
    if order is not None:
        s, d = stages, first.step
        t = replace(first, stage=first.stage + s, step=d + s,
                    base=first.base + s * (3 * d + 1) + 3 * s * (s - 1) // 2)
        if order < t.leading_exponent:
            raise ValueError(
                f"stage {t.stage - 1} needs order >= {t.leading_exponent} "
                f"(its next tail's leading exponent), got {order}")
        # an order no list can hold fails here, before the stages are listed
        _zeros(order)
    tails, records = [first], []
    for _ in range(stages):
        record, t = reduce_step(tails[-1])
        records.append(record)
        tails.append(t)
    _check_stages(tails, records, order)
    return records


def run_telescope(variant: int, order: int) -> DerivationTrace:
    """Replay a full derivation, verifying every step at the given order.

    Steps run until the next emission's smaller exponent would exceed
    the order, which also bounds the residual tail's leading exponent.
    """
    _require_int(order, "order", 2)
    # an order no list can hold fails here, before the stages are listed
    _zeros(order)
    tails, records = [initial_tail(variant)], []
    while tails[-1].leading_exponent <= order:
        record, t = reduce_step(tails[-1])
        records.append(record)
        tails.append(t)
    _check_stages(tails, records, order)
    return DerivationTrace(variant, order, emissions=tuple(records),
                           residual=tails[-1])
