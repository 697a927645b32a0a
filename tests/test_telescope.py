"""Replay of the two derivations: per-step identities, traces, mutations."""

import dataclasses
import errno
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

import pentagon._worker
import pentagon.telescope
from pentagon.pentagonal import closed_form_series, g_minus, g_plus
from pentagon.series import TruncatedSeries, format_series, mul_binomial
from pentagon.telescope import (
    PREFIX_TERMS,
    DerivationTrace,
    EmissionRecord,
    StageVerificationError,
    TailFamily,
    _stage_holds,
    _tail_coeffs,
    expand_tail,
    initial_tail,
    reduce_step,
    replay_stages,
    run_telescope,
)


def canonical_tail(variant: int, stage: int) -> TailFamily:
    """The stage-m tail of either derivation, from the exponent formulas."""
    return TailFamily(
        variant=variant,
        stage=stage,
        base=g_minus(stage),
        step=stage,
        includes_bare_head=(variant == 2),
    )


def test_initial_tails():
    t1 = initial_tail(1)
    assert (t1.stage, t1.base, t1.step) == (1, 1, 1)
    assert not t1.includes_bare_head
    t2 = initial_tail(2)
    assert (t2.stage, t2.base, t2.step) == (2, 5, 2)
    assert t2.includes_bare_head
    with pytest.raises(ValueError):
        initial_tail(3)


def test_tail_family_validation():
    with pytest.raises(ValueError):
        TailFamily(4, 1, 1, 1, False)
    with pytest.raises(ValueError):
        TailFamily(1, 0, 1, 1, False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t = initial_tail(1)
        t.base = 9


def test_leading_exponent_and_contribution():
    assert initial_tail(1).leading_exponent == 2
    assert initial_tail(2).leading_exponent == 5
    assert initial_tail(1).contribution_sign == -1
    assert initial_tail(2).contribution_sign == 1


def test_reduce_step_variant1_stage1():
    record, nxt = reduce_step(initial_tail(1))
    assert (record.first_exponent, record.second_exponent) == (2, 5)
    assert (record.first_sign, record.second_sign) == (-1, 1)
    assert record.tail_signs == (1, -1)
    assert (nxt.stage, nxt.base, nxt.step) == (2, 5, 2)


def test_reduce_step_variant1_stage2():
    record, _ = reduce_step(canonical_tail(1, 2))
    assert (record.first_exponent, record.second_exponent) == (7, 12)
    assert (record.first_sign, record.second_sign) == (1, -1)


def test_reduce_step_variant2_stage4():
    record, nxt = reduce_step(canonical_tail(2, 4))
    assert (record.first_exponent, record.second_exponent) == (22, 26)
    assert (record.first_sign, record.second_sign) == (1, 1)
    assert record.tail_signs == (1, 1)
    assert (nxt.base, nxt.step) == (35, 5)


def forward_tail(t: TailFamily, order: int) -> tuple[int, ...]:
    """The defining sum of x^(base + j*step) * prod_(i = p .. p+j-1) (1 - x^i)
    with p = step, added term by term from j = 0 up, each product one
    factor longer."""
    acc = [0] * (order + 1)
    prod = [1] + [0] * order
    j, exponent = 0, t.base
    while exponent <= order:
        if j > 0 or t.includes_bare_head:
            for i in range(order + 1 - exponent):
                acc[exponent + i] += prod[i]
        k = t.step + j
        for i in range(order, k - 1, -1):
            prod[i] -= prod[i - k]
        j += 1
        exponent += t.step
    return tuple(acc)


def horner_tail(t: TailFamily, order: int) -> tuple[int, ...]:
    """The same sum inside out: x^base * S_0, S_j = 1 + x^step * (1 - x^(p+j))
    * S_(j+1), each S_j cut at degree order - base - j*step."""
    depth = order - t.base
    if depth < 0:
        return (0,) * (order + 1)
    s = (1,) + (0,) * (depth % t.step)
    for j in range(depth // t.step - 1, -1, -1):
        s = mul_binomial(TruncatedSeries(s), t.step + j, -1).coeffs
        s = (1,) + (0,) * (t.step - 1) + s
    if not t.includes_bare_head:
        s = (s[0] - 1,) + s[1:]
    return (0,) * t.base + s


@st.composite
def tails_and_orders(draw):
    tail = TailFamily(
        variant=draw(st.integers(1, 2)),
        stage=draw(st.integers(1, 40)),
        base=draw(st.integers(1, 60)),
        step=draw(st.integers(1, 12)),
        includes_bare_head=draw(st.booleans()),
    )
    return tail, draw(st.integers(0, 3 * tail.leading_exponent))


@given(tails_and_orders())
@settings(max_examples=300, deadline=None)
def test_expand_tail_matches_forward_sum(tail_and_order):
    tail, order = tail_and_order
    expansion = expand_tail(tail, order)
    assert expansion.order == order
    assert expansion.coeffs == forward_tail(tail, order)


@pytest.mark.parametrize("variant", (1, 2))
def test_expand_tail_matches_forward_sum_on_every_stage(monkeypatch, one_process,
                                                        variant):
    expansions = []
    tail_coeffs = pentagon.telescope._tail_coeffs

    def recorded(t, order, sign):
        expansions.append((t, order, tail_coeffs(t, order, sign)))
        return expansions[-1][2]

    monkeypatch.setattr(pentagon.telescope, "_tail_coeffs", recorded)
    trace = run_telescope(variant, 1200)
    assert [t.stage for t, _, _ in expansions] == list(
        range(initial_tail(variant).stage, trace.residual.stage + 1))
    for t, order, coeffs in expansions:
        assert order == 1200
        assert coeffs == [t.contribution_sign * c for c in forward_tail(t, order)]


@pytest.mark.parametrize("variant", (1, 2))
def test_expand_tail_matches_horner_on_every_stage_at_order_3000(variant):
    t = initial_tail(variant)
    while t.leading_exponent <= 3000:
        assert expand_tail(t, 3000).coeffs == horner_tail(t, 3000), t
        _, t = reduce_step(t)
    assert expand_tail(t, 3000).coeffs == horner_tail(t, 3000) == (0,) * 3001


@pytest.mark.parametrize("includes_bare_head", (False, True))
@pytest.mark.parametrize("step", (1, 2, 3, 7, 12))
def test_expand_tail_where_the_z_recursion_stops(step, includes_bare_head):
    # Level K = step + i is needed to degree p_K = depth - 2*step*i - i(i-1)/2
    # and stops once p_K < K; these depths put p_K at K - 1, K and K + 1.
    for base in (1, 5):
        tail = TailFamily(1, 1, base, step, includes_bare_head)
        for i in range(4):
            k = step + i
            for p in (k - 1, k, k + 1):
                order = base + p + 2 * step * i + i * (i - 1) // 2
                assert expand_tail(tail, order).coeffs == forward_tail(tail, order), (
                    base, i, p)


def test_expand_tail_divides_once_per_level(monkeypatch):
    divided, starts = [], []
    real = pentagon.telescope._div_binomial_inplace

    def spy(coeffs, k, start):
        divided.append(k)
        starts.append(start)
        real(coeffs, k, start)

    monkeypatch.setattr(pentagon.telescope, "_div_binomial_inplace", spy)
    # depth 2499 at step 1: p_K = 2499 - (K-1) - K(K-1)/2 stays >= K up to K = 69
    expand_tail(initial_tail(1), 2500)
    # (one step per term, as Horner did, would take 2499 steps)
    assert divided == list(range(69, 0, -1))
    # level K sits in the output's last p_K + 1 entries and divides past its head
    p = {1: 2499}
    for k in range(1, 69):
        p[k + 1] = p[k] - 1 - k
    assert starts == [2500 - p[k] + k for k in divided]


@pytest.mark.parametrize("run, calls, updates", [
    (lambda: expand_tail(initial_tail(1), 2500), 69, 112_999),
    (lambda: run_telescope(1, 2500), 1345, 1_668_669),
    (lambda: run_telescope(2, 2500), 1276, 1_555_670),
], ids=("expand_tail", "variant_1", "variant_2"))
def test_telescope_division_work_budget(division_updates, one_process, run,
                                        calls, updates):
    # level K updates only the p_K + 1 - K entries of its suffix past
    # the first K; one entry more or less per level changes the sum
    run()
    assert len(division_updates) == calls
    assert sum(division_updates) == updates


def test_expand_tail_frozen_values():
    assert expand_tail(initial_tail(1), 6).coeffs == (0, 0, 1, 0, 0, -1, 0)
    b = expand_tail(canonical_tail(1, 2), 11)
    assert b.coeffs[:8] == (0, 0, 0, 0, 0, 0, 0, 1)
    assert all(c == 0 for c in b.coeffs[8:])
    assert expand_tail(initial_tail(2), 6).coeffs == (0, 0, 0, 0, 0, 1, 0)


def test_expand_tail_matches_prefix_identity():
    order = 40
    full = closed_form_series(order)
    v1 = expand_tail(initial_tail(1), order)
    lhs = [0] * (order + 1)
    for e, c in PREFIX_TERMS[1]:
        lhs[e] = c
    assert tuple(a - b for a, b in zip(lhs, v1.coeffs)) == full.coeffs
    v2 = expand_tail(initial_tail(2), order)
    lhs2 = [0] * (order + 1)
    for e, c in PREFIX_TERMS[2]:
        lhs2[e] = c
    assert tuple(a + b for a, b in zip(lhs2, v2.coeffs)) == full.coeffs


@given(st.integers(1, 2), st.integers(1, 14), st.integers(0, 90))
@settings(max_examples=60)
def test_expand_tail_vanishes_below_leading_exponent(variant, stage, order):
    if variant == 2 and stage == 1:
        stage = 2
    tail = canonical_tail(variant, stage)
    expansion = expand_tail(tail, order)
    cutoff = min(tail.leading_exponent, order + 1)
    assert all(c == 0 for c in expansion.coeffs[:cutoff])
    if tail.leading_exponent <= order:
        assert expansion[tail.leading_exponent] == 1


def test_replay_stages_examples():
    # stage 1 of variant 1, and stages 2 and 3 of variant 2
    assert len(replay_stages(1, 1, 50)) == 1
    assert len(replay_stages(2, 2, 80)) == 2


def test_replay_stages_default_order_all_early_stages():
    for variant in (1, 2):
        assert len(replay_stages(variant, 12)) == 12


def signed_coeffs(t: TailFamily, order: int) -> list[int]:
    """The tail's expansion in its series sign, as the stage loop holds it."""
    return _tail_coeffs(t, order, t.contribution_sign)


def test_corrupted_next_tail_fails_identity():
    for variant in (1, 2):
        tail = initial_tail(variant)
        record, nxt = reduce_step(tail)
        order = g_minus(tail.stage + 2) + 5
        lhs = signed_coeffs(tail, order)
        assert _stage_holds(lhs, record, signed_coeffs(nxt, order))
        shifted = dataclasses.replace(nxt, base=nxt.base + 1)
        assert not _stage_holds(lhs, record, signed_coeffs(shifted, order))


def test_corrupted_emission_fails_identity():
    tail = canonical_tail(1, 3)
    record, nxt = reduce_step(tail)
    order = g_minus(5) + 5
    lhs, rest = signed_coeffs(tail, order), signed_coeffs(nxt, order)
    assert _stage_holds(lhs, record, rest)
    wrong_exp = dataclasses.replace(record, second_exponent=record.second_exponent + 1)
    assert not _stage_holds(lhs, wrong_exp, rest)
    wrong_sign = dataclasses.replace(record, first_sign=-record.first_sign)
    assert not _stage_holds(lhs, wrong_sign, rest)


def test_corrupted_bare_head_flag_fails_identity():
    tail = canonical_tail(2, 3)
    record, nxt = reduce_step(tail)
    order = g_minus(5) + 5
    lhs = signed_coeffs(tail, order)
    assert _stage_holds(lhs, record, signed_coeffs(nxt, order))
    flipped = dataclasses.replace(nxt, includes_bare_head=False)
    assert not _stage_holds(lhs, record, signed_coeffs(flipped, order))


@pytest.mark.parametrize("variant", (1, 2))
def test_a_next_expansion_shorter_than_the_tail_fails_identity(variant):
    # cut to the tail's length, a next tail one order short would match
    # the tail everywhere it reaches; it must fail, not pass
    tail = initial_tail(variant)
    record, nxt = reduce_step(tail)
    order = g_minus(tail.stage + 2) + 5
    lhs = signed_coeffs(tail, order)
    assert _stage_holds(lhs, record, signed_coeffs(nxt, order))
    assert _stage_holds(lhs, record, signed_coeffs(nxt, order + 7))
    short = signed_coeffs(nxt, order - 1)
    assert record.second_exponent < len(short)
    assert not _stage_holds(lhs, record, short)


@pytest.mark.parametrize("variant", (1, 2))
def test_a_next_tail_out_of_its_series_sign_fails_identity(variant):
    # the series signs of consecutive tails alternate; the check must see
    # the next tail's, not its bare expansion
    tail = canonical_tail(variant, 2)
    record, nxt = reduce_step(tail)
    assert nxt.contribution_sign == -1
    order = g_minus(tail.stage + 2) + 5
    lhs = signed_coeffs(tail, order)
    assert _stage_holds(lhs, record, signed_coeffs(nxt, order))
    unsigned = _tail_coeffs(nxt, order, 1)
    assert unsigned == list(expand_tail(nxt, order).coeffs)
    assert not _stage_holds(lhs, record, unsigned)


def test_emissions_match_pentagonal_formulas():
    for variant in (1, 2):
        tail = initial_tail(variant)
        for _ in range(40):
            m = tail.stage
            record, tail = reduce_step(tail)
            if variant == 1:
                assert (record.first_exponent, record.second_exponent) == (
                    g_plus(m), g_minus(m + 1))
                assert (record.first_sign, record.second_sign) == (
                    (-1) ** m, (-1) ** (m + 1))
            else:
                assert (record.first_exponent, record.second_exponent) == (
                    g_minus(m), g_plus(m))
                assert (record.first_sign, record.second_sign) == (
                    (-1) ** m, (-1) ** m)
            assert record.second_exponent - record.first_exponent in (m, 2 * m + 1)


def test_stage_parameters_follow_recurrences():
    tail = initial_tail(1)
    for _ in range(30):
        _, nxt = reduce_step(tail)
        assert nxt.base == tail.base + 3 * tail.step + 1
        assert nxt.step == tail.step + 1
        assert nxt.base == g_minus(nxt.stage)
        tail = nxt


def test_run_telescope_variant1_order12():
    trace = run_telescope(1, 12)
    assert [(r.first_exponent, r.second_exponent) for r in trace.emissions] == [
        (2, 5), (7, 12)]
    assert format_series(trace.reconstruct()) == "1 - x - x^2 + x^5 + x^7 - x^12"
    assert trace.prefix == ((0, 1), (1, -1))
    assert trace.residual.leading_exponent > 12


def test_run_telescope_variant2_order26():
    trace = run_telescope(2, 26)
    assert [(r.first_exponent, r.second_exponent) for r in trace.emissions] == [
        (5, 7), (12, 15), (22, 26)]
    assert trace.prefix == ((0, 1), (1, -1), (2, -1))


def test_run_telescope_smallest_order():
    trace = run_telescope(1, 2)
    assert len(trace.emissions) == 1
    assert format_series(trace.reconstruct()) == "1 - x - x^2"


def test_run_telescope_rejects_tiny_order():
    with pytest.raises(ValueError):
        run_telescope(1, 1)


@given(st.integers(1, 2), st.integers(2, 260))
@settings(max_examples=40, deadline=None)
def test_reconstruction_matches_closed_form(variant, order):
    trace = run_telescope(variant, order)
    assert trace.reconstruct().coeffs == closed_form_series(order).coeffs


@given(st.integers(2, 200))
@settings(max_examples=25, deadline=None)
def test_variants_emit_identical_term_multisets(order):
    traces = [run_telescope(v, order) for v in (1, 2)]
    term_sets = []
    for trace in traces:
        terms = sorted(
            [(e, c) for e, c in trace.prefix]
            + [(r.first_exponent, r.first_sign) for r in trace.emissions
               if r.first_exponent <= order]
            + [(r.second_exponent, r.second_sign) for r in trace.emissions
               if r.second_exponent <= order]
        )
        term_sets.append(terms)
    assert term_sets[0] == term_sets[1]


@pytest.mark.parametrize("call, message", (
    # each used to raise a bare TypeError, islice's error, or be accepted
    (lambda: run_telescope(1, 12.5), "order must be an int, got 12.5"),
    (lambda: run_telescope(True, 12), "variant must be an int, got True"),
    (lambda: run_telescope(2.0, 12), "variant must be an int, got 2.0"),
    (lambda: replay_stages(1, 2.0), "stages must be an int, got 2.0"),
    (lambda: replay_stages(1, True), "stages must be an int, got True"),
    (lambda: replay_stages(1, 3, 40.0), "order must be an int, got 40.0"),
    (lambda: expand_tail(initial_tail(1), 12.0), "order must be an int, got 12.0"),
    (lambda: expand_tail(initial_tail(1), True), "order must be an int, got True"),
    (lambda: TailFamily(1, 2.0, 5, 2, True), "stage must be an int, got 2.0"),
    (lambda: TailFamily(True, 1, 1, 1, False), "variant must be an int, got True"),
    (lambda: TailFamily(1, 1, 1.0, 1, False), "base must be an int, got 1.0"),
    (lambda: TailFamily(1, 1, 1, True, False), "step must be an int, got True"),
    # a string used to pass as true: reduce_step emitted (5, 7) for 'no'
    (lambda: TailFamily(2, 2, 5, 2, "no"), "includes_bare_head must be a bool, got 'no'"),
    (lambda: TailFamily(2, 2, 5, 2, 1), "includes_bare_head must be a bool, got 1"),
    (lambda: TailFamily(2, 2, 5, 2, None), "includes_bare_head must be a bool, got None"),
    # names the order it was given, not the length of an empty series
    (lambda: expand_tail(initial_tail(1), -5), "order must be >= 0, got -5"),
    (lambda: replay_stages(1, 0), "stages must be >= 1, got 0"),
    (lambda: run_telescope(1, 1), "order must be >= 2, got 1"),
    (lambda: initial_tail(3), "variant must be 1 or 2, got 3"),
    (lambda: initial_tail(1.0), "variant must be an int, got 1.0"),
    # the prefix is read from the variant, so a trace checks it when built
    (lambda: DerivationTrace(3, 12, (), initial_tail(1)),
     "variant must be 1 or 2, got 3"),
    (lambda: DerivationTrace(True, 12, (), initial_tail(1)),
     "variant must be an int, got True"),
    # reconstruct used to raise a bare TypeError from the list multiply
    (lambda: DerivationTrace(1, 5.0, (), initial_tail(1)),
     "order must be an int, got 5.0"),
    (lambda: TailFamily(1, 0, 1, 1, False), "stage, base and step must all be >= 1"),
    # these used to be built, and tail_signs gave floats or complex numbers
    (lambda: EmissionRecord(-1, 1, 2, 1, 1), "stage must be >= 1, got -1"),
    (lambda: EmissionRecord(1.5, 1, 2, 1, 1), "stage must be an int, got 1.5"),
    (lambda: EmissionRecord(1, 1, 2, 5, 1), "first_sign must be -1 or 1, got 5"),
    (lambda: EmissionRecord(1, 1, 2, 1, True), "second_sign must be an int, got True"),
))
def test_entry_points_name_the_argument_they_reject(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("variant", (1, 2))
def test_each_emission_carries_the_sign_of_its_stage(variant):
    records = run_telescope(variant, 1200).emissions
    assert records
    assert all(r.first_sign == (-1) ** r.stage for r in records)
    record = EmissionRecord(stage=4, first_exponent=22, second_exponent=26,
                            first_sign=1, second_sign=1)
    assert record.tail_signs == (1, 1)
    record = EmissionRecord(stage=3, first_exponent=15, second_exponent=22,
                            first_sign=-1, second_sign=1)
    assert record.tail_signs == (1, -1)


def test_replay_stages_counts_and_validation():
    records = replay_stages(2, 4)
    assert [(r.first_exponent, r.second_exponent) for r in records] == [
        (5, 7), (12, 15), (22, 26), (35, 40)]
    assert [r.stage for r in replay_stages(1, 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        replay_stages(1, 0)


@pytest.mark.parametrize("variant, last_stage, needed", ((1, 8, 126), (2, 9, 145)))
def test_replay_stages_rejects_order_below_last_stage(monkeypatch, variant,
                                                      last_stage, needed):
    assert len(replay_stages(variant, 8, needed)) == 8
    for name in ("expand_tail", "_tail_coeffs"):
        monkeypatch.setattr(pentagon.telescope, name,
                            lambda *args: pytest.fail("a tail was expanded"))
    for order in (12, needed - 1):
        with pytest.raises(ValueError,
                           match=f"stage {last_stage} needs order >= {needed}"):
            replay_stages(variant, 8, order)


@pytest.mark.parametrize("variant", (1, 2))
def test_replay_stages_finds_the_last_tail_in_closed_form(monkeypatch, variant):
    # the order check agrees with a walk of reduce_step at every count;
    # no stage is checked, so only the order check can raise
    monkeypatch.setattr(pentagon.telescope, "_check_stages",
                        lambda tails, records, order: None)
    t = initial_tail(variant)
    records = []
    for stages in range(1, 41):
        record, t = reduce_step(t)
        records.append(record)
        needed = t.leading_exponent
        assert replay_stages(variant, stages, needed) == records
        with pytest.raises(ValueError, match=(
                f"^stage {t.stage - 1} needs order >= {needed} "
                rf"\(its next tail's leading exponent\), got {needed - 1}$")):
            replay_stages(variant, stages, needed - 1)


def test_replay_stages_detects_broken_step(broken_reduce_step):
    for variant in (1, 2):
        with pytest.raises(StageVerificationError):
            replay_stages(variant, 2)
        with pytest.raises(StageVerificationError):
            replay_stages(variant, 2, 60)
        with pytest.raises(StageVerificationError):
            run_telescope(variant, 60)


@pytest.mark.parametrize("variant", (1, 2))
def test_every_tail_is_expanded_once(monkeypatch, one_process, variant):
    expanded = []

    tail_coeffs = pentagon.telescope._tail_coeffs

    def counted(t, order, sign):
        expanded.append(t.stage)
        return tail_coeffs(t, order, sign)

    monkeypatch.setattr(pentagon.telescope, "_tail_coeffs", counted)
    first = initial_tail(variant).stage
    for stages, order in ((7, 300), (7, None), (30, None)):
        expanded.clear()
        replay_stages(variant, stages, order)
        assert expanded == list(range(first, first + stages + 1))
    expanded.clear()
    trace = run_telescope(variant, 600)
    assert len(expanded) == len(trace.emissions) + 1
    assert expanded == list(range(first, trace.residual.stage + 1))


def test_residual_tail_is_beyond_order():
    for variant in (1, 2):
        for order in (2, 9, 57, 158):
            trace = run_telescope(variant, order)
            assert trace.residual.leading_exponent > order
            if trace.emissions:
                last = trace.emissions[-1]
                assert last.first_exponent <= order


def run_updates(variant: int, order: int) -> int:
    """The weights of the tails a full derivation at this order expands."""
    tails = [initial_tail(variant)]
    while tails[-1].leading_exponent <= order:
        tails.append(reduce_step(tails[-1])[1])
    return sum(pentagon.telescope._updates(t, order) for t in tails)


@pytest.mark.parametrize("variant, updates", ((1, 1_668_669), (2, 1_555_670)))
def test_each_tail_is_weighed_by_its_kernel_updates(variant, updates):
    # the split is made from these weights; the division work budget
    # pins the same totals from the kernel calls themselves
    assert run_updates(variant, 2500) == updates


@pytest.fixture
def parent_ranges(monkeypatch):
    """The (lo, hi) of every stage range this process checks; a forked
    worker's calls land in its own copy of the list."""
    ranges = []
    first_failure = pentagon.telescope._first_failure

    def recorded(tails, records, order, lo, hi):
        ranges.append((lo, hi))
        return first_failure(tails, records, order, lo, hi)

    monkeypatch.setattr(pentagon.telescope, "_first_failure", recorded)
    return ranges


def use_worker(monkeypatch, choice: bool) -> None:
    monkeypatch.setattr(pentagon.telescope, "_use_worker", lambda updates: choice)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("variant", (1, 2))
@pytest.mark.parametrize("order", (500, 1500), ids=("below", "above"))
def test_a_worker_returns_what_the_serial_check_returns(monkeypatch, parent_ranges,
                                                        variant, order):
    # order 500 is below the worker's break-even and 1500 above it; the
    # split path is forced on both sides, and must change nothing
    limit = pentagon._worker._WORKER_UPDATES
    assert (run_updates(variant, order) >= limit) == (order == 1500)
    runs = (lambda: run_telescope(variant, order),
            lambda: replay_stages(variant, 12, order),
            lambda: replay_stages(variant, 30))
    for run in runs:
        use_worker(monkeypatch, False)
        serial = run()
        use_worker(monkeypatch, True)
        parent_ranges.clear()
        split = run()
        assert split == serial
        if isinstance(split, DerivationTrace):
            assert split.residual == serial.residual
            assert split.reconstruct() == serial.reconstruct()
            stages = len(split.emissions)
        else:
            stages = len(split)
        # this process checked only the early stages
        [(lo, mid)] = parent_ranges
        assert lo == 0 < mid < stages
        assert_no_child_left()


def flip_first_sign(monkeypatch, stages) -> None:
    """reduce_step records the wrong first sign at these stages, so those
    stage checks fail, and no other."""
    reduce = pentagon.telescope.reduce_step

    def flipped(t):
        record, nxt = reduce(t)
        if record.stage in stages:
            record = dataclasses.replace(record, first_sign=-record.first_sign)
        return record, nxt

    monkeypatch.setattr(pentagon.telescope, "reduce_step", flipped)


@pytest.mark.parametrize("variant", (1, 2))
def test_a_failure_reads_the_same_whichever_process_finds_it(
        monkeypatch, parent_ranges, variant):
    records = run_telescope(variant, 2500).emissions
    first, last = records[0].stage, records[-1].stage
    for bad, named in (({last}, last), ({first, last}, first)):
        flip_first_sign(monkeypatch, bad)
        messages = []
        for worker in (False, True):
            use_worker(monkeypatch, worker)
            parent_ranges.clear()
            with pytest.raises(StageVerificationError) as failure:
                run_telescope(variant, 2500)
            messages.append(str(failure.value))
            assert_no_child_left()
        # with the worker, this process checked only the early stages, so
        # the last stage's failure came from the worker
        [(lo, mid)] = parent_ranges
        assert lo == 0 < mid < len(records)
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"variant {variant} stage {named} failed "
                                      "its identity check at order 2500: ")


def test_telescope_failure_names_the_first_mismatch(broken_reduce_step):
    # variant 1's next tail, x^5 shifted to x^6, loses x^7 from "- B"
    for run, order in ((lambda: replay_stages(1, 2), 17),
                       (lambda: run_telescope(1, 60), 60)):
        with pytest.raises(StageVerificationError, match=(
                f"^variant 1 stage 1 failed its identity check at order {order}: "
                r"first mismatch at x\^7: tail -1, monomials minus next tail 0$")):
            run()
    with pytest.raises(StageVerificationError, match=(
            "^variant 2 stage 2 failed its identity check at order 27: "
            r"first mismatch at x\^12: tail -1, monomials minus next tail 0$")):
        replay_stages(2, 2)


def test_no_worker_outlives_its_run(monkeypatch):
    use_worker(monkeypatch, True)
    records = run_telescope(1, 1500).emissions
    assert_no_child_left()
    for bad in ({records[0].stage}, {records[-1].stage}):
        flip_first_sign(monkeypatch, bad)
        with pytest.raises(StageVerificationError):
            run_telescope(1, 1500)
        assert_no_child_left()


def test_ctrl_c_kills_the_worker_rather_than_await_it(monkeypatch):
    use_worker(monkeypatch, True)
    first_failure = pentagon.telescope._first_failure
    parent = os.getpid()

    def interrupted(tails, records, order, lo, hi):
        if os.getpid() != parent:
            time.sleep(60)
        elif lo == 0:
            raise KeyboardInterrupt
        return first_failure(tails, records, order, lo, hi)

    monkeypatch.setattr(pentagon.telescope, "_first_failure", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_telescope(1, 1500)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("breakage", ("fork-fails", "worker-exits-silently"))
def test_the_later_stages_fall_back_to_this_process(monkeypatch, parent_ranges,
                                                    breakage):
    use_worker(monkeypatch, False)
    serial = run_telescope(1, 1500)
    use_worker(monkeypatch, True)
    if breakage == "fork-fails":
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        first_failure = pentagon.telescope._first_failure
        parent = os.getpid()

        def silent(tails, records, order, lo, hi):
            if os.getpid() != parent:
                os._exit(0)
            return first_failure(tails, records, order, lo, hi)

        monkeypatch.setattr(pentagon.telescope, "_first_failure", silent)
    parent_ranges.clear()
    assert run_telescope(1, 1500) == serial
    [(lo, mid), (mid_again, n)] = parent_ranges
    assert lo == 0 < mid == mid_again < n == len(serial.emissions)
    assert_no_child_left()
    # a failure in the later stages is still found, here
    flip_first_sign(monkeypatch, {serial.emissions[-1].stage})
    with pytest.raises(StageVerificationError, match=(
            f"^variant 1 stage {serial.emissions[-1].stage} failed")):
        run_telescope(1, 1500)
    assert_no_child_left()
