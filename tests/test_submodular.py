import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfalloc.lemmas import rate_oracle
from wfalloc.submodular import (
    _BLOCK,
    GroundSetTooLargeError,
    SetFunctionOracle,
    _pair_index,
    _pairwise_blocks,
    _setpair_plan,
    check_monotone,
    check_setpair_submodular,
    check_submodular_pairwise,
    karamata_holds,
    majorizes,
    violations_to_csv,
)
from wfalloc.waterfill import NoiseProfile

from oracles import (
    counting_order_subsets,
    naive_monotone_violations,
    naive_pairwise_violations,
    naive_setpair_violations,
)


def oracle_from(fn, size):
    return SetFunctionOracle(frozenset(range(size)), fn)


def counted(fn):
    """``fn`` with a count of its calls in its ``calls`` attribute."""
    def counting(s):
        counting.calls += 1
        return fn(s)
    counting.calls = 0
    return counting


MODULAR = lambda s: float(len(s))
CARD_SQUARED = lambda s: float(len(s)) ** 2
COVERAGE = lambda s: float(min(len(s), 1))
PAIRS = lambda s: float(len(s) * (len(s) - 1) // 2)  # strictly supermodular


# --- pairwise check -------------------------------------------------------

def test_pairwise_modular_clean_even_at_zero_tolerance():
    assert check_submodular_pairwise(oracle_from(MODULAR, 4), tolerance=0.0) == []


def test_pairwise_cardinality_squared_violates():
    violations = check_submodular_pairwise(oracle_from(CARD_SQUARED, 3))
    empty_base = [v for v in violations if v.base_set == frozenset()]
    assert empty_base, "expected a violation rooted at the empty set"
    v = empty_base[0]
    assert v.lhs == pytest.approx(2.0)
    assert v.rhs == pytest.approx(4.0)
    assert v.gap == pytest.approx(2.0)


def test_pairwise_waterfilling_rate_is_clean():
    profile = NoiseProfile([1.0, 2.0, 4.0, 8.0], 1.0)
    assert check_submodular_pairwise(rate_oracle(profile), tolerance=1e-9) == []


def test_pairwise_cap():
    with pytest.raises(GroundSetTooLargeError, match="ground set too large"):
        check_submodular_pairwise(oracle_from(MODULAR, 13))


def test_pairwise_at_its_cap_reports_every_triple_in_naive_order():
    # |S|^2 gains 2|S| + 1 per element, so every one of the 66 * 2^10 triples violates
    ground = frozenset(range(12))
    pairwise = [(v.base_set, v.elem_i, v.elem_j, v.lhs, v.rhs, v.gap)
                for v in check_submodular_pairwise(oracle_from(CARD_SQUARED, 12))]
    assert len(pairwise) == 67_584
    assert pairwise == naive_pairwise_violations(ground, CARD_SQUARED, 1e-9)


def table_oracle(table):
    return SetFunctionOracle(frozenset(range(len(table).bit_length() - 1)),
                             lambda s: float(table[sum(1 << e for e in s)]))


def test_pairwise_matches_plain_enumeration_across_blocks():
    # 11,520 and 28,160 triples span two and four blocks, and random values
    # hit some triples of each block but not others
    rng = np.random.default_rng(61)
    for size in (10, 11):
        oracle = table_oracle(rng.uniform(0.0, 1.0, 1 << size))
        for tol in (0.0, 1e-9, 0.25):
            pairwise = [(v.base_set, v.elem_i, v.elem_j, v.lhs, v.rhs, v.gap)
                        for v in check_submodular_pairwise(oracle, tolerance=tol)]
            assert 0 < len(pairwise) < size * (size - 1) // 2 << size - 2
            assert pairwise == naive_pairwise_violations(oracle.ground_set, oracle.evaluate, tol)


# --- set-pair check -------------------------------------------------------

def test_setpair_modular_and_coverage_clean():
    assert check_setpair_submodular(oracle_from(MODULAR, 3)) == []
    assert check_setpair_submodular(oracle_from(COVERAGE, 3)) == []


def test_setpair_waterfilling_rate_is_clean():
    profile = NoiseProfile([0.5, 1.0, 2.0], 2.0)
    assert check_setpair_submodular(rate_oracle(profile), tolerance=1e-9) == []


def test_setpair_cap():
    evaluate = counted(MODULAR)
    with pytest.raises(GroundSetTooLargeError):
        check_setpair_submodular(oracle_from(evaluate, 9))
    assert evaluate.calls == 0  # rejected before the oracle tables itself


def test_setpair_never_reports_a_nested_pair():
    # for S within T the two sums hold the same values, f(S) + f(T), so the
    # gap is exactly 0 however the values round
    rng = np.random.default_rng(59)
    for low, high in ((0.0, 1.0), (1e8, 2e8), (-1e300, 1e300)):
        for size in (4, 8):
            for _ in range(10):
                table = rng.uniform(low, high, 1 << size)
                oracle = oracle_from(lambda s, t=table: float(t[sum(1 << e for e in s)]), size)
                for tol in (0.0, 1e-9):
                    assert [(s, t) for s, t in check_setpair_submodular(oracle, tolerance=tol)
                            if s <= t] == []


def test_setpair_at_its_cap_matches_plain_enumeration_across_blocks():
    # at 8 elements the 26,335 non-nested pairs span four blocks
    rng = np.random.default_rng(67)
    ground = frozenset(range(8))
    for fn in (CARD_SQUARED, table_oracle(rng.uniform(1e8, 2e8, 256)).evaluate,
               table_oracle(rng.integers(0, 4, 256).astype(float)).evaluate):
        for tol in (0.0, 1e-9):
            setpair = check_setpair_submodular(SetFunctionOracle(ground, fn), tolerance=tol)
            assert len(setpair) > _BLOCK  # hits in more than one block
            assert setpair == naive_setpair_violations(ground, fn, tol)


def test_setpair_nested_sums_match_plain_enumeration_at_zero_tolerance():
    # each gap's rhs is the nested pair's sum, taken once per call: it must
    # hold the same bits as summing f(S&T) + f(S|T) per pair
    readme = rate_oracle(NoiseProfile([1e-310, 1e-300, 1e-300, 1e-300, 5e-324], 1e-300))
    setpair = check_setpair_submodular(readme, tolerance=0.0)
    assert len(setpair) == 6
    assert setpair == naive_setpair_violations(readme.ground_set, readme.evaluate, 0.0)
    ground = frozenset(range(8))
    setpair = check_setpair_submodular(SetFunctionOracle(ground, CARD_SQUARED), tolerance=0.0)
    assert len(setpair) == 26_335  # every non-nested pair, in order
    assert setpair == naive_setpair_violations(ground, CARD_SQUARED, 0.0)


def test_definition_equivalence_on_small_ground_sets():
    rng = np.random.default_rng(11)
    functions = [MODULAR, CARD_SQUARED, COVERAGE, PAIRS,
                 lambda s: math.sqrt(len(s)), lambda s: -float(len(s))]
    # plus a few random set functions, which are almost surely not submodular
    for _ in range(6):
        table = rng.uniform(0.0, 1.0, 32)
        functions.append(lambda s, t=table: float(t[sum(1 << e for e in s)]))
    for fn in functions:
        for size in range(1, 6):
            oracle = oracle_from(fn, size)
            pairwise_clean = check_submodular_pairwise(oracle, tolerance=1e-9) == []
            setpair_clean = check_setpair_submodular(oracle, tolerance=1e-9) == []
            assert pairwise_clean == setpair_clean


# --- monotone check -------------------------------------------------------

def test_monotone_examples():
    assert check_monotone(oracle_from(MODULAR, 4)) == []
    falling = check_monotone(oracle_from(lambda s: -float(len(s)), 3))
    assert falling
    assert all(s <= t for s, t in falling)


def test_monotone_waterfilling_rate_clean():
    rng = np.random.default_rng(23)
    for _ in range(20):
        size = int(rng.integers(1, 7))
        profile = NoiseProfile(rng.uniform(0.1, 10.0, size), float(rng.uniform(0.1, 5.0)))
        assert check_monotone(rate_oracle(profile), tolerance=1e-9) == []


def test_monotone_cap():
    with pytest.raises(GroundSetTooLargeError):
        check_monotone(oracle_from(MODULAR, 9))


def test_pair_index_lists_every_nested_pair_by_mask_then_subset_descending():
    for n in range(7):
        expected = [(mask ^ sub, sub) for mask in range(1 << n)
                    for sub in range(mask, -1, -1) if sub & mask == sub]
        rest, share, starts, sizes = _pair_index(n)
        assert len(expected) == 3**n
        assert list(zip(rest.tolist(), share.tolist())) == expected
        assert len(starts) == len(sizes) == 1 << n
        for mask in range(1 << n):
            group = slice(starts[mask], starts[mask] + sizes[mask])
            assert (rest[group] | share[group] == mask).all()
            assert sizes[mask] == 1 << bin(mask).count("1")
        assert starts[0] == 0 and starts[-1] + sizes[-1] == 3**n
        for array in (rest, share, starts, sizes):
            assert not array.flags.writeable


def test_check_blocks_are_cached_read_only_and_in_reporting_order():
    for size in range(13):
        blocks = _pairwise_blocks(size)
        assert _pairwise_blocks(size) is blocks
        base, both, with_i, with_j, i, j = np.concatenate(blocks, axis=1)
        assert (base & (1 << i | 1 << j) == 0).all() and (i < j).all()
        assert (with_i == base | 1 << i).all() and (with_j == base | 1 << j).all()
        assert (both == with_i | with_j).all()
        triples = list(zip(base.tolist(), i.tolist(), j.tolist()))
        assert triples == sorted(set(triples))
        assert len(base) == size * (size - 1) // 2 << max(size - 2, 0)
        for block in blocks:
            assert block.dtype == np.int32 and block.shape[1] <= _BLOCK
            assert not block.flags.writeable


def test_setpair_plan_is_cached_read_only_and_in_reporting_order():
    for size in range(9):
        plan = _setpair_plan(size)
        assert _setpair_plan(size) is plan
        rest, share = _pair_index(size)[:2]
        pairs, run_ends = [], []
        for run_s, counts, n, t in plan:
            for row in (run_s, counts, n, t):
                assert row.dtype == np.int32 and not row.flags.writeable
            assert len(n) == len(t) == counts.sum() <= _BLOCK and (counts > 0).all()
            s = np.repeat(run_s, counts)
            # N points at the nested pair (S&T, S|T) in the pair index
            assert (share[n] == s & t).all() and (rest[n] | share[n] == s | t).all()
            pairs += zip(s.tolist(), t.tolist())
            run_ends.append(pairs[-1][0] if pairs else None)
        # exactly the non-nested pairs, in (S, T) order
        assert pairs == [(a, b) for a in range(1 << size) for b in range(a + 1, 1 << size) if a & b != a]
        # each block holds whole S-runs: no S continues into the next block
        for (run_s, *_), end in zip(plan[1:], run_ends):
            assert len(run_s) == 0 or run_s[0] != end
    assert len(_setpair_plan(8)) > 1  # 26,335 pairs need more than one block


def test_warm_gap_checks_keep_their_temporaries_small():
    # a warm check holds a few 64 KiB temporaries of one block at a time;
    # larger ones pass malloc's 128 KiB mmap threshold, and every call then
    # faults fresh pages in
    rng = np.random.default_rng(71)
    for check, size in ((check_submodular_pairwise, 10), (check_setpair_submodular, 8)):
        oracle = rate_oracle(NoiseProfile(rng.uniform(0.1, 10.0, size), 1.0))
        assert check(oracle) == []  # builds the table and the blocks
        tracemalloc.start()
        try:
            assert check(oracle) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 384 * 2**10, (check.__name__, peak)


def test_a_fresh_pairwise_build_at_twelve_stays_small():
    # int32 from the start: int64 triu_indices, nonzero and masks peaked at 5.4 MB
    tracemalloc.start()
    try:
        _pairwise_blocks.__wrapped__(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


# --- all three checks ----------------------------------------------------

def test_pair_checks_stay_small_at_twelve_elements():
    # each check at its cap: pairwise at 12, set-pair and monotone at 8
    tracemalloc.start()
    try:
        assert check_submodular_pairwise(oracle_from(MODULAR, 12), tolerance=0.0) == []
        assert check_setpair_submodular(oracle_from(MODULAR, 8), tolerance=0.0) == []
        assert check_monotone(oracle_from(MODULAR, 8), tolerance=0.0) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


CHECKERS = (check_submodular_pairwise, check_setpair_submodular, check_monotone)


def test_checkers_match_plain_enumeration_in_content_and_order():
    rng = np.random.default_rng(53)
    for size in range(8):
        for ground in (frozenset(range(size)), frozenset(3 * k + 10 for k in range(size)),
                       frozenset("abcdefg"[:size])):
            table = {s: float(v) for s, v in zip(counting_order_subsets(ground),
                                                  rng.uniform(0.0, 1.0, 1 << size))}
            for fn in (CARD_SQUARED, PAIRS, lambda s: -float(len(s)), table.__getitem__):
                oracle = SetFunctionOracle(ground, fn)
                for tol in (0.0, 1e-9, 0.25):
                    pairwise = [(v.base_set, v.elem_i, v.elem_j, v.lhs, v.rhs, v.gap)
                                for v in check_submodular_pairwise(oracle, tolerance=tol)]
                    assert pairwise == naive_pairwise_violations(ground, fn, tol)
                    assert check_setpair_submodular(oracle, tolerance=tol) == \
                        naive_setpair_violations(ground, fn, tol)
                    assert check_monotone(oracle, tolerance=tol) == \
                        naive_monotone_violations(ground, fn, tol)


# sums of these reach the largest float and their differences overflow to
# +-inf, so the gaps compared against the tolerance hit every float edge;
# an oracle rejects a value of larger magnitude, whose sums could overflow
FLOAT_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0,
                     1e300, -1e300, sys.float_info.max / 2, -sys.float_info.max / 2)
GROUNDS = (lambda size: range(size), lambda size: (3 * k + 10 for k in range(size)),
           lambda size: "abcdefg"[:size])


@st.composite
def set_functions(draw):
    """A ground set and a table of values over its subsets: random, tied or float-edge."""
    ground = frozenset(draw(st.sampled_from(GROUNDS))(draw(st.integers(0, 5))))
    values = draw(st.sampled_from((
        st.floats(-10.0, 10.0),
        st.sampled_from((0.0, 0.5, 1.0, 2.0)),
        st.sampled_from(FLOAT_EDGE_VALUES),
    )))
    subsets = counting_order_subsets(ground)
    table = dict(zip(subsets, draw(st.lists(values, min_size=len(subsets), max_size=len(subsets)))))
    return ground, table.__getitem__


@settings(derandomize=True, database=None, max_examples=300)
@given(set_functions(), st.one_of(st.sampled_from((0.0, 1e-9, 0.5, 1e300)), st.floats(0.0, 1e308)))
def test_checkers_match_plain_enumeration_on_drawn_set_functions(set_function, tol):
    ground, f = set_function
    oracle = SetFunctionOracle(ground, f)
    pairwise = [(v.base_set, v.elem_i, v.elem_j, repr(v.lhs), repr(v.rhs), repr(v.gap))
                for v in check_submodular_pairwise(oracle, tolerance=tol)]
    # repr tells -0.0 from 0.0
    assert pairwise == [(*row[:3], *map(repr, row[3:]))
                        for row in naive_pairwise_violations(ground, f, tol)]
    assert check_setpair_submodular(oracle, tolerance=tol) == \
        naive_setpair_violations(ground, f, tol)
    assert check_monotone(oracle, tolerance=tol) == naive_monotone_violations(ground, f, tol)


@pytest.mark.parametrize("check", CHECKERS)
@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_is_rejected(check, tolerance):
    # a NaN tolerance makes every gap comparison false: a vacuous certificate
    with pytest.raises(ValueError, match="tolerance must be finite"):
        check(oracle_from(CARD_SQUARED, 3), tolerance=tolerance)


@pytest.mark.parametrize("check", CHECKERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_oracle_value_is_rejected(check, bad):
    with pytest.raises(ValueError, match="not finite"):
        check(oracle_from(lambda s: bad, 3))
    with pytest.raises(ValueError, match=r"at \[0, 2\] is not finite"):
        check(oracle_from(lambda s: bad if s == {0, 2} else MODULAR(s), 3))


OVERFLOWING = [1e308, 1e308, 1e308, 1.7e308]  # f({}), f({0}), f({1}), f({0, 1})


@pytest.mark.parametrize("check", CHECKERS)
def test_an_oracle_value_whose_sums_could_overflow_is_rejected(check):
    # exactly, f({0}) + f({1}) = 2e308 < f({}) + f({0, 1}) = 2.7e308, but both
    # sums overflow and the gap inf - inf is NaN: unchecked, the pairwise and
    # set-pair checks certified this function
    message = r"oracle value at \[\] is above sys.float_info.max / 2 in magnitude: 1e\+308"
    with pytest.raises(ValueError, match=message):
        check(table_oracle(OVERFLOWING))
    with pytest.raises(ValueError, match=message):
        check(SetFunctionOracle(frozenset(range(2)), MODULAR, lambda elems: OVERFLOWING))
    # the first bad value in counting order decides the message
    with pytest.raises(ValueError, match=r"at \[0\] is not finite: nan"):
        check(table_oracle([0.0, math.nan, -1.7e308, 1.0]))


def test_the_overflowing_function_scaled_down_is_flagged():
    scaled = table_oracle([v / 16 for v in OVERFLOWING])
    assert [(v.base_set, v.elem_i, v.elem_j) for v in check_submodular_pairwise(scaled)] == \
        [(frozenset(), 0, 1)]
    assert check_setpair_submodular(scaled) == [({0}, {1})]


def test_a_gap_that_overflows_is_decided_by_its_sign():
    # the largest accepted magnitude: every sum is finite, a gap may be +-inf
    bound = sys.float_info.max / 2
    violating = table_oracle([bound, -bound, -bound, bound])  # gap max - (-max)
    assert [(v.base_set, v.elem_i, v.elem_j, v.gap) for v in check_submodular_pairwise(violating, 0.0)] == \
        [(frozenset(), 0, 1, math.inf)]
    assert check_setpair_submodular(violating, 0.0) == [({0}, {1})]
    clean = table_oracle([-bound, bound, bound, -bound])  # gap -max - max
    assert check_submodular_pairwise(clean, 0.0) == check_setpair_submodular(clean, 0.0) == []


@pytest.mark.parametrize("check", CHECKERS)
def test_a_table_is_checked_like_evaluate(check):
    def tabled(values):
        return SetFunctionOracle(frozenset("ab"), MODULAR, lambda elems: values)

    with pytest.raises(ValueError, match=r"at \['b'\] is not finite: nan"):
        check(tabled([0.0, 1.0, math.nan, 2.0]))
    with pytest.raises(ValueError, match="one value per subset"):
        check(tabled([0.0, 1.0]))


def test_an_oracle_is_evaluated_once_for_every_check():
    evaluate = counted(PAIRS)
    oracle = oracle_from(evaluate, 5)
    for check in CHECKERS + CHECKERS:
        check(oracle)
        assert evaluate.calls == 32


@pytest.mark.parametrize("tabled", [False, True])
def test_a_non_finite_value_is_rejected_by_every_check(tabled):
    # nothing is cached when tabling raises, so no later check certifies
    values = [0.0, 1.0, 1.0, math.nan]
    oracle = SetFunctionOracle(frozenset("ab"), lambda s: values[("a" in s) + 2 * ("b" in s)],
                               (lambda elems: values) if tabled else None)
    for check in CHECKERS + CHECKERS:
        with pytest.raises(ValueError, match=r"at \['a', 'b'\] is not finite: nan"):
            check(oracle)


def test_a_check_without_hits_decodes_no_subset():
    oracle = rate_oracle(NoiseProfile([3.0, 0.5, 2.0, 0.5, 7.0], 1.5))
    for check in CHECKERS:
        assert check(oracle) == []
    assert "_values" in vars(oracle) and "_subsets" not in vars(oracle)


def test_every_hit_decodes_to_the_oracles_own_subsets():
    # 11,520 violations share the oracle's 1,024 subsets (~3.1 MB peak);
    # decoding a fresh frozenset per hit peaked at 7.7 MB
    _pairwise_blocks(10)
    oracle = oracle_from(CARD_SQUARED, 10)
    tracemalloc.start()
    try:
        violations = check_submodular_pairwise(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(violations) == 11_520
    assert all(v.base_set is oracle._subsets[sum(1 << e for e in v.base_set)] for v in violations)
    assert peak < 4 * 2**20, peak


# --- majorization ---------------------------------------------------------

def test_majorizes_examples():
    assert majorizes([3.0, 1.0], [2.0, 2.0])
    assert not majorizes([2.0, 2.0], [3.0, 1.0])
    assert majorizes([0.7, 5.1, 2.2], [5.1, 0.7, 2.2])  # reflexive up to order
    assert majorizes([], [])


def test_majorizes_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        majorizes([1.0], [1.0, 0.0])


def test_majorizes_unequal_sums():
    assert not majorizes([2.0, 1.0], [1.0, 1.0])


def test_majorizes_robin_hood_transfers():
    # moving mass from a larger entry to a smaller one always produces a
    # majorized vector
    rng = np.random.default_rng(37)
    for _ in range(100):
        a = rng.uniform(0.5, 10.0, int(rng.integers(2, 8)))
        b = a.copy()
        for _ in range(3):
            hi, lo = np.argmax(b), np.argmin(b)
            if hi == lo:
                continue
            shift = rng.uniform(0.0, 0.5) * (b[hi] - b[lo])
            b[hi] -= shift
            b[lo] += shift
        assert majorizes(a, b)


def test_karamata_examples_and_random_convex_functions():
    assert karamata_holds([3.0, 1.0], [2.0, 2.0], lambda x: x * x)  # 10 >= 8
    assert karamata_holds([1.5, 2.5], [1.5, 2.5], math.exp)
    rng = np.random.default_rng(41)
    convex = [lambda x: x * x, math.exp, lambda x: -math.log(x), lambda x: 1.0 / x]
    for _ in range(50):
        a = rng.uniform(0.5, 10.0, 5)
        b = a.copy()
        hi, lo = np.argmax(b), np.argmin(b)
        shift = rng.uniform(0.0, 0.4) * (b[hi] - b[lo])
        b[hi] -= shift
        b[lo] += shift
        assert majorizes(a, b)
        for g in convex:
            assert karamata_holds(a, b, g)


def test_karamata_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        karamata_holds([1.0], [1.0, 2.0], math.exp)


def test_majorization_rejects_a_sum_that_overflows():
    # 2e308 < 2.1e308 exactly, yet both sums overflow to inf and inf >= inf
    with pytest.raises(ValueError, match="^sum is not finite: inf$"):
        karamata_holds([1.5e308, 0.5e308], [1e308, 1.1e308], lambda x: x)
    # a vector majorizes itself, yet its prefix sums overflow and inf - inf is NaN
    with pytest.raises(ValueError, match="^sum is not finite: inf$"):
        majorizes([1e308, 1e308], [1e308, 1e308])
    with pytest.raises(ValueError, match="^sum is not finite: -inf$"):
        majorizes([1.0, -1e308, -1e308], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^sum is not finite: nan$"):
        karamata_holds([1.0, 2.0], [1.0, 2.0], lambda x: math.nan)
    # the same vectors scaled by 1/16 are decided
    assert not karamata_holds([1.5e308 / 16, 0.5e308 / 16], [1e308 / 16, 1.1e308 / 16], lambda x: x)
    assert majorizes([1e308 / 16, 1e308 / 16], [1e308 / 16, 1e308 / 16])


@pytest.mark.parametrize("tolerance, message", [(math.inf, "tolerance must be finite, got inf"),
                                                (math.nan, "tolerance must be finite, got nan"),
                                                (-1.0, "tolerance must be nonnegative")])
def test_majorization_rejects_a_tolerance_that_decides_every_comparison(tolerance, message):
    # unchecked, inf made both verdicts below True, and -1 made
    # majorizes([3, 1], [2, 2]) False
    with pytest.raises(ValueError, match=f"^{message}$"):
        majorizes([1.0, 1.0], [5.0, 0.0], tolerance=tolerance)
    with pytest.raises(ValueError, match=f"^{message}$"):
        karamata_holds([2.0, 2.0], [3.0, 1.0], lambda x: x * x, tolerance=tolerance)


# --- CSV dump -------------------------------------------------------------

def test_violations_to_csv(tmp_path):
    violations = check_submodular_pairwise(oracle_from(CARD_SQUARED, 3))
    buf = io.StringIO()
    violations_to_csv(violations, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "base_set,i,j,lhs,rhs,gap"
    assert len(lines) == len(violations) + 1
    path = tmp_path / "violations.csv"
    violations_to_csv(violations, path)
    assert path.read_text().splitlines()[0] == "base_set,i,j,lhs,rhs,gap"
