import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfalloc.lemmas import rate_oracle
from wfalloc.submodular import (
    GroundSetTooLargeError,
    SetFunctionOracle,
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
    assert check_submodular_pairwise(oracle_from(MODULAR, 13), max_ground_size=13) == []


# --- set-pair check -------------------------------------------------------

def test_setpair_modular_and_coverage_clean():
    assert check_setpair_submodular(oracle_from(MODULAR, 3)) == []
    assert check_setpair_submodular(oracle_from(COVERAGE, 3)) == []


def test_setpair_waterfilling_rate_is_clean():
    profile = NoiseProfile([0.5, 1.0, 2.0], 2.0)
    assert check_setpair_submodular(rate_oracle(profile), tolerance=1e-9) == []


def test_setpair_cap():
    with pytest.raises(GroundSetTooLargeError):
        check_setpair_submodular(oracle_from(MODULAR, 9))


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


# --- all three checks ----------------------------------------------------

def test_pair_checks_stay_small_at_twelve_elements():
    # an unblocked 4^12 float64 gap array alone would take 128 MiB
    oracle = oracle_from(MODULAR, 12)
    tracemalloc.start()
    try:
        assert check_setpair_submodular(oracle, tolerance=0.0, max_ground_size=12) == []
        assert check_monotone(oracle, tolerance=0.0, max_ground_size=12) == []
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


# sums of these overflow to inf and differences of the overflows give NaN,
# so the gaps compared against the tolerance hit every float edge
FLOAT_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0,
                     1e300, -1e300, 1.7e308, -1.7e308)
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


@pytest.mark.parametrize("check", CHECKERS)
def test_a_table_is_checked_like_evaluate(check):
    def tabled(values):
        return SetFunctionOracle(frozenset("ab"), MODULAR, lambda elems: values)

    with pytest.raises(ValueError, match=r"at \['b'\] is not finite: nan"):
        check(tabled([0.0, 1.0, math.nan, 2.0]))
    with pytest.raises(ValueError, match="one value per subset"):
        check(tabled([0.0, 1.0]))


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
