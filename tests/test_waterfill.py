import functools
import math
import operator
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wfalloc.profiles import PROFILE_KINDS, ProfileSpec, generate
from wfalloc.waterfill import (
    _BLOCK,
    NoiseProfile,
    _check_snrs,
    _mask_sizes_and_tops,
    _scan,
    _snr_noise_array,
    _subset_rates,
    _subset_tables,
    log_utility,
    rate_of_subset,
    water_level,
    waterfill,
)

from oracles import (
    bisection_water_level,
    exact_waterfill,
    precise_rate,
    random_simplex_rate,
    simplex_search_rate,
)


def random_profile(rng, max_channels=6):
    size = int(rng.integers(1, max_channels + 1))
    noises = rng.uniform(0.1, 10.0, size) + 1e-12
    budget = float(rng.uniform(0.1, 5.0))
    return NoiseProfile(noises, budget)


# --- construction ---------------------------------------------------------

def test_profile_rejects_nonpositive_noise():
    with pytest.raises(ValueError, match="positive"):
        NoiseProfile([1.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        NoiseProfile([-2.0], 1.0)
    for noise in (math.nan, -0.0, -math.inf):
        with pytest.raises(ValueError, match="positive"):
            NoiseProfile([1.0, noise], 1.0)


def test_profile_takes_an_infinite_noise_as_a_channel_never_funded():
    # an SNR of zero is a channel of noise 1/0: it stays a channel, with power 0
    for budget in (0.0, 1e-300, 1.0, 1e300):
        sol = waterfill(NoiseProfile([1.0, math.inf], budget))
        alone = waterfill(NoiseProfile([1.0], budget))
        assert sol.powers == {0: alone.powers[0], 1: 0.0}
        assert (sol.water_level, sol.active_set, sol.rate) == \
            (alone.water_level, alone.active_set, alone.rate)
    # only the finite noises bound the level: budget + inf is not an overflow
    assert waterfill(NoiseProfile([math.inf, 1e308], 1e307)).water_level == 1e308 + 1e307
    with pytest.raises(ValueError, match="water level overflows"):
        NoiseProfile([math.inf, 1.7e308], 1e308)
    # nothing to fund: no level, rate 0
    sol = waterfill(NoiseProfile([math.inf, math.inf], 1.0))
    assert (sol.water_level, sol.powers, sol.rate) == (None, {0: 0.0, 1: 0.0}, 0.0)
    with pytest.raises(ValueError, match="never-funded"):
        water_level(NoiseProfile([math.inf], 1.0))


def test_profile_equality_compares_noises_budget_and_ids():
    p = NoiseProfile([1.0, 2.0], 1.0)
    assert p == NoiseProfile((1, 2), 1) and p == p.subset([0, 1])
    assert p != NoiseProfile([1.0, 2.0], 2.0)
    assert p != NoiseProfile([2.0, 1.0], 1.0)
    assert p != NoiseProfile([1.0, 2.0], 1.0, ids="ab")
    assert p.__eq__((1.0, 2.0)) is NotImplemented and p != (1.0, 2.0)


def test_profile_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        NoiseProfile([1.0], -0.5)


def test_profile_rejects_a_wrong_number_of_ids():
    for ids in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="exactly one channel id per noise"):
            NoiseProfile([1.0, 2.0], 1.0, ids=ids)


def test_profile_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="distinct"):
        NoiseProfile([1.0, 2.0], 1.0, ids=["a", "a"])


def test_profile_subset_and_unknown_id():
    p = NoiseProfile([1.0, 2.0, 3.0], 1.0)
    sub = p.subset({0, 2})
    assert sub.ids == (0, 2)
    assert sub.noises == (1.0, 3.0)
    with pytest.raises(ValueError, match="unknown channel"):
        p.subset({5})


# --- water level ----------------------------------------------------------

def test_water_level_single_channel():
    assert water_level(NoiseProfile([1.0], 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_water_level_symmetric_pair():
    assert water_level(NoiseProfile([1.0, 1.0], 2.0)) == pytest.approx(2.0, abs=1e-12)


def test_water_level_excludes_loud_channel():
    # With the loud channel included the implied level 2.5 fails the strict
    # test against N=3, so only the quiet channel is funded.
    p = NoiseProfile([1.0, 3.0], 1.0)
    assert water_level(p) == pytest.approx(bisection_water_level([1.0, 3.0], 1.0), rel=1e-9)
    assert water_level(p) == pytest.approx(2.0, abs=1e-9)
    assert waterfill(p).active_set == {0}


def test_water_level_both_active():
    p = NoiseProfile([1.0, 2.0], 3.0)
    assert water_level(p) == pytest.approx(bisection_water_level([1.0, 2.0], 3.0), rel=1e-9)
    assert water_level(p) == pytest.approx(3.0, abs=1e-9)
    assert waterfill(p).active_set == {0, 1}


def test_water_level_errors():
    with pytest.raises(ValueError, match="empty set"):
        water_level(NoiseProfile([], 1.0))
    with pytest.raises(ValueError, match="zero budget"):
        water_level(NoiseProfile([1.0], 0.0))


def test_water_level_matches_bisection_on_random_profiles():
    rng = np.random.default_rng(101)
    for _ in range(300):
        p = random_profile(rng)
        assert water_level(p) == pytest.approx(
            bisection_water_level(p.noises, p.budget), rel=1e-9)


# --- waterfill ------------------------------------------------------------

def test_waterfill_two_channel_example():
    sol = waterfill(NoiseProfile([1.0, 2.0], 3.0))
    assert sol.powers[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.powers[1] == pytest.approx(1.0, abs=1e-12)
    assert sol.rate == pytest.approx(math.log(3.0) + math.log(1.5), abs=1e-12)
    assert sol.rate == pytest.approx(1.504077, abs=1e-6)


def test_waterfill_empty_and_zero_budget_conventions():
    sol = waterfill(NoiseProfile([], 1.0))
    assert sol.rate == 0.0 and sol.water_level is None and sol.powers == {}
    sol = waterfill(NoiseProfile([1.0, 2.0], 0.0))
    assert sol.rate == 0.0 and sol.water_level is None
    assert sol.powers == {0: 0.0, 1: 0.0} and sol.active_set == frozenset()


def test_profile_stores_a_minus_zero_budget_as_zero():
    assert math.copysign(1.0, NoiseProfile([1.0], -0.0).budget) == 1.0


def test_waterfill_inactive_channel_example():
    sol = waterfill(NoiseProfile([1.0, 3.0], 1.0))
    assert sol.powers == {0: 1.0, 1: 0.0}
    assert sol.rate == pytest.approx(math.log(2.0), abs=1e-12)


def test_waterfill_beats_numerical_search():
    rng = np.random.default_rng(202)
    for _ in range(25):
        p = random_profile(rng, max_channels=5)
        rate = waterfill(p).rate
        assert rate >= simplex_search_rate(p.noises, p.budget) - 1e-6
        assert rate >= random_simplex_rate(p.noises, p.budget, rng) - 1e-9


def test_power_conservation_and_active_set_consistency():
    rng = np.random.default_rng(303)
    for _ in range(400):
        p = random_profile(rng)
        sol = waterfill(p)
        tol = 1e-9 * max(1.0, p.budget)
        assert abs(sum(sol.powers.values()) - p.budget) <= tol
        assert len(sol.active_set) >= 1
        for c in p.ids:
            if c in sol.active_set:
                assert sol.powers[c] > 0.0
                assert sol.water_level > p.noise_of(c)
            else:
                assert sol.powers[c] == 0.0
        # conservation restated through the active count
        t = len(sol.active_set)
        assert abs(t * sol.water_level - sum(p.noise_of(c) for c in sol.active_set)
                   - p.budget) <= tol
        # the reported rate matches its own level and active set
        assert sol.rate == pytest.approx(
            sum(math.log(sol.water_level / p.noise_of(c)) for c in sol.active_set),
            abs=1e-9)


def test_monotone_in_budget():
    rng = np.random.default_rng(404)
    for _ in range(50):
        noises = rng.uniform(0.1, 10.0, 4)
        budgets = np.sort(rng.uniform(0.05, 5.0, 5))
        rates = [waterfill(NoiseProfile(noises, b)).rate for b in budgets]
        levels = [water_level(NoiseProfile(noises, b)) for b in budgets]
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))
        assert all(l2 >= l1 - 1e-12 for l1, l2 in zip(levels, levels[1:]))


def test_scale_covariance():
    rng = np.random.default_rng(505)
    for _ in range(50):
        p = random_profile(rng)
        c = float(rng.uniform(0.2, 8.0))
        scaled = NoiseProfile([c * x for x in p.noises], c * p.budget)
        assert waterfill(scaled).rate == pytest.approx(waterfill(p).rate, rel=1e-9)
        assert water_level(scaled) == pytest.approx(c * water_level(p), rel=1e-9)


# --- rate_of_subset -------------------------------------------------------

def test_rate_of_subset_examples():
    p = NoiseProfile([1.0, 2.0], 3.0)
    assert rate_of_subset(p, set()) == 0.0
    assert rate_of_subset(p, {0, 1}) == pytest.approx(1.504077, abs=1e-6)
    assert rate_of_subset(p, {0}) == pytest.approx(math.log(4.0), abs=1e-12)
    with pytest.raises(ValueError, match="unknown channel"):
        rate_of_subset(p, {7})


# 5e-324 and 1e-310 are subnormal; 1e308 and 1.7e308 leave little or no
# headroom for the budget; repeated values tie
FLOAT_EDGE_NOISES = (5e-324, 1e-310, 1e-300, 1e-20, 0.5, 1.0, 1.0, 2.0, 1e20, 1e300, 1e308, 1.7e308)
FLOAT_EDGE_BUDGETS = (0.0, 1e-300, 1e-20, 1.0, 2.5, 1e300)
# _scan puts this pair's level one ulp above the dry noise 1/0.68...
ONE_ULP_NOISES = [1 / 2.1497270091727056, 1 / 0.6825121678520782]


@st.composite
def float_edge_profiles(draw):
    """Profiles with noises across the float range, ties and edge budgets."""
    noise = st.one_of(st.sampled_from(FLOAT_EDGE_NOISES), st.floats(5e-324, 1.7e308))
    noises = draw(st.lists(noise, max_size=6))
    budget = draw(st.one_of(st.sampled_from(FLOAT_EDGE_BUDGETS), st.floats(0.0, 1e300)))
    assume(not noises or budget + max(noises) < math.inf)
    return NoiseProfile(noises, budget, ids=[f"ch{k}" for k in range(len(noises))])


@settings(derandomize=True, database=None, max_examples=300)
@given(float_edge_profiles())
def test_rate_of_subset_is_the_rate_of_the_subset_profile(p):
    # the sub-profile composition is the reference the direct solve must match exactly
    for mask in range(1 << len(p)):
        channels = [c for t, c in enumerate(p.ids) if mask >> t & 1]
        assert rate_of_subset(p, channels) == waterfill(p.subset(channels)).rate


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(FLOAT_EDGE_NOISES), st.sampled_from((1.0, 2.0, 3.0)),
                          st.floats(5e-324, 1.7e308)), max_size=8),
       st.sampled_from((1.0, 1e-20, 1e-300)))
# the kernel must agree with _scan's level one ulp above the dry noise
@example(ONE_ULP_NOISES, 1.0)
# the pair's level rounds onto its noisier channel, which stays dry
@example([1.7577333206760832, 1.7577333206760835], 1e-300)
def test_subset_rates_are_the_rate_of_every_subset(noises, budget):
    noises.sort()
    p = NoiseProfile(noises, budget)
    rates = _subset_rates(np.array([noises]), budget)[0].tolist()
    assert len(rates) == 1 << len(noises)
    assert [rate.hex() for rate in rates] == [
        rate_of_subset(p, [i for i in range(len(noises)) if mask >> i & 1]).hex()
        for mask in range(1 << len(noises))]


@st.composite
def noise_matrices(draw):
    """Rows of float-edge, tied and infinite noises with a budget that no
    row's finite noises overflow."""
    noise = st.one_of(st.sampled_from(FLOAT_EDGE_NOISES), st.sampled_from((1.0, 2.0, 3.0, math.inf)),
                      st.floats(5e-324, 1.7e308))
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(noise, min_size=n, max_size=n), min_size=1, max_size=3))
    budget = draw(st.sampled_from((0.0, 1e-300, 1.0)))
    assume(all(budget + x < math.inf for row in rows for x in row if x < math.inf))
    return rows, budget


@settings(derandomize=True, database=None, max_examples=300)
@given(noise_matrices())
@example(([ONE_ULP_NOISES, ONE_ULP_NOISES[::-1]], 1.0))
@example((np.empty((0, 3)), 1.0))
# the rounded mean of these near-tied noises tops the noisiest one, so a
# zero budget would fund them without its own branch
@example(([[1.5499712299535262, math.inf, 1.5499712299535249, 1.5499712299535255,
            1.549971229953526, 1.5499712299535262]], 0.0))
# the pair's total overflows, so its level is inf, next to an infinite
# noise: inf / inf must not be taken (pytest makes the warning an error)
@example(([[1e308, 1e308, math.inf]], 1e-300))
def test_subset_tables_are_the_rate_of_every_subset(matrix):
    assert_tables_are_rates(*matrix)


def test_subset_tables_solve_ten_thousand_rows_at_once():
    rows = np.random.default_rng(5).choice(FLOAT_EDGE_NOISES + (math.inf,), (10**4, 2))
    assert_tables_are_rates(rows.tolist(), 1.0)


def assert_tables_are_rates(rows, budget):
    # an infinite noise is never funded: each entry is the rate of the
    # subset's finite members, or 0 when it has none
    n = np.shape(rows)[1]
    tables = _subset_tables(rows, budget)
    assert tables.shape == (len(rows), 1 << n)
    for row, table in zip(rows, tables.tolist()):
        finite = [t for t in range(n) if row[t] < math.inf]
        p = NoiseProfile([row[t] for t in finite], budget, finite)
        assert [rate.hex() for rate in table] == [
            rate_of_subset(p, [t for t in finite if mask >> t & 1]).hex()
            for mask in range(1 << n)]


def test_subset_tables_take_their_logs_in_bounded_blocks():
    # noises in [1, 2] at budget 30 fund all 6 x 1,023 non-empty subsets; one
    # log step over all of them peaked at 2.28 MB, the blocked steps ~0.53 MB
    noises = np.random.default_rng(26).uniform(1.0, 2.0, (6, 10))
    _subset_tables(noises, 30.0)  # caches the mask sizes and tops
    tracemalloc.start()
    try:
        _subset_tables(noises, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_subset_tables_fund_every_subset_across_blocks():
    # at this budget all 16,383 non-empty subsets of 14 channels are funded,
    # so their logs are taken in more than one block
    noises = sorted(np.random.default_rng(14).uniform(1.0, 2.0, 14).tolist())
    p = NoiseProfile(noises, 30.0)
    assert waterfill(p).active_set == frozenset(range(14)) and (1 << 14) - 1 > _BLOCK
    table = _subset_tables([noises], p.budget)[0].tolist()
    assert [rate.hex() for rate in table] == [
        rate_of_subset(p, [t for t in range(14) if mask >> t & 1]).hex() for mask in range(1 << 14)]


def benchmark_shaped_tables():
    """The tables the benchmark's workloads build: each profile kind's 10 x 3
    SNR columns as noises at unit power, as brute force tables them, and
    certify-like 1 x 10 and 1 x 8 rows (noises U(0.1, 10), budget U(0.1, 5))."""
    for kind in PROFILE_KINDS:
        for seed in range(2):
            yield _snr_noise_array(generate(ProfileSpec(kind, 10, 3, seed)).weights.T), 1.0
    rng = np.random.default_rng(26)
    for n in (10, 8):
        for _ in range(3):
            yield rng.uniform(0.1, 10.0, (1, n)), float(rng.uniform(0.1, 5.0))


def test_subset_tables_at_the_benchmarks_shapes():
    # a table's funded subsets take their logs in blocks of _BLOCK // n rows:
    # these tables need one block or two
    spans = []
    for noises, budget in benchmark_shaped_tables():
        n = noises.shape[1]
        funded = 0
        for row, table in zip(noises.tolist(), _subset_tables(noises, budget).tolist()):
            solves = [_scan(sorted(x for t, x in enumerate(row) if mask >> t & 1), budget)
                      for mask in range(1 << n)]
            assert [rate.hex() for rate in table] == [rate.hex() for *_, rate in solves]
            funded += sum(k == mask.bit_count() > 0 for mask, (_, k, _) in enumerate(solves))
        spans.append(-(-funded // (_BLOCK // n)))
    assert max(spans) >= 2 and min(spans) == 1


def test_mask_sizes_and_tops_are_cached_read_only_per_size():
    info = _mask_sizes_and_tops.cache_info()
    assert _subset_rates(np.empty((2, 0)), 1.0).tolist() == [[0.0], [0.0]]
    assert _mask_sizes_and_tops.cache_info() == info  # no channels: the cache is not asked
    for n in (1, 8, 10):
        sizes, tops = _mask_sizes_and_tops(n)
        again = _mask_sizes_and_tops(n)
        assert again[0] is sizes and again[1] is tops
        for array in again:
            assert array.shape == (1 << n,) and not array.flags.writeable
        assert sizes.tolist() == [mask.bit_count() for mask in range(1 << n)]
        assert tops.tolist() == [max(mask.bit_length() - 1, 0) for mask in range(1 << n)]


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.sampled_from(FLOAT_EDGE_NOISES), max_size=6), st.integers(0, 2),
       st.sampled_from((0.0, 1e-300, 1.0, 2.5, 1e300)))
def test_both_kernels_keep_one_contract(finite, infinite, budget):
    # infinite noises sort last and are never funded; nothing to fund is (None, 0, 0.0)
    assume(not finite or budget + max(finite) < math.inf)
    row = sorted(finite) + [math.inf] * infinite
    rates = _subset_rates(np.array([row]), budget)[0].tolist()
    assert [rate.hex() for rate in rates] == [
        _scan([x for t, x in enumerate(row) if mask >> t & 1], budget)[2].hex()
        for mask in range(1 << len(row))]
    for nothing in ([], [math.inf, math.inf]):
        assert _scan(nothing, budget) == (None, 0, 0.0)
    assert _scan(row, 0.0) == (None, 0, 0.0)
    assert _scan(row + [math.inf], budget) == _scan(row, budget)


def scan_cases():
    edges = sorted(FLOAT_EDGE_NOISES)
    for budget in FLOAT_EDGE_BUDGETS[1:]:
        for k in range(1, len(edges) + 1):
            yield edges[:k], budget
    yield [5e-324, 1.0], 1.0  # 1.0 / 5e-324 overflows: the fallback branch
    yield sorted(np.random.default_rng(12).uniform(1.0, 2.0, 12).tolist()), 30.0  # all funded


def test_scan_adds_its_logs_left_to_right():
    # the one summation rule, which _subset_rates repeats with np.add.accumulate;
    # Python's sum is compensated from 3.12 and would fail here
    fallbacks = set()
    for noises, budget in scan_cases():
        level, k, rate = _scan(noises, budget)
        logs = [math.log(level / x) for x in noises[:k]]
        fallbacks.add(math.inf in logs)
        if math.inf in logs:
            logs = [math.log(level) - math.log(x) for x in noises[:k]]
        assert rate.hex() == functools.reduce(operator.add, logs, 0.0).hex()
    assert fallbacks == {False, True}
    # on the 12-channel row a correctly rounded sum lands elsewhere
    assert k == 12 and math.fsum(logs) != rate


def level_cases(rng, count):
    """(ascending noises, budget) in four families: 10^U(-30, 30) noises and
    budgets; noises tied within 3 ulps, at budgets from far below their
    resolution to above them; the float-edge noises and budgets; and the
    noises 1/w of SNRs w at unit power. Each row ends in 0 to 2 infinite
    noises."""
    def ties(n):
        base = 10 ** rng.uniform(-30, 30)
        return [functools.reduce(math.nextafter, [math.inf] * int(j), base)
                for j in rng.integers(0, 4, n)], base * 10 ** rng.uniform(-20, 1)

    families = (
        lambda n: ((10 ** rng.uniform(-30, 30, n)).tolist(), 10 ** rng.uniform(-30, 30)),
        ties,
        lambda n: (rng.choice(FLOAT_EDGE_NOISES, n).tolist(), float(rng.choice(FLOAT_EDGE_BUDGETS))),
        lambda n: ((1.0 / rng.exponential(3.0, n)).tolist(), 1.0),
    )
    for case in range(count):
        noises, budget = families[case % 4](int(rng.integers(1, 13)))
        yield sorted(noises) + [math.inf] * int(rng.integers(0, 3)), budget


def test_scan_level_is_within_n_plus_one_rounding_errors_of_the_exact_level():
    # n finite noises: their prefix sum, the budget and the division round at
    # most n + 1 times, whichever count the float scan funds
    unit, recounted = Fraction(1, 1 << 53), 0
    for row, budget in level_cases(np.random.default_rng(27), 8000):
        level, k, _ = _scan(row, budget)
        exact, exact_k = exact_waterfill(row, budget)
        if exact is None:
            assert (level, k) == (None, 0) and budget == 0.0
            continue
        n = sum(x < math.inf for x in row)
        assert abs(Fraction(level) - exact) <= (n + 1) * unit * exact, (row, budget)
        recounted += k != exact_k
    # some near-tied channels are funded by one scan and not by the other
    assert recounted > 0


def test_scan_rate_is_within_k_plus_one_squared_rounding_errors_of_the_precise_rate():
    # online_greedy's rounding lemma: a rate _scan returns for k funded channels
    # is within (k+1)^2 2^-53 (1 + rate) of the rate at the exact level
    unit, worst, recounted = Decimal(2) ** -53, 0.0, 0
    for row, budget in level_cases(np.random.default_rng(28), 2000):
        _, k, rate = _scan(row, budget)
        precise = precise_rate(row, budget)
        share = abs(Decimal(rate) - precise) / ((k + 1) ** 2 * unit * (1 + precise))
        assert share <= 1, (row, budget)
        worst = max(worst, float(share))
        recounted += k != exact_waterfill(row, budget)[1]
    # the bound is met with rounding to spare, not by exact rates, also where
    # the float scan funds another count than the exact one
    assert 0.1 < worst and recounted > 0
    # every subset of one row of the table kernel, held to _scan's rate by
    # test_both_kernels_keep_one_contract
    row = sorted((1.0 / np.random.default_rng(14).exponential(3.0, 8)).tolist()) + [math.inf]
    for mask, rate in enumerate(_subset_rates(np.array([row]), 1.0)[0].tolist()):
        subset = [x for t, x in enumerate(row) if mask >> t & 1]
        k = _scan(subset, 1.0)[1]
        precise = precise_rate(subset, 1.0)
        assert abs(Decimal(rate) - precise) <= (k + 1) ** 2 * unit * (1 + precise), subset


def test_rate_of_subset_rejects_unknown_ids_at_any_budget():
    for budget in (0.0, 1.0):
        with pytest.raises(ValueError, match="unknown channel"):
            rate_of_subset(NoiseProfile([1.0, 2.0], budget), {0, "x"})


def test_rate_of_subset_is_monotone():
    rng = np.random.default_rng(606)
    for _ in range(40):
        p = random_profile(rng)
        ids = list(p.ids)
        sub = {c for c in ids if rng.random() < 0.5}
        sup = sub | {c for c in ids if rng.random() < 0.5}
        assert rate_of_subset(p, sub) <= rate_of_subset(p, sup) + 1e-9


# --- log_utility ----------------------------------------------------------

def test_log_utility_examples():
    assert log_utility([10.0]) == pytest.approx(math.log(11.0), abs=1e-12)
    assert log_utility([10.0, 10.0]) == pytest.approx(2 * math.log(6.0), abs=1e-12)
    assert log_utility([5.0, 0.0]) == pytest.approx(math.log(6.0), abs=1e-12)
    assert log_utility([]) == 0.0
    assert log_utility([0.0, 0.0]) == 0.0


def test_log_utility_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        log_utility([1.0, -0.1])
    with pytest.raises(ValueError, match="finite"):
        log_utility([1.0, math.inf])


def test_the_snr_check_reports_the_first_bad_snr_in_row_major_order():
    # the one check behind WeightMatrix, log_utility, --snrs and replay
    for snrs, message in (
        ([1.0, -1.0, math.nan], "nonnegative, got -1.0"),
        ([1.0, math.nan, -1.0], "finite, got nan"),
        ([[1.0, 2.0], [-2.0, math.inf]], "nonnegative, got -2.0"),
        ([[1.0, math.inf], [-2.0, 1.0]], "finite, got inf"),
        (np.array([[1.0, -1.0], [math.nan, 1.0]]).T, "finite, got nan"),  # the order as given
        ([-math.inf], "finite, got -inf"),  # a single entry: not finite before negative
        ([-5e-324], "nonnegative, got -5e-324"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"SNRs must be {message}")):
            _check_snrs(snrs)
    # -0.0 and empty input pass, as float arrays
    checked = _check_snrs([[-0.0, 1], [2, 0]])
    assert checked.dtype == float and checked.tolist() == [[0.0, 1.0], [2.0, 0.0]]
    assert _check_snrs([]).shape == (0,)
    assert log_utility(iter([-0.0, 1.0])) == log_utility([1.0])


def test_log_utility_matches_waterfill_on_reciprocal_noises():
    # one kernel behind both, so the rates agree exactly, ties and zero SNRs included
    rng = np.random.default_rng(707)
    for _ in range(60):
        size = int(rng.integers(1, 6))
        snrs = np.where(rng.random(size) < 0.5, rng.uniform(0.1, 20.0, size),
                        rng.choice([0.0, 2.0, 5.0], size))
        direct = log_utility(snrs)
        via_profile = waterfill(NoiseProfile([1.0 / s for s in snrs if s > 0.0], 1.0)).rate
        assert direct == via_profile


# 0, 5e-324 and 1e-310 are never funded (1/w overflows); 1e-308 and the
# largest float give the largest and smallest finite noises
FLOAT_EDGE_SNRS = (0.0, 5e-324, 1e-310, 1e-308, 1e-20, 1.0, 2.0, 1e20, 1e308, 1.7976931348623157e308)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(FLOAT_EDGE_SNRS), st.floats(0.0, 1.7976931348623157e308)),
                max_size=8))
def test_log_utility_is_unit_power_waterfill_over_the_float_range(snrs):
    rate = log_utility(snrs)
    assert math.isfinite(rate) and rate >= 0.0
    fundable = [1.0 / w for w in snrs if w > 0.0 and 1.0 / w < math.inf]
    assert rate == waterfill(NoiseProfile(fundable, 1.0)).rate


# --- float edges ----------------------------------------------------------

def test_log_utility_drops_snr_with_infinite_noise():
    # 1 / 1e-310 overflows: such a receiver can never be funded
    assert log_utility([1e-310]) == 0.0
    assert log_utility([1e-310, 5.0]) == log_utility([5.0])


def test_log_utility_sum_overflow_is_rescaled():
    # the noises 1e308 + 1e308 overflow; the quiet receiver alone is funded
    assert log_utility([1e-308, 1e-308, 5.0]) == pytest.approx(math.log(6.0), rel=1e-15)


def test_waterfill_sum_overflow_is_rescaled():
    sol = waterfill(NoiseProfile([1e308, 1e308], 1.0))
    assert sol.water_level == 1e308
    assert all(math.isfinite(p) for p in sol.powers.values())
    assert sol.rate == 0.0  # a budget of 1 is below the resolution of 1e308
    sol = waterfill(NoiseProfile([0.9e308, 0.9e308], 0.5e308))
    assert sol.water_level == pytest.approx(1.15e308, rel=1e-15)
    assert sol.powers == {0: pytest.approx(0.25e308), 1: pytest.approx(0.25e308)}
    assert sol.rate == pytest.approx(2 * math.log(1.15 / 0.9), rel=1e-12)


def test_subnormal_noise_rate_is_finite():
    # level / noise overflows, log(level) - log(noise) does not
    assert waterfill(NoiseProfile([5e-324], 1.0)).rate == pytest.approx(-math.log(5e-324))


def test_unrepresentable_water_level_is_rejected():
    with pytest.raises(ValueError, match="water level overflows"):
        NoiseProfile([1e308, 1.7e308], 1e308)
    # the unit budget cannot overflow: the noises 1e308 + 1e308 take the
    # rescaled branch and the level 1 + 1e308 rounds to 1e308
    assert log_utility([1e-308, 1e-308]) == 0.0


def test_profile_rejects_a_subset_whose_level_overflows():
    # the full set solves (the quiet channel alone is funded), but the subset
    # {1} would need the level 1e308 + 1e308
    with pytest.raises(ValueError, match="water level overflows"):
        NoiseProfile([1.0, 1e308], 1e308)
    p = NoiseProfile([1.0, 0.7e308], 1e308)
    for channels in ({0}, {1}, {0, 1}):
        assert math.isfinite(rate_of_subset(p, channels))


def test_active_set_holds_only_powered_channels():
    # a budget of 1 is below the resolution of 1e308: the scan funds one
    # channel with power 0, which is not active
    sol = waterfill(NoiseProfile([1e308, 1e308], 1.0))
    assert sol.powers == {0: 0.0, 1: 0.0}
    assert sol.active_set == frozenset()
    sol = waterfill(NoiseProfile([1.0, 1e308], 1.0))
    assert sol.active_set == {0} and sol.powers[0] > 0.0


def test_the_active_count_stops_at_the_funded_channels():
    # _scan leaves channel 1 dry under a level one ulp above its noise: a count
    # of every noise below the level would make it active, with power 0
    p = NoiseProfile(ONE_ULP_NOISES, 1.0)
    sol = waterfill(p)
    assert sol.water_level == 1.4651753435357528 > p.noises[1] == 1.4651753435357526
    assert sol.active_set == {0} and sol.powers == {0: 1.0, 1: 0.0}


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.floats(5e-324, 1.7e308), min_size=1, max_size=8), st.floats(0.0, 1.7e308))
def test_kernel_stays_finite_across_the_float_range(noises, budget):
    if budget + max(noises) == math.inf:
        with pytest.raises(ValueError, match="water level overflows"):
            NoiseProfile(noises, budget)
        return
    sol = waterfill(NoiseProfile(noises, budget))
    assert math.isfinite(sol.rate) and sol.rate >= 0.0
    assert all(math.isfinite(p) and p >= 0.0 for p in sol.powers.values())
    assert sol.active_set == {c for c, p in sol.powers.items() if p > 0.0}
    if budget > 0.0:
        # each power carries the rounding of a level summed over at most n + 1 terms
        slack = 4 * (len(noises) + 1) ** 2 * math.ulp(sol.water_level)
        assert abs(sum(sol.powers.values()) - budget) <= slack
