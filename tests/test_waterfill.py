import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wfalloc.waterfill import (
    NoiseProfile,
    log_utility,
    rate_of_subset,
    water_level,
    waterfill,
)

from oracles import bisection_water_level, random_simplex_rate, simplex_search_rate


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


def test_profile_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        NoiseProfile([1.0], -0.5)


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
