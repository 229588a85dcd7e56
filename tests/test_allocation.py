import gc
import math

import numpy as np
import pytest

from wfalloc.allocation import (
    Allocation,
    InstanceTooLargeError,
    RatioReport,
    WeightMatrix,
    competitive_ratio,
    max_weight,
    offline_bruteforce,
    offline_upper_bound,
    online_greedy,
    ratio_value,
    run_strategy,
    system_utility,
)
from wfalloc.submodular import SetFunctionOracle, check_monotone, check_submodular_pairwise
from wfalloc.waterfill import log_utility

from oracles import greedy_by_hand, naive_best_allocation


def random_matrix(rng, n=None, m=None, high=10.0):
    n = n or int(rng.integers(1, 9))
    m = m or int(rng.integers(1, 4))
    return WeightMatrix(rng.uniform(0.0, high, (n, m)))


# --- containers -----------------------------------------------------------

def test_weight_matrix_validation():
    with pytest.raises(ValueError, match="two-dimensional"):
        WeightMatrix([1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightMatrix([[1.0, -2.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightMatrix([[1.0, math.inf]])
    W = WeightMatrix([[1.0, 2.0]])
    assert (W.n, W.m) == (1, 2)


def test_allocation_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        Allocation((frozenset({0, 1}), frozenset({1})))


# --- online greedy --------------------------------------------------------

def test_greedy_diagonal_split():
    W = WeightMatrix([[10.0, 1.0], [1.0, 10.0]])
    alloc = online_greedy(W.rows(), 2)
    assert alloc.parts == (frozenset({0}), frozenset({1}))
    assert system_utility(alloc, W) == pytest.approx(2 * math.log(11.0), abs=1e-12)


def test_greedy_shares_the_strong_station():
    # second user's marginal at the loaded station, 2log6 - log11 ~ 1.185624,
    # still beats log2 at the empty one
    W = WeightMatrix([[10.0, 1.0], [10.0, 1.0]])
    alloc = online_greedy(W.rows(), 2)
    assert alloc.parts == (frozenset({0, 1}), frozenset())
    assert system_utility(alloc, W) == pytest.approx(2 * math.log(6.0), abs=1e-12)


def test_greedy_tie_breaks_to_lowest_index():
    alloc = online_greedy([[5.0, 5.0, 5.0]], 3)
    assert alloc.parts == (frozenset({0}), frozenset(), frozenset())


def test_greedy_modes_can_differ():
    # marginal gain sends user 1 to the fresh station, absolute value keeps
    # piling onto the loaded one
    W = WeightMatrix([[10.0, 1.0], [3.0, 2.0]])
    marginal = online_greedy(W.rows(), 2, "marginal_gain")
    absolute = online_greedy(W.rows(), 2, "absolute_value")
    assert marginal.parts == (frozenset({0}), frozenset({1}))
    assert absolute.parts == (frozenset({0, 1}), frozenset())


def test_greedy_width_and_mode_errors():
    with pytest.raises(ValueError, match="SNR entries"):
        online_greedy([[1.0, 2.0, 3.0]], 2)
    with pytest.raises(ValueError, match="mode"):
        online_greedy([[1.0]], 1, "steepest")


def test_greedy_matches_reference_and_is_deterministic():
    rng = np.random.default_rng(90)
    for _ in range(25):
        W = random_matrix(rng)
        for mode in ("marginal_gain", "absolute_value"):
            alloc = online_greedy(W.rows(), W.m, mode)
            again = online_greedy(W.rows(), W.m, mode)
            assert alloc == again
            assert alloc.parts == greedy_by_hand(W, mode)


def test_greedy_argmax_is_log_base_invariant():
    # scaling every utility by a positive constant, e.g. converting nats to
    # bits, must not change any decision
    rng = np.random.default_rng(91)
    for _ in range(15):
        W = random_matrix(rng, n=6, m=3)
        base = online_greedy(W.rows(), W.m).parts
        for scale in (1.0 / math.log(2.0), 0.01, 7.5):
            assert greedy_by_hand(W, "marginal_gain", scale=scale) == base


def test_greedy_prefix_property_keeps_partition_invariant():
    # the state after k arrivals is the allocation of the first k rows
    rng = np.random.default_rng(92)
    W = random_matrix(rng, n=7, m=3)
    full = online_greedy(W.rows(), W.m)
    for k in range(W.n + 1):
        alloc = online_greedy(W.weights[:k], W.m)
        assert alloc.user_ids == frozenset(range(k))
        assert sum(len(p) for p in alloc.parts) == k
        if k == W.n:
            assert alloc == full


# --- max weight -----------------------------------------------------------

def test_max_weight_examples():
    assert max_weight(WeightMatrix([[10.0, 1.0], [1.0, 10.0]])).parts == (
        frozenset({0}), frozenset({1}))
    assert max_weight(WeightMatrix([[3.0, 3.0]])).parts == (frozenset({0}), frozenset())
    assert max_weight(WeightMatrix([[1.0, 2.0]] * 3)).parts == (
        frozenset(), frozenset({0, 1, 2}))


# --- system utility -------------------------------------------------------

def test_system_utility_examples():
    W0 = WeightMatrix(np.zeros((0, 2)))
    assert system_utility(Allocation((frozenset(), frozenset())), W0) == 0.0
    W1 = WeightMatrix([[10.0]])
    assert system_utility(Allocation((frozenset({0}),)), W1) == pytest.approx(
        math.log(11.0), abs=1e-12)
    W2 = WeightMatrix([[10.0], [10.0]])
    assert system_utility(Allocation((frozenset({0, 1}),)), W2) == pytest.approx(
        2 * math.log(6.0), abs=1e-12)


def test_system_utility_partition_errors():
    W = WeightMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="partition"):
        system_utility(Allocation((frozenset({0}), frozenset())), W)
    with pytest.raises(ValueError, match="partition"):
        system_utility(Allocation((frozenset({0, 1, 2}), frozenset())), W)
    with pytest.raises(ValueError, match="parts"):
        system_utility(Allocation((frozenset({0, 1}),)), W)


# --- offline references ---------------------------------------------------

def test_bruteforce_examples():
    W = WeightMatrix([[10.0, 1.0], [1.0, 10.0]])
    alloc, value = offline_bruteforce(W)
    assert value == pytest.approx(2 * math.log(11.0), abs=1e-12)
    assert alloc.parts == (frozenset({0}), frozenset({1}))
    W1 = WeightMatrix([[2.0, 7.0, 4.0]])
    _, v1 = offline_bruteforce(W1)
    assert v1 == pytest.approx(math.log(8.0), abs=1e-12)


def test_bruteforce_matches_naive_enumeration():
    rng = np.random.default_rng(93)
    for _ in range(15):
        W = random_matrix(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 4)))
        alloc, value = offline_bruteforce(W)
        _, naive = naive_best_allocation(W)
        assert value == pytest.approx(naive, rel=1e-12)
        assert system_utility(alloc, W) == value


def test_bruteforce_dominates_greedy():
    rng = np.random.default_rng(94)
    for _ in range(20):
        W = random_matrix(rng)
        _, best = offline_bruteforce(W)
        for strategy in ("greedy", "greedy-absolute", "max-weight"):
            assert best >= system_utility(run_strategy(strategy, W), W) - 1e-9


def test_bruteforce_cap():
    W = WeightMatrix(np.ones((21, 2)))
    with pytest.raises(InstanceTooLargeError, match="instance too large"):
        offline_bruteforce(W)


def test_bruteforce_leaves_no_reference_cycles():
    W = WeightMatrix(np.random.default_rng(3).uniform(0.0, 10.0, (6, 3)))
    gc.collect()
    gc.disable()
    try:
        offline_bruteforce(W)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_upper_bound_examples():
    W = WeightMatrix([[10.0, 1.0], [1.0, 10.0]])
    assert offline_upper_bound(W) == pytest.approx(2 * math.log(11.0), abs=1e-12)
    W3 = WeightMatrix([[10.0, 1.0], [0.5, 1.0], [2.0, 2.0]])
    assert offline_upper_bound(W3) == pytest.approx(
        2 * math.log(6.0) + math.log(11.0), abs=1e-12)
    Wn = WeightMatrix(np.full((4, 4), 3.0))
    assert offline_upper_bound(Wn) == pytest.approx(4 * math.log(4.0), abs=1e-12)
    assert offline_upper_bound(WeightMatrix(np.zeros((3, 2)))) == 0.0


def test_upper_bound_dominates_bruteforce():
    rng = np.random.default_rng(95)
    for _ in range(40):
        W = random_matrix(rng)
        assert offline_upper_bound(W) >= offline_bruteforce(W)[1] - 1e-9


# --- competitive ratio ----------------------------------------------------

def test_ratio_report_examples():
    W = WeightMatrix([[10.0, 1.0], [1.0, 10.0]])
    report = competitive_ratio(W, "greedy", "brute_force_optimum")
    assert isinstance(report, RatioReport)
    assert report.ratio == pytest.approx(1.0, abs=1e-12)
    zero = competitive_ratio(WeightMatrix(np.zeros((2, 2))), "greedy", "brute_force_optimum")
    assert zero.ratio == 1.0 and zero.online_utility == 0.0


def test_ratio_value_conventions():
    assert ratio_value(0.0, 0.0) == 1.0
    assert ratio_value(3.0, 0.0) == math.inf
    assert ratio_value(3.0, 2.0) == 1.5


def test_two_competitive_at_desk_scale():
    rng = np.random.default_rng(96)
    worst = 0.0
    for _ in range(30):
        W = random_matrix(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(2, 4)))
        report = competitive_ratio(W, "greedy", "brute_force_optimum")
        assert report.ratio >= 1.0 - 1e-9
        worst = max(worst, report.ratio)
    assert worst <= 2.0 + 1e-9


def test_two_competitive_under_row_permutations():
    rng = np.random.default_rng(97)
    W = random_matrix(rng, n=6, m=3)
    for _ in range(10):
        perm = rng.permutation(W.n)
        shuffled = WeightMatrix(W.weights[perm])
        report = competitive_ratio(shuffled, "greedy", "brute_force_optimum")
        assert 1.0 - 1e-9 <= report.ratio <= 2.0 + 1e-9


def test_ratio_is_log_base_invariant():
    W = WeightMatrix([[4.0, 1.0], [2.0, 9.0], [5.0, 5.0]])
    report = competitive_ratio(W, "greedy", "brute_force_optimum")
    scale = 1.0 / math.log(2.0)  # nats -> bits
    rescaled = (report.offline_reference * scale) / (report.online_utility * scale)
    assert rescaled == pytest.approx(report.ratio, rel=1e-12)


def test_unknown_strategy_and_reference():
    W = WeightMatrix([[1.0]])
    with pytest.raises(ValueError, match="strategy"):
        run_strategy("best-effort", W)
    with pytest.raises(ValueError, match="reference"):
        competitive_ratio(W, "greedy", "oracle")


# --- the utility is a valid multi-partitioning objective --------------------

def test_station_utility_is_nonnegative_monotone_submodular():
    rng = np.random.default_rng(98)
    for _ in range(10):
        snrs = rng.uniform(0.0, 10.0, 5)
        oracle = SetFunctionOracle(
            frozenset(range(len(snrs))),
            lambda s, v=snrs: log_utility([v[u] for u in sorted(s)]),
        )
        assert oracle.evaluate(frozenset()) == 0.0
        assert all(oracle.evaluate(frozenset({u})) >= 0.0 for u in range(len(snrs)))
        assert check_monotone(oracle, tolerance=1e-9) == []
        assert check_submodular_pairwise(oracle, tolerance=1e-9) == []
