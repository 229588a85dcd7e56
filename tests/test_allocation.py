import functools
import gc
import inspect
import itertools
import math
import operator
import resource
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfalloc import allocation, experiments
from wfalloc.allocation import (
    GREEDY_MODES,
    REFERENCE_KINDS,
    STRATEGIES,
    Allocation,
    InstanceTooLargeError,
    WeightMatrix,
    check_bruteforce_size,
    max_weight,
    offline_bruteforce,
    offline_upper_bound,
    online_greedy,
    reference_value,
    run_strategy,
    system_utility,
)
from wfalloc.experiments import RatioReport, competitive_ratio, evaluate_strategies, ratio_value
from wfalloc.profiles import PROFILE_KINDS, ProfileSpec, generate
from wfalloc.submodular import SetFunctionOracle, check_monotone, check_submodular_pairwise
from wfalloc.waterfill import (
    NoiseProfile,
    _scan,
    _snr_noise_array,
    _subset_tables,
    log_utility,
    water_level,
    waterfill,
)

from oracles import exact_waterfill, greedy_by_hand, naive_best_allocation, precise_rate


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
    with pytest.raises(ValueError, match="finite"):
        WeightMatrix([[1.0, math.inf]])
    W = WeightMatrix([[1.0, 2.0]])
    assert (W.n, W.m) == (1, 2)


def test_weight_matrix_needs_a_column_and_equals_only_weight_matrices():
    for empty in (np.zeros((3, 0)), [[]]):
        with pytest.raises(ValueError, match="at least one basestation column"):
            WeightMatrix(empty)
    W = WeightMatrix([[1.0]])
    assert W.__eq__(1) is NotImplemented and W != 1
    assert W == WeightMatrix(np.ones((1, 1))) and W != WeightMatrix([[1.0, 1.0]])


def test_reference_value_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown reference kind 'oracle'"):
        reference_value(WeightMatrix([[1.0, 2.0]]), "oracle")


def test_allocation_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        Allocation((frozenset({0, 1}), frozenset({1})))


# --- online greedy --------------------------------------------------------

def test_greedy_diagonal_split():
    W = WeightMatrix([[10.0, 1.0], [1.0, 10.0]])
    alloc = online_greedy(W)
    assert alloc.parts == (frozenset({0}), frozenset({1}))
    assert system_utility(alloc, W) == pytest.approx(2 * math.log(11.0), abs=1e-12)


def test_greedy_shares_the_strong_station():
    # second user's marginal at the loaded station, 2log6 - log11 ~ 1.185624,
    # still beats log2 at the empty one
    W = WeightMatrix([[10.0, 1.0], [10.0, 1.0]])
    alloc = online_greedy(W)
    assert alloc.parts == (frozenset({0, 1}), frozenset())
    assert system_utility(alloc, W) == pytest.approx(2 * math.log(6.0), abs=1e-12)


def test_greedy_tie_breaks_to_lowest_index():
    alloc = online_greedy(WeightMatrix([[5.0, 5.0, 5.0]]))
    assert alloc.parts == (frozenset({0}), frozenset(), frozenset())


def test_greedy_modes_can_differ():
    # marginal gain sends user 1 to the fresh station, absolute value keeps
    # piling onto the loaded one
    W = WeightMatrix([[10.0, 1.0], [3.0, 2.0]])
    marginal = online_greedy(W, "marginal_gain")
    absolute = online_greedy(W, "absolute_value")
    assert marginal.parts == (frozenset({0}), frozenset({1}))
    assert absolute.parts == (frozenset({0, 1}), frozenset())


def test_greedy_width_and_mode_errors():
    with pytest.raises(ValueError, match="mode"):
        online_greedy(WeightMatrix([[1.0]]), "steepest")


def test_greedy_matches_reference_and_is_deterministic():
    rng = np.random.default_rng(90)
    for _ in range(25):
        W = random_matrix(rng)
        for mode in ("marginal_gain", "absolute_value"):
            alloc = online_greedy(W, mode)
            again = online_greedy(W, mode)
            assert alloc == again
            assert alloc.parts == greedy_by_hand(W, mode)


def test_greedy_argmax_is_log_base_invariant():
    # scaling every utility by a positive constant, e.g. converting nats to
    # bits, must not change any decision
    rng = np.random.default_rng(91)
    for _ in range(15):
        W = random_matrix(rng, n=6, m=3)
        base = online_greedy(W).parts
        for scale in (1.0 / math.log(2.0), 0.01, 7.5):
            assert greedy_by_hand(W, "marginal_gain", scale=scale) == base


def test_greedy_prefix_property_keeps_partition_invariant():
    # the state after k arrivals is the allocation of the first k rows, and
    # the utility each station holds is log_utility of its part
    rng = np.random.default_rng(92)
    sparse = rng.uniform(0.0, 10.0, (12, 3))
    sparse[rng.random(sparse.shape) < 0.4] = 0.0
    for W in (random_matrix(rng, n=7, m=3), WeightMatrix(sparse)):
        full = online_greedy(W)
        for k in range(W.n + 1):
            alloc = online_greedy(WeightMatrix(W.weights[:k]))
            assert alloc.parts == tuple(p & frozenset(range(k)) for p in full.parts)
        for mode in GREEDY_MODES:
            parts = [[] for _ in range(W.m)]
            for user, (j, utils) in enumerate(allocation._greedy_arrivals(W, mode == "marginal_gain")):
                parts[j].append(user)
                assert utils == [log_utility([W.weights[u, i] for u in part])
                                 for i, part in enumerate(parts)]
            assert tuple(frozenset(p) for p in parts) == online_greedy(W, mode).parts


def test_greedy_rejects_users_above_water_without_a_solve(monkeypatch):
    # one strong user per station, each stronger than the last so that both
    # modes open a new station for it, then users whose noise 1/0.5 = 2 sits
    # above every level 1 + 10^-j: only the strong users are solved
    m = 4
    W = WeightMatrix(np.vstack([np.diag(10.0 ** np.arange(1, m + 1)), np.full((50, m), 0.5)]))
    calls = []
    scan = allocation._scan
    monkeypatch.setattr(allocation, "_scan", lambda *args: calls.append(args) or scan(*args))
    for mode in GREEDY_MODES:
        calls.clear()
        alloc = online_greedy(W, mode)
        assert len(calls) == m
        assert alloc.parts == greedy_by_hand(W, mode)


def test_greedy_solves_a_user_at_the_water_level():
    # station 1 holds SNRs 3, 3 at level 5/6, the noise of SNR 1.2000000000000002;
    # the exact gain is 0 but the solver's rounded sums fund the user, as
    # log_utility does, so the user joins station 1 and not station 0
    W = WeightMatrix([[0.0, 3.0], [0.0, 3.0], [0.0, 1.2000000000000002]])
    assert 1.0 / 1.2000000000000002 == water_level(NoiseProfile([1 / 3.0, 1 / 3.0], 1.0))
    assert log_utility([3.0, 3.0, 1.2000000000000002]) > log_utility([3.0, 3.0])
    assert online_greedy(W).parts == greedy_by_hand(W) == (frozenset(), frozenset({0, 1, 2}))


def test_greedy_keeps_a_dry_channel_that_rounding_funds_again():
    # station 0's second user is dry at level 1.4651753435357528 although its
    # noise 1.4651753435357526 is below it (the two-channel level rounds down
    # onto that noise); a third user with the same noise funds all three, so
    # the station must keep its dry noise to score users 3..5 as log_utility does
    quiet, weak = 2.1497270091727056, 0.6825121678520782
    assert waterfill(NoiseProfile([1 / quiet, 1 / weak], 1.0)).active_set == {0}
    assert waterfill(NoiseProfile([1 / quiet, 1 / weak, 1 / weak], 1.0)).active_set == {0, 1, 2}
    W = WeightMatrix([[3.972497491730009, 4.248709029550589], [quiet, 0.8094769600734326],
                      [weak, 0.8094769600734327], [weak, 0.8094769600734335],
                      [0.6825121678520785, 0.8094769600734327], [0.6825121678520781, 0.6805699033497487]])
    assert online_greedy(W).parts == greedy_by_hand(W) == (frozenset({1, 2, 3, 5}), frozenset({0, 4}))


def near_water_level_matrices():
    """(W, mode) pairs where each planted SNR puts a user's noise within 3
    ulps of the level of a station of mode's greedy."""
    rng = np.random.default_rng(93)
    for trial in range(150):
        mode = GREEDY_MODES[trial % 2]
        m = int(rng.integers(2, 4))
        rows = np.zeros((0, m))
        for _ in range(int(rng.integers(2, 10))):
            row = rng.integers(0, 4, m).astype(float) if trial % 3 else rng.uniform(0.0, 5.0, m)
            for j, part in enumerate(greedy_by_hand(WeightMatrix(rows), mode)):
                noises = [1.0 / rows[u, j] for u in part if rows[u, j] > 0.0]
                if noises and rng.random() < 0.7:
                    level = water_level(NoiseProfile(noises, 1.0))
                    row[j] = 1.0 / level * (1.0 + int(rng.integers(-3, 4)) * 2.0 ** -52)
            rows = np.vstack([rows, row])
        yield WeightMatrix(rows), mode


def test_greedy_matches_reference_next_to_the_water_level():
    for W, mode in near_water_level_matrices():
        assert online_greedy(W, mode).parts == greedy_by_hand(W, mode)


@st.composite
def tie_heavy_matrices(draw, min_m=1):
    """Small integer SNRs, with some columns zeroed and some copied."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(min_m, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    columns = [list(c) for c in zip(*rows)] if n else [[] for _ in range(m)]
    for j in range(m):
        edit = draw(st.sampled_from(("keep", "zero", "copy")))
        if edit == "zero":
            columns[j] = [0] * n
        elif edit == "copy":
            columns[j] = list(columns[draw(st.integers(0, m - 1))])
    return WeightMatrix(np.array(columns, dtype=float).T.reshape(n, m))


@settings(derandomize=True, database=None, max_examples=300)
@given(tie_heavy_matrices(), st.sampled_from(("marginal_gain", "absolute_value")))
def test_greedy_matches_reference_on_ties(W, mode):
    assert online_greedy(W, mode).parts == greedy_by_hand(W, mode)


# 5e-324 and 1e-310 are subnormal SNRs whose noise 1/w overflows; 1e-308
# alone lands in the scan's fallback branch (1 + 1e308 rounds to 1e308);
# 1e300 and 1e308 give tiny and subnormal noises
FLOAT_EDGE_SNRS = (0.0, -0.0, 5e-324, 1e-310, 1e-308, 1e-300, 1e300, 1e308, 1.7e308, 0.5, 1.0, 3.0)


@st.composite
def float_edge_matrices(draw):
    """SNRs at the float edges, with some columns zeroed."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(FLOAT_EDGE_SNRS), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    arr = np.array(rows, dtype=float).reshape(n, m)
    for j in range(m):
        if draw(st.booleans()) and draw(st.booleans()):
            arr[:, j] = 0.0
    return WeightMatrix(arr)


@settings(derandomize=True, database=None, max_examples=300)
@given(float_edge_matrices(), st.sampled_from(GREEDY_MODES))
def test_greedy_matches_reference_on_float_edges(W, mode):
    assert online_greedy(W, mode).parts == greedy_by_hand(W, mode)


GREEDY_NOISE = "noise = 1.0 / w if w else math.inf"


def test_the_snr_rule_copies_match_its_owner(monkeypatch):
    # _snr_noise_array owns the SNR -> noise rule; greedy's inline copy and
    # the noises brute force tables must give its noises bit for bit
    snrs = FLOAT_EDGE_SNRS  # with -0.0 and the subnormals 5e-324 and 1e-310
    owner = [x.hex() for x in _snr_noise_array(np.array(snrs)).tolist()]
    assert GREEDY_NOISE in inspect.getsource(allocation._greedy_arrivals)
    assert [(1.0 / w if w else math.inf).hex() for w in snrs] == owner
    tables, tabulate = [], allocation._subset_tables
    monkeypatch.setattr(allocation, "_subset_tables",
                        lambda noises, budget: tables.append(noises) or tabulate(noises, budget))
    offline_bruteforce(WeightMatrix([snrs]))  # one user, a station per SNR
    assert [x.hex() for x in tables[0].ravel().tolist()] == owner


def test_greedy_fallback_station_matches_reference():
    # station 0's first user has noise 1e308: funded with power 0, rate 0
    assert log_utility([1e-308]) == 0.0
    W = WeightMatrix([[1e-308, 0.0], [1e-308, 1e-308], [5.0, 1e-308], [1e-308, 1e-310],
                      [1e300, 1e-308], [0.0, 0.0], [1e-308, 2.0]])
    for mode in GREEDY_MODES:
        assert online_greedy(W, mode).parts == greedy_by_hand(W, mode)


ULP = 2.0 ** -52


def station_state(snrs):
    """A station's sorted finite noises, level, utility and slack, as
    online greedy keeps them after these users join."""
    noises = sorted(1.0 / w for w in snrs if w > 0.0 and 1.0 / w < math.inf)
    level, _, util = _scan(noises, 1.0) if noises else (math.inf, 0, 0.0)
    return noises, level, util, (len(noises) + 2) ** 2 * 2.0 ** -50


@st.composite
def stations_and_arrivals(draw):
    """A station's SNRs and an arriving SNR: float edges, tied noises, or an
    arrival within 3 ulps of the station's level or of a held noise."""
    nudge = st.integers(-3, 3).map(lambda k: 1.0 + k * ULP)
    kind = draw(st.sampled_from(("edges", "tied", "level", "held")))
    if kind == "edges":
        snrs = draw(st.lists(st.sampled_from(FLOAT_EDGE_SNRS), max_size=6))
        return snrs, draw(st.sampled_from(FLOAT_EDGE_SNRS))
    if kind == "tied":
        base = draw(st.floats(1e-3, 1e3))
        snrs = [base * draw(nudge) for _ in range(draw(st.integers(1, 12)))]
        return snrs, base * draw(nudge)
    snrs = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12))
    noises, level = station_state(snrs)[:2]
    target = level if kind == "level" else draw(st.sampled_from(noises))
    return snrs, 1.0 / target * draw(nudge)


@settings(derandomize=True, database=None, max_examples=600)
@example(([2.1497270091727056, 0.6825121678520782], 0.6825121678520782))
@given(stations_and_arrivals())
def test_gain_bound_covers_every_computed_score(state):
    # the pruning bound with its margin is at least the score the solve
    # would give, so a pruned station could not have won or tied, and the
    # score uses at most half the margin; the example is the profile whose
    # level sits one ulp above its dry noise
    snrs, w = state
    noise = 1.0 / w if w else math.inf
    if noise == math.inf:
        return  # never bounded: scored exactly 0 without a solve
    noises, level, util, slack = station_state(snrs)
    bound = allocation._gain_bound(w, level, slack, util)
    half = bound - (bound - allocation._gain_bound(w, level, 0.0, util)) / 2
    value = _scan(sorted(noises + [noise]), 1.0)[2]
    assert value - util <= half <= bound
    assert value <= util + half <= util + bound


def decimal_of(q):
    """A Fraction as a Decimal, rounded once in the current context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


@settings(derandomize=True, database=None, max_examples=300)
@example(([2.1497270091727056, 0.6825121678520782], 0.6825121678520782))
@example(([], 3.0))
@given(stations_and_arrivals())
def test_gain_bound_facts_hold_for_the_precise_gain(state):
    # the two facts online_greedy's bound rests on, against exact levels and
    # 80-digit rates: at a unit-power station of noises N, the precise gain of
    # a channel of SNR w is at most ln(1 + w), its gain at an empty station
    # (submodularity), and at most h(L w), L the exact level of N (weak
    # duality). The channel the library adds has noise x = fl(1/w), not 1/w,
    # so the facts, theorems for any noise, are checked at its exact SNR
    # 1/x; and 1/x is within 2^-51 of w in log (2^-53 unless x is subnormal),
    # which moves ln(1 + w) and h(L w) by no more, as h changes at most as
    # fast as ln r: an eighth of the margin's least value 4 2^-50
    snrs, w = state
    noises = station_state(snrs)[0]
    x = 1.0 / w if w else math.inf
    if x == math.inf:
        return  # never bounded: scored exactly 0 without a solve
    level = exact_waterfill(noises, 1.0)[0]
    util, joined = precise_rate(noises, 1.0), precise_rate(noises + [x], 1.0)
    with localcontext() as ctx:
        ctx.prec = 80
        assert abs(decimal_of(Fraction(w) * Fraction(x)).ln()) <= Decimal(2) ** -51
        gain = joined - util
        # the oracle's own 80-digit rounding, 10^55 times below the margin's 2^-48
        tolerance = Decimal("1e-70") * (1 + joined)
        ln1p = decimal_of(1 + 1 / Fraction(x)).ln()
        assert gain <= ln1p + tolerance
        if level is None:  # an empty station's gain is its bound: h(inf) = inf
            assert abs(gain - ln1p) <= tolerance
            return
        r = level / Fraction(x)
        h = decimal_of(r).ln() - 1 + decimal_of(1 / r) if r > 1 else Decimal(0)
        assert gain <= h + tolerance


def planted_near_tie_matrices():
    """(W, mode) pairs where every column copies one base column with each
    SNR nudged by up to 3 ulps, and some SNRs sit within 3 ulps of a
    station's level, so the stations' bounds and scores tie the best within
    rounding."""
    rng = np.random.default_rng(94)
    for trial in range(120):
        mode = GREEDY_MODES[trial % 2]
        m = int(rng.integers(2, 5))
        rows = np.zeros((0, m))
        for _ in range(int(rng.integers(2, 10))):
            first = float(rng.integers(1, 4)) if trial % 3 else float(rng.uniform(0.1, 5.0))
            row = first * (1.0 + rng.integers(-3, 4, m) * ULP)
            for j, part in enumerate(greedy_by_hand(WeightMatrix(rows), mode)):
                noises = [1.0 / rows[u, j] for u in part]
                if noises and rng.random() < 0.3:
                    level = water_level(NoiseProfile(noises, 1.0))
                    row[j] = 1.0 / level * (1.0 + int(rng.integers(-3, 4)) * ULP)
            rows = np.vstack([rows, row])
        yield WeightMatrix(rows), mode


def test_greedy_matches_reference_on_planted_near_ties():
    for W, mode in planted_near_tie_matrices():
        assert online_greedy(W, mode).parts == greedy_by_hand(W, mode)


def test_greedy_solves_a_station_whose_bound_ties_the_best(monkeypatch):
    # with each empty station's bound made exactly its score, station 0's
    # bound equals the best score once a copy has been solved; it must still
    # be solved to win the tie by its lower index
    monkeypatch.setattr(allocation, "_gain_bound", lambda w, level, slack, util: _scan([1.0 / w], 1.0)[2])
    W = WeightMatrix([[5.0, 5.0, 5.0]])
    for mode in GREEDY_MODES:
        assert online_greedy(W, mode).parts == (frozenset({0}), frozenset(), frozenset())
    # in absolute mode the richer station 1 is visited and solved first, to
    # L{3, 3}, which is L{5.25} bit for bit: empty station 0's bound ties it,
    # and only its solve wins the second user by the lower index
    assert log_utility([3.0, 3.0]) == log_utility([5.25])
    W = WeightMatrix([[0.0, 3.0], [5.25, 3.0]])
    assert online_greedy(W, "absolute_value").parts == (frozenset({1}), frozenset({0}))


def test_greedy_solves_few_stations_per_arrival(monkeypatch):
    # a guard against the pruning silently switching off: scoring every
    # station not past its cutoff took 8.5 (marginal) and 15.3 (absolute)
    # solves per arrival on iid-ten; pruning by the gain bound takes 1.4 and
    # 0.33. In absolute mode the best-first visits bound 0.36 stations per
    # arrival on iid-ten and 0.17 on correlated, where bounding every station
    # not past its cutoff took 15.3 and 15.1. Both modes' (solves, bounds)
    # counts are pinned exactly, so any added work shows.
    scans, bounds = [], []
    scan, gain_bound = allocation._scan, allocation._gain_bound
    monkeypatch.setattr(allocation, "_scan", lambda *args: scans.append(args) or scan(*args))
    monkeypatch.setattr(allocation, "_gain_bound", lambda *args: bounds.append(args) or gain_bound(*args))
    for kind, counts in (("iid_ten", ((563, 3417), (132, 146))), ("correlated", ((456, 2593), (54, 67)))):
        W = generate(ProfileSpec(kind, 400, 16, 1))
        for mode, most, exact in zip(GREEDY_MODES, (1.5, 0.5), counts):
            scans.clear()
            bounds.clear()
            online_greedy(W, mode)
            assert len(scans) <= most * W.n
            assert (len(scans), len(bounds)) == exact
            if mode == "absolute_value":
                assert len(bounds) <= W.n


def copied_column_matrix(rng):
    """8 to 16 stations, each a copy of one of a few base columns of small
    integer SNRs: copies hold equal utilities and tie on every score."""
    n, m = int(rng.integers(4, 25)), int(rng.integers(8, 17))
    base = rng.integers(0, 4, (n, int(rng.integers(2, 5)))).astype(float)
    return WeightMatrix(base[:, rng.integers(0, base.shape[1], m)])


def test_greedy_absolute_breaks_ties_to_lowest_index_in_visit_order(monkeypatch):
    # copied stations tie at different visit positions; the lowest index must
    # win as in the index-order reference, both with the early exit and
    # visiting every station (an infinite coarse margin), and the exit must
    # skip most of the bounds that visiting every station computes
    bounds = []
    gain_bound = allocation._gain_bound
    monkeypatch.setattr(allocation, "_gain_bound", lambda *args: bounds.append(args) or gain_bound(*args))
    counts = []
    for margin in (allocation._coarse_margin, lambda w_max, slack_max, util_max: math.inf):
        monkeypatch.setattr(allocation, "_coarse_margin", margin)
        rng = np.random.default_rng(95)
        bounds.clear()
        for _ in range(60):
            W = copied_column_matrix(rng)
            assert online_greedy(W, "absolute_value").parts == greedy_by_hand(W, "absolute_value")
        counts.append(len(bounds))
    with_exit, every_station = counts  # 1,274 and 7,601
    assert with_exit < every_station / 2


def test_greedy_absolute_visit_order_is_utility_then_index():
    # the order absolute mode visits in, read from the suspended generator,
    # is descending utility with ties by ascending index after every arrival
    rng = np.random.default_rng(96)
    for _ in range(40):
        W = copied_column_matrix(rng)
        arrivals = allocation._greedy_arrivals(W, False)
        for _, utils in arrivals:
            frame = arrivals.gi_frame.f_locals
            assert frame["order"] == sorted(range(W.m), key=lambda j: (-utils[j], j))
            # kept up only when a station changed, so it must stay the largest slack
            assert frame["slack_max"] == max(frame["slacks"])


# x alone has a computed utility one ulp above the pair x, c: c's noise sits
# just below x's level, and the rounded two-channel rate falls
NON_MONOTONE_PAIR = (2.4558498082097246, 0.7106355728699795)


def test_greedy_absolute_scored_station_wins_a_tie_after_a_solve(monkeypatch):
    # bounds made exactly the scores: the coarse margin is the row's largest
    # exact gain and each gain bound is the exact gain. At the last arrival
    # station 1 (utility L{x}) is visited first and solved to L{x, c}, which
    # station 0's coarse bound equals. Station 0 must still be visited, and
    # its score L{x, c} without a solve wins the tie by its lower index.
    x, c = NON_MONOTONE_PAIR
    assert log_utility([x, c]) < log_utility([x])
    held = {0.0: [], log_utility([x]): [x]}
    monkeypatch.setattr(allocation, "_gain_bound",
                        lambda w, level, slack, util: log_utility(held[util] + [w]) - util)
    monkeypatch.setattr(allocation, "_coarse_margin",
                        lambda w_max, slack_max, util_max: log_utility([x]) if w_max == x else 0.0)
    W = WeightMatrix([[x, 0.0], [c, 0.0], [0.0, x], [0.0, c]])
    assert greedy_by_hand(W, "absolute_value") == (frozenset({0, 1, 3}), frozenset({2}))
    assert online_greedy(W, "absolute_value").parts == greedy_by_hand(W, "absolute_value")


def test_greedy_absolute_order_swaps_a_station_whose_utility_fell_back():
    # users 0 and 1 take stations 0 and 1 at L{x} each. User 2 ties at
    # L{x, c} and joins station 0, whose utility falls one ulp below station
    # 1's L{x}: order swaps station 0 toward the back, keeping its invariant
    x, c = NON_MONOTONE_PAIR
    W = WeightMatrix([[x, x], [c, x], [c, c]])
    assert online_greedy(W, "absolute_value").parts == greedy_by_hand(W, "absolute_value") \
        == (frozenset({0, 2}), frozenset({1}))
    arrivals = allocation._greedy_arrivals(W, False)
    orders = []
    for _, utils in arrivals:
        orders.append(list(arrivals.gi_frame.f_locals["order"]))
        assert orders[-1] == sorted(range(W.m), key=lambda j: (-utils[j], j))
    assert orders == [[0, 1], [0, 1], [1, 0]]


@st.composite
def stations_and_rows(draw):
    """Up to 5 stations' SNRs and a row with one arriving SNR per station:
    float edges (subnormals, zeros, -0.0), tied noises, or an arrival
    within 3 ulps of its station's level."""
    states = [draw(stations_and_arrivals()) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()) and draw(st.booleans()):
        states = [(snrs, draw(st.sampled_from((0.0, -0.0)))) for snrs, _ in states]
    return states


@settings(derandomize=True, database=None, max_examples=400)
@example([([2.1497270091727056, 0.6825121678520782], 0.6825121678520782), ([], 5e-324)])
@example([([1e308, 5.0], 1e-310), ([0.0], -0.0), ([3.0], 1.7e308)])
@given(stations_and_rows())
def test_coarse_margin_covers_every_computed_bound(states):
    # absolute mode's coarse bound of a station, its utility plus the margin,
    # is at least the bound of every station with no larger utility, that is
    # of every station it is visited before or ties; the first example is
    # the profile whose level sits one ulp above its dry noise
    stations = [station_state(snrs) for snrs, _ in states]
    row = [w for _, w in states]
    margin = allocation._coarse_margin(max(row), max(s[3] for s in stations),
                                       max(s[2] for s in stations))
    for (_, level, util, slack), w in zip(stations, row):
        if w:
            bound = allocation._gain_bound(w, level, slack, util)
            assert bound <= margin
            for ahead in (s[2] for s in stations if s[2] >= util):
                assert util + bound <= ahead + margin


def test_coarse_margin_covers_a_log1p_one_ulp_off_monotone(monkeypatch):
    # a log1p that rounds up by one ulp everywhere but at the row's largest
    # SNR, as a faithful but not monotone log1p may: the SNR just below
    # then gets a larger log1p, which the cap's ulp raise must still cover
    log1p = math.log1p
    for w_max in (1e-300, 1e-20, 0.3, 1.0, 7.0, 1e12, 1.7e308):
        w = math.nextafter(w_max, 0.0)
        monkeypatch.setattr(math, "log1p", lambda x: log1p(x) if x == w_max else math.nextafter(log1p(x), math.inf))
        margin = allocation._coarse_margin(w_max, 4 * 2.0 ** -50, 0.0)
        bound = allocation._gain_bound(w, math.inf, 4 * 2.0 ** -50, 0.0)
        monkeypatch.undo()
        assert bound <= margin


# --- greedy's carried utility ---------------------------------------------

def assert_greedy_carries_system_utility(W):
    for mode in GREEDY_MODES:
        alloc = online_greedy(W, mode)
        assert alloc._utility.hex() == system_utility(alloc, W).hex(), mode


def test_greedy_carries_system_utility_next_to_the_water_level_and_near_ties():
    for W, _ in itertools.chain(near_water_level_matrices(), planted_near_tie_matrices()):
        assert_greedy_carries_system_utility(W)


@settings(derandomize=True, database=None, max_examples=300)
@given(tie_heavy_matrices())
def test_greedy_carries_system_utility_on_ties(W):
    assert_greedy_carries_system_utility(W)


@settings(derandomize=True, database=None, max_examples=300)
@given(float_edge_matrices())
@example(WeightMatrix([[5e-324, 1e-310], [1.7e308, -0.0], [1e-308, 0.0]]))
def test_greedy_carries_system_utility_on_float_edges(W):
    assert_greedy_carries_system_utility(W)


def test_greedy_carries_system_utility_with_no_users_or_no_signal():
    for rows in (np.zeros((0, 3)), np.zeros((5, 2)), [[0.0, 2.0], [-0.0, 1.0], [0.0, 3.0], [0.0, 0.0]]):
        assert_greedy_carries_system_utility(WeightMatrix(rows))


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


def test_system_utility_adds_stations_left_to_right():
    # one += per station, as _scan adds: on the 7th draw a compensated sum
    # (fsum, and Python's sum from 3.12) rounds one ulp below the plain fold,
    # so this test fails there against a system_utility built on sum
    rng = np.random.default_rng(0)
    for draw in range(8):
        W = WeightMatrix(rng.uniform(0, 10, (6, 3)))
        alloc = online_greedy(W, "marginal_gain")
        utils = [log_utility([W.weights[u, j] for u in part]) for j, part in enumerate(alloc.parts)]
        plain = functools.reduce(operator.add, utils, 0.0)
        assert system_utility(alloc, W).hex() == plain.hex()
        if draw == 6:
            assert (plain.hex(), math.fsum(utils).hex()) == ("0x1.0f16a595b7110p+3", "0x1.0f16a595b710fp+3")


def utility_by_columns(alloc, W):
    """A fold of per-column log_utility, read straight from the matrix."""
    total = 0.0
    for j, part in enumerate(alloc.parts):
        total += log_utility([float(W.weights[u, j]) for u in sorted(part)])
    return total


def test_system_utility_of_random_partitions_of_every_profile_kind():
    rng = np.random.default_rng(99)
    for kind in PROFILE_KINDS:
        for seed in range(2):
            W = generate(ProfileSpec(kind, 400, 16, seed))
            stations = rng.integers(0, W.m, W.n)
            alloc = Allocation(tuple(np.flatnonzero(stations == j).tolist() for j in range(W.m)))
            assert system_utility(alloc, W).hex() == utility_by_columns(alloc, W).hex()


@settings(derandomize=True, database=None, max_examples=200)
@given(float_edge_matrices(), st.data())
def test_system_utility_of_random_partitions_on_float_edges(W, data):
    stations = data.draw(st.lists(st.integers(0, W.m - 1), min_size=W.n, max_size=W.n))
    alloc = Allocation(tuple([u for u, s in enumerate(stations) if s == j] for j in range(W.m)))
    assert system_utility(alloc, W).hex() == utility_by_columns(alloc, W).hex()


def test_system_utility_of_mostly_empty_stations():
    # a station with no user is skipped; its _scan would add an exact 0.0
    rng = np.random.default_rng(25)
    for n in (0, 1, 7):
        W = WeightMatrix(rng.exponential(3.0, (n, 200)) * (rng.random((n, 200)) < 0.8))
        stations = rng.choice([0, 3, 4, 77, 199], n)
        alloc = Allocation(tuple(np.flatnonzero(stations == j).tolist() for j in range(W.m)))
        assert sum(1 for part in alloc.parts if part) <= 5
        assert system_utility(alloc, W).hex() == utility_by_columns(alloc, W).hex()


def test_system_utility_ignores_a_carried_utility(monkeypatch):
    W = generate(ProfileSpec("correlated", 20, 4, 3))
    alloc = online_greedy(W)
    wrong = Allocation(alloc.parts, alloc._utility + 1.0)
    assert wrong == alloc and hash(wrong) == hash(alloc) and repr(wrong) == repr(alloc)

    def evaluated_utility(returned):
        # the evaluation loop values whatever allocation the strategy hands back
        monkeypatch.setattr(experiments, "run_strategy", lambda strategy, W: returned)
        return experiments._evaluate(W, ("greedy",), "analytic_upper_bound")[1][0][2]

    assert evaluated_utility(wrong) == alloc._utility + 1.0
    assert system_utility(wrong, W) == alloc._utility
    assert evaluated_utility(Allocation(alloc.parts)) == alloc._utility


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
    # a -0.0 SNR is dropped like 0.0, so user 1 goes to station 0
    alloc, value = offline_bruteforce(WeightMatrix([[-0.0, 1.0], [1.0, 1.0]]))
    assert alloc.parts == (frozenset({1}), frozenset({0}))
    assert value == 2 * math.log(2.0)


def test_bruteforce_matches_naive_enumeration():
    rng = np.random.default_rng(93)
    cases = [random_matrix(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 4)))
             for _ in range(15)]
    # ties: zero-SNR columns, identical columns, rows equal across stations
    zero_column = rng.uniform(0.0, 10.0, (6, 3))
    zero_column[:, 1] = 0.0
    cases += [
        WeightMatrix(zero_column),
        WeightMatrix(np.zeros((4, 3))),
        WeightMatrix(np.repeat(rng.uniform(0.0, 10.0, (6, 1)), 3, axis=1)),
        WeightMatrix(np.repeat(rng.uniform(0.0, 10.0, (1, 4)), 5, axis=0)),
        generate(ProfileSpec("correlated", 7, 3, 7)),
        random_matrix(rng, n=7, m=4),
        random_matrix(rng, n=7, m=2),
    ]
    for W in cases:
        alloc, value = offline_bruteforce(W)
        _, naive = naive_best_allocation(W)
        assert value == pytest.approx(naive, rel=1e-12)
        assert value.hex() == system_utility(alloc, W).hex()


def test_bruteforce_dominates_greedy():
    rng = np.random.default_rng(94)
    for _ in range(20):
        W = random_matrix(rng)
        _, best = offline_bruteforce(W)
        for strategy in ("greedy", "greedy-absolute", "max-weight"):
            assert best >= system_utility(run_strategy(strategy, W), W) - 1e-9


@settings(derandomize=True, database=None, max_examples=200)
@given(float_edge_matrices())
def test_subset_utilities_are_log_utility_of_every_subset(W):
    # zero SNRs and SNRs whose 1/w overflows are dropped, as log_utility drops them
    tables = _subset_tables(_snr_noise_array(W.weights.T), 1.0)
    assert tables.shape == (W.m, 1 << W.n)
    for j, column in enumerate(W.weights.T.tolist()):
        for mask in range(1 << W.n):
            assert tables[j, mask] == log_utility([w for u, w in enumerate(column) if mask >> u & 1])


def bruteforce_with_its_value_checked(W):
    """``offline_bruteforce``'s allocation, after checking that the DP
    optimum it returns is ``system_utility`` of that allocation, and the
    brute-force ``reference_value`` that optimum, to the last bit (the
    digests print only 12 significant digits)."""
    alloc, value = offline_bruteforce(W)
    assert type(value) is float and value.hex() == system_utility(alloc, W).hex()
    reference = reference_value(W, "brute_force_optimum")
    assert type(reference) is float and reference.hex() == value.hex()
    return alloc


def bruteforce_by_best_share(W):
    """The scalar subset DP that the numpy fold replaced, kept as the
    reference for its tie rule: log_utility tables over list-doubled
    subsets, and a submask loop in descending order that keeps the first
    maximum, so each station takes the largest bitmask among its ties."""

    def utilities(column):
        subsets = [[]]
        for w in column:
            subsets += [s + [w] for s in subsets]
        return [log_utility(s) for s in subsets]

    def best_share(rest, own, mask):
        best, arg, share = rest[0] + own[mask], mask, mask
        while share:
            share = (share - 1) & mask
            value = rest[mask ^ share] + own[share]
            if value > best:
                best, arg = value, share
        return best, arg

    n, columns = W.n, W.weights.T.tolist()
    if len(columns) == 1:
        return (frozenset(range(n)),)
    best, shares = utilities(columns[0]), []
    for column in columns[1:-1]:
        own = utilities(column)
        best, share = zip(*(best_share(best, own, mask) for mask in range(len(own))))
        shares.append(share)
    rest = (1 << n) - 1
    masks = [best_share(best, utilities(columns[-1]), rest)[1]]
    for share in reversed(shares):
        rest ^= masks[-1]
        masks.append(share[rest])
    masks.append(rest ^ masks[-1])
    return tuple(frozenset(u for u in range(n) if mask >> u & 1) for mask in reversed(masks))


@settings(derandomize=True, database=None, max_examples=300)
@given(tie_heavy_matrices(min_m=3))
def test_bruteforce_breaks_ties_like_the_scalar_fold(W):
    # values alone cannot tell the first maximum from the last; allocations can
    assert bruteforce_with_its_value_checked(W).parts == bruteforce_by_best_share(W)


@settings(derandomize=True, database=None, max_examples=200)
@given(float_edge_matrices())
def test_bruteforce_matches_the_scalar_fold_on_float_edges(W):
    # covers -0.0 SNRs, which must be dropped as log_utility drops them
    assert bruteforce_with_its_value_checked(W).parts == bruteforce_by_best_share(W)


def test_bruteforce_breaks_ties_like_the_scalar_fold_at_the_cap():
    # 12 users on 3 stations: the largest fold the cap admits, 3^12 pairs
    rows = np.random.default_rng(12).integers(0, 4, (12, 3)).astype(float)
    rows[:, 1] = rows[:, 0]  # the middle station ties with the first on every subset
    W = WeightMatrix(rows)
    assert bruteforce_with_its_value_checked(W).parts == bruteforce_by_best_share(W)


def test_bruteforce_breaks_ties_like_the_scalar_fold_across_blocks_and_stations():
    # 9x4 and 11x3 fold 3^9 and 3^11 pairs in several blocks, through two and
    # one fold stations (at 9x4 a block read before it is written reads
    # garbage); n <= 2 on up to 50 stations walks the decode past many
    # stations that take no user, and stops it once none is left; with no
    # users, and with two stations (no fold), the optimum is a bare sum
    rng = np.random.default_rng(17)
    shapes = [(9, 4)] * 8 + [(11, 3)] + [(n, m) for n in (1, 2) for m in (2, 3, 7, 50) for _ in range(4)]
    shapes += [(0, m) for m in (2, 3, 50)] + [(n, 2) for n in (5, 12) for _ in range(2)]
    for n, m in shapes:
        rows = rng.integers(0, 4, (n, m)).astype(float)
        rows[:, rng.integers(m)] = rows[:, rng.integers(m)]  # a column copied: ties on every subset
        W = WeightMatrix(rows)
        assert bruteforce_with_its_value_checked(W).parts == bruteforce_by_best_share(W)


def test_bruteforce_fold_keeps_no_temporary_that_grows_with_the_pairs():
    # a temporary of all 3^10 pairs is 472 KB, above malloc's mmap threshold,
    # so it is mapped and page-faulted anew on every call; the fold's blocks
    # are at most 64 KiB, and the tables are ~131 KiB of the peak
    W = WeightMatrix(np.random.default_rng(10).exponential(3.0, (10, 3)))
    offline_bruteforce(W)  # caches the pair index and its blocks
    tracemalloc.start()
    try:
        offline_bruteforce(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 384 * 1024


def test_kernel_and_bruteforce_fault_no_fresh_pages_per_call():
    # a temporary above malloc's mmap threshold is mapped and page-faulted anew
    # on every call: a fold over all 3^10 pairs at once read ~314 minor faults
    # per 10 x 3 call, the blocked fold and the tables read ~0. Noises in [1, 2] at
    # budget 30 fund every subset, so each table takes all of its logs.
    def faults_per_call(calls):
        calls[0]()  # fills the caches
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for call in calls[1:]:
            call()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (len(calls) - 1)

    rng = np.random.default_rng(26)
    for shape in ((1, 8), (1, 10), (3, 10)):
        noises = rng.uniform(1.0, 2.0, shape)
        assert faults_per_call([functools.partial(_subset_tables, noises, 30.0)] * 21) < 1, shape
    matrices = [WeightMatrix(rng.exponential(3.0, (10, 3))) for _ in range(21)]
    assert faults_per_call([functools.partial(offline_bruteforce, W) for W in matrices]) < 1


def test_bruteforce_cap(monkeypatch):
    W = WeightMatrix(np.ones((21, 2)))
    tables = []
    monkeypatch.setattr(allocation, "_subset_tables", lambda *args: tables.append(args))
    for solve in (offline_bruteforce, functools.partial(reference_value, reference_kind="brute_force_optimum")):
        with pytest.raises(InstanceTooLargeError, match="instance too large"):
            solve(W)
    assert tables == []  # the size is checked before any table is built
    for n, m in ((6, 10), (19, 2), (2, 1000), (10**6, 1), (0, 10**9)):
        check_bruteforce_size(n, m)
    for n, m in ((20, 2), (7, 10), (1, 10**6 + 1), (13, 3)):
        with pytest.raises(InstanceTooLargeError, match="instance too large"):
            check_bruteforce_size(n, m)
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError, match=r"50\^1000000 assignments exceed 1000000"):
        check_bruteforce_size(10**6, 50)
    assert time.perf_counter() - start < 0.1


def test_bruteforce_one_station_many_users():
    W = WeightMatrix(np.random.default_rng(4).uniform(0.0, 10.0, (5000, 1)))
    alloc, value = offline_bruteforce(W)
    assert alloc.parts == (frozenset(range(5000)),)
    assert value == system_utility(alloc, W)


def test_bruteforce_and_system_utility_check_no_snr_again(monkeypatch):
    # brute force hands back the optimum its DP found, and system_utility maps
    # the matrix's validated SNRs to noises without re-checking any of them
    matrices = [WeightMatrix(np.random.default_rng(m).uniform(0.0, 5.0, (6, m))) for m in (2, 3, 5)]
    one_station = WeightMatrix(np.ones((4, 1)))
    calls, originals = [], {}
    for module in (allocation, sys.modules["wfalloc.waterfill"]):
        for name in ("system_utility", "log_utility", "_check_snrs"):
            if hasattr(module, name):
                fn = originals[name] = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _n=name, _f=fn: calls.append(_n) or _f(*a))
    for W in matrices:
        alloc, _ = offline_bruteforce(W)
        assert calls == []
        originals["system_utility"](alloc, W)
        assert calls == []
    # one station has no DP: its value is system_utility's, which re-checks nothing
    offline_bruteforce(one_station)
    assert calls == ["system_utility"]


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
    # no users: the formula alone gives 0.0; an all -0.0 matrix gives +0.0
    assert offline_upper_bound(WeightMatrix(np.zeros((0, 3)))) == 0.0
    assert math.copysign(1.0, offline_upper_bound(WeightMatrix(-np.zeros((3, 2))))) == 1.0


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


@pytest.mark.parametrize("w", [0.1, 1e-2, 1e-3])
def test_greedy_ratio_nears_two_on_the_planted_tight_family(w):
    # user 0 takes station 0 by a hair; user 1, worth nothing at station 1,
    # then shares it, while the optimum gives each user a station of its own:
    # the ratio is 2 - O(w), where sampled matrices stay near 1.3
    W = WeightMatrix([[w * (1 + 1e-9), w], [w, 0.0]])
    ratio = ratio_value(offline_bruteforce(W)[1], system_utility(online_greedy(W), W))
    assert 1.95 < ratio <= 2 + 1e-9


@pytest.mark.parametrize("shape, floor", [((2, 2), 1.95), ((3, 2), 1.35)])
def test_a_hill_climb_toward_the_worst_greedy_ratio_stays_within_two(shape, floor):
    # a seeded climb on log-SNRs, its step shrinking from 4 to 0.05 per
    # restart, gets near tight where sampled matrices stay near 1.3 (floors
    # from this seed: 1.984 at 2 x 2, 1.388 at 3 x 2); SNRs stay at or above
    # e^-14, clear of the tiny rates whose computed ratio is not bounded
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        x = rng.uniform(-14.0, 14.0, shape)
        best = competitive_ratio(WeightMatrix(np.exp(x)), "greedy").ratio
        for step in np.geomspace(4.0, 0.05, 400):
            y = np.clip(x + rng.normal(0.0, step, shape), -14.0, 14.0)
            ratio = competitive_ratio(WeightMatrix(np.exp(y)), "greedy").ratio
            assert ratio <= 2 + 1e-9, y.tolist()
            if ratio >= best:
                x, best = y, ratio
        worst = max(worst, best)
    assert worst > floor


def test_ratio_of_noises_that_overflow_is_finite():
    # 1 / 1e-310 overflows: no user can be funded, so both sides are exactly 0
    report = competitive_ratio(WeightMatrix([[1e-310, 0.0], [1e-310, 1e-310]]), "greedy")
    assert (report.online_utility, report.offline_reference, report.ratio) == (0.0, 0.0, 1.0)


def test_bruteforce_optimum_with_overflowing_noise_sum():
    # both users at station 0 sum the noises 1e308 + 1e308; the optimum sends user 0
    # to station 1 for log 6
    W = WeightMatrix([[1e-308, 5.0], [1e-308, 1e-308]])
    _, value = offline_bruteforce(W)
    assert value == pytest.approx(math.log(6.0), rel=1e-15)
    assert value == naive_best_allocation(W)[1]


def test_greedy_utility_with_overflowing_noise_sum_stays_below_the_bound():
    W = WeightMatrix(np.full((3, 2), 1e-308))
    utility = system_utility(online_greedy(W), W)
    assert math.isfinite(utility)
    assert 0.0 <= utility <= offline_upper_bound(W)


@settings(derandomize=True, database=None, max_examples=100)
@given(float_edge_matrices())
@example(WeightMatrix([[1e-310, 0.0], [1e-310, 1e-310]]))  # ratio inf against the analytic bound
@example(WeightMatrix(np.zeros((0, 3))))
def test_competitive_ratio_is_the_evaluate_strategies_record(W):
    # one evaluation loop: the single-strategy report and the batch record agree bit for bit
    for kind in REFERENCE_KINDS:
        records = evaluate_strategies(W, STRATEGIES, kind, trial=0, profile_name="edge", seed=0)
        for strategy, record in zip(STRATEGIES, records):
            report = competitive_ratio(W, strategy, kind)
            assert report.reference_kind == record.reference_kind == kind
            assert (report.online_utility.hex(), report.offline_reference.hex(), report.ratio.hex()) == (
                record.utility.hex(), record.offline_bound.hex(), record.ratio.hex())


def test_competitive_ratio_runs_the_evaluation_loop_once(monkeypatch):
    calls, original = [], experiments._evaluate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "_evaluate", counted)
    W = WeightMatrix([[4.0, 1.0], [2.0, 9.0]])
    competitive_ratio(W, "max-weight", "brute_force_optimum")
    assert calls == [(W, ("max-weight",), "brute_force_optimum")]


def test_brute_force_reference_decodes_no_allocation(monkeypatch):
    # with two or more stations the reference is the DP's maximum alone
    rng = np.random.default_rng(32)
    matrices = [random_matrix(rng, n=int(rng.integers(0, 9)), m=m) for m in (2, 3, 4) for _ in range(3)]
    values = [offline_bruteforce(W)[1] for W in matrices]

    def no_decode(W):
        raise AssertionError("offline_bruteforce called")

    monkeypatch.setattr(allocation, "offline_bruteforce", no_decode)
    for W, value in zip(matrices, values):
        [record] = evaluate_strategies(W, ("greedy",), "brute_force_optimum",
                                       trial=0, profile_name="uniform", seed=0)
        assert record.offline_bound.hex() == value.hex()


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


def test_unknown_strategy_and_reference(monkeypatch):
    W = WeightMatrix([[1.0]])
    with pytest.raises(ValueError, match="strategy"):
        run_strategy("best-effort", W)

    def no_greedy(W, mode="marginal_gain"):
        raise AssertionError("greedy ran before the reference was computed")

    # the reference comes first, so a bad kind or a brute force above the cap
    # fails before any strategy runs
    monkeypatch.setattr(allocation, "online_greedy", no_greedy)
    with pytest.raises(ValueError, match="reference"):
        competitive_ratio(W, "greedy", "oracle")
    with pytest.raises(InstanceTooLargeError):
        competitive_ratio(WeightMatrix(np.ones((30, 4))), "greedy-absolute")

    def no_reference(W, reference_kind):
        raise AssertionError("the reference was computed before the names were checked")

    # names are checked before the reference, which may be a long brute force
    monkeypatch.setattr(experiments, "reference_value", no_reference)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        competitive_ratio(W, "bogus")


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
