import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wfalloc import lemmas
from wfalloc.lemmas import (
    EASY_I_INACTIVE,
    EASY_J_INACTIVE,
    MAIN_CASE,
    LemmaWitness,
    build_majorization_vectors,
    lemma_witness,
    rate_oracle,
)
from wfalloc.submodular import (
    SetFunctionOracle,
    check_monotone,
    check_setpair_submodular,
    check_submodular_pairwise,
    karamata_holds,
    majorizes,
)
from wfalloc.waterfill import NoiseProfile, rate_of_subset, waterfill

from oracles import bisection_water_level


def witness_levels_match_bisection(wit):
    p = wit.profile
    base = wit.base
    i, j = wit.elem_i, wit.elem_j

    def oracle_level(channels):
        return bisection_water_level([p.noise_of(c) for c in channels], p.budget)

    assert wit.level == pytest.approx(oracle_level(base), rel=1e-9)
    assert wit.level_i == pytest.approx(oracle_level(base | {i}), rel=1e-9)
    assert wit.level_j == pytest.approx(oracle_level(base | {j}), rel=1e-9)
    assert wit.level_ij == pytest.approx(oracle_level(base | {i, j}), rel=1e-9)


def random_draw(rng):
    n_base = int(rng.integers(1, 5))
    noises = list(rng.uniform(0.1, 10.0, n_base + 2))
    budget = float(rng.uniform(0.1, 5.0))
    profile = NoiseProfile(noises, budget)
    base = frozenset(range(n_base))
    return profile, base, n_base, n_base + 1


# --- the worked example ---------------------------------------------------
# base noises [1, 2], newcomers 0.5 and 0.6, budget 1. Solved by hand:
#   level(S)ij chain: 31/30, 1.25, 1.3, 2; active counts 3, 2, 2, 1;
#   both displacement sets are empty, sums on both sides equal 5.1.

def fixture_profile():
    return NoiseProfile([1.0, 2.0, 0.5, 0.6], 1.0)


def test_worked_example_main_case():
    wit = lemma_witness(fixture_profile(), {0, 1}, 2, 3)
    assert wit.case == MAIN_CASE
    assert not wit.swapped
    assert wit.level == pytest.approx(2.0, abs=1e-12)
    assert wit.level_i == pytest.approx(1.25, abs=1e-12)
    assert wit.level_j == pytest.approx(1.3, abs=1e-12)
    assert wit.level_ij == pytest.approx(31.0 / 30.0, abs=1e-12)
    assert wit.active == {0}
    assert wit.active_i == {0, 2}
    assert wit.active_j == {0, 3}
    assert wit.active_ij == {0, 2, 3}
    assert wit.active_ij - {2, 3} == {0} and wit.active_i - {2} == {0} and wit.active_j - {3} == {0}
    assert wit.active_i - wit.active_ij == frozenset() and wit.active - wit.active_j == frozenset()
    assert wit.vectors == build_majorization_vectors(wit)
    assert wit.decomposition_disjoint
    assert wit.ordering_holds
    assert wit.sum_identity_holds
    assert wit.count_identity_holds
    assert wit.product_inequality_holds
    assert wit.monotone_chain_holds
    assert wit.submodular_holds
    witness_levels_match_bisection(wit)
    # the sum identity by hand: 2*1.25 + 2*1.3 = 1*2 + 3*(31/30) = 5.1
    assert 2 * wit.level_i + 2 * wit.level_j == pytest.approx(5.1, abs=1e-12)
    assert wit.level + 3 * wit.level_ij == pytest.approx(5.1, abs=1e-12)


def test_worked_example_vectors():
    wit = lemma_witness(fixture_profile(), {0, 1}, 2, 3)
    a, b = build_majorization_vectors(wit)
    assert a == (2.0,) + (31.0 / 30.0,) * 3
    assert b == (1.3, 1.3, 1.25, 1.25)
    assert majorizes(a, b)
    assert karamata_holds(a, b, lambda x: -math.log(x))
    assert math.prod(b) >= math.prod(a) * (1 - 1e-9)
    # product inequality by hand: (1.25 * 1.3)^2 vs 2 * (31/30)^3
    assert math.prod(b) == pytest.approx(2.640625, abs=1e-12)
    assert math.prod(a) == pytest.approx(2.0 * (31.0 / 30.0) ** 3, abs=1e-12)


def test_swap_convention():
    # swapping the newcomer arguments must relabel them back
    wit = lemma_witness(fixture_profile(), {0, 1}, 3, 2)
    assert wit.case == MAIN_CASE
    assert wit.swapped
    assert wit.elem_i == 2 and wit.elem_j == 3
    assert wit.level_i == pytest.approx(1.25, abs=1e-12)
    assert wit.level_j == pytest.approx(1.3, abs=1e-12)


def test_easy_case_huge_noise():
    profile = NoiseProfile([1.0, 2.0, 1.0e6, 0.6], 1.0)
    wit = lemma_witness(profile, {0, 1}, 2, 3)
    assert wit.case == EASY_I_INACTIVE
    assert wit.elem_i == 2 and wit.elem_j == 3 and not wit.swapped
    assert wit.easy_rates_equal
    assert wit.rate_ij == wit.rate_j  # exact: same optimization
    assert wit.monotone_chain_holds and wit.submodular_holds
    assert wit.vectors is None and wit.ordering_holds is None
    # mirrored arguments hit the other easy branch
    wit2 = lemma_witness(profile, {0, 1}, 3, 2)
    assert wit2.case == EASY_J_INACTIVE
    assert wit2.rate_ij == wit2.rate_i


def test_preconditions():
    profile = NoiseProfile([1.0, 1.0, 1.0], 3.0)
    with pytest.raises(ValueError, match="distinct"):
        lemma_witness(profile, {0, 1}, 2, 2)
    with pytest.raises(ValueError, match="outside"):
        lemma_witness(profile, {0, 1}, 1, 2)
    with pytest.raises(ValueError, match="unknown channel"):
        lemma_witness(profile, {0, 1}, 2, 9)
    with pytest.raises(ValueError, match="zero budget"):
        lemma_witness(NoiseProfile([1.0, 1.0, 1.0], 0.0), {0}, 1, 2)
    with pytest.raises(ValueError, match="empty base set"):
        lemma_witness(profile, set(), 1, 2)


def test_vectors_need_main_case():
    profile = NoiseProfile([1.0, 2.0, 1.0e6, 0.6], 1.0)
    wit = lemma_witness(profile, {0, 1}, 2, 3)
    with pytest.raises(ValueError, match="main-case"):
        build_majorization_vectors(wit)


def test_random_draws_cover_all_relations():
    rng = np.random.default_rng(1234)
    main_seen = easy_seen = 0
    for trial in range(400):
        profile, base, i, j = random_draw(rng)
        wit = lemma_witness(profile, base, i, j)
        assert wit.monotone_chain_holds
        assert wit.submodular_holds
        if wit.case == MAIN_CASE:
            main_seen += 1
            assert wit.decomposition_disjoint
            assert wit.ordering_holds
            assert wit.sum_identity_holds
            assert wit.count_identity_holds
            assert wit.product_inequality_holds
            a, b = build_majorization_vectors(wit)
            assert len(a) == len(b)
            assert majorizes(a, b)
            # vectors are laid out descending
            assert all(x >= y - 1e-12 for x, y in zip(a, a[1:]))
            assert all(x >= y - 1e-12 for x, y in zip(b, b[1:]))
            # every b entry sits inside the a block boundary implied by the
            # ordering chain: a is [level block | displaced noises | joint
            # level block] and all of b lands between the two outer blocks
            split = len(wit.active_ij) + len(wit.active_i - wit.active_ij)  # from the low end
            low = a[len(a) - split]  # largest entry of the low blocks
            high = wit.level
            assert 1 <= split <= len(a) - 1
            assert all(low - 1e-9 * max(1.0, abs(low)) <= x
                       <= high + 1e-9 * max(1.0, abs(high)) for x in b)
            # karamata with -log agrees with the direct product comparison
            direct = math.prod(b) >= math.prod(a) * (1 - 1e-9)
            assert karamata_holds(a, b, lambda x: -math.log(x)) == direct
            assert direct
            if trial % 10 == 0:
                witness_levels_match_bisection(wit)
        else:
            easy_seen += 1
            assert wit.easy_rates_equal
    assert main_seen >= 50
    assert easy_seen >= 20


def test_witness_rates_agree_with_direct_solves():
    rng = np.random.default_rng(555)
    for _ in range(50):
        profile, base, i, j = random_draw(rng)
        wit = lemma_witness(profile, base, i, j)
        assert wit.rate == waterfill(profile.subset(base)).rate
        both = waterfill(profile.subset(base | {i, j})).rate
        assert wit.rate_ij == both


@st.composite
def witness_draws(draw):
    """A profile of 3-7 channels and a (base, i, j) draw on it, in a random
    order. Noises are float edges, ties (within one or two drawn values and
    1, 2, 3) and infinite ones, channels never funded, which
    ``labelled_profiles`` does not draw; budgets are positive, tiny included."""
    finite = st.one_of(st.sampled_from(EDGE_NOISES), st.floats(5e-324, 1.7e308))
    tied = draw(st.lists(finite, min_size=1, max_size=2))
    noise = st.one_of(finite, st.sampled_from(tied), st.sampled_from((1.0, 2.0, 3.0)), st.just(math.inf))
    noises = draw(st.lists(noise, min_size=3, max_size=7))
    budget = draw(st.sampled_from((1e-300, 0.011, 1.0, 2.5)))
    assume(budget + max((x for x in noises if x < math.inf), default=0.0) < math.inf)
    ids = draw(st.permutations([f"c{k}" for k in range(len(noises))]))
    p = NoiseProfile(noises, budget, ids)
    order = draw(st.permutations(p.ids))
    nb = draw(st.integers(1, len(order) - 2))
    return p, frozenset(order[:nb]), order[nb], order[nb + 1]


@settings(derandomize=True, database=None, max_examples=300)
@given(witness_draws())
# the base level comes from _scan's fallback: its one channel is funded with power 0
@example((NoiseProfile((2.373943989755086e+18, 5.211566613835284e-10, 6.044331397888978e-23),
                       0.014715382777607188), frozenset({0}), 2, 1))
@example((NoiseProfile([1.0, 1.0, math.inf, 1.0], 1.0, "dcba"), frozenset({"a"}), "b", "c"))
def test_witness_solves_are_waterfill_on_each_sub_profile(draw):
    assert_witness_solves_are_waterfill(*draw)


def assert_witness_solves_are_waterfill(p, base, i, j):
    if waterfill(p.subset(base)).water_level is None:  # only never-funded base channels
        with pytest.raises(ValueError, match="the base water level does not exist"):
            lemma_witness(p, base, i, j)
        return
    w = lemma_witness(p, base, i, j)
    i, j = (j, i) if w.swapped else (i, j)
    for suffix, channels in (("", base), ("_i", base | {i}), ("_j", base | {j}), ("_ij", base | {i, j})):
        sol = waterfill(p.subset(channels))
        assert (getattr(w, "level" + suffix).hex(), getattr(w, "rate" + suffix).hex(),
                getattr(w, "active" + suffix)) == (sol.water_level.hex(), sol.rate.hex(), sol.active_set)


@settings(derandomize=True, database=None, max_examples=300)
@given(witness_draws())
@example((fixture_profile(), frozenset({0, 1}), 2, 3))  # a main case
def test_witness_keeps_the_vectors_it_decided_on(draw):
    p, base, i, j = draw
    assume(waterfill(p.subset(base)).water_level is not None)
    w = lemma_witness(p, base, i, j)
    if w.case != MAIN_CASE:
        assert w.vectors is None
        return
    # (a, b) laid out by hand from the record: the displaced noises are those
    # funded in the i-problem but not the joint one, and in the base problem
    # but not the j-problem
    noise = p.noise_of
    a = ((w.level,) * len(w.active) + tuple(sorted((noise(c) for c in w.active_i - w.active_ij), reverse=True))
         + (w.level_ij,) * len(w.active_ij))
    b = (tuple(sorted((noise(c) for c in w.active - w.active_j), reverse=True))
         + (w.level_j,) * len(w.active_j) + (w.level_i,) * len(w.active_i))
    assert w.vectors == (a, b)
    assert build_majorization_vectors(w) is w.vectors


def test_witness_record_keeps_no_derived_sets():
    names = [f.name for f in dataclasses.fields(LemmaWitness)]
    assert len(names) == 27 and "vectors" in names
    assert not [n for n in names if n.startswith(("others_", "displaced"))]


@st.composite
def active_count_edges(draw):
    """A (profile, base, i, j) draw whose full solve sits on an edge of the
    active count: a budget below the resolution of the quietest noise, which
    is funded with power 0, or a noise that ties the level of the channels
    quieter than it. Integer noises keep every level exact."""
    quiet = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    if draw(st.booleans()):
        tie = max(quiet) + draw(st.integers(1, 4))
        budget = float(len(quiet) * tie - sum(quiet))  # the quiet channels fill exactly to the tie
        louder = st.one_of(st.integers(tie + 1, tie + 5), st.just(math.inf))
        noises = quiet + [tie] + draw(st.lists(louder, min_size=1, max_size=3))
    else:
        tie, budget = None, draw(st.sampled_from((1e-300, 1e-20)))
        noises = quiet + draw(st.lists(st.one_of(st.integers(1, 8), st.just(math.inf)), min_size=2, max_size=4))
    order = draw(st.permutations(range(len(noises))))
    p = NoiseProfile([noises[t] for t in order], budget, [f"c{t}" for t in order])
    sol = waterfill(p)
    if tie is None:
        assert sol.water_level == min(noises) and sol.active_set == frozenset()
    else:
        assert sol.water_level == tie and sol.active_set == {f"c{t}" for t in range(len(quiet))}
    channels = draw(st.permutations(p.ids))
    nb = draw(st.integers(1, len(channels) - 2))
    return p, frozenset(channels[:nb]), channels[nb], channels[nb + 1]


@settings(derandomize=True, database=None, max_examples=200)
@given(active_count_edges())
def test_witness_solves_are_waterfill_on_active_count_edges(draw):
    assert_witness_solves_are_waterfill(*draw)


def test_witness_reports_unknown_channels_like_subset():
    profile = NoiseProfile([1.0, 2.0, 3.0], 1.0, "abc")
    with pytest.raises(ValueError) as subset_error:
        profile.subset({"a", "z", 9})
    with pytest.raises(ValueError) as witness_error:
        lemma_witness(profile, {"a", 9}, "b", "z")
    assert str(witness_error.value) == str(subset_error.value) == "unknown channel ids: ['z', 9]"


def test_rate_oracle_wraps_profile():
    profile = NoiseProfile([1.0, 2.0, 4.0], 2.0)
    oracle = rate_oracle(profile)
    assert oracle.ground_set == {0, 1, 2}
    assert oracle.evaluate(frozenset()) == 0.0
    assert oracle.evaluate(frozenset({0, 1, 2})) == waterfill(profile).rate


# --- rate_oracle's table --------------------------------------------------

EDGE_NOISES = (5e-324, 1e-310, 1e-300, 1e-20, 0.5, 1.0, 1.0, 2.0, 1e20, 1e300, 1e308, 1.7e308)
CHECKERS = (check_submodular_pairwise, check_setpair_submodular, check_monotone)
# _scan puts this pair's level one ulp above the dry noise 1/0.68...
ONE_ULP_NOISES = [1 / 2.1497270091727056, 1 / 0.6825121678520782]


@st.composite
def labelled_profiles(draw, max_size=7):
    """Float-edge or tied noises, edge budgets, and string ids whose sorted
    order is not the channel order."""
    noise = st.one_of(st.sampled_from(EDGE_NOISES), st.sampled_from((1.0, 2.0, 3.0)),
                      st.floats(5e-324, 1.7e308))
    noises = draw(st.lists(noise, max_size=max_size))
    budget = draw(st.sampled_from((0.0, 1e-300, 1.0)))
    assume(not noises or budget + max(noises) < math.inf)
    ids = draw(st.permutations([f"c{k}" for k in range(len(noises))]))
    return NoiseProfile(noises, budget, ids)


def every_subset(elems):
    return [frozenset(e for t, e in enumerate(elems) if mask >> t & 1)
            for mask in range(1 << len(elems))]


@settings(derandomize=True, database=None, max_examples=300)
@given(labelled_profiles())
@example(NoiseProfile(ONE_ULP_NOISES, 1.0, ["b", "a"]))
@example(NoiseProfile([], 1.0))
@example(NoiseProfile([], 0.0))
def test_rate_table_is_evaluate_bit_for_bit(p):
    oracle = rate_oracle(p)
    elems = sorted(p.ids)
    table = oracle.table(elems)
    assert [v.hex() for v in table.tolist()] == \
        [float(oracle.evaluate(s)).hex() for s in every_subset(elems)]


@settings(derandomize=True, database=None, max_examples=300)
@given(labelled_profiles(max_size=6), st.lists(st.integers(0, 6), max_size=2))
@example(NoiseProfile(ONE_ULP_NOISES, 1.0, ["b", "a"]), [0, 2])
@example(NoiseProfile([], 1.0), [0, 0])
def test_infinite_noises_are_channels_that_add_no_rate(p, slots):
    # each slot is an infinite-noise channel whose id sorts next to c<slot>;
    # the profile with them solves, subset by subset, as the profile without
    noises, ids = list(p.noises), list(p.ids)
    for k, slot in enumerate(slots):
        noises.insert(slot, math.inf)
        ids.insert(slot, f"c{slot}~{k}")
    q = NoiseProfile(noises, p.budget, ids)
    sol, alone = waterfill(q), waterfill(p)
    assert (sol.water_level, sol.active_set, sol.rate.hex()) == \
        (alone.water_level, alone.active_set, alone.rate.hex())
    assert {c: x.hex() for c, x in sol.powers.items()} == \
        {c: alone.powers.get(c, 0.0).hex() for c in ids}
    elems = sorted(ids)
    subsets = every_subset(elems)
    expected = [rate_of_subset(p, s.intersection(p.ids)).hex() for s in subsets]
    assert [rate_of_subset(q, s).hex() for s in subsets] == expected
    oracle = rate_oracle(q)
    assert [v.hex() for v in oracle.table(elems).tolist()] == expected
    assert [float(oracle.evaluate(s)).hex() for s in subsets] == expected


def count_calls(monkeypatch, targets):
    """Count the calls to each (module, name) of ``targets``, by name."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_witness_ranks_its_channels_once_and_scans_each_subproblem_once(monkeypatch):
    # one ranked list serves the four subproblems: one _scan each, no sub-profile
    calls = count_calls(monkeypatch, ((NoiseProfile, "_known"), (NoiseProfile, "subset"),
                                      (sys.modules["wfalloc.waterfill"], "_scan")))
    assert lemma_witness(fixture_profile(), {0, 1}, 2, 3).case == MAIN_CASE
    assert calls == {"_known": 1, "subset": 0, "_scan": 4}


def test_checking_a_rate_oracle_takes_one_table_call(monkeypatch):
    # the package re-exports the function waterfill under its module's name
    calls = count_calls(monkeypatch, ((sys.modules["wfalloc.waterfill"], "_subset_rates"),
                                      (lemmas, "rate_of_subset")))
    oracle = rate_oracle(NoiseProfile([3.0, 0.5, 2.0, 0.5, 7.0], 1.5, "edcba"))
    for first, check in zip((True, False, False), CHECKERS):
        calls.update(_subset_rates=0, rate_of_subset=0)
        assert check(oracle) == []
        # the oracle builds its table once, for the first check; the others reuse it
        assert calls == {"_subset_rates": int(first), "rate_of_subset": 0}
        # the same function without its table is evaluated once per subset
        calls.update(_subset_rates=0, rate_of_subset=0)
        assert check(SetFunctionOracle(oracle.ground_set, oracle.evaluate)) == []
        assert calls == {"_subset_rates": 0, "rate_of_subset": 32}
    # the one table every check reads cannot be changed by any of them
    assert not oracle._values.flags.writeable


@settings(derandomize=True, database=None, max_examples=150)
@given(labelled_profiles(max_size=6), st.sampled_from((0.0, 1e-9)))
@example(NoiseProfile(ONE_ULP_NOISES, 1.0, ["b", "a"]), 0.0)
def test_checkers_agree_on_the_table_and_evaluate(p, tolerance):
    oracle = rate_oracle(p)
    untabled = SetFunctionOracle(frozenset(p.ids), oracle.evaluate)

    def rows(violations):  # repr tells -0.0 from 0.0
        return [(v.base_set, v.elem_i, v.elem_j, repr(v.lhs), repr(v.rhs), repr(v.gap))
                for v in violations]

    assert rows(check_submodular_pairwise(oracle, tolerance)) == \
        rows(check_submodular_pairwise(untabled, tolerance))
    for check in (check_setpair_submodular, check_monotone):
        assert check(oracle, tolerance) == check(untabled, tolerance)
