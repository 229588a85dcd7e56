import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wfalloc import lemmas
from wfalloc.lemmas import (
    EASY_I_INACTIVE,
    EASY_J_INACTIVE,
    MAIN_CASE,
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
from wfalloc.waterfill import NoiseProfile, waterfill

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
    assert wit.others_ij == {0} and wit.others_i == {0} and wit.others_j == {0}
    assert wit.displaced_i == frozenset() and wit.displaced == frozenset()
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
    assert wit.others_ij is None and wit.ordering_holds is None
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
            split = len(wit.active_ij) + len(wit.displaced_i)  # from the low end
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


def count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_checking_a_rate_oracle_takes_one_table_call(monkeypatch):
    calls = count_calls(monkeypatch, lemmas, ("_subset_rates", "rate_of_subset"))
    oracle = rate_oracle(NoiseProfile([3.0, 0.5, 2.0, 0.5, 7.0], 1.5, "edcba"))
    for check in CHECKERS:
        calls.update(_subset_rates=0, rate_of_subset=0)
        assert check(oracle) == []
        assert calls == {"_subset_rates": 1, "rate_of_subset": 0}
        # the same function without its table is evaluated once per subset
        calls.update(_subset_rates=0, rate_of_subset=0)
        assert check(SetFunctionOracle(oracle.ground_set, oracle.evaluate)) == []
        assert calls == {"_subset_rates": 0, "rate_of_subset": 32}


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
