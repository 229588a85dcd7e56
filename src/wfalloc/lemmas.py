"""Witness records for why the waterfilling rate has diminishing returns.

For a base channel set S and two outside channels i and j, four solves are
compared: S, S+i, S+j, and S+ij. When both newcomers are funded in the
joint solve (the main case), the pairwise inequality

    rate(S+i) + rate(S+j) >= rate(S) + rate(S+ij)

reduces to a product comparison between powers of the four water levels and
the noises of the channels that the second newcomer pushes below water. The
witness solves all four problems, applies the label convention that the
newcomer with the lower single-addition water level is called i, derives
the displacement bookkeeping, and records whether each identity holds
numerically:

  * the ordering chain  level_ij <= N_m <= level_i <= level_j <= N_l <= level
    for every m the i-problem loses and every l the base problem loses;
  * the conservation identity equating the two sides' weighted level sums;
  * the matching term counts on both sides;
  * the product inequality itself.

``build_majorization_vectors`` lays the same numbers out as an equal-sum
pair of descending vectors whose majorization order settles the product
comparison through convexity of -log.

If a newcomer is not funded in the joint solve (an easy case), the joint
solve coincides with the solve that omits it and the pairwise inequality
follows from monotonicity alone; the witness records that shortcut instead
of the main-case bookkeeping.
"""

import math
from dataclasses import dataclass

import numpy as np

from .submodular import SetFunctionOracle
from .waterfill import NoiseProfile, _subset_rates, rate_of_subset, waterfill

__all__ = [
    "MAIN_CASE",
    "EASY_I_INACTIVE",
    "EASY_J_INACTIVE",
    "LemmaWitness",
    "lemma_witness",
    "build_majorization_vectors",
    "rate_oracle",
]

MAIN_CASE = "main"
EASY_I_INACTIVE = "easy_i_inactive"
EASY_J_INACTIVE = "easy_j_inactive"

_REL_TOL = 1e-9


def _leq(x, y, tol=_REL_TOL):
    return x <= y + tol * max(1.0, abs(x), abs(y))


def _close(x, y, tol=_REL_TOL):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def rate_oracle(profile: NoiseProfile) -> SetFunctionOracle:
    """The profile's subset -> optimal rate map as a checkable set function.

    Its ``table`` solves every subset in one ``_subset_rates`` pass over the
    noises in ascending order, then maps each element bitmask to the
    bitmask of its noises in that order. Tied noises are equal floats, so
    any order among them gives the same rates, bit for bit those of
    ``rate_of_subset``.
    """

    def table(elems):
        if profile.budget == 0.0:
            return np.zeros(1 << len(elems))
        noises = np.array([profile.noise_of(e) for e in elems])
        order = np.argsort(noises, kind="stable")
        rates = np.array(_subset_rates(noises[order].tolist(), profile.budget))
        index = np.zeros(1, np.intp)
        for bit in (1 << order.argsort()).tolist():
            index = np.concatenate([index, index | bit])
        return rates[index]

    return SetFunctionOracle(frozenset(profile.ids), lambda s: rate_of_subset(profile, s), table)


@dataclass(frozen=True)
class LemmaWitness:
    """Comparison record for one (base set, i, j) draw.

    ``elem_i`` and ``elem_j`` are the labels after the main-case swap
    convention (level_i <= level_j); ``swapped`` says whether they traded
    places relative to the call. Easy cases keep the caller's labels and
    leave the main-case fields None. Unsuffixed level/rate/active refer to
    the base set alone; ``_ij`` means both newcomers added.

    Main-case set bookkeeping: ``others_*`` are the active channels besides
    the newcomer(s) themselves, ``displaced_i`` holds channels funded in the
    i-problem but not once j joins, and ``displaced`` holds channels funded
    in the base problem but not once j joins.
    """

    profile: NoiseProfile
    base: frozenset
    elem_i: object
    elem_j: object
    swapped: bool
    case: str
    level: float
    level_i: float
    level_j: float
    level_ij: float
    rate: float
    rate_i: float
    rate_j: float
    rate_ij: float
    active: frozenset
    active_i: frozenset
    active_j: frozenset
    active_ij: frozenset
    monotone_chain_holds: bool
    submodular_holds: bool
    others_ij: frozenset | None = None
    others_i: frozenset | None = None
    others_j: frozenset | None = None
    displaced_i: frozenset | None = None
    displaced: frozenset | None = None
    decomposition_disjoint: bool | None = None
    ordering_holds: bool | None = None
    sum_identity_holds: bool | None = None
    count_identity_holds: bool | None = None
    product_inequality_holds: bool | None = None
    easy_rates_equal: bool | None = None


def lemma_witness(profile, base, i, j):
    """Solve the four subproblems for (base, i, j) and record every relation.

    Requires distinct i and j outside a nonempty base set, all channels in
    the profile, and a positive budget. The base set must be nonempty
    because its water level is part of the record and the conservation
    identity needs at least one funded base channel.
    """
    base = frozenset(base)
    if i == j:
        raise ValueError("i and j must be distinct channels")
    if i in base or j in base:
        raise ValueError("i and j must lie outside the base set")
    sol_ij = waterfill(profile.subset(base | {i, j}))  # raises on unknown channel ids
    sol = waterfill(profile.subset(base))
    if sol.water_level is None:
        raise ValueError("empty base set or zero budget: the base water level does not exist")
    sol_i = waterfill(profile.subset(base | {i}))
    sol_j = waterfill(profile.subset(base | {j}))

    monotone = (
        _leq(sol.rate, sol_i.rate)
        and _leq(sol_i.rate, sol_ij.rate)
        and _leq(sol.rate, sol_j.rate)
        and _leq(sol_j.rate, sol_ij.rate)
    )
    submod = _leq(sol.rate + sol_ij.rate, sol_i.rate + sol_j.rate)

    swapped = False
    if i not in sol_ij.active_set:
        case, extra = EASY_I_INACTIVE, {"easy_rates_equal": sol_ij.rate == sol_j.rate}
    elif j not in sol_ij.active_set:
        case, extra = EASY_J_INACTIVE, {"easy_rates_equal": sol_ij.rate == sol_i.rate}
    else:
        swapped = sol_i.water_level > sol_j.water_level
        if swapped:
            i, j = j, i
            sol_i, sol_j = sol_j, sol_i
        noise = profile.noise_of
        act, act_i, act_j, act_ij = (sol.active_set, sol_i.active_set,
                                     sol_j.active_set, sol_ij.active_set)
        others_ij = act_ij - {i, j}
        others_i = act_i - {i}
        others_j = act_j - {j}
        displaced_i = others_i - others_ij
        displaced = act - others_j

        decomposition = (
            i in act_i and j in act_j
            and others_ij <= others_i
            and others_j <= act
        )

        lv, lv_i, lv_j, lv_ij = (sol.water_level, sol_i.water_level,
                                 sol_j.water_level, sol_ij.water_level)
        ordering = (
            _leq(lv_ij, lv_i) and _leq(lv_i, lv_j) and _leq(lv_j, lv)
            and all(_leq(lv_ij, noise(c)) and _leq(noise(c), lv_i) for c in displaced_i)
            and all(_leq(lv_j, noise(c)) and _leq(noise(c), lv) for c in displaced)
        )

        lost_noises = sorted(noise(c) for c in displaced)
        lost_noises_i = sorted(noise(c) for c in displaced_i)
        lhs_sum = len(act_i) * lv_i + len(act_j) * lv_j + sum(lost_noises)
        rhs_sum = len(act) * lv + len(act_ij) * lv_ij + sum(lost_noises_i)
        sum_ok = _close(lhs_sum, rhs_sum)
        count_ok = (len(act_i) + len(act_j) + len(displaced)
                    == len(act) + len(act_ij) + len(displaced_i))

        # Compare the products in log space; an absolute log tolerance is a
        # relative tolerance on the products themselves.
        lhs_log = (len(act_i) * math.log(lv_i) + len(act_j) * math.log(lv_j)
                   + sum(math.log(x) for x in lost_noises))
        rhs_log = (len(act) * math.log(lv) + len(act_ij) * math.log(lv_ij)
                   + sum(math.log(x) for x in lost_noises_i))
        product_ok = lhs_log >= rhs_log - _REL_TOL

        case, extra = MAIN_CASE, dict(
            others_ij=others_ij, others_i=others_i, others_j=others_j,
            displaced_i=displaced_i, displaced=displaced,
            decomposition_disjoint=decomposition, ordering_holds=ordering,
            sum_identity_holds=sum_ok, count_identity_holds=count_ok,
            product_inequality_holds=product_ok,
        )
    return LemmaWitness(
        profile=profile, base=base, elem_i=i, elem_j=j, swapped=swapped, case=case,
        level=sol.water_level, level_i=sol_i.water_level,
        level_j=sol_j.water_level, level_ij=sol_ij.water_level,
        rate=sol.rate, rate_i=sol_i.rate, rate_j=sol_j.rate, rate_ij=sol_ij.rate,
        active=sol.active_set, active_i=sol_i.active_set,
        active_j=sol_j.active_set, active_ij=sol_ij.active_set,
        monotone_chain_holds=monotone, submodular_holds=submod, **extra,
    )


def build_majorization_vectors(witness):
    """Equal-length, equal-sum descending vectors (a, b) from a main-case
    witness, with prod(b) >= prod(a) equivalent to the pairwise inequality.

    ``a`` stacks the base level, the noises displaced from the i-problem,
    and the joint level; ``b`` stacks the noises displaced from the base
    problem and the two single-newcomer levels, each level repeated as many
    times as its problem funds channels. Raises ValueError for an easy-case
    witness.
    """
    if witness.case != MAIN_CASE:
        raise ValueError("majorization vectors exist only for a main-case witness")
    noise = witness.profile.noise_of
    a = ([witness.level] * len(witness.active)
         + sorted((noise(c) for c in witness.displaced_i), reverse=True)
         + [witness.level_ij] * len(witness.active_ij))
    b = (sorted((noise(c) for c in witness.displaced), reverse=True)
         + [witness.level_j] * len(witness.active_j)
         + [witness.level_i] * len(witness.active_i))
    return tuple(a), tuple(b)
