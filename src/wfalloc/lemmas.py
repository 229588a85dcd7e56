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

The last three are decided on the vector pair (a, b) that
``build_majorization_vectors`` lays out: equal lengths, equal sums, and
Karamata's inequality for the convex -log, which is the product comparison
that the majorization order of (a, b) settles.

If a newcomer is not funded in the joint solve (an easy case), the joint
solve coincides with the solve that omits it and the pairwise inequality
follows from monotonicity alone; the witness records that shortcut instead
of the main-case bookkeeping.
"""

import math
from dataclasses import dataclass

from .submodular import SetFunctionOracle, karamata_holds
from .waterfill import NoiseProfile, _fill, _subset_tables, rate_of_subset

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


def _leq(x, y):
    return x <= y + _REL_TOL * max(1.0, abs(x), abs(y))


def _close(x, y):
    return abs(x - y) <= _REL_TOL * max(1.0, abs(x), abs(y))


def rate_oracle(profile: NoiseProfile) -> SetFunctionOracle:
    """The profile's subset -> optimal rate map as a checkable set function.

    Its ``table``, every subset's rate in one ``_subset_tables`` call, gives
    bit for bit the rates of ``rate_of_subset``, and the oracle tables
    itself once for every check. A never-funded (infinite-noise) channel
    stays in the ground set and adds no rate to any subset.
    """
    noise_of, budget = profile.noise_of, profile.budget
    return SetFunctionOracle(frozenset(profile.ids), lambda s: rate_of_subset(profile, s),
                             lambda elems: _subset_tables([[noise_of(e) for e in elems]], budget)[0])


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

    The channels of base + i + j are ranked by noise once, by a stable sort
    that keeps tied noises in profile order as ``waterfill`` does. Each
    subproblem drops i, j, both or neither from that one list and makes one
    ``_scan`` call through ``waterfill``'s own helper, so its level, rate
    and active set are ``waterfill``'s on that subset bit for bit.

    Requires distinct i and j outside a nonempty base set, all channels in
    the profile, and a positive budget. The base set must hold a channel
    that can be funded (a finite noise): its water level is part of the
    record and the conservation identity needs at least one funded base
    channel, and a base of only never-funded channels has no level.
    """
    base = frozenset(base)
    if i == j:
        raise ValueError("i and j must be distinct channels")
    if i in base or j in base:
        raise ValueError("i and j must lie outside the base set")
    noise_by_id, budget = profile._noise_by_id, profile.budget
    ranked = sorted(profile._known(base | {i, j}), key=noise_by_id.__getitem__)  # raises on unknown ids
    lv_ij, _, act_ij, rate_ij = _fill(ranked, noise_by_id, budget)
    lv, _, act, rate = _fill([c for c in ranked if c != i and c != j], noise_by_id, budget)
    if lv is None:
        raise ValueError("empty base set, zero budget or never-funded base: "
                         "the base water level does not exist")
    sol_i = _fill([c for c in ranked if c != j], noise_by_id, budget)
    sol_j = _fill([c for c in ranked if c != i], noise_by_id, budget)
    (lv_i, _, act_i, rate_i), (lv_j, _, act_j, rate_j) = sol_i, sol_j

    monotone = (
        _leq(rate, rate_i)
        and _leq(rate_i, rate_ij)
        and _leq(rate, rate_j)
        and _leq(rate_j, rate_ij)
    )
    submod = _leq(rate + rate_ij, rate_i + rate_j)

    swapped = False
    if i not in act_ij:
        case, extra = EASY_I_INACTIVE, {"easy_rates_equal": rate_ij == rate_j}
    elif j not in act_ij:
        case, extra = EASY_J_INACTIVE, {"easy_rates_equal": rate_ij == rate_i}
    else:
        swapped = lv_i > lv_j
        if swapped:
            i, j = j, i
            (lv_i, _, act_i, rate_i), (lv_j, _, act_j, rate_j) = sol_j, sol_i
        noise = noise_by_id.__getitem__
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

        ordering = (
            _leq(lv_ij, lv_i) and _leq(lv_i, lv_j) and _leq(lv_j, lv)
            and all(_leq(lv_ij, noise(c)) and _leq(noise(c), lv_i) for c in displaced_i)
            and all(_leq(lv_j, noise(c)) and _leq(noise(c), lv) for c in displaced)
        )

        a, b = _vectors(noise, (lv, lv_i, lv_j, lv_ij), (act, act_i, act_j, act_ij),
                        displaced_i, displaced)
        count_ok = len(a) == len(b)  # a theorem; karamata_holds raises on unequal lengths
        case, extra = MAIN_CASE, dict(
            others_ij=others_ij, others_i=others_i, others_j=others_j,
            displaced_i=displaced_i, displaced=displaced,
            decomposition_disjoint=decomposition, ordering_holds=ordering,
            sum_identity_holds=_close(sum(a), sum(b)), count_identity_holds=count_ok,
            product_inequality_holds=count_ok and karamata_holds(a, b, lambda x: -math.log(x), _REL_TOL),
        )
    return LemmaWitness(
        profile=profile, base=base, elem_i=i, elem_j=j, swapped=swapped, case=case,
        level=lv, level_i=lv_i, level_j=lv_j, level_ij=lv_ij,
        rate=rate, rate_i=rate_i, rate_j=rate_j, rate_ij=rate_ij,
        active=act, active_i=act_i, active_j=act_j, active_ij=act_ij,
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
    w = witness
    return _vectors(w.profile.noise_of, (w.level, w.level_i, w.level_j, w.level_ij),
                    (w.active, w.active_i, w.active_j, w.active_ij), w.displaced_i, w.displaced)


def _vectors(noise, levels, actives, displaced_i, displaced):
    """``build_majorization_vectors``' layout, shared with ``lemma_witness``:
    ``levels`` and ``actives`` are the base, i, j and joint problems'."""
    level, level_i, level_j, level_ij = levels
    active, active_i, active_j, active_ij = actives
    a = ([level] * len(active)
         + sorted((noise(c) for c in displaced_i), reverse=True)
         + [level_ij] * len(active_ij))
    b = (sorted((noise(c) for c in displaced), reverse=True)
         + [level_j] * len(active_j)
         + [level_i] * len(active_i))
    return tuple(a), tuple(b)
