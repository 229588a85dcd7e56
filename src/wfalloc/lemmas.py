"""Witness records for why the waterfilling rate has diminishing returns.

For a base channel set S and two outside channels i and j, four solves are
compared: S, S+i, S+j, and S+ij. When both newcomers are funded in the
joint solve (the main case), the pairwise inequality

    rate(S+i) + rate(S+j) >= rate(S) + rate(S+ij)

reduces to a product comparison between powers of the four water levels and
the noises of the channels that the second newcomer pushes below water. The
witness solves all four problems, applies the label convention that the
newcomer with the lower single-addition water level is called i, lays out
the vector pair (a, b) of ``build_majorization_vectors``, and records
whether each identity holds numerically:

  * the ordering chain  level_ij <= N_m <= level_i <= level_j <= N_l <= level
    for every m the i-problem loses and every l the base problem loses;
  * the conservation identity equating the two sides' weighted level sums;
  * the matching term counts on both sides;
  * the product inequality itself.

The last three are decided on (a, b), which the witness keeps as
``vectors``: equal lengths, equal sums, and Karamata's inequality for the
convex -log, which is the product comparison that the majorization order of
(a, b) settles.

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

    ``vectors`` is the main case's pair (a, b) of
    ``build_majorization_vectors``, on which the count, sum and product
    flags are decided. Its displaced sets are set differences of the active
    sets: ``active_i - active_ij`` holds the channels funded in the
    i-problem but not once j joins (i and j are both in ``active_ij``), and
    ``active - active_j`` those funded in the base problem but not once j
    joins (j is not in ``active``). The channels funded besides the
    newcomers are the active sets less i, j or both.
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
    vectors: tuple | None = None
    decomposition_disjoint: bool | None = None
    ordering_holds: bool | None = None
    sum_identity_holds: bool | None = None
    count_identity_holds: bool | None = None
    product_inequality_holds: bool | None = None
    easy_rates_equal: bool | None = None


def lemma_witness(profile, base, i, j):
    """Solve the four subproblems for (base, i, j) and record every relation.

    The channels of base + i + j are ranked by noise once, by a stable sort
    that keeps tied noises in profile order as ``waterfill`` does, and
    their noises are read once. Each subproblem drops the ranked positions
    of i, j, both or neither from those two lists and makes one ``_scan``
    call through ``waterfill``'s own helper, so its level, rate and active
    set are ``waterfill``'s on that subset bit for bit. A main case keeps
    the (a, b) pair it decides the count, sum and product flags on.

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
    noises = [noise_by_id[c] for c in ranked]
    at_i, at_j = ranked.index(i), ranked.index(j)

    def fill_without(*at):  # the subproblem without the ranked positions ``at``, latest first
        ids, xs = ranked, noises
        for p in at:
            ids, xs = ids[:p] + ids[p + 1:], xs[:p] + xs[p + 1:]
        return _fill(ids, xs, budget)

    lv_ij, _, act_ij, rate_ij = _fill(ranked, noises, budget)
    lv, _, act, rate = fill_without(max(at_i, at_j), min(at_i, at_j))
    if lv is None:
        raise ValueError("empty base set, zero budget or never-funded base: "
                         "the base water level does not exist")
    sol_i, sol_j = fill_without(at_j), fill_without(at_i)
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
        displaced_i, displaced = act_i - act_ij, act - act_j
        decomposition = (
            i in act_i and j in act_j
            and act_ij - {i, j} <= act_i
            and act_j - {j} <= act
        )
        ordering = (
            _leq(lv_ij, lv_i) and _leq(lv_i, lv_j) and _leq(lv_j, lv)
            and all(_leq(lv_ij, noise(c)) and _leq(noise(c), lv_i) for c in displaced_i)
            and all(_leq(lv_j, noise(c)) and _leq(noise(c), lv) for c in displaced)
        )
        a = ((lv,) * len(act) + tuple(sorted(map(noise, displaced_i), reverse=True))
             + (lv_ij,) * len(act_ij))
        b = (tuple(sorted(map(noise, displaced), reverse=True))
             + (lv_j,) * len(act_j) + (lv_i,) * len(act_i))
        count_ok = len(a) == len(b)  # a theorem; karamata_holds raises on unequal lengths
        case, extra = MAIN_CASE, dict(
            vectors=(a, b), decomposition_disjoint=decomposition, ordering_holds=ordering,
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

    ``a`` stacks the base level, the noises displaced from the i-problem
    (``active_i - active_ij``), and the joint level; ``b`` stacks the noises
    displaced from the base problem (``active - active_j``) and the j- and
    i-levels, each level repeated as many times as its problem funds
    channels and each noise block sorted descending. The witness laid the
    pair out when it decided its flags, and this returns its ``vectors``.
    Raises ValueError for an easy-case witness.
    """
    if witness.case != MAIN_CASE:
        raise ValueError("majorization vectors exist only for a main-case witness")
    return witness.vectors
