"""Online greedy basestation allocation, baselines, and competitive ratios.

Users arrive one at a time, reveal their SNR toward each basestation, and
must be assigned immediately and irrevocably. Each basestation then splits
unit transmit power across its users by waterfilling, so per-station value
is the log utility of the assigned SNRs and system utility is the sum over
stations. Offline references come either from the exact optimum (a DP over
user subsets, desk scale only) or from an analytic upper bound.
"""

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .submodular import _pair_index
from .waterfill import _BLOCK, _check_snrs, _scan, _snr_noise_array, _subset_tables

__all__ = [
    "BRUTE_FORCE_CAP",
    "GREEDY_MODES",
    "STRATEGIES",
    "REFERENCE_KINDS",
    "InstanceTooLargeError",
    "WeightMatrix",
    "Allocation",
    "RatioReport",
    "online_greedy",
    "max_weight",
    "system_utility",
    "check_bruteforce_size",
    "offline_bruteforce",
    "offline_upper_bound",
    "run_strategy",
    "ratio_value",
    "reference_value",
    "competitive_ratio",
]

BRUTE_FORCE_CAP = 10**6
GREEDY_MODES = ("marginal_gain", "absolute_value")
STRATEGIES = ("greedy", "greedy-absolute", "max-weight")
REFERENCE_KINDS = ("brute_force_optimum", "analytic_upper_bound")


def _check_names(strategies, reference_kind):
    """Raise ValueError on the first unknown strategy, then on an unknown
    reference kind, before any strategy or reference runs."""
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
    if reference_kind not in REFERENCE_KINDS:
        raise ValueError(f"unknown reference kind {reference_kind!r}; expected one of {REFERENCE_KINDS}")


class InstanceTooLargeError(ValueError):
    """Assignment enumeration would exceed the brute-force cap."""


class WeightMatrix:
    """An n x m matrix of nonnegative finite SNRs, one row per arriving user.

    Row order is arrival order. The SNRs pass ``waterfill._check_snrs``
    once, here; the underlying array is made read-only.
    """

    def __init__(self, weights):
        arr = np.array(weights, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError("weights must be two-dimensional: one row per user, one column per basestation")
        if arr.shape[1] < 1:
            raise ValueError("need at least one basestation column")
        _check_snrs(arr)
        arr.setflags(write=False)
        self.weights = arr

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def m(self):
        return self.weights.shape[1]

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return f"WeightMatrix(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Allocation:
    """A partition of the arrived users into per-basestation sets.

    Online greedy also carries its own sum of the station utilities, which
    ``_utility_of`` reports in place of a ``system_utility`` recomputation.
    It takes no part in equality, hashing or ``repr``.
    """

    parts: tuple
    _utility: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        parts = tuple(frozenset(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        total = sum(len(p) for p in parts)
        union = frozenset().union(*parts) if parts else frozenset()
        if total != len(union):
            raise ValueError("allocation parts must be pairwise disjoint")

    @property
    def m(self):
        return len(self.parts)

    @property
    def user_ids(self):
        return frozenset().union(*self.parts) if self.parts else frozenset()


@dataclass(frozen=True)
class RatioReport:
    """Utility of one online run against an offline reference."""

    online_utility: float
    offline_reference: float
    reference_kind: str
    ratio: float


def online_greedy(W, mode="marginal_gain"):
    """Assign each row of ``W``, in arrival order, to the basestation
    scoring best for it, at once and irrevocably.

    In ``marginal_gain`` mode a station's score for user i is
    L(M_j + i) - L(M_j); in ``absolute_value`` mode it is L(M_j + i)
    itself. Ties go to the lowest station index. User i's assignment reads
    only rows 0..i.

    A receiver with SNR w is a channel with noise N = 1/w, infinite for
    w = 0 or a 1/w that overflows. Each station holds its users' finite
    noises in ascending order, its utility, its water level and a cutoff
    just above it, so a score never re-validates, re-inverts or re-sorts
    them. Adding a channel only lowers the level and pushes the noisiest
    funded channels below water: the ordering chain ``lemmas`` checks.

    * A user with N at or above the level gets no power, so its gain is
      exactly 0 and L(M_j + i) = L(M_j): it is scored without a solve. The
      solver's rounded sums could still fund a noise within a few ulps of
      the level, so this shortcut starts at the cutoff, level * (1 + (n+2)^2
      2^-50) for n noises held. Past it, every position of the scan at or
      after N fails by more than the rounding of its level, and the
      positions before N are unchanged, so the solve would return the same
      level, count and rate bit for bit. An infinite N (a zero SNR, or a 1/w
      that overflows) is never funded, as ``_scan`` never funds it.
    * Any other user first gets an upper bound on its gain. The rate is
      submodular (the paper's result), so the gain at a station is at most
      the gain at an empty one, log(1 + w). Weak duality caps it too: with
      power priced at 1/level, the dual of M_j + i exceeds L(M_j) by
      h(level * w) alone, where h(r) = log r - 1 + 1/r for r > 1 and 0
      otherwise. An empty station has no level and takes log(1 + w).
      A station whose bound plus margin (plus L(M_j) in ``absolute_value``
      mode) is below the best score found is skipped; any other is solved
      once by ``_scan``. One equal to it is still solved, so the lower index
      wins the tie.
    * The margin is (n+2)^2 2^-50 (1 + L(M_j) + bound), the cutoff's factor
      times the rates in play, which covers the rounding between the
      computed score and the computed bound. Tests hold each step against
      exact levels and 80-digit rates:

      - Both bounds hold for the exact gain, with no slack, at the SNR
        1/N of the channel added, N = 1/w rounded. That SNR is within
        2^-51 of w in log, which moves either bound by no more
        (``test_gain_bound_facts_hold_for_the_precise_gain``).
      - The stored level, one ulp above a dry noise included, is within
        (n+1) 2^-53 relative of the exact level
        (``test_scan_level_is_within_n_plus_one_rounding_errors_of_the_exact_level``).
        That moves h(level * w) by no more, since r h'(r) = 1 - 1/r < 1,
        and the dual value only by its square.
      - A rate ``_scan`` returns for k <= n + 1 channels is within
        (k+1)^2 2^-53 (1 + rate) of the exact rate of its noises
        (``test_scan_rate_is_within_k_plus_one_squared_rounding_errors_of_the_precise_rate``):
        its level carries the rounding of k additions and a division, each
        log that of a division and its own, and a channel the rounded
        level funds or leaves dry wrongly sits within that rounding of the
        level, so moves the sum by no more.

      log1p, h and the final subtraction or addition round by a few ulps
      of the bound. The sum is about a quarter of the margin, and
      ``test_gain_bound_covers_every_computed_score`` holds it under half,
      so a station whose bound plus margin is below the best score has a
      computed score below it too, and could not have won or tied.
    * In ``marginal_gain`` mode every station is scored or bounded, in
      index order, and the bounded ones are then solved in descending order
      of bound until the next is below the best score. In
      ``absolute_value`` mode the stations are kept in descending order of
      L(M_j), ties by index, and visited best first: the station that
      joined moves by adjacent swaps. Station j's coarse bound is
      L(M_j) + cap + smax (1 + umax + cap), with cap = log1p of the row's
      largest SNR raised by 4 ulps, smax the largest slack and umax the
      largest utility. Float + and * are monotone, so it is at least the
      computed L(M_k) + bound + margin, and so the score, of every station
      k visited after j or tied with it; the raise keeps that where log1p
      is one ulp off monotone. Visiting stops at the first coarse bound
      below the best score, and each visited station is bounded and, unless
      skipped, solved at once. When the richest station wins, its solve
      usually ends the visits. Visits are not in index order, so a station scored without a
      solve also wins a tie only by a lower index.
    * A channel pushed below water stays dry in exact arithmetic, but it
      is kept: a rounded level can sit above a dry noise, and a later user
      can fund it again, where a station that had dropped it would score
      differently from ``log_utility``.

    The returned allocation carries the station utilities greedy ends with,
    added left to right with one ``+=`` each as ``system_utility`` adds
    them. A user scored past a station's cutoff joins without a solve and
    never enters that station's noise list, but by the cutoff argument
    above the solve would have returned the same rate bit for bit, so each
    station's utility, and the sum, equal ``system_utility``'s.
    """
    if mode not in GREEDY_MODES:
        raise ValueError(f"unknown greedy mode {mode!r}; expected one of {GREEDY_MODES}")
    parts, utils = [[] for _ in range(W.m)], [0.0] * W.m
    for user, (j, utils) in enumerate(_greedy_arrivals(W, mode == "marginal_gain")):
        parts[j].append(user)
    utility = 0.0
    for value in utils:
        utility += value  # system_utility's rule: one += per station, left to right
    return Allocation(tuple(parts), utility)


def _greedy_arrivals(W, marginal):
    """Yield, per arrival, the station it joins and every station's
    utility after it joins (one list, updated in place)."""
    m = W.m
    noises = [[] for _ in range(m)]
    levels = [math.inf] * m  # an empty station's bound is log1p(w): h(inf) = inf
    slacks = [4 * 2.0 ** -50] * m  # (n+2)^2 2^-50 for n noises held
    cutoffs = [math.inf] * m
    utils = [0.0] * m
    order, slack_max = list(range(m)), slacks[0]  # absolute_value mode's visit order
    for row in W.weights.tolist():
        best_j, best_score, best_state = 0, -math.inf, None  # state: (noises, level, utility)
        if marginal:
            pending = []
            for j, w in enumerate(row):
                # waterfill._snr_noise_array's rule, inline for W's validated SNRs: calling
                # a list rule per station made 400x16 greedy 49% slower (2-vCPU Xeon, in-process)
                noise = 1.0 / w if w else math.inf
                if noise >= cutoffs[j]:
                    if 0.0 > best_score:
                        best_j, best_score = j, 0.0
                    continue
                pending.append((_gain_bound(w, levels[j], slacks[j], utils[j]), j, noise))
            pending.sort(reverse=True)
            for bound, j, noise in pending:
                if bound < best_score:
                    break
                cand = noises[j].copy()
                insort(cand, noise)
                level, _, value = _scan(cand, 1.0)
                score = value - utils[j]
                if score > best_score or (score == best_score and j < best_j):
                    best_j, best_score, best_state = j, score, (cand, level, value)
        else:
            margin = _coarse_margin(max(row), slack_max, utils[order[0]])
            for j in order:
                if utils[j] + margin < best_score:
                    break  # so is every later station's bound
                w = row[j]
                noise = 1.0 / w if w else math.inf
                if noise >= cutoffs[j]:
                    score, state = utils[j], None
                elif utils[j] + _gain_bound(w, levels[j], slacks[j], utils[j]) < best_score:
                    continue
                else:
                    cand = noises[j].copy()
                    insort(cand, noise)
                    level, _, score = _scan(cand, 1.0)
                    state = (cand, level, score)
                if score > best_score or (score == best_score and j < best_j):
                    best_j, best_score, best_state = j, score, state
        if best_state is not None:
            noises[best_j], levels[best_j], utils[best_j] = best_state
            slacks[best_j] = (len(noises[best_j]) + 2) ** 2 * 2.0 ** -50
            cutoffs[best_j] = levels[best_j] * (1.0 + slacks[best_j])
        if not marginal:
            slack_max = max(slack_max, slacks[best_j])
            # keep order sorted by (-utility, index): only best_j moved (a
            # rounded utility can also fall), so adjacent swaps restore it
            key, i = (-utils[best_j], best_j), order.index(best_j)
            while i and (-utils[order[i - 1]], order[i - 1]) > key:
                order[i - 1], order[i] = best_j, order[i - 1]
                i -= 1
            while i + 1 < m and (-utils[order[i + 1]], order[i + 1]) < key:
                order[i + 1], order[i] = best_j, order[i + 1]
                i += 1
        yield best_j, utils


def _coarse_margin(w_max, slack_max, util_max):
    """At least every ``_gain_bound(w, level, slack, util)`` with
    w <= w_max, slack <= slack_max and util <= util_max: see
    ``online_greedy``."""
    cap = math.log1p(w_max)
    cap += 4 * math.ulp(cap)  # log1p(w) <= cap even where log1p is off monotone by an ulp
    return cap + slack_max * (1.0 + util_max + cap)


def _gain_bound(w, level, slack, util):
    """Upper bound on the computed gain of a user with SNR w at a station
    with water level ``level`` and utility ``util``, with the margin
    ``slack * (1 + util + bound)`` included: see ``online_greedy``."""
    gain = math.log1p(w)
    r = level * w
    if r <= 1.0:
        gain = 0.0
    elif r < math.inf:
        h = math.log(r) - 1.0 + 1.0 / r
        if h < gain:
            gain = h
    return gain + slack * (1.0 + util + gain)


def max_weight(W):
    """Baseline: each user goes to its highest-SNR basestation (ties low)."""
    parts = [[] for _ in range(W.m)]
    for u, j in enumerate(np.argmax(W.weights, axis=1).tolist()):
        parts[j].append(u)
    return Allocation(tuple(parts))


def system_utility(alloc, W):
    """Sum over basestations of the log utility of their assigned users.

    The allocation must partition exactly the users of ``W``. ``W``'s
    SNRs were checked once, when it was built, so the n assigned ones map
    to noises through ``waterfill._snr_noise_array``, the one owner of the
    SNR rule (greedy keeps a pinned scalar copy), with no check again, and
    each station's are solved by ``_scan`` as ``log_utility`` solves them.
    """
    if alloc.m != W.m:
        raise ValueError(f"allocation has {alloc.m} parts but the matrix has {W.m} basestations")
    if alloc.user_ids != frozenset(range(W.n)):
        raise ValueError("allocation does not partition the arrived users")
    m = W.m
    # gather only the n assigned SNRs, part after part
    snrs = W.weights.take([u * m + j for j, part in enumerate(alloc.parts) for u in part])
    noises, total, start = _snr_noise_array(snrs).tolist(), 0.0, 0
    # a station with no user is skipped: its _scan is 0.0, and total + 0.0 is exact
    for part in filter(None, alloc.parts):
        end = start + len(part)
        # left to right, one += each, as _scan adds: sum is compensated from Python 3.12
        total += _scan(sorted(noises[start:end]), 1.0)[2]
        start = end
    return total


def _utility_of(alloc, W):
    """The utility a strategy carried in ``alloc`` (online greedy's own
    sum), else the ``system_utility`` recomputation."""
    if alloc._utility is None:
        return system_utility(alloc, W)
    return alloc._utility


def check_bruteforce_size(n, m):
    """Raise InstanceTooLargeError when m^n assignments exceed the cap."""
    # m >= 2 with n above the cap's bit length gives m^n >= 2^n > cap: no power is built
    if (m >= 2 and n > BRUTE_FORCE_CAP.bit_length()) or m ** n > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"instance too large for brute force: {m}^{n} assignments exceed {BRUTE_FORCE_CAP}"
        )


@cache
def _fold_blocks(n):
    """``_pair_index(n)`` in blocks of whole mask groups, at most ``_BLOCK``
    pairs each: (mask span, rests, shares, group starts), read-only."""
    rest_of, share_of, starts, sizes = _pair_index(n)
    ends, blocks, a = starts + sizes, [], 0
    while a < len(starts):
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _BLOCK, "right")))
        pairs, at = slice(starts[a], ends[b - 1]), starts[a:b] - starts[a]
        at.setflags(write=False)
        blocks.append((slice(a, b), rest_of[pairs], share_of[pairs], at))
        a = b
    return blocks


def offline_bruteforce(W):
    """Exact offline optimum by dynamic programming over user subsets.

    With f_j station j's log utility of every user subset, the best value
    of giving users S to stations 0..j is best_j[S] = max over T within S
    of best_{j-1}[S - T] + f_j(T): O(m 3^n) steps. The tables f_j are
    ``_subset_tables`` of the noises ``waterfill._snr_noise_array`` gives
    W's columns, with no SNR checked again (W checked each once), and
    their entries add their logs left to right as ``_scan`` does. Each
    step is a numpy max-plus reduction over the (S - T, T) pairs of
    ``_pair_index``, gathered with ``take``, every station per block of
    ``_fold_blocks``: S - T <= S, so a block reads only earlier blocks and
    what the station before just wrote; no temporary grows with 3^n
    (malloc maps one that does anew, page faults and all, every call).
    Each candidate is the one float addition best_{j-1}[S - T] + f_j(T),
    so every value equals a scalar loop's bit for bit. The decode walks
    back from the last station, summing the group of the users left for
    all stations below at once. On ties the last station takes the
    largest user bitmask, then each earlier station likewise among the
    users left: its group lists T descending, so its first maximum. Raises InstanceTooLargeError when m^n exceeds the cap.

    Returns (allocation, value). For m >= 2 the value is the maximum the DP
    just found: every best_j[S] is the chain f_0(T_0) + ... + f_j(T_j) of
    ``_scan`` rates, added left to right, and the decode reads back T_j's
    that reach it. ``system_utility`` adds the same rates from 0.0, and
    0.0 + f_0 = f_0 (no rate is -0.0), so the two agree bit for bit. One
    station has no DP, and its value is ``system_utility``'s.
    """
    n, m = W.n, W.m
    check_bruteforce_size(n, m)
    if m == 1:
        alloc = Allocation((range(n),))
        return alloc, system_utility(alloc, W)
    tables = _subset_tables(_snr_noise_array(W.weights.T), 1.0)
    bests = np.empty((m - 1, 1 << n))
    bests[0] = tables[0]
    if m > 2:
        rest_of, share_of, starts, sizes = _pair_index(n)
        for span, rests, shares, at in _fold_blocks(n):
            # row j of sums becomes station j + 1's sums of the block
            for sums, prev, out in zip(tables[1:-1].take(shares, axis=1), bests, bests[1:, span]):
                sums += prev.take(rests)
                np.maximum.reduceat(sums, at, out=out)
    # entry i leaves users i to the earlier stations and all ^ i to the last;
    # the first maximum is the smallest i, so the last station's largest T
    totals = bests[-1] + tables[-1][::-1]
    rest = int(totals.argmax())
    masks, j = [0] * (m - 1) + [rest ^ ((1 << n) - 1)], m - 2  # stations 1..j left
    while rest and j:
        # rest's group for stations 1..j at once: each takes its first maximum,
        # the largest T reaching it; the highest station taking users is decoded
        group = slice(starts[rest], starts[rest] + sizes[rest])
        share = share_of[group]
        sums = tables[1:j + 1].take(share, axis=1) + bests[:j].take(rest_of[group], axis=1)
        picks = share[sums.argmax(axis=1)]
        j = max(np.flatnonzero(picks).tolist(), default=0)
        masks[j + 1] = int(picks[j])
        rest ^= masks[j + 1]
    masks[0] = rest
    alloc = Allocation(tuple(frozenset(u for u in range(n) if mask >> u & 1) for mask in masks))
    return alloc, float(totals.max())  # the DP's optimum, reached by this allocation


def offline_upper_bound(W):
    """Analytic bound on the offline optimum: pretend every SNR equals the
    matrix maximum, for which spreading users as evenly as possible is
    optimal, and a station with k users is worth k * log(1 + w_max / k).
    """
    n, m = W.n, W.m
    # 0.0 with no users or no signal; + 0.0 turns an all -0.0 matrix's max into 0.0
    w_max = float(W.weights.max(initial=0.0)) + 0.0
    big, rem = divmod(n, m)
    total = rem * (big + 1) * math.log1p(w_max / (big + 1))
    if big > 0:
        total += (m - rem) * big * math.log1p(w_max / big)
    return total


def run_strategy(strategy, W):
    """Run a named strategy over the rows of ``W`` in arrival order."""
    if strategy == "greedy":
        return online_greedy(W, "marginal_gain")
    if strategy == "greedy-absolute":
        return online_greedy(W, "absolute_value")
    if strategy == "max-weight":
        return max_weight(W)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def ratio_value(reference, utility):
    """Offline reference over online utility; 0/0 counts as 1, positive/0 as +inf."""
    if utility > 0.0:
        return reference / utility
    if reference > 0.0:
        return math.inf
    return 1.0


def reference_value(W, reference_kind):
    """The offline reference of the named kind for ``W``."""
    if reference_kind == "brute_force_optimum":
        return offline_bruteforce(W)[1]
    if reference_kind == "analytic_upper_bound":
        return offline_upper_bound(W)
    raise ValueError(f"unknown reference kind {reference_kind!r}; expected one of {REFERENCE_KINDS}")


def competitive_ratio(W, strategy, reference_kind="brute_force_optimum"):
    """Offline reference divided by the strategy's online utility."""
    _check_names((strategy,), reference_kind)
    reference = reference_value(W, reference_kind)
    utility = _utility_of(run_strategy(strategy, W), W)
    return RatioReport(
        online_utility=utility,
        offline_reference=reference,
        reference_kind=reference_kind,
        ratio=ratio_value(reference, utility),
    )
