"""Online greedy basestation allocation, baselines, and competitive ratios.

Users arrive one at a time, reveal their SNR toward each basestation, and
must be assigned immediately and irrevocably. Each basestation then splits
unit transmit power across its users by waterfilling, so per-station value
is the log utility of the assigned SNRs and system utility is the sum over
stations. Offline references come either from exhaustive enumeration of all
assignments (desk scale only) or from an analytic upper bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .waterfill import log_utility

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


class InstanceTooLargeError(ValueError):
    """Assignment enumeration would exceed the brute-force cap."""


class WeightMatrix:
    """An n x m matrix of nonnegative finite SNRs, one row per arriving user.

    Row order is arrival order. The underlying array is made read-only.
    """

    def __init__(self, weights):
        arr = np.array(weights, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError("weights must be two-dimensional: one row per user, one column per basestation")
        if arr.shape[1] < 1:
            raise ValueError("need at least one basestation column")
        if arr.size and (not np.isfinite(arr).all() or (arr < 0.0).any()):
            raise ValueError("SNR weights must be nonnegative and finite")
        arr.setflags(write=False)
        self.weights = arr

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def m(self):
        return self.weights.shape[1]

    def rows(self):
        return iter(self.weights)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return f"WeightMatrix(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Allocation:
    """A partition of the arrived users into per-basestation sets."""

    parts: tuple

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


def online_greedy(arrivals, m, mode="marginal_gain"):
    """Assign each arrival to the basestation scoring best for it, at once
    and irrevocably.

    In ``marginal_gain`` mode a station's score for user i is
    L(M_j + i) - L(M_j); in ``absolute_value`` mode it is L(M_j + i)
    itself. Ties go to the lowest station index. Every arrival must carry
    exactly m SNR entries.
    """
    if mode not in GREEDY_MODES:
        raise ValueError(f"unknown greedy mode {mode!r}; expected one of {GREEDY_MODES}")
    m = int(m)
    if m < 1:
        raise ValueError("need at least one basestation")
    marginal = mode == "marginal_gain"
    parts = [[] for _ in range(m)]
    snrs = [[] for _ in range(m)]
    utils = [0.0] * m
    for user, row in enumerate(arrivals):
        if len(row) != m:
            raise ValueError(f"arrival {user} has {len(row)} SNR entries, expected {m}")
        best_j = 0
        best_score = -math.inf
        best_value = 0.0
        for j in range(m):
            value = log_utility(snrs[j] + [row[j]])
            score = value - utils[j] if marginal else value
            if score > best_score:
                best_j, best_score, best_value = j, score, value
        parts[best_j].append(user)
        snrs[best_j].append(float(row[best_j]))
        utils[best_j] = best_value
    return Allocation(tuple(parts))


def max_weight(W):
    """Baseline: each user goes to its highest-SNR basestation (ties low)."""
    parts = [[] for _ in range(W.m)]
    for u in range(W.n):
        parts[int(np.argmax(W.weights[u]))].append(u)
    return Allocation(tuple(parts))


def system_utility(alloc, W):
    """Sum over basestations of the log utility of their assigned users.

    The allocation must partition exactly the users of ``W``.
    """
    if alloc.m != W.m:
        raise ValueError(f"allocation has {alloc.m} parts but the matrix has {W.m} basestations")
    if alloc.user_ids != frozenset(range(W.n)):
        raise ValueError("allocation does not partition the arrived users")
    return sum(
        log_utility([W.weights[u, j] for u in sorted(part)])
        for j, part in enumerate(alloc.parts)
    )


def _iter_bits(mask):
    u = 0
    while mask:
        if mask & 1:
            yield u
        mask >>= 1
        u += 1


def check_bruteforce_size(n, m):
    """Raise InstanceTooLargeError when m^n assignments exceed the cap."""
    if m ** n > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"instance too large for brute force: {m}^{n} assignments exceed {BRUTE_FORCE_CAP}"
        )


def offline_bruteforce(W):
    """Exact offline optimum by enumerating all m^n assignments.

    Depth-first over users with per-(station, user-set) utility memoization,
    so repeated part evaluations are amortized. Raises InstanceTooLargeError
    when m^n exceeds the cap. Returns (allocation, value) with the value
    recomputed through system_utility for consistency with other callers.
    """
    n, m = W.n, W.m
    check_bruteforce_size(n, m)
    weights = W.weights
    part_cache = {}

    def part_utility(j, mask):
        key = (j, mask)
        val = part_cache.get(key)
        if val is None:
            val = log_utility([weights[u, j] for u in _iter_bits(mask)])
            part_cache[key] = val
        return val

    best_value = -math.inf
    best_masks = None
    masks = [0] * m
    utils = [0.0] * m

    def descend(u, total):
        nonlocal best_value, best_masks
        if u == n:
            if total > best_value:
                best_value = total
                best_masks = masks.copy()
            return
        bit = 1 << u
        for j in range(m):
            old_mask, old_util = masks[j], utils[j]
            new_util = part_utility(j, old_mask | bit)
            masks[j] = old_mask | bit
            utils[j] = new_util
            descend(u + 1, total - old_util + new_util)
            masks[j] = old_mask
            utils[j] = old_util

    descend(0, 0.0)
    del descend  # it refers to itself; unbinding it frees the part cache now, not at a later GC
    alloc = Allocation(tuple(frozenset(_iter_bits(mask)) for mask in best_masks))
    return alloc, system_utility(alloc, W)


def offline_upper_bound(W):
    """Analytic bound on the offline optimum: pretend every SNR equals the
    matrix maximum, for which spreading users as evenly as possible is
    optimal, and a station with k users is worth k * log(1 + w_max / k).
    """
    n, m = W.n, W.m
    if n == 0:
        return 0.0
    w_max = float(W.weights.max())
    if w_max == 0.0:
        return 0.0
    big, rem = divmod(n, m)
    total = rem * (big + 1) * math.log1p(w_max / (big + 1))
    if big > 0:
        total += (m - rem) * big * math.log1p(w_max / big)
    return total


def run_strategy(strategy, W):
    """Run a named strategy over the rows of ``W`` in arrival order."""
    if strategy == "greedy":
        return online_greedy(W.rows(), W.m, "marginal_gain")
    if strategy == "greedy-absolute":
        return online_greedy(W.rows(), W.m, "absolute_value")
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
    alloc = run_strategy(strategy, W)
    utility = system_utility(alloc, W)
    reference = reference_value(W, reference_kind)
    return RatioReport(
        online_utility=utility,
        offline_reference=reference,
        reference_kind=reference_kind,
        ratio=ratio_value(reference, utility),
    )
