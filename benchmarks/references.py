"""Independent reference computations for the benchmark's sampled items.

None of these share a code path with the library's solvers beyond the
public ``log_utility`` score: greedy is re-derived from scratch, the
offline optimum comes from plain ``itertools.product`` enumeration, and
rates come from a bisection water level instead of sort-and-scan.
"""

import itertools
import math

from wfalloc.waterfill import log_utility


def greedy_by_hand(W, marginal=True):
    """Online greedy re-derived: every station scored from scratch."""
    parts = [[] for _ in range(W.m)]
    for u in range(W.n):
        best_j, best_score = 0, -math.inf
        for j in range(W.m):
            current = [W.weights[x, j] for x in parts[j]]
            value = log_utility(current + [W.weights[u, j]])
            score = value - log_utility(current) if marginal else value
            if score > best_score:
                best_j, best_score = j, score
        parts[best_j].append(u)
    return tuple(frozenset(p) for p in parts)


def product_optimum(W):
    """Offline optimum value by enumerating every assignment directly."""
    station_value = {}
    best = -math.inf
    for assign in itertools.product(range(W.m), repeat=W.n):
        total = 0.0
        for j in range(W.m):
            users = tuple(u for u in range(W.n) if assign[u] == j)
            key = (j, users)
            if key not in station_value:
                station_value[key] = log_utility([W.weights[u, j] for u in users])
            total += station_value[key]
        best = max(best, total)
    return best


def bisection_level(noises, budget, rel_tol=1e-14, max_iter=200):
    """Solve sum_i (level - N_i)^+ = budget by bisection."""
    lo, hi = min(noises), max(noises) + budget
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if sum(mid - x for x in noises if mid > x) > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def bisection_rate(noises, budget=1.0):
    """Optimal sum rate sum_i log(1 + P_i / N_i) at the bisection level."""
    if not noises or budget == 0.0:
        return 0.0
    level = bisection_level(noises, budget)
    return sum(math.log1p((level - x) / x) for x in noises if level > x)


def bisection_utility(parts, W):
    """System utility of an allocation, each station solved by bisection."""
    return sum(
        bisection_rate([1.0 / w for w in (W.weights[u, j] for u in part) if w > 0.0])
        for j, part in enumerate(parts)
    )
