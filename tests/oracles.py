"""Independent reference computations used across the test suite.

Nothing here shares code paths with the library: the water level comes from
bisection instead of sort-and-scan, or from a sort-and-scan in exact
rational arithmetic instead of floats, precise rates from that exact level
in 80-digit decimal logs, optimal rates from a constrained numerical
maximizer and random simplex sampling instead of the closed form, the
offline optimum from plain product enumeration instead of the subset
dynamic program, and checker violations from itertools enumeration instead
of the library's bitmask table.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from wfalloc.allocation import Allocation, system_utility
from wfalloc.waterfill import log_utility


def bisection_water_level(noises, budget, rel_tol=1e-13, max_iter=200):
    """Solve sum_i (level - N_i)^+ = budget by bisection."""
    lo = min(noises)
    hi = max(noises) + budget
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        filled = sum(mid - x for x in noises if mid > x)
        if filled > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def exact_waterfill(noises, budget):
    """(level, k): the exact water level of float noises and budget, as a
    Fraction, and the number of channels it funds; (None, 0) when nothing
    is funded (a zero budget, or no finite noise).

    Infinite noises are never funded. Of the finite noises, sorted, the k
    quietest are funded for the largest k whose level (budget + N_1 + ...
    + N_k) / k lies strictly above N_k, every step in rationals.
    """
    finite = sorted(Fraction(x) for x in noises if x < math.inf)
    if budget == 0.0 or not finite:
        return None, 0
    total = Fraction(budget) + sum(finite)
    for k in range(len(finite), 0, -1):
        if total / k > finite[k - 1]:
            return total / k, k
        total -= finite[k - 1]
    raise AssertionError("a positive budget funds the quietest channel")


def precise_rate(noises, budget):
    """The rate, in nats, of the channels ``exact_waterfill`` funds at its
    exact level L: the sum of ln(L / N_i) in ``decimal`` at 80 digits, as a
    Decimal. Each ratio is rounded once and ``Decimal.ln`` is correctly
    rounded, so the sum is good to about 78 digits; 0 when nothing is
    funded."""
    level, k = exact_waterfill(noises, budget)
    with localcontext() as ctx:
        ctx.prec = 80
        total = Decimal(0)
        for x in sorted(x for x in noises if x < math.inf)[:k]:
            ratio = level / Fraction(x)
            total += (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln()
    return total


def simplex_search_rate(noises, budget):
    """Numerically maximize sum log(1 + p_i/N_i) over the power simplex."""
    import warnings

    from scipy.optimize import minimize

    noises = np.asarray(noises, dtype=float)
    k = len(noises)

    def neg_rate(p):
        return -np.sum(np.log1p(np.clip(p, 0.0, None) / noises))

    with warnings.catch_warnings():
        # SLSQP steps marginally outside its box bounds and clips; harmless
        warnings.filterwarnings("ignore", message=".*outside bounds.*", category=RuntimeWarning)
        res = minimize(
            neg_rate,
            np.full(k, budget / k),
            method="SLSQP",
            bounds=[(0.0, budget)] * k,
            constraints=[{"type": "eq", "fun": lambda p: np.sum(p) - budget}],
            options={"maxiter": 500, "ftol": 1e-12},
        )
    return float(-res.fun)


def random_simplex_rate(noises, budget, rng, samples=200):
    """Best rate over random feasible power splits (Dirichlet draws)."""
    noises = np.asarray(noises, dtype=float)
    best = 0.0
    for _ in range(samples):
        p = rng.dirichlet(np.ones(len(noises))) * budget
        best = max(best, float(np.sum(np.log1p(p / noises))))
    return best


def naive_best_allocation(W):
    """Offline optimum by enumerating every assignment directly."""
    best_val = -math.inf
    best_alloc = None
    for assign in itertools.product(range(W.m), repeat=W.n):
        parts = [set() for _ in range(W.m)]
        for u, j in enumerate(assign):
            parts[j].add(u)
        alloc = Allocation(tuple(frozenset(p) for p in parts))
        val = system_utility(alloc, W)
        if val > best_val:
            best_val = val
            best_alloc = alloc
    return best_alloc, best_val


def greedy_by_hand(W, mode="marginal_gain", scale=1.0):
    """Minimal re-derivation of the online greedy loop.

    ``scale`` multiplies every utility evaluation, which is how the
    log-base invariance of the argmax is exercised.
    """
    parts = [[] for _ in range(W.m)]
    utils = [0.0] * W.m
    for u in range(W.n):
        best_j, best_score, best_val = 0, -math.inf, 0.0
        for j in range(W.m):
            val = scale * log_utility([W.weights[x, j] for x in parts[j]] + [W.weights[u, j]])
            score = val - utils[j] if mode == "marginal_gain" else val
            if score > best_score:
                best_j, best_score, best_val = j, score, val
        parts[best_j].append(u)
        utils[best_j] = best_val
    return tuple(frozenset(p) for p in parts)


def counting_order_subsets(ground_set):
    """Every subset in binary-counter order over the sorted elements, the
    smallest element being the lowest bit: the checkers' reporting order."""
    elems = sorted(ground_set)
    return [frozenset(e for e, bit in zip(reversed(elems), flags) if bit)
            for flags in itertools.product((False, True), repeat=len(elems))]


def naive_pairwise_violations(ground_set, f, tolerance):
    """(S, i, j, lhs, rhs, gap) for every failing pairwise triple."""
    out = []
    for base in counting_order_subsets(ground_set):
        for i, j in itertools.combinations(sorted(ground_set - base), 2):
            lhs = f(base | {i}) + f(base | {j})
            rhs = f(base) + f(base | {i, j})
            if rhs - lhs > tolerance:
                out.append((base, i, j, lhs, rhs, rhs - lhs))
    return out


def naive_setpair_violations(ground_set, f, tolerance):
    """(S, T), S no later than T in counting order, with f(S)+f(T) < f(S&T)+f(S|T) - tolerance."""
    pairs = itertools.combinations_with_replacement(counting_order_subsets(ground_set), 2)
    return [(s, t) for s, t in pairs if (f(s & t) + f(s | t)) - (f(s) + f(t)) > tolerance]


def naive_monotone_violations(ground_set, f, tolerance):
    """(S, T) with S a subset of T and f(S) > f(T) + tolerance; for each T,
    its subsets S from latest to earliest in counting order."""
    subsets = counting_order_subsets(ground_set)
    return [(s, t) for t in subsets for s in reversed(subsets)
            if s <= t and f(s) > f(t) + tolerance]
