"""Exhaustive submodularity and monotonicity checks for black-box set
functions, plus the majorization machinery used to certify them.

The checkers enumerate every required subset combination below a size cap,
so an empty violation list is a certificate at the chosen tolerance rather
than a sampled verdict. Oversized ground sets are rejected, never sampled.
"""

import csv
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .waterfill import _BLOCK, _sink

__all__ = [
    "MONOTONE_SETPAIR_CAP",
    "PAIRWISE_CAP",
    "GroundSetTooLargeError",
    "SetFunctionOracle",
    "SubmodularityViolation",
    "check_submodular_pairwise",
    "check_setpair_submodular",
    "check_monotone",
    "majorizes",
    "karamata_holds",
    "violations_to_csv",
]


PAIRWISE_CAP = 12  # ground-set cap of the pairwise check
MONOTONE_SETPAIR_CAP = 8  # ground-set cap of the checks that compare pairs of subsets
_SLICE = 1 << 10  # pairwise violations decoded per slice


class GroundSetTooLargeError(ValueError):
    """Ground set exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class SetFunctionOracle:
    """A finite ground set plus a subset -> value callable.

    ``evaluate`` must be deterministic and return a finite number; each
    subset is evaluated once per oracle, not per check. Elements must sort
    consistently so that enumeration order is reproducible. An oracle may
    also carry ``table``, which maps the sorted elements to every subset's
    value by bitmask, bit t for element t; the oracle then tables itself
    with one call in place of evaluating each subset, and the table must
    agree with ``evaluate``.
    """

    ground_set: frozenset
    evaluate: Callable
    table: Callable | None = None

    @cached_property
    def _subsets(self):
        """Every subset by bitmask, bit t holding the t-th sorted element."""
        subsets = [frozenset()]
        for e in sorted(self.ground_set):
            subsets += [s | {e} for s in subsets]
        return subsets

    @cached_property
    def _values(self):
        """Every subset's value by bitmask, read-only float64. A non-finite
        value raises ValueError, and is not cached: a NaN fails every
        comparison, so a check would certify vacuously."""
        if self.table is None:
            values = np.array([float(self.evaluate(s)) for s in self._subsets])
        else:
            values = np.array(self.table(sorted(self.ground_set)), dtype=np.float64)
            if values.shape != (1 << len(self.ground_set),):
                raise ValueError(f"table must hold one value per subset, got shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            mask = int(bad[0])
            raise ValueError(f"oracle value at {sorted(self._subsets[mask])} is not finite: {values[mask]}")
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class SubmodularityViolation:
    """One failing triple of the pairwise diminishing-returns inequality.

    ``lhs`` is f(S+i) + f(S+j), ``rhs`` is f(S) + f(S+i+j), and
    ``gap = rhs - lhs`` exceeds the tolerance for every reported violation.
    """

    base_set: frozenset
    elem_i: object
    elem_j: object
    lhs: float
    rhs: float
    gap: float


def _check_tolerance(tolerance):
    """Reject a NaN, infinite or negative tolerance, under which a verdict is vacuous."""
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0.0:
        raise ValueError("tolerance must be nonnegative")


def _subset_table(oracle, tolerance, cap, check):
    """Validate a check's tolerance and cap before any evaluation, then return
    the sorted ground set and the oracle's ``_values``."""
    _check_tolerance(tolerance)
    elems = sorted(oracle.ground_set)
    if len(elems) > cap:
        raise GroundSetTooLargeError(
            f"ground set too large for the exhaustive {check} check: {len(elems)} > {cap}")
    return elems, oracle._values


def _blocked(rows):
    """Index rows as read-only int32 blocks of at most ``_BLOCK`` columns, so
    no temporary a check makes per block grows with the ground set."""
    rows = np.array(rows, np.int32)
    rows.setflags(write=False)
    return tuple(np.split(rows, range(_BLOCK, rows.shape[1], _BLOCK), axis=1))


def _gap_hits(f, blocks, tolerance):
    """Per block, the columns whose gap (f[a] + f[b]) - (f[c] + f[d]) exceeds
    ``tolerance``, a, b, c, d being the block's first four index rows: yields
    the block's rows, rhs f[a] + f[b], lhs f[c] + f[d] and gap at them."""
    for block in blocks:
        a, b, c, d = block[:4]
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = f.take(a) + f.take(b)
            lhs = f.take(c) + f.take(d)
            gap = rhs - lhs
        hit = np.flatnonzero(gap > tolerance)
        if len(hit):
            yield block[:, hit], rhs[hit], lhs[hit], gap[hit]
        del rhs, lhs, gap  # else they stay alive beside the next block's


@cache
def _pairwise_blocks(u):
    """Every triple (S, i, j) of u elements, i < j outside S, by S in counting
    order, then i, then j: rows S, S+i+j, S+i, S+j, i and j, ``_blocked``."""
    i, j = np.array(np.triu_indices(u, 1), np.int32)
    masks = np.arange(1 << u, dtype=np.int32)
    base, pair = np.array(np.nonzero(masks[:, None] & (1 << i | 1 << j) == 0), np.int32)
    with_i, with_j = base | 1 << i[pair], base | 1 << j[pair]
    return _blocked([base, with_i | with_j, with_i, with_j, i[pair], j[pair]])


def check_submodular_pairwise(oracle, tolerance=1e-9):
    """Every (S, i, j) with f(S+i) + f(S+j) < f(S) + f(S+i+j) - tolerance.

    Enumerates all S subset of U and all unordered pairs i != j outside S,
    reported by S in counting order, then i, then j. An empty list certifies
    the pairwise submodularity inequality at this tolerance over the whole
    ground set, of at most ``PAIRWISE_CAP`` elements. The triples gather
    from the table with ``take``, through index blocks cached per size.
    """
    elems, f = _subset_table(oracle, tolerance, PAIRWISE_CAP, "pairwise")
    violations = []
    for (base, *_, i, j), rhs, lhs, gap in _gap_hits(f, _pairwise_blocks(len(elems)), tolerance):
        for at in range(0, len(base), _SLICE):
            rows = zip(*(side[at:at + _SLICE].tolist() for side in (base, i, j, lhs, rhs, gap)))
            violations += [SubmodularityViolation(oracle._subsets[mask], elems[a], elems[b], left, right, g)
                           for mask, a, b, left, right, g in rows]
    return violations


@cache
def _setpair_blocks(u):
    """Every pair S < T of u-bit masks with S not a subset of T, by S, then T:
    rows S&T, S|T, S and T, ``_blocked``."""
    s, t = np.array(np.triu_indices(1 << u, 1), np.int32)
    apart = s & t != s
    s, t = s[apart], t[apart]
    return _blocked([s & t, s | t, s, t])


def check_setpair_submodular(oracle, tolerance=1e-9):
    """Every unordered pair (S, T) with f(S) + f(T) < f(S&T) + f(S|T) - tolerance.

    The set-pair form of submodularity over at most ``MONOTONE_SETPAIR_CAP``
    elements; an empty list confirms it agrees with the pairwise form. Pairs
    are reported with S no later than T in counting order, by S, then T. The
    gap is sum against sum, so a nested pair's is 0, or NaN if a sum
    overflows: both sums add f(S), f(T). Nested pairs are never reported, so
    only the others gather from the table, through index blocks cached per size.
    """
    elems, f = _subset_table(oracle, tolerance, MONOTONE_SETPAIR_CAP, "set-pair")
    violations = []
    for (*_, s, t), *_ in _gap_hits(f, _setpair_blocks(len(elems)), tolerance):
        violations += [(oracle._subsets[a], oracle._subsets[b]) for a, b in zip(s.tolist(), t.tolist())]
    return violations


@cache
def _pair_index(n):
    """Every (mask ^ T, T) pair with T a submask of an n-bit mask, ordered by
    mask and, within a mask, by T descending: 3^n pairs as two read-only
    int32 arrays, with the start and the size of each mask's group.

    Built one bit b at a time: the pairs so far are those of the masks
    without b, and the group of mask M + b is M's group with b added to
    each T, then M's group again with b added to mask ^ T. Every index
    built is cached, and n is bounded: brute force folds at n <= 12 (m >= 3
    with m^n <= 10^6), and ``check_monotone`` at n <= its cap of 8, so the
    cache holds at most the 3^12 = 531,441 pairs of n = 12, a few MB. The
    checkers' blocks are cached per size under their caps too: pairwise
    67,584 triples at 12 (1.6 MB), set-pair 26,335 pairs at 8 (0.41 MB).
    """
    rest = share = np.zeros(1, np.int32)
    starts = np.zeros(1, np.intp)
    for b in range(n):
        size = len(share)
        sizes = np.diff(starts, append=size)
        rest_next, share_next = np.empty(3 * size, np.int32), np.empty(3 * size, np.int32)
        rest_next[:size], share_next[:size] = rest, share
        at = np.repeat(starts, sizes) + np.arange(size, 2 * size)
        rest_next[at], share_next[at] = rest, share | (1 << b)
        at += np.repeat(sizes, sizes)
        rest_next[at], share_next[at] = rest | (1 << b), share
        rest, share, starts = rest_next, share_next, np.concatenate([starts, size + 2 * starts])
    # readers gather with take, equal to fancy indexing bit for bit and faster on these
    # int32 arrays: ~9 against ~25 us for an 8,167-pair block at 10 x 3 (2-vCPU Xeon)
    index = rest, share, starts, np.diff(starts, append=len(share))
    for array in index:
        array.setflags(write=False)
    return index


def check_monotone(oracle, tolerance=1e-9):
    """Every nested pair (S, T) with S subset of T but f(S) > f(T) + tolerance,
    in ``_pair_index`` order: by T in counting order, then S from latest to
    earliest. The ground set holds at most ``MONOTONE_SETPAIR_CAP`` elements.
    """
    elems, f = _subset_table(oracle, tolerance, MONOTONE_SETPAIR_CAP, "monotonicity")
    rest, s, _, sizes = _pair_index(len(elems))
    # T's group holds sizes[T] pairs: f(T) + tolerance repeated lines up with f(S)
    with np.errstate(over="ignore"):
        hit = np.flatnonzero(f.take(s) > np.repeat(f + tolerance, sizes))
    return [(oracle._subsets[a], oracle._subsets[a | b])
            for a, b in zip(s[hit].tolist(), rest[hit].tolist())]


def majorizes(a, b, tolerance=1e-9):
    """True iff the entries of ``a`` majorize those of ``b``.

    Both vectors are sorted descending internally; the sums must agree
    within a relative tolerance and every descending prefix sum of ``a``
    must dominate the matching prefix of ``b``. Length mismatch and a bad
    tolerance (``_check_tolerance``) raise.
    """
    _check_tolerance(tolerance)
    a = sorted((float(x) for x in a), reverse=True)
    b = sorted((float(x) for x in b), reverse=True)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return True
    pa = list(accumulate(a))
    pb = list(accumulate(b))
    slack = tolerance * max(1.0, abs(pa[-1]), abs(pb[-1]))
    if abs(pa[-1] - pb[-1]) > slack:
        return False
    return all(x >= y - slack for x, y in zip(pa, pb))


def karamata_holds(a, b, g, tolerance=1e-9):
    """Whether sum(g(a_i)) >= sum(g(b_i)) - tolerance for a convex ``g``.

    Callers must have established majorizes(a, b) for the verdict to carry
    meaning; convexity of ``g`` is trusted, not verified here. Length
    mismatch and a bad tolerance (``_check_tolerance``) raise.
    """
    _check_tolerance(tolerance)
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(g(x) for x in a) >= sum(g(x) for x in b) - tolerance


def violations_to_csv(violations, dest):
    """Debug dump of pairwise violations, one CSV row per triple."""
    with _sink(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(["base_set", "i", "j", "lhs", "rhs", "gap"])
        for v in violations:
            base = ";".join(str(e) for e in sorted(v.base_set))
            writer.writerow([base, v.elem_i, v.elem_j, repr(v.lhs), repr(v.rhs), repr(v.gap)])
