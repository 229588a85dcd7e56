"""Exhaustive submodularity and monotonicity checks for black-box set
functions, plus the majorization machinery used to certify them.

The checkers enumerate every required subset combination below a size cap,
so an empty violation list is a certificate at the chosen tolerance rather
than a sampled verdict. Oversized ground sets are rejected, never sampled.
"""

import csv
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

__all__ = [
    "MONOTONE_SETPAIR_CAP",
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


MONOTONE_SETPAIR_CAP = 8  # default cap of the checks that compare pairs of subsets
_BLOCK = 1 << 13  # gap entries compared per numpy block
_SLICE = 1 << 10  # pairwise violations decoded per slice


class GroundSetTooLargeError(ValueError):
    """Ground set exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class SetFunctionOracle:
    """A finite ground set plus a subset -> value callable.

    ``evaluate`` must be deterministic and return a finite number; each
    subset is evaluated once per check. Elements must sort consistently so
    that enumeration order is reproducible. An oracle may also carry
    ``table``, which maps the sorted elements to every subset's value by
    bitmask, bit t for element t; a check then tables the function with one
    call in place of evaluating each subset, and the table must agree with
    ``evaluate``.
    """

    ground_set: frozenset
    evaluate: Callable
    table: Callable | None = None


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


def _subset_table(oracle, tolerance, max_ground_size, check):
    """Validate a check's arguments, then tabulate the oracle over every subset.

    Returns ``(elems, values, subset)``: the sorted ground set, every
    subset's value as a float64 array indexed by bitmask, where bit t of
    the mask holds ``elems[t]``, and the decoder from a bitmask to its
    frozenset. The values come from ``oracle.table`` when the oracle has
    one, else from ``evaluate``, each subset evaluated once. A non-finite
    tolerance or oracle value raises ValueError, since any comparison with
    NaN is false and would certify vacuously.
    """
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0.0:
        raise ValueError("tolerance must be nonnegative")
    elems = sorted(oracle.ground_set)
    u = len(elems)
    if u > max_ground_size:
        raise GroundSetTooLargeError(
            f"ground set too large for the exhaustive {check} check: {u} > {max_ground_size}"
        )
    if oracle.table is None:
        subsets = [frozenset()]
        for e in elems:
            subsets += [s | {e} for s in subsets]
        values = np.array([float(oracle.evaluate(s)) for s in subsets])
        subset = subsets.__getitem__
    else:
        values = np.asarray(oracle.table(elems), dtype=np.float64)
        if values.shape != (1 << u,):
            raise ValueError(f"table must hold one value per subset, got shape {values.shape}")

        def subset(mask):
            return frozenset(e for t, e in enumerate(elems) if mask >> t & 1)

    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        mask = int(bad[0])
        raise ValueError(f"oracle value at {sorted(subset(mask))} is not finite: {float(values[mask])}")
    return elems, values, subset


def _blocks(count, width):
    """0..count-1 in consecutive ranges, each compared with ``width`` others:
    about _BLOCK comparisons per range, so no temporary grows with count."""
    step = max(1, _BLOCK // max(1, width))
    for start in range(0, count, step):
        yield np.arange(start, min(start + step, count))


def check_submodular_pairwise(oracle, tolerance=1e-9, max_ground_size=12):
    """Every (S, i, j) with f(S+i) + f(S+j) < f(S) + f(S+i+j) - tolerance.

    Enumerates all S subset of U and all unordered pairs i != j outside S,
    reported by S in counting order, then i, then j. An empty list certifies
    the pairwise submodularity inequality at this tolerance over the whole
    ground set.
    """
    elems, f, subset = _subset_table(oracle, tolerance, max_ground_size, "pairwise")
    if len(elems) < 2:
        return []
    i, j = np.triu_indices(len(elems), 1)

    def sides(base, pair):
        """lhs, rhs and gap of the triples (base, i[pair], j[pair])."""
        with_i, with_j = base | 1 << i[pair], base | 1 << j[pair]
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = f[with_i] + f[with_j]
            rhs = f[base] + f[with_i | with_j]
            return lhs, rhs, rhs - lhs

    # one row per pair (i, j); row entries are the bases S, whose other
    # bits are counted up with zeros spread in at bits i and then j
    pair = np.arange(len(i))[:, None]
    bit_i, bit_j = 1 << i[pair], 1 << j[pair]
    found = []
    for rest in _blocks(len(f) >> 2, len(i)):
        base = (rest & bit_i - 1) | (rest & -bit_i) << 1
        base = (base & bit_j - 1) | (base & -bit_j) << 1
        hit = sides(base, pair)[2] > tolerance
        found.append(base[hit] * len(i) + np.nonzero(hit)[0])
    # sorted keys order the violations by S, then by pair (i, j)
    keys = np.sort(np.concatenate(found))
    violations = []
    for at in range(0, len(keys), _SLICE):
        base, pair = np.divmod(keys[at:at + _SLICE], len(i))
        rows = zip(base.tolist(), i[pair].tolist(), j[pair].tolist(),
                   *(side.tolist() for side in sides(base, pair)))
        violations += [SubmodularityViolation(subset(mask), elems[a], elems[b], lhs, rhs, gap)
                       for mask, a, b, lhs, rhs, gap in rows]
    return violations


def check_setpair_submodular(oracle, tolerance=1e-9, max_ground_size=MONOTONE_SETPAIR_CAP):
    """Every unordered pair (S, T) with f(S) + f(T) < f(S&T) + f(S|T) - tolerance.

    The set-pair form of submodularity; an empty list on small ground sets
    confirms it agrees with the pairwise form. Pairs are reported with S no
    later than T in counting order, by S, then T.
    """
    _, f, subset = _subset_table(oracle, tolerance, max_ground_size, "set-pair")
    violations = []
    for smasks in _blocks(len(f), len(f)):
        s = smasks[:, None]
        t = np.arange(smasks[0], len(f))
        with np.errstate(over="ignore", invalid="ignore"):
            gap = f[s & t] + f[s | t] - f[s] - f[t]
            rows, cols = np.nonzero((gap > tolerance) & (t >= s))
        violations += [(subset(a), subset(b)) for a, b in zip(smasks[rows].tolist(), t[cols].tolist())]
    return violations


def check_monotone(oracle, tolerance=1e-9, max_ground_size=MONOTONE_SETPAIR_CAP):
    """Every nested pair (S, T) with S subset of T but f(S) > f(T) + tolerance.

    Reported by T in counting order, then S from latest to earliest.
    """
    _, f, subset = _subset_table(oracle, tolerance, max_ground_size, "monotonicity")
    s = np.arange(len(f) - 1, -1, -1)
    violations = []
    for tmasks in _blocks(len(f), len(f)):
        t = tmasks[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            rows, cols = np.nonzero((f[s] > f[t] + tolerance) & (s & t == s))
        violations += [(subset(a), subset(b)) for a, b in zip(s[cols].tolist(), tmasks[rows].tolist())]
    return violations


def majorizes(a, b, tolerance=1e-9):
    """True iff the entries of ``a`` majorize those of ``b``.

    Both vectors are sorted descending internally; the sums must agree
    within a relative tolerance and every descending prefix sum of ``a``
    must dominate the matching prefix of ``b``. Length mismatch raises.
    """
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
    meaning; convexity of ``g`` is trusted, not verified here.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(g(x) for x in a) >= sum(g(x) for x in b) - tolerance


def violations_to_csv(violations, dest):
    """Debug dump of pairwise violations, one CSV row per triple."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(["base_set", "i", "j", "lhs", "rhs", "gap"])
        for v in violations:
            base = ";".join(str(e) for e in sorted(v.base_set))
            writer.writerow([base, v.elem_i, v.elem_j, repr(v.lhs), repr(v.rhs), repr(v.gap)])

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
