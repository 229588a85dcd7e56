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


class GroundSetTooLargeError(ValueError):
    """Ground set exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class SetFunctionOracle:
    """A finite ground set plus a subset -> value callable.

    ``evaluate`` must be deterministic and return a finite number; each
    subset is evaluated once per check. Elements must sort consistently so
    that enumeration order is reproducible.
    """

    ground_set: frozenset
    evaluate: Callable


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
    """Validate a check's arguments, then evaluate the oracle once per subset.

    Returns ``(elems, subsets, values)``: the sorted ground set, and every
    subset with its oracle value indexed by bitmask, where bit t of the mask
    holds ``elems[t]``. A non-finite tolerance or oracle value raises
    ValueError, since any comparison with NaN is false and would certify
    vacuously.
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
    subsets = [frozenset()]
    for e in elems:
        subsets += [s | {e} for s in subsets]
    values = [float(oracle.evaluate(s)) for s in subsets]
    for s, v in zip(subsets, values):
        if not math.isfinite(v):
            raise ValueError(f"oracle value at {sorted(s)} is not finite: {v}")
    return elems, subsets, values


def check_submodular_pairwise(oracle, tolerance=1e-9, max_ground_size=12):
    """Every (S, i, j) with f(S+i) + f(S+j) < f(S) + f(S+i+j) - tolerance.

    Enumerates all S subset of U and all unordered pairs i != j outside S.
    An empty list certifies the pairwise submodularity inequality at this
    tolerance over the whole ground set.
    """
    elems, subsets, f = _subset_table(oracle, tolerance, max_ground_size, "pairwise")
    violations = []
    for mask, base in enumerate(subsets):
        outside = [t for t in range(len(elems)) if not mask >> t & 1]
        f_base = f[mask]
        for a, i in enumerate(outside):
            with_i = mask | 1 << i
            f_i = f[with_i]
            for j in outside[a + 1:]:
                lhs = f_i + f[mask | 1 << j]
                rhs = f_base + f[with_i | 1 << j]
                gap = rhs - lhs
                if gap > tolerance:
                    violations.append(SubmodularityViolation(base, elems[i], elems[j], lhs, rhs, gap))
    return violations


def check_setpair_submodular(oracle, tolerance=1e-9, max_ground_size=MONOTONE_SETPAIR_CAP):
    """Every unordered pair (S, T) with f(S) + f(T) < f(S&T) + f(S|T) - tolerance.

    The set-pair form of submodularity; an empty list on small ground sets
    confirms it agrees with the pairwise form.
    """
    _, subsets, f = _subset_table(oracle, tolerance, max_ground_size, "set-pair")
    violations = []
    for smask in range(len(subsets)):
        for tmask in range(smask, len(subsets)):
            gap = f[smask & tmask] + f[smask | tmask] - f[smask] - f[tmask]
            if gap > tolerance:
                violations.append((subsets[smask], subsets[tmask]))
    return violations


def check_monotone(oracle, tolerance=1e-9, max_ground_size=MONOTONE_SETPAIR_CAP):
    """Every nested pair (S, T) with S subset of T but f(S) > f(T) + tolerance."""
    _, subsets, f = _subset_table(oracle, tolerance, max_ground_size, "monotonicity")
    violations = []
    for tmask, f_t in enumerate(f):
        smask = tmask
        while True:
            if f[smask] > f_t + tolerance:
                violations.append((subsets[smask], subsets[tmask]))
            if smask == 0:
                break
            smask = (smask - 1) & tmask
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
