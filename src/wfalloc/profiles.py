"""Seedable random SNR profile generators and the weight-matrix CSV format.

Five profile kinds cover the simulation scenarios: two i.i.d. uniform
ranges, a split population, a sparse case with a few strong links per user,
and a fully correlated case where each user's SNRs take only two tied
values. Generation is a pure function of (kind, n, m, seed).
"""

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .allocation import WeightMatrix

__all__ = [
    "PROFILE_KINDS",
    "PRNG_ALGORITHM",
    "ProfileSpec",
    "generate",
    "replay_from_csv",
    "write_weights_csv",
]

PROFILE_KINDS = ("iid_unit", "iid_ten", "mixed_half", "sparse_strong", "correlated")
_THREE_PICK_KINDS = ("sparse_strong", "correlated")

# numpy's default_rng bit generator; recorded in experiment output so runs
# can be reproduced against other builds.
PRNG_ALGORITHM = "numpy PCG64"


@dataclass(frozen=True)
class ProfileSpec:
    """Which profile to draw: kind, user count n, basestation count m, seed.

    Hyphenated kind spellings are normalized to underscores. The two kinds
    that pick 3 strong basestations per user need m >= 3.
    """

    kind: str
    n: int
    m: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", str(self.kind).replace("-", "_"))
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.m, numbers.Integral)):
            raise ValueError(f"n and m must be integers, got {self.n!r} and {self.m!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.kind in _THREE_PICK_KINDS and self.m < 3:
            raise ValueError(f"profile {self.kind!r} picks 3 basestations per user and needs m >= 3")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


def generate(spec: ProfileSpec) -> WeightMatrix:
    """Draw the weight matrix for ``spec``. Deterministic given the spec.

    Kinds:
      * iid_unit       every SNR uniform on [0, 1)
      * iid_ten        every SNR uniform on [0, 10)
      * mixed_half     first ceil(n/2) users uniform on [0, 10), rest [0, 5)
      * sparse_strong  per user, a random 3-subset of stations uniform on
                       [0, 10), the others uniform on [0, 1)
      * correlated     per user, one draw v uniform on [0, 10); a random
                       3-subset gets v, the others v/2
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m
    if spec.kind == "iid_unit":
        w = rng.uniform(0.0, 1.0, (n, m))
    elif spec.kind == "iid_ten":
        w = rng.uniform(0.0, 10.0, (n, m))
    elif spec.kind == "mixed_half":
        top = math.ceil(n / 2)
        w = np.empty((n, m))
        w[:top] = rng.uniform(0.0, 10.0, (top, m))
        w[top:] = rng.uniform(0.0, 5.0, (n - top, m))
    elif spec.kind == "sparse_strong":
        w = rng.uniform(0.0, 1.0, (n, m))
        for u in range(n):
            strong = rng.choice(m, 3, replace=False)
            w[u, strong] = rng.uniform(0.0, 10.0, 3)
    else:  # correlated
        w = np.empty((n, m))
        for u in range(n):
            v = rng.uniform(0.0, 10.0)
            strong = rng.choice(m, 3, replace=False)
            w[u] = v / 2.0
            w[u, strong] = v
    return WeightMatrix(w)


def _csv_header(m):
    return ["user"] + [f"bs_{k}" for k in range(1, m + 1)]


def write_weights_csv(W: WeightMatrix, dest):
    """Write ``W`` in the replay format; floats round-trip exactly."""

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_header(W.m))
        for u in range(W.n):
            writer.writerow([u] + [repr(float(x)) for x in W.weights[u]])

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)


def replay_from_csv(path) -> WeightMatrix:
    """Read a weight matrix back from the CSV replay format.

    The header must be ``user,bs_1,...,bs_m``; every data row needs a user
    cell plus m numeric SNRs. Errors name the offending line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no users")
        m = len(header) - 1
        if m < 1 or header != _csv_header(m):
            raise ValueError(f"{path}: line 1: expected header user,bs_1,...,bs_m")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != m + 1:
                raise ValueError(f"{path}: line {lineno}: expected {m + 1} cells, got {len(row)}")
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric SNR cell") from None
            for v in values:
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(f"{path}: line {lineno}: SNRs must be nonnegative and finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no users")
    return WeightMatrix(np.array(rows))
