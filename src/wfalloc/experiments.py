"""Batch competitive-ratio experiments and their CSV record format.

Trials are paired: every requested strategy runs on the identical matrix,
drawn from a per-trial seed derived as ``seed XOR trial``, so strategy
comparisons are low-variance and the whole run is reproducible byte for
byte.
"""

import math
import numbers
from dataclasses import dataclass

from .allocation import (
    _check_names,
    _utility_of,
    check_bruteforce_size,
    ratio_value,
    reference_value,
    run_strategy,
)
from .profiles import ProfileSpec, generate
from .waterfill import _sink

__all__ = [
    "RECORD_HEADER",
    "ExperimentRecord",
    "SummaryRow",
    "evaluate_strategies",
    "run_experiment",
    "summarize",
    "format_records_csv",
    "write_records_csv",
]

RECORD_HEADER = "trial,n,m,profile,strategy,utility,offline_bound,reference_kind,ratio,seed"


@dataclass(frozen=True)
class ExperimentRecord:
    """One (trial, strategy) outcome, ready for CSV serialization."""

    trial: int
    n: int
    m: int
    profile: str
    strategy: str
    utility: float
    offline_bound: float
    reference_kind: str
    ratio: float
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over the trials of one (profile, strategy, n) group."""

    profile: str
    strategy: str
    n: int
    trials: int
    mean_ratio: float
    max_ratio: float
    mean_utility: float


def _evaluate(W, strategies, reference_kind):
    """The one evaluation loop: ``W``'s reference value, computed once, and
    per strategy in order its (strategy, allocation, utility, ratio). Each
    strategy runs through this module's ``run_strategy``."""
    _check_names(strategies, reference_kind)
    reference = reference_value(W, reference_kind)
    outcomes = []
    for strategy in strategies:
        alloc = run_strategy(strategy, W)
        utility = _utility_of(alloc, W)
        outcomes.append((strategy, alloc, utility, ratio_value(reference, utility)))
    return reference, outcomes


def evaluate_strategies(W, strategies, reference_kind, *, trial, profile_name, seed):
    """Records for all strategies on one matrix, sharing one reference value."""
    reference, outcomes = _evaluate(W, strategies, reference_kind)
    return [ExperimentRecord(
        trial=trial, n=W.n, m=W.m, profile=profile_name, strategy=strategy,
        utility=utility, offline_bound=reference, reference_kind=reference_kind,
        ratio=ratio, seed=seed,
    ) for strategy, _, utility, ratio in outcomes]


def run_experiment(kind, n, m, trials, strategies=("greedy",),
                   reference_kind="analytic_upper_bound", seed=0):
    """Run ``trials`` paired trials of the given profile.

    Trial t draws its matrix from seed XOR t; records come back in
    (trial, strategy) order. Requesting the brute-force reference on an
    instance with m^n beyond the brute-force cap fails up front.
    """
    if not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    spec0 = ProfileSpec(kind, n, m, seed)
    _check_names(strategies, reference_kind)
    if reference_kind == "brute_force_optimum":
        check_bruteforce_size(n, m)
    profile_name = spec0.kind.replace("_", "-")
    records = []
    for t in range(trials):
        trial_seed = seed ^ t
        W = generate(ProfileSpec(spec0.kind, n, m, trial_seed))
        records.extend(evaluate_strategies(
            W, strategies, reference_kind,
            trial=t, profile_name=profile_name, seed=trial_seed,
        ))
    return records


def summarize(records):
    """Mean and max ratio (and mean utility) per (profile, strategy, n).

    Each mean is ``math.fsum`` of the values over their count, as
    ``statistics.fmean`` takes it, with no import of ``statistics``, which
    pulls in ``fractions`` and ``decimal``."""
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for r in records:
        groups.setdefault((r.profile, r.strategy, r.n), []).append(r)
    rows = []
    for key in sorted(groups):
        rs = groups[key]
        rows.append(SummaryRow(
            profile=key[0], strategy=key[1], n=key[2], trials=len(rs),
            mean_ratio=math.fsum(r.ratio for r in rs) / len(rs),
            max_ratio=max(r.ratio for r in rs),
            mean_utility=math.fsum(r.utility for r in rs) / len(rs),
        ))
    return rows


def _fmt(x):
    return f"{x:.12g}"


def format_records_csv(records):
    """Serialize records; reals carry 12 significant digits, newline is \\n."""
    lines = [RECORD_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.trial), str(r.n), str(r.m), r.profile, r.strategy,
            _fmt(r.utility), _fmt(r.offline_bound), r.reference_kind,
            _fmt(r.ratio), str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


def write_records_csv(records, dest):
    text = format_records_csv(records)
    with _sink(dest) as fh:
        fh.write(text)
