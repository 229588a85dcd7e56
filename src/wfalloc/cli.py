"""Command-line driver: single waterfilling solves, submodularity checks,
one-off allocation simulations, and batch ratio experiments emitting CSV.

Exit codes: 0 success, 2 invalid flags or values, 3 instance too large for
exhaustive computation, 4 I/O error.
"""

import argparse
import math
import sys

from .allocation import (STRATEGIES, InstanceTooLargeError, ratio_value, reference_value,
                         run_strategy, system_utility)
from .experiments import _fmt, evaluate_strategies, run_experiment, summarize, write_records_csv
from .lemmas import rate_oracle
from .profiles import PRNG_ALGORITHM, PROFILE_KINDS, ProfileSpec, generate, replay_from_csv
from .submodular import (
    MONOTONE_SETPAIR_CAP,
    GroundSetTooLargeError,
    SetFunctionOracle,
    check_monotone,
    check_setpair_submodular,
    check_submodular_pairwise,
    violations_to_csv,
)
from .waterfill import NoiseProfile, rate_of_subset, waterfill

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3
EXIT_IO = 4

_PROFILE_CHOICES = [k.replace("_", "-") for k in PROFILE_KINDS]
_REFERENCE_BY_FLAG = {
    "brute-force": "brute_force_optimum",
    "analytic-upper": "analytic_upper_bound",
}


def _parse_reals(text, flag):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _snrs_to_profile(snrs, budget):
    """Channels for the SNRs with a finite noise 1/w, keyed by their original index."""
    for w in snrs:
        if not math.isfinite(w):
            raise ValueError(f"SNRs must be finite, got {w}")
        if w < 0.0:
            raise ValueError(f"SNRs must be nonnegative, got {w}")
    ids = [u for u, w in enumerate(snrs) if w > 0.0 and 1.0 / w < math.inf]
    return NoiseProfile([1.0 / snrs[u] for u in ids], budget, ids)


def _input_column(args):
    W = replay_from_csv(args.input)
    if args.basestation is None:
        raise ValueError("--input needs --basestation to pick a column")
    if not 1 <= args.basestation <= W.m:
        raise ValueError(f"--basestation must be in 1..{W.m}")
    return [float(x) for x in W.weights[:, args.basestation - 1]]


def _source(args, *flags):
    """The one of ``flags`` given on the command line; ValueError unless exactly one is."""
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) > 1:
        raise ValueError(f"use either --{given[0]} or --{given[1]}, not both")
    if not given:
        raise ValueError(f"one of {', '.join('--' + flag for flag in flags)} is required")
    return given[0]


def _cmd_waterfill(args):
    source = _source(args, "noises", "snrs", "input")
    if source != "input":  # --basestation picks a column of --input
        _source(args, source, "basestation")
    if source == "noises":
        profile = NoiseProfile(_parse_reals(args.noises, "--noises"), args.power)
        total = len(profile)
    else:
        snrs = _input_column(args) if source == "input" else _parse_reals(args.snrs, "--snrs")
        profile = _snrs_to_profile(snrs, args.power)
        total = len(snrs)
    sol = waterfill(profile)
    print(f"channels: {total}")
    print(f"budget: {_fmt(profile.budget)}")
    print(f"water_level: {'none' if sol.water_level is None else _fmt(sol.water_level)}")
    print(f"active_set: {' '.join(str(c) for c in sorted(sol.active_set))}")
    for c in range(total):
        print(f"power {c}: {_fmt(sol.powers.get(c, 0.0))}")
    print(f"rate_nats: {_fmt(sol.rate)}")
    return EXIT_OK


def _cmd_check_submodular(args):
    if _source(args, "noises", "snrs") == "snrs":
        snrs = _parse_reals(args.snrs, "--snrs")
        profile = _snrs_to_profile(snrs, args.power)
        # every SNR stays in the ground set; an unfunded one adds no rate to any subset
        oracle = SetFunctionOracle(frozenset(range(len(snrs))),
                                   lambda s: rate_of_subset(profile, s.intersection(profile.ids)))
    else:
        oracle = rate_oracle(NoiseProfile(_parse_reals(args.noises, "--noises"), args.power))
    # check before the first print, so a rejected input prints nothing
    pairwise = check_submodular_pairwise(oracle, tolerance=args.tolerance)
    u = len(oracle.ground_set)
    print(f"ground_set: {u} elements, tolerance {args.tolerance:g}")
    triples = u * (u - 1) // 2 * (1 << max(u - 2, 0))
    print(f"pairwise: {len(pairwise)} violations in {triples} triples")
    if args.output is not None:
        violations_to_csv(pairwise, args.output)
        print(f"pairwise violations written to {args.output}")
    if u <= MONOTONE_SETPAIR_CAP:
        monotone = check_monotone(oracle, tolerance=args.tolerance)
        print(f"monotone: {len(monotone)} violations")
        setpair = check_setpair_submodular(oracle, tolerance=args.tolerance)
        print(f"setpair: {len(setpair)} violations")
    else:
        print(f"monotone: skipped (ground set above cap {MONOTONE_SETPAIR_CAP})")
        print(f"setpair: skipped (ground set above cap {MONOTONE_SETPAIR_CAP})")
    return EXIT_OK


def _replaying(args, *replay_excluded):
    """Whether the instance comes from --input rather than from --profile."""
    if args.input is not None:
        for flag in ("profile", "users", "basestations", *replay_excluded):
            _source(args, "input", flag)
        return True
    if args.profile is None or args.users is None or args.basestations is None:
        raise ValueError("need --input, or --profile with --users and --basestations")
    return False


def _cmd_simulate(args):
    if _replaying(args, "seed"):  # a replayed instance has no use for a seed
        W = replay_from_csv(args.input)
    else:
        W = generate(ProfileSpec(args.profile, args.users, args.basestations, args.seed or 0))
    strategies = args.strategy or ["greedy"]
    reference_kind = _REFERENCE_BY_FLAG[args.reference]
    reference = reference_value(W, reference_kind)
    print(f"users: {W.n}  basestations: {W.m}")
    print(f"reference ({reference_kind}): {_fmt(reference)}")
    for strategy in strategies:
        alloc = run_strategy(strategy, W)
        utility = system_utility(alloc, W)
        ratio = ratio_value(reference, utility)
        print(f"strategy {strategy}: utility {_fmt(utility)} ratio {_fmt(ratio)}")
        for j, part in enumerate(alloc.parts):
            users = " ".join(str(x) for x in sorted(part))
            print(f"  bs_{j + 1}: {users}")
    return EXIT_OK


def _cmd_ratio_experiment(args):
    strategies = args.strategy or ["greedy"]
    reference_kind = _REFERENCE_BY_FLAG[args.reference]
    seed = args.seed or 0  # recorded in the CSV, so also valid with --input
    if _replaying(args, "trials"):
        W = replay_from_csv(args.input)
        records = evaluate_strategies(
            W, strategies, reference_kind,
            trial=0, profile_name="replay", seed=seed)
    else:
        records = run_experiment(
            args.profile, args.users, args.basestations, 1 if args.trials is None else args.trials,
            strategies=strategies, reference_kind=reference_kind, seed=seed)
    write_records_csv(records, sys.stdout if args.output == "-" else args.output)
    if args.output != "-":
        print(f"wrote {len(records)} records to {args.output}", file=sys.stderr)
    for row in summarize(records) if records else []:
        print(
            f"profile={row.profile} strategy={row.strategy} n={row.n} trials={row.trials} "
            f"mean_ratio={row.mean_ratio:.6g} max_ratio={row.max_ratio:.6g} "
            f"mean_utility={row.mean_utility:.6g}",
            file=sys.stderr,
        )
    print(f"prng: {PRNG_ALGORITHM}", file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wfalloc",
        description="Waterfilling power allocation and online basestation allocation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("waterfill", help="solve one power-allocation instance")
    w.add_argument("--noises", help="comma-separated positive noise variances")
    w.add_argument("--snrs", help="comma-separated nonnegative SNRs (noise is 1/SNR, zeros excluded)")
    w.add_argument("--input", help="weight-matrix CSV to take SNRs from")
    w.add_argument("--basestation", type=int, help="1-based column of --input to solve")
    w.add_argument("--power", type=float, default=1.0, help="total power budget (default 1)")
    w.set_defaults(handler=_cmd_waterfill)

    c = sub.add_parser("check-submodular", help="run the exhaustive set-function checks")
    c.add_argument("--noises", help="comma-separated positive noise variances")
    c.add_argument("--snrs", help="comma-separated nonnegative SNRs")
    c.add_argument("--power", type=float, default=1.0, help="total power budget (default 1)")
    c.add_argument("--tolerance", type=float, default=1e-9, help="violation tolerance (default 1e-9)")
    c.add_argument("--output", help="write pairwise violations to this CSV")
    c.set_defaults(handler=_cmd_check_submodular)

    s = sub.add_parser("simulate", help="one instance: print allocations and utilities")
    _add_instance_flags(s)
    s.set_defaults(handler=_cmd_simulate)

    r = sub.add_parser("ratio-experiment", help="batch trials, CSV records out")
    _add_instance_flags(r)
    r.add_argument("--trials", type=int, help="number of paired trials (default 1)")
    r.add_argument("--output", default="-", help="records CSV path, or - for stdout (default)")
    r.set_defaults(handler=_cmd_ratio_experiment)

    return parser


def _add_instance_flags(p):
    p.add_argument("--users", type=int, help="number of arriving users")
    p.add_argument("--basestations", type=int, help="number of basestations")
    p.add_argument("--profile", choices=_PROFILE_CHOICES, help="SNR profile kind")
    p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    p.add_argument("--input", help="replay a weight-matrix CSV instead of generating")
    p.add_argument("--strategy", action="append", choices=STRATEGIES,
                   help="strategy to run (repeatable; default greedy)")
    p.add_argument("--reference", choices=sorted(_REFERENCE_BY_FLAG), default="analytic-upper",
                   help="offline reference (default analytic-upper)")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GroundSetTooLargeError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
