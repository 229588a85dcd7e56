"""The benchmark's three workloads.

Each workload builds a pool of distinct inputs from the run seed before the
timed loop, runs one item of user work through the public API, checks the
item's output, checks a fixed sample of items against the independent
references, and names its CLI counterpart with the output it must print.

  online-greedy  one 400x16 trial against the analytic bound. Incremental
                 waterfill scoring inside online greedy is ~90% of an item;
                 brute force and the checkers never run.
  exact-offline  one 10x3 instance against the brute-force optimum. The
                 memoised m^n search is ~80% of an item; waterfill runs as
                 many small from-scratch solves.
  certify        one random 10-channel profile through the exhaustive
                 checkers and the lemma witness. Memo lookups in the
                 checkers and per-subset waterfill solves dominate; no
                 allocation code runs.
"""

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import references
from wfalloc import experiments, lemmas, profiles, submodular
from wfalloc.allocation import offline_upper_bound, system_utility
from wfalloc.lemmas import MAIN_CASE
from wfalloc.submodular import SetFunctionOracle, majorizes
from wfalloc.waterfill import NoiseProfile, waterfill

REL_TOL = 1e-9
# f(S) = |S|^2 on 10 elements is strictly supermodular, so every one of the
# C(10, 2) * 2^8 pairwise triples must be reported; an empty or short list
# means the checker can certify vacuously.
CONTROL_ELEMENTS = 10
CONTROL_VIOLATIONS = 11520


@dataclass(frozen=True)
class Size:
    """Input sizes and repeat counts for one scale of the benchmark."""

    pool: int        # distinct inputs built before the loop, which cycles them
    min_items: int   # the loop runs past --seconds until it has this many
    repeats: int     # fresh processes per set-up or import timing
    cli_repeats: int # fresh processes per CLI timing
    samples: int     # items checked against the independent references
    greedy_n: int
    greedy_m: int
    exact_n: int
    exact_m: int
    channels: int
    restrict: int
    draws: int


SIZES = {
    "full": Size(pool=64, min_items=100, repeats=7, cli_repeats=11, samples=2,
                 greedy_n=400, greedy_m=16, exact_n=10, exact_m=3, channels=10, restrict=8, draws=5),
    "tiny": Size(pool=4, min_items=3, repeats=1, cli_repeats=1, samples=1,
                 greedy_n=30, greedy_m=4, exact_n=6, exact_m=3, channels=6, restrict=4, draws=2),
}


def item_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def item_seed(seed, k):
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def _close(x, y):
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def _leq(x, y):
    return x <= y + REL_TOL * max(1.0, abs(x), abs(y))


@dataclass(frozen=True)
class MatrixItem:
    index: int
    kind: str    # hyphenated, as the CLI spells it
    seed: int
    W: object


@dataclass(frozen=True)
class MatrixOutput:
    records: list
    csv: str
    allocations: tuple


class _AllocationWorkload:
    """An item is one evaluate_strategies call plus its CSV records."""

    strategies = ()
    reference_kind = ""
    kinds = ()

    def __init__(self, size, seed):
        self.size = size
        self.seed = seed
        self._allocations = []

    def shape(self):
        raise NotImplementedError

    def build(self):
        n, m = self.shape()
        items = []
        for k in range(self.size.pool):
            kind = self.kinds[k % len(self.kinds)].replace("_", "-")
            s = item_seed(self.seed, k)
            items.append(MatrixItem(k, kind, s, profiles.generate(profiles.ProfileSpec(kind, n, m, s))))
        return items

    @contextmanager
    def capturing(self):
        """Keep the allocations evaluate_strategies computes but does not return."""
        original = experiments.run_strategy

        def run_strategy(strategy, W):
            alloc = original(strategy, W)
            self._allocations.append(alloc)
            return alloc

        experiments.run_strategy = run_strategy
        try:
            yield
        finally:
            experiments.run_strategy = original

    def run_control(self):
        """Allocation workloads have no planted control."""
        return True

    def run(self, item):
        self._allocations.clear()
        records = experiments.evaluate_strategies(
            item.W, self.strategies, self.reference_kind,
            trial=item.index, profile_name=item.kind, seed=item.seed)
        csv = experiments.format_records_csv(records)
        return MatrixOutput(records, csv, tuple(self._allocations))

    def check(self, item, out):
        """Problems with one item's output; an empty list means it is correct."""
        W = item.W
        problems = []
        if len(out.allocations) != len(self.strategies) or len(out.records) != len(self.strategies):
            return [f"expected {len(self.strategies)} allocations and records"]
        for rec, alloc in zip(out.records, out.allocations):
            users = sorted(u for part in alloc.parts for u in part)
            if alloc.m != W.m or users != list(range(W.n)):
                problems.append(f"{rec.strategy}: allocation does not partition the users")
            elif rec.utility != system_utility(alloc, W):
                problems.append(f"{rec.strategy}: utility differs from a recomputed system_utility")
        if out.csv.count("\n") != len(out.records) + 1:
            problems.append("CSV does not hold one line per record")
        return problems

    def reference_problems(self, item, out):
        W = item.W
        problems = []
        for rec, alloc in zip(out.records, out.allocations):
            if not _close(references.bisection_utility(alloc.parts, W), rec.utility):
                problems.append(f"{rec.strategy}: bisection utility differs from system_utility")
            if rec.strategy in ("greedy", "greedy-absolute"):
                by_hand = references.greedy_by_hand(W, marginal=rec.strategy == "greedy")
                if by_hand != alloc.parts:
                    problems.append(f"{rec.strategy}: allocation differs from the by-hand greedy")
        return problems

    def digest_bytes(self, item, out):
        parts = [[sorted(p) for p in alloc.parts] for alloc in out.allocations]
        return repr(parts).encode() + out.csv.encode()


class OnlineGreedy(_AllocationWorkload):
    name = "online-greedy"
    strategies = ("greedy", "greedy-absolute", "max-weight")
    reference_kind = "analytic_upper_bound"
    kinds = ("correlated", "sparse_strong", "iid_ten")

    def shape(self):
        return self.size.greedy_n, self.size.greedy_m

    def check(self, item, out):
        problems = super().check(item, out)
        for rec in out.records:
            if not _leq(rec.utility, rec.offline_bound):
                problems.append(f"{rec.strategy}: utility exceeds the analytic bound")
            if not math.isfinite(rec.ratio):
                problems.append(f"{rec.strategy}: ratio is not finite")
        return problems

    def cli_argv(self, item):
        argv = ["ratio-experiment", "--users", str(item.W.n), "--basestations", str(item.W.m),
                "--trials", "1", "--profile", item.kind, "--seed", str(item.seed)]
        for s in self.strategies:
            argv += ["--strategy", s]
        return argv

    def cli_problems(self, item, out, stdout):
        # Trial 0 of the CLI draws from seed XOR 0, the sample item's matrix.
        return [] if stdout == out.csv else ["CLI records differ from the in-process CSV"]


class ExactOffline(_AllocationWorkload):
    name = "exact-offline"
    strategies = ("greedy", "max-weight")
    reference_kind = "brute_force_optimum"
    kinds = profiles.PROFILE_KINDS

    def shape(self):
        return self.size.exact_n, self.size.exact_m

    def check(self, item, out):
        problems = super().check(item, out)
        optimum = out.records[0].offline_bound if out.records else math.nan
        for rec in out.records:
            if not _leq(rec.utility, rec.offline_bound):
                problems.append(f"{rec.strategy}: utility exceeds the optimum")
            if rec.strategy == "greedy" and not _leq(rec.ratio, 2.0):
                problems.append(f"greedy ratio {rec.ratio!r} exceeds the factor 2")
        if not _leq(optimum, offline_upper_bound(item.W)):
            problems.append("optimum exceeds the analytic bound")
        return problems

    def reference_problems(self, item, out):
        problems = super().reference_problems(item, out)
        if not _close(references.product_optimum(item.W), out.records[0].offline_bound):
            problems.append("brute-force optimum differs from product enumeration")
        return problems

    def cli_argv(self, item):
        argv = ["simulate", "--users", str(item.W.n), "--basestations", str(item.W.m),
                "--profile", item.kind, "--seed", str(item.seed), "--reference", "brute-force"]
        for s in self.strategies:
            argv += ["--strategy", s]
        return argv

    def cli_problems(self, item, out, stdout):
        lines = set(stdout.splitlines())
        expected = [f"reference (brute_force_optimum): {out.records[0].offline_bound:.12g}"]
        expected += [f"strategy {r.strategy}: utility {r.utility:.12g} ratio {r.ratio:.12g}"
                     for r in out.records]
        return [f"CLI output lacks {line!r}" for line in expected if line not in lines]


@dataclass(frozen=True)
class ProfileItem:
    index: int
    profile: NoiseProfile
    restrict: tuple
    draws: tuple     # (base, i, j) per lemma witness


@dataclass(frozen=True)
class CertifyOutput:
    pairwise: list
    monotone: list
    setpair: list
    witnesses: list
    vectors: list


class Certify:
    """An item is every exhaustive check and a few lemma witnesses on one profile."""

    name = "certify"

    def __init__(self, size, seed):
        self.size = size
        self.seed = seed
        self.control_ok = True

    def build(self):
        size = self.size
        items = []
        for k in range(size.pool):
            rng = item_rng(self.seed, k)
            profile = NoiseProfile(rng.uniform(0.1, 10.0, size.channels), rng.uniform(0.1, 5.0))
            restrict = tuple(sorted(int(c) for c in rng.choice(size.channels, size.restrict, replace=False)))
            draws = []
            for _ in range(size.draws):
                perm = [int(c) for c in rng.permutation(size.channels)]
                nb = int(rng.integers(1, 5))
                draws.append((frozenset(perm[:nb]), perm[nb], perm[nb + 1]))
            items.append(ProfileItem(k, profile, restrict, tuple(draws)))
        return items

    @contextmanager
    def capturing(self):
        yield

    def run_control(self):
        """Whether the pairwise checker flags every triple of a supermodular control."""
        control = SetFunctionOracle(frozenset(range(CONTROL_ELEMENTS)), lambda s: float(len(s) ** 2))
        self.control_ok = len(submodular.check_submodular_pairwise(control)) == CONTROL_VIOLATIONS
        return self.control_ok

    def run(self, item):
        p = item.profile
        pairwise = submodular.check_submodular_pairwise(lemmas.rate_oracle(p))
        restricted = lemmas.rate_oracle(p.subset(item.restrict))
        monotone = submodular.check_monotone(restricted)
        setpair = submodular.check_setpair_submodular(restricted)
        witnesses = [lemmas.lemma_witness(p, base, i, j) for base, i, j in item.draws]
        vectors = [lemmas.build_majorization_vectors(w) for w in witnesses if w.case == MAIN_CASE]
        return CertifyOutput(pairwise, monotone, setpair, witnesses, vectors)

    def check(self, item, out):
        problems = []
        if not self.control_ok:
            problems.append("the supermodular control was not flagged, so no certificate holds")
        for name in ("pairwise", "monotone", "setpair"):
            if getattr(out, name):
                problems.append(f"{name} certificate is not empty")
        for w in out.witnesses:
            if w.case == MAIN_CASE and not all((
                    w.monotone_chain_holds, w.submodular_holds, w.decomposition_disjoint,
                    w.ordering_holds, w.sum_identity_holds, w.count_identity_holds,
                    w.product_inequality_holds)):
                problems.append(f"main-case witness flag false for {sorted(w.base)}, {w.elem_i}, {w.elem_j}")
        for a, b in out.vectors:
            if not majorizes(a, b):
                problems.append("majorization vectors are not ordered")
        return problems

    def reference_problems(self, item, out):
        problems = []
        for profile in (item.profile, item.profile.subset(item.restrict)):
            if not _close(references.bisection_rate(list(profile.noises), profile.budget),
                          waterfill(profile).rate):
                problems.append("bisection rate differs from waterfill")
        return problems

    def digest_bytes(self, item, out):
        summary = (len(out.pairwise), len(out.monotone), len(out.setpair),
                   [(w.case, w.rate, w.rate_ij, w.level_ij) for w in out.witnesses])
        return repr(summary).encode()

    def cli_argv(self, item):
        p = item.profile
        return ["check-submodular", "--noises", ",".join(repr(x) for x in p.noises),
                "--power", repr(p.budget)]

    def cli_problems(self, item, out, stdout):
        u = len(item.profile)
        line = f"pairwise: 0 violations in {u * (u - 1) // 2 * (1 << (u - 2))} triples"
        return [] if line in stdout.splitlines() else [f"CLI output lacks {line!r}"]


WORKLOADS = {cls.name: cls for cls in (OnlineGreedy, ExactOffline, Certify)}


def digest(workload, items, outputs, cli_stdout):
    """sha256 of the sampled items' outputs and the CLI counterpart's output."""
    h = hashlib.sha256()
    for item, out in zip(items, outputs):
        h.update(workload.digest_bytes(item, out))
    h.update(cli_stdout.encode())
    return h.hexdigest()
