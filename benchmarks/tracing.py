"""Span tracing of wfalloc's public functions from outside the library.

Modules import functions by name (``allocation`` does ``from .waterfill
import log_utility``), so a wrapper is installed in every wfalloc module
namespace that holds the original, and removed again on exit. Each span
records its name, start, end, parent span, the item it belongs to and one
integer fact about the call (``Tracer.wrap``'s ``fact``). Spans stay in
compact arrays until the run ends.
"""

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import wfalloc
from wfalloc import allocation, cli, experiments, lemmas, profiles, submodular
from wfalloc.lemmas import MAIN_CASE
from wfalloc.submodular import SetFunctionOracle

SETUP_ITEM = -1
CLI_ITEM = -2

SUBSET_SPAN = "waterfill.NoiseProfile.subset"
EVAL_SPAN = "lemmas.rate_oracle.eval"
CLI_SPAN = "cli.main"
GENERATE_SPAN = "profiles.generate"

# The package re-exports the function ``waterfill`` under its module's name.
waterfill = sys.modules["wfalloc.waterfill"]
_MODULES = (wfalloc, allocation, cli, experiments, lemmas, profiles, submodular, waterfill)


def _ground_subsets(args, result):
    return 1 << len(args[0].ground_set)


# (module, attribute, span name, fact recorded per call)
TRACED = (
    (waterfill, "log_utility", "waterfill.log_utility", lambda a, r: len(a[0])),
    (waterfill, "waterfill", "waterfill.waterfill", None),
    (allocation, "online_greedy", "allocation.online_greedy",
     lambda a, r: sum(len(p) for p in r.parts)),
    (allocation, "max_weight", "allocation.max_weight", None),
    (allocation, "system_utility", "allocation.system_utility", None),
    (allocation, "offline_bruteforce", "allocation.offline_bruteforce", None),
    (allocation, "offline_upper_bound", "allocation.offline_upper_bound", None),
    (submodular, "check_submodular_pairwise", "submodular.check_submodular_pairwise", _ground_subsets),
    (submodular, "check_setpair_submodular", "submodular.check_setpair_submodular", _ground_subsets),
    (submodular, "check_monotone", "submodular.check_monotone", _ground_subsets),
    (lemmas, "lemma_witness", "lemmas.lemma_witness", lambda a, r: int(r.case == MAIN_CASE)),
    (lemmas, "build_majorization_vectors", "lemmas.build_majorization_vectors", None),
    (profiles, "generate", GENERATE_SPAN, None),
    (experiments, "evaluate_strategies", "experiments.evaluate_strategies", None),
    (experiments, "format_records_csv", "experiments.format_records_csv",
     lambda a, r: len(r.encode())),
)


class Tracer:
    """Records nested spans; ``active`` off makes every wrapper a plain call."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.fact = array("q")
        self.stack = [-1]
        self.item_id = SETUP_ITEM
        self.active = False

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, fact=None):
        nid = self.name_id(name)
        stack = self.stack
        names, parents, items = self.name.append, self.parent.append, self.item.append
        starts, ends, facts = self.start.append, self.end, self.fact

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            items(self.item_id)
            ends.append(0)
            facts.append(0)
            stack.append(idx)
            starts(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if fact is not None:
                facts[idx] = fact(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function in each namespace that imported it."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module, attr, span, fact in TRACED:
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, fact)
            for mod in _MODULES:
                if getattr(mod, attr, None) is original:
                    patch(mod, attr, wrapper)
        patch(waterfill.NoiseProfile, "subset",
              self.wrap(SUBSET_SPAN, waterfill.NoiseProfile.subset))

        rate_oracle = lemmas.rate_oracle

        def traced_rate_oracle(profile):
            oracle = rate_oracle(profile)
            return SetFunctionOracle(oracle.ground_set, self.wrap(EVAL_SPAN, oracle.evaluate))

        for mod in _MODULES:
            if getattr(mod, "rate_oracle", None) is rate_oracle:
                patch(mod, "rate_oracle", traced_rate_oracle)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def spans(self):
        """Span arrays (views: record no spans while they are alive)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "fact": np.frombuffer(self.fact, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


# Traced functions that call other traced functions on some workload; they
# report self time on every workload so that each prints the same names.
SELF_TIMED = (
    "allocation.online_greedy",
    "allocation.system_utility",
    "allocation.offline_bruteforce",
    "submodular.check_submodular_pairwise",
    "submodular.check_setpair_submodular",
    "submodular.check_monotone",
    "lemmas.lemma_witness",
    "experiments.evaluate_strategies",
)


def layer_metrics(tracer, item_scale):
    """Per-layer metrics from the recorded spans: name -> (value, unit).

    ``item_scale[k]`` converts traced item k's wall times to scaled times;
    set-up and CLI spans take the median factor. Counts and busy and self
    times are means per traced loop item, except ``profiles.generate``
    (set-up totals) and ``cli.main`` (totals over the in-process CLI calls).
    A span's self time is its duration minus the durations of its child
    spans.
    """
    s = tracer.spans()
    names = tracer.names
    missing = len(names)
    items = len(item_scale)
    factor = np.append(np.asarray(item_scale, dtype=float), np.median(item_scale))
    dur = (s["end_ns"] - s["start_ns"]) / 1e9 * factor[np.where(s["item"] >= 0, s["item"], items)]
    parent = s["parent"].astype(np.int64)
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    nid = s["name"].astype(np.int64)
    parent_nid = np.full(len(dur), missing, dtype=np.int64)
    parent_nid[nested] = nid[parent[nested]]
    fact = s["fact"].astype(float)
    loop, setup, in_cli = s["item"] >= 0, s["item"] == SETUP_ITEM, s["item"] == CLI_ITEM

    def idx(name):
        return names.index(name) if name in names else missing

    def total(mask, weights=None):
        w = None if weights is None else weights[mask]
        return np.bincount(nid[mask], weights=w, minlength=missing + 1)

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    def calls_under(child, parent_name):
        return np.count_nonzero(loop & (nid == idx(child)) & (parent_nid == idx(parent_name)))

    calls, busy, own, facts = (total(loop) / items, total(loop, dur) / items,
                               total(loop, self_time) / items, total(loop, fact))
    out = {}
    for name in [t[2] for t in TRACED if t[2] != GENERATE_SPAN] + [SUBSET_SPAN]:
        out[f"{name}.calls"] = (float(calls[idx(name)]), "calls/item")
        out[f"{name}.busy_s"] = (float(busy[idx(name)]), "s/item")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (float(own[idx(name)]), "s/item")

    log_i, greedy_i = idx("waterfill.log_utility"), idx("allocation.online_greedy")
    brute_i, eval_i = idx("allocation.offline_bruteforce"), idx(EVAL_SPAN)
    witness_i, csv_i = idx("lemmas.lemma_witness"), idx("experiments.format_records_csv")
    subsets = sum(facts[idx(t[2])] for t in TRACED if t[0] is submodular)
    out["waterfill.log_utility.mean_len"] = (ratio(facts[log_i], calls[log_i] * items), "snrs/call")
    out["allocation.online_greedy.scores_per_arrival"] = (
        ratio(calls_under("waterfill.log_utility", "allocation.online_greedy"), facts[greedy_i]),
        "calls/arrival")
    out["allocation.offline_bruteforce.part_solves"] = (
        ratio(calls_under("waterfill.log_utility", "allocation.offline_bruteforce"), items),
        "solves/item")
    out["submodular.oracle_evals"] = (float(calls[eval_i]), "evals/item")
    out["submodular.oracle_evals_per_subset"] = (ratio(calls[eval_i] * items, subsets), "ratio")
    out["lemmas.rate_oracle.eval_busy_s"] = (float(busy[eval_i]), "s/item")
    out["lemmas.main_case_ratio"] = (ratio(facts[witness_i], calls[witness_i] * items), "ratio")
    out["experiments.format_records_csv.bytes"] = (ratio(facts[csv_i], items), "bytes/item")

    gen_i = idx(GENERATE_SPAN)
    out[f"{GENERATE_SPAN}.calls"] = (int(total(setup)[gen_i]), "count")
    out[f"{GENERATE_SPAN}.busy_s"] = (float(total(setup, dur)[gen_i]), "s")
    cli_i = idx(CLI_SPAN)
    out["cli.main.calls"] = (int(total(in_cli)[cli_i]), "count")
    out["cli.main.busy_s"] = (float(total(in_cli, dur)[cli_i]), "s")
    out["cli.main.self_s"] = (float(total(in_cli, self_time)[cli_i]), "s")
    return out
