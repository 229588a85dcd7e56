import contextlib
import io
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfalloc import allocation, cli, experiments
from wfalloc.allocation import STRATEGIES, InstanceTooLargeError, competitive_ratio, run_strategy
from wfalloc.experiments import (
    RECORD_HEADER,
    ExperimentRecord,
    evaluate_strategies,
    format_records_csv,
    run_experiment,
    summarize,
    write_records_csv,
)
from wfalloc.profiles import ProfileSpec, generate


def test_zero_trials_yield_nothing_but_validate():
    assert run_experiment("iid_unit", 5, 2, 0) == []
    with pytest.raises(ValueError, match="unknown profile kind"):
        run_experiment("weird", 5, 2, 0)
    # no trial computes a reference, so only the up-front check rejects it
    with pytest.raises(ValueError, match="unknown reference kind 'exact'"):
        run_experiment("iid_unit", 5, 2, 0, reference_kind="exact")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        run_experiment("iid_unit", 5, 3, 0, strategies=("bogus",))


def test_bad_strategies_and_trials_are_rejected_before_any_work():
    # an unknown strategy is named before the too-large brute force is tried
    W = generate(ProfileSpec("iid_unit", 30, 4, 0))
    with pytest.raises(ValueError, match="unknown strategy 'best'"):
        evaluate_strategies(W, ("greedy", "best"), "brute_force_optimum",
                            trial=0, profile_name="iid-unit", seed=0)
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        run_experiment("iid_unit", 5, 2, -1)


def test_trials_must_be_an_integer():
    # checked like ProfileSpec checks n and m, before range() sees it
    for trials in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match=f"trials must be an integer, got {trials!r}"):
            run_experiment("iid_unit", 2, 2, trials)
    assert len(run_experiment("iid_unit", 2, 2, np.int64(2))) == 2


def test_records_are_deterministic_and_paired():
    kwargs = dict(strategies=("greedy", "max-weight"),
                  reference_kind="brute_force_optimum", seed=13)
    a = run_experiment("iid_ten", 6, 3, 4, **kwargs)
    b = run_experiment("iid_ten", 6, 3, 4, **kwargs)
    assert a == b
    assert [r.trial for r in a] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [r.strategy for r in a] == ["greedy", "max-weight"] * 4
    # paired trials share the matrix, hence the reference
    for g, m in zip(a[::2], a[1::2]):
        assert g.offline_bound == m.offline_bound
        assert g.seed == m.seed
    # against the exact optimum every ratio is >= 1 and greedy stays under 2
    for r in a:
        assert r.ratio >= 1.0 - 1e-9
        if r.strategy == "greedy":
            assert r.ratio <= 2.0 + 1e-9


def test_per_trial_seed_is_xor_of_base_and_index():
    records = run_experiment("iid_unit", 4, 2, 3, seed=12)
    assert [r.seed for r in records] == [12 ^ 0, 12 ^ 1, 12 ^ 2]
    # the recorded seed regenerates the matrix that produced the record
    r = records[2]
    W = generate(ProfileSpec("iid_unit", r.n, r.m, r.seed))
    again = evaluate_strategies(W, ("greedy",), r.reference_kind,
                                trial=r.trial, profile_name=r.profile, seed=r.seed)
    assert again == [r]


def test_only_max_weight_recomputes_its_utility(monkeypatch):
    # greedy reports the sum it carries; max-weight falls back to system_utility
    original, calls = allocation.system_utility, []

    def counted(alloc, W):
        calls.append(alloc)
        return original(alloc, W)

    for module in (allocation, experiments, cli):
        if hasattr(module, "system_utility"):
            monkeypatch.setattr(module, "system_utility", counted)
    W = generate(ProfileSpec("correlated", 6, 3, 0))
    recomputed = {s: original(run_strategy(s, W), W) for s in STRATEGIES}

    for strategy in STRATEGIES:
        calls.clear()
        report = competitive_ratio(W, strategy, "analytic_upper_bound")
        assert len(calls) == (strategy == "max-weight")
        assert report.online_utility == recomputed[strategy]

    # the benchmark's seam: evaluate_strategies runs each strategy through
    # the name bound in experiments and sees the Allocation itself
    seen, bound = [], experiments.run_strategy

    def run_and_keep(strategy, W):
        seen.append(bound(strategy, W))
        return seen[-1]

    monkeypatch.setattr(experiments, "run_strategy", run_and_keep)
    calls.clear()
    records = evaluate_strategies(W, STRATEGIES, "analytic_upper_bound",
                                  trial=0, profile_name="correlated", seed=0)
    assert calls == [seen[2]] and [a.m for a in seen] == [3, 3, 3]
    assert [r.utility for r in records] == [recomputed[s] for s in STRATEGIES]

    calls.clear()
    argv = ["simulate", "--users", "6", "--basestations", "3", "--profile", "correlated",
            "--reference", "analytic-upper"] + [f"--strategy={s}" for s in STRATEGIES]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert len(calls) == 1
    for strategy in STRATEGIES:
        assert f"strategy {strategy}: utility {experiments._fmt(recomputed[strategy])} " in out.getvalue()


def test_record_invariant_ratio_times_utility():
    records = run_experiment("mixed_half", 7, 3, 5,
                             strategies=("greedy", "greedy-absolute", "max-weight"),
                             reference_kind="analytic_upper_bound", seed=5)
    for r in records:
        if r.utility > 0:
            assert r.ratio * r.utility == pytest.approx(
                r.offline_bound, rel=1e-9)
        assert r.ratio >= 1.0 - 1e-9
        assert math.isfinite(r.ratio)
        assert r.profile == "mixed-half"


def test_bruteforce_reference_rejects_oversized_instances():
    with pytest.raises(InstanceTooLargeError, match="instance too large"):
        run_experiment("iid_unit", 30, 4, 1, reference_kind="brute_force_optimum")


def test_summarize_single_and_pair():
    one = ExperimentRecord(0, 4, 2, "iid-unit", "greedy", 2.0, 3.0,
                           "analytic_upper_bound", 1.5, 0)
    rows = summarize([one])
    assert len(rows) == 1
    assert rows[0].mean_ratio == rows[0].max_ratio == 1.5
    assert rows[0].trials == 1

    two = ExperimentRecord(1, 4, 2, "iid-unit", "greedy", 4.0, 5.0,
                           "analytic_upper_bound", 1.25, 1)
    rows = summarize([one, two])
    assert rows[0].mean_ratio == pytest.approx((1.5 + 1.25) / 2)
    assert rows[0].max_ratio == 1.5
    assert rows[0].mean_utility == pytest.approx(3.0)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.tuples(st.floats(0.0, 1e300), st.floats(1.0, 1e300)), min_size=1, max_size=12))
def test_summarize_means_are_fmean_bit_for_bit(pairs):
    # summarize leaves statistics unimported, yet its means are fmean's
    records = [ExperimentRecord(t, 4, 2, "iid-unit", "greedy", u, 1.0, "analytic_upper_bound", r, 0)
               for t, (u, r) in enumerate(pairs)]
    row, = summarize(records)
    assert row.mean_ratio.hex() == statistics.fmean(r for _, r in pairs).hex()
    assert row.mean_utility.hex() == statistics.fmean(u for u, _ in pairs).hex()


def test_summarize_orders_groups_and_rejects_empty():
    records = run_experiment("iid_unit", 4, 2, 2,
                             strategies=("max-weight", "greedy"), seed=2)
    rows = summarize(records)
    assert [(r.profile, r.strategy) for r in rows] == [
        ("iid-unit", "greedy"), ("iid-unit", "max-weight")]
    with pytest.raises(ValueError, match="no records"):
        summarize([])


def test_csv_format(tmp_path):
    records = run_experiment("iid_unit", 3, 2, 1, seed=9)
    text = format_records_csv(records)
    lines = text.split("\n")
    assert lines[0] == RECORD_HEADER
    assert lines[-1] == ""  # trailing newline
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[3] == "iid-unit" and cells[4] == "greedy"
    # reals carry at most 12 significant digits
    for cell in (cells[5], cells[6], cells[8]):
        mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 12
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert path.read_text() == text
    assert "\r" not in path.read_bytes().decode()
