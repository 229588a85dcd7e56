import contextlib
import io
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfalloc
from wfalloc import cli, lemmas
from wfalloc.allocation import STRATEGIES, WeightMatrix, online_greedy
from wfalloc.cli import main
from wfalloc.experiments import RECORD_HEADER, _fmt, competitive_ratio, run_experiment, write_records_csv
from wfalloc.profiles import ProfileSpec, generate, write_weights_csv
from wfalloc.submodular import SubmodularityViolation, violations_to_csv
from wfalloc.waterfill import log_utility

from oracles import counting_order_subsets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- waterfill ------------------------------------------------------------

def test_waterfill_from_noises(capsys):
    code, out, _ = run_cli(capsys, "waterfill", "--noises", "1.0,2.0", "--power", "3.0")
    assert code == 0
    assert "water_level: 3" in out
    assert "power 0: 2" in out
    assert "power 1: 1" in out
    assert "rate_nats: 1.50407739678" in out


def test_waterfill_from_snrs_excludes_zero(capsys):
    code, out, _ = run_cli(capsys, "waterfill", "--snrs", "5,0", "--power", "1")
    assert code == 0
    assert "power 1: 0" in out
    assert f"rate_nats: {math.log(6.0):.12g}" in out


def test_waterfill_from_snrs_drops_infinite_noise(capsys):
    code, out, _ = run_cli(capsys, "waterfill", "--snrs", "1e-310,5")
    assert code == 0
    assert "active_set: 1\n" in out
    assert "power 0: 0\n" in out
    assert f"rate_nats: {math.log(6.0):.12g}" in out


def test_zero_snrs_and_infinite_noises_are_one_instance(capsys):
    # SNR w is a channel of noise 1/w, so a zero SNR is an infinite noise: never funded
    outs = []
    for argv in (["waterfill"], ["check-submodular", "--tolerance", "0"]):
        by_snrs = run_cli(capsys, *argv, "--snrs", "2,4,0", "--power", "2.5")
        assert by_snrs == run_cli(capsys, *argv, "--noises", "0.5,0.25,inf", "--power", "2.5")
        assert by_snrs[0::2] == (0, "")
        outs.append(by_snrs[1])
    assert outs == [
        "channels: 3\nbudget: 2.5\nwater_level: 1.625\nactive_set: 0 1\n"
        "power 0: 1.125\npower 1: 1.375\npower 2: 0\nrate_nats: 3.05045717324\n",
        "ground_set: 3 elements, tolerance 0\npairwise: 0 violations in 6 triples\n"
        "monotone: 0 violations\nsetpair: 0 violations\n"]


def test_waterfill_from_zero_snrs_funds_nothing(capsys):
    # nothing to fund at a positive budget: no level, rate 0
    code, out, _ = run_cli(capsys, "waterfill", "--snrs", "0,0", "--power", "1")
    assert code == 0
    assert "water_level: none" in out.splitlines()
    assert "rate_nats: 0" in out.splitlines()


def test_waterfill_from_csv_column(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_ten", 4, 2, 3)), path)
    code, out, _ = run_cli(capsys, "waterfill", "--input", str(path), "--basestation", "2")
    assert code == 0
    assert "channels: 4" in out


def test_waterfill_input_needs_basestation_before_any_read(capsys, tmp_path):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli(capsys, "waterfill", "--input", missing)
    assert (code, out, err) == (2, "", "error: --input needs --basestation to pick a column\n")
    code, out, err = run_cli(capsys, "waterfill", "--input", missing, "--basestation", "1")
    assert code == 4 and out == "" and "No such file" in err
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_ten", 4, 2, 3)), path)
    code, out, err = run_cli(capsys, "waterfill", "--input", str(path), "--basestation", "3")
    assert (code, out, err) == (2, "", "error: --basestation must be in 1..2\n")


def test_waterfill_needs_a_source(capsys):
    code, _, err = run_cli(capsys, "waterfill")
    assert code == 2
    assert "error:" in err


def test_instance_sources_are_exclusive(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_ten", 4, 3, 3)), path)
    rejected = [
        (["waterfill", "--snrs", "1,2", "--noises", "5,6"], "--noises or --snrs"),
        (["waterfill", "--input", str(path), "--basestation", "1", "--noises", "1"],
         "--noises or --input"),
        (["waterfill", "--noises", "5,6", "--basestation", "3"], "--noises or --basestation"),
        (["waterfill", "--snrs", "5,6", "--basestation", "3"], "--snrs or --basestation"),
        (["check-submodular", "--snrs", "1,2", "--noises", "5,6,7"], "--noises or --snrs"),
    ]
    for argv, flags in rejected:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: use either {flags}, not both\n"


def test_waterfill_rejects_non_finite_snrs(capsys):
    for snrs in ("nan,5", "5,inf"):
        code, out, err = run_cli(capsys, "waterfill", "--snrs", snrs)
        assert code == 2
        assert out == ""
        assert "SNRs must be finite" in err


def test_negative_snrs_are_rejected(capsys):
    # "--snrs -1,2" would read -1,2 as a flag: a list with a leading - needs "=";
    # -inf is negative too, but finiteness is checked first
    for command in ("waterfill", "check-submodular"):
        for snrs, err in (("-1,2", "SNRs must be nonnegative, got -1.0"),
                          ("1,-inf", "SNRs must be finite, got -inf")):
            assert run_cli(capsys, command, f"--snrs={snrs}") == (2, "", f"error: {err}\n")


def test_every_boundary_reports_the_one_snr_check(capsys, tmp_path):
    # the first bad SNR in row-major order, worded alike by the library,
    # --snrs and a replayed file (with its line)
    message = "SNRs must be nonnegative, got -1.0"
    for call in (lambda: WeightMatrix([[1.0, -1.0], [math.nan, 1.0]]),
                 lambda: log_utility(iter([1.0, -1.0, math.nan]))):
        with pytest.raises(ValueError, match=message):
            call()
    assert run_cli(capsys, "waterfill", "--snrs=1,-1,nan") == (2, "", f"error: {message}\n")
    path = tmp_path / "bad.csv"
    path.write_text("user,bs_1,bs_2\n0,1.0,-1.0\n1,nan,1.0\n")
    assert run_cli(capsys, "simulate", "--input", str(path)) == (2, "", f"error: {path}: line 2: {message}\n")


def test_waterfill_rejects_a_profile_with_an_unsolvable_subset(capsys):
    code, out, err = run_cli(capsys, "waterfill", "--noises", "1,1e308", "--power", "1e308")
    assert code == 2
    assert out == ""
    assert "water level overflows" in err


def test_waterfill_bad_noise_string(capsys):
    code, _, err = run_cli(capsys, "waterfill", "--noises", "1.0,abc")
    assert code == 2
    assert "comma-separated" in err


def test_empty_list_tokens_are_rejected(capsys):
    # a dropped token would shift every later channel id
    for flag, text in (("--snrs", "10,,5"), ("--noises", "1,2,"), ("--noises", "")):
        code, out, err = run_cli(capsys, "waterfill", flag, text)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} expects comma-separated numbers, got {text!r}\n"


# --- check-submodular -----------------------------------------------------

def test_check_submodular_reports_clean(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--noises", "1,2,4,8", "--power", "1")
    assert code == 0
    assert err == ""
    assert out == (
        "ground_set: 4 elements, tolerance 1e-09\n"
        "pairwise: 0 violations in 24 triples\n"
        "monotone: 0 violations\n"
        "setpair: 0 violations\n"
    )


def test_check_submodular_rejects_non_finite_tolerance(capsys):
    for tolerance in ("nan", "inf"):
        code, out, err = run_cli(capsys, "check-submodular", "--noises", "1,2,3",
                                 "--tolerance", tolerance)
        assert code == 2
        assert "0 violations" not in out
        assert "tolerance must be finite" in err


def test_check_submodular_snrs_and_dump(capsys, tmp_path):
    dump = tmp_path / "violations.csv"
    code, out, _ = run_cli(capsys, "check-submodular", "--snrs", "10,5,1",
                           "--output", str(dump))
    assert code == 0
    assert dump.read_text().startswith("base_set,i,j,lhs,rhs,gap")


def test_check_submodular_unwritable_output_prints_nothing(capsys, tmp_path):
    dump = tmp_path / "missing" / "violations.csv"
    code, out, err = run_cli(capsys, "check-submodular", "--noises", "1,2,3", "--output", str(dump))
    assert (code, out) == (4, "")
    assert err == f"error: [Errno 2] No such file or directory: '{dump}'\n"


def test_check_submodular_snrs_exact_stdout(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--snrs", "10,5,0")
    assert code == 0
    assert err == ""
    # the zero SNR stays in the ground set, unfunded
    assert out == (
        "ground_set: 3 elements, tolerance 1e-09\n"
        "pairwise: 0 violations in 6 triples\n"
        "monotone: 0 violations\n"
        "setpair: 0 violations\n"
    )


def test_check_submodular_snrs_tables_each_check_once(capsys, monkeypatch):
    waterfill_module, calls = sys.modules["wfalloc.waterfill"], []
    kernel = waterfill_module._subset_rates
    monkeypatch.setattr(waterfill_module, "_subset_rates", lambda *args: calls.append(1) or kernel(*args))
    monkeypatch.setattr(lemmas, "rate_of_subset", lambda *args: pytest.fail("solved a subset alone"))
    inverted, invert = [], cli._snr_noise_array
    monkeypatch.setattr(cli, "_snr_noise_array", lambda snrs: inverted.append(1) or invert(snrs))
    # the two SNRs' joint rate is one ulp below the first's alone; the zero
    # SNR and 1e-310, whose 1/w overflows, are never funded
    code, out, err = run_cli(capsys, "check-submodular", "--snrs",
                             "2.4558498082097246,0.7106355728699795,0,1e-310", "--tolerance", "0")
    assert (code, err) == (0, "")
    # the SNRs are inverted once, and the oracle builds its table once for all three checks
    assert len(inverted) == len(calls) == 1
    assert out == (
        "ground_set: 4 elements, tolerance 0\n"
        "pairwise: 0 violations in 24 triples\n"
        "monotone: 9 violations\n"
        "setpair: 0 violations\n"
    )


EDGE_SNRS = (0.0, 5e-324, 1e-310, 1e-300, math.exp(-700), math.exp(700), 1e300, 1.0, 2.0)


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.one_of(st.sampled_from(EDGE_SNRS), st.floats(0.0, 10.0)), min_size=1, max_size=8),
       st.sampled_from(("0", "1e-300", "1", "2.5")))
def test_check_submodular_snrs_table_is_evaluate_bit_for_bit(snrs, power):
    oracles = []
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(cli, "check_submodular_pairwise", lambda oracle, tolerance: oracles.append(oracle) or [])
        assert main(["check-submodular", f"--snrs={','.join(map(repr, snrs))}", "--power", power]) == 0
    oracle, = oracles
    table = oracle.table(sorted(oracle.ground_set))
    assert [v.hex() for v in table.tolist()] == \
        [float(oracle.evaluate(s)).hex() for s in counting_order_subsets(oracle.ground_set)]


def test_check_submodular_snrs_zero_power_certifies(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--snrs", "10,5,0", "--power", "0")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1:] == [
        "pairwise: 0 violations in 6 triples",
        "monotone: 0 violations",
        "setpair: 0 violations",
    ]


def test_check_submodular_certifies_subnormal_noises_at_the_default_tolerance(capsys):
    # the computed rates break monotonicity and submodularity by an ulp
    # here, which --tolerance 0 reports and the default 1e-9 absorbs
    argv = ["check-submodular", "--noises", "1e-310,1e-300,1e-300,1e-300,5e-324", "--power", "1e-300"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.splitlines()[1:] == [
        "pairwise: 0 violations in 80 triples",
        "monotone: 0 violations",
        "setpair: 0 violations",
    ]
    # set-pair compares sum against sum, so none of its 6 is a nested pair
    code, out, _ = run_cli(capsys, *argv, "--tolerance", "0")
    assert code == 0
    assert out.splitlines()[1:] == [
        "pairwise: 3 violations in 80 triples",
        "monotone: 9 violations",
        "setpair: 6 violations",
    ]


def test_minus_zero_budget_and_tolerance_print_as_zero(capsys):
    # -0.0 == 0.0, so nothing is computed differently; only the echo changes
    code, out, err = run_cli(capsys, "waterfill", "--snrs", "1,2", "--power", "-0.0")
    assert (code, err) == (0, "")
    assert out == ("channels: 2\nbudget: 0\nwater_level: none\nactive_set: \n"
                   "power 0: 0\npower 1: 0\nrate_nats: 0\n")
    code, out, err = run_cli(capsys, "check-submodular", "--noises", "1,2,3", "--tolerance", "-0.0")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "ground_set: 3 elements, tolerance 0"
    assert out.splitlines()[1:] == run_cli(capsys, "check-submodular", "--noises", "1,2,3",
                                           "--tolerance", "0")[1].splitlines()[1:]


def test_check_submodular_rejects_non_finite_snrs_before_checking(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--snrs", "nan,5")
    assert code == 2
    assert "ground_set:" not in out
    assert err == "error: SNRs must be finite, got nan\n"


def test_check_submodular_too_large(capsys):
    noises = ",".join(["1.0"] * 13)
    code, _, err = run_cli(capsys, "check-submodular", "--noises", noises)
    assert code == 3
    assert "ground set too large" in err


def test_check_submodular_skips_monotone_and_setpair_above_their_cap(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--noises", ",".join(["1.0"] * 9))
    assert (code, err) == (0, "")
    assert out.endswith("monotone: skipped (ground set above cap 8)\n"
                        "setpair: skipped (ground set above cap 8)\n")


def test_check_submodular_rejections_print_nothing(capsys):
    for noises, tolerance, code in (("1,2,3", "nan", 2), ("1,2,3", "-1", 2),
                                    (",".join(["1.0"] * 13), "1e-9", 3)):
        argv = ["check-submodular", "--noises", noises, "--tolerance", tolerance]
        assert run_cli(capsys, *argv)[:2] == (code, "")


# --- simulate -------------------------------------------------------------

def test_simulate_generated_instance(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--users", "5", "--basestations", "3",
                           "--profile", "iid-ten", "--seed", "4",
                           "--strategy", "greedy", "--strategy", "max-weight")
    assert code == 0
    assert "strategy greedy:" in out
    assert "strategy max-weight:" in out
    assert "bs_3:" in out


def test_simulate_replay(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_unit", 3, 2, 8)), path)
    code, out, _ = run_cli(capsys, "simulate", "--input", str(path))
    assert code == 0
    assert "users: 3" in out


def test_simulate_bruteforce_exact_stdout(capsys):
    code, out, err = run_cli(capsys, "simulate", "--users", "6", "--basestations", "3",
                             "--profile", "correlated", "--seed", "7",
                             "--strategy", "greedy", "--strategy", "max-weight",
                             "--reference", "brute-force")
    assert code == 0
    assert err == ""
    assert out == (
        "users: 6  basestations: 3\n"
        "reference (brute_force_optimum): 8.12596721377\n"
        "strategy greedy: utility 8.10708690013 ratio 1.00232886533\n"
        "  bs_1: 0 3\n"
        "  bs_2: 1 5\n"
        "  bs_3: 2 4\n"
        "strategy max-weight: utility 4.36525970827 ratio 1.86150830806\n"
        "  bs_1: 0 1 2 3 4 5\n"
        "  bs_2: \n"
        "  bs_3: \n"
    )


def test_simulate_runs_greedy_absolute_as_the_library_does(capsys):
    code, out, err = run_cli(capsys, "simulate", "--users", "6", "--basestations", "3",
                             "--profile", "correlated", "--strategy", "greedy",
                             "--strategy", "greedy-absolute", "--strategy", "max-weight")
    assert (code, err) == (0, "")
    W = generate(ProfileSpec("correlated", 6, 3, 0))
    report = competitive_ratio(W, "greedy-absolute", "analytic_upper_bound")
    lines = out.splitlines()
    at = lines.index(f"strategy greedy-absolute: utility {_fmt(report.online_utility)} ratio {_fmt(report.ratio)}")
    parts = online_greedy(W, "absolute_value").parts
    assert lines[at + 1:at + 1 + W.m] == [f"  bs_{k + 1}: {' '.join(str(u) for u in sorted(part))}"
                                          for k, part in enumerate(parts)]
    assert lines[at + 1 + W.m].startswith("strategy max-weight: ")
    # on this instance absolute greedy allocates otherwise than marginal greedy
    assert parts != online_greedy(W).parts


def test_simulate_sparse_strong_against_bruteforce(capsys):
    code, out, err = run_cli(capsys, "simulate", "--users", "6", "--basestations", "3",
                             "--profile", "sparse-strong", "--reference", "brute-force")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("reference (brute_force_optimum): ")


def test_simulate_needs_users_and_basestations_with_a_profile(capsys):
    code, out, err = run_cli(capsys, "simulate", "--profile", "iid-unit")
    assert (code, out) == (2, "")
    assert "need --input, or --profile with --users and --basestations" in err


def test_simulate_rejects_both_sources(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_unit", 3, 2, 8)), path)
    rejected = [(command, flags) for command in ("simulate", "ratio-experiment")
                for flags in (["--profile", "iid-unit"], ["--users", "99"], ["--basestations", "2"])]
    rejected += [("simulate", ["--seed", "3"]),
                 ("ratio-experiment", ["--trials", "1"]),
                 ("ratio-experiment", ["--users", "99", "--trials", "5"])]
    for command, flags in rejected:
        code, out, err = run_cli(capsys, command, "--input", str(path), *flags)
        assert code == 2
        assert out == ""
        assert f"either --input or {flags[0]}" in err


def test_simulate_bruteforce_one_station(capsys):
    code, out, err = run_cli(capsys, "simulate", "--users", "1200", "--basestations", "1",
                             "--profile", "iid-unit", "--reference", "brute-force")
    assert code == 0
    assert err == ""
    assert "ratio 1\n" in out


def test_simulate_bruteforce_too_large(capsys):
    code, _, err = run_cli(capsys, "simulate", "--users", "30", "--basestations", "4",
                           "--profile", "iid-ten", "--reference", "brute-force")
    assert code == 3
    assert "instance too large" in err


# --- ratio-experiment -----------------------------------------------------

def test_ratio_experiment_stdout(capsys):
    code, out, err = run_cli(capsys, "ratio-experiment", "--users", "6",
                             "--basestations", "3", "--trials", "2",
                             "--profile", "iid-ten", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == RECORD_HEADER
    assert len(lines) == 3
    assert "prng: numpy PCG64" in err
    assert "mean_ratio=" in err


def test_ratio_experiment_file_output_and_repeatability(capsys, tmp_path):
    argv = ["ratio-experiment", "--users", "8", "--basestations", "3",
            "--trials", "3", "--profile", "correlated",
            "--strategy", "greedy", "--strategy", "max-weight",
            "--reference", "brute-force", "--seed", "21"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *argv, "--output", str(first))[0] == 0
    assert run_cli(capsys, *argv, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_ratio_experiment_replay(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_unit", 4, 2, 8)), path)
    code, out, _ = run_cli(capsys, "ratio-experiment", "--input", str(path),
                           "--reference", "brute-force", "--seed", "7")
    assert code == 0
    assert ",replay,greedy," in out.splitlines()[1]
    assert out.splitlines()[1].endswith(",7")  # the seed is recorded, so it may go with --input


REPLAY_RECORDS = (
    "0,4,2,replay,greedy,1.31264836916,1.36554354977,brute_force_optimum,1.04029653475,{seed}\n"
    "0,4,2,replay,max-weight,1.36554354977,1.36554354977,brute_force_optimum,1,{seed}\n"
)


@pytest.mark.parametrize("seed", ["-1", str(2**64), "-5", str(2**70)])
def test_ratio_experiment_replay_rejects_a_seed_a_profile_rejects(capsys, tmp_path, seed):
    # a replayed seed is recorded in the CSV, so it obeys ProfileSpec's seed rule
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_unit", 4, 2, 8)), path)
    code, out, err = run_cli(capsys, "ratio-experiment", "--input", str(path), "--seed", seed)
    assert code == 2
    assert out == ""
    assert err == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"
    generated = run_cli(capsys, "ratio-experiment", "--users", "4", "--basestations", "2",
                        "--profile", "iid-unit", "--seed", seed)
    assert generated == (code, out, err)


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_ratio_experiment_replay_records_a_valid_seed(capsys, tmp_path, seed):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_unit", 4, 2, 8)), path)
    code, out, _ = run_cli(capsys, "ratio-experiment", "--input", str(path), "--seed", seed,
                           "--reference", "brute-force", "--strategy", "greedy",
                           "--strategy", "max-weight")
    assert code == 0
    assert out == RECORD_HEADER + "\n" + REPLAY_RECORDS.format(seed=seed)


def test_ratio_experiment_replay_with_overflowing_noises(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(WeightMatrix([[1e-310, 0.0], [1e-310, 1e-310]]), path)
    code, out, _ = run_cli(capsys, "ratio-experiment", "--input", str(path),
                           "--reference", "brute-force")
    assert code == 0
    assert out.splitlines()[1] == "0,2,2,replay,greedy,0,0,brute_force_optimum,1,0"


def test_ratio_experiment_missing_input_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "ratio-experiment", "--input",
                           str(tmp_path / "nope.csv"))
    assert code == 4
    assert "error:" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ratio-experiment", "--frobnicate"])
    assert exc.value.code == 2


# --- seeded argv fuzz -----------------------------------------------------

FUZZ_BAD_REALS = ("nan", "-inf", "-1", "0", "-0.0", "", "x", "1,2")
FUZZ_GOOD_REALS = ("0.5", "1", "2", "3", "inf", "1e-310", "5e-324", "1e308")


def fuzz_argv(rng, files):
    """One argv over the four subcommands and an unknown one, most values
    valid. Sizes stay small (users <= 8, basestations <= 4, channels <= 12,
    trials <= 3), or are values the CLI rejects before it builds anything."""
    def pick(valid, invalid):
        return rng.choice(valid if rng.random() < 0.85 else invalid)

    def reals():
        tokens = [rng.choice(FUZZ_GOOD_REALS[:4]) for _ in range(rng.randint(1, 11))]  # "1,2" may add one
        if rng.random() < 0.3:
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_GOOD_REALS[4:] + FUZZ_BAD_REALS)
        return ",".join(tokens)

    def size(high):
        return pick([str(k) for k in range(1, high + 1)], ("-1", "-7", "1.5", "x", ""))

    command = rng.choice(("waterfill", "check-submodular", "simulate", "ratio-experiment", "bogus"))
    flags = []
    if command in ("waterfill", "check-submodular"):
        sources = ["--noises", "--snrs"] + (["--input"] if command == "waterfill" else [])
        for source in rng.sample(sources, 1 if rng.random() < 0.9 else 2):
            flags.append((source, pick([files["weights"]], [files["garbage"], files["missing"], files["dir"]])
                          if source == "--input" else reals()))
        if command == "waterfill" and (("--input" in dict(flags)) != (rng.random() < 0.1)):
            flags.append(("--basestation", pick(("1", "2", "3"), ("0", "-1", "9", "x"))))
        flags.append(("--power", pick(("1", "2.5", "0.5", "0", "1e-310"), FUZZ_BAD_REALS + ("1e308",))))
        if command == "check-submodular":
            flags.append(("--tolerance", pick(("1e-9", "0", "1e-6", "-0.0"), ("nan", "inf", "-1", "x"))))
            if rng.random() < 0.3:
                flags.append(("--output", pick([files["violations"]], [files["dir"], files["no_dir"]])))
    elif command in ("simulate", "ratio-experiment"):
        if rng.random() < 0.2:
            flags.append(("--input", pick([files["weights"]], [files["garbage"], files["missing"], files["dir"]])))
        else:
            flags += [("--profile", pick(("iid-unit", "iid-ten", "mixed-half", "sparse-strong", "correlated"),
                                         ("iid_unit", "none"))),
                      ("--users", size(8)), ("--basestations", size(4))]
            if rng.random() < 0.5:
                flags.append(("--seed", pick(("0", "1", "5"), ("-1", "18446744073709551616", "x"))))
            if command == "ratio-experiment" and rng.random() < 0.5:
                flags.append(("--trials", size(3)))
        for _ in range(rng.randint(0, 3)):
            flags.append(("--strategy", pick(STRATEGIES, ("greedy_absolute", "best"))))
        if rng.random() < 0.5:
            flags.append(("--reference", pick(("brute-force", "analytic-upper"), ("exact",))))
        if command == "ratio-experiment" and rng.random() < 0.5:
            flags.append(("--output", pick(("-", files["records"]), (files["dir"], files["no_dir"]))))
    if flags and rng.random() < 0.1:
        del flags[rng.randrange(len(flags))]
    if rng.random() < 0.05:
        flags.append(("--frobnicate", "1"))
    return [command] + [token for flag in flags for token in flag]


def test_seeded_argv_fuzz_exits_with_a_documented_code(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any relative path an argv names lands here
    files = {"weights": tmp_path / "w.csv", "garbage": tmp_path / "garbage.csv",
             "missing": tmp_path / "missing.csv", "dir": tmp_path, "no_dir": tmp_path / "no" / "out.csv",
             "violations": tmp_path / "violations.csv", "records": tmp_path / "records.csv"}
    write_weights_csv(generate(ProfileSpec("iid_unit", 4, 3, 1)), files["weights"])
    files["garbage"].write_text("not,a\nweight matrix\n")
    files = {name: str(path) for name, path in files.items()}
    rng = random.Random(20)
    ok = dict.fromkeys(("waterfill", "check-submodular", "simulate", "ratio-experiment"), 0)
    for _ in range(400):
        argv = fuzz_argv(rng, files)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        if code:
            assert "error:" in err, argv
        elif argv[0] in ok:
            ok[argv[0]] += 1
    assert all(ok.values()), ok


def test_module_entry_point_runs():
    # run the package under test, wherever pytest imported it from
    src = str(Path(wfalloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "wfalloc", "waterfill", "--noises", "1.0", "--power", "1.0"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "water_level: 2" in proc.stdout


def test_csv_writers_write_a_path_as_they_write_a_stream(tmp_path):
    # one sink for all three: a stream is written as given and left open, a
    # path is opened as UTF-8 with no newline translation
    W = generate(ProfileSpec("iid_ten", 3, 2, 5))
    violation = SubmodularityViolation(frozenset({0}), 1, 2, 0.5, 1.5, 1.0)
    for write, what, lines, crlf in ((write_weights_csv, W, 4, False),
                                     (write_records_csv, run_experiment("iid_unit", 2, 2, 2), 3, False),
                                     (violations_to_csv, [violation], 2, True)):
        path, stream = tmp_path / "out.csv", io.StringIO()
        write(what, path)
        write(what, stream)
        assert not stream.closed
        text = stream.getvalue()
        assert path.read_bytes() == text.encode()
        assert (text.count("\n"), text.count("\r\n")) == (lines, lines if crlf else 0)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands():
    """Each ``wfalloc ...`` command of README's CLI block, as argv after the
    program name, with backslash-continued lines joined."""
    block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("wfalloc ")]


def test_every_readme_cli_command_exits_zero(capsys, tmp_path, monkeypatch):
    # keeps the documented commands in step with the CLI
    monkeypatch.chdir(tmp_path)
    write_weights_csv(generate(ProfileSpec("iid_ten", 6, 3, 7)), "weights.csv")
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["waterfill"] * 3 + ["check-submodular"] * 2 + [
        "simulate", "ratio-experiment"]
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "violations.csv").exists() and (tmp_path / "records.csv").exists()
