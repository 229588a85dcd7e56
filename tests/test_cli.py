import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wfalloc
from wfalloc.allocation import WeightMatrix
from wfalloc.cli import main
from wfalloc.experiments import RECORD_HEADER
from wfalloc.profiles import ProfileSpec, generate, write_weights_csv


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


def test_waterfill_from_csv_column(capsys, tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(generate(ProfileSpec("iid_ten", 4, 2, 3)), path)
    code, out, _ = run_cli(capsys, "waterfill", "--input", str(path), "--basestation", "2")
    assert code == 0
    assert "channels: 4" in out


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


def test_check_submodular_snrs_zero_power_certifies(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "--snrs", "10,5,0", "--power", "0")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1:] == [
        "pairwise: 0 violations in 6 triples",
        "monotone: 0 violations",
        "setpair: 0 violations",
    ]


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
        "reference (brute_force_optimum): 6.12844613164\n"
        "strategy greedy: utility 6.09072098531 ratio 1.00619387203\n"
        "  bs_1: 0\n"
        "  bs_2: 1 4\n"
        "  bs_3: 2 3 5\n"
        "strategy max-weight: utility 3.14524374127 ratio 1.94848051082\n"
        "  bs_1: 0 1 2 3 4 5\n"
        "  bs_2: \n"
        "  bs_3: \n"
    )


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
