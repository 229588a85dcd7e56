import math
import subprocess
import sys

import pytest

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


def test_waterfill_rejects_non_finite_snrs(capsys):
    for snrs in ("nan,5", "5,inf"):
        code, out, err = run_cli(capsys, "waterfill", "--snrs", snrs)
        assert code == 2
        assert out == ""
        assert "SNRs must be finite" in err


def test_waterfill_bad_noise_string(capsys):
    code, _, err = run_cli(capsys, "waterfill", "--noises", "1.0,abc")
    assert code == 2
    assert "comma-separated" in err


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


def test_check_submodular_too_large(capsys):
    noises = ",".join(["1.0"] * 13)
    code, _, err = run_cli(capsys, "check-submodular", "--noises", noises)
    assert code == 3
    assert "ground set too large" in err


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
    for command in ("simulate", "ratio-experiment"):
        code, out, err = run_cli(capsys, command, "--input", str(path),
                                 "--profile", "iid-unit")
        assert code == 2
        assert out == ""
        assert "either --input or --profile" in err


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
                           "--reference", "brute-force")
    assert code == 0
    assert ",replay,greedy," in out.splitlines()[1]


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
    proc = subprocess.run(
        [sys.executable, "-m", "wfalloc", "waterfill", "--noises", "1.0", "--power", "1.0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "water_level: 2" in proc.stdout
