import math
import re
import sys

import numpy as np
import pytest

from wfalloc import profiles
from wfalloc.profiles import (
    PROFILE_KINDS,
    ProfileSpec,
    generate,
    replay_from_csv,
    write_weights_csv,
)
from wfalloc.allocation import WeightMatrix


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown profile kind"):
        ProfileSpec("gaussian", 4, 4, 0)
    with pytest.raises(ValueError, match="at least 1"):
        ProfileSpec("iid_unit", 0, 4, 0)
    with pytest.raises(ValueError, match="m >= 3"):
        ProfileSpec("sparse_strong", 4, 2, 0)
    with pytest.raises(ValueError, match="m >= 3"):
        ProfileSpec("correlated", 4, 2, 0)
    with pytest.raises(ValueError, match="64-bit"):
        ProfileSpec("iid_unit", 4, 4, 2**64)
    for n, m in ((2.5, 2), (2, 2.0), ("3", 2)):
        with pytest.raises(ValueError, match="must be integers"):
            ProfileSpec("iid_unit", n, m, 0)
    for seed in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            ProfileSpec("iid_unit", 2, 2, seed)
    spec = ProfileSpec("iid_unit", np.int64(2), np.int64(3), np.uint64(5))
    assert generate(spec).weights.shape == (2, 3)
    # hyphenated spelling is accepted and normalized
    assert ProfileSpec("iid-ten", 2, 2, 0).kind == "iid_ten"


def test_range_containment_per_kind():
    for seed in (0, 1, 77, 2**63):
        for kind, high in (("iid_unit", 1.0), ("iid_ten", 10.0),
                           ("mixed_half", 10.0), ("sparse_strong", 10.0),
                           ("correlated", 10.0)):
            W = generate(ProfileSpec(kind, 9, 5, seed))
            assert W.weights.min() >= 0.0
            assert W.weights.max() <= high


def test_mixed_half_split():
    W = generate(ProfileSpec("mixed_half", 9, 6, 5))
    top = math.ceil(9 / 2)
    assert W.weights[top:].max() <= 5.0
    # with 30 draws on [0, 10) some should land above 5
    assert W.weights[:top].max() > 5.0


def test_sparse_strong_structure():
    W = generate(ProfileSpec("sparse_strong", 40, 8, 11))
    # at most 3 entries per row can exceed the weak range
    assert ((W.weights > 1.0).sum(axis=1) <= 3).all()
    assert (W.weights > 1.0).any()


def test_correlated_rows_are_two_tied_values():
    W = generate(ProfileSpec("correlated", 30, 6, 13))
    for row in W.weights:
        values = np.unique(row)
        assert len(values) <= 2
        if len(values) == 2:
            assert values[1] == pytest.approx(2 * values[0], rel=1e-12)
        strong = row == row.max()
        assert strong.sum() == 3 or len(values) == 1


def floyd_by_hand(rng, n, m):
    """Floyd's sampler row by row, from the same three column draws."""
    draws = [rng.integers(0, top, n, endpoint=True) for top in range(m - 3, m)]
    rows = []
    for u in range(n):
        picks = []
        for top, draw in zip(range(m - 3, m), draws):
            t = int(draw[u])
            picks.append(top if t in picks else t)
        rows.append(picks)
    return np.array(rows)


def test_three_picks_are_distinct_and_in_range():
    rng = np.random.default_rng(2026)
    for m in range(3, 17):
        picks = np.sort(profiles._three_picks(rng, 2000, m), axis=1)
        assert picks.shape == (2000, 3)
        assert picks[:, 0].min() >= 0 and picks[:, 2].max() < m
        assert (np.diff(picks, axis=1) > 0).all()


def test_generate_follows_its_documented_draw_order():
    # the reproducibility contract of the two kinds with 3 strong stations,
    # rebuilt from the docstring with a row-by-row sampler
    n, m, seed = 50, 7, 3
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, (n, m))
    strong = floyd_by_hand(rng, n, m)
    values = rng.uniform(0.0, 10.0, (n, 3))
    for u in range(n):
        w[u, strong[u]] = values[u]
    assert generate(ProfileSpec("sparse_strong", n, m, seed)) == WeightMatrix(w)

    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 10.0, (n, 1))
    strong = floyd_by_hand(rng, n, m)
    w = np.empty((n, m))
    for u in range(n):
        w[u] = v[u, 0] / 2.0
        w[u, strong[u]] = v[u, 0]
    assert generate(ProfileSpec("correlated", n, m, seed)) == WeightMatrix(w)


def test_three_picks_subsets_are_uniform():
    # chi-square over the C(5, 3) = 10 subsets of 5 stations, 10,000 rows
    # expected in each; 27.88 is the 99.9% point at 9 degrees of freedom
    n = 100_000
    picks = profiles._three_picks(np.random.default_rng(2027), n, 5)
    subsets = (1 << picks).sum(axis=1)  # a bitmask per row
    _, counts = np.unique(subsets, return_counts=True)
    assert len(counts) == math.comb(5, 3)
    expected = n / math.comb(5, 3)
    assert ((counts - expected) ** 2 / expected).sum() < 27.88


def test_three_picks_station_frequency():
    # each of 16 stations is in a row's subset with probability 3/16; at
    # 200,000 rows a 2% deviation is over 4 standard deviations
    n, m = 200_000, 16
    picks = profiles._three_picks(np.random.default_rng(2028), n, m)
    frequency = np.bincount(picks.ravel(), minlength=m) / n
    assert np.abs(frequency / (3 / m) - 1.0).max() <= 0.02


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_generate_draws_whole_matrices(monkeypatch):
    # every kind makes a fixed number of Generator calls, whatever n: no
    # per-user loop of draws
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(CountingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(profiles.np.random, "default_rng", counting_rng)
    for kind in PROFILE_KINDS:
        calls = []
        for n in (10, 2000):
            made.clear()
            generate(ProfileSpec(kind, n, 16, 5))
            assert len(made) == 1
            calls.append(made[0].calls)
        assert calls[0] == calls[1], kind


def test_determinism_and_seed_sensitivity():
    for kind in PROFILE_KINDS:
        a = generate(ProfileSpec(kind, 7, 5, 99))
        b = generate(ProfileSpec(kind, 7, 5, 99))
        c = generate(ProfileSpec(kind, 7, 5, 100))
        assert a == b
        assert a != c


def test_iid_ten_empirical_mean():
    W = generate(ProfileSpec("iid_ten", 200, 50, 12345))  # 10^4 samples
    assert abs(float(W.weights.mean()) - 5.0) <= 0.1


# --- CSV replay -----------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    W = generate(ProfileSpec("iid_ten", 12, 4, 321))
    path = tmp_path / "weights.csv"
    write_weights_csv(W, path)
    back = replay_from_csv(path)
    assert back == W
    # a second round trip is byte-identical
    path2 = tmp_path / "weights2.csv"
    write_weights_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_shape(tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(WeightMatrix([[1.5, 2.5]]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user,bs_1,bs_2"
    assert lines[1] == "0,1.5,2.5"


def test_replay_skips_blank_rows_and_counts_their_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("user,bs_1,bs_2\n0,1.0,2.0\n\n1,3.0,4.0\n")
    assert replay_from_csv(path) == WeightMatrix([[1.0, 2.0], [3.0, 4.0]])
    # line numbers count the blank rows: errors name the line of the file
    path.write_text("user,bs_1,bs_2\n0,1.0,2.0\n\n1,3.0,-4.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: SNRs must be nonnegative, got -4.0")):
        replay_from_csv(path)
    path.write_text("user,bs_1,bs_2\n\n0,1.0,2.0\n\n\n2,3.0,4.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 6: user cell must be 1, got '2'")):
        replay_from_csv(path)
    path.write_text("user,bs_1,bs_2\n0,1.0,2.0\n\n1,nan,-1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: SNRs must be finite, got nan")):
        replay_from_csv(path)


def test_replay_checks_each_snr_once(tmp_path, monkeypatch):
    # the rows are read unchecked and WeightMatrix checks each SNR once;
    # a check per row for its line, then WeightMatrix's, checked each twice
    checked = []
    snr_check = sys.modules["wfalloc.waterfill"]._check_snrs
    for module in [m for name, m in sys.modules.items() if name.startswith("wfalloc")]:
        if hasattr(module, "_check_snrs"):
            monkeypatch.setattr(module, "_check_snrs", lambda snrs: checked.append(np.size(snrs)) or snr_check(snrs))
    W = generate(ProfileSpec("iid_ten", 4, 3, 5))
    path = tmp_path / "w.csv"
    write_weights_csv(W, path)
    checked.clear()
    assert replay_from_csv(path) == W
    assert checked == [12]
    # a bad SNR is found by that one check, and named by its line
    path.write_text("user,bs_1,bs_2\n0,1.0,2.0\n\n1,3.0,4.0\n2,inf,-1.0\n3,-2.0,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: SNRs must be finite, got inf")):
        replay_from_csv(path)


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        replay_from_csv(empty)

    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("user,bs_1,bs_2\n")
    with pytest.raises(ValueError, match="no users"):
        replay_from_csv(headers_only)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("usr,bs_1\n0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        replay_from_csv(bad_header)

    bad_width = tmp_path / "bad_width.csv"
    bad_width.write_text("user,bs_1,bs_2\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        replay_from_csv(bad_width)

    # user cells are row indices: a file that relabels its users is rejected
    for cells, line, got in ((("7", "x"), 2, "'7'"), (("0", "x"), 3, "'x'"), (("0", "2"), 3, "'2'"),
                             (("0", " 1"), 3, "' 1'")):
        relabeled = tmp_path / "relabeled.csv"
        relabeled.write_text(f"user,bs_1\n{cells[0]},1.0\n{cells[1]},2.0\n")
        with pytest.raises(ValueError, match=f"line {line}: user cell must be {line - 2}, got {got}"):
            replay_from_csv(relabeled)

    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("user,bs_1\n0,fast\n")
    with pytest.raises(ValueError, match="line 2.*non-numeric"):
        replay_from_csv(bad_cell)

    negative = tmp_path / "negative.csv"
    negative.write_text("user,bs_1\n0,-1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        replay_from_csv(negative)

    with pytest.raises(OSError):
        replay_from_csv(tmp_path / "missing.csv")
