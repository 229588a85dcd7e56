import math

import numpy as np
import pytest

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
    assert generate(ProfileSpec("iid_unit", np.int64(2), np.int64(3), 0)).weights.shape == (2, 3)
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
