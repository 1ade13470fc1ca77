import numpy as np
import pytest

from iadmm.core import DimensionError
from iadmm.matio import load_sparse01, save_sparse01


def test_sparse_round_trip(tmp_path):
    m = np.zeros((4, 3))
    m[0, 0] = m[2, 1] = m[3, 2] = 1.0
    path = tmp_path / "s.txt"
    save_sparse01(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "4 3 3"
    np.testing.assert_array_equal(load_sparse01(path), m)


def test_sparse_rejects_non_binary(tmp_path):
    with pytest.raises(DimensionError):
        save_sparse01(tmp_path / "s.txt", np.full((2, 2), 0.5))


def test_sparse_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2 2 1\n5 0\n")
    with pytest.raises(DimensionError):
        load_sparse01(path)


def test_sparse_empty_matrix(tmp_path):
    path = tmp_path / "s.txt"
    save_sparse01(path, np.zeros((3, 3)))
    assert load_sparse01(path).sum() == 0
