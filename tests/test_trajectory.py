"""Trajectory container and its CSV rendering."""

import numpy as np
import pytest

from diffusim import TrajectoryTable, trajectory
from diffusim.errors import DomainError
from diffusim.trajectory import format_value


def small_table(with_spread: bool = False) -> TrajectoryTable:
    times = np.array([0.0, 1.0, 2.0])
    s = np.array([[30.0, 42.0], [29.0, 41.0], [28.0, 40.0]])
    a = np.array([[20.0, 8.0], [21.0, 9.0], [22.0, 10.0]])
    dd = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]])
    if not with_spread:
        return TrajectoryTable(times=times, s=s, a=a, dd=dd)
    z = np.full((3, 2), 0.125)
    return TrajectoryTable(times=times, s=s, a=a, dd=dd, sd_s=z, sd_a=z, sd_dd=z)


def test_group_count_and_spread_flag():
    assert small_table().m == 2
    assert not small_table().has_spread
    assert small_table(with_spread=True).has_spread


def test_total_active_sums_groups():
    np.testing.assert_allclose(small_table().total_active(), [28.0, 30.0, 32.0])


def test_times_must_increase_strictly():
    with pytest.raises(DomainError):
        TrajectoryTable(times=np.array([0.0, 1.0, 1.0]), s=np.zeros((3, 1)),
                        a=np.zeros((3, 1)), dd=np.zeros((3, 1)))


def test_row_counts_must_agree():
    with pytest.raises(DomainError):
        TrajectoryTable(times=np.array([0.0, 1.0]), s=np.zeros((3, 1)),
                        a=np.zeros((3, 1)), dd=np.zeros((3, 1)))


def test_populations_must_be_finite_and_nonnegative():
    with pytest.raises(DomainError):
        TrajectoryTable(times=np.array([0.0, 1.0]), s=np.array([[1.0], [-0.5]]),
                        a=np.zeros((2, 1)), dd=np.zeros((2, 1)))
    with pytest.raises(DomainError):
        TrajectoryTable(times=np.array([0.0, 1.0]), s=np.array([[1.0], [np.nan]]),
                        a=np.zeros((2, 1)), dd=np.zeros((2, 1)))


def test_spread_blocks_are_all_or_none():
    z = np.zeros((3, 2))
    with pytest.raises(DomainError):
        TrajectoryTable(times=np.array([0.0, 1.0, 2.0]), s=z, a=z, dd=z, sd_s=z)


def test_csv_header_with_and_without_spread():
    assert small_table().csv_header() == "time,S_1,S_2,A_1,A_2,D_1,D_2"
    assert small_table(with_spread=True).csv_header() == (
        "time,S_1,S_2,A_1,A_2,D_1,D_2,sd_S_1,sd_S_2,sd_A_1,sd_A_2,sd_D_1,sd_D_2"
    )


def test_csv_rows_use_nine_significant_digits():
    assert format_value(0.024166666666666666) == "0.0241666667"
    assert format_value(2.0) == "2"
    table = small_table()
    rows = list(table.csv_rows())
    assert rows[0] == "0,30,42,20,8,0,0"
    assert rows[1].split(",")[0] == "1"
    assert len(rows) == 3


def test_write_csv_uses_unix_newlines(tmp_path):
    path = tmp_path / "out.csv"
    small_table().write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "time,S_1,S_2,A_1,A_2,D_1,D_2"
    assert len(lines) == 4


@pytest.mark.parametrize("rows_at_once", [3, 256])
@pytest.mark.parametrize("with_spread", [False, True])
def test_csv_rows_have_the_bytes_of_one_numpy_scalar_at_a_time(with_spread, rows_at_once, monkeypatch):
    # the rows are formatted from Python floats, a few rows at a time; they must
    # read as the numpy float64 scalars did, -0.0, subnormals and 17-digit values included
    monkeypatch.setattr(trajectory, "_CSV_ROWS", rows_at_once)
    odd = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1 + 0.2, 1.0 / 3.0, 2.0**53 + 2, 1.7976931348623157e308]
    rng = np.random.default_rng(5)
    cells = np.abs(rng.standard_normal((8, 12))) * 10.0 ** rng.integers(-12, 12, (8, 12))
    cells[np.arange(8), np.arange(8)] = odd
    cells[3] = -0.0
    times = np.array(odd[:6] + [2.0, 1e16 + 2])
    blocks = np.split(cells, 6, axis=1)
    table = TrajectoryTable(times, *blocks[:3], *(blocks[3:] if with_spread else ()))
    columns = [table.times[:, None], table.s, table.a, table.dd] + (blocks[3:] if with_spread else [])
    want = [",".join(format_value(v) for block in columns for v in block[r]) for r in range(8)]
    assert list(table.csv_rows()) == want
    assert want[3].startswith("1e-300,-0,-0,") and want[1].startswith("4.94065646e-324,")
