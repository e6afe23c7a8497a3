"""The numpy Sobol sampler against scipy.stats.qmc, its boundary, and the
light import it makes possible."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

import globinv
from globinv import indicators
from globinv.errors import OutOfRange
from globinv.indicators import _sobol, _unit_directions

SEEDS = [0, 1, 12345, 2**31 - 1]


@pytest.mark.parametrize(
    "d, size",
    [(1, 64), (2, 256), (2, 4096), (3, 1024), (3, 16384), (4, 256), (7, 128),
     (32, 64), (33, 256), (512, 64), (1, 16384), (2, 16384),
     # the ladder's one draw per check: C8 and PS on a 2-D map, C17 at two levels
     (3, 1536), (3, 4608)],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_sobol_matches_scipy_bitwise(d, size, seed):
    batch = 1 << (size - 1).bit_length()  # a power of two, as scipy asks
    ref = qmc.Sobol(d=d, scramble=True, seed=seed).random(batch)[:size]
    got = _sobol(d, size, seed)
    assert got.dtype == np.float64 and got.shape == (size, d)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("count", [1, 2, 3, 5, 100])
def test_sobol_count_is_a_prefix_of_the_power_of_two_batch(count):
    size = 1 << max(count - 1, 0).bit_length()
    ref = qmc.Sobol(d=3, scramble=True, seed=7).random(size)[:count]
    assert np.array_equal(_sobol(3, count, 7), ref)


@pytest.mark.parametrize(
    "d, count, start",
    [(3, 128, 384), (3, 512, 1024), (3, 256, 4352), (2, 100, 896), (1, 1, 6), (5, 3, 12), (4, 0, 3), (33, 128, 640)],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_sobol_start_is_an_aligned_slice_of_scipy(d, count, start, seed):
    """An aligned start gives rows [start, start + count) of the sequence."""
    size = 1 << (start + count - 1).bit_length()  # a power of two, as scipy asks
    ref = qmc.Sobol(d=d, scramble=True, seed=seed).random(size)[start : start + count]
    got = _sobol(d, count, seed, start)
    assert got.shape == (count, d)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("count, start", [(4, 2), (4, -4), (4, 4.0), (4, True), (3, 6), (1, 2**30), (4, 2**30 - 2)])
def test_sobol_rejects_an_unaligned_start(count, start):
    with pytest.raises(OutOfRange, match="start"):
        _sobol(2, count, 0, start)


@pytest.mark.parametrize("d", [0, -1, 21202, 2.0, True])
def test_sobol_rejects_a_dimension_outside_the_table(d):
    # 21202 raised scipy's ValueError before; it is past the table's 21201 rows
    with pytest.raises(OutOfRange, match="dimension"):
        _sobol(d, 4, 0)


@pytest.mark.parametrize("count", [-1, 2**30 + 1, np.nan, 4.0, True])
def test_sobol_rejects_a_bad_count(count):
    with pytest.raises(OutOfRange, match="count"):
        _sobol(2, count, 0)


def test_sobol_takes_numpy_integers():
    assert np.array_equal(_sobol(np.int64(3), np.int32(5), 2), _sobol(3, 5, 2))


@pytest.mark.parametrize("d", [1, 3])
def test_sobol_zero_count_is_empty(d):
    out = _sobol(d, 0, 5)
    assert out.shape == (0, d) and out.dtype == np.float64


@pytest.fixture
def fresh_sobol_caches():
    indicators._sobol_table.cache_clear()
    indicators._direction_numbers.cache_clear()
    indicators._direction_bits.cache_clear()
    yield
    indicators._sobol_table.cache_clear()
    indicators._direction_numbers.cache_clear()
    indicators._direction_bits.cache_clear()


def test_sobol_missing_table_names_its_path(tmp_path, monkeypatch, fresh_sobol_caches):
    missing = str(tmp_path / "no_such_table.npz")
    monkeypatch.setattr(indicators, "_SOBOL_TABLE", missing)
    with pytest.raises(FileNotFoundError, match="no_such_table.npz"):
        _sobol(2, 4, 0)


def test_unit_directions_send_a_zero_row_to_e1():
    # a row of exact halves maps to z = 0 under the normal quantile
    u = np.array([[0.5, 0.5, 0.5], [0.2, 0.7, 0.9], [0.5, 0.5, 0.5], [0.6, 0.1, 0.3]])
    out = _unit_directions(u)
    assert np.array_equal(out[[0, 2]], np.tile([1.0, 0.0, 0.0], (2, 1)))
    for i in (1, 3):
        z = ndtri(u[i])
        assert np.array_equal(out[i], z / np.linalg.norm(z))
        assert np.array_equal(out[i], _unit_directions(u[i : i + 1])[0])


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    # a fresh interpreter: pytest and the test modules import scipy.stats here
    src = os.path.dirname(os.path.dirname(globinv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, globinv, globinv.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
