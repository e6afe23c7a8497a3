"""The numpy Sobol sampler against scipy.stats.qmc, the numpy normal
quantile against scipy.special.ndtri, their boundaries, and the light
import they make possible."""

import collections
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
from globinv.indicators import _EXP_M2, _normal_quantile, _sobol, _unit_directions, unit_ball_sets

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
    monkeypatch.setattr(indicators, "_scipy_sobol_table", lambda: missing)
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


def _ulps(a, b):
    """The distance in ulp between two float arrays of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_normal_quantile_matches_scipy_ndtri():
    """Bit for bit on the centre e^-2 < u <= 1 - e^-2, where only products,
    sums and quotients enter; in the tails np.log may round a logarithm
    apart from the C library's log, which scipy calls (numpy 2.4 with
    AVX-512 on x86-64: 2.4e-4 of 1.2e8 tail values, by at most 6 ulp).
    A wrong coefficient or operation moves far more of them.  Outside
    [1e-12, 1 - 1e-12], down to 0 and up to 1, u reads as the nearer clip
    edge."""
    rng = np.random.default_rng(20)
    edges = [1e-12, 1.0 - 1e-12, _EXP_M2, 1.0 - _EXP_M2]
    u = np.concatenate([
        rng.random(1_000_000),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
    ])
    u = u[(u >= 1e-12) & (u <= 1.0 - 1e-12)]
    got = _normal_quantile(u.copy())
    ref = ndtri(u)
    centre = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    assert 0.7 < centre.mean() < 0.75
    assert np.array_equal(got[centre].view(np.uint64), ref[centre].view(np.uint64))
    assert np.all(np.sign(got) == np.sign(u - 0.5))
    assert _ulps(got[~centre], ref[~centre]).max() <= 8
    assert np.mean(got[~centre] != ref[~centre]) < 1e-3
    assert _normal_quantile(np.array([0.5])).tobytes() == np.array([0.0]).tobytes()
    low = np.concatenate([10.0 ** -rng.uniform(12.0, 300.0, 10_000), [np.nextafter(1e-12, 0.0), 5e-324, 0.0]])
    assert np.array_equal(_normal_quantile(low).view(np.uint64), np.full(low.size, ndtri(1e-12)).view(np.uint64))
    high = np.array([np.nextafter(1.0 - 1e-12, 1.0), 1.0])
    assert np.array_equal(_normal_quantile(high), _normal_quantile(np.full(2, 1.0 - 1e-12)))


def test_normal_quantile_is_odd():
    """q(1 - u) = -q(u) bit for bit wherever 1 - u is exact: for u >= 1/2,
    and for u a multiple of 2^-53."""
    rng = np.random.default_rng(21)
    u = np.concatenate([0.5 + 0.5 * rng.random(500_000), rng.integers(1, 2**52, 500_000) * 2.0**-53])
    assert np.array_equal(_normal_quantile(1.0 - u), -_normal_quantile(u.copy()))


def test_normal_quantile_works_in_place_on_a_stack():
    u = np.random.default_rng(22).random((300, 700))
    ref = ndtri(u)
    out = _normal_quantile(u)
    assert np.shares_memory(out, u) and out.shape == (300, 700)
    centre = (ref > -1.1) & (ref < 1.1)
    assert np.array_equal(out[centre], ref[centre])
    assert np.allclose(out, ref, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_dimensional_directions_are_signs_of_the_quantile_route(seed):
    """For one column, the sign of u - 1/2 (with u = 1/2 sent to +1) is
    bit for bit the quantile route: ndtri, then divide by the norm."""
    u = np.vstack([_sobol(1, 4096, seed), [[0.5], [np.nextafter(0.5, 0.0)], [1e-13], [1.0 - 1e-13]]])
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    z[norms == 0.0], norms[norms == 0.0] = 1.0, 1.0
    ref = z / norms[:, None]
    got = _unit_directions(u)
    assert got.shape == (len(u), 1)
    assert got.tobytes() == ref.tobytes()


def test_unit_ball_sets_derive_the_scramble_once(monkeypatch):
    """A check drawn in several chunks derives its scramble once; each
    chunk still draws through _sobol, which the work tools count."""
    calls = collections.Counter()
    for name in ("_scramble", "_sobol"):
        fn = getattr(indicators, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(indicators, name, counted)
    monkeypatch.setattr(indicators, "_DRAW_FLOATS", 2 * 128 * 4)
    assert len(list(unit_ball_sets(3, 100, 4, 9))) == 5
    assert calls == collections.Counter(_scramble=1, _sobol=5)


def test_import_loads_no_scipy_module():
    """A fresh interpreter imports globinv and its CLI without scipy: the
    Sobol table is located by find_spec and read when first drawn."""
    src = os.path.dirname(os.path.dirname(globinv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, globinv, globinv.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
