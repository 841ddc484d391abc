"""Ensemble samplers: determinism, moments, and Haar-measure checks."""

import numpy as np
import pytest

from gsvdist import RngStream, sample_ginibre, sample_haar_unitary
from gsvdist.errors import DimensionError, ParameterError


def test_ginibre_shape_and_finite():
    z = sample_ginibre(2, 3, RngStream(5))
    assert z.shape == (2, 3)
    assert z.dtype == np.complex128
    assert np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))


def test_ginibre_determinism():
    rng = RngStream(42, 7)
    a = sample_ginibre(4, 5, rng)
    b = sample_ginibre(4, 5, RngStream(42, 7))
    np.testing.assert_array_equal(a, b)


def test_ginibre_streams_differ():
    # seeds and indices at or past 2^64 do not wrap onto small ones
    for one, other in (((42, 0), (42, 1)), ((2**64, 0), (0, 0)), ((0, 2**64), (0, 0))):
        a = sample_ginibre(4, 4, RngStream(*one))
        b = sample_ginibre(4, 4, RngStream(*other))
        assert not np.allclose(a, b)


@pytest.mark.parametrize("count", [None, 7])
def test_ginibre_bit_identical_to_two_draw_formula(count):
    # reference: all real parts, then all imaginary parts, combined through
    # a complex temporary and scaled afterwards
    shape = (3, 4) if count is None else (count, 3, 4)
    gen = RngStream(13).generator()
    expected = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) * np.sqrt(0.5)
    got = sample_ginibre(3, 4, RngStream(13), count=count)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_ginibre_second_moment():
    # Monte Carlo moment oracle: E|x|^2 = 1 under the variance-1/2 convention
    n = 100_000
    z = sample_ginibre(1, 1, RngStream(42), count=n)
    assert abs(float(np.mean(np.abs(z) ** 2)) - 1.0) < 4.0 / np.sqrt(n)
    # tighter illustrative bound on its own committed seed
    z = sample_ginibre(1, 1, RngStream(0), count=n)
    assert abs(float(np.mean(np.abs(z) ** 2)) - 1.0) < 0.01


def test_ginibre_rejects_zero_dims():
    with pytest.raises(DimensionError):
        sample_ginibre(0, 3, RngStream(1))
    with pytest.raises(DimensionError):
        sample_ginibre(3, 0, RngStream(1))
    with pytest.raises(DimensionError) as info:
        sample_ginibre(3, 3, RngStream(1), count=0)
    assert type(info.value) is DimensionError and str(info.value) == "count must be >= 1, got 0"
    with pytest.raises(TypeError) as info:
        sample_ginibre(3, 3, "1")
    assert str(info.value) == "expected RngStream or numpy Generator, got str"


def test_haar_dim_one_unit_modulus():
    u = sample_haar_unitary(1, RngStream(3))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    u = sample_haar_unitary(4, RngStream(11))
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


def test_haar_rejects_zero_dim():
    with pytest.raises(DimensionError):
        sample_haar_unitary(0, RngStream(1))


def test_haar_column_uniformity():
    # first-entry mass of a Haar column is Beta(1, dim-1): mean 1/dim
    n = 100_000
    u = sample_haar_unitary(3, RngStream(42), count=n)
    mean_p = float(np.mean(np.abs(u[:, 0, 0]) ** 2))
    assert abs(mean_p - 1.0 / 3.0) < 0.005


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_haar_trace_moments(dim):
    # Diaconis-Shahshahani: for dim >= 2, tr U has mean 0 with real and
    # imaginary parts of variance 1/2 each, and |tr U|^2 has mean 1 and
    # variance 1.  Column phases move both means, so a draw without the
    # phase step (the plain QR factor) fails here.
    n = 20_000
    u = sample_haar_unitary(dim, RngStream(31, dim), count=n)
    tr = np.trace(u, axis1=1, axis2=2)
    z = [
        tr.real.mean() / np.sqrt(0.5 / n),
        tr.imag.mean() / np.sqrt(0.5 / n),
        (np.mean(np.abs(tr) ** 2) - 1.0) / np.sqrt(1.0 / n),
    ]
    assert np.all(np.abs(z) <= 4.0), z


def _ks_two_sample_stat(x, y):
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def test_haar_left_invariance_smoke():
    # multiplying by a fixed unitary must not change |U_11|^2 in distribution
    n = 20_000
    dim = 3
    u = sample_haar_unitary(dim, RngStream(2024, 0), count=n)
    v = np.fft.fft(np.eye(dim)) / np.sqrt(dim)  # fixed deterministic unitary
    u2 = sample_haar_unitary(dim, RngStream(2024, 1), count=n)
    rotated = np.einsum("ij,njk->nik", v, u2)
    stat = _ks_two_sample_stat(
        np.abs(u[:, 0, 0]) ** 2, np.abs(rotated[:, 0, 0]) ** 2
    )
    critical = 1.628 * np.sqrt(2.0 / n)
    assert stat < critical


def test_substream_independence_and_nesting():
    root = RngStream(9, 3)
    s0, s1 = root.substream(0), root.substream(1)
    assert s0 != s1
    a = sample_ginibre(3, 3, s0)
    b = sample_ginibre(3, 3, s1)
    assert not np.allclose(a, b)
    # replayable
    np.testing.assert_array_equal(a, sample_ginibre(3, 3, root.substream(0)))
    with pytest.raises(ParameterError):
        s0.substream(0)
    with pytest.raises(ParameterError):
        root.substream(-1)
    with pytest.raises(ParameterError):
        RngStream(9, 1 << 31).substream(0)


def test_substreams_disjoint_from_top_level():
    derived = RngStream(9, 0).substream(3)
    top = RngStream(9, 3)
    assert derived.stream_index != top.stream_index
    a = sample_ginibre(2, 2, derived)
    b = sample_ginibre(2, 2, top)
    assert not np.allclose(a, b)
