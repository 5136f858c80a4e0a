import numpy as np
import pytest

from decohist.linalg import (
    as_matrix,
    exp_generator,
    herm_eig,
    max_abs,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_herm_eig_sigma_z():
    w, _ = herm_eig(SIGMA_Z)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_sigma_x_eigenvectors():
    w, v = herm_eig(SIGMA_X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    # phase convention: largest-magnitude component real-positive (ties -> first)
    np.testing.assert_allclose(v[:, 0], [s, -s], atol=1e-14)
    np.testing.assert_allclose(v[:, 1], [s, s], atol=1e-14)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(8)
    m = _random_matrix(rng, 4)
    h = m + m.conj().T
    w, v = herm_eig(h)
    assert max_abs((v * w) @ v.conj().T - h) <= 1e-10
    assert max_abs(v @ v.conj().T - np.eye(4)) <= 1e-10
    assert np.all(np.diff(w) >= 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_exp_generator_zero():
    np.testing.assert_allclose(exp_generator(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-14)


def test_exp_generator_sigma_z_pi():
    # exp(-i sigma_z pi) = diag(e^{-i pi}, e^{i pi}) = -I
    u = exp_generator(SIGMA_Z, np.pi)
    assert max_abs(u + np.eye(2)) <= 1e-12


def test_exp_generator_unitary():
    rng = np.random.default_rng(9)
    m = _random_matrix(rng, 5)
    h = m + m.conj().T
    u = exp_generator(h, 0.7)
    assert max_abs(u @ u.conj().T - np.eye(5)) <= 1e-10


def test_exp_generator_group_property():
    rng = np.random.default_rng(10)
    m = _random_matrix(rng, 4)
    h = m + m.conj().T
    lhs = exp_generator(h, 0.3 + 0.9)
    rhs = exp_generator(h, 0.3) @ exp_generator(h, 0.9)
    assert max_abs(lhs - rhs) <= 1e-10


def test_exp_generator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        exp_generator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[1j * np.inf, 0], [0, 1]]))
