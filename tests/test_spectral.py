"""Tests for the Hermitian eigendecomposition and spectral matrix functions."""

import numpy as np
import pytest

from fermarkov.errors import NotHermitian, SingularMatrix
from fermarkov.spectral import (
    eig_hermitian,
    mat_exp,
    mat_func,
    mat_imaginary_pow,
    mat_log,
    mat_pow,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_positive(dim, seed, floor=0.1):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.linalg.eigvalsh(m)[-1] + floor * np.eye(dim)


def test_identity_case():
    dec = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert np.max(np.abs(dec.reconstruct() - np.eye(2))) <= 1e-12


def test_diagonal_case_sorted_ascending():
    dec = eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0])
    assert np.max(np.abs(dec.reconstruct() - np.diag([3.0, 1.0]))) <= 1e-12


def test_random_reconstruction_and_unitarity():
    m = random_hermitian(8, 0)
    dec = eig_hermitian(m)
    assert np.max(np.abs(dec.reconstruct() - m)) <= 1e-10
    u = dec.eigenvectors
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
    assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


def test_phase_convention_is_deterministic():
    m = random_hermitian(6, 3)
    u1 = eig_hermitian(m).eigenvectors
    u2 = eig_hermitian(m.copy()).eigenvectors
    assert np.array_equal(u1, u2)


def test_not_hermitian_raises():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        eig_hermitian(bad)


def test_log_of_identity_is_zero():
    assert np.max(np.abs(mat_log(np.eye(4, dtype=complex)))) <= 1e-14


def test_imaginary_pow_of_identity():
    for t in (0.0, 0.5, -2.3):
        assert np.max(np.abs(mat_imaginary_pow(np.eye(3, dtype=complex), t) - np.eye(3))) <= 1e-14


def test_pow_diagonal_sqrt():
    out = mat_pow(np.diag([4.0, 9.0]).astype(complex), 0.5)
    assert np.max(np.abs(out - np.diag([2.0, 3.0]))) <= 1e-12


def test_exp_log_roundtrip():
    m = random_positive(8, 1)
    assert np.max(np.abs(mat_exp(mat_log(m)) - m)) <= 1e-9


def test_imaginary_pow_unitary_and_group_law():
    m = random_positive(8, 2)
    for t in (0.1, 0.7, -1.3):
        u = mat_imaginary_pow(m, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-10
    for s, t in ((0.3, 0.4), (-0.8, 1.1)):
        lhs = mat_imaginary_pow(m, s) @ mat_imaginary_pow(m, t)
        rhs = mat_imaginary_pow(m, s + t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_spectrum_floor_violations():
    singular = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrix):
        mat_log(singular)
    with pytest.raises(SingularMatrix):
        mat_pow(singular, -0.5)
    with pytest.raises(SingularMatrix):
        mat_imaginary_pow(singular, 0.3)
    # nonnegative powers of PSD matrices are fine
    assert np.max(np.abs(mat_pow(singular, 0.5) - singular)) <= 1e-12


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        mat_func(np.eye(2, dtype=complex), "sinh")

