# src/fermarkov/hs.py

"""Hilbert-Schmidt geometry on matrix space.

All inner products are taken with respect to the normalized trace
tau(x) = Tr(x) / D on D x D matrices, so the identity has norm 1 and the
basis elements stored throughout the package are tau-orthonormal.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RANK_RTOL


def hs_norm(x: np.ndarray) -> float:
    """Frobenius norm normalized so that ||I|| = 1."""
    return float(np.linalg.norm(x) / np.sqrt(x.shape[-1]))


def flatten(stack: np.ndarray) -> np.ndarray:
    """(m, D, D) stack -> (m, D*D) rows; m may be 0."""
    return stack.reshape(stack.shape[0], stack.shape[-2] * stack.shape[-1])


def unflatten(rows: np.ndarray, dim: int) -> np.ndarray:
    """(m, D*D) rows -> (m, D, D) stack."""
    return rows.reshape(-1, dim, dim)


def orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (standard inner product) of the row span: the right
    singular vectors whose singular value exceeds RANK_RTOL * s_max.

    The stack is factored as rows^H = Q R first.  Then rows = R^H Q^H, so the
    small SVD R^H = U S W^H gives the singular values of rows and their right
    singular vectors as the rows of W^H Q^H; only the kept ones are formed.
    Neither step squares the rows into a Gram matrix, so the cut stays a cut
    on singular values.
    """
    if rows.shape[0] == 0:
        return rows
    q, r = np.linalg.qr(rows.conj().T)
    _, s, wh = np.linalg.svd(r.conj().T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return wh[:0] @ q.conj().T
    return wh[s > RANK_RTOL * s[0]] @ q.conj().T


def orthonormalize(stack: np.ndarray) -> np.ndarray:
    """tau-orthonormal basis of the span of a (m, D, D) stack."""
    dim = stack.shape[-1]
    rows = orthonormal_rows(flatten(stack))
    # standard-orthonormal rows have tau-norm 1/sqrt(D)
    return unflatten(rows * np.sqrt(dim), dim)


def coeffs(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tau-inner-product coefficients of x against a tau-orthonormal stack."""
    dim = x.shape[-1]
    # conj the small vector, not the big stack
    return (flatten(basis) @ x.reshape(-1).conj()).conj() / dim


def project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the span of a tau-orthonormal stack."""
    c = coeffs(basis, x)
    return (c @ flatten(basis)).reshape(x.shape)


def project_stack(basis: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Project every matrix of a stack onto the span of a tau-orthonormal stack."""
    dim = stack.shape[-1]
    rows = flatten(stack)
    b = flatten(basis)
    # conj the smaller operand: a conjugated copy of a large basis is the
    # largest allocation of a projection
    if rows.shape[0] < b.shape[0]:
        c = (rows.conj() @ b.T).conj()
    else:
        c = rows @ b.conj().T
    return unflatten((c / dim) @ b, dim)


def residual_norms(basis: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tau-norm of the component of each stack element orthogonal to the span."""
    res = stack - project_stack(basis, stack)
    return np.linalg.norm(flatten(res), axis=1) / np.sqrt(stack.shape[-1])


def hermitian_part(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2
