# src/fermarkov/spectral.py

"""Hermitian eigendecomposition and spectral matrix functions.

Everything downstream (entropies, fractional powers, modular flow unitaries)
goes through these two entry points, so the hermiticity and faithfulness
tolerances live here.  Natural logarithms throughout; entropies derived from
these functions are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, SingularMatrix

TOL_HERM = 1e-10        # max entrywise |M - M^*| accepted as self-adjoint
EPS_FAITHFUL = 1e-12    # spectrum floor below which log / negative powers fail
TOL_FACTOR_HERM = 1e-7  # self-adjointness defect of a common factor, relative to 1 + its norm
TOL_FACTOR_POS = 1e-9   # negative eigenvalue of a common factor that is read as rounding


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors as unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def apply(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^* for given spectral values."""
        u = self.eigenvectors
        return (u * values) @ u.conj().T

    def log_radius(self) -> float:
        """|log m|_2 of a positive definite matrix, from its spectrum."""
        return float(np.abs(np.log(self.eigenvalues)).max())

    def func(
        self,
        kind: str,
        param: float | None = None,
        *,
        eps_faithful: float = EPS_FAITHFUL,
    ) -> np.ndarray:
        """mat_func of the decomposed matrix, from this decomposition: a caller
        that needs several functions of one matrix decomposes it once."""
        w = self.eigenvalues
        if kind == "exp":
            return self.apply(np.exp(w))
        if kind == "log":
            _require_floor(w, eps_faithful, "log")
            return self.apply(np.log(w))
        if kind == "imaginary_pow":
            if param is None:
                raise ValueError("imaginary_pow requires the exponent t")
            _require_floor(w, eps_faithful, "imaginary_pow")
            return self.apply(np.exp(1j * param * np.log(w)))
        if kind == "pow":
            if param is None:
                raise ValueError("pow requires the exponent s")
            s = float(param)
            if s < 0:
                _require_floor(w, eps_faithful, f"pow({s})")
            elif s != int(s):
                if w.size and w[0] < -TOL_HERM:
                    raise SingularMatrix(
                        f"pow({s}) of indefinite matrix: min eigenvalue {w[0]:.3e}"
                    )
                w = np.clip(w, 0.0, None)
            return self.apply(np.power(w, s))
        raise ValueError(f"unknown matrix function tag {kind!r}")


def require_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > TOL_HERM:
        raise NotHermitian(f"{what} deviates from self-adjointness by {defect:.3e} > {TOL_HERM:.1e}")


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a self-adjoint matrix.

    Eigenvalues come out ascending; the eigenvectors are eigh's, each column's
    phase as LAPACK returns it (deterministic for one input and build, not
    normalized): nothing reads a phase, as functions form U f(lambda) U^* and
    relative entropies read |U^* V|^2.  Raises NotHermitian when the input is
    not self-adjoint within TOL_HERM.
    """
    require_hermitian(m)
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    return SpectralDecomposition(w, u)


def mat_func(
    m: np.ndarray,
    kind: str,
    param: float | None = None,
    *,
    eps_faithful: float = EPS_FAITHFUL,
) -> np.ndarray:
    """Spectral function U f(lambda) U^* of a self-adjoint matrix.

    kind is one of "log", "exp", "pow" (param = exponent s) and
    "imaginary_pow" (param = t, returning the unitary m^{it}).  log, negative
    and imaginary powers require the spectrum to stay above eps_faithful.
    """
    return eig_hermitian(m).func(kind, param, eps_faithful=eps_faithful)


def _require_floor(w: np.ndarray, eps: float, what: str) -> None:
    if w.size and w[0] <= eps:
        raise SingularMatrix(f"{what}: min eigenvalue {w[0]:.3e} <= floor {eps:.1e}")


def mat_log(m: np.ndarray, **kw) -> np.ndarray:
    return mat_func(m, "log", **kw)


def mat_exp(m: np.ndarray, **kw) -> np.ndarray:
    return mat_func(m, "exp", **kw)


def mat_pow(m: np.ndarray, s: float, **kw) -> np.ndarray:
    return mat_func(m, "pow", s, **kw)


def mat_imaginary_pow(m: np.ndarray, t: float, **kw) -> np.ndarray:
    """The unitary m^{it} for positive definite m."""
    return mat_func(m, "imaginary_pow", t, **kw)
