# src/fermarkov/entropy.py

"""State densities, restrictions, entropies and the strong-subadditivity gap.

Two pictures of a restriction to a site set I coexist, and the scale between
them matters.  Up to the signed permutation W of I (car.matrix_units), the
algebra of I is the tensor factor M_{2^|I|} x 1:

  - small picture: the partial trace rho_I of W^* rho W over the complement
    factor, a 2^|I| x 2^|I| density with unit trace;
  - embedded picture: E_I(rho) = W (rho_I x 1) W^* / 2^{n - |I|}, the
    density (unit trace w.r.t. the full Tr) of the state composed with the
    conditional expectation.

So log E_I(rho) = W (log rho_I x 1) W^* - |I^c| log 2, and the SSA report
reads every restriction once, in its own factor.

All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import hs
from .car import CarAlgebra, RegionPartition, cond_expect, matrix_units, parity_automorphism
from .errors import InvariantViolation, NotFaithful, SingularReference
from .spectral import (
    EPS_FAITHFUL,
    SpectralDecomposition,
    eig_hermitian,
    require_hermitian,
)

TOL_EQUALITY = 1e-8   # gap below which the entropy inequality counts as saturated
TOL_TRACE = 1e-10
TOL_PSD = 1e-12
TOL_CROSS = 1e-8      # entropy gap against its relative-entropy cross-check
TOL_GAP_NEG = 1e-9    # negative entropy gap still accepted as roundoff
TOL_EVEN = 1e-10      # parity defect accepted as "even state"


@dataclass(frozen=True, eq=False)
class StateDensity:
    """Faithful-or-not density matrix on the full algebra, Tr rho = 1."""

    alg: CarAlgebra
    rho: np.ndarray
    min_eig: float

    @classmethod
    def from_matrix(cls, alg: CarAlgebra, rho: np.ndarray) -> "StateDensity":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (alg.dim, alg.dim):
            raise ValueError(f"density shape {rho.shape} does not match dimension {alg.dim}")
        if not np.isfinite(rho).all():
            raise ValueError("density has non-finite entries")
        require_hermitian(rho, "density")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"density trace {tr!r} deviates from 1 by more than {TOL_TRACE}")
        w = np.linalg.eigvalsh(hs.hermitian_part(rho))
        if w[0] < -TOL_PSD:
            raise ValueError(f"density has negative eigenvalue {w[0]:.3e}")
        return cls(alg, hs.hermitian_part(rho), float(w[0]))

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def is_faithful(self) -> bool:
        return self.min_eig > EPS_FAITHFUL

    def require_faithful(self, what: str = "state") -> None:
        if not self.is_faithful:
            raise NotFaithful(f"{what}: min eigenvalue {self.min_eig:.3e} <= {EPS_FAITHFUL:.1e}")

    def parity_defect(self) -> float:
        """Entrywise deviation of rho from its parity conjugate, computed once per state."""
        if "_parity_defect" not in vars(self):
            vars(self)["_parity_defect"] = float(np.max(np.abs(self.rho - parity_automorphism(self.alg, self.rho))))
        return vars(self)["_parity_defect"]

    def is_even(self, tol: float = TOL_EVEN) -> bool:
        return self.parity_defect() <= tol


@dataclass(frozen=True)
class SsaReport:
    """Entropy combination S(AB) + S(BC) - S(ABC) - S(B) and its verdict."""

    gap: float
    s_total: float
    s_ab: float
    s_bc: float
    s_b: float
    saturated: bool
    tol_equality: float
    cross_residual: float


def restrict_density(state: StateDensity, region: Iterable[int]) -> np.ndarray:
    """Unit-trace density of the restriction on the 2^|I|-dimensional algebra."""
    return _restriction(state, region, np.linalg.eigvalsh)[0]


def _restriction(state: StateDensity, region: Iterable[int], decompose):
    """(rho_I, decompose(rho_I)), rho_I validated as a density from that spectrum."""
    region = tuple(sorted(int(i) for i in region))
    small = hs.hermitian_part(matrix_units(state.alg, region).trace_pairings(state.rho))
    spectrum = decompose(small)
    w = getattr(spectrum, "eigenvalues", spectrum)
    if w[0] < -1e-10 or abs(np.trace(small).real - 1.0) > 1e-8:
        raise InvariantViolation(
            f"restriction to {region} not a density: min eig {w[0]:.3e}, trace {np.trace(small).real!r}"
        )
    return small, spectrum


def embedded_restriction(state: StateDensity, region: Iterable[int]) -> np.ndarray:
    """E_I(rho): the density of the state composed with the conditional
    expectation, as a unit-trace element of the full algebra."""
    return hs.hermitian_part(cond_expect(state.alg, state.rho, region))


def vn_entropy(density: np.ndarray) -> float:
    """-sum lambda log lambda in nats, with 0 log 0 = 0."""
    return _entropy_of(np.linalg.eigvalsh(hs.hermitian_part(np.asarray(density, dtype=complex))))


def _entropy_of(eigenvalues: np.ndarray) -> float:
    w = np.clip(eigenvalues, 0.0, None)
    return float(-np.sum(_xlogx(w)))


def _xlogx(w: np.ndarray) -> np.ndarray:
    """w log w entrywise for w >= 0, with 0 log 0 = 0; a NaN stays NaN."""
    return w * np.log(np.where(w > 0.0, w, 1.0))


def rel_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma) in nats; sigma must be faithful."""
    dr = eig_hermitian(np.asarray(rho, dtype=complex))
    ds = eig_hermitian(np.asarray(sigma, dtype=complex))
    return _rel_entropy_of(dr, ds)


def _rel_entropy_of(dr: SpectralDecomposition, ds: SpectralDecomposition) -> float:
    """rel_entropy from the decompositions of rho and sigma."""
    if ds.eigenvalues[0] <= EPS_FAITHFUL:
        raise SingularReference(
            f"reference density min eigenvalue {ds.eigenvalues[0]:.3e} <= {EPS_FAITHFUL:.1e}"
        )
    lam = np.clip(dr.eigenvalues, 0.0, None)
    overlaps = np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2
    term1 = float(np.sum(_xlogx(lam)))
    term2 = float(lam @ overlaps @ np.log(ds.eigenvalues))
    return term1 - term2


def ssa_gap(
    state: StateDensity,
    regions: RegionPartition,
    *,
    tol_equality: float = TOL_EQUALITY,
) -> SsaReport:
    """Gap of the strong subadditivity combination for the given regions.

    The gap is computed from the four restriction entropies and cross-checked
    against the equivalent difference of relative entropies of the embedded
    restrictions; a disagreement beyond TOL_CROSS raises InvariantViolation.
    """
    return _ssa_report(state, regions, tol_equality)[0]


def _ssa_report(
    state: StateDensity, regions: RegionPartition, tol_equality: float
) -> tuple[SsaReport, SpectralDecomposition]:
    """ssa_gap's report together with the decomposition of rho_BC its
    cross-check read.  The only D x D spectral call is rho's eigvalsh."""
    state.require_faithful()
    if regions.n_sites != state.alg.n_sites:
        raise ValueError("regions do not match the state's site count")
    s_total = vn_entropy(state.rho)
    s_ab = _entropy_of(_restriction(state, regions.AB, np.linalg.eigvalsh)[1])
    (_, dec_bc), (_, dec_b) = (_restriction(state, r, eig_hermitian) for r in (regions.BC, regions.B))
    s_bc, s_b = _entropy_of(dec_bc.eigenvalues), _entropy_of(dec_b.eigenvalues)
    gap = s_ab + s_bc - s_total - s_b

    # alt = D(rho || E_BC rho) - D(E_AB rho || E_B rho).  With log E_I(rho) =
    # W (log rho_I x 1) W^* - |I^c| log 2, and Tr E_AB(rho) z = Tr rho z for z
    # in A_B, the log 2 terms cancel; each Tr rho log E_I(rho) is a D^2 inner
    # product of rho with the scattered small log, not rho_I's entropy
    def log_pairing(region: tuple[int, ...], dec: SpectralDecomposition) -> float:
        log = dec.func("log", eps_faithful=EPS_FAITHFUL / dec.eigenvalues.size)
        return float(np.vdot(matrix_units(state.alg, region).iso_from_small(log), state.rho).real)

    alt = s_ab - s_total - log_pairing(regions.BC, dec_bc) + log_pairing(regions.B, dec_b)
    cross_residual = abs(gap - alt)
    if cross_residual > TOL_CROSS:
        raise InvariantViolation(
            f"entropy gap {gap:.3e} disagrees with relative-entropy route by {cross_residual:.3e}"
        )
    report = SsaReport(
        gap=float(gap),
        s_total=s_total,
        s_ab=s_ab,
        s_bc=s_bc,
        s_b=s_b,
        saturated=gap <= tol_equality,
        tol_equality=tol_equality,
        cross_residual=float(cross_residual),
    )
    return report, dec_bc


def cocycle(rho: np.ndarray, sigma: np.ndarray, t: float) -> np.ndarray:
    """u_t = rho^{it} sigma^{-it}; unitary for faithful positive inputs.

    Any positive rescaling of either input only changes u_t by a phase, so
    membership tests against subalgebra spans are scale independent.
    """
    dr = eig_hermitian(np.asarray(rho, dtype=complex))
    ds = eig_hermitian(np.asarray(sigma, dtype=complex))
    wr, ws = dr.eigenvalues, ds.eigenvalues
    if wr[0] <= EPS_FAITHFUL or ws[0] <= EPS_FAITHFUL:
        raise NotFaithful(
            f"cocycle needs faithful densities: min eigs {wr[0]:.3e}, {ws[0]:.3e}"
        )
    return dr.func("imaginary_pow", t) @ ds.func("imaginary_pow", -t)
