# src/fermarkov/sufficiency.py

"""Sufficient subalgebras: recovery conditional expectations and the three
equivalent numerical certificates.

A subalgebra is sufficient for a pair of faithful states when one completely
positive unital map recovers both states from their restrictions.  The three
certificates checked here:

  (ii)  the relative entropy of the pair equals that of the restrictions;
  (iii) the cocycle rho_phi^{it} rho_psi^{-it} lies in the subalgebra for all
        t.  The universal quantifier is decided algebraically: the cocycle's
        derivatives at t = 0 are the iterates of the mixed derivation
        z -> (log rho_phi) z - z (log rho_psi) on the identity, so the cocycle
        stays in the span for all t exactly when the identity belongs to the
        largest derivation-invariant subspace of the span.  s is a *-algebra,
        so subalgebra.invariant_subspace reads the first round's out-of-span
        images as L' z - z R' with L' and R' the parts of the two logarithms
        outside s (the projection onto s is an s-bimodule map), and proves
        that every direction leaves when it does: a sufficient pair keeps s
        in one round with no projection of the image stack, and an
        insufficient one whose directions all leave needs no QR or SVD.  On
        a whole region algebra that proof is read from the spectra of the
        diagonal blocks of L' and R' in its unit frame, with no Gram and no
        units; elsewhere, or when that floor declines, by one Cholesky of a
        shifted Gram.
  (iv)  the state-dependent recovery maps of the two states coincide as
        superoperators.  The recovery map of a state is
        P = Ad_K o E o Ad_H with K = rho0^{-1/2}, H = rho^{1/2} and E the
        tau-orthogonal projection onto s.  When s is a unital *-algebra (the
        SubalgebraBasis contract), K lies in s, so Ad_K keeps s and its
        orthogonal complement and commutes with E: P = E o Ad_{G^*} with
        G = H K = rho^{1/2} rho0^{-1/2}.  Taking adjoints,

          ||P_phi - P_psi||_F^2 = sum_b ||G_phi b G_phi^* - G_psi b G_psi^*||_F^2 / D

        over the tau-orthonormal basis b of s, so the residual is read from
        two (m, D, D) sandwiches and no D^2 x D^2 superoperator is formed.

is_sufficient decomposes each of rho_phi, rho_psi and their restrictions
rho_phi0, rho_psi0 once and reads every certificate from those four
spectra.

Each restriction rho0 is s.project(rho): E_I(rho), a gather and a scatter,
for a whole region algebra A_I, held by its size whether region_subalgebra or
subalgebra_from_matrices built it, and the projection on the basis for any
other span.  When s spans a whole region algebra A_I (subalgebra._unit_frame;
the whole space is I = every site), the steps that would read its
(4^k, D, D) basis or its D x D restrictions run in its unit frame
W^* A_I W = M_d x 1 (subalgebra._UnitFrame), on the scaled units
b_rs = sqrt(d) W (E_rs x 1) W^*, d = 2^k, e = 2^(n-k).  Each certificate is
basis-free (a Frobenius norm of a map, or a subspace), so any tau-orthonormal
basis of A_I gives it:

  - the restrictions: is_sufficient forms no rho0 and decomposes each
    restriction once at d, as the tau-small picture k = rho_I / e, whose
    eigenvalues are rho0's, each taken e times; so D(rho_phi0 || rho_psi0)
    = e D(k_phi || k_psi), and rho0^{-1/2} = W (k^{-1/2} x 1) W^*;
  - the recovery-map residual: with X = G W, G b_rs G^* = sqrt(d) sum_c
    X[:, (r, c)] X[:, (s, c)]^*, so a state's whole sandwich stack is
    sqrt(d) M M^H for the (d D x e) reshape M of X, and the difference of
    the two stacks is read from the 2e x 2e R factor of [M_phi M_psi]
    (backward stable, where a Gram of M would square the condition), with
    no (d D x d D) product;
  - the cocycle certificate and factor_through's flow check, whose round 0
    reads its images, their norms and their Gram from e x e blocks;
  - the witness's commutator check, the same block norms with
    L = R = W^* d W.

factor_through returns its common factor d = rho_phi0^{-1} rho_phi unaided
while d is close enough to an exact witness to imply all three (Jencova-Petz,
CMP 263 (2006); Hayden-Jozsa-Petz-Winter, CMP 246 (2004); see there).

Channels are stored as dense superoperator matrices in the column-stacking
convention and nothing else; complete positivity is certified through the
Choi matrix when asked, and no verdict here asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hs
from .entropy import StateDensity, _rel_entropy_of
from .errors import FlowUnstable, InvariantViolation, NotSufficient, SingularRestriction
from .spectral import SpectralDecomposition, eig_hermitian
from .subalgebra import SubalgebraBasis, _unit_frame, _UnitFrame, _worst_commutator, invariant_subspace
from .tolerances import (
    EPS_FAITHFUL,
    RANK_RTOL,
    TOL_CHANNEL,
    TOL_EQUALITY,
    TOL_FACTOR_HERM,
    TOL_FACTOR_POS,
    TOL_MEMBER,
    TOL_MONOTONE,
    TOL_PETZ_EQ,
    TOL_RECON,
    WITNESS_MARGIN,
    Tolerances,
)


def _vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).flatten(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim, order="F")


def _basis_superop(recover: np.ndarray, read: np.ndarray) -> np.ndarray:
    """Superoperator of x -> sum_b recover_b tau(read_b^* x) for two (m, D, D)
    stacks: one (D^2 x m)(m x D^2) product of their column-stacked rows."""
    dim = recover.shape[-1]
    rows_recover = hs.flatten(np.swapaxes(recover, 1, 2))
    rows_read = hs.flatten(np.swapaxes(read, 1, 2))
    return rows_recover.T @ rows_read.conj() / dim


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Linear map on matrix space, held as its superoperator only; the
    certificates below are computed from it when they are read."""

    dim_in: int
    dim_out: int
    superop: np.ndarray        # (dim_out^2, dim_in^2), column-stacking

    @property
    def unital(self) -> bool:
        image = self.apply(np.eye(self.dim_in, dtype=complex))
        return bool(np.max(np.abs(image - np.eye(self.dim_out))) <= TOL_CHANNEL)

    @property
    def kraus_rank(self) -> int:
        ev = np.linalg.eigvalsh(hs.hermitian_part(self.choi()))
        return int(np.sum(ev > RANK_RTOL * max(float(ev[-1]), 1.0)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _unvec(self.superop @ _vec(x), self.dim_out)

    def choi(self) -> np.ndarray:
        """sum_ij E_ij (x) Phi(E_ij); positive semidefinite iff the map is CP."""
        d_in, d_out = self.dim_in, self.dim_out
        # superop[(a, b), (r, c)] = Phi(E_rc)[a, b] in column stacking; reorder to [(r, a), (c, b)]
        blocks = self.superop.reshape(d_out, d_out, d_in, d_in).transpose(3, 1, 2, 0)
        return blocks.reshape(d_in * d_out, d_in * d_out)

    def choi_min_eig(self) -> float:
        return float(np.linalg.eigvalsh(hs.hermitian_part(self.choi()))[0])


def projection_channel(s: SubalgebraBasis) -> QuantumChannel:
    """The trace-preserving conditional expectation onto the span of s."""
    dim = s.dim_ambient
    return QuantumChannel(dim, dim, _basis_superop(s.basis, s.basis))


def petz_map(psi: StateDensity, s: SubalgebraBasis) -> QuantumChannel:
    """State-dependent recovery map a -> r0^{-1/2} E(r^{1/2} a r^{1/2}) r0^{-1/2}
    with r the density of psi, r0 its projection onto the subalgebra and E the
    trace-preserving conditional expectation onto the subalgebra.

    Completely positive and unital; composing with the restricted state
    reproduces psi.  With E = sum_b |b><b| / D over the tau-orthonormal basis,
    the map is sum_b vec(K b K) vec(H b H)^* / D with K = r0^{-1/2} and
    H = r^{1/2}, built from the two stacks of basis images.

    s must contain the identity (ValueError otherwise) and r0 must be
    faithful (SingularRestriction otherwise), as in is_sufficient.  On a
    unital *-algebra s, the SubalgebraBasis contract, the map is
    a -> E(G^* a G) with G = H K (see the module docstring).
    """
    psi.require_faithful("recovery-map state")
    rho0 = hs.hermitian_part(s.project(psi.rho))
    sup = _petz_superop(eig_hermitian(psi.rho), eig_hermitian(rho0), s)
    return QuantumChannel(psi.dim, psi.dim, sup)


def _petz_superop(dec: SpectralDecomposition, dec0: SpectralDecomposition, s: SubalgebraBasis) -> np.ndarray:
    """petz_map's superoperator from the decompositions of r and r0."""
    _require_recoverable(dec0, s)
    half = dec.func("pow", 0.5)
    inv_half0 = dec0.func("pow", -0.5)
    return _basis_superop(inv_half0 @ s.basis @ inv_half0, half @ s.basis @ half)


def _require_recoverable(dec0: SpectralDecomposition, s: SubalgebraBasis) -> None:
    """The recovery map of a state needs the identity in s and a faithful
    restriction r0, whose decomposition is dec0."""
    if not s.contains_identity:
        raise ValueError("recovery map needs a subalgebra containing the identity")
    w0 = dec0.eigenvalues
    if w0[0] <= EPS_FAITHFUL:
        raise SingularRestriction(
            f"restricted density min eigenvalue {w0[0]:.3e} <= {EPS_FAITHFUL:.1e}"
        )


def _petz_root(dec: SpectralDecomposition, dec0: SpectralDecomposition, s: SubalgebraBasis,
               frame: _UnitFrame | None = None) -> np.ndarray:
    """G = r^{1/2} r0^{-1/2} from the decompositions of r and r0: the recovery
    map is a -> E(G^* a G) when s is a unital *-algebra.  In a unit frame
    dec0 is r0's small picture k, and r0^{-1/2} = W (k^{-1/2} x 1) W^*."""
    _require_recoverable(dec0, s)
    inv_half0 = dec0.func("pow", -0.5)
    return dec.func("pow", 0.5) @ (inv_half0 if frame is None else frame.family.iso_from_small(inv_half0))


def _petz_residual(g_phi: np.ndarray, g_psi: np.ndarray, s: SubalgebraBasis) -> float:
    """||P_phi - P_psi||_F / max(1, ||P_psi||_F) for the recovery maps with
    roots g_phi and g_psi (see _petz_root), from the sandwiches G b G^* of
    the basis: the Frobenius norm of Ad_G o E is sqrt(sum_b ||G b G^*||_F^2 / D).
    """
    root_dim = np.sqrt(s.dim_ambient)
    image_psi = g_psi @ s.basis @ g_psi.conj().T
    diff = g_phi @ s.basis @ g_phi.conj().T - image_psi
    return float((np.linalg.norm(diff) / root_dim) / max(1.0, np.linalg.norm(image_psi) / root_dim))


def _frame_petz_residual(g_phi: np.ndarray, g_psi: np.ndarray, frame: _UnitFrame) -> float:
    """_petz_residual over a whole region algebra, from its units: with
    X = G W, G b_rs G^* = sqrt(d) sum_j X[:, (r, j)] X[:, (s, j)]^*, so the
    whole sandwich stack of a state is sqrt(d) M M^H for the (d D x e)
    reshape M of X, and the residual's numerator is
    |M_phi M_phi^H - M_psi M_psi^H|_F, a (d D x d D) difference.

    It is read from the 2e x 2e R factor of [M_phi M_psi] = Q [r_phi r_psi]:
    Q has orthonormal columns, so the difference is Q (r_phi r_phi^H -
    r_psi r_psi^H) Q^H with the same Frobenius norm, and no matrix of d D
    rows is formed but the reshapes (at n = 7 against A_AB of 1|5|1 the
    explicit difference would be 8192 x 8192, 1 GiB).  Householder QR is
    backward stable: r is the exact R factor of [M_phi M_psi] + delta with
    |delta| <= c u |M|, so the absolute error stays at u |M|^2, as for the
    explicit product.  A Gram route (A^H A, its Cholesky or
    tr((S A^H A)^2)) would square the condition instead: where
    G_psi = G_phi W (1 x U) W^* for a unitary U, so that the two maps are
    equal, it reads about 2e-8, above TOL_PETZ_EQ, while the R factor reads
    roundoff.  The denominator |M_psi M_psi^H|_F is |r_psi^H r_psi|_F."""
    family, d, dim = frame.family, frame.d, g_phi.shape[-1]
    m_phi, m_psi = (
        (g[:, family.perm] * family.sign).reshape(dim, d, -1).transpose(1, 0, 2).reshape(d * dim, -1)
        for g in (g_phi, g_psi)
    )
    e = m_phi.shape[1]
    r = np.linalg.qr(np.hstack([m_phi, m_psi]), mode="r")
    r_phi, r_psi = r[:, :e], r[:, e:]
    diff = r_phi @ r_phi.conj().T - r_psi @ r_psi.conj().T
    scale = np.sqrt(d / dim)
    return float(scale * np.linalg.norm(diff) / max(1.0, scale * np.linalg.norm(r_psi.conj().T @ r_psi)))


@dataclass(frozen=True)
class SufficiencyReport:
    """Verdicts and residuals of the three equivalent sufficiency conditions."""

    rel_entropy_full: float
    rel_entropy_restricted: float
    rel_entropy_drop: float
    cocycle_residual: float          # algebraic orbit membership (all t)
    petz_residual: float
    ok_rel_entropy: bool
    ok_cocycle: bool
    ok_petz: bool
    tol_equality: float
    tol_member: float

    @property
    def overall(self) -> bool:
        return self.ok_rel_entropy and self.ok_cocycle and self.ok_petz


def _invariant_in(s: SubalgebraBasis, left: np.ndarray, right: np.ndarray, scale: float) -> tuple[int, float]:
    """Dimension of the largest subspace of s invariant under z -> L z - z R,
    and the identity's residual against it: in the unit frame when s spans a
    whole region algebra, on the basis stack otherwise."""
    frame = _unit_frame(s)
    stable, residual = (invariant_subspace(left, right, s.basis, scale=scale) if frame is None
                        else frame.invariant_subspace(left, right, scale=scale))
    return stable.shape[0], residual


def is_sufficient(
    phi: StateDensity,
    psi: StateDensity,
    s: SubalgebraBasis,
    *,
    tol_equality: float = TOL_EQUALITY,
    tol_member: float = TOL_MEMBER,
) -> SufficiencyReport:
    """Run all three sufficiency certificates for the pair (phi, psi).

    Each of rho_phi, rho_psi and their restrictions is decomposed once, a
    restriction in the d x d factor of the region algebra s spans, if it
    spans one (see the module docstring); the relative entropies,
    logarithms, the cocycle certificate's scale and the recovery maps are
    all read from these four decompositions.  s must be a
    unital *-algebra, as every SubalgebraBasis is by contract, so the
    residual ||P_phi - P_psi||_F / max(1, ||P_psi||_F) between petz_map's
    superoperators is read from basis sandwiches, or from the unit frame,
    without forming them (see the module docstring).
    """
    phi.require_faithful("first state")
    psi.require_faithful("second state")
    tol = Tolerances(tol_equality, tol_member)

    frame = _unit_frame(s)
    e = 1 if frame is None else phi.dim // frame.d
    restrict = ((lambda rho: hs.hermitian_part(s.project(rho))) if frame is None
                else (lambda rho: frame.family.trace_pairings(rho) / e))
    dec_phi, dec_psi = eig_hermitian(phi.rho), eig_hermitian(psi.rho)
    dec_phi0, dec_psi0 = eig_hermitian(restrict(phi.rho)), eig_hermitian(restrict(psi.rho))

    s_full = _rel_entropy_of(dec_phi, dec_psi)
    s_rest = e * _rel_entropy_of(dec_phi0, dec_psi0)
    drop = s_full - s_rest
    if drop < -TOL_MONOTONE:
        raise InvariantViolation(f"relative entropy increased under restriction: {drop:.3e}")

    # certificate (iii): 1's residual against the subspace invariant under z -> Lphi z - z Lpsi,
    # at the scale |Lphi|_2 + |Lpsi|_2, read from the two spectra
    scale = max(1.0, dec_phi.log_radius() + dec_psi.log_radius())
    orbit_res = float(_invariant_in(s, dec_phi.func("log"), dec_psi.func("log"), scale)[1])
    roots = _petz_root(dec_phi, dec_phi0, s, frame), _petz_root(dec_psi, dec_psi0, s, frame)
    petz_res = _petz_residual(*roots, s) if frame is None else _frame_petz_residual(*roots, frame)

    return SufficiencyReport(
        rel_entropy_full=float(s_full),
        rel_entropy_restricted=float(s_rest),
        rel_entropy_drop=float(drop),
        cocycle_residual=float(orbit_res),
        petz_residual=petz_res,
        ok_rel_entropy=abs(drop) <= tol.equality,
        ok_cocycle=orbit_res <= tol.cocycle,
        ok_petz=petz_res <= TOL_PETZ_EQ,
        tol_equality=tol.equality,
        tol_member=tol.member,
    )


def factor_through(
    phi: StateDensity,
    psi: StateDensity,
    s: SubalgebraBasis,
    *,
    tol_member: float = TOL_MEMBER,
) -> np.ndarray:
    """Common positive factor d with rho_phi = rho_phi0 d and rho_psi = rho_psi0 d.

    Requires both states to be faithful (NotFaithful, checked first, as in
    is_sufficient), the subalgebra S to be stable under the modular flow of
    psi (FlowUnstable unless the invariant subspace of [log rho_psi, .] in S
    is all of S) and the pair to be sufficient; d then lies in the relative
    commutant S'.

    The candidate d = rho_phi0^{-1} rho_phi is checked first: self-adjoint,
    positive, commuting with every basis element of S (every scaled unit, for
    a whole region algebra), and reconstructing
    both densities within TOL_RECON.  An exact witness is its own certificate
    of sufficiency (Jencova-Petz, CMP 263 (2006)): with d in S' positive,
    rho_phi = rho_phi0 d and rho_psi = rho_psi0 d give

      - rho_phi^{it} rho_psi^{-it} = rho_phi0^{it} rho_psi0^{-it} in S, the
        cocycle certificate;
      - P_phi = P_psi = E(d^{1/2} . d^{1/2}), the recovery maps agree;
      - D(phi || psi) = D(phi0 || psi0), no entropy drop.

    A computed d misses this by its defects, and the checks' own gates are too
    loose for the implication: a density has tau-norm about 1/D, so TOL_RECON
    admits a relative error near D * TOL_RECON, far above what the
    certificates accept.  The defects are therefore read in the units that
    move the certificates.  To first order, a reconstruction residual e of a
    density rho moves log rho, the cocycle's generator and both relative
    entropies by at most |e| / lambda_min(rho) <= sqrt(D) |e|_tau /
    lambda_min(rho); a commutator residual c moves [log d, z] for tau-unit z
    in S by at most sqrt(dim S) c / lambda_min(d).  While the largest of
    these is below
    WITNESS_MARGIN times the tighter of tol_member and RANK_RTOL, no
    direction of S leaves the cocycle's invariant subspace, the entropy drop
    stays below tol_equality and the recovery maps agree to first order far
    inside TOL_PETZ_EQ, so d is returned unaided.

    Otherwise is_sufficient runs once and decides as it did when it ran
    before the checks on d: an insufficient pair raises NotSufficient with its
    three residuals; a sufficient one returns d if every check passed, and
    re-raises the failed check's InvariantViolation if not.
    """
    phi.require_faithful("first state")
    psi.require_faithful("second state")
    tol = Tolerances(member=tol_member)
    dec = eig_hermitian(psi.rho)
    h = dec.func("log")
    stable, _ = _invariant_in(s, h, h, dec.log_radius())
    if stable < s.size:
        raise FlowUnstable(f"subalgebra not stable under the reference flow: {stable} < {s.size}")
    try:
        d, defect = _certified_factor(phi, psi, s, tol)
    except InvariantViolation:
        _require_sufficient(phi, psi, s, tol)
        raise
    if defect > WITNESS_MARGIN * min(tol.member, RANK_RTOL):
        _require_sufficient(phi, psi, s, tol)
    return d


def _require_sufficient(phi: StateDensity, psi: StateDensity, s: SubalgebraBasis, tol: Tolerances) -> None:
    report = is_sufficient(phi, psi, s, tol_equality=tol.equality, tol_member=tol.member)
    if not report.overall:
        raise NotSufficient(
            "pair is not sufficient for the subalgebra: "
            f"entropy drop {report.rel_entropy_drop:.3e}, "
            f"cocycle residual {report.cocycle_residual:.3e}, "
            f"recovery-map residual {report.petz_residual:.3e}"
        ) from None


def _certified_factor(
    phi: StateDensity, psi: StateDensity, s: SubalgebraBasis, tol: Tolerances
) -> tuple[np.ndarray, float]:
    """d = rho_phi0^{-1} rho_phi and its largest defect in certificate units
    (see factor_through), or InvariantViolation naming the first check d
    fails."""
    rho_phi0 = hs.hermitian_part(s.project(phi.rho))
    d = np.linalg.solve(rho_phi0, phi.rho)
    herm_defect = hs.hs_norm(d - d.conj().T)
    if herm_defect > TOL_FACTOR_HERM * (1.0 + hs.hs_norm(d)):
        raise InvariantViolation(f"factor is not self-adjoint: defect {herm_defect:.3e}")
    d = hs.hermitian_part(d)
    min_eig = float(np.linalg.eigvalsh(d)[0])
    if min_eig < -TOL_FACTOR_POS:
        raise InvariantViolation(f"factor has negative eigenvalue {min_eig:.3e}")

    # the relative commutant by its defining property: [d, b] = 0 for every b
    frame = _unit_frame(s)
    res = _worst_commutator(d, s.basis) if frame is None else frame.worst_commutator(d)
    if res > tol.member * (1.0 + hs.hs_norm(d)):
        raise InvariantViolation(f"factor outside the relative commutant: residual {res:.3e}")

    rho_psi0 = hs.hermitian_part(s.project(psi.rho))
    recon_psi = hs.hs_norm(rho_psi0 @ d - psi.rho)
    recon_phi = hs.hs_norm(rho_phi0 @ d - phi.rho)
    if recon_psi > TOL_RECON or recon_phi > TOL_RECON:
        raise InvariantViolation(
            f"factor reconstruction residuals {recon_phi:.3e}, {recon_psi:.3e} exceed {TOL_RECON:.1e}"
        )
    root_dim = np.sqrt(phi.dim)
    defect = max(
        root_dim * recon_phi / phi.min_eig,
        root_dim * recon_psi / psi.min_eig,
        np.sqrt(s.size) * res / min_eig if min_eig > 0.0 else np.inf,
    )
    return d, float(defect)
