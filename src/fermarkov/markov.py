# src/fermarkov/markov.py

"""Markov-triplet analysis and structure of entropy-equality states.

For a faithful state on sites partitioned into A, B, C the pipeline computes:

  - the entropy gap and its saturation verdict;
  - the flow-stable subalgebras
        C = {x in A_AB : the modular flow of the embedded restriction to B+C
             keeps x inside A_AB for all t},
        B = the same inside A_B,
    decided algebraically by descending invariant-subspace iterations under
    h = log E_BC(rho), read as log rho_BC - |A| log 2 in A_BC's factor.  C is
    held as the graded pair C = A_A^+ W+ (+) A_A^- W- (``FlowStablePair``):
    W+ = B and W- are subspaces of A_B, each decided in A_B's unit frame in
    the 2^|BC| factor of A_BC and held in B's own 2^|B| factor, and every
    subalgebra built from them scatters to D x D only when its basis is read;
  - the Markov verdict: saturation together with every A-site generator lying
    in C, which holds exactly when 1 lies in W- (always for even states);
  - the commuting factorization rho = x y with x the density of the restricted
    state on C and y = x^{-1} rho, certified to lie in the B+C algebra;
  - for even Markov states, the central structure of B under the parity
    automorphism and the block decomposition of rho into parity-fixed blocks
    and parity-swapped block pairs.  B's minimal central projections p are
    drawn once, by the commutant solve for B~ in B's 2^|B| factor, and
    matched and held there, C's q in A_AB's factor; every block cuts x and y
    by a q, and each factor is certified by one rule for all blocks: q x
    against C, q y against p_A C~ + (1 - p_A) C~.  Factors and blocks are
    read in their regions' factors; only the residuals of the whole state
    (reconstruction, commutator, reassembly) take D x D products.
  - C, E_C, C~ and the structure lemmas read in B's unit frame: the relative
    commutant of A_B in A_AB (A_BC) is 1 x M_e there, so C = W+ x M_e^+ (+)
    p W- x M_e^-, E_C projects block by block, C~ = B~ x M_e and C' is
    Y x M_e twisted by v_A, each a tensor form; when W+ and W- fill A_B
    (every even product Markov state), B~ = Y = C1 with no commutant solve,
    and E_C = E_AB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hs
from .car import (
    CarAlgebra,
    MatrixUnitFamily,
    RegionPartition,
    _parity_diagonal,
    _positions,
    build_algebra,
    cond_expect,
    even_odd_split,
    matrix_units,
    parity_automorphism,
)
from .entropy import SsaReport, StateDensity, _ssa_report
from .errors import (
    BlockCertificationFailed,
    FactorizationFailed,
    NotEven,
    NotMarkov,
    NotSaturated,
    UnmatchedParityAction,
)
from .report import Check
from .spectral import SpectralDecomposition
from .subalgebra import (
    SubalgebraBasis,
    _stack,
    _UnitFrame,
    _WholeFactor,
    _adjoint_residual,
    _commutant_and_projections,
    _fills_factor,
    _from_small,
    _product_residual,
    _require_closed,
    _small,
    commutant,
    is_projection_family,
    region_subalgebra,
    span_equality_residual,
)
from .tolerances import (
    EPS_FAITHFUL,
    PARITY_MATCH,
    TOL_BLOCK,
    TOL_CROSS,
    TOL_EQUALITY,
    TOL_FACTOR_HERM,
    TOL_FACTOR_POS,
    TOL_GAP_NEG,
    TOL_MEMBER,
    TOL_PAIR,
    Tolerances,
)


@dataclass(frozen=True, eq=False)
class FlowStablePair:
    """The flow-stable algebra C of A_AB as its graded pair (W+, W-).

    With h = log E_BC(rho), graded locality gives h a = a theta^p(h) for a in
    A_A of parity p, so [h, a b] = a (theta^p(h) b - b h) for b in A_B.  Over
    the homogeneous tau-orthonormal matrix units a_k of A_A, half even and half
    odd, A_AB is the tau-orthogonal sum of the a_k A_B, hence
    C = A_A^+ W+ (+) A_A^- W- with W+ (= B) and W- the largest subspaces of
    A_B invariant under b -> [h, b] and b -> theta(h) b - b h.  For an even
    state theta(h) = h and C is the join A_A v B.  Each W is a tau-orthonormal
    stack in A_B's 2^|B| factor, or all of A_B as a _WholeFactor, whose stack
    plus or minus forms on read; when both fill A_B, C = A_AB and E_C = E_AB.
    Otherwise C is read in B's unit frame of A_AB (``_b_frame``), where
    A_A^+ = 1 x M_e^+ and A_A^- = p x M_e^-: W^* C W = W+ x M_e^+ (+) p W- x M_e^-.
    """

    alg: CarAlgebra
    regions: RegionPartition
    w_plus: np.ndarray | _WholeFactor    # W+ = B
    w_minus: np.ndarray | _WholeFactor   # W-
    identity_residual: float             # tau-norm of 1 minus its projection onto W-

    plus = property(lambda self: _stack(self.w_plus))
    minus = property(lambda self: _stack(self.w_minus))
    fills = property(lambda self: _fills_factor(self.w_plus) and _fills_factor(self.w_minus))

    @property
    def dim_b(self) -> int:
        return self.w_plus.shape[0]

    @property
    def dim_c(self) -> int:
        return 4 ** len(self.regions.A) // 2 * (self.w_plus.shape[0] + self.w_minus.shape[0])

    @cached_property
    def b_basis(self) -> SubalgebraBasis:
        """B held as W+ is: all of A_B, with no stack, when W+ fills it."""
        return _from_small(self.alg.dim, self.regions.B, self.w_plus, True)

    @cached_property
    def c_basis(self) -> SubalgebraBasis:
        """W+ x M_e^+ (+) p W- x M_e^-, tau-orthonormal, unframed in A_AB's
        factor, or A_AB itself when both W fill A_B."""
        if self.fills:
            return region_subalgebra(self.alg, self.regions.AB)
        frame, p, odd = _b_frame(self.regions, self.regions.A)
        units = _scaled_units(len(odd))
        small = np.concatenate([_kron(self.plus, units[~odd]), _kron(p[:, None] * self.minus, units[odd])])
        return _from_small(self.alg.dim, self.regions.AB, frame.unframe(small), True)

    def project(self, x: np.ndarray) -> np.ndarray:
        """E_C(x): E_C of E_AB(x)'s small picture, scattered."""
        return matrix_units(self.alg, self.regions.AB).iso_from_small(
            self.project_small(_small(self.alg.dim, self.regions.AB, x)))

    def project_small(self, ab: np.ndarray) -> np.ndarray:
        """E_C of an element of A_AB in A_AB's factor, block by block in B's
        frame: the d x d block of ab~ in slot (j, j') projected onto W+ on an
        even slot, onto p W- on an odd one; ab itself when both W fill A_B."""
        if self.fills:
            return ab
        frame, p, odd = _b_frame(self.regions, self.regions.A)
        xt = frame.frame(ab)
        blocks = frame._blocks(xt).transpose(1, 3, 0, 2)     # [j, j', r, r'], a view of xt
        blocks[~odd] = hs.project_stack(self.plus, blocks[~odd])
        blocks[odd] = p[:, None] * hs.project_stack(self.minus, p[:, None] * blocks[odd])
        return frame.unframe(xt)

    @property
    def cond_exp_residual(self) -> float:
        """Worst residual of E_BC(C) against B, from E_BC(a w) = tau(a) w: a
        unit of A_A off the diagonal, every odd one among them, has tau 0, and
        a diagonal one sqrt(d_A) e_rr has tau 1 / sqrt(d_A)."""
        return 2.0 ** (-len(self.regions.A) / 2) * _inclusion_residual(self.w_plus, self.w_plus)

    @property
    def join_residual(self) -> float:
        """C against the join A_A v B, which is W- against W+ both ways."""
        return max(_inclusion_residual(self.w_plus, self.w_minus), _inclusion_residual(self.w_minus, self.w_plus))


def _inclusion_residual(target: np.ndarray | _WholeFactor, stack: np.ndarray | _WholeFactor) -> float:
    """Largest residual of a stack against the span of a tau-orthonormal
    target in A_B's factor; 0, with no projection, for a target that fills it."""
    return 0.0 if _fills_factor(target) else float(hs.residual_norms(target, _stack(stack)).max(initial=0.0))


def _b_frame(regions: RegionPartition, other: tuple[int, ...]) -> tuple[_UnitFrame, np.ndarray, np.ndarray]:
    """B's unit frame W in the lattice of R = B + X (X = A or C), B's parities p
    and the e x e mask of odd slots.  W^* A_B W = M_d x 1, W^* v_B W = p x 1 and
    W^* v_X W = 1 x q (q: X's parities), so A_B' n A_R = (A_X)^+ + v_B (A_X)^- is
    W (1 x M_e) W^*, e = 2^|X|, whose unit 1 x E_jj' is odd where q_j != q_j'."""
    region = tuple(sorted(regions.B + other))
    frame = _UnitFrame(matrix_units(build_algebra(len(region)), _positions(regions.B, region)))
    p, q = (_parity_diagonal(build_algebra(len(sites)), range(len(sites))) for sites in (regions.B, other))
    return frame, p, q[:, None] != q[None, :]


def _lift_to_bc(alg: CarAlgebra, regions: RegionPartition, small: np.ndarray) -> SubalgebraBasis:
    """The algebra a tau-orthonormal stack s in B's factor generates with A_B's
    relative commutant in A_BC: W (s x M_e) W^* in B's frame (``_b_frame``)."""
    frame, _, odd = _b_frame(regions, regions.C)
    lifted = frame.unframe(_kron(small, _scaled_units(len(odd)).reshape(-1, *odd.shape)))
    return _from_small(alg.dim, regions.BC, lifted, True)


def _scaled_units(e: int) -> np.ndarray:
    """The tau-orthonormal units sqrt(e) E_jj' of M_e, as [j, j']."""
    return np.sqrt(e) * np.eye(e * e, dtype=complex).reshape(e, e, e, e)


def _kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every l x r over two stacks, left-major, in one broadcast: tau-orthonormal when both are."""
    (m, a, b), (k, c, d) = left.shape, right.shape
    return (left[:, None, :, None, :, None] * right[None, :, None, :, None, :]).reshape(m * k, a * c, b * d)


def _left(family: MatrixUnitFamily, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W (m x 1) W^* x for m in a region's factor, as m times the (d, D D / d)
    rows of W^* x: d D^2 work in place of a D x D product."""
    rows = (x[family.perm] * family.sign[:, None]).reshape(family.small_dim, -1)
    out = np.empty_like(x, dtype=np.result_type(m, x))
    out[family.perm] = (m @ rows).reshape(x.shape) * family.sign[:, None]
    return out


def flow_stable_pair(rho_bc: SpectralDecomposition, alg: CarAlgebra, regions: RegionPartition) -> FlowStablePair:
    """W+ and W- of h = log E_BC(rho) in A_BC's 2^|BC| factor, from the
    decomposition of rho_BC: E_BC(rho) has its eigenvectors there and its
    eigenvalues over 2^|A|, floored at EPS_FAITHFUL / D.  A_B is the whole
    algebra of B's positions in a |BC|-site lattice: each W is decided in
    A_B's unit frame (``_UnitFrame.invariant_subspace``), which returns it in
    B's 2^|B| factor (all of A_B, with no stack, when round 0 keeps every
    unit) and forms no (4^|B|, 2^|BC|, 2^|BC|) stack unless it keeps part of
    A_B.  Each W is certified invariant under its own flow
    e^{it theta^p(h)} . e^{-ith} for all t by its iteration's last round, and
    C's closure is certified there in graded form (NotAnAlgebra otherwise),
    (a w)(a' w') = a a' theta^p'(w) w' and (a w)^* = a^* theta^p(w^*) for a,
    a' of parities p, p', which B's closure (W+ W+ and W+^* in W+) is part
    of.  A relation into a W that is all of A_B holds for any factors by
    dimension and reads 0 with no product, or theta(W), formed.
    """
    lattice = build_algebra(len(regions.BC))
    e_bc = SpectralDecomposition(rho_bc.eigenvalues / 2 ** len(regions.A), rho_bc.eigenvectors)
    h = hs.hermitian_part(e_bc.func("log", eps_faithful=EPS_FAITHFUL / alg.dim))
    frame = _UnitFrame(matrix_units(lattice, _positions(regions.B, regions.BC)))
    scale = e_bc.log_radius()     # |h|_2, read from the spectrum
    plus, _ = frame.invariant_subspace(h, h, scale=scale)
    # W^* v W = p x q (diagonal +-1), so theta(h)'s diagonal blocks p r_j p have h's spectra: no floor
    minus, identity_residual = frame.invariant_subspace(parity_automorphism(lattice, h), h, scale=scale, floor=False)
    b_lattice = build_algebra(len(regions.B))
    # None enters only relations into a W that fills A_B, which read no factor
    theta = lambda w, *targets: None if all(map(_fills_factor, targets)) else parity_automorphism(b_lattice, _stack(w))
    t_plus, t_minus = theta(plus, minus), theta(minus, plus, minus)
    products = max(
        _product_residual(plus, plus, plus),
        _product_residual(t_plus, minus, minus),
        _product_residual(minus, plus, minus),
        _product_residual(t_minus, minus, plus),
    )
    _require_closed(products, max(_adjoint_residual(plus, plus), _adjoint_residual(t_minus, minus)), TOL_MEMBER)
    return FlowStablePair(alg, regions, plus, minus, identity_residual)


@dataclass(frozen=True)
class TripletAnalysis:
    """Saturation, flow-stable subalgebras, and the Markov verdict."""

    ssa: SsaReport
    pair: FlowStablePair         # C and B
    a_in_c: bool
    a_in_c_residual: float
    cond_exp_residual: float     # worst membership of E_BC(C) in B
    markov: bool
    checks: tuple[Check, ...]    # ssa.gap_nonnegative, ssa.cross_check, triplet.cond_exp_in_b

    c_basis = property(lambda self: self.pair.c_basis)   # built on first read
    b_basis = property(lambda self: self.pair.b_basis)


@dataclass(frozen=True)
class Factorization:
    """Commuting positive factors x y = rho with region certificates."""

    x: np.ndarray
    y: np.ndarray
    x_region_residual: float     # x against the A+B algebra
    y_region_residual: float     # y against the B+C algebra
    commute_residual: float
    reconstruction_residual: float
    y_parity: str                # "even" | "noneven"
    y_odd_norm: float
    y_min_eig: float
    x_ab: np.ndarray = field(repr=False)     # x in A_AB's factor
    y_bc: np.ndarray = field(repr=False)     # E_BC(y) in A_BC's factor
    checks: tuple[Check, ...]                # reconstruction, commute, x_region, y_region


@dataclass(frozen=True, eq=False)
class CentralStructure:
    """Minimal central projections of B with the parity action resolved.

    p holds them in B's 2^|B| factor, ordered parity-fixed first (k of
    them), then swapped pairs as adjacent entries.  q holds the matching
    minimal central projections of C in A_AB's factor, built from p and the
    A-side parity projection (1 + v_A) / 2.  p_list and q_list scatter them
    to D x D on each read; the block decomposition certifies p and q as held.
    """

    alg: CarAlgebra
    regions: RegionPartition
    p: np.ndarray                # (m, 2^|B|, 2^|B|)
    q: np.ndarray                # (m, 2^|AB|, 2^|AB|)
    k: int
    pairs: list[tuple[int, int]]

    p_list = property(lambda self: list(matrix_units(self.alg, self.regions.B).iso_from_small(self.p)))
    q_list = property(lambda self: list(matrix_units(self.alg, self.regions.AB).iso_from_small(self.q)))


@dataclass(frozen=True)
class Block:
    kind: str                    # "theta_fixed" | "theta_pair"
    q: np.ndarray                # Q_j for fixed blocks, the pair sum for pairs, in A_AB's factor
    z_ab: np.ndarray             # x_j, or the stored pair representative, in A_AB's factor
    y_bc: tuple[np.ndarray, np.ndarray]   # (a, b) in A_BC's factor: y_j = p_A a + (1 - p_A) b, a = b if fixed
    weight: float                # Tr(Q_j rho)
    x_membership_residual: float
    y_membership_residual: float
    partner_x_residual: float | None = None
    partner_y_residual: float | None = None


@dataclass(frozen=True)
class BlockDecomposition:
    central: CentralStructure
    blocks: list[Block]
    reassembly_residual: float
    lemma_join_residual: float       # C against the algebra generated by A_A and B
    y_commutant_residual: float      # y against the even-twisted commutant algebra
    checks: tuple[Check, ...]        # reassembly, lemma_join


@dataclass(frozen=True)
class StructureLemmaReport:
    join_residual: float             # C = algebra generated by A_A and B
    commutant_residual: float        # C' = even/odd twisted commutant identity
    middle_residual: float           # B' within A_BC = twisted generation identity
    dims: dict = field(default_factory=dict)


# --- shared analysis -------------------------------------------------------------

class Analysis:
    """One faithful state on one region partition.  Construction builds what
    every result shares: the SSA report and the graded pair that holds the
    flow-stable subalgebras C (in A_AB) and B (in A_B), with no D x D stack.
    Each result below is computed on first access, with the tolerances
    `self.tol`, and cached; each carries the checks that gate its residuals,
    named as the verdict document records them."""

    def __init__(
        self,
        state: StateDensity,
        regions: RegionPartition,
        *,
        tol_equality: float = TOL_EQUALITY,
        tol_member: float = TOL_MEMBER,
    ):
        state.require_faithful()
        self.state, self.regions = state, regions
        self.tol = Tolerances(tol_equality, tol_member)
        self.ssa, rho_bc = _ssa_report(state, regions, self.tol.equality)
        self.pair = flow_stable_pair(rho_bc, state.alg, regions)

    c_basis = property(lambda self: self.pair.c_basis)   # built on first read
    b_basis = property(lambda self: self.pair.b_basis)

    def _require_even_markov(self, what: str) -> None:
        if not self.state.is_even():
            raise NotEven(f"{what} needs an even state: parity defect {self.state.parity_defect():.3e}")
        if not self.ssa.saturated:
            raise NotMarkov(f"{what}: entropy gap {self.ssa.gap:.3e} is not saturated")

    @cached_property
    def triplet(self) -> TripletAnalysis:
        """Saturation and Markov verdicts with the flow-stable subalgebras."""
        # a_i projects onto a_i P(1) in C (P onto W-): its residual is ||a_i||_tau = sqrt(1/2) times 1's
        a_res = 0.5 ** 0.5 * self.pair.identity_residual
        a_ok = a_res <= self.tol.a_in_c
        cond_exp = self.pair.cond_exp_residual
        return TripletAnalysis(
            ssa=self.ssa,
            pair=self.pair,
            a_in_c=a_ok,
            a_in_c_residual=float(a_res),
            cond_exp_residual=cond_exp,
            markov=self.ssa.saturated and a_ok,
            # _ssa_report has raised above TOL_CROSS already; the check records that gate
            checks=(
                Check.of("ssa.gap_nonnegative", -self.ssa.gap, TOL_GAP_NEG),
                Check.of("ssa.cross_check", self.ssa.cross_residual, TOL_CROSS),
                Check.of("triplet.cond_exp_in_b", cond_exp, self.tol.cond_exp_in_b),
            ),
        )

    @cached_property
    def factorization(self) -> Factorization:
        """Commuting positive factors rho = x y of a saturating state.

        x is the density of the restriction to the flow-stable subalgebra C of
        the A+B algebra; y = x^{-1} rho lands in the B+C algebra with the
        parity of its odd part deciding the Markov verdict.  For even states
        both factors come out even automatically.

        Each factor is read in its region's factor.  x = W_AB (x_ab x 1) W_AB^*
        for x_ab = E_C(rho)'s small picture, whose one eigh gives x's spectrum
        (each value taken 2^|C| times) and x^{-1} = W_AB (x_ab^{-1} x 1) W_AB^*.
        y_bc is E_BC(y)'s picture, and y_min_eig its least eigenvalue, within
        ||y - E_BC(y)||_op <= sqrt(D) y_region_residual of y's (Weyl).
        """
        state, regions, tol = self.state, self.regions, self.tol
        if not self.ssa.saturated:
            raise NotSaturated(f"entropy gap {self.ssa.gap:.3e} > {tol.equality:.1e}")

        dim, ab, bc = state.alg.dim, matrix_units(state.alg, regions.AB), matrix_units(state.alg, regions.BC)
        x_ab = hs.hermitian_part(self.pair.project_small(_small(dim, regions.AB, state.rho)))
        wx, vx = np.linalg.eigh(x_ab)
        if wx[0] <= EPS_FAITHFUL / dim:
            raise FactorizationFailed(f"restricted density nearly singular: min eig {wx[0]:.3e}")
        x = ab.iso_from_small(x_ab)
        y = _left(ab, (vx / wx) @ vx.conj().T, state.rho)
        herm_defect = hs.hs_norm(y - y.conj().T)
        y = hs.hermitian_part(y)
        y_bc = _small(dim, regions.BC, y)

        scale = 1.0 + hs.hs_norm(y)
        # the residual against a region algebra is the part its conditional expectation drops
        x_res = hs.hs_norm(x - cond_expect(state.alg, x, regions.AB))
        y_res = hs.hs_norm(y - bc.iso_from_small(y_bc))
        x_ok = x_res <= tol.member * (1.0 + hs.hs_norm(x))
        y_ok = y_res <= tol.member * scale
        xy = _left(ab, x_ab, y)
        commute = hs.hs_norm(xy - xy.conj().T)     # y x = (x y)^* for Hermitian x and y
        recon = hs.hs_norm(xy - state.rho)
        y_min = float(np.linalg.eigvalsh(y_bc)[0])

        _, y_odd = even_odd_split(state.alg, y)
        y_odd_norm = hs.hs_norm(y_odd)
        y_parity = "even" if y_odd_norm <= TOL_PAIR * scale else "noneven"

        reconstruction = Check.of("factorization.reconstruction", recon, TOL_BLOCK)
        checks = (
            reconstruction,
            Check.of("factorization.commute", commute, TOL_PAIR),
            Check.of("factorization.x_region", x_res, tol.factor_region),
            Check.of("factorization.y_region", y_res, tol.factor_region),
        )
        if (
            not reconstruction.passed
            or herm_defect > TOL_FACTOR_HERM * scale
            or commute > TOL_PAIR * scale
            or not (x_ok and y_ok)
            or y_min < -TOL_FACTOR_POS * scale
        ):
            raise FactorizationFailed(
                "factor residuals out of bounds: "
                f"recon {recon:.3e}, herm {herm_defect:.3e}, commute {commute:.3e}, "
                f"x-region {x_res:.3e}, y-region {y_res:.3e}, y min eig {y_min:.3e}"
            )
        return Factorization(
            x=x,
            y=y,
            x_region_residual=float(x_res),
            y_region_residual=float(y_res),
            commute_residual=float(commute),
            reconstruction_residual=float(recon),
            y_parity=y_parity,
            y_odd_norm=float(y_odd_norm),
            y_min_eig=y_min,
            x_ab=x_ab,
            y_bc=y_bc,
            checks=checks,
        )

    @cached_property
    def central(self) -> CentralStructure:
        """Minimal central projections of B, parity-matched and paired, with
        the induced minimal central projections of C.  B's, drawn with B~ in
        B's 2^|B| factor, are matched, weighted and held there; the q are
        built, checked and held in A_AB's factor."""
        self._require_even_markov("central structure")
        alg, regions = self.state.alg, self.regions
        p_raw = np.stack(self._b_tilde[1])
        m = len(p_raw)
        b_lattice = build_algebra(len(regions.B))
        # the gate reads the scattered P = W (p x 1) W^*, sqrt(D / 2^|B|) times p in Frobenius norm
        stretch = np.sqrt(alg.dim / b_lattice.dim)
        perm = []
        for i, p in enumerate(p_raw):
            dists = stretch * np.linalg.norm(parity_automorphism(b_lattice, p) - p_raw, axis=(1, 2))
            perm.append(int(np.argmin(dists)))
            if dists.min() > PARITY_MATCH * max(1.0, stretch * float(np.linalg.norm(p))):
                raise UnmatchedParityAction(f"parity image of central projection {i} matches nothing: "
                                            f"distance {dists.min():.3e}")
        if any(perm[perm[i]] != i for i in range(m)):
            raise UnmatchedParityAction(f"parity action is not an involution: {perm}")

        rho_b = matrix_units(alg, regions.B).trace_pairings(self.state.rho)
        weight = [float(np.vdot(p, rho_b).real) for p in p_raw]    # Tr(P rho) = Tr(p rho_B)
        fixed = sorted((i for i in range(m) if perm[i] == i), key=lambda i: -weight[i])
        pair_reps = sorted((i for i in range(m) if perm[i] > i), key=lambda i: -weight[i] - weight[perm[i]])

        # each pair stores its lexicographically smaller projection first
        order = fixed + [j for i in pair_reps for j in sorted((i, perm[i]), key=lambda j: _lex_key(p_raw[j]))]
        k = len(fixed)
        pairs = [(i, i + 1) for i in range(k, m, 2)]

        b_in_ab = matrix_units(build_algebra(len(regions.AB)), _positions(regions.B, regions.AB))   # in A_AB's lattice
        p_ab = list(b_in_ab.iso_from_small(p_raw[order]))
        # p_A = (1 + v_A) / 2 is diagonal: q = p_A p_i + (1 - p_A) p_j has p_i's rows where v_A = 1
        rows = _parity_diagonal(b_in_ab.alg, _positions(regions.A, regions.AB))[:, None] > 0
        q_list = p_ab[:k]
        for i, j in pairs:
            q_list += [np.where(rows, p_ab[i], p_ab[j]), np.where(rows, p_ab[j], p_ab[i])]

        # q_i + q_j = p_i + p_j holds row by row by construction; what can fail is the family
        if not is_projection_family(q_list, b_in_ab.alg.dim):
            raise UnmatchedParityAction("central projections of C do not resolve the identity into the pairs of B")
        return CentralStructure(alg, regions, p_raw[order], np.stack(q_list), k, pairs)

    @cached_property
    def _b_tilde(self) -> tuple[SubalgebraBasis, list[np.ndarray]]:
        """B~ = B' n A_B and B's minimal central projections, from one commutant solve in B's factor."""
        if _fills_factor(self.pair.w_plus):     # B = A_B, a factor: B~ = C1, and 1 its one projection
            one = np.eye(self.pair.w_plus.shape[-1], dtype=complex)
            return _from_small(self.state.alg.dim, self.regions.B, one[None], True), [one]
        return _commutant_and_projections(self.b_basis, region_subalgebra(self.state.alg, self.regions.B))

    @cached_property
    def _c_tilde(self) -> SubalgebraBasis:
        """C~ = B~ v ((A_C)^+ + v_B (A_C)^-) = W (B~ x M_e) W^* (``_lift_to_bc``),
        shared by the block decomposition and the lemma validation."""
        return _lift_to_bc(self.state.alg, self.regions, self._b_tilde[0].small)

    @cached_property
    def decomposition(self) -> BlockDecomposition:
        """Block decomposition of an even Markov state.

        Cuts the commuting factors by the minimal central projections q of C:
        parity-fixed blocks give (x_j, y_j) pairs, parity-swapped pairs store
        one representative whose partner blocks are the parity images.  Every
        q lies in C and in C^ = span{p_A, 1 - p_A} v C~, p_A = (1 + v_A) / 2,
        and a block factor z = q x or w = q y keeps z = q z, so each is
        certified by one rule: x's block against C (read from the graded
        pair), y's against C^.

        Each block is cut in its regions' factors: z_ab = q_ab x_ab, and w =
        p_A a + (1 - p_A) b = s + v_A t for a = p_i y_bc, b = p_j y_bc (b = a
        on a fixed block), s = (a + b) / 2, t = (a - b) / 2.  v_A is an even
        unitary of A_A, so it commutes with A_BC and tau(v_A c) = 0 for c in
        A_BC: C^ = C~ (+) v_A C~ is an orthogonal sum, and w's residual is s's
        and t's against C~ in quadrature, as y's against C~ is y_bc's and y's
        region residual.  A pair's partner residual q2 y - theta(w) =
        p_A f - (1 - p_A) theta(f), f = b - theta(a), has norm ||f||.
        """
        self._require_even_markov("block decomposition")
        if not self.triplet.markov:
            raise NotMarkov(f"A-side generators escape the stable algebra: residual {self.triplet.a_in_c_residual:.3e}")
        # C~'s stack in A_BC's factor is built before the D x D block factors exist
        span = self._c_tilde.small
        state, alg, regions, tol = self.state, self.state.alg, self.regions, self.tol
        fact, central = self.factorization, self.central
        ab, bc = matrix_units(alg, regions.AB), matrix_units(alg, regions.BC)
        off = lambda *m: hs.residual_norms(span, np.stack(m))     # tau-norms off C~, in A_BC's factor
        lemma_join = self.pair.join_residual
        y_comm_res = float(np.hypot(fact.y_region_residual, off(fact.y_bc)[0]))
        y_comm_ok = y_comm_res <= tol.member * (1.0 + hs.hs_norm(fact.y))
        b_in_bc = matrix_units(build_algebra(len(regions.BC)), _positions(regions.B, regions.BC))
        u = b_in_bc.iso_from_small(central.p) @ fact.y_bc          # u_i = p_i y_bc
        theta_ab, theta_bc = (f.parity.reshape(f.small_dim, -1) for f in (ab, bc))
        rows = _parity_diagonal(alg, regions.A)[:, None] > 0       # p_A's rows
        rho_ab = ab.trace_pairings(state.rho)

        blocks: list[Block] = []
        total = np.zeros_like(state.rho)
        k = central.k
        # a fixed block is cut by its q; a pair by its first q, and its second
        # q2 cuts the parity images of the pair's factors
        for i in [*range(k), *range(k, len(central.q), 2)]:
            j = i if i < k else i + 1
            a, b, z_ab = u[i], u[j], central.q[i] @ fact.x_ab
            w = bc.iso_from_small(a) if i == j else np.where(rows, *bc.iso_from_small(np.stack([a, b])))
            zw = _left(ab, z_ab, w)
            total += zw
            kind, q, partners = "theta_fixed", central.q[i], {}
            if i != j:
                total += parity_automorphism(alg, zw)
                kind, q = "theta_pair", central.q[i] + central.q[j]
                partners = dict(partner_x_residual=hs.hs_norm(central.q[j] @ fact.x_ab - theta_ab * z_ab),
                                partner_y_residual=hs.hs_norm(b - theta_bc * a))
            blocks.append(Block(kind=kind, q=q, z_ab=z_ab, y_bc=(a, b), weight=float(np.vdot(q, rho_ab).real),
                                x_membership_residual=hs.hs_norm(z_ab - self.pair.project_small(z_ab)),
                                y_membership_residual=float(np.hypot(*off((a + b) / 2, (a - b) / 2))), **partners))

        reassembly = hs.hs_norm(total - state.rho)
        worst_member = max(max(b.x_membership_residual, b.y_membership_residual) for b in blocks)
        partner_residuals = [r for b in blocks for r in (b.partner_x_residual, b.partner_y_residual) if r is not None]
        worst_partner = max(partner_residuals, default=0.0)
        checks = (
            Check.of("decomposition.reassembly", reassembly, TOL_BLOCK),
            Check.of("decomposition.lemma_join", lemma_join, TOL_BLOCK),
        )
        if not (all(c.passed for c in checks) and y_comm_ok):
            raise BlockCertificationFailed(
                f"reassembly {reassembly:.3e}, join identity {lemma_join:.3e}, "
                f"y commutant membership {y_comm_res:.3e}"
            )
        if worst_member > tol.block_member or worst_partner > TOL_PAIR:
            raise BlockCertificationFailed(
                f"block certificates failed: membership {worst_member:.3e}, partner {worst_partner:.3e}"
            )
        return BlockDecomposition(
            central=central,
            blocks=blocks,
            reassembly_residual=float(reassembly),
            lemma_join_residual=float(lemma_join),
            y_commutant_residual=float(y_comm_res),
            checks=checks,
        )

    @cached_property
    def lemmas(self) -> StructureLemmaReport:
        """Span-equality residuals of the three structural identities of even
        saturating states, K = B' n A_BC, each read in the regions' factors:

          1. C equals the algebra generated by A_A and B;
          2. C' equals K_even + K_odd v_A;
          3. K equals the algebra generated by B~ = B' n A_B and
             (A_C)_even + v_B (A_C)_odd.

        J(k) = k_even + v_A k_odd is a tau-preserving *-isomorphism of A_BC
        onto A_A', which holds C', so 2 reads J^-1(C') = K.  C' is generated by
        C' n A_AB = J(Y) and A_AB's relative commutant, J of A_B's in A_BC, so
        J^-1(C') = W (Y x M_e) W^*, lifted as C~ is.  C' n A_AB is solved in
        A_AB's factor (C1 when the pair fills A_B); in B's frame of A_AB J(y)
        = y_even x 1 + y_odd x q, so Y is its diagonal block at an even A-slot,
        and the other blocks' departure from J(y) enters the commutant residual.
        """
        self._require_even_markov("structure lemmas")
        alg, regions = self.state.alg, self.regions
        kom = commutant(self.b_basis, ambient=region_subalgebra(alg, regions.BC))
        y, y_res = np.eye(2 ** len(regions.B), dtype=complex)[None], 0.0
        if not self.pair.fills:
            frame, p, _ = _b_frame(regions, regions.A)
            q = _parity_diagonal(build_algebra(len(regions.A)), range(len(regions.A)))
            ct = frame.frame(commutant(self.c_basis, ambient=region_subalgebra(alg, regions.AB)).small)
            j = int(np.argmax(q > 0))
            y = frame._blocks(ct)[:, :, j, :, j]
            odd = (y - p[:, None] * y * p) / 2      # (y - theta(y)) / 2, theta = p . p on B's factor
            j_of_y = _kron(y - odd, np.eye(len(q))[None]) + _kron(odd, np.diag(q)[None])
            y_res = max(map(hs.hs_norm, ct - j_of_y))
        c_comm = _lift_to_bc(alg, regions, y)
        twisted = parity_automorphism(build_algebra(len(regions.BC)), kom.small)
        k_even, k_odd = (hs.orthonormalize((kom.small + sign * twisted) / 2) for sign in (1, -1))
        return StructureLemmaReport(
            join_residual=self.pair.join_residual,
            commutant_residual=max(y_res, span_equality_residual(c_comm, kom)),
            middle_residual=span_equality_residual(kom, self._c_tilde),
            dims={
                "c": self.pair.dim_c,
                "b": self.pair.dim_b,
                "c_commutant": c_comm.size,
                "b_rel_commutant": kom.size,
                "b_rel_commutant_even": int(k_even.shape[0]),
                "b_rel_commutant_odd": int(k_odd.shape[0]),
            },
        )


def _lex_key(p: np.ndarray) -> list[float]:
    """p's entries rounded to 1e-9, real parts then imaginary parts, as
    numbers compared in order, so -0.0 and 0.0 are one value."""
    return np.round(np.concatenate([p.real.ravel(), p.imag.ravel()]), 9).tolist()


# --- entry points: one shared analysis per call ------------------------------------

def analyze_triplet(
    state: StateDensity,
    regions: RegionPartition,
    *,
    tol_equality: float = TOL_EQUALITY,
    tol_member: float = TOL_MEMBER,
) -> TripletAnalysis:
    """Saturation and Markov verdicts with the flow-stable subalgebras."""
    return Analysis(state, regions, tol_equality=tol_equality, tol_member=tol_member).triplet


def factorize(
    state: StateDensity,
    regions: RegionPartition,
    *,
    tol_equality: float = TOL_EQUALITY,
    tol_member: float = TOL_MEMBER,
) -> Factorization:
    """Commuting positive factors rho = x y (see Analysis.factorization)."""
    return Analysis(state, regions, tol_equality=tol_equality, tol_member=tol_member).factorization


def central_structure(
    state: StateDensity, regions: RegionPartition, *, tol_equality: float = TOL_EQUALITY
) -> CentralStructure:
    """Parity-paired central projections of B and C (see Analysis.central)."""
    return Analysis(state, regions, tol_equality=tol_equality).central


def decompose_even(
    state: StateDensity,
    regions: RegionPartition,
    *,
    tol_equality: float = TOL_EQUALITY,
    tol_member: float = TOL_MEMBER,
) -> BlockDecomposition:
    """Block decomposition of an even Markov state (see Analysis.decomposition)."""
    return Analysis(state, regions, tol_equality=tol_equality, tol_member=tol_member).decomposition


def validate_structure_lemmas(
    state: StateDensity, regions: RegionPartition, *, tol_equality: float = TOL_EQUALITY
) -> StructureLemmaReport:
    """Structure-lemma residuals of an even Markov state (see Analysis.lemmas)."""
    return Analysis(state, regions, tol_equality=tol_equality).lemmas
