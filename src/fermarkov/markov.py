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
    and parity-swapped block pairs.  B's minimal central projections are
    drawn once, by the commutant solve for B~ in B's 2^|B| factor, and
    matched there; every block cuts x and y by a minimal central projection
    q of C, and each factor is certified by one rule for all blocks: q x
    against C, q y against p_A C~ + (1 - p_A) C~.
  - C, E_C and C~ read in B's unit frame: the relative commutant of A_B in
    A_AB (A_BC) is 1 x M_e there, so C = W+ x M_e^+ (+) p W- x M_e^-, E_C
    projects block by block, and C~ = B~ x M_e, each a tensor form; when W+
    and W- fill A_B (every even product Markov state), B~ = C1 with the one
    projection 1 and no commutant solve, and E_C = E_AB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hs
from .car import (
    CarAlgebra,
    RegionPartition,
    _parity_diagonal,
    build_algebra,
    cond_expect,
    even_odd_split,
    matrix_units,
    parity_automorphism,
    parity_unitary,
)
from .entropy import TOL_EQUALITY, SsaReport, StateDensity, _ssa_report
from .errors import (
    BlockCertificationFailed,
    FactorizationFailed,
    NotEven,
    NotMarkov,
    NotSaturated,
    UnmatchedParityAction,
)
from .spectral import EPS_FAITHFUL, TOL_FACTOR_HERM, TOL_FACTOR_POS, SpectralDecomposition
from .subalgebra import (
    TOL_MEMBER,
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
    membership,
    parity_split,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)

TOL_BLOCK = 1e-8       # reassembly / span-identity residual bound
TOL_PAIR = 1e-9        # partner-block parity-image residual bound


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
        """E_C(x), block by block in B's frame of A_AB: the d x d block of
        E_AB(x)~ in slot (j, j') projected onto W+ on an even slot, onto p W-
        on an odd one; E_AB(x) itself when both W fill A_B."""
        ab = _small(self.alg.dim, self.regions.AB, x)
        if not self.fills:
            frame, p, odd = _b_frame(self.regions, self.regions.A)
            xt = frame.frame(ab)
            blocks = frame._blocks(xt).transpose(1, 3, 0, 2)     # [j, j', r, r'], a view of xt
            blocks[~odd] = hs.project_stack(self.plus, blocks[~odd])
            blocks[odd] = p[:, None] * hs.project_stack(self.minus, p[:, None] * blocks[odd])
            ab = frame.unframe(xt)
        return matrix_units(self.alg, self.regions.AB).iso_from_small(ab)

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


def _positions(sites: tuple[int, ...], within: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of a region's sites in the lattice of a region holding it."""
    return tuple(within.index(i) for i in sites)


def _b_frame(regions: RegionPartition, other: tuple[int, ...]) -> tuple[_UnitFrame, np.ndarray, np.ndarray]:
    """B's unit frame W in the lattice of R = B + X (X = A or C), B's parities p
    and the e x e mask of odd slots.  W^* A_B W = M_d x 1, W^* v_B W = p x 1 and
    W^* v_X W = 1 x q (q: X's parities), so A_B' n A_R = (A_X)^+ + v_B (A_X)^- is
    W (1 x M_e) W^*, e = 2^|X|, whose unit 1 x E_jj' is odd where q_j != q_j'."""
    region = tuple(sorted(regions.B + other))
    frame = _UnitFrame(matrix_units(build_algebra(len(region)), _positions(regions.B, region)))
    p, q = (_parity_diagonal(build_algebra(len(sites)), range(len(sites))) for sites in (regions.B, other))
    return frame, p, q[:, None] != q[None, :]


def _scaled_units(e: int) -> np.ndarray:
    """The tau-orthonormal units sqrt(e) E_jj' of M_e, as [j, j']."""
    return np.sqrt(e) * np.eye(e * e, dtype=complex).reshape(e, e, e, e)


def _kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every l x r over two stacks, left-major: tau-orthonormal when both are."""
    return np.kron(left[:, None], right[None]).reshape(-1, *np.multiply(left.shape[1:], right.shape[1:]))


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


@dataclass(frozen=True)
class CentralStructure:
    """Minimal central projections of B with the parity action resolved.

    p_list is ordered parity-fixed first (k of them), then swapped pairs as
    adjacent entries.  q_list holds the matching minimal central projections
    of C, built from p_list and the A-side parity projection (1 + v_A) / 2.
    """

    p_list: list[np.ndarray]
    q_list: list[np.ndarray]
    k: int
    pairs: list[tuple[int, int]]


@dataclass(frozen=True)
class Block:
    kind: str                    # "theta_fixed" | "theta_pair"
    projection: np.ndarray       # Q_j for fixed blocks, the pair sum for pairs
    x_factor: np.ndarray         # x_j, or the stored pair representative
    y_factor: np.ndarray
    weight: float                # Tr(projection rho)
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
    Each result below is computed on first access, with these tolerances, and
    cached."""

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
        self.tol_equality, self.tol_member = tol_equality, tol_member
        self.ssa, rho_bc = _ssa_report(state, regions, tol_equality)
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
        # an odd a in A_A projects onto a P(1) in C, P the projection onto W-,
        # so its residual is its norm times 1's residual against W-
        norms = [hs.hs_norm(self.state.alg.annihilators[i]) for i in self.regions.A]
        a_res = max(norms) * self.pair.identity_residual
        a_ok = all(n * self.pair.identity_residual <= self.tol_member * (1.0 + n) for n in norms)
        return TripletAnalysis(
            ssa=self.ssa,
            pair=self.pair,
            a_in_c=a_ok,
            a_in_c_residual=float(a_res),
            cond_exp_residual=self.pair.cond_exp_residual,
            markov=self.ssa.saturated and a_ok,
        )

    @cached_property
    def factorization(self) -> Factorization:
        """Commuting positive factors rho = x y of a saturating state.

        x is the density of the restriction to the flow-stable subalgebra C of
        the A+B algebra; y = x^{-1} rho lands in the B+C algebra with the
        parity of its odd part deciding the Markov verdict.  For even states
        both factors come out even automatically.
        """
        state, regions, tol_member = self.state, self.regions, self.tol_member
        if not self.ssa.saturated:
            raise NotSaturated(f"entropy gap {self.ssa.gap:.3e} > {self.tol_equality:.1e}")

        x = hs.hermitian_part(self.pair.project(state.rho))
        wx = np.linalg.eigvalsh(x)
        if wx[0] <= EPS_FAITHFUL / state.alg.dim:
            raise FactorizationFailed(f"restricted density nearly singular: min eig {wx[0]:.3e}")
        y = np.linalg.solve(x, state.rho)
        herm_defect = hs.hs_norm(y - y.conj().T)
        y = hs.hermitian_part(y)

        scale = 1.0 + hs.hs_norm(y)
        # the residual against a region algebra is the part its conditional expectation drops
        x_res = hs.hs_norm(x - cond_expect(state.alg, x, regions.AB))
        y_res = hs.hs_norm(y - cond_expect(state.alg, y, regions.BC))
        x_ok = x_res <= tol_member * (1.0 + hs.hs_norm(x))
        y_ok = y_res <= tol_member * scale
        commute = hs.hs_norm(x @ y - y @ x)
        recon = hs.hs_norm(x @ y - state.rho)
        y_min = float(np.linalg.eigvalsh(y)[0])

        _, y_odd = even_odd_split(state.alg, y)
        y_odd_norm = hs.hs_norm(y_odd)
        y_parity = "even" if y_odd_norm <= TOL_PAIR * scale else "noneven"

        if (
            recon > TOL_BLOCK
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
        )

    @cached_property
    def central(self) -> CentralStructure:
        """Minimal central projections of B, parity-matched and paired, with
        the induced minimal central projections of C.  B's, drawn with B~ in
        B's 2^|B| factor, are matched and weighted there, the q are built and
        checked in A_AB's factor, and both lists scatter to D x D at the end."""
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
            if dists.min() > 1e-8 * max(1.0, stretch * float(np.linalg.norm(p))):
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
        rows = np.diag(parity_unitary(b_in_ab.alg, _positions(regions.A, regions.AB))).real[:, None] > 0
        q_list = p_ab[:k]
        for i, j in pairs:
            q_list += [np.where(rows, p_ab[i], p_ab[j]), np.where(rows, p_ab[j], p_ab[i])]

        # q_i + q_j = p_i + p_j holds row by row by construction; what can fail is the family
        if not is_projection_family(q_list, b_in_ab.alg.dim):
            raise UnmatchedParityAction("central projections of C do not resolve the identity into the pairs of B")
        scatter = matrix_units(alg, regions.AB).iso_from_small
        return CentralStructure(p_list=list(scatter(np.stack(p_ab))), q_list=list(scatter(np.stack(q_list))),
                                k=k, pairs=pairs)

    @cached_property
    def _b_tilde(self) -> tuple[SubalgebraBasis, list[np.ndarray]]:
        """B~ = B' n A_B and B's minimal central projections, from one commutant solve in B's factor."""
        if _fills_factor(self.pair.w_plus):     # B = A_B, a factor: B~ = C1, and 1 its one projection
            one = np.eye(self.pair.w_plus.shape[-1], dtype=complex)
            return _from_small(self.state.alg.dim, self.regions.B, one[None], True), [one]
        return _commutant_and_projections(self.b_basis, region_subalgebra(self.state.alg, self.regions.B))

    @cached_property
    def _c_tilde(self) -> SubalgebraBasis:
        """C~ = B~ v ((A_C)^+ + v_B (A_C)^-), shared by the block decomposition
        and the lemma validation.  The second factor is the relative commutant
        of A_B in A_BC, W (1 x M_e) W^* in B's unit frame (``_b_frame``), so C~
        is W (B~ x M_e) W^*, read from B~'s small picture: a tensor product of
        two algebras, with no product round."""
        frame, _, odd = _b_frame(self.regions, self.regions.C)
        c_tilde = frame.unframe(_kron(self._b_tilde[0].small, _scaled_units(len(odd)).reshape(-1, *odd.shape)))
        return _from_small(self.state.alg.dim, self.regions.BC, c_tilde, True)

    @cached_property
    def decomposition(self) -> BlockDecomposition:
        """Block decomposition of an even Markov state.

        Cuts the commuting factors by the minimal central projections q of C:
        parity-fixed blocks give (x_j, y_j) pairs, parity-swapped pairs store
        one representative whose partner blocks are the parity images.  Every
        q lies in C and in C^ = span{p_A, 1 - p_A} v C~, p_A = (1 + v_A) / 2,
        and a block factor z = q x or w = q y keeps z = q z, so each is
        certified by one rule: x's block against C (read from the graded
        pair), y's against C^.  v_A is an even unitary of A_A, so it commutes
        with A_BC and tau(v_A c) = 0 for c in A_BC: C^ = C~ (+) v_A C~, an
        orthogonal sum, and E_C^(w) = E_C~(w) + v_A E_C~(v_A w).
        """
        self._require_even_markov("block decomposition")
        if not self.triplet.markov:
            raise NotMarkov(f"A-side generators escape the stable algebra: residual {self.triplet.a_in_c_residual:.3e}")
        # C~'s stack in A_BC's factor is built before the D x D central projections exist
        c_tilde = self._c_tilde
        state, alg, tol_member = self.state, self.state.alg, self.tol_member
        x, y, central = self.factorization.x, self.factorization.y, self.central
        v_a = _parity_diagonal(alg, self.regions.A)[:, None]     # v_A is diagonal: a product is a row scaling
        lemma_join = self.pair.join_residual
        y_comm_ok, y_comm_res = membership(y, c_tilde, tol_member)

        blocks: list[Block] = []
        total = np.zeros_like(state.rho)
        k = central.k
        # a fixed block is cut by its q; a pair by its first q, and its second
        # q2 cuts the parity images of the pair's factors
        for idx in [*range(k), *range(k, len(central.q_list), 2)]:
            q = central.q_list[idx]
            z, w = q @ x, q @ y
            kind, projection, images, partners = "theta_fixed", q, 0, {}
            if idx >= k:
                q2 = central.q_list[idx + 1]
                tz, tw = parity_automorphism(alg, z), parity_automorphism(alg, w)
                kind, projection, images = "theta_pair", q + q2, tz @ tw
                partners = {
                    "partner_x_residual": hs.hs_norm(q2 @ x - tz),
                    "partner_y_residual": hs.hs_norm(q2 @ y - tw),
                }
            y_res = hs.hs_norm(w - c_tilde.project(w) - v_a * c_tilde.project(v_a * w))
            blocks.append(Block(kind=kind, projection=projection, x_factor=z, y_factor=w,
                                weight=float(np.vdot(projection, state.rho).real),
                                x_membership_residual=hs.hs_norm(z - self.pair.project(z)),
                                y_membership_residual=y_res, **partners))
            total = total + z @ w + images

        reassembly = hs.hs_norm(total - state.rho)
        worst_member = max(max(b.x_membership_residual, b.y_membership_residual) for b in blocks)
        partner_residuals = [r for b in blocks for r in (b.partner_x_residual, b.partner_y_residual) if r is not None]
        worst_partner = max(partner_residuals, default=0.0)
        if reassembly > TOL_BLOCK or lemma_join > TOL_BLOCK or not y_comm_ok:
            raise BlockCertificationFailed(
                f"reassembly {reassembly:.3e}, join identity {lemma_join:.3e}, "
                f"y commutant membership {y_comm_res:.3e}"
            )
        if worst_member > tol_member * 10 or worst_partner > TOL_PAIR:
            raise BlockCertificationFailed(
                f"block certificates failed: membership {worst_member:.3e}, partner {worst_partner:.3e}"
            )
        return BlockDecomposition(
            central=central,
            blocks=blocks,
            reassembly_residual=float(reassembly),
            lemma_join_residual=float(lemma_join),
            y_commutant_residual=float(y_comm_res),
        )

    @cached_property
    def lemmas(self) -> StructureLemmaReport:
        """Span-equality residuals of the three structural identities of even
        saturating states:

          1. C equals the algebra generated by A_A and B;
          2. C' equals (B' in A_BC)_even + (B' in A_BC)_odd v_A;
          3. B' in A_BC equals the algebra generated by B' in A_B together
             with (A_C)_even + v_B (A_C)_odd.
        """
        self._require_even_markov("structure lemmas")
        state, regions = self.state, self.regions
        alg = state.alg
        v_all = parity_unitary(alg, alg.sites)
        v_a = parity_unitary(alg, regions.A)

        join_res = self.pair.join_residual

        c_comm = commutant(self.c_basis)
        kom = commutant(self.b_basis, ambient=region_subalgebra(state.alg, regions.BC))
        k_even, k_odd, _ = parity_split(kom, v_all)
        rhs_parts = list(k_even) + [k @ v_a for k in k_odd]
        rhs1 = subalgebra_from_matrices(np.stack(rhs_parts)) if rhs_parts else c_comm
        comm_res = span_equality_residual(c_comm, rhs1)

        middle_res = span_equality_residual(kom, self._c_tilde)

        return StructureLemmaReport(
            join_residual=float(join_res),
            commutant_residual=float(comm_res),
            middle_residual=float(middle_res),
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
