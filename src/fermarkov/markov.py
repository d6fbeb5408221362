# src/fermarkov/markov.py

"""Markov-triplet analysis and structure of entropy-equality states.

For a faithful state on sites partitioned into A, B, C the pipeline computes:

  - the entropy gap and its saturation verdict;
  - the flow-stable subalgebras
        C = {x in A_AB : the modular flow of the embedded restriction to B+C
             keeps x inside A_AB for all t},
        B = the same inside A_B,
    decided algebraically by the derivation iteration;
  - the Markov verdict: saturation together with every A-site generator lying
    in C (automatic for even states by graded commutation);
  - the commuting factorization rho = x y with x the density of the restricted
    state on C and y = x^{-1} rho, certified to lie in the B+C algebra;
  - for even Markov states, the central structure of B under the parity
    automorphism and the block decomposition of rho into parity-fixed blocks
    and parity-swapped block pairs, each factor certified by membership in its
    block algebra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hs
from .car import (
    RegionPartition,
    even_odd_split,
    parity_automorphism,
    parity_unitary,
    region_orthobasis,
)
from .entropy import (
    TOL_EQUALITY,
    SsaReport,
    StateDensity,
    _ssa_report,
)
from .errors import (
    BlockCertificationFailed,
    FactorizationFailed,
    NotEven,
    NotMarkov,
    NotSaturated,
    UnmatchedParityAction,
)
from .spectral import EPS_FAITHFUL, mat_log
from .subalgebra import (
    TOL_MEMBER,
    SubalgebraBasis,
    _small,
    commutant,
    invariant_subalgebra,
    is_projection_family,
    membership,
    minimal_central_projections,
    parity_split,
    product_algebra,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)

TOL_EVEN = 1e-10       # parity defect accepted as "even state"
TOL_BLOCK = 1e-8       # reassembly / span-identity residual bound
TOL_PAIR = 1e-9        # partner-block parity-image residual bound


@dataclass(frozen=True)
class TripletAnalysis:
    """Saturation, flow-stable subalgebras, and the Markov verdict."""

    ssa: SsaReport
    c_basis: SubalgebraBasis
    b_basis: SubalgebraBasis
    a_in_c: bool
    a_in_c_residual: float
    cond_exp_residual: float     # worst membership of E_BC(C) in B
    markov: bool
    elapsed: float               # seconds for the checks, after the shared build


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
    x_parity_defect: float | None    # set for even input states
    y_parity_defect: float | None


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
    elapsed: float                   # seconds, after the shared build and factorization


@dataclass(frozen=True)
class StructureLemmaReport:
    join_residual: float             # C = algebra generated by A_A and B
    commutant_residual: float        # C' = even/odd twisted commutant identity
    middle_residual: float           # B' within A_BC = twisted generation identity
    dims: dict = field(default_factory=dict)


# --- shared analysis -------------------------------------------------------------

@dataclass(frozen=True)
class _LemmaAlgebras:
    """Structure-lemma algebras of an even Markov state, shared by the block
    decomposition and the lemma validation.  join and c_tilde are certified
    products of two graded-commuting *-subalgebras."""

    a_stack: np.ndarray              # basis of A_A
    c_even: np.ndarray               # basis of (A_C)_even
    c_odd: np.ndarray                # basis of (A_C)_odd
    v_b: np.ndarray                  # parity unitary of B
    b_tilde: SubalgebraBasis         # B' within A_B
    join: SubalgebraBasis            # A_A v B, which equals C
    c_tilde: SubalgebraBasis         # B~ v ((A_C)_even + v_B (A_C)_odd)


class Analysis:
    """One faithful state on one region partition.  Construction builds what
    every result shares: the SSA report and the flow-stable subalgebras C (in
    A_AB) and B (in A_B).  Each result below is computed on first access, with
    these tolerances, and cached."""

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
        log_bc = mat_log(rho_bc, eps_faithful=EPS_FAITHFUL / state.alg.dim)
        self.ab_alg = region_subalgebra(state.alg, regions.AB)
        self.b_alg = region_subalgebra(state.alg, regions.B)
        self.c_basis = invariant_subalgebra(log_bc, self.ab_alg)
        self.b_basis = invariant_subalgebra(log_bc, self.b_alg)

    def _require_even_markov(self, what: str) -> None:
        if not self.state.is_even(TOL_EVEN):
            raise NotEven(f"{what} needs an even state: parity defect {self.state.parity_defect():.3e}")
        if not self.ssa.saturated:
            raise NotMarkov(f"{what}: entropy gap {self.ssa.gap:.3e} is not saturated")

    @cached_property
    def triplet(self) -> TripletAnalysis:
        """Saturation and Markov verdicts with the flow-stable subalgebras."""
        start = time.perf_counter()
        alg, regions = self.state.alg, self.regions
        a_res = 0.0
        a_ok = True
        for i in regions.A:
            ok, res = membership(alg.annihilators[i], self.c_basis, self.tol_member)
            a_ok &= ok
            a_res = max(a_res, res)

        # E_BC(C) against B, both in the small picture of A_BC, where E_BC is
        # the gather itself and tau-norms are kept
        c_small, b_small = (_small(alg.dim, regions.BC, s.basis) for s in (self.c_basis, self.b_basis))
        cond_res = hs.residual_norms(b_small, c_small).max(initial=0.0)

        return TripletAnalysis(
            ssa=self.ssa,
            c_basis=self.c_basis,
            b_basis=self.b_basis,
            a_in_c=a_ok,
            a_in_c_residual=float(a_res),
            cond_exp_residual=float(cond_res),
            markov=self.ssa.saturated and a_ok,
            elapsed=time.perf_counter() - start,
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

        x = hs.hermitian_part(self.c_basis.project(state.rho))
        wx = np.linalg.eigvalsh(x)
        if wx[0] <= EPS_FAITHFUL / state.alg.dim:
            raise FactorizationFailed(f"restricted density nearly singular: min eig {wx[0]:.3e}")
        y = np.linalg.solve(x, state.rho)
        herm_defect = hs.hs_norm(y - y.conj().T)
        y = hs.hermitian_part(y)

        scale = 1.0 + hs.hs_norm(y)
        x_ok, x_res = membership(x, self.ab_alg, tol_member)
        y_ok, y_res = membership(y, region_subalgebra(state.alg, regions.BC), tol_member)
        commute = hs.hs_norm(x @ y - y @ x)
        recon = hs.hs_norm(x @ y - state.rho)
        y_min = float(np.linalg.eigvalsh(y)[0])

        _, y_odd = even_odd_split(state.alg, y)
        y_odd_norm = hs.hs_norm(y_odd)
        y_parity = "even" if y_odd_norm <= TOL_PAIR * scale else "noneven"

        x_defect = y_defect = None
        if state.is_even(TOL_EVEN):
            x_defect = hs.hs_norm(x - parity_automorphism(state.alg, x))
            y_defect = hs.hs_norm(y - parity_automorphism(state.alg, y))

        if (
            recon > TOL_BLOCK
            or herm_defect > 1e-7 * scale
            or commute > TOL_PAIR * scale
            or not (x_ok and y_ok)
            or y_min < -1e-9 * scale
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
            x_parity_defect=x_defect,
            y_parity_defect=y_defect,
        )

    @cached_property
    def central(self) -> CentralStructure:
        """Minimal central projections of B, parity-matched and paired,
        together with the induced minimal central projections of C."""
        self._require_even_markov("central structure")
        state = self.state
        p_raw = minimal_central_projections(self.b_basis)
        m = len(p_raw)

        perm = []
        for i, p in enumerate(p_raw):
            image = parity_automorphism(state.alg, p)
            dists = [float(np.linalg.norm(image - q)) for q in p_raw]
            j = int(np.argmin(dists))
            if dists[j] > 1e-8 * max(1.0, float(np.linalg.norm(p))):
                raise UnmatchedParityAction(
                    f"parity image of central projection {i} matches nothing: distance {dists[j]:.3e}"
                )
            perm.append(j)
        if any(perm[perm[i]] != i for i in range(m)):
            raise UnmatchedParityAction(f"parity action is not an involution: {perm}")

        rho = state.rho
        fixed = sorted(
            (i for i in range(m) if perm[i] == i),
            key=lambda i: -float(np.trace(p_raw[i] @ rho).real),
        )
        pair_reps = sorted(
            (i for i in range(m) if perm[i] > i),
            key=lambda i: -float(np.trace((p_raw[i] + p_raw[perm[i]]) @ rho).real),
        )
        if len(fixed) + 2 * len(pair_reps) != m:
            raise UnmatchedParityAction(f"inconsistent parity pairing: {perm}")

        p_list = [p_raw[i] for i in fixed]
        pairs: list[tuple[int, int]] = []
        for i in pair_reps:
            first, second = p_raw[i], p_raw[perm[i]]
            if _lex_key(second) < _lex_key(first):
                first, second = second, first
            pairs.append((len(p_list), len(p_list) + 1))
            p_list.extend([first, second])
        k = len(fixed)

        eye = state.alg.identity()
        p_a = (eye + parity_unitary(state.alg, self.regions.A)) / 2
        q_list = list(p_list[:k])
        for i, j in pairs:
            q_list.append(p_a @ p_list[i] + (eye - p_a) @ p_list[j])
            q_list.append((eye - p_a) @ p_list[i] + p_a @ p_list[j])

        if not is_projection_family(q_list, state.alg.dim, tol=1e-9) or any(
            np.max(np.abs(q_list[i] + q_list[j] - p_list[i] - p_list[j])) > 1e-9 for i, j in pairs
        ):
            raise UnmatchedParityAction("central projections of C do not resolve the identity into the pairs of B")
        return CentralStructure(p_list=p_list, q_list=q_list, k=k, pairs=pairs)

    @cached_property
    def _lemma_algebras(self) -> _LemmaAlgebras:
        alg, regions = self.state.alg, self.regions
        a_stack = region_orthobasis(alg, regions.A)
        c_even, c_odd, _ = parity_split(
            region_subalgebra(alg, regions.C), parity_unitary(alg, alg.sites)
        )
        v_b = parity_unitary(alg, regions.B)
        b_tilde = commutant(self.b_basis, ambient=self.b_alg)
        join = product_algebra(a_stack, self.b_basis.basis, regions.AB)
        c_tilde = product_algebra(b_tilde.basis, np.concatenate([c_even, v_b @ c_odd]), regions.BC)
        return _LemmaAlgebras(a_stack, c_even, c_odd, v_b, b_tilde, join, c_tilde)

    @cached_property
    def decomposition(self) -> BlockDecomposition:
        """Block decomposition of an even Markov state.

        Cuts the commuting factors by the minimal central projections of C and
        certifies every factor inside its block algebra: parity-fixed blocks
        give (x_j, y_j) pairs, parity-swapped pairs store one representative
        whose partner blocks are the parity images.
        """
        start = time.perf_counter()
        self._require_even_markov("block decomposition")
        if not self.triplet.markov:
            raise NotMarkov(f"A-side generators escape the stable algebra: residual {self.triplet.a_in_c_residual:.3e}")
        state, regions, tol_member = self.state, self.regions, self.tol_member
        fact, central = self.factorization, self.central

        alg = state.alg
        x, y = fact.x, fact.y
        lem = self._lemma_algebras
        b_stack, bt_stack = self.b_basis.basis, lem.b_tilde.basis
        eye = alg.identity()
        p_a = (eye + parity_unitary(alg, regions.A)) / 2

        lemma_join = span_equality_residual(self.c_basis, lem.join)
        _, y_comm_res = membership(y, lem.c_tilde, tol_member)

        blocks: list[Block] = []
        total = np.zeros_like(state.rho)
        k = central.k
        for j in range(k):
            q = central.q_list[j]
            xj, yj = q @ x, q @ y
            p_j = central.p_list[j]
            if len(central.p_list) == 1:
                # p_1 = 1: the block algebras are the join and C~ themselves
                c_j, ct_j = lem.join, lem.c_tilde
            else:
                c_j = product_algebra(lem.a_stack, _cut_stack(p_j, b_stack), regions.AB)
                ct_j = product_algebra(
                    _cut_stack(p_j, bt_stack),
                    np.concatenate([lem.c_even, p_j @ lem.v_b @ lem.c_odd]),
                    regions.BC,
                )
            _, rx = membership(xj, c_j, tol_member)
            _, ry = membership(yj, ct_j, tol_member)
            blocks.append(
                Block(
                    kind="theta_fixed",
                    projection=q,
                    x_factor=xj,
                    y_factor=yj,
                    weight=float(np.trace(q @ state.rho).real),
                    x_membership_residual=float(rx),
                    y_membership_residual=float(ry),
                )
            )
            total = total + xj @ yj

        for pair_no, (i, j) in enumerate(central.pairs):
            idx = k + 2 * pair_no
            q1, q2 = central.q_list[idx], central.q_list[idx + 1]
            z, w = q1 @ x, q1 @ y
            partner_x = hs.hs_norm(q2 @ x - parity_automorphism(alg, z))
            partner_y = hs.hs_norm(q2 @ y - parity_automorphism(alg, w))
            p1, p2 = central.p_list[i], central.p_list[j]
            d_l = product_algebra(
                lem.a_stack, np.concatenate([p_a @ p1 @ b_stack, (eye - p_a) @ p2 @ b_stack]), regions.AB
            )
            # u_l squares to p1 + p2, not 1: the cut even part keeps the right factor closed
            u_l = (p1 + p2) @ lem.v_b
            dt_l = product_algebra(
                np.concatenate([p_a @ p1 @ bt_stack, (eye - p_a) @ p2 @ bt_stack]),
                np.concatenate([lem.c_even, (p1 + p2) @ lem.c_even, u_l @ lem.c_odd]),
            )
            _, rz = membership(z, d_l, tol_member)
            _, rw = membership(w, dt_l, tol_member)
            e_l = q1 + q2
            blocks.append(
                Block(
                    kind="theta_pair",
                    projection=e_l,
                    x_factor=z,
                    y_factor=w,
                    weight=float(np.trace(e_l @ state.rho).real),
                    x_membership_residual=float(rz),
                    y_membership_residual=float(rw),
                    partner_x_residual=float(partner_x),
                    partner_y_residual=float(partner_y),
                )
            )
            total = total + z @ w + parity_automorphism(alg, z) @ parity_automorphism(alg, w)

        reassembly = hs.hs_norm(total - state.rho)
        worst_member = max(
            [b.x_membership_residual for b in blocks] + [b.y_membership_residual for b in blocks]
        )
        worst_partner = max(
            [r for b in blocks for r in (b.partner_x_residual, b.partner_y_residual) if r is not None],
            default=0.0,
        )
        if reassembly > TOL_BLOCK or lemma_join > TOL_BLOCK or y_comm_res > tol_member * (1 + hs.hs_norm(y)):
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
            elapsed=time.perf_counter() - start,
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
        lem = self._lemma_algebras
        v_all = parity_unitary(alg, alg.sites)
        v_a = parity_unitary(alg, regions.A)

        join_res = span_equality_residual(self.c_basis, lem.join)

        c_comm = commutant(self.c_basis)
        kom = commutant(self.b_basis, ambient=region_subalgebra(state.alg, regions.BC))
        k_even, k_odd, _ = parity_split(kom, v_all)
        rhs_parts = list(k_even) + [k @ v_a for k in k_odd]
        rhs1 = subalgebra_from_matrices(np.stack(rhs_parts)) if rhs_parts else c_comm
        comm_res = span_equality_residual(c_comm, rhs1)

        middle_res = span_equality_residual(kom, lem.c_tilde)

        return StructureLemmaReport(
            join_residual=float(join_res),
            commutant_residual=float(comm_res),
            middle_residual=float(middle_res),
            dims={
                "c": self.c_basis.size,
                "b": self.b_basis.size,
                "c_commutant": c_comm.size,
                "b_rel_commutant": kom.size,
                "b_rel_commutant_even": int(k_even.shape[0]),
                "b_rel_commutant_odd": int(k_odd.shape[0]),
            },
        )


def _lex_key(p: np.ndarray) -> bytes:
    flat = np.concatenate([p.real.ravel(), p.imag.ravel()])
    return np.round(flat, 9).tobytes()


def _cut_stack(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    cut = p @ stack
    return cut[np.linalg.norm(hs.flatten(cut), axis=1) > 1e-12]


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
