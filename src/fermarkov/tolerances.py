# src/fermarkov/tolerances.py

"""Every bound a residual is gated against, by name.

A verdict is a residual against a bound.  The constants below are the
bounds no caller sets; the modules that gate with them import them under
the names they have always had there (``subalgebra.TOL_MEMBER``,
``spectral.EPS_FAITHFUL``, ``subalgebra._GAP``, ...).  A caller sets two
bounds, tol_equality and tol_member; ``Tolerances`` holds them and derives
from tol_member, by name, the bounds its checks read.
"""

from __future__ import annotations

from dataclasses import dataclass

# --- spectral decompositions and ranks
TOL_HERM = 1e-10         # max entrywise |M - M^*| read as self-adjoint; least eigenvalue a fractional power accepts
EPS_FAITHFUL = 1e-12     # spectrum floor below which log / negative powers fail and a state is not faithful
TOL_FACTOR_HERM = 1e-7   # self-adjointness defect of a common factor (y, d), relative to 1 + its norm
TOL_FACTOR_POS = 1e-9    # negative eigenvalue of a common factor that is read as rounding
RANK_RTOL = 1e-9         # relative singular-value threshold for rank decisions

# --- densities, restrictions and the entropy gap
TOL_EQUALITY = 1e-8      # default tol_equality: gap below which the entropy inequality counts as saturated
TOL_TRACE = 1e-10        # |Tr rho - 1| accepted in a state density
TOL_PSD = 1e-12          # negative eigenvalue accepted in a state density
RESTRICTION_PSD = 1e-10  # negative eigenvalue accepted in a restriction rho_I
RESTRICTION_TRACE = 1e-8 # |Tr rho_I - 1| accepted in a restriction rho_I
TOL_CROSS = 1e-8         # entropy gap against its relative-entropy cross-check
TOL_GAP_NEG = 1e-9       # negative entropy gap still accepted as roundoff
TOL_EVEN = 1e-10         # parity defect accepted as "even state"

# --- spans and subalgebras
TOL_MEMBER = 1e-9        # default tol_member: membership residual accepted as "inside the span"
NULL_RTOL = 1e-11        # relative cut on squared commutator norms of a nullspace
GAP = 1e-8               # relative eigenvalue gap that separates two clusters
PROJECTION_TOL = 1e-9    # entrywise defect accepted in a projection family
NORM_FLOOR = 1e-14       # tau-norm of a generator or random Hermitian combination dropped as zero

# --- Markov structure
TOL_BLOCK = 1e-8         # reconstruction / reassembly / span-identity residual bound
TOL_PAIR = 1e-9          # partner-block parity-image and factor commutator residual bound
PARITY_MATCH = 1e-8      # central projection's parity image against its match, relative to max(1, its norm)

# --- sufficiency
TOL_CHANNEL = 1e-9       # unitality / state-preservation residual
TOL_PETZ_EQ = 1e-8       # superoperator distance accepted as "equal maps"
TOL_RECON = 1e-8         # tau-norm residual of a density rebuilt from the common factor
TOL_MONOTONE = 1e-7      # relative entropy gained under restriction that is read as rounding
WITNESS_MARGIN = 0.1     # factor defect, as a share of the certificates' gates, needing no certificate

# --- generators and the selftest
COMMUTE_TOL = 1e-10      # entrywise commutator of a generated state's two factors
ODD_DRAW_FLOOR = 1e-12   # operator norm below which a random odd draw is degenerate
SELFTEST_BOUND = 1e-10   # worst residual of an exact CAR-algebra identity


def adjoint_closure(tol: float) -> float:
    """Bound on an adjoint-closure residual, for products gated at tol."""
    return 2 * tol


@dataclass(frozen=True)
class Tolerances:
    """The two bounds a caller sets, and the gates derived from them."""

    equality: float = TOL_EQUALITY   # tol_equality: entropy gap (and drop) accepted as zero
    member: float = TOL_MEMBER       # tol_member: membership residual accepted as "inside the span"

    @property
    def a_in_c(self) -> float:
        """A-side generators against C: a_i's residual is sqrt(1/2) times 1's against W-."""
        return self.member * (1.0 + 0.5 ** 0.5)

    @property
    def cond_exp_in_b(self) -> float:
        """E_BC(C) against B (the document's triplet.cond_exp_in_b)."""
        return self.member * 10

    @property
    def factor_region(self) -> float:
        """x against A_AB and y against A_BC (the document's factorization checks)."""
        return self.member * 2

    @property
    def block_member(self) -> float:
        """Each block factor against C or C^."""
        return self.member * 10

    @property
    def cocycle(self) -> float:
        """1 against the cocycle's invariant subspace (SufficiencyReport.ok_cocycle)."""
        return self.member * 2.0

    def section(self) -> dict:
        """The `tolerances` section of a verdict document."""
        return {
            "tol_equality": self.equality,
            "tol_member": self.member,
            "tol_herm": TOL_HERM,
            "eps_faithful": EPS_FAITHFUL,
        }
