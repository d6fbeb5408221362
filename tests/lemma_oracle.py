"""The structure-lemma report by the D x D route: the reference that
`Analysis.lemmas`, which reads every identity in the regions' factors, is
tested against at small n.

C' is solved as the commutant of C's D x D basis in all of M_D, K = B' n A_BC
is split into even and odd parts by conjugation with the D x D parity
unitary, and K_even + K_odd v_A is orthonormalized at D x D.  Every stack
here is (m, D, D), so keep it to n <= 6.
"""

from __future__ import annotations

import numpy as np

from fermarkov import hs
from fermarkov.car import parity_unitary
from fermarkov.markov import Analysis, StructureLemmaReport
from fermarkov.subalgebra import (
    SubalgebraBasis,
    commutant,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)


def parity_split(s: SubalgebraBasis, parity_unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Even and odd tau-orthonormal stacks of a parity-stable span.

    Returns (even_stack, odd_stack, stability_residual) where the residual
    measures how far conjugation by the parity unitary maps the span outside
    itself.
    """
    v = parity_unitary
    conj = v @ s.basis @ v
    stability = float(hs.residual_norms(s.basis, conj).max()) if s.size else 0.0
    even = hs.orthonormalize((s.basis + conj) / 2)
    odd = hs.orthonormalize((s.basis - conj) / 2)
    return even, odd, stability


def dense_lemmas(an: Analysis) -> StructureLemmaReport:
    """The three lemma residuals and six dimensions of an even Markov state's
    analysis, lemma 2 compared at D x D: C' against K_even + K_odd v_A."""
    alg, regions = an.state.alg, an.regions
    c_comm = commutant(an.c_basis)
    kom = commutant(an.b_basis, ambient=region_subalgebra(alg, regions.BC))
    k_even, k_odd, _ = parity_split(kom, parity_unitary(alg, alg.sites))
    rhs = subalgebra_from_matrices(np.concatenate([k_even, k_odd @ parity_unitary(alg, regions.A)]))
    return StructureLemmaReport(
        join_residual=an.pair.join_residual,
        commutant_residual=span_equality_residual(c_comm, rhs),
        middle_residual=span_equality_residual(kom, an._c_tilde),
        dims={
            "c": an.pair.dim_c,
            "b": an.pair.dim_b,
            "c_commutant": c_comm.size,
            "b_rel_commutant": kom.size,
            "b_rel_commutant_even": int(k_even.shape[0]),
            "b_rel_commutant_odd": int(k_odd.shape[0]),
        },
    )
