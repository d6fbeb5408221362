# src/fermarkov/states.py

"""Seeded state generators: random faithful states, commuting-factor states
that saturate the entropy inequality by construction, and block-designed even
states whose middle-region algebra decomposes into prescribed central blocks.

Every generator is a pure function of (parameters, seed); identical inputs
give bitwise-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hs
from .car import (
    CarAlgebra,
    RegionPartition,
    build_algebra,
    matrix_units,
    parity_automorphism,
    parity_unitary,
)
from .entropy import StateDensity
from .errors import CommutationFailed, RegionTooSmall

_COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class GeneratorSpec:
    """Fully deterministic description of a generated state."""

    kind: str                      # random | random_even | product_markov | block_markov | perturbed
    seed: int
    regions: RegionPartition
    params: dict = field(default_factory=dict)


def _default_floor(n: int) -> float:
    return 2.0 ** (-n) * 1e-3


def random_state(n: int, seed: int, floor: float | None = None) -> StateDensity:
    """rho = (G G^* + floor I) / normalizer with G a seeded complex Gaussian."""
    floor = _default_floor(n) if floor is None else float(floor)
    if not 0.0 < floor < 2.0 ** (-n):
        raise ValueError(f"floor must lie in (0, 2^-{n}), got {floor}")
    alg = build_algebra(n)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(alg.dim, alg.dim)) + 1j * rng.normal(size=(alg.dim, alg.dim))
    rho = g @ g.conj().T + floor * np.eye(alg.dim)
    rho /= np.trace(rho).real
    return StateDensity.from_matrix(alg, rho)


def random_even_state(n: int, seed: int, floor: float | None = None) -> StateDensity:
    """Parity-invariant random faithful state via averaging with its conjugate."""
    state = random_state(n, seed, floor)
    rho = (state.rho + parity_automorphism(state.alg, state.rho)) / 2
    return StateDensity.from_matrix(state.alg, rho)


def perturb(state: StateDensity, epsilon: float, seed: int, *, keep_even: bool = False) -> StateDensity:
    """Convex mix (1 - eps) rho + eps sigma with a seeded random reference.

    keep_even draws the reference parity invariant so an even input stays even.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon == 0.0:
        return state
    n = state.alg.n_sites
    ref = random_even_state(n, seed) if keep_even else random_state(n, seed)
    rho = (1.0 - epsilon) * state.rho + epsilon * ref.rho
    return StateDensity.from_matrix(state.alg, rho)


# --- building blocks ----------------------------------------------------------

def _random_positive_region(alg: CarAlgebra, region: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Even positive invertible element supported in the region algebra,
    spectrum in roughly [0.15, 1.15] before the parity average."""
    family = matrix_units(alg, region)
    d = family.small_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    small = g @ g.conj().T
    small = small / np.linalg.eigvalsh(small)[-1] + 0.15 * np.eye(d)
    x = family.iso_from_small(small)
    return hs.hermitian_part((x + parity_automorphism(alg, x)) / 2)


def _random_odd_selfadjoint_region(
    alg: CarAlgebra, region: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Odd self-adjoint element of the region algebra, operator norm 1."""
    family = matrix_units(alg, region)
    d = family.small_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = family.iso_from_small(g + g.conj().T)
    x = (x - parity_automorphism(alg, x)) / 2
    nrm = float(np.linalg.norm(x, 2))
    if nrm < 1e-12:
        raise CommutationFailed("degenerate odd draw")
    return hs.hermitian_part(x / nrm)


def make_product_markov(
    regions: RegionPartition,
    seed: int,
    parity_mode: str = "even_even",
    *,
    return_factors: bool = False,
):
    """State rho = x y with positive x supported on the A+B sites and positive
    y on the C sites; saturates the entropy inequality by construction.

    parity_mode "even_even" gives an even state (and a Markov triplet);
    "even_noneven" adds an odd self-adjoint component to y, keeping positivity
    and commutation with the even x but breaking parity invariance of rho.
    """
    if parity_mode not in ("even_even", "even_noneven"):
        raise ValueError(f"unknown parity_mode {parity_mode!r}")
    alg = build_algebra(regions.n_sites)
    # an even x in A_AB commutes exactly with every y in A_C, odd part or not
    rng = np.random.default_rng((seed, 0))
    x = _random_positive_region(alg, regions.AB, rng)
    y = _random_positive_region(alg, regions.C, rng)
    if parity_mode == "even_noneven":
        odd = _random_odd_selfadjoint_region(alg, regions.C, rng)
        y = y + 0.5 * float(np.linalg.eigvalsh(y)[0]) * odd
    comm = float(np.max(np.abs(x @ y - y @ x)))
    if comm > _COMMUTE_TOL:
        raise CommutationFailed(f"factors fail to commute within {_COMMUTE_TOL:.1e}: {comm:.3e}")
    rho = x @ y
    rho = hs.hermitian_part(rho / np.trace(rho).real)
    state = StateDensity.from_matrix(alg, rho)
    if return_factors:
        return state, x, y
    return state


# --- block-designed even Markov states -----------------------------------------

@dataclass(frozen=True)
class BlockDesign:
    """Designed central data of a block-built state, for round-trip comparison."""

    k_fixed: int
    n_pairs: int
    fixed_projections: list[np.ndarray]
    pair_projections: list[tuple[np.ndarray, np.ndarray]]
    x: np.ndarray
    y: np.ndarray


def _diag_projection(alg: CarAlgebra, region: tuple[int, ...], patterns: list[int]) -> np.ndarray:
    """Even projection selecting occupation patterns of the region sites."""
    family = matrix_units(alg, region)
    return family.iso_from_small(np.diag(np.bincount(patterns, minlength=family.small_dim)))


def make_block_markov(
    regions: RegionPartition,
    seed: int,
    k_fixed: int,
    n_pairs: int,
) -> tuple[StateDensity, BlockDesign]:
    """Even Markov state whose middle-region stable algebra has k_fixed
    parity-fixed central blocks plus n_pairs parity-swapped block pairs.

    Swapped pairs are carried by one designated middle site: with w = a + a^*
    on that site, mixing the C-side factor with w leaves exactly the span of
    {1, i(a - a^*)} stable, whose central projections the parity swaps.
    """
    m_slots = k_fixed + 2 * n_pairs
    if m_slots < 1:
        raise ValueError("need at least one block")
    b_sites = regions.B
    if m_slots > 2 ** len(b_sites):
        raise RegionTooSmall(
            f"middle region with {len(b_sites)} sites cannot host {m_slots} central blocks"
        )
    alg = build_algebra(regions.n_sites)
    rng = np.random.default_rng((seed, k_fixed, n_pairs))
    eye = alg.identity()

    x = np.zeros((alg.dim, alg.dim), dtype=complex)
    y = np.zeros_like(x)
    pair_projs: list[tuple[np.ndarray, np.ndarray]] = []
    pair_groups: list[list[int]] = []

    if n_pairs > 0:
        i_star = b_sites[-1]
        rest = b_sites[:-1]
        n_rest = 2 ** len(rest)
        if n_pairs > n_rest or k_fixed > 2 * (n_rest - n_pairs):
            raise RegionTooSmall(
                f"cannot pack {k_fixed} fixed + {n_pairs} pair blocks into {len(b_sites)} sites"
            )
        # one rest-pattern per pair; leftovers join the last group of their kind
        pair_groups = [[p] for p in range(n_pairs)]
        free = list(range(n_pairs, n_rest))
        # i* is B's last site, so 2 * rest-pattern + i*-bit is B's pattern
        fixed_states = [2 * p + b for p in free for b in (0, 1)]
        if k_fixed == 0:
            pair_groups[-1].extend(free)
            fixed_groups: list[list[int]] = []
        else:
            fixed_groups = [[fixed_states[j]] for j in range(k_fixed)]
            fixed_groups[-1].extend(fixed_states[k_fixed:])

        a_s, ad_s = alg.annihilators[i_star], alg.creators[i_star]
        w_mix = a_s + ad_s
        # central direction swapped by parity: odd corner elements anticommute
        # with i(a - a^*) alone, so the rest-parity factor is needed
        w_cen = parity_unitary(alg, rest) @ (1j * (a_s - ad_s))
    else:
        fixed_groups = [[j] for j in range(k_fixed)]
        fixed_groups[-1].extend(range(k_fixed, 2 ** len(b_sites)))

    fixed_projs = [_diag_projection(alg, b_sites, group) for group in fixed_groups]
    for r in fixed_projs:
        g = _random_positive_region(alg, regions.A, rng)
        h = _random_positive_region(alg, regions.C, rng)
        x = x + r @ g
        y = y + r @ h

    for group in pair_groups:
        r = _diag_projection(alg, rest, group)
        g_even = _random_positive_region(alg, regions.A, rng)
        g_odd = _random_odd_selfadjoint_region(alg, regions.A, rng)
        gamma = 0.5 * float(np.linalg.eigvalsh(g_even)[0])
        x_part = g_even + gamma * 1j * (g_odd @ w_cen)
        h_even = _random_positive_region(alg, regions.C, rng)
        c_odd = _random_odd_selfadjoint_region(alg, regions.C, rng)
        beta = 0.5 * float(np.linalg.eigvalsh(h_even)[0])
        y_part = h_even + beta * 1j * (w_mix @ c_odd)
        x = x + r @ x_part
        y = y + r @ y_part
        p_plus = r @ (eye + w_cen) / 2
        p_minus = r @ (eye - w_cen) / 2
        pair_projs.append((p_plus, p_minus))

    x, y = hs.hermitian_part(x), hs.hermitian_part(y)
    comm = float(np.max(np.abs(x @ y - y @ x)))
    if comm > _COMMUTE_TOL:
        raise CommutationFailed(f"designed factors do not commute: {comm:.3e}")
    rho = x @ y
    rho = hs.hermitian_part(rho / np.trace(rho).real)
    state = StateDensity.from_matrix(alg, rho)
    design = BlockDesign(k_fixed, n_pairs, fixed_projs, pair_projs, x, y)
    return state, design


def generate(spec: GeneratorSpec) -> StateDensity:
    """Dispatch a GeneratorSpec to the matching generator."""
    n = spec.regions.n_sites
    p = spec.params
    if spec.kind == "random":
        return random_state(n, spec.seed, p.get("floor"))
    if spec.kind == "random_even":
        return random_even_state(n, spec.seed, p.get("floor"))
    if spec.kind == "product_markov":
        return make_product_markov(spec.regions, spec.seed, p.get("parity_mode", "even_even"))
    if spec.kind == "block_markov":
        state, _ = make_block_markov(
            spec.regions, spec.seed, int(p.get("k_fixed", 1)), int(p.get("n_pairs", 0))
        )
        return state
    if spec.kind == "perturbed":
        base_kind = p.get("base_kind", "product_markov")
        base = generate(GeneratorSpec(base_kind, spec.seed, spec.regions, p.get("base_params", {})))
        return perturb(
            base, float(p.get("epsilon", 1e-3)), spec.seed + 1, keep_even=bool(p.get("keep_even", False))
        )
    raise ValueError(f"unknown generator kind {spec.kind!r}")
