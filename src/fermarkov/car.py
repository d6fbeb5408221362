# src/fermarkov/car.py

"""Finite fermionic (CAR) algebra on n sites in the Jordan-Wigner representation.

Conventions:
  - a_j = Z x ... x Z x s- x I x ... x I with Z = diag(1, -1) on the j sites
    to the left, s- = [[0, 1], [0, 0]], site 0 the leftmost tensor factor.
    The number operator a_j^* a_j is diag(0, 1) on site j.
  - tau is the normalized trace tau(x) = Tr(x) / 2^n; Tr is the plain matrix
    trace.  State densities elsewhere are normalized against Tr.
  - The conditional expectation onto a site set I is the Hilbert-Schmidt
    orthogonal projection onto the span of the algebra generated by that set;
    this works for interleaved (non-contiguous) regions where the subalgebra
    is not a plain tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import DimensionTooLarge

MAX_SITES = 10

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class CarAlgebra:
    """Annihilators a_0 .. a_{n-1} on a 2^n dimensional space.  Immutable."""

    n_sites: int
    annihilators: tuple[np.ndarray, ...]
    creators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites))

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)


@lru_cache(maxsize=MAX_SITES)
def build_algebra(n: int) -> CarAlgebra:
    """Jordan-Wigner generators on n sites (1 <= n <= 10).  Cached: algebras
    are immutable, and reuse keeps the per-region matrix-unit cache warm."""
    if n < 1:
        raise ValueError(f"need at least one site, got {n}")
    if n > MAX_SITES:
        raise DimensionTooLarge(f"n = {n} exceeds the supported maximum {MAX_SITES}")
    ann = []
    for j in range(n):
        factors = [_Z] * j + [_LOWER] + [_I2] * (n - 1 - j)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ann.append(op)
    return CarAlgebra(n, tuple(ann), tuple(a.conj().T for a in ann))


@dataclass(frozen=True)
class RegionPartition:
    """Disjoint sorted site sets A, B, C covering {0, ..., n-1}."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]

    def __post_init__(self):
        for name in ("A", "B", "C"):
            sites = tuple(int(i) for i in getattr(self, name))
            if not sites:
                raise ValueError(f"region {name} must be nonempty")
            if sorted(set(sites)) != list(sites):
                raise ValueError(f"region {name} must be strictly sorted: {sites}")
            object.__setattr__(self, name, sites)
        union = set(self.A) | set(self.B) | set(self.C)
        if len(union) != len(self.A) + len(self.B) + len(self.C):
            raise ValueError("regions A, B, C must be pairwise disjoint")
        n = len(union)
        if union != set(range(n)):
            raise ValueError(f"regions must cover 0..{n - 1}, got {sorted(union)}")

    @property
    def n_sites(self) -> int:
        return len(self.A) + len(self.B) + len(self.C)

    @property
    def AB(self) -> tuple[int, ...]:
        return tuple(sorted(self.A + self.B))

    @property
    def BC(self) -> tuple[int, ...]:
        return tuple(sorted(self.B + self.C))


def parity_unitary(alg: CarAlgebra, region: Iterable[int]) -> np.ndarray:
    """v_I = prod_{i in I} (a_i^* a_i - a_i a_i^*); self-adjoint unitary
    implementing the sign flip of the generators in I by conjugation."""
    v = alg.identity()
    for i in region:
        a, ad = alg.annihilators[i], alg.creators[i]
        v = v @ (ad @ a - a @ ad)
    return v


@lru_cache(maxsize=32)
def _global_parity(alg: CarAlgebra) -> np.ndarray:
    return parity_unitary(alg, alg.sites)


def parity_automorphism(alg: CarAlgebra, x: np.ndarray, region: Iterable[int] | None = None) -> np.ndarray:
    """v_I x v_I; with region omitted, the global parity automorphism."""
    v = _global_parity(alg) if region is None else parity_unitary(alg, region)
    return v @ x @ v


def even_odd_split(alg: CarAlgebra, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x + vxv)/2, (x - vxv)/2 under the global parity."""
    tx = parity_automorphism(alg, x)
    return (x + tx) / 2, (x - tx) / 2


@dataclass(frozen=True, eq=False)
class MatrixUnitFamily:
    """Mutually commuting 2x2 matrix units generating the algebra of a region.

    units[r * 2^k + c] realizes the elementary matrix unit E_rc of
    M_{2^k}; row/column bits follow ascending site order, first region site
    most significant.  parity holds +1 / -1 per unit.
    """

    alg: CarAlgebra
    region: tuple[int, ...]
    units: np.ndarray        # (4^k, D, D)
    parity: np.ndarray       # (4^k,) of +-1

    @property
    def small_dim(self) -> int:
        return 2 ** len(self.region)

    def unit(self, r: int, c: int) -> np.ndarray:
        return self.units[r * self.small_dim + c]

    def trace_pairings(self, x: np.ndarray) -> np.ndarray:
        """Tr(e_alpha^* x) for every unit, as a (2^k, 2^k) matrix per matrix of x."""
        x = np.asarray(x)
        flat = self.units.reshape(self.units.shape[0], -1)
        # conj the small stack, not the big unit stack
        pairings = (x.reshape(-1, flat.shape[1]).conj() @ flat.T).conj()
        return pairings.reshape(x.shape[:-2] + (self.small_dim, self.small_dim))

    def iso_from_small(self, m: np.ndarray) -> np.ndarray:
        """Inverse isomorphism: sum_rc m[r, c] e_(rc) in the big algebra, per matrix of m, as one GEMM."""
        m = np.asarray(m, dtype=complex)
        flat = self.units.reshape(self.units.shape[0], -1)
        return (m.reshape(-1, flat.shape[0]) @ flat).reshape(m.shape[:-2] + self.units.shape[1:])

    def orthobasis(self) -> np.ndarray:
        """tau-orthonormal basis stack of the region algebra (the scaled units)."""
        return self.units * np.sqrt(self.small_dim)


@lru_cache(maxsize=32)
def matrix_units(alg: CarAlgebra, region: tuple[int, ...]) -> MatrixUnitFamily:
    """Matrix-unit family of a nonempty sorted site set."""
    region = tuple(int(i) for i in region)
    if not region:
        raise ValueError("region must be nonempty")
    if sorted(set(region)) != list(region):
        raise ValueError(f"region must be strictly sorted: {region}")
    k = len(region)
    eye = alg.identity()

    # per-site 2x2 unit families; the off-diagonal units carry the string
    # V = prod over earlier region sites of (I - 2 a^* a)
    local = []
    v_prev = eye
    for site in region:
        a, ad = alg.annihilators[site], alg.creators[site]
        local.append((a @ ad, v_prev @ a, v_prev @ ad, ad @ a))
        v_prev = v_prev @ (eye - 2 * ad @ a)

    # products in base-4 digit order (site-major), then reorder to (row, col)
    stack = eye[None, :, :]
    for e in local:
        stack = np.einsum("mij,fjk->mfik", stack, np.stack(e)).reshape(-1, alg.dim, alg.dim)

    dsmall = 2 ** k
    units = np.empty_like(stack)
    for idx4 in range(4 ** k):
        digits = [(idx4 // 4 ** (k - 1 - j)) % 4 for j in range(k)]
        r = sum(((d >> 1) & 1) << (k - 1 - j) for j, d in enumerate(digits))
        c = sum((d & 1) << (k - 1 - j) for j, d in enumerate(digits))
        units[r * dsmall + c] = stack[idx4]

    rows = np.arange(4 ** k) // dsmall
    cols = np.arange(4 ** k) % dsmall
    parity = np.where(np.bitwise_count(rows ^ cols) % 2 == 0, 1, -1)
    return MatrixUnitFamily(alg, region, units, parity)


def region_orthobasis(alg: CarAlgebra, region: Iterable[int]) -> np.ndarray:
    """tau-orthonormal basis stack of the algebra of a site set (I for empty)."""
    region = tuple(sorted(int(i) for i in region))
    if not region:
        return alg.identity()[None, :, :]
    return matrix_units(alg, region).orthobasis()


def cond_expect(alg: CarAlgebra, x: np.ndarray, region: Iterable[int]) -> np.ndarray:
    """Trace-preserving conditional expectation onto the algebra of a site set.

    Hilbert-Schmidt orthogonal projection of x onto the span of the region's
    matrix units; satisfies tau(x b) = tau(E_I(x) b) for b in the range.
    x may be one matrix or a (m, D, D) stack, mapped elementwise.
    """
    region = tuple(sorted(int(i) for i in region))
    x = np.asarray(x, dtype=complex)
    if not region:
        tau = np.trace(x, axis1=-2, axis2=-1) / alg.dim
        return tau[..., None, None] * alg.identity()
    if region == alg.sites:
        return x.copy()
    family = matrix_units(alg, region)
    scale = alg.dim // family.small_dim
    return family.iso_from_small(family.trace_pairings(x) / scale)
