# src/fermarkov/car.py

"""Finite fermionic (CAR) algebra on n sites in the Jordan-Wigner representation.

Conventions:
  - a_j = Z x ... x Z x s- x I x ... x I with Z = diag(1, -1) on the j sites
    to the left, s- = [[0, 1], [0, 0]], site 0 the leftmost tensor factor.
    The number operator a_j^* a_j is diag(0, 1) on site j.
  - tau is the normalized trace tau(x) = Tr(x) / 2^n; Tr is the plain matrix
    trace.  State densities elsewhere are normalized against Tr.
  - The algebra of a site set I is a tensor factor up to a signed
    permutation: for interleaved (non-contiguous) regions as well, a unitary
    W that only permutes and signs the basis carries it onto M_{2^|I|} x 1
    (a fermionic swap is a signed permutation).  The conditional expectation
    onto it is a gather by W, a partial trace over the complement factor and
    a scatter back; no basis of the region algebra is formed to compute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import DimensionTooLarge

MAX_SITES = 10


@dataclass(frozen=True, eq=False)
class CarAlgebra:
    """The CAR algebra of n sites on a 2^n dimensional space.  Immutable."""

    n_sites: int

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
    """The algebra of n sites (1 <= n <= 10).  Cached: algebras are
    immutable, and reuse keeps the per-region matrix-unit cache warm."""
    if n < 1:
        raise ValueError(f"need at least one site, got {n}")
    if n > MAX_SITES:
        raise DimensionTooLarge(f"n = {n} exceeds the supported maximum {MAX_SITES}")
    return CarAlgebra(n)


def annihilator(alg: CarAlgebra, j: int) -> np.ndarray:
    """a_j, formed on request: each column c with site j occupied holds one nonzero, at
    row c - 2^(n-1-j), -1 to the number of occupied sites left of j."""
    if not 0 <= j < alg.n_sites:
        raise ValueError(f"site {j} outside range({alg.n_sites})")
    bit = 1 << (alg.n_sites - 1 - j)            # site 0 most significant
    cols = np.flatnonzero(np.arange(alg.dim) & bit)
    out = np.zeros((alg.dim, alg.dim), dtype=complex)
    out[cols - bit, cols] = 1.0 - 2.0 * (np.bitwise_count(cols & (alg.dim - 2 * bit)) % 2)
    return out


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


def _parity_diagonal(alg: CarAlgebra, region: Iterable[int]) -> np.ndarray:
    """Diagonal of v_I: a_i^* a_i - a_i a_i^* is +1 on an occupied site i and
    -1 on an empty one, so v_I is -1 to the number of empty sites of I."""
    region = tuple(region)
    mask = sum(1 << (alg.n_sites - 1 - i) for i in region)  # site 0 most significant
    filled = np.bitwise_count(np.arange(alg.dim) & mask)
    return 1.0 - 2.0 * ((len(region) - filled) % 2)


def parity_unitary(alg: CarAlgebra, region: Iterable[int]) -> np.ndarray:
    """v_I = prod_{i in I} (a_i^* a_i - a_i a_i^*); self-adjoint unitary
    implementing the sign flip of the generators in I by conjugation."""
    return np.diag(_parity_diagonal(alg, region)).astype(complex)


@lru_cache(maxsize=32)
def _global_parity_signs(alg: CarAlgebra) -> np.ndarray:
    d = _parity_diagonal(alg, alg.sites)
    return np.outer(d, d)


def parity_automorphism(alg: CarAlgebra, x: np.ndarray, region: Iterable[int] | None = None) -> np.ndarray:
    """v_I x v_I, entrywise x * (v v^T) for the diagonal v of v_I; with region
    omitted, the global parity automorphism."""
    if region is None:
        return x * _global_parity_signs(alg)
    d = _parity_diagonal(alg, region)
    return x * np.outer(d, d)


def even_odd_split(alg: CarAlgebra, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x + vxv)/2, (x - vxv)/2 under the global parity."""
    tx = parity_automorphism(alg, x)
    return (x + tx) / 2, (x - tx) / 2


@dataclass(frozen=True, eq=False)
class MatrixUnitFamily:
    """The algebra of a site set I as a tensor factor up to a signed permutation.

    W|a> = sign[a] |perm[a]>, a = r * 2^(n-k) + j, satisfies W^* e_rc W = E_rc x 1
    for the matrix units e_rc of the region (E_rc elementary in M_{2^k}, k = |I|).
    perm[a] puts the bits of r on the region sites and those of j on the rest,
    each in ascending site order; sign[a] is -1 to the number of pairs of an
    occupied region site s and an occupied complement site u < s.  W = 1 for
    every prefix region.  parity holds +1 / -1 per unit, index r * 2^k + c.
    """

    alg: CarAlgebra
    region: tuple[int, ...]
    perm: np.ndarray         # (D,) of basis indices
    sign: np.ndarray         # (D,) of +-1
    parity: np.ndarray       # (4^k,) of +-1

    @property
    def small_dim(self) -> int:
        return 2 ** len(self.region)

    def _blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and signs of the entries of every e_rc, as (r, c, j) arrays."""
        p = self.perm.reshape(self.small_dim, -1)
        s = self.sign.reshape(self.small_dim, -1)
        return p[:, None, :], p[None, :, :], s[:, None, :] * s[None, :, :]

    def trace_pairings(self, x: np.ndarray) -> np.ndarray:
        """Tr(e_rc^* x) for every unit, as a (2^k, 2^k) matrix per matrix of x:
        the partial trace of W^* x W over the 2^(n-k) complement factor."""
        rows, cols, signs = self._blocks()
        return (np.asarray(x)[..., rows, cols] * signs).sum(axis=-1)

    @cached_property
    def _sources(self) -> np.ndarray:
        """Where each entry of a flattened D x D matrix comes from in
        [m, -m, 0] for a flattened small matrix m: the unit r * 2^k + c of the
        entry's (r, c, j), shifted by 4^k when its sign is -1, or the final
        zero off every unit.  Built once per family from the flat index
        rows * D + cols of the entries."""
        d, dim = self.small_dim, self.alg.dim
        rows, cols, signs = self._blocks()
        units = np.arange(d * d).reshape(d, d, 1)
        sources = np.full(dim * dim, 2 * d * d, dtype=np.int32)
        sources[(rows * dim + cols).ravel()] = np.where(signs > 0, units, units + d * d).ravel()
        return sources

    def iso_from_small(self, m: np.ndarray) -> np.ndarray:
        """sum_rc m[r, c] e_rc = W (m x 1) W^*, per matrix of m, by one gather
        from [m, -m, 0]."""
        m = np.asarray(m, dtype=complex)
        flat = m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,))
        padded = np.concatenate([flat, -flat, np.zeros(flat.shape[:-1] + (1,), dtype=complex)], axis=-1)
        return np.take(padded, self._sources, axis=-1).reshape(m.shape[:-2] + (self.alg.dim, self.alg.dim))

    @property
    def units(self) -> np.ndarray:
        """(4^k, D, D) stack with units[r * 2^k + c] = e_rc, one scatter on every read."""
        d = self.small_dim
        rows, cols, signs = self._blocks()
        out = np.zeros((d * d, self.alg.dim, self.alg.dim), dtype=complex)
        out[np.arange(d * d).reshape(d, d, 1), rows, cols] = signs
        return out

    def unit(self, r: int, c: int) -> np.ndarray:
        m = np.zeros((self.small_dim, self.small_dim))
        m[r, c] = 1.0
        return self.iso_from_small(m)

    def orthobasis(self) -> np.ndarray:
        """tau-orthonormal basis stack of the region algebra (the scaled units)."""
        basis = self.units
        basis *= np.sqrt(self.small_dim)
        return basis


def _positions(sites: tuple[int, ...], within: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of a region's sites in the lattice of a region holding it."""
    return tuple(within.index(i) for i in sites)


@lru_cache(maxsize=32)
def matrix_units(alg: CarAlgebra, region: tuple[int, ...]) -> MatrixUnitFamily:
    """Signed permutation of a strictly sorted site set in range(n); the empty
    set gives the scalars, the full set W = 1."""
    region = tuple(int(i) for i in region)
    n = alg.n_sites
    if sorted(set(region)) != list(region):
        raise ValueError(f"region must be strictly sorted: {region}")
    if region and not 0 <= region[0] <= region[-1] < n:
        raise ValueError(f"region sites must lie in range({n}): {region}")
    k = len(region)
    in_region = np.isin(np.arange(n), region)
    weights = 1 << np.arange(n - 1, -1, -1)         # site 0 most significant

    # bit t of the index (r, j) sits on site order[t]: region sites, then the rest
    order = np.argsort(~in_region, kind="stable")
    occ = np.empty((alg.dim, n), dtype=np.int64)
    occ[:, order] = (np.arange(alg.dim)[:, None] // weights) % 2
    perm = occ @ weights
    complement_below = np.cumsum(occ * ~in_region, axis=1)
    crossings = (occ * in_region * complement_below).sum(axis=1)
    sign = 1 - 2 * (crossings % 2)

    rows, cols = np.divmod(np.arange(4 ** k), 2 ** k)
    parity = np.where(np.bitwise_count(rows ^ cols) % 2 == 0, 1, -1)
    return MatrixUnitFamily(alg, region, perm, sign, parity)


def region_orthobasis(alg: CarAlgebra, region: Iterable[int]) -> np.ndarray:
    """tau-orthonormal basis stack of the algebra of a site set (I for empty)."""
    return matrix_units(alg, tuple(sorted(int(i) for i in region))).orthobasis()


def cond_expect(alg: CarAlgebra, x: np.ndarray, region: Iterable[int]) -> np.ndarray:
    """Trace-preserving conditional expectation onto the algebra of a site set.

    Up to the signed permutation W of the region, the algebra is the tensor
    factor M_{2^k} x 1, so E_I(x) = W (Tr_{2^(n-k)}(W^* x W) / 2^(n-k) x 1) W^*:
    one gather, partial trace and scatter, and tau(x b) = tau(E_I(x) b) for b
    in the range.  x may be one matrix or a (m, D, D) stack, mapped elementwise.
    """
    family = matrix_units(alg, tuple(sorted(int(i) for i in region)))
    scale = alg.dim // family.small_dim
    return family.iso_from_small(family.trace_pairings(x) / scale)
