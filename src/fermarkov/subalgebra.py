# src/fermarkov/subalgebra.py

"""*-subalgebras of a D x D matrix space: commutants, centers, central
projections, products and flow-invariant subalgebras.

A subalgebra is a tau-orthonormal basis plus the region that holds it: None
for the whole matrix space, of any size D, or on the 2^n x 2^n matrices of a
CAR lattice a proper site set I.  Its algebra A_I is the tensor factor
M_{2^k} x 1 up to the signed permutation W of the region
(``car.matrix_units``), a *-isomorphism that keeps tau-norms, so every
certificate of a subalgebra of A_I runs on its (m, 2^k, 2^k) small picture,
tr_{2^(n-k)}(W^* b W) / 2^(n-k): the closure check, the products of
``product_algebra``, span identities and commutants inside an ambient.  Each
also bounds the leak, the tau-norm of what lies outside A_I, which adds in
quadrature to a small-picture residual.  The whole space is the case W = 1,
with no gather.  Region algebras set the region, invariant subalgebras and
commutants inherit it from their ambient, products take the union of their
factors' regions, and subalgebra_from_matrices holds its span in the smallest
region that contains it (site j drops out when the span leaks out of
A_{[n] minus j} by at most TOL_MEMBER; A_I n A_J = A_{I n J}).  A subalgebra
built from its small picture holds only that picture and projects through
it: its (m, D, D) basis is a scatter made when first read.  A whole region
algebra (region_subalgebra, a span subalgebra_from_matrices finds filling
its region's factor, or a W that fills A_B) holds its factor by size alone,
a _WholeFactor: it projects as E_I, a gather and a scatter, relations
into it read 0 by dimension, and its units form only when small or basis is
read.  A tau-orthonormal stack is found to fill A_I before any QR: the leak
check puts its span inside A_I, and its small picture's rank (d^2, by its
Gram) shows that the span is all of A_I.

A whole region algebra A_I has a unit frame, W^* A_I W = M_d x 1, where a
product with a scaled unit sqrt(d) E_rs x 1 is a scatter of columns or rows
(_UnitFrame): the first round of an invariant subspace, its certificates
(a spectral floor from the d x d diagonal blocks, then a Gram) and the
commutators with the units are read there from blocks, with no (4^k, D, D)
stack of products, and later rounds run on the kept (m, d, d) stack.  It
decides the flow-stable pair's W+ and W- in A_B and sufficiency of a
subalgebra that spans A_I.

Commutants and centers (the commutant of s inside s) take one random draw:
s' lies in {h}', the block-diagonal algebra over the eigenspaces of any h in
s (Murota-Kanno-Kojima-Kojima, Math. Program. 122 (2010) 1-33), and a small
random sketch of s is solved once inside it.  Nothing is retried: the result
is certified to commute with all of s, and a completeness count over the
central projections of s sees a direction lost to a split eigenvalue cluster.
Those projections, drawn once in the factor of s's region, are what
minimal_central_projections returns.

The invariant-subalgebra solver decides the "stable under e^{itH} . e^{-itH}
for all t" condition algebraically: the largest subspace V of the ambient span
with [H, V] contained in V equals, by analyticity of the flow, the set of
elements whose whole flow orbit stays in the ambient span.  The descending
iteration's last round is the certificate: it returns only when every
direction's out-of-span image is within the singular-value cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import hs
from .car import MAX_SITES, CarAlgebra, MatrixUnitFamily, _positions, build_algebra, matrix_units
from .errors import DegenerateCenter, InvariantViolation, NotAnAlgebra
from .spectral import require_hermitian
from .tolerances import GAP as _GAP
from .tolerances import NORM_FLOOR, NULL_RTOL, PROJECTION_TOL, RANK_RTOL, TOL_MEMBER, adjoint_closure

_DEFAULT_SEED = 0x5EED  # reproducible draws of commutants and central projections
_SKETCH_SIZE = 4        # random elements of s a commutant solves for inside {h}'
_CLOSURE_SAMPLES = 400  # products (and adjoints) a closure check draws at most
_CHUNK = 1 << 17        # entries of a stack a gather reads per step, 2 MB of complex


class SubalgebraBasis:
    """A *-subalgebra of the D x D matrices: a tau-orthonormal basis stack and
    the region that holds it, None for the whole matrix space.  A proper
    region is a sorted site set of the 2^n lattice (D = 2^n); every site
    reads as None.

    ``small`` is the basis in the region's 2^k x 2^k tensor factor (the basis
    itself for the whole space) and ``leak`` the tau-norm of each basis
    element outside the region algebra, gathered on first read.  One built
    by ``_from_small`` holds only its small picture, with no leak, projects
    through it, and ``basis`` is its scatter W (small x 1) W^*, made on
    first read.
    """

    _by_small = False   # set by _from_small: project through the small picture

    def __init__(self, dim_ambient: int, basis: np.ndarray, contains_identity: bool,
                 parity_stable: bool | None = None, region: Iterable[int] | None = None):
        self.dim_ambient = dim_ambient
        self.basis = basis                  # (size, D, D), in place of the scatter below
        self.contains_identity = contains_identity
        self.parity_stable = parity_stable
        self.region = _normal_region(dim_ambient, region)

    @cached_property
    def basis(self) -> np.ndarray:
        small = _stack(self._picture[0])
        return small if self.region is None else _family(self.dim_ambient, self.region).iso_from_small(small)

    @property
    def size(self) -> int:
        held = vars(self).get("basis")
        return (self._picture[0] if held is None else held).shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """E_s(x); one built from its small picture projects there, with no scatter: s lies
        in A_I, so E_s = E_s o E_I and E_s(x) = W (P(x_I) x 1) W^*, P = 1 for all of A_I."""
        if not self._by_small:
            return hs.project(self.basis, x)
        small = _small(self.dim_ambient, self.region, x)
        span = self._picture[0]
        small = small if isinstance(span, _WholeFactor) else hs.project(span, small)
        return small if self.region is None else _family(self.dim_ambient, self.region).iso_from_small(small)

    @cached_property
    def _picture(self) -> tuple[np.ndarray, np.ndarray]:
        return _gather(self.dim_ambient, self.region, self.basis)

    @property
    def small(self) -> np.ndarray:
        """(size, 2^k, 2^k) basis in the region's tensor factor: the basis itself for the whole
        space, else a whole factor's units formed on read."""
        return self.basis if self.region is None else _stack(self._picture[0])

    @property
    def leak(self) -> np.ndarray:
        """tau-norm of each basis element outside the region algebra."""
        return self._picture[1]


def _normal_region(dim: int, sites: Iterable[int] | None) -> tuple[int, ...] | None:
    """Sorted sites of a region of the 2^n lattice, or None when it is every
    site (W = 1) or already the whole space."""
    if sites is None:
        return None
    n = dim.bit_length() - 1
    if dim != 2 ** n:
        raise ValueError(f"a region needs a 2^n x 2^n matrix space, not D = {dim}")
    region = tuple(sorted({int(i) for i in sites}))
    return None if region == tuple(range(n)) else region


def _union(dim: int, *regions: tuple[int, ...] | None) -> tuple[int, ...] | None:
    if any(r is None for r in regions):
        return None
    return _normal_region(dim, set().union(*regions))


def _family(dim: int, region: tuple[int, ...]) -> MatrixUnitFamily:
    return matrix_units(build_algebra(dim.bit_length() - 1), region)


def _small(dim: int, region: tuple[int, ...] | None, stack: np.ndarray) -> np.ndarray:
    """Small picture of a stack in the factor of a region: per matrix, the
    partial trace of W^* x W over the complement factor, the image of E_I(x)
    in M_{2^k} with the same tau-norm and products (the stack itself for the
    whole space)."""
    if region is None:
        return stack
    family = _family(dim, region)
    return family.trace_pairings(stack) / (dim // family.small_dim)


def _chunks(m: int, dim: int) -> list[slice]:
    """Slices of a stack of m D x D matrices, each of at most _CHUNK entries or one matrix."""
    step = max(1, _CHUNK // dim ** 2)
    return [slice(i, i + step) for i in range(0, m, step)]


def _gather(dim: int, region: tuple[int, ...] | None, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(small picture, leak) of a stack, the leak the tau-norm of x - E_I(x), a chunk at a time."""
    if region is None:
        return stack, np.zeros(stack.shape[0])
    family = _family(dim, region)
    small = np.empty((stack.shape[0],) + (family.small_dim,) * 2, dtype=np.result_type(stack, float))
    leak = np.empty(stack.shape[0])
    for part in _chunks(stack.shape[0], dim):
        small[part] = _small(dim, region, stack[part])
        out = stack[part] - family.iso_from_small(small[part])
        leak[part] = np.linalg.norm(hs.flatten(out), axis=1) / np.sqrt(dim)
    return small, leak


def _picture_in(s: SubalgebraBasis, region: tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """(small picture, leak) of a basis in the factor of a region holding s's:
    as held in s's own, lifted from the small picture s is held by through the
    signed permutation of s's sites in the region's lattice, else gathered."""
    if region == s.region:
        return s._picture
    if not s._by_small or region is None:
        return _gather(s.dim_ambient, region, s.basis)
    within = matrix_units(build_algebra(len(region)), _positions(s.region, region))
    return within.iso_from_small(_stack(s._picture[0])), s.leak


def _from_small(dim: int, region: Iterable[int] | None, small: np.ndarray | _WholeFactor,
                contains_identity: bool, parity_stable: bool | None = None) -> SubalgebraBasis:
    """The subalgebra of a region held by its small picture alone, a stack or
    all of the factor, set as its cached picture with no leak."""
    s = SubalgebraBasis.__new__(SubalgebraBasis)
    vars(s).update(dim_ambient=dim, contains_identity=contains_identity, parity_stable=parity_stable,
                   region=_normal_region(dim, region), _picture=(small, np.zeros(small.shape[0])), _by_small=True)
    return s


def _require_inside(leak: np.ndarray, bound, region: tuple[int, ...] | None, what: str) -> None:
    """NotAnAlgebra unless every leak is within its bound (one, or one per matrix)."""
    if np.any(leak > bound):
        raise NotAnAlgebra(f"{what} leaves the algebra of sites {region}: leak {leak.max():.3e}")


@dataclass(frozen=True)
class _WholeFactor:
    """All of M_d as a span, held by d: shape reads as its tau-orthonormal
    (d^2, d, d) stack of scaled units sqrt(d) E_rs, which only units forms."""

    d: int
    shape = property(lambda self: (self.d * self.d, self.d, self.d))

    def units(self) -> np.ndarray:
        return np.sqrt(self.d) * np.eye(self.d * self.d, dtype=complex).reshape(self.shape)


def _stack(span: np.ndarray | _WholeFactor) -> np.ndarray:
    """A span's tau-orthonormal stack, the units for a whole factor."""
    return span.units() if isinstance(span, _WholeFactor) else span


def _fills_factor(stack: np.ndarray | _WholeFactor) -> bool:
    """True when a tau-orthonormal (m, d, d) stack spans all of M_d, m = d^2:
    every d x d matrix lies in its span, so a relation "inside the span"
    holds for anything and constrains nothing."""
    return stack.shape[0] == stack.shape[-1] ** 2


def region_subalgebra(alg: CarAlgebra, region: Iterable[int]) -> SubalgebraBasis:
    """The algebra A_I of a site set, held as all of its factor by its size: it
    projects as E_I, and its scaled units form only when small or basis is read."""
    family = matrix_units(alg, tuple(sorted(int(i) for i in region)))
    return _from_small(alg.dim, family.region, _WholeFactor(family.small_dim), True, True)


def subalgebra_from_matrices(
    mats: np.ndarray | list[np.ndarray], *, parity_stable: bool | None = None
) -> SubalgebraBasis:
    """Orthonormalize a spanning set into a SubalgebraBasis (span only; no
    closure), held by the smallest region whose algebra contains the span.
    A span that fills that region's factor and leaks out of it by at most
    TOL_MEMBER (the test of _unit_frame) is the region algebra A_I, held by
    its size as region_subalgebra holds it.  A tau-orthonormal stack is found
    to be A_I with no QR: the leak check puts its span inside A_I, and its
    small picture's rank, d^2 by a Gram within TOL_MEMBER of I, shows that
    the span is all of A_I.  Non-finite entries raise ValueError."""
    stack = np.stack([np.asarray(m, dtype=complex) for m in mats]) if isinstance(mats, list) else np.asarray(mats, dtype=complex)
    dim = stack.shape[-1]
    if not np.isfinite(stack).all():
        raise ValueError("spanning set has non-finite entries")
    whole = _region_algebra_of(stack, parity_stable)
    if whole is not None:
        return whole
    basis = hs.orthonormalize(stack)
    s = SubalgebraBasis(dim, basis, _contains_identity(basis, dim), parity_stable, _smallest_region(basis))
    if _unit_frame(s) is None:
        return s
    return _from_small(dim, s.region, _WholeFactor(s._picture[0].shape[-1]), True, parity_stable)


def _region_algebra_of(stack: np.ndarray, parity_stable: bool | None) -> SubalgebraBasis | None:
    """A_I when a stack whose squared tau-norms lie within TOL_MEMBER of 1
    spans it, else None.  Site j is in I when a picture in the other sites'
    factor loses over RANK_RTOL of a squared norm, a leak the orthonormalizing
    route reads in too; a site left out leaks out of A_I at least as much.
    With every leak at most TOL_MEMBER and the Gram within TOL_MEMBER of I,
    each singular value is within 2 TOL_MEMBER of 1: no RANK_RTOL cut."""
    dim, m = stack.shape[-1], stack.shape[0]
    n = dim.bit_length() - 1
    if dim != 2 ** n or not 1 <= n <= MAX_SITES:
        return None
    parts = _chunks(m, dim)
    sq = lambda x: np.linalg.norm(hs.flatten(x), axis=1) ** 2 / x.shape[-1]
    norms = [sq(stack[part]) for part in parts]
    if any(np.abs(norm - 1.0).max(initial=0.0) > TOL_MEMBER for norm in norms):
        return None
    others = lambda j: tuple(i for i in range(n) if i != j)
    loses = lambda j, part, norm: (norm - sq(_small(dim, others(j), stack[part]))).max(initial=0.0) > RANK_RTOL
    # the first chunk that loses norm reads a site in; only one left out reads them all
    sites = [j for j in range(n) if any(loses(j, part, norm) for part, norm in zip(parts, norms))]
    if m != 4 ** len(sites):
        return None
    small, leak = _gather(dim, _normal_region(dim, sites), stack)
    d, flat = small.shape[-1], hs.flatten(small)
    gram = flat @ flat.conj().T / d
    gram[np.diag_indices(m)] -= 1.0
    if leak.max(initial=0.0) > TOL_MEMBER or np.linalg.norm(gram) > TOL_MEMBER:
        return None
    return _from_small(dim, sites, _WholeFactor(d), True, parity_stable)


def _smallest_region(basis: np.ndarray) -> tuple[int, ...] | None:
    """The smallest site set whose algebra holds the span of a stack: site j
    drops out when the span leaks out of the algebra of the other sites by at
    most TOL_MEMBER, and A_I n A_J = A_{I n J} makes the sites that stay
    the region.  None off 2^n x 2^n matrices."""
    dim = basis.shape[-1]
    n = dim.bit_length() - 1
    if dim != 2 ** n or n > MAX_SITES:
        return None
    rest = lambda j: tuple(i for i in range(n) if i != j)
    return tuple(j for j in range(n) if _gather(dim, rest(j), basis)[1].max(initial=0.0) > TOL_MEMBER)


def _identity_residual(basis: np.ndarray, dim: int) -> float:
    """tau-norm of the identity minus its projection onto the span of a stack (1 for an empty one)."""
    eye = np.eye(dim, dtype=complex)
    return hs.hs_norm(eye - hs.project(basis, eye)) if basis.shape[0] else 1.0


def _contains_identity(basis: np.ndarray, dim: int) -> bool:
    return _identity_residual(basis, dim) <= TOL_MEMBER


def membership(x: np.ndarray, s: SubalgebraBasis, tol: float = TOL_MEMBER) -> tuple[bool, float]:
    """(inside, residual): residual is the tau-norm of x minus its projection.

    Inside iff residual <= tol * (1 + ||x||).
    """
    residual = hs.hs_norm(x - s.project(x))
    return residual <= tol * (1.0 + hs.hs_norm(x)), float(residual)


def _inclusion_defects(s1: SubalgebraBasis, s2: SubalgebraBasis) -> np.ndarray:
    """tau-norm of the part of each basis element of s1 orthogonal to the span
    of s2, computed in the factor of the union of their regions: the small
    picture's residual and the leak add in quadrature (the leak alone if s2 fills it)."""
    region = _union(s1.dim_ambient, s1.region, s2.region)
    (a, leak), (b, _) = _picture_in(s1, region), _picture_in(s2, region)
    return leak if _fills_factor(b) else np.hypot(hs.residual_norms(b, _stack(a)), leak)


def span_equality_residual(s1: SubalgebraBasis, s2: SubalgebraBasis) -> float:
    """Two-sided inclusion defect of the spans (max basis-element residual)."""
    both = np.concatenate([_inclusion_defects(s1, s2), _inclusion_defects(s2, s1)])
    return float(both.max()) if both.size else 0.0

# --- span closure: the generic reference for product_algebra, not exported ----

def span_closure(generators: list[np.ndarray] | np.ndarray) -> SubalgebraBasis:
    """Smallest *-algebra containing the generators and the identity.

    Alternates product augmentation (left multiplication of the current span
    by generators and their adjoints) with re-orthonormalization until the
    dimension stabilizes.
    """
    gens_in = list(generators)
    if not gens_in:
        dim = 1
    else:
        dim = np.asarray(gens_in[0]).shape[-1]
    eye = np.eye(dim, dtype=complex)

    gens = []
    for g in gens_in:
        g = np.asarray(g, dtype=complex)
        for cand in (g, g.conj().T):
            nrm = hs.hs_norm(cand)
            if nrm > NORM_FLOOR:
                gens.append(cand / nrm)
    if not gens:
        return SubalgebraBasis(dim, eye[None, :, :], True, None)
    # the generated algebra only depends on the span of the generators, so an
    # orthonormal basis of that span is an exact, smaller generating set
    gens = list(hs.orthonormalize(np.stack(gens)))

    basis = hs.orthonormalize(np.stack([eye] + gens))
    frontier = basis
    max_rounds = dim * dim + 1
    for _ in range(max_rounds):
        cands = np.concatenate([g @ frontier for g in gens])
        res = cands - hs.project_stack(basis, cands)
        # a residual only counts as a new direction relative to the size of the
        # product it came from: near-zero products carry amplified roundoff
        cand_norms = np.linalg.norm(hs.flatten(cands), axis=1) / np.sqrt(dim)
        res_norms = np.linalg.norm(hs.flatten(res), axis=1) / np.sqrt(dim)
        res = res[res_norms > RANK_RTOL * np.maximum(1.0, cand_norms)]
        if res.shape[0] == 0:
            break
        frontier = hs.orthonormalize(res)
        basis = np.concatenate([basis, frontier])
    return SubalgebraBasis(dim, hs.orthonormalize(basis), True, None)


def product_algebra(
    left: list[np.ndarray] | np.ndarray,
    right: list[np.ndarray] | np.ndarray,
    region: Iterable[int] | None = None,
) -> SubalgebraBasis:
    """Span of all products l r of two (graded-)commuting *-subalgebras.

    When the spans of left and right are *-algebras whose elements commute
    (odd elements may anticommute), the products l r with l, r ranging over
    the unital spans already form the *-algebra the two generate, so one round
    of products replaces the open-ended closure loop.  region is the union of
    the factors' regions (default: the whole space); the products are taken
    in its tensor factor, and a factor element that leaks out of it by more
    than TOL_MEMBER * (1 + its norm) raises NotAnAlgebra.  The result is
    certified closed; a failure raises NotAnAlgebra.
    """
    left, right = np.asarray(left, dtype=complex), np.asarray(right, dtype=complex)
    dim = left.shape[-1]
    region = _normal_region(dim, region)
    spans = []
    for stack in (left, right):
        small, leak = _gather(dim, region, stack)
        norms = np.linalg.norm(hs.flatten(stack), axis=1) / np.sqrt(dim)
        _require_inside(leak, TOL_MEMBER * (1 + norms), region, "product factor")
        eye = np.eye(small.shape[-1], dtype=complex)[None]
        spans.append(hs.orthonormalize(np.concatenate([eye, small])))
    lhs, rhs = spans
    d = lhs.shape[-1]
    result = _from_small(dim, region, hs.orthonormalize((lhs[:, None] @ rhs[None, :]).reshape(-1, d, d)), True)
    _verify_algebra_closure(result, TOL_MEMBER)
    return result


# --- commutant / center ------------------------------------------------------

def _hermitian_combos(basis: np.ndarray, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    m = basis.shape[0]
    combos = []
    for _ in range(count):
        w = rng.normal(size=m) + 1j * rng.normal(size=m)
        g = np.einsum("k,kij->ij", w, basis)
        g = hs.hermitian_part(g)
        nrm = hs.hs_norm(g)
        if nrm > NORM_FLOOR:
            combos.append(g / nrm)
    return combos


def _eigenspaces(h: np.ndarray) -> list[np.ndarray]:
    """Orthonormal columns of each eigenvalue cluster of a Hermitian matrix; a
    cluster ends where the spectrum jumps by more than _GAP * max(1, spread)."""
    w, u = np.linalg.eigh(h)
    return np.split(u, np.flatnonzero(np.diff(w) > _GAP * max(1.0, float(w[-1] - w[0]))) + 1, axis=1)


def _commutant_of_hermitian(h: np.ndarray) -> np.ndarray:
    """tau-orthonormal basis of {h}', the block-diagonal algebra over h's
    eigenspaces: sqrt(d) u_a u_b^* for eigenvectors a, b of one cluster."""
    d = h.shape[-1]
    blocks = [np.einsum("ia,jb->abij", u, u.conj()).reshape(-1, d, d) for u in _eigenspaces(h)]
    return np.sqrt(d) * np.concatenate(blocks)


def _null_combinations(images: np.ndarray, stack: np.ndarray, floor: float) -> np.ndarray:
    """tau-orthonormal combinations of a tau-orthonormal stack of m <= D^2
    elements that a linear map sends to zero, given the flattened image of each
    element as a row: the right singular vectors of images^T (read off the
    m x m R of images^T = QR, so no Gram matrix squares the gap) whose squared
    singular value is at most NULL_RTOL * max(largest, floor)."""
    _, sing, vh = np.linalg.svd(np.linalg.qr(images.T, mode="r"))
    keep = sing ** 2 <= NULL_RTOL * max(float(sing.max(initial=0.0)) ** 2, floor)
    return hs.unflatten(vh[keep].conj() @ hs.flatten(stack), stack.shape[-1])


def _nullspace_in_ambient(constraints: list[np.ndarray], ambient: np.ndarray) -> np.ndarray:
    """Joint commutant of the constraints inside the span of an ambient stack."""
    images = np.concatenate([hs.flatten(ambient @ g - g @ ambient) for g in constraints], axis=1)
    return _null_combinations(images / np.sqrt(ambient.shape[-1]), ambient, float(len(constraints)))


def _worst_commutator(x: np.ndarray, basis: np.ndarray) -> float:
    comms = basis @ x - x @ basis
    return float(np.linalg.norm(hs.flatten(comms), axis=1).max() / np.sqrt(x.shape[-1]))


def _require_complete(basis: np.ndarray, stack: np.ndarray, ambient: np.ndarray | None,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """The minimal central projections p_i of s~ = s + C e_A, e_A the unit of
    the ambient A (None: all matrices), after an InvariantViolation check that
    the commutant stack of s = span(basis) in A has every direction.  The p_i
    are the eigenspaces under e_A (relative gap _GAP) of one random element
    of the commutant's part inside s~, its center (DegenerateCenter when they
    are fewer).  s~ p_i = M_{d_i} sits in p_i A p_i = M_{d_i} x (s' n A) p_i,
    so the count sum_i sqrt(dim(s~ p_i) dim(s' p_i)) equals the rank
    sum_i sqrt(dim(p_i A p_i)); a split eigenvalue cluster of h shrinks some
    dim(s' p_i).  dim(X p) = sum_k ||x_k p||^2 and dim(p A p) =
    sum_k ||p a_k p||^2 in tau-norms over tau-orthonormal stacks."""
    d = basis.shape[-1]
    unit = np.eye(d, dtype=complex) if ambient is None else hs.project(ambient, np.eye(d, dtype=complex))
    extra = unit - hs.project(basis, unit)
    if hs.hs_norm(extra) > TOL_MEMBER:
        basis = np.concatenate([basis, extra[None] / hs.hs_norm(extra)])
    outside = hs.flatten(stack - hs.project_stack(basis, stack)) / np.sqrt(d)
    z = _null_combinations(outside, stack, 1.0)
    [el] = _hermitian_combos(z, 1, rng)
    projections = [p for p in (u @ u.conj().T for u in _eigenspaces(el)) if np.vdot(p, unit).real > 0.5]
    if len(projections) != z.shape[0]:
        raise DegenerateCenter(f"one draw separated {len(projections)} of {z.shape[0]} central blocks")
    count = rank = 0.0
    for p in projections:
        count += np.linalg.norm(basis @ p) * np.linalg.norm(stack @ p) / d
        rank += np.trace(p).real if ambient is None else np.linalg.norm(p @ ambient @ p) / np.sqrt(d)
    if abs(count - rank) > RANK_RTOL * rank:
        raise InvariantViolation(f"commutant completeness count {count:.6f} differs from the rank {rank:.6f}")
    return projections


def commutant(
    s: SubalgebraBasis,
    ambient: SubalgebraBasis | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> SubalgebraBasis:
    """Elements of the ambient algebra (default: everything) commuting with s.

    s' lies in {h}' for a random self-adjoint h in s: the block-diagonal
    algebra over h's eigenspaces, built in closed form, or inside an ambient
    short of its whole factor the nullspace of [h, .] there.  The commutators
    with _SKETCH_SIZE more such elements are solved once inside it.  Nothing
    is retried: InvariantViolation unless every result element commutes with
    the full basis of s within TOL_MEMBER and the completeness count of
    _require_complete holds.  An ambient must contain s; the system is then
    solved in the factor of the union of the two regions, which the result
    holds, and a basis element of s or the ambient leaking out of it by more
    than TOL_MEMBER raises NotAnAlgebra.
    """
    return _commutant_and_projections(s, ambient, rng)[0]


def _commutant_and_projections(s: SubalgebraBasis, ambient: SubalgebraBasis | None = None,
                               rng=None) -> tuple[SubalgebraBasis, list[np.ndarray]]:
    """commutant(s, ambient) and the projections _require_complete drew, in the result's factor."""
    rng = rng if rng is not None else np.random.default_rng(_DEFAULT_SEED)
    dim = s.dim_ambient
    region = None if ambient is None else _union(dim, s.region, ambient.region)
    basis, leak = _picture_in(s, region)
    _require_inside(leak, TOL_MEMBER, region, "commutant argument")
    basis, amb = _stack(basis), None     # the general solve reads a whole factor's units
    if ambient is not None:
        amb, amb_leak = _picture_in(ambient, region)
        _require_inside(amb_leak, TOL_MEMBER, region, "commutant ambient")
        # an ambient spanning its whole factor, as a region algebra does, constrains nothing
        amb = None if _fills_factor(amb) else amb
    [h] = _hermitian_combos(basis, 1, rng)
    space = _commutant_of_hermitian(h) if amb is None else _nullspace_in_ambient([h], amb)
    stack = _nullspace_in_ambient(_hermitian_combos(basis, _SKETCH_SIZE, rng), space)
    worst = max((_worst_commutator(x, basis) for x in stack), default=0.0)
    if worst > TOL_MEMBER:
        raise InvariantViolation(f"commutant element fails to commute with s: residual {worst:.3e}")
    projections = _require_complete(basis, stack, amb, rng)
    return _from_small(dim, region, stack, _contains_identity(stack, basis.shape[-1])), projections


def center(s: SubalgebraBasis, *, rng: np.random.Generator | None = None) -> SubalgebraBasis:
    """Basis of s intersected with its commutant: the commutant of s inside s."""
    if not s.contains_identity:
        raise ValueError("center requires a subalgebra containing the identity")
    return commutant(s, ambient=s, rng=rng)


def minimal_central_projections(s: SubalgebraBasis, *, rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Minimal central projections, orthogonal and summing to the identity,
    largest trace first: those the commutant solve of s in its region's
    factor draws there (see _require_complete), scattered to D x D."""
    if not s.contains_identity:
        raise ValueError("center requires a subalgebra containing the identity")
    ambient = None if s.region is None else region_subalgebra(_family(s.dim_ambient, s.region).alg, s.region)
    _, projections = _commutant_and_projections(s, ambient, rng)
    if s.region is not None:
        projections = _family(s.dim_ambient, s.region).iso_from_small(np.stack(projections))
    return sorted(projections, key=lambda p: -float(np.trace(p).real))


def is_projection_family(projections: list[np.ndarray], dim: int) -> bool:
    """Orthogonal self-adjoint projections summing to the identity, entrywise
    within PROJECTION_TOL."""
    tol = PROJECTION_TOL
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(projections):
        if np.max(np.abs(p @ p - p)) > tol or np.max(np.abs(p - p.conj().T)) > tol:
            return False
        for q in projections[i + 1:]:
            if np.max(np.abs(p @ q)) > tol:
                return False
        total += p
    return np.max(np.abs(total - np.eye(dim))) <= tol


# --- modular-flow invariant subalgebra ----------------------------------------

def invariant_subalgebra(h: np.ndarray, ambient: SubalgebraBasis) -> SubalgebraBasis:
    """Largest subspace V of the ambient span with [h, V] inside V.

    Equals the set of elements whose orbit under x -> e^{ith} x e^{-ith} stays
    in the ambient span for every real t: the descending iteration's last
    round certifies that.  The result is certified to be a *-algebra; nothing
    is retried, a failed certificate raises NotAnAlgebra.
    """
    require_hermitian(h, what="flow generator")
    basis, identity_residual = invariant_subspace(h, h, ambient.basis, scale=float(np.linalg.norm(h, 2)))
    result = SubalgebraBasis(ambient.dim_ambient, basis, identity_residual <= TOL_MEMBER, None, ambient.region)
    if basis.shape[0]:
        _verify_algebra_closure(result, TOL_MEMBER)
    return result


def invariant_subspace(
    left: np.ndarray,
    right: np.ndarray,
    ambient_basis: np.ndarray,
    *,
    scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Largest subspace V of the span of a tau-orthonormal stack, in any
    picture where L and R act, with L V - V R inside V, and the tau-norm of
    the identity minus its projection onto V.  By analyticity V holds exactly
    the z whose orbit e^{itL} z e^{-itR} stays in the span for every t.

    The span must be a *-algebra s, unital or not, as every caller's is (a
    SubalgebraBasis, or a region algebra in a small picture).  The
    tau-projection E onto s is then an s-bimodule map: tau(b^* L z) =
    tau((b z^*)^* L) with b z^* in s, so E(L z - z R) = E(L) z - z E(R) for z
    in s.  Round 0's out-of-span images are therefore L' z - z R' with
    L' = L - E(L) and R' = R - E(R): two single-matrix projections in place of
    projecting the whole image stack.  Later rounds run on spans that are no
    longer algebras and project as invariant_subspace_under does; every round
    is decided by _decide, whose certificate and cut are described there.
    On a span that is not a *-algebra round 0 drops the wrong directions:
    use invariant_subspace_under.  A whole region algebra's round 0 is read
    in its unit frame instead (_UnitFrame.invariant_subspace).
    """
    l_out = left - hs.project(ambient_basis, left)
    r_out = right - hs.project(ambient_basis, right)
    stable = _descend_round(ambient_basis, l_out @ ambient_basis - ambient_basis @ r_out, scale)
    if stable is not ambient_basis and stable.shape[0]:
        stable = invariant_subspace_under(lambda stack: left @ stack - stack @ right, stable, scale=scale)
    return stable, _identity_residual(stable, ambient_basis.shape[-1])


def invariant_subspace_under(
    apply_map, ambient_basis: np.ndarray, *, scale: float = 1.0
) -> np.ndarray:
    """Largest subspace V of the span of a tau-orthonormal stack with
    apply_map(V) inside V, via the descending iteration
    V_{k+1} = {x in V_k : apply_map(x) in V_k}.

    apply_map acts on stacks (m, D, D) -> (m, D, D) and must be linear.  The
    span may be any subspace; each round projects its images onto it and is
    decided by _descend_round.
    """
    basis = ambient_basis
    for _ in range(ambient_basis.shape[0] + 1):
        if basis.shape[0] == 0:
            return basis
        image = apply_map(basis)
        kept = _descend_round(basis, image - hs.project_stack(basis, image), scale)
        if kept is basis:
            return basis
        basis = kept
    raise InvariantViolation("descending invariant-subspace iteration did not stabilize")


def _descend_round(basis: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """One round of the descending iteration on the explicit out-of-span
    parts, out, of the images of a tau-orthonormal stack: _decide on their
    rows g, with |g|_F^2 as the rounding weight of g g^H."""
    g = hs.flatten(out) / np.sqrt(basis.shape[-1])
    fro = float(np.linalg.norm(g))
    return _decide(basis, fro, fro * fro, g.shape[1], lambda unit: float(np.linalg.norm(unit @ g)),
                   lambda: g @ g.conj().T, lambda: g, scale)


def _decide(basis: np.ndarray | _WholeFactor, fro: float, weight: float, k: int, unit_image, gram, rows,
            scale: float, floor=None) -> np.ndarray | _WholeFactor:
    """The decision of every round of the descending iteration: the
    directions of the span of a tau-orthonormal stack whose images'
    out-of-span rows g (m x k) stay within the cut, or the stack itself when
    every direction does.  fro is |g|_F, weight >= |g|_F^2 bounds the
    rounding of gram() = g g^H, unit_image(a) is |a^T g| for the
    coordinates a of the identity's projection onto the span, floor(), when
    given, a lower bound on g's smallest singular value (a whole factor's,
    _UnitFrame.floor), and rows() forms g, which only the cut reads.  A
    whole factor's identity has the closed-form coordinates 1 / sqrt(d) on
    its d diagonal units, and its units are formed only when the cut runs.

    A direction is dropped when its image leaves the span by more than
    RANK_RTOL * max(s_max, scale, 1), where the s are the singular values of g.
    Two decisions need no singular values:

    - |g|_F <= RANK_RTOL * max(scale, 1) keeps every row: every singular value is
      at most |g|_F, so none can exceed the cut.
    - _nothing_kept proves that nothing is kept, s_min > c with
      c = RANK_RTOL * max(|g|_F, scale, 1), which bounds the cut from above
      (|g|_F >= s_max): by floor() > c, in a unit frame s_min^2 >= (1/e)
      sum_j max(0, gap_j - eps_j)^2 from the spectral gaps of the diagonal
      complement blocks, eps_j their eigenvalue rounding and
      anti-Hermitian parts (_UnitFrame.floor), or by a Cholesky of
      g g^H - delta I.

    Otherwise _cut decides on the singular values.  Both certificates only
    ever prove that nothing is kept; a kept direction is always decided by
    the cut.
    """
    if fro <= RANK_RTOL * max(scale, 1.0):
        return basis
    d = basis.shape[-1]
    if isinstance(basis, _WholeFactor):
        unit = np.zeros(d * d)
        unit[:: d + 1] = np.sqrt(d) / d     # tau(sqrt(d) E_rs) = delta_rs / sqrt(d)
    else:
        unit = np.trace(basis, axis1=1, axis2=2).conj() / d
    if _nothing_kept(k, RANK_RTOL * max(fro, scale, 1.0), weight, unit, unit_image(unit), gram, floor):
        return np.zeros((0, d, d), dtype=complex)
    stack = _stack(basis)
    kept = _cut(stack, rows(), scale)
    return basis if kept is stack else kept


def _cut(basis: np.ndarray, g: np.ndarray, scale: float) -> np.ndarray:
    """The directions of the span of a tau-orthonormal stack whose
    out-of-span rows g have singular values within RANK_RTOL * max(s_max,
    scale, 1), or the stack itself when all do.  The cut reads only the left
    factor: with g^H = Q R, g = R^H Q^H has the left singular vectors and
    singular values of the m x m R^H, and Q is never formed."""
    r = np.linalg.qr(g.conj().T, mode="r")
    u, sing, _ = np.linalg.svd(r.conj().T, full_matrices=False)
    keep = sing <= RANK_RTOL * max(float(sing[0]), scale, 1.0)
    if keep.all():
        return basis
    return hs.unflatten(u[:, keep].conj().T @ hs.flatten(basis), basis.shape[-1])


def _nothing_kept(k: int, bound: float, weight: float, unit: np.ndarray, unit_image: float, gram,
                  floor=None) -> bool:
    """True only when the smallest singular value of m x k rows g exceeds
    bound; unit_image is the norm of the identity's image row, and the rest
    are as in _decide.  In order:

    - the identity's image declines: s_min <= |a^T g| / |a|, so an image
      within bound |a| proves nothing (a kept identity, as under L = R or
      on an even state's W-, costs nothing);
    - floor() > bound proves it with no Gram (_UnitFrame.floor's
      s_min^2 >= (1/e) sum_j max(0, gap_j - eps_j)^2);
    - otherwise a Cholesky of g g^H - delta I, delta = bound^2 +
      4 u (k + m^2) weight with u the unit roundoff, proves it: the second
      term covers the rounding of the Gram and of the Cholesky.  The Gram
      is formed only where that can succeed: m <= k, and the identity's
      image leaves by more than sqrt(delta) |a|.

    Rows that are not finite prove nothing: a floor reads NaN, which
    declines, and a Cholesky passes NaN through."""
    m = unit.shape[0]
    unit_norm = float(np.linalg.norm(unit))
    if unit_norm > 0.0 and unit_image <= bound * unit_norm:
        return False
    if floor is not None and floor() > bound:
        return True
    delta = bound * bound + 4 * (np.finfo(float).eps / 2) * (k + m * m) * weight
    if m > k or not np.isfinite(delta):
        return False
    if unit_norm > 0.0 and unit_image ** 2 <= delta * unit_norm ** 2:
        return False
    shifted = gram()
    shifted[np.diag_indices(m)] -= delta
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


# --- whole region algebras in their unit frame ---------------------------------

@dataclass(frozen=True)
class _UnitFrame:
    """The whole algebra A_I of a region in its unit frame, W^* A_I W =
    M_d x 1 with d = 2^k and W the region's signed permutation (W = 1 for
    every site, the whole space).  A matrix x is read as x~ = W^* x W,
    indexed ((r, j), (r', j')) with r < d in the region factor and j < e =
    2^(n-k) in the complement; its e x e block (r, r') is x~[(r, .), (r', .)].
    The scaled units sqrt(d) E_rs x 1, unit r d + s, are a tau-orthonormal
    basis of A_I, and a product with a unit is a scatter of x~'s columns or
    rows: what the stack route reads from (4^k, D, D) sandwiches and
    commutators is read here from blocks, with no product of two D x D
    matrices per unit."""

    family: MatrixUnitFamily

    @property
    def d(self) -> int:
        return self.family.small_dim

    def frame(self, x: np.ndarray) -> np.ndarray:
        """W^* x W, per matrix of a stack: x~[a, b] = sign[a] sign[b] x[perm[a], perm[b]]."""
        perm, sign = self.family.perm, self.family.sign
        return x.take(perm, axis=-1).take(perm, axis=-2) * np.outer(sign, sign)

    def unframe(self, xt: np.ndarray) -> np.ndarray:
        """W x~ W^*, per matrix of a stack, the inverse of frame: x[a, b] =
        s[a] s[b] x~[inv[a], inv[b]], inv = perm^-1 and s = sign[inv]."""
        inv = np.argsort(self.family.perm)
        sign = self.family.sign[inv]
        return xt.take(inv, axis=-1).take(inv, axis=-2) * np.outer(sign, sign)

    def _blocks(self, xt: np.ndarray) -> np.ndarray:
        """x~ as [r, j, r', j'], per matrix of a stack."""
        d, dim = self.d, xt.shape[-1]
        return xt.reshape(xt.shape[:-2] + (d, dim // d, d, dim // d))

    def outside(self, x: np.ndarray) -> np.ndarray:
        """(x - E_I(x))~: x~ less the mean of its diagonal complement entries,
        Tr_e(x~) / e x 1, the part of x~ outside the factor."""
        xt = self.frame(x)
        blocks = self._blocks(xt)
        e = blocks.shape[1]
        diag = np.arange(e)
        blocks[:, diag, :, diag] -= np.trace(blocks, axis1=1, axis2=3) / e
        return xt

    def images(self, lt: np.ndarray, rt: np.ndarray) -> np.ndarray:
        """(d^2, D, D) stack of sqrt(d) (P_rs - Q_rs), P_rs = lt (E_rs x 1) and
        Q_rs = (E_rs x 1) rt: column (s, j) of P_rs is column (r, j) of lt,
        row (r, j) of Q_rs is row (s, j) of rt, and the rest is zero."""
        d, dim = self.d, lt.shape[-1]
        e, diag = dim // d, np.arange(d)
        out = np.zeros((d, d, dim, d, e), dtype=complex)          # [r, s, x, s', j]
        out[:, diag, :, diag, :] = np.sqrt(d) * lt.reshape(dim, d, e).transpose(1, 0, 2)
        rows = out.reshape(d, d, d, e, dim)                         # [r, s, r', j, y]
        rows[diag, :, diag] -= np.sqrt(d) * rt.reshape(d, e, dim)
        return out.reshape(d * d, dim, dim)

    def row_norms(self, lt: np.ndarray, rt: np.ndarray) -> tuple[np.ndarray, float]:
        """Squared tau-norms of the d^2 images (flattened [r, s]) and the
        weight d / D sum_rs (|P_rs| + |Q_rs|)^2 >= their sum, from block
        norms.  P_rs and Q_rs meet only on block (r, s), where they read lt's
        block (r, r) and rt's block (s, s); elsewhere P_rs holds lt's blocks
        (r', r) and Q_rs rt's blocks (s, s'), r' != r and s' != s.  So every
        norm is a sum of nonnegative terms, with no cancellation."""
        d, dim = self.d, lt.shape[-1]
        lb, rb = self._blocks(lt), self._blocks(rt)
        lnorm, rnorm = (np.sum(np.abs(b) ** 2, axis=(1, 3)) for b in (lb, rb))
        diag = np.arange(d)
        lcol, rrow = lnorm.sum(axis=0), rnorm.sum(axis=1)
        lnorm[diag, diag] = rnorm[diag, diag] = 0.0
        meet = np.sum(np.abs(lb[diag, :, diag][:, None] - rb[diag, :, diag][None, :]) ** 2, axis=(2, 3))
        norms = (lnorm.sum(axis=0)[:, None] + rnorm.sum(axis=1)[None, :] + meet) * (d / dim)
        weight = np.sum((np.sqrt(lcol)[:, None] + np.sqrt(rrow)[None, :]) ** 2) * (d / dim)
        return norms.ravel(), float(weight)

    def gram(self, lt: np.ndarray, rt: np.ndarray) -> np.ndarray:
        """Gram g g^H of the images' rows g = flatten(images) / sqrt(D), from
        blocks: with A = Tr_e(lt^* lt), B = Tr_e(rt rt^*) and
        X[(r, s), (r', s')] = Tr(P_{r's'}^* Q_rs),

          g g^H = (d / D) [A^T x 1 + 1 x B - X - X^H].

        X + X^H is one (d^2 x 2e^2)(2e^2 x d^2) product, X's terms and X^H's
        side by side in the inner index, and one permutation; the sum
        holds the same products as X and X^H formed apart.  Each entry is a
        sum of products whose moduli add up to at most (|P_rs| + |Q_rs|)
        (|P_r's'| + |Q_r's'|), so row_norms' weight bounds its rounding in
        _nothing_kept."""
        d, dim = self.d, lt.shape[-1]
        e, diag = dim // d, np.arange(d)
        cols, rows = lt.reshape(dim, d, e), rt.reshape(d, e, dim)
        # lt~[(r, i), (r', j)] against rt~[(s, i), (s', j)], summed over i, j,
        # for X; X^H is the same sum with (r, r') and (s, s') swapped and conjugated
        left = self._blocks(lt).transpose(0, 2, 1, 3).reshape(d, d, e * e)
        right = self._blocks(rt).transpose(0, 2, 1, 3).reshape(d, d, e * e)
        left = np.concatenate([left.conj(), left.transpose(1, 0, 2)], axis=2).reshape(d * d, 2 * e * e)
        right = np.concatenate([right, right.transpose(1, 0, 2).conj()], axis=2).reshape(d * d, 2 * e * e)
        gram = -(left @ right.T).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        blocks = gram.reshape(d, d, d, d)                           # [r, s, r', s']
        blocks[:, diag, :, diag] += np.einsum("xaj,xbj->ba", cols.conj(), cols)
        blocks[diag, :, diag, :] += np.einsum("ajy,bjy->ab", rows, rows.conj())
        return gram * (d / dim)

    def floor(self, lt: np.ndarray, rt: np.ndarray) -> float:
        """A lower bound on the smallest singular value of the images' rows
        g, from the spectra of the d x d diagonal blocks l_j = lt~[(., j),
        (., j)] and r_j of rt~, j < e, with no Gram.  A direction of A_I
        reads z~ = z x 1 in the frame, and block (j, j) of its image is
        l_j z - z r_j, so |T z|_tau^2 >= (1/e) sum_j |l_j z - z r_j|_tau^2.
        For Hermitian blocks the Sylvester map z -> l z - z r has the
        singular values |lambda_a(l) - mu_b(r)| (Bhatia-Rosenthal, Bull. LMS
        29 (1997) 1), so

          s_min(g)^2 >= (1/e) sum_j max(0, gap_j - eps_j)^2,

        gap_j the least distance between the computed spectra of the
        Hermitian parts of l_j and r_j.  eps_j covers eigvalsh's rounding,
        8 d u (|h(l_j)|_F + |h(r_j)|_F) by Weyl, and the anti-Hermitian
        parts k, which move the map by at most |k(l_j)|_F + |k(r_j)|_F, as
        L and R need not be Hermitian; the last factor covers the sum's own
        rounding.  Blocks that are not finite read 0 or NaN, which proves
        nothing."""
        d = self.d
        e = lt.shape[-1] // d
        diag = np.arange(e)
        u = np.finfo(float).eps / 2
        spectra, eps = [], 0.0
        for xt in (lt, rt):
            blocks = self._blocks(xt)[:, diag, :, diag]             # [j, r, r']
            herm = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
            eps = eps + 8 * d * u * np.linalg.norm(herm, axis=(1, 2)) + np.linalg.norm(blocks - herm, axis=(1, 2))
            try:
                spectra.append(np.linalg.eigvalsh(herm))
            except np.linalg.LinAlgError:
                return 0.0
        lam, mu = spectra
        gap = np.abs(lam[:, :, None] - mu[:, None, :]).min(axis=(1, 2))
        return float(np.sqrt(np.mean(np.maximum(0.0, gap - eps) ** 2)) * (1 - (e + 2) * u))

    def invariant_subspace(self, left: np.ndarray, right: np.ndarray, *, scale: float = 1.0,
                           floor: bool = True) -> tuple[np.ndarray | _WholeFactor, float]:
        """invariant_subspace over A_I: V as a tau-orthonormal (dim V, d, d)
        stack in the region's small picture, and the tau-norm of the
        identity minus its projection onto V (all of M_d as a _WholeFactor,
        residual 0).  Round 0 runs on the units and is decided by _decide:
        its out-of-span images are the frame images of L' and R', the parts
        of L and R outside the factor (E_I is the bimodule map of
        invariant_subspace), and the identity's image row is (L' - R')~.
        "Nothing kept" is proved first by floor, from the spectra of the
        d x d diagonal blocks of L'~ and R'~ (2 e eigenvalue problems of
        size d, skipped when right is left, as the identity is then kept,
        and when floor is False), and only then by the Gram, from blocks;
        only the singular-value cut forms the images.  When it keeps a
        proper part V of A_I, the later rounds run on V's (dim V, d, d)
        stack under z -> l z - z r, l and r the small pictures of E_I(L) and
        E_I(R): for z in V the bimodule map E_I splits the image into
        (l z - z r) x 1 and L'(z x 1) - (z x 1)R', which lies outside A_I
        and which round 0 put within the cut.  No D x D stack is formed."""
        d, dim = self.d, left.shape[-1]
        lt = self.outside(left)
        rt = lt if right is left else self.outside(right)
        whole = _WholeFactor(d)
        norms, weight = self.row_norms(lt, rt)
        root = np.sqrt(dim)
        # under L = R the identity is always kept, and the floor would prove nothing
        floor = None if right is left or not floor else (lambda: self.floor(lt, rt))
        kept = _decide(whole, float(np.sqrt(norms.sum())), weight, dim * dim, lambda _: hs.hs_norm(lt - rt),
                       lambda: self.gram(lt, rt), lambda: hs.flatten(self.images(lt / root, rt / root)),
                       scale, floor)
        if kept is not whole and kept.shape[0]:
            lbar, rbar = (self.family.trace_pairings(x) / (dim // d) for x in (left, right))
            kept = invariant_subspace_under(lambda z: lbar @ z - z @ rbar, kept, scale=scale)
        return kept, 0.0 if kept is whole else _identity_residual(kept, d)

    def worst_commutator(self, x: np.ndarray) -> float:
        """_worst_commutator against the scaled units: the largest image
        norm of x~ against itself, [x, sqrt(d) e_rs] in the frame."""
        xt = self.frame(x)
        return float(np.sqrt(self.row_norms(xt, xt)[0].max()))


def _unit_frame(s: SubalgebraBasis) -> _UnitFrame | None:
    """The unit frame of the region algebra s spans: s fills its region's
    factor and leaks out of it by at most TOL_MEMBER.  None otherwise, and
    off 2^n x 2^n matrices."""
    dim = s.dim_ambient
    n = dim.bit_length() - 1
    if dim != 2 ** n or not 1 <= n <= MAX_SITES or not _fills_factor(s._picture[0]) or s.leak.max(initial=0.0) > TOL_MEMBER:
        return None
    return _UnitFrame(_family(dim, tuple(range(n)) if s.region is None else s.region))


def _closure_pairs(m: int, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < m and j < n (default m), of the products a
    closure check samples: all m n in row-major order, or _CLOSURE_SAMPLES
    of them drawn without replacement."""
    n = m if n is None else n
    flat = np.arange(m * n)
    if m * n > _CLOSURE_SAMPLES:
        flat = np.random.default_rng(_DEFAULT_SEED).choice(m * n, size=_CLOSURE_SAMPLES, replace=False)
    return np.divmod(flat, n)


def _product_residual(left: np.ndarray, right: np.ndarray, target: np.ndarray) -> float:
    """Largest residual against the span of a tau-orthonormal target of a
    product l_i r_j, all of them or _CLOSURE_SAMPLES drawn, relative to
    1 + its norm (0 with no products).
    A target that fills its whole factor holds every product: 0, with none
    formed."""
    if _fills_factor(target):
        return 0.0
    i, j = _closure_pairs(left.shape[0], right.shape[0])
    products = _stack(left)[i] @ _stack(right)[j]
    scale = 1.0 + np.linalg.norm(hs.flatten(products), axis=1) / np.sqrt(products.shape[-1])
    return float((hs.residual_norms(target, products) / scale).max(initial=0.0))


def _adjoint_residual(stack: np.ndarray, target: np.ndarray) -> float:
    """Largest residual against the target's span of the adjoint of a stack
    element, all of them or _CLOSURE_SAMPLES drawn without replacement; 0, with no
    adjoint formed, for a target that fills its whole factor."""
    if _fills_factor(target):
        return 0.0
    i, _ = _closure_pairs(stack.shape[0], 1)
    adj = np.conj(np.transpose(_stack(stack)[i], (0, 2, 1)))
    return float(hs.residual_norms(target, adj).max(initial=0.0))


def _closure_residuals(s: SubalgebraBasis) -> tuple[float, float]:
    """(product, adjoint) residuals of a basis, in its region's factor."""
    return _product_residual(s.small, s.small, s.small), _adjoint_residual(s.small, s.small)


def _require_closed(products: float, adjoints: float, tol: float) -> None:
    if products > tol:
        raise NotAnAlgebra(f"product closure residual {products:.3e} exceeds {tol:.1e}")
    if adjoints > adjoint_closure(tol):
        raise NotAnAlgebra(f"adjoint closure residual {adjoints:.3e} exceeds {adjoint_closure(tol):.1e}")


def _verify_algebra_closure(s: SubalgebraBasis, tol: float) -> None:
    """Closure under sampled products and adjoints, and a leak out of the
    region of at most tol; NotAnAlgebra otherwise."""
    _require_inside(s.leak, tol, s.region, "basis")
    _require_closed(*_closure_residuals(s), tol)
