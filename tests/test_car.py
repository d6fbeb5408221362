"""Tests for the Jordan-Wigner construction, parity machinery, matrix units
and conditional expectations."""

import itertools

import numpy as np
import pytest

from fermarkov.car import (
    RegionPartition,
    build_algebra,
    cond_expect,
    even_odd_split,
    matrix_units,
    parity_automorphism,
    parity_unitary,
    region_orthobasis,
)
from fermarkov.errors import DimensionTooLarge


def tau(alg, x):
    return complex(np.trace(x)) / alg.dim


def random_region_element(alg, region, rng):
    fam = matrix_units(alg, region)
    d = fam.small_dim
    return fam.iso_from_small(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def test_single_site_generator_form():
    alg = build_algebra(1)
    a = alg.annihilators[0]
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    eye = np.eye(2)
    assert np.max(np.abs(a @ a.conj().T + a.conj().T @ a - eye)) == 0.0


def test_single_site_parity_unitary():
    alg = build_algebra(1)
    v = parity_unitary(alg, (0,))
    assert np.array_equal(v, np.diag([-1.0, 1.0]).astype(complex))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_car_relations_exact(n):
    alg = build_algebra(n)
    eye = alg.identity()
    worst = 0.0
    for i in range(n):
        for j in range(n):
            ai, aj, adj = alg.annihilators[i], alg.annihilators[j], alg.creators[j]
            worst = max(worst, np.max(np.abs(ai @ aj + aj @ ai)))
            worst = max(worst, np.max(np.abs(ai @ adj + adj @ ai - (eye if i == j else 0))))
    assert worst <= 1e-12


def test_number_operator_trace_half():
    alg = build_algebra(4)
    for i in range(4):
        val = tau(alg, alg.creators[i] @ alg.annihilators[i])
        assert abs(val - 0.5) <= 1e-14


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_algebra(11)
    with pytest.raises(ValueError):
        build_algebra(0)


def test_trace_product_property():
    alg = build_algebra(5)
    rng = np.random.default_rng(0)
    sites = np.arange(5)
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(sites)
        cut = rng.integers(1, 5)
        left = tuple(sorted(perm[:cut]))
        right = tuple(sorted(perm[cut:]))
        x = random_region_element(alg, left, rng)
        y = random_region_element(alg, right, rng)
        worst = max(worst, abs(tau(alg, x @ y) - tau(alg, x) * tau(alg, y)))
    assert worst <= 1e-12


def test_graded_commutation():
    alg = build_algebra(4)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        perm = rng.permutation(np.arange(4))
        cut = rng.integers(1, 4)
        left, right = tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))
        xp, xm = even_odd_split(alg, random_region_element(alg, left, rng))
        yp, ym = even_odd_split(alg, random_region_element(alg, right, rng))
        for x, y, sign in ((xp, yp, 1), (xp, ym, 1), (xm, yp, 1), (xm, ym, -1)):
            worst = max(worst, np.max(np.abs(x @ y - sign * y @ x)))
    assert worst <= 1e-12


def test_parity_unitary_properties():
    alg = build_algebra(4)
    eye = alg.identity()
    assert np.array_equal(parity_unitary(alg, ()), eye)
    region = (0, 2)
    v = parity_unitary(alg, region)
    assert np.max(np.abs(v - v.conj().T)) <= 1e-14
    assert np.max(np.abs(v @ v - eye)) <= 1e-14
    # conjugation flips exactly the generators of the region
    for i in range(4):
        sign = -1.0 if i in region else 1.0
        assert np.max(np.abs(v @ alg.annihilators[i] @ v - sign * alg.annihilators[i])) <= 1e-12
    # v_I is even and lies in the region algebra
    assert np.max(np.abs(parity_automorphism(alg, v) - v)) <= 1e-12
    fam = matrix_units(alg, region)
    coeff = fam.trace_pairings(v) / (alg.dim // fam.small_dim)
    assert np.max(np.abs(fam.iso_from_small(coeff) - v)) <= 1e-12
    # tau(v_i) = 0 and the site factors commute
    for i in range(4):
        assert abs(tau(alg, parity_unitary(alg, (i,)))) <= 1e-14
    v0, v1 = parity_unitary(alg, (0,)), parity_unitary(alg, (1,))
    assert np.max(np.abs(v0 @ v1 - v1 @ v0)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parity_from_bit_counts_matches_the_generator_products(n):
    # v_I as the product of the dense a_i^* a_i - a_i a_i^*, and v_I x v_I as
    # two dense products, are reproduced exactly for every region
    alg = build_algebra(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, alg.dim, alg.dim)) + 1j * rng.normal(size=(2, alg.dim, alg.dim))
    for k in range(n + 1):
        for region in itertools.combinations(range(n), k):
            v = alg.identity()
            for i in region:
                a, ad = alg.annihilators[i], alg.creators[i]
                v = v @ (ad @ a - a @ ad)
            assert np.array_equal(parity_unitary(alg, region), v)
            assert np.array_equal(parity_automorphism(alg, x, region), v @ x @ v)
            assert np.array_equal(parity_automorphism(alg, x[0], region), v @ x[0] @ v)
    assert np.array_equal(parity_automorphism(alg, x), v @ x @ v)


def test_parity_automorphism_is_multiplicative_involution():
    alg = build_algebra(3)
    rng = np.random.default_rng(2)
    eye = alg.identity()
    assert np.array_equal(parity_automorphism(alg, eye), eye)
    for _ in range(5):
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.max(np.abs(parity_automorphism(alg, parity_automorphism(alg, x)) - x)) <= 1e-12
        lhs = parity_automorphism(alg, x @ y)
        rhs = parity_automorphism(alg, x) @ parity_automorphism(alg, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_even_odd_split():
    alg = build_algebra(3)
    a = alg.annihilators[1]
    plus, minus = even_odd_split(alg, a)
    assert np.max(np.abs(plus)) <= 1e-14
    assert np.max(np.abs(minus - a)) <= 1e-14
    num = alg.creators[1] @ alg.annihilators[1]
    plus, minus = even_odd_split(alg, num)
    assert np.max(np.abs(plus - num)) <= 1e-14 and np.max(np.abs(minus)) <= 1e-14
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    plus, minus = even_odd_split(alg, x)
    assert np.max(np.abs(plus + minus - x)) <= 1e-14


def test_single_site_matrix_units():
    alg = build_algebra(3)
    fam = matrix_units(alg, (1,))
    a, ad = alg.annihilators[1], alg.creators[1]
    assert np.max(np.abs(fam.unit(0, 0) - a @ ad)) <= 1e-14
    assert np.max(np.abs(fam.unit(0, 1) - a)) <= 1e-14
    assert np.max(np.abs(fam.unit(1, 0) - ad)) <= 1e-14
    assert np.max(np.abs(fam.unit(1, 1) - ad @ a)) <= 1e-14


def test_matrix_unit_identity_two_sites():
    alg = build_algebra(4)
    fam = matrix_units(alg, (1, 3))
    d = fam.small_dim
    worst = 0.0
    for r1 in range(d):
        for c1 in range(d):
            p, q = fam.unit(r1, r1), fam.unit(c1, c1)
            e_a = fam.unit(r1, c1)
            for r2 in range(d):
                for c2 in range(d):
                    want = e_a if (r1, c1) == (r2, c2) else np.zeros_like(e_a)
                    worst = max(worst, np.max(np.abs(p @ fam.unit(r2, c2) @ q - want)))
    assert worst <= 1e-12
    # p and q are even projections
    for r in range(d):
        p = fam.unit(r, r)
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(parity_automorphism(alg, p) - p)) <= 1e-12


def test_units_span_dimension_and_parity():
    alg = build_algebra(3)
    fam = matrix_units(alg, (0, 2))
    flat = fam.units.reshape(16, -1)
    assert np.linalg.matrix_rank(flat) == 16
    # units are parity homogeneous with sign given by off-diagonal count
    for idx in range(16):
        r, c = idx // 4, idx % 4
        sign = 1 if bin(r ^ c).count("1") % 2 == 0 else -1
        assert sign == fam.parity[idx]
        u = fam.units[idx]
        assert np.max(np.abs(parity_automorphism(alg, u) - sign * u)) <= 1e-12


def test_even_part_is_parity_commutant():
    # even region elements are exactly those commuting with the region parity
    alg = build_algebra(3)
    region = (0, 2)
    fam = matrix_units(alg, region)
    v = parity_unitary(alg, region)
    evens = [u for u, s in zip(fam.units, fam.parity) if s == 1]
    odds = [u for u, s in zip(fam.units, fam.parity) if s == -1]
    assert len(evens) == len(odds) == 8
    for u in evens:
        assert np.max(np.abs(u @ v - v @ u)) <= 1e-12
    for u in odds:
        assert np.max(np.abs(u @ v + v @ u)) <= 1e-12


def test_cond_expect_fixes_range_and_kills_disjoint():
    alg = build_algebra(3)
    rng = np.random.default_rng(4)
    x = random_region_element(alg, (0, 1), rng)
    assert np.max(np.abs(cond_expect(alg, x, (0, 1)) - x)) <= 1e-12
    # generators with disjoint support project to their (zero) trace
    assert np.max(np.abs(cond_expect(alg, alg.annihilators[2], (0, 1)))) <= 1e-12
    y = random_region_element(alg, (2,), rng)
    proj = cond_expect(alg, y, (0, 1))
    assert np.max(np.abs(proj - tau(alg, y) * alg.identity())) <= 1e-12


def test_cond_expect_defining_identity():
    alg = build_algebra(3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    e = cond_expect(alg, x, (0, 2))
    for b in region_orthobasis(alg, (0, 2)):
        assert abs(tau(alg, x @ b) - tau(alg, e @ b)) <= 1e-12


def test_cond_expect_tower_property():
    alg = build_algebra(4)
    rng = np.random.default_rng(6)
    regions = [(0, 1), (1, 2), (0, 3), (1, 2, 3), (2,), (0, 1, 2, 3), ()]
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        i = regions[rng.integers(len(regions))]
        j = regions[rng.integers(len(regions))]
        inter = tuple(sorted(set(i) & set(j)))
        lhs = cond_expect(alg, cond_expect(alg, x, i), j)
        rhs = cond_expect(alg, x, inter)
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    assert worst <= 1e-10


def test_cond_expect_commutes_with_parity():
    alg = build_algebra(4)
    rng = np.random.default_rng(7)
    for region in [(0, 2), (1,), (1, 2, 3)]:
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        lhs = parity_automorphism(alg, cond_expect(alg, x, region))
        rhs = cond_expect(alg, parity_automorphism(alg, x), region)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cond_expect_positive_unital_trace_preserving():
    alg = build_algebra(3)
    rng = np.random.default_rng(8)
    region = (0, 2)
    assert np.max(np.abs(cond_expect(alg, alg.identity(), region) - alg.identity())) <= 1e-12
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    pos = g @ g.conj().T
    image = cond_expect(alg, pos, region)
    assert np.linalg.eigvalsh((image + image.conj().T) / 2)[0] >= -1e-10
    assert abs(np.trace(image) - np.trace(pos)) <= 1e-10


def test_region_partition_validation():
    r = RegionPartition((0, 1), (2,), (3,))
    assert r.n_sites == 4 and r.AB == (0, 1, 2) and r.BC == (2, 3)
    with pytest.raises(ValueError):
        RegionPartition((0,), (0,), (1,))
    with pytest.raises(ValueError):
        RegionPartition((0,), (1,), ())
    with pytest.raises(ValueError):
        RegionPartition((0,), (1,), (3,))
    with pytest.raises(ValueError):
        RegionPartition((1, 0), (2,), (3,))


def test_interleaved_region_partition():
    r = RegionPartition((0, 3), (1,), (2, 4))
    assert r.AB == (0, 1, 3)
    assert r.BC == (1, 2, 4)


@pytest.mark.parametrize("region", [(), (1, 3), (0, 1, 2, 3)])
def test_cond_expect_stack_matches_loop(region):
    alg = build_algebra(4)
    rng = np.random.default_rng(71)
    stack = rng.normal(size=(5, 16, 16)) + 1j * rng.normal(size=(5, 16, 16))
    batched = cond_expect(alg, stack, region)
    looped = np.stack([cond_expect(alg, x, region) for x in stack])
    assert batched.shape == stack.shape
    assert np.max(np.abs(batched - looped)) <= 1e-12
    assert cond_expect(alg, stack[:0], region).shape == (0, 16, 16)


def test_matrix_unit_stack_round_trip():
    alg = build_algebra(4)
    region = (0, 2)
    fam = matrix_units(alg, region)
    rng = np.random.default_rng(72)
    stack = np.stack([random_region_element(alg, region, rng) for _ in range(3)])
    coeff = fam.trace_pairings(stack) / (alg.dim // fam.small_dim)
    assert coeff.shape == (3, fam.small_dim, fam.small_dim)
    assert np.max(np.abs(fam.iso_from_small(coeff) - stack)) <= 1e-12


def scatter_by_three_indices(fam, m):
    """iso_from_small as the assignment out[..., rows, cols] = m * signs over
    the (r, c, j) entries of every unit."""
    m = np.asarray(m, dtype=complex)
    rows, cols, signs = fam._blocks()
    out = np.zeros(m.shape[:-2] + (fam.alg.dim, fam.alg.dim), dtype=complex)
    out[..., rows, cols] = m[..., None] * signs
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_iso_from_small_matches_the_three_index_scatter(n):
    alg = build_algebra(n)
    rng = np.random.default_rng(74 + n)
    for k in range(n + 1):
        for region in itertools.combinations(range(n), k):
            fam = matrix_units(alg, region)
            d = fam.small_dim
            for shape in [(d, d), (3, d, d), (2, 0, d, d)]:
                m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                assert np.array_equal(fam.iso_from_small(m), scatter_by_three_indices(fam, m))
            units = np.eye(d * d).reshape(-1, d, d)
            assert np.array_equal(fam.iso_from_small(units), scatter_by_three_indices(fam, units))


def reference_units(alg, region):
    """e_rc from the Jordan-Wigner generators, in the row-major (r, c) order:
    the product over region sites of a a^*, V a, V a^*, a^* a (digit 2 r_j + c_j),
    where V is the product of (1 - 2 a^* a) over the earlier region sites."""
    eye = alg.identity()
    local = []
    v_prev = eye
    for site in region:
        a, ad = alg.annihilators[site], alg.creators[site]
        local.append((a @ ad, v_prev @ a, v_prev @ ad, ad @ a))
        v_prev = v_prev @ (eye - 2 * ad @ a)
    k = len(region)
    units = []
    for r in range(2 ** k):
        for c in range(2 ** k):
            e = eye
            for j, factors in enumerate(local):
                shift = k - 1 - j
                e = e @ factors[2 * ((r >> shift) & 1) + ((c >> shift) & 1)]
            units.append(e)
    return np.stack(units)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_signed_permutation_against_reference_units(n):
    alg = build_algebra(n)
    rng = np.random.default_rng(73)
    x = rng.normal(size=(2, alg.dim, alg.dim)) + 1j * rng.normal(size=(2, alg.dim, alg.dim))
    for k in range(n + 1):
        for region in itertools.combinations(range(n), k):
            fam = matrix_units(alg, region)
            assert np.array_equal(np.sort(fam.perm), np.arange(alg.dim))
            assert set(np.unique(fam.sign)) <= {-1, 1}
            w = np.zeros((alg.dim, alg.dim))
            w[fam.perm, np.arange(alg.dim)] = fam.sign
            if region == tuple(range(k)):
                assert np.array_equal(w, np.eye(alg.dim))
            ref = reference_units(alg, region)
            d = 2 ** k
            small = np.eye(d * d).reshape(-1, d, d)
            for e, e_small in zip(ref, small):
                assert np.array_equal(w.T @ e @ w, np.kron(e_small, np.eye(alg.dim // d)))
            # HS projection onto the reference span; the units are orthogonal
            # with squared Frobenius norm 2^(n-k)
            flat = ref.reshape(d * d, -1)
            want = (x.reshape(2, -1) @ flat.T / (alg.dim // d)) @ flat
            got = cond_expect(alg, x, region)
            assert np.max(np.abs(got - want.reshape(x.shape))) <= 1e-15


@pytest.mark.parametrize("region", [(-1,), (3,), (0, 3)])
def test_out_of_range_sites_rejected(region):
    alg = build_algebra(3)
    with pytest.raises(ValueError, match="range"):
        matrix_units(alg, region)
    with pytest.raises(ValueError, match="range"):
        cond_expect(alg, alg.annihilators[0], region)
