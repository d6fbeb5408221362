"""Property test of the region-local span residuals (needs the optional
hypothesis test dependency; skipped without it)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fermarkov import hs, subalgebra  # noqa: E402
from fermarkov.car import build_algebra, matrix_units  # noqa: E402
from fermarkov.subalgebra import SubalgebraBasis  # noqa: E402


def span_in(region, mats):
    basis = hs.orthonormalize(mats)
    dim = basis.shape[-1]
    return SubalgebraBasis(dim, basis, subalgebra._contains_identity(basis, dim), None, region)


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_small_picture_residuals_property(data):
    # random stacks inside A_I against a random sub-span, for a random region I
    n = data.draw(st.integers(1, 5), label="n")
    region = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="region")))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    family = matrix_units(build_algebra(n), region)
    d = family.small_dim
    size = data.draw(st.integers(1, min(d * d, 24)), label="size")
    kept = data.draw(st.integers(0, size), label="kept")
    extra = data.draw(st.integers(0 if kept else 1, 4), label="extra")
    rng = np.random.default_rng(seed)

    def inside(count):
        small = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        return family.iso_from_small(small)

    stack = span_in(region, inside(size))
    mix = rng.normal(size=(kept, size)) @ hs.flatten(stack.basis)
    sub = span_in(region, np.concatenate([hs.unflatten(mix, 2**n), inside(extra)]))
    for x, y in ((stack, sub), (sub, stack)):
        got = subalgebra._inclusion_defects(x, y)
        want = hs.residual_norms(y.basis, x.basis)
        assert np.max(np.abs(got - want)) <= 1e-14
