"""Windowed input to the invariant kernel: what it reports known must be known."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loopalg.hitchin import invariant_system  # noqa: E402
from loopalg.laurent import LaurentPoly, TwistedElement  # noqa: E402
from loopalg.rootdata import CartanType, build_root_datum  # noqa: E402

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]

rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))


@st.composite
def windowed_with_completion(draw):
    """A twisted element with some truncated entries, and one completion of it.

    Every entry is known on a window [lo, hi]; a truncated entry's completion
    adds arbitrary coefficients just above hi.
    """
    rd = build_root_datum(CartanType.parse(draw(st.sampled_from(INVARIANT_TYPES))))
    known, full = {}, {}
    lines = draw(st.sets(st.integers(0, rd.dim - 1), min_size=1, max_size=6))
    for idx in sorted(lines):
        lo = draw(st.integers(-2, 1))
        hi = lo + draw(st.integers(0, 2))
        coeffs = {k: draw(rationals) for k in range(lo, hi + 1)}
        if draw(st.booleans()):
            known[idx] = LaurentPoly.exact(coeffs)
            full[idx] = known[idx]
        else:
            known[idx] = LaurentPoly(coeffs, lo, hi)
            tail = {k: draw(rationals) for k in range(hi + 1, hi + 4)}
            full[idx] = LaurentPoly.exact({**coeffs, **tail})
    return rd, TwistedElement(known, rd.dim, 1), TwistedElement(full, rd.dim, 1)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(windowed_with_completion())
def test_known_coefficients_survive_every_completion(case):
    rd, xi, completed = case
    inv = invariant_system(rd)
    for got, want in zip(inv.invariant_values(xi), inv.invariant_values(completed)):
        assert want.is_exact
        if all(poly.is_exact for poly in xi.value.values()):
            assert got == want
            continue
        assert not got.is_exact
        assert all(got.lo <= k for k in want.coeffs)
        assert all(got.coeff(k) == want.coeff(k) for k in range(got.lo, got.hi + 1))
