"""The class contract of the Laurent layer: every operation returns an element
with int keys and nonzero Fraction values, equal (with the same hash) to the
element the validating constructor builds from the same formula."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loopalg.laurent import LaurentPoly, ramified_pullback  # noqa: E402

# few distinct values, so that sums and products cancel often
values = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]))


@st.composite
def laurent(draw):
    """An element built from a dict with zeros and int values."""
    lo = draw(st.integers(-3, 2))
    return LaurentPoly({k: draw(values) for k in range(lo, lo + draw(st.integers(0, 4)))})


def assert_contract(p):
    """Int keys and nonzero Fraction values, and equal (with the same hash) to
    the element the validating constructor builds from them."""
    assert all(type(k) is int for k in p.coeffs)
    assert all(type(v) is Fraction and v != 0 for v in p.coeffs.values())
    rebuilt = LaurentPoly(dict(p.coeffs))
    assert p == rebuilt and hash(p) == hash(rebuilt)


def _c(p, k):
    return p.coeffs.get(k, 0)


@settings(max_examples=300, deadline=None)
@given(laurent(), laurent(), st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3))
def test_every_operation_meets_the_contract(a, b, c, h, k):
    """Each result meets the contract and equals the same formula evaluated
    through the validating constructor."""
    keys = set(a.coeffs) | set(b.coeffs)
    prod = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            prod[i + j] = prod.get(i + j, 0) + x * y
    cases = [
        (a + b, LaurentPoly({e: _c(a, e) + _c(b, e) for e in keys})),
        (a - b, LaurentPoly({e: _c(a, e) - _c(b, e) for e in keys})),
        (-a, LaurentPoly({e: -v for e, v in a.coeffs.items()})),
        (a * b, LaurentPoly(prod)),
        (a.scale(c), LaurentPoly({e: c * v for e, v in a.coeffs.items()})),
        (a.shift(k), LaurentPoly({e + k: v for e, v in a.coeffs.items()})),
        (a.derivative(), LaurentPoly({e - 1: e * v for e, v in a.coeffs.items()})),
        (ramified_pullback(a, h), LaurentPoly({h * e: v for e, v in a.coeffs.items()})),
    ]
    for got, want in cases:
        assert_contract(got)
        assert got == want and hash(got) == hash(want)
        assert got.val() == min(want.coeffs, default=None)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), values))
def test_exact_drops_zeros_and_converts(d):
    p = LaurentPoly(d)
    assert_contract(p)
    assert p.coeffs == {k: Fraction(v) for k, v in d.items() if v}
    assert p.is_zero() == (not any(d.values()))
