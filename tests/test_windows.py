"""Windows of the Laurent layer and of the invariant kernel: what an element
reports known must be known, and every element meets the class contract."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loopalg.hitchin import invariant_system  # noqa: E402
from loopalg.laurent import INF, LaurentPoly, TwistedElement, ramified_pullback  # noqa: E402
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


# -- the Laurent layer ---------------------------------------------------------

# few distinct values, so that sums and products cancel often
values = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]))


@st.composite
def laurent(draw):
    """An exact element built from a dict with zeros and int values, or a windowed one."""
    lo = draw(st.integers(-3, 2))
    if draw(st.booleans()):
        return LaurentPoly.exact({k: draw(values) for k in range(lo, lo + draw(st.integers(0, 4)))})
    hi = lo + draw(st.integers(-1, 4))
    return LaurentPoly({k: draw(values) for k in range(lo, hi + 1)}, lo, hi)


def assert_contract(p):
    """Int keys, nonzero Fraction values inside [lo, hi], and equal (with the
    same hash) to the element the validating constructor builds from them."""
    assert all(type(k) is int for k in p.coeffs)
    assert all(type(v) is Fraction and v != 0 for v in p.coeffs.values())
    assert all(p.lo <= k <= p.hi for k in p.coeffs)
    rebuilt = LaurentPoly(dict(p.coeffs), p.lo, p.hi)
    assert p == rebuilt and hash(p) == hash(rebuilt)


def _c(p, k):
    return p.coeffs.get(k, 0)


def _wadd(a, b):
    return INF if INF in (a, b) else a + b


@settings(max_examples=300, deadline=None)
@given(laurent(), laurent(), st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3))
def test_every_operation_meets_the_contract(a, b, c, h, k):
    """Each result meets the contract and equals the same formula evaluated
    through the validating constructor."""
    hi = min(a.hi, b.hi)
    keys = set(a.coeffs) | set(b.coeffs)
    plus = LaurentPoly({e: _c(a, e) + _c(b, e) for e in keys if e <= hi}, min(a.lo, b.lo), hi)
    minus = LaurentPoly({e: _c(a, e) - _c(b, e) for e in keys if e <= hi}, min(a.lo, b.lo), hi)
    mhi = min(_wadd(a.lo, b.hi), _wadd(b.lo, a.hi))
    prod = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= mhi:
                prod[i + j] = prod.get(i + j, 0) + x * y
    phi = INF if a.hi == INF else h * a.hi + h - 1
    dhi = INF if a.hi == INF else a.hi - 1
    shi = INF if a.hi == INF else a.hi + k
    cases = [
        (a + b, plus),
        (a - b, minus),
        (-a, LaurentPoly({e: -v for e, v in a.coeffs.items()}, a.lo, a.hi)),
        (a * b, LaurentPoly(prod, a.lo + b.lo, mhi)),
        (a.scale(c), LaurentPoly({e: c * v for e, v in a.coeffs.items()}, a.lo, a.hi)
         if c else LaurentPoly.zero()),
        (a.shift(k), LaurentPoly({e + k: v for e, v in a.coeffs.items()}, a.lo + k, shi)),
        (a.derivative(), LaurentPoly({e - 1: e * v for e, v in a.coeffs.items()}, a.lo - 1, dhi)),
        (ramified_pullback(a, h), LaurentPoly({h * e: v for e, v in a.coeffs.items()}, h * a.lo, phi)),
    ]
    for got, want in cases:
        assert_contract(got)
        assert got == want and hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), values))
def test_exact_drops_zeros_and_converts(d):
    p = LaurentPoly.exact(d)
    assert_contract(p)
    assert p.coeffs == {k: Fraction(v) for k, v in d.items() if v}
    assert p.lo == min(p.coeffs, default=0) and p.hi == INF


@st.composite
def windowed_and_tail(draw):
    """A windowed element and a tail above its window, so that element + tail
    completes it; the tail's lowest term sits just above hi."""
    lo = draw(st.integers(-3, 2))
    hi = lo + draw(st.integers(-1, 3))
    f = LaurentPoly({k: draw(values) for k in range(lo, hi + 1)}, lo, hi)
    tail = {hi + 1: draw(st.sampled_from([1, -1, Fraction(1, 2)]))}
    tail.update({k: draw(values) for k in range(hi + 2, hi + 4)})
    return f, LaurentPoly.exact({**f.coeffs, **tail})


@settings(max_examples=200, deadline=None)
@given(windowed_and_tail(), st.integers(1, 5))
def test_pullback_window_is_what_every_completion_fixes(case, h):
    """t = u^h turns the unknown O(t^{hi+1}) into O(u^{h(hi+1)}): the pullback
    is known through u^{h hi + h - 1} and no further."""
    f, completed = case
    g, full = ramified_pullback(f, h), ramified_pullback(completed, h)
    assert g.window == (h * f.lo, h * f.hi + h - 1)
    assert g.agrees_with(full)
    assert all(g.coeff(e) == full.coeff(e) for e in range(g.lo, g.hi + 1))
    assert full.coeff(g.hi + 1) == completed.coeff(f.hi + 1) != 0


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-3, 4), values), st.integers(-4, 5), st.integers(-4, 6),
       st.sampled_from([1, -1, Fraction(1, 3)]))
def test_agrees_with_under_truncation(d, hi, k, delta):
    """A truncation agrees with its exact element both ways, and with a change
    of the exact element exactly when the change lies above the window."""
    full = LaurentPoly.exact(d)
    cut = LaurentPoly({e: v for e, v in d.items() if e <= hi}, min(full.lo, hi), hi)
    assert cut.agrees_with(full) and full.agrees_with(cut)
    changed = full + LaurentPoly.t_power(k, delta)
    assert cut.agrees_with(changed) == (k > hi)
    assert changed.agrees_with(cut) == (k > hi)
