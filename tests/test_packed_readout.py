"""The containment sweep's packed arithmetic: the slot width of the packed
charpoly kernel against an independent minor expansion, and the t-order
readout (the lowest nonzero balanced digit of a packed integer, read from its
trailing zero bits) against a digit-by-digit unpack."""

from itertools import combinations, permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loopalg import ring  # noqa: E402
from loopalg.hitchin import _lowest_slot, _slot_width  # noqa: E402


def first_nonzero_digit(value, w):
    """Slot of the first nonzero balanced digit of width w, by unpacking."""
    half, mask, k = 1 << (w - 1), (1 << w) - 1, 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << w
        if digit:
            return k
        value = (value - digit) >> w
        k += 1
    return None


@st.composite
def balanced_digits(draw):
    """A slot width w and digits |c| < 2^(w-1), often zero, extreme or even."""
    w = draw(st.integers(2, 40))
    top = (1 << (w - 1)) - 1
    digit = st.one_of(
        st.just(0), st.sampled_from([top, -top, 1, -1]),
        st.integers(-top, top), st.integers(0, w - 2).map(lambda e: 1 << e),
    )
    return w, draw(st.lists(digit, max_size=8))


@settings(max_examples=500, deadline=None)
@given(balanced_digits())
@example((3, [0, 2]))
@example((8, [0, 0, -64]))
def test_trailing_zeros_give_the_first_nonzero_digit(case):
    w, digits = case
    value = sum(c << (w * k) for k, c in enumerate(digits))
    want = first_nonzero_digit(value, w)
    assert want == next((k for k, c in enumerate(digits) if c), None)
    if value:
        assert _lowest_slot(value, w) == want


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    return [a + (g[i] if i < len(g) else 0) for i, a in enumerate(f)]


def trimmed(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def esym_by_minors(m, d):
    """e_d of a matrix over Z[t] (coefficient lists, lowest first) as the sum of
    its principal d-minors, each expanded over permutations."""
    total = []
    for rows in combinations(range(len(m)), d):
        for perm in permutations(range(d)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
            term = [sign]
            for i, j in zip(rows, perm):
                term = poly_mul(term, m[i][rows[j]])
            total = poly_add(total, term)
    return trimmed(total)


@st.composite
def zt_matrices(draw):
    """A small square matrix over Z[t] and a kmax <= its size."""
    n = draw(st.integers(1, 4))
    entry = st.lists(st.integers(-5, 5), max_size=3)
    return [[draw(entry) for _ in range(n)] for _ in range(n)], draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(zt_matrices())
@example(([[[5], [], []], [[], [5], []], [[], [], [5]]], 3))  # 5 I: e_d = C(3, d) 5^d = e_d(R)
@example(([[[0, 0, 7]]], 1))
@example(([[[]]], 1))
def test_slot_width_bounds_every_coefficient(case):
    """The slot width from the row l1-norms bounds every coefficient of e_1..e_kmax
    with balanced digits, is never wider than the width 2^n max(R)^kmax gave,
    and the packed kernel unpacks to the minor expansion."""
    m, kmax = case
    n = len(m)
    norms = [sum(abs(c) for f in row for c in f) for row in m]
    w = _slot_width(norms, kmax)
    assert w <= ((1 << n) * max(1, max(norms)) ** kmax).bit_length() + 1
    packed = [[sum(c << (w * k) for k, c in enumerate(f)) for f in row] for row in m]
    es = ring.charpoly_esym(packed, kmax)
    for d in range(1, kmax + 1):
        want = esym_by_minors(m, d)
        assert all(abs(c) < 1 << (w - 1) for c in want), (d, want, w)
        digits = ring._unpack(es[d - 1], w)
        assert digits == want
        if want:
            assert _lowest_slot(es[d - 1], w) == next(k for k, c in enumerate(digits) if c)
