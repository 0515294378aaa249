"""The containment sweep's t-order readout: the lowest nonzero balanced digit
of a packed integer, read from its trailing zero bits, against a digit-by-digit
unpack."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loopalg.hitchin import _lowest_slot  # noqa: E402


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
