"""Exact arithmetic and equality of Laurent polynomials."""

import random
from fractions import Fraction

import pytest

from loopalg.hitchin import HitchinValue
from loopalg.laurent import LaurentPoly, OrderBound, TwistedElement, ramified_pullback, residue

L = LaurentPoly


def rand_poly(rng, lo=-3, hi=4):
    return L({k: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for k in range(lo, hi)})


class TestArithmetic:
    def test_product_example(self):
        f = L({-1: 1, 0: 1})
        g = L({1: 1})
        assert (f * g).coeffs == {0: 1, 1: 1}

    def test_valuation(self):
        assert L({3: 1, 5: -1}).val() == 3
        assert L({}).val() is None

    def test_window_rule_against_convolution(self):
        """The product against the direct convolution of the coefficient lists,
        at every exponent from below the lowest to above the highest term."""
        rng = random.Random(5)
        for _ in range(50):
            lo1, hi1 = rng.randint(-3, 0), rng.randint(1, 6)
            lo2, hi2 = rng.randint(-2, 0), rng.randint(0, 5)
            f_full = {k: Fraction(rng.randint(-5, 5)) for k in range(lo1, hi1 + 1)}
            g_full = {k: Fraction(rng.randint(-5, 5)) for k in range(lo2, hi2 + 1)}
            prod = L(f_full) * L(g_full)
            for k in range(lo1 + lo2 - 1, hi1 + hi2 + 2):
                direct = sum(
                    f_full.get(i, Fraction(0)) * g_full.get(k - i, Fraction(0))
                    for i in range(lo1, hi1 + 1)
                )
                assert prod.coeff(k) == direct, k
            assert all(v != 0 for v in prod.coeffs.values())

    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for _ in range(40):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestEquality:
    """Equality and hashing read the coefficients alone, however an element was
    built: cancellation in a sum or a product leaves no trace."""

    def assert_same(self, a, b):
        assert a == b and hash(a) == hash(b)
        assert a.val() == b.val()

    def test_cancelled_sum_equals_monomial(self):
        s = L.const(1) + (L.const(-1) + L.t_power(2))
        assert s.to_text() == "1*t^2"
        self.assert_same(s, L.t_power(2))
        self.assert_same(L.t_power(-1) - L.t_power(-1), L.zero())

    def test_product_with_cancelled_low_terms(self):
        a = L.const(1) + (L.const(-1) + L.t_power(1))  # t, built from a cancelling sum
        self.assert_same(a * L.t_power(1), L.t_power(2))
        b = L({-1: 1, 0: 1}) * L({-1: 1, 0: -1})  # t^-2 - 1
        self.assert_same(b + L.t_power(-2, -1), L.const(-1))

    def test_twisted_and_hitchin_values(self):
        s = L.const(1) + (L.const(-1) + L.t_power(2))
        xi = TwistedElement({0: s, 1: L.const(3)}, 2, 1)
        assert xi == TwistedElement({0: L.t_power(2), 1: L.const(3)}, 2, 1)
        assert TwistedElement({0: L.const(1) - L.const(1)}, 2, 1) == TwistedElement({}, 2, 1)
        got = HitchinValue([s, L.t_power(-1) * L.t_power(1)], (2, 3))
        assert got == HitchinValue([L.t_power(2), L.one()], (2, 3))
        assert got.pole_orders() == [0, 3]
        assert got != HitchinValue([L.t_power(2), L.const(2)], (2, 3))


class TestResidue:
    def test_examples(self):
        assert residue(L({0: 1})) == 1
        assert residue(L({1: 1})) == 0
        assert residue(L({-2: 3, 0: 5})) == 5

    def test_residue_of_derivative_vanishes(self):
        rng = random.Random(3)
        for _ in range(30):
            f = rand_poly(rng)
            # d f = f'(t) dt = (t f'(t)) dt/t
            assert residue(f.derivative().shift(1)) == 0


class TestPullback:
    def test_examples(self):
        assert ramified_pullback(L({-1: 1}), 2).coeffs == {-2: 1}
        assert ramified_pullback(L({0: 1, 1: 1}), 3).coeffs == {0: 1, 3: 1}

    def test_is_ring_homomorphism(self):
        rng = random.Random(23)
        for _ in range(25):
            f, g = rand_poly(rng), rand_poly(rng)
            h = rng.choice([2, 3, 5])
            assert ramified_pullback(f * g, h) == ramified_pullback(f, h) * ramified_pullback(g, h)
            assert ramified_pullback(f + g, h) == ramified_pullback(f, h) + ramified_pullback(g, h)

    def test_twisted_pullback_scalar(self):
        # form-degree-1 element picks up the cover degree: dt/t = h du/u
        xi = TwistedElement({0: L({0: Fraction(5)})}, 1, 1)
        back = xi.ramified_pullback(2)
        assert back.component(0).coeff(0) == 10


class TestTwistedElement:
    def test_form_degree_in_equality(self):
        a = TwistedElement({0: L({0: 1})}, 2, 1)
        b = TwistedElement({0: L({0: 1})}, 2, 2)
        assert a != b
        assert a == TwistedElement({0: L({0: 1})}, 2, 1)

    def test_addition_requires_matching_degree(self):
        a = TwistedElement({0: L({0: 1})}, 2, 1)
        b = TwistedElement({0: L({0: 1})}, 2, 2)
        with pytest.raises(ValueError):
            a + b


class TestOrderBound:
    def test_meet_join_compare(self):
        a, b = OrderBound([1, 3]), OrderBound([2, 2])
        assert OrderBound([1, 2]) <= OrderBound([1, 3])
        assert not (a <= b)


class TestSerialization:
    def test_text_and_pairs(self):
        f = L({-1: Fraction(1, 2), 2: -3})
        assert f.to_text() == "1/2*t^-1 + -3*t^2"
        assert LaurentPoly.from_pairs(f.to_pairs()) == f
