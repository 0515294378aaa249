"""Exact sparse Laurent polynomials over Q, and the twisted elements built on them.

A :class:`LaurentPoly` is a finite sum of rational multiples of powers of t,
stored as a dict from exponent to nonzero coefficient.  Every element is known
exactly: the connections studied here are polynomial in z and z^-1, and each
gauge step, Hitchin value and slice round trip is a finite Laurent polynomial,
so no element carries a truncated or unknown tail.  Two elements are equal
exactly when their coefficients are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Union

QLike = Union[int, Fraction]


def _q(x: QLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LaurentPoly:
    """Immutable exact Laurent polynomial over Q.

    ``coeffs`` maps int exponents to nonzero ``Fraction`` values; that dict is
    the whole state.  ``__init__`` enforces this on any input: it converts the
    keys and values and drops zeros.  The private ``_of`` stores its dict as
    given, so it may only receive a dict that already meets the contract; the
    producers that call it build their coefficients clean.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, QLike]):
        object.__setattr__(self, "coeffs", {int(k): _q(v) for k, v in coeffs.items() if v})

    @classmethod
    def _of(cls, coeffs: Dict[int, Fraction]) -> "LaurentPoly":
        """Wrap a dict that already meets the class contract, without copying it."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._of({0: Fraction(1)})

    @classmethod
    def t_power(cls, k: int, c: QLike = 1) -> "LaurentPoly":
        return cls({k: c})

    @classmethod
    def const(cls, c: QLike) -> "LaurentPoly":
        return cls({0: c})

    # -- coefficient access ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def val(self):
        """Smallest exponent with nonzero coefficient, or None for zero."""
        return min(self.coeffs) if self.coeffs else None

    def order_at_least(self, k: int) -> bool:
        """True iff every term sits at an exponent >= k."""
        return all(j >= k for j in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LaurentPoly._of({k: v for k, v in coeffs.items() if v})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, c: QLike) -> "LaurentPoly":
        c = _q(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly._of({k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs: Dict[int, Fraction] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                coeffs[k] = coeffs[k] + a * b if k in coeffs else a * b
        return LaurentPoly._of({k: v for k, v in coeffs.items() if v})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._of({e + k: v for e, v in self.coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        """Formal d/dt."""
        return LaurentPoly._of({k - 1: k * v for k, v in self.coeffs.items() if k != 0})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{v}*t^{k}" for k, v in sorted(self.coeffs.items())]
        return " + ".join(parts)

    def to_pairs(self) -> List[List[str]]:
        return [[str(k), str(v)] for k, v in sorted(self.coeffs.items())]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[str]]) -> "LaurentPoly":
        return cls({int(k): Fraction(v) for k, v in pairs})

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


def residue(f: LaurentPoly) -> Fraction:
    """Residue of f dt/t, i.e. the coefficient of t^0."""
    return f.coeff(0)


def ramified_pullback(f: LaurentPoly, h: int) -> LaurentPoly:
    """Substitute t = u^h; exponents scale by h."""
    if h < 1:
        raise ValueError("cover degree must be a positive integer")
    return LaurentPoly._of({h * k: v for k, v in f.coeffs.items()})


class TwistedElement:
    """Vector of Laurent polynomials over a Chevalley basis, twisted by (dt/t)^k.

    ``value`` maps basis-line indices to coefficients; ``form_degree`` is the
    power k of dt/t the element is written against and takes part in equality.
    """

    __slots__ = ("value", "dim", "form_degree")

    def __init__(self, value: Dict[int, LaurentPoly], dim: int, form_degree: int):
        self.value = {i: p for i, p in value.items() if p.coeffs}
        self.dim = dim
        self.form_degree = form_degree

    def component(self, i: int) -> LaurentPoly:
        return self.value.get(i, LaurentPoly.zero())

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        if self.form_degree != other.form_degree or self.dim != other.dim:
            raise ValueError("cannot add twisted elements of different form degree")
        out = dict(self.value)
        for i, p in other.value.items():
            out[i] = out.get(i, LaurentPoly.zero()) + p
        return TwistedElement(out, self.dim, self.form_degree)

    def scale(self, c: QLike) -> "TwistedElement":
        return TwistedElement({i: p.scale(c) for i, p in self.value.items()}, self.dim, self.form_degree)

    def shift(self, k: int) -> "TwistedElement":
        return TwistedElement({i: p.shift(k) for i, p in self.value.items()}, self.dim, self.form_degree)

    def ramified_pullback(self, h: int) -> "TwistedElement":
        """Pull back along t = u^h; dt/t picks up the factor h per form degree."""
        c = Fraction(h) ** self.form_degree
        return TwistedElement(
            {i: ramified_pullback(p, h).scale(c) for i, p in self.value.items()},
            self.dim,
            self.form_degree,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedElement):
            return NotImplemented
        return (self.form_degree, self.dim, self.value) == (other.form_degree, other.dim, other.value)

    def __repr__(self):
        body = ", ".join(f"{i}: {p.to_text()}" for i, p in sorted(self.value.items()))
        return f"TwistedElement({{{body}}}, (dt/t)^{self.form_degree})"


class OrderBound:
    """Componentwise integer bounds, one per fundamental degree.

    ``bounds[i] = b_i`` records that component i lies in omega^{d_i} with pole
    order at most b_i, written against the (dt/t)^{d_i} trivialization.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: Iterable[int]):
        self.bounds = tuple(int(b) for b in bounds)

    def __le__(self, other: "OrderBound") -> bool:
        return len(self.bounds) == len(other.bounds) and all(
            a <= b for a, b in zip(self.bounds, other.bounds)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderBound):
            return NotImplemented
        return self.bounds == other.bounds

    def __iter__(self):
        return iter(self.bounds)

    def __repr__(self):
        return f"OrderBound{self.bounds}"
