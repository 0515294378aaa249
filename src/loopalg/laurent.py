"""Exact rational Laurent polynomials with explicit truncation windows.

A :class:`LaurentPoly` models an element of Q((t)) through a window
``(lo, hi)``: coefficients below ``lo`` are known to vanish, coefficients
in ``[lo, hi]`` are known exactly, and coefficients above ``hi`` are
unknown.  Exact elements carry ``hi = +oo``.  Reading outside the window
is a hard error, never a silent zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .errors import WindowUnderflowError

INF = float("inf")

QLike = Union[int, Fraction]


def _q(x: QLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LaurentPoly:
    """Immutable truncated Laurent polynomial over Q.

    ``coeffs`` maps int exponents to nonzero ``Fraction`` values, every key in
    ``[lo, hi]``.  ``__init__`` enforces this on any input: it converts the
    values, drops zeros and rejects keys outside the window.  The private
    ``_of`` stores its dict as given, so it may only receive a dict that
    already meets the contract; the producers that call it build their
    coefficients clean.
    """

    __slots__ = ("coeffs", "lo", "hi")

    def __init__(self, coeffs: Dict[int, QLike], lo: int, hi):
        clean = {}
        for k, v in coeffs.items():
            v = _q(v)
            if v != 0:
                if k < lo or k > hi:
                    raise ValueError(f"coefficient at t^{k} outside window [{lo}, {hi}]")
                clean[int(k)] = v
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _of(cls, coeffs: Dict[int, Fraction], lo: int, hi) -> "LaurentPoly":
        """Wrap a dict that already meets the class contract, without copying it."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls, coeffs: Dict[int, QLike]) -> "LaurentPoly":
        """Exactly known element; window extends to +oo."""
        clean = {int(k): _q(v) for k, v in coeffs.items() if v}
        return cls._of(clean, min(clean, default=0), INF)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls.exact({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.exact({0: 1})

    @classmethod
    def t_power(cls, k: int, c: QLike = 1) -> "LaurentPoly":
        return cls.exact({k: c})

    @classmethod
    def const(cls, c: QLike) -> "LaurentPoly":
        return cls.exact({0: c})

    # -- window bookkeeping ---------------------------------------------

    @property
    def window(self) -> Tuple[int, object]:
        return (self.lo, self.hi)

    @property
    def is_exact(self) -> bool:
        return self.hi == INF

    def is_zero(self) -> bool:
        """True iff the element is exactly zero (requires an exact window)."""
        return not self.coeffs and self.is_exact

    def known_zero(self) -> bool:
        """True iff all known coefficients vanish."""
        return not self.coeffs

    # -- coefficient access ----------------------------------------------

    def coeff(self, k: int) -> Fraction:
        if k > self.hi:
            raise WindowUnderflowError(
                f"coefficient at t^{k} requested but element only known up to t^{self.hi}"
            )
        return self.coeffs.get(k, Fraction(0))

    def val(self):
        """Smallest exponent with nonzero coefficient, or None for exact zero."""
        if self.coeffs:
            return min(self.coeffs)
        if self.is_exact:
            return None
        raise WindowUnderflowError(
            f"valuation undetermined: element vanishes on window [{self.lo}, {self.hi}]"
        )

    def order_at_least(self, k: int) -> bool:
        """True iff all known coefficients sit at exponents >= k (window must reach k-1)."""
        if self.hi < k - 1 and any(j < k for j in self.coeffs):
            return False
        if self.hi != INF and self.hi < k - 1 and not self.coeffs:
            raise WindowUnderflowError(f"cannot certify order >= {k} on window [{self.lo}, {self.hi}]")
        return all(j >= k for j in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LaurentPoly._of({k: v for k, v in coeffs.items() if v and k <= hi}, lo, hi)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({k: -v for k, v in self.coeffs.items()}, self.lo, self.hi)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, c: QLike) -> "LaurentPoly":
        c = _q(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly._of({k: c * v for k, v in self.coeffs.items()}, self.lo, self.hi)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        # Product determined up to min(lo1+hi2, lo2+hi1): any higher exponent
        # receives a contribution from an unknown tail times a known part.
        lo = self.lo + other.lo
        hi = min(_wsum(self.lo, other.hi), _wsum(other.lo, self.hi))
        coeffs: Dict[int, Fraction] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                if k <= hi:
                    coeffs[k] = coeffs[k] + a * b if k in coeffs else a * b
        return LaurentPoly._of({k: v for k, v in coeffs.items() if v}, lo, hi)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers: invert monomials explicitly")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        hi = self.hi if self.hi == INF else self.hi + k
        return LaurentPoly._of({e + k: v for e, v in self.coeffs.items()}, self.lo + k, hi)

    def derivative(self) -> "LaurentPoly":
        """Formal d/dt."""
        hi = self.hi if self.hi == INF else self.hi - 1
        return LaurentPoly._of({k - 1: k * v for k, v in self.coeffs.items() if k != 0}, self.lo - 1, hi)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.window == other.window

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.lo, self.hi))

    def agrees_with(self, other: "LaurentPoly") -> bool:
        """Equality of coefficients on the intersection of known regions."""
        hi = min(self.hi, other.hi)
        keys = {k for k in self.coeffs if k <= hi} | {k for k in other.coeffs if k <= hi}
        return all(self.coeffs.get(k, Fraction(0)) == other.coeffs.get(k, Fraction(0)) for k in keys)

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
        return cls.exact({int(k): Fraction(v) for k, v in pairs})

    def __repr__(self):
        hi = "inf" if self.hi == INF else self.hi
        return f"LaurentPoly({self.to_text()}; window=[{self.lo},{hi}])"


def _wsum(a, b):
    return INF if b == INF or a == INF else a + b


def laurent_arith(f: LaurentPoly, g: LaurentPoly, op: str) -> LaurentPoly:
    """Dispatch wrapper for the three ring operations."""
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    if op == "scalar":
        if not g.is_exact or set(g.coeffs) - {0}:
            raise ValueError("scalar operand must be an exact constant")
        return f.scale(g.coeff(0))
    raise ValueError(f"unknown op {op!r}")


def residue(f: LaurentPoly) -> Fraction:
    """Residue of f dt/t, i.e. the coefficient of t^0."""
    return f.coeff(0)


def ramified_pullback(f: LaurentPoly, h: int) -> LaurentPoly:
    """Substitute t = u^h; exponents scale by h.

    The unknown tail O(t^{hi+1}) becomes O(u^{h*(hi+1)}), so the result is
    exactly known through u-exponent h*hi + h - 1.
    """
    if h < 1:
        raise ValueError("cover degree must be a positive integer")
    hi = INF if f.hi == INF else h * f.hi + h - 1
    return LaurentPoly._of({h * k: v for k, v in f.coeffs.items()}, h * f.lo, hi)


class TwistedElement:
    """Vector of Laurent polynomials over a Chevalley basis, twisted by (dt/t)^k.

    ``value`` maps basis-line indices to coefficients; ``form_degree`` is the
    power k of dt/t the element is written against and takes part in equality.
    """

    __slots__ = ("value", "dim", "form_degree")

    def __init__(self, value: Dict[int, LaurentPoly], dim: int, form_degree: int):
        self.value = {i: p for i, p in value.items() if not p.known_zero() or not p.is_exact}
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
        if self.form_degree != other.form_degree or self.dim != other.dim:
            return False
        keys = set(self.value) | set(other.value)
        z = LaurentPoly.zero()
        return all(self.value.get(i, z) == other.value.get(i, z) for i in keys)

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

    def meet(self, other: "OrderBound") -> "OrderBound":
        return OrderBound(min(a, b) for a, b in zip(self.bounds, other.bounds))

    def join(self, other: "OrderBound") -> "OrderBound":
        return OrderBound(max(a, b) for a, b in zip(self.bounds, other.bounds))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderBound):
            return NotImplemented
        return self.bounds == other.bounds

    def __iter__(self):
        return iter(self.bounds)

    def __repr__(self):
        return f"OrderBound{self.bounds}"
