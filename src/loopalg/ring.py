"""Small exact-arithmetic helpers: generic characteristic polynomials,
multivariate polynomials over Q, univariate rational functions, and exact
linear algebra.

Everything here is coefficient-exact; ring elements only need ``+``, ``-``,
``*`` and ``.scale(Fraction)``.  Linear algebra over Q and Q(z) runs over the
integers: ``row_reduce`` clears rows to Z and eliminates fraction-free,
keeping rows primitive, and ``bareiss_solve`` clears rows to Z[z] and runs
Bareiss elimination on Kronecker-packed ints.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple


# -- generic matrices ------------------------------------------------------


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for s in range(k):
                term = a[i][s] * b[s][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def charpoly_esym(m, kmax: int) -> List:
    """Elementary symmetric functions e_1..e_kmax (kmax <= len(m)) of the eigenvalues of m.

    Berkowitz's division-free recursion: it uses only ``+``, ``-`` and ``*``
    of the entries, so it runs unchanged on ints, MultiPoly and LaurentPoly.
    Step r borders the leading block M (size r-1, invariants E_k, E_0 = 1)
    by column c, row u and corner a; then
    e_k = E_k + a E_{k-1} + sum_{i>=2} (-1)^(i-1) (u M^(i-2) c) E_{k-i}.
    """
    es: List = []
    for r in range(len(m)):
        a, row = m[r][r], m[r][:r]
        block = [m[i][:r] for i in range(r)]
        col = [m[i][r] for i in range(r)]
        # s[i - 2] = u M^(i-2) c for the bordering terms of orders 2..min(kmax, r+1)
        s = []
        for i in range(2, min(kmax, r + 1) + 1):
            if i > 2:
                col = [_dot(brow, col) for brow in block]
            s.append(_dot(row, col))
        new = []
        for k in range(1, min(kmax, r + 1) + 1):
            acc = a if k == 1 else a * es[k - 2]
            if k <= r:
                acc = es[k - 1] + acc
            for i in range(2, k + 1):
                term = s[i - 2] if i == k else s[i - 2] * es[k - i - 1]
                acc = acc + term if i % 2 else acc - term
            new.append(acc)
        es = new
    return es


def _dot(row, col):
    products = map(operator.mul, row, col)
    return sum(products, next(products))


# -- multivariate polynomials over Q ----------------------------------------


class MultiPoly:
    """Sparse polynomial in n variables with Fraction coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Tuple[int, ...], Fraction]):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def const(cls, n: int, c) -> "MultiPoly":
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def var(cls, n: int, i: int) -> "MultiPoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.n, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.n, terms)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def evaluate(self, args: Sequence, one):
        """Evaluate in any commutative Q-algebra.

        ``args`` holds one algebra element per variable and ``one`` the
        algebra's unit; elements must support +, * and .scale(Fraction).
        """
        acc = one.scale(0)
        for e, c in sorted(self.terms.items()):
            term = one
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * args[i]
            acc = acc + term.scale(c)
        return acc

    def coefficient_of_var(self, i: int) -> Fraction:
        """Coefficient of the plain linear monomial x_i."""
        e = [0] * self.n
        e[i] = 1
        return self.terms.get(tuple(e), Fraction(0))

    def drop_var_linear(self, i: int) -> "MultiPoly":
        """Remove the linear x_i monomial."""
        e = [0] * self.n
        e[i] = 1
        terms = dict(self.terms)
        terms.pop(tuple(e), None)
        return MultiPoly(self.n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"b{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# -- univariate polynomials and rational functions ---------------------------


class Poly:
    """Dense univariate polynomial over Q (for rational-function elimination)."""

    __slots__ = ("cs",)

    def __init__(self, cs: Sequence):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.cs = cs

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    def degree(self) -> int:
        return len(self.cs) - 1 if self.cs else -1

    def is_zero(self) -> bool:
        return not self.cs

    def __add__(self, o):
        n = max(len(self.cs), len(o.cs))
        return Poly([(self.cs[i] if i < len(self.cs) else 0) + (o.cs[i] if i < len(o.cs) else 0) for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.cs])

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if self.is_zero() or o.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.cs) + len(o.cs) - 1)
        for i, a in enumerate(self.cs):
            for j, b in enumerate(o.cs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c):
        c = Fraction(c)
        return Poly([c * a for a in self.cs])

    def divmod(self, o):
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.cs)
        q = [Fraction(0)] * max(0, len(r) - len(o.cs) + 1)
        dlead = o.cs[-1]
        while len(r) >= len(o.cs) and any(c != 0 for c in r):
            if r[-1] == 0:
                r.pop()
                continue
            shift = len(r) - len(o.cs)
            factor = r[-1] / dlead
            q[shift] += factor
            for i, c in enumerate(o.cs):
                r[shift + i] -= factor * c
            r.pop()
        return Poly(q), Poly(r)

    def gcd(self, o):
        a, b = self, o
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(1 / a.cs[-1])

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.cs)][1:])

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.cs):
            acc = acc * x + c
        return acc

    def __eq__(self, o):
        if not isinstance(o, Poly):
            return NotImplemented
        return self.cs == o.cs

    def __repr__(self):
        if not self.cs:
            return "0"
        return " + ".join(f"{c}*z^{i}" for i, c in enumerate(self.cs) if c != 0)


class RatFunc:
    """Reduced fraction of univariate polynomials over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.cs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly.const(c), Poly.const(1))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.const(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, o):
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RatFunc(self.num * o.num, self.den * o.den)

    def scale(self, c):
        return RatFunc(self.num.scale(c), self.den)

    def inv(self):
        return RatFunc(self.den, self.num)

    def derivative(self):
        n = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFunc(n, self.den * self.den)

    def __eq__(self, o):
        if not isinstance(o, RatFunc):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def order_at_zero(self) -> int:
        """Order of vanishing at z = 0 (negative for a pole)."""
        if self.is_zero():
            raise ValueError("zero rational function has no order")
        nv = next(i for i, c in enumerate(self.num.cs) if c != 0)
        dv = next(i for i, c in enumerate(self.den.cs) if c != 0)
        return nv - dv

    def __repr__(self):
        return f"({self.num})/({self.den})"


# -- exact linear algebra over Q, computed over Z ------------------------------


def _integer_echelon(rows: List[List[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan: (primitive integer rows, pivot columns).

    Each row is cleared by the lcm of its denominators and divided by its
    content, which keeps the row space.  Eliminating column c of row i
    against pivot row r replaces row i by (p/g) row_i - (f/g) row_r with p
    the pivot, f = row_i[c] and g = gcd(p, f), again divided by its content:
    every row stays primitive, so entries grow no further than the row space
    forces.  Pivot row k carries its pivot at column pivots[k] and zeros at
    every other pivot column; the rows after the last pivot row are zero.
    """
    a = []
    for row in rows:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        a.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    pivots: List[int] = []
    r = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[col]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                a[i] = _primitive([pg * x - fg * y for x, y in zip(row, prow)])
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return a, pivots


def _primitive(row: List[int]) -> List[int]:
    """row divided by its content (the gcd of its entries)."""
    c = gcd(*row)
    return [x // c for x in row] if c > 1 else row


_ZERO = Fraction(0)


def row_reduce(rows: List[List[Fraction]]):
    """Reduced row echelon form over Q; returns (rows, pivot columns).

    The elimination runs over Z (``_integer_echelon``); each pivot row is
    divided by its pivot only at the end.  The reduced form is unique, so
    the rows are those of Gaussian elimination over Q.
    """
    a, pivots = _integer_echelon(rows)
    out = []
    for k, row in enumerate(a):
        if k < len(pivots):
            p = row[pivots[k]]
            out.append([Fraction(x, p) if x else _ZERO for x in row])
        else:
            out.append([_ZERO] * len(row))
    return out, pivots


def rank(rows: List[List[Fraction]]) -> int:
    return len(_integer_echelon(rows)[1])


def kernel_basis(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel, echelon-normalized for determinism."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r_i, pc in enumerate(pivots):
            vec[pc] = -red[r_i][fc]
        basis.append(vec)
    return basis


def solve_linear(rows: List[List[Fraction]], rhs: List[Fraction]):
    """One solution of rows * x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = row_reduce(aug)
    ncols = len(rows[0]) if rows else 0
    for r in red:
        if all(c == 0 for c in r[:ncols]) and r[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r_i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r_i][ncols]
    return x


def primitive_integer_vector(vec: List[Fraction]) -> List[int]:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    dens = [c.denominator for c in vec if c != 0]
    if not dens:
        return [0] * len(vec)
    den = lcm(*dens)
    ints = _primitive([int(c * den) for c in vec])
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def bareiss_solve(aug: List[List[Poly]]) -> Optional[Tuple[List[Poly], Poly]]:
    """Solve M y = b over Q(z) for an n x (n+1) matrix [M | b] over Q[z].

    Each row of [M | b] is cleared to Z[z] by the lcm of its coefficient
    denominators, and each entry is Kronecker-packed (z -> 2^w) into one int.
    Fraction-free Gauss-Jordan (Bareiss) then runs on those ints: step k
    replaces each entry off row k by (p_k a_ij - a_ik a_kj) / p_{k-1}, a
    division that is exact in Z[z], hence on the packed ints (z -> 2^w is a
    ring homomorphism).  Every entry it keeps is +- a minor of the cleared
    matrix, whose coefficient l1-norm is at most prod max(1, R_i) with R_i
    the coefficient l1-norm of row i; w leaves one spare bit above that
    bound and one for the sign, so packing is injective on every entry (the
    zero-pivot test is exact) and balanced digits unpack d y and d.
    Returns (d y, d) with d a nonzero multiple of det M, or None when
    det M = 0.
    """
    rows = []
    bound = 1
    for entries in aug:
        den = 1
        for p in entries:
            for c in p.cs:
                den = lcm(den, c.denominator)
        row = [[c.numerator * (den // c.denominator) for c in p.cs] for p in entries]
        bound *= max(1, sum(abs(c) for cs in row for c in cs))
        rows.append(row)
    w = bound.bit_length() + 2
    a = [[sum(c << (w * k) for k, c in enumerate(cs)) for cs in row] for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk, row_k = a[k][k], a[k]
        for i in range(n):
            if i == k:
                continue
            aik, row = a[i][k], a[i]
            for j in range(k + 1, n + 1):
                q, r = divmod(pk * row[j] - aik * row_k[j], prev)
                if r:
                    raise ArithmeticError("inexact Bareiss division")
                row[j] = q
        prev = pk
    return [Poly(_unpack(row[n], w)) for row in a], Poly(_unpack(prev, w))


def _unpack(value: int, w: int) -> List[int]:
    """Coefficients, lowest first, of a polynomial packed at z = 2^w with
    every coefficient of absolute value below 2^(w-1) (balanced digits)."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    cs = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << w
        cs.append(digit)
        value = (value - digit) >> w
    return cs


def ratfunc_row_reduce(rows: List[List[RatFunc]]) -> List[List[RatFunc]]:
    """Gaussian elimination over Q(z); returns the reduced rows (echelon)."""
    rows = [list(r) for r in rows]
    pivots = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        col += 1
    return rows
