"""Independent oracles: sympy's DomainMatrix charpoly against the packed kernel."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, ZZ, Rational  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from loopalg import ring  # noqa: E402
from loopalg.affine import iwahori, orthogonal_lattice  # noqa: E402
from loopalg.hitchin import invariant_system, sample_orth_element  # noqa: E402
from loopalg.rootdata import CartanType, build_root_datum  # noqa: E402

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]
T = sympy.Symbol("t")
QQT = QQ[T]


def sympy_values(rd, xi, degrees):
    """e_d of xi's defining-rep matrix from sympy's charpoly over QQ[t].

    The matrix is shifted by t^-L (L the least exponent present) so that its
    entries are polynomials; e_d is shifted back by t^(d L).
    """
    low = min((k for q in xi.value.values() for k in q.coeffs), default=0)
    n = rd.rep_dim
    exprs = [[sympy.Integer(0)] * n for _ in range(n)]
    for idx, poly in xi.value.items():
        expr = sum(Rational(v.numerator, v.denominator) * T ** (k - low)
                   for k, v in poly.coeffs.items())
        for (i, j), c in rd.rep_matrix(idx).items():
            exprs[i][j] += Rational(c.numerator, c.denominator) * expr
    mat = DomainMatrix([[QQT.from_sympy(e) for e in row] for row in exprs], (n, n), QQT)
    cp = mat.charpoly()
    out = []
    for d in degrees:
        coeffs = {}
        for (k,), c in ((-1) ** d * cp[d]).terms():
            coeffs[k + d * low] = Fraction(int(c.numerator), int(c.denominator))
        out.append(coeffs)
    return out


@pytest.mark.parametrize("name", INVARIANT_TYPES)
def test_invariant_values_match_sympy(name):
    rd = build_root_datum(CartanType.parse(name))
    inv = invariant_system(rd)
    p = iwahori(rd)
    orth = orthogonal_lattice(p, 2)
    rng = random.Random(f"sympy:{name}")
    for _ in range(5):
        xi = sample_orth_element(p, orth, rng)
        den = 1
        for q in xi.value.values():
            for c in q.coeffs.values():
                den = den * c.denominator
        integral = xi.scale(den)
        assert all(c.denominator == 1 for q in integral.value.values() for c in q.coeffs.values())
        for sample in (xi, integral):
            got = inv.invariant_values(sample)
            want = sympy_values(rd, sample, inv.degrees)
            for comp, coeffs in zip(got, want):
                assert comp.is_exact and comp.coeffs == coeffs


def test_charpoly_esym_matches_sympy_on_integer_matrices():
    rng = random.Random("sympy:int")
    for _ in range(60):
        n = rng.randint(1, 8)
        kmax = rng.randint(1, n)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        cp = DomainMatrix(m, (n, n), ZZ).charpoly()
        want = [(-1) ** k * int(cp[k]) for k in range(1, kmax + 1)]
        assert ring.charpoly_esym(m, kmax) == want
