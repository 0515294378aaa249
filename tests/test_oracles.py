"""Independent oracles: sympy's DomainMatrix charpoly against the packed kernel,
sympy's diagonalizability and rank against the regular-semisimple test, sympy's
matrix trace against the sparse trace form, and sympy's polynomial division,
gcd, rref, nullspace and solve over QQ(z) against the ring module."""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, ZZ, Rational  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from loopalg import ring  # noqa: E402
from loopalg.affine import iwahori, orthogonal_lattice  # noqa: E402
from loopalg.hitchin import invariant_system, sample_orth_element  # noqa: E402
from loopalg.rootdata import (  # noqa: E402
    CartanType,
    build_root_datum,
    is_regular_semisimple,
    principal_triple,
)

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]
T = sympy.Symbol("t")
Z = sympy.Symbol("z")
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
                assert comp.coeffs == coeffs


def test_charpoly_esym_matches_sympy_on_integer_matrices():
    rng = random.Random("sympy:int")
    for _ in range(60):
        n = rng.randint(1, 8)
        kmax = rng.randint(1, n)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        cp = DomainMatrix(m, (n, n), ZZ).charpoly()
        want = [(-1) ** k * int(cp[k]) for k in range(1, kmax + 1)]
        assert ring.charpoly_esym(m, kmax) == want


def _conjugate(rd, x, y):
    """Ad(exp y) x for a nilpotent y: the series sum (ad y)^k x / k! terminates."""
    out, term, k = list(x), list(x), 1
    while any(term):
        term = [c / k for c in rd.bracket(y, term)]
        out = [a + b for a, b in zip(out, term)]
        k += 1
    return out


def _random_conjugated_borel(rd, rng):
    """A Borel element with a small integer (often singular) Cartan part,
    moved off the Borel by a random lower unipotent, so its eigenvalues are
    rational and sympy's eigenvector search stays fast."""
    x, y = rd.zero_vec(), rd.zero_vec()
    for i in range(rd.dim):
        r = rd.line_root(i)
        if r is None:
            x[i] = Fraction(rng.randint(-2, 2))
        elif sum(r) > 0:
            x[i] = Fraction(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, 2]))
        else:
            y[i] = Fraction(rng.choice([0, 0, 1, -1]))
    return _conjugate(rd, x, y)


def sympy_rep(rd, x):
    n = rd.rep_dim
    rep = rd.rep_of_vec(x)
    return sympy.Matrix(n, n, lambda i, j: Rational(str(rep.get((i, j), 0))))


def sympy_regular_semisimple(rd, x):
    m = sympy_rep(rd, x)
    ad = DomainMatrix([[QQ(c.numerator, c.denominator) for c in row] for row in rd.ad_matrix(x)],
                      (rd.dim, rd.dim), QQ)
    return rd.dim - ad.rank() == rd.rank and m.is_diagonalizable()


def test_regular_semisimple_matches_sympy():
    answers = []
    for name in ("A2", "C2", "G2", "B3"):
        rd = build_root_datum(CartanType.parse(name))
        rng = random.Random(f"sympy:rs:{name}")
        e, h, f = principal_triple(rd).as_vecs()
        xs = [e, h, [a + b for a, b in zip(e, h)]]
        xs += [_random_conjugated_borel(rd, rng) for _ in range(16)]
        if name == "A2":
            xs.append(rd.basis_vec(2 * rd.npos))  # one simple coroot: semisimple, not regular
        for x in xs:
            want = sympy_regular_semisimple(rd, x)
            assert is_regular_semisimple(rd, x) == want, (name, x)
            answers.append(want)
    assert answers.count(True) >= 10 and answers.count(False) >= 10


TRACE_FORM_TYPES = INVARIANT_TYPES + ["B3", "C3", "D4"]


def _rand_q(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


@pytest.mark.parametrize("name", TRACE_FORM_TYPES)
def test_trace_pairing_matches_sympy_trace(name):
    rd = build_root_datum(CartanType.parse(name))
    rng = random.Random(f"sympy:trace:{name}")
    for trial in range(6):
        sparse = [_rand_q(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(rd.dim)]
        u = rd.zero_vec() if trial == 0 else sparse
        v = [_rand_q(rng) for _ in range(rd.dim)]
        want = (sympy_rep(rd, u) * sympy_rep(rd, v)).trace()
        got = rd.trace_pairing(u, v)
        assert isinstance(got, Fraction)
        assert got == Fraction(int(want.p), int(want.q)), (name, trial)


def _to_fracs(sp):
    """Coefficients of a sympy Poly over QQ, lowest degree first."""
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(sp.all_coeffs())]


def _rand_poly(rng):
    deg = rng.choice([-1, 0, 0, 1, 2, 3, 4, 5])
    return ring.Poly([_rand_q(rng) for _ in range(deg + 1)])


def _poly_pairs(rng, count):
    x = ring.Poly.x()
    pairs = [(ring.Poly([]), ring.Poly([3])), (ring.Poly([Fraction(2, 3)]), ring.Poly([]))]
    for _ in range(count):
        common = _rand_poly(rng)
        a, b = _rand_poly(rng), _rand_poly(rng)
        if rng.random() < 0.5 and not common.is_zero():
            a, b = a * common, b * (common + x)
        pairs.append((a, b))
    return pairs


def test_poly_divmod_and_gcd_match_sympy():
    z = sympy.Symbol("z")
    rng = random.Random("sympy:poly")
    nontrivial = 0
    for a, b in _poly_pairs(rng, 80):
        sa = sympy.Poly(list(reversed(a.cs)) or [0], z, domain=QQ)
        sb = sympy.Poly(list(reversed(b.cs)) or [0], z, domain=QQ)
        g = a.gcd(b)
        assert g.cs == ring.Poly(_to_fracs(sa.gcd(sb))).cs
        nontrivial += g.degree() > 0
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            continue
        q, r = a.divmod(b)
        sq, sr = sa.div(sb)
        assert q.cs == ring.Poly(_to_fracs(sq)).cs and r.cs == ring.Poly(_to_fracs(sr)).cs
    assert nontrivial >= 10


def _rand_matrix(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    if rng.random() < 0.1:
        return [[Fraction(0)] * n for _ in range(m)]
    rows = [[_rand_q(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:  # a dependent row lowers the rank
        c = _rand_q(rng)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1 % (m - 1)])]
    return rows


def _dm(rows, ncols):
    return DomainMatrix([[QQ(c.numerator, c.denominator) for c in r] for r in rows],
                        (len(rows), ncols), QQ)


def _from_dm(dm):
    return [[Fraction(int(c.numerator), int(c.denominator)) for c in row] for row in dm.to_list()]


def _big_matrix(rng):
    """Numerators up to 10^6 over pairwise coprime denominators, one per row."""
    m, n = rng.randint(2, 7), rng.randint(2, 8)
    dens = rng.sample([1, 7, 11, 13, 17, 19, 23, 29, 31, 37], m)
    rows = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), d) if rng.random() < 0.8 else Fraction(0)
             for _ in range(n)] for d in dens]
    if rng.random() < 0.4:
        c = Fraction(rng.randint(1, 10 ** 6), rng.choice((3, 41, 43)))
        rows[-1] = [a - c * b for a, b in zip(rows[0], rows[1 % (m - 1)])]
    return rows


def _ad_matrices():
    """ad of e, h, e + f and a random rational element for A4, G2 and B3."""
    rng = random.Random("sympy:ad")
    for name in ("A4", "G2", "B3"):
        rd = build_root_datum(CartanType.parse(name))
        e, h, f = principal_triple(rd).as_vecs()
        x = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(rd.dim)]
        for v in (e, h, [a + b for a, b in zip(e, f)], x):
            yield rd.ad_matrix(v)


def _linalg_inputs():
    rng = random.Random("sympy:linalg")
    for _ in range(80):
        yield _rand_matrix(rng)
    yield from _ad_matrices()
    for _ in range(30):
        yield _big_matrix(rng)


def test_row_reduce_and_kernel_match_domain_matrix():
    deficient = 0
    for rows in _linalg_inputs():
        n = len(rows[0])
        dm = _dm(rows, n)
        red, pivots = ring.row_reduce(rows)
        want_red, want_pivots = dm.rref()
        assert red == _from_dm(want_red) and pivots == list(want_pivots)
        assert ring.rank(rows) == dm.rank()
        deficient += dm.rank() < min(len(rows), n)
        ker = ring.kernel_basis(rows)
        want_ker = _from_dm(dm.nullspace()) if dm.rank() < n else []
        assert len(ker) == len(want_ker) == n - dm.rank()
        if ker:
            # same span: both are independent and together still span n - rank dimensions
            assert _dm(ker, n).rank() == len(ker)
            assert _dm(ker + want_ker, n).rank() == len(ker)
            assert all(c == 0 for row in _dm(rows, n).matmul(_dm(ker, n).transpose()).to_list()
                       for c in row)
        # the integer elimination behind row_reduce keeps every row primitive
        ints, int_pivots = ring._integer_echelon(rows)
        assert int_pivots == pivots
        assert all(math.gcd(*row) == 1 for row in ints if any(row))
    assert deficient >= 10


def _poly_sympy(p):
    return sum((Rational(c.numerator, c.denominator) * Z ** k for k, c in enumerate(p.cs)),
               sympy.Integer(0))


def _rand_qz(rng, den):
    """A polynomial over Q of degree <= 3, each coefficient over ``den``; a
    quarter of the entries are zero and some coefficients are near 10^6."""
    if rng.random() < 0.25:
        return ring.Poly([])
    big = rng.random() < 0.2
    return ring.Poly([Fraction(rng.randint(-10 ** 6, 10 ** 6) if big else rng.randint(-9, 9), den)
                      for _ in range(rng.randint(1, 4))])


def _bareiss_systems(rng):
    """n x (n+1) systems over Q[z] with a different denominator per row."""
    z = ring.Poly.x()
    # single dominant entries, where the slot-width bound is nearly attained
    yield [[ring.Poly([10 ** 6 - 1]), ring.Poly([1])]]
    yield [[ring.Poly([0, 0, -(10 ** 6)]), ring.Poly([3, 0, 1])]]
    yield [[ring.Poly([0] * i + [10 ** 6 - 7 * i] if i == j else []) for j in range(3)]
           + [ring.Poly([1, -1])] for i in range(3)]
    for trial in range(40):
        n = rng.randint(1, 6)
        dens = rng.sample([1, 2, 3, 5, 7, 11, 13, 17], n)
        rows = [[_rand_qz(rng, d) for _ in range(n + 1)] for d in dens]
        if trial % 4 == 0 and n > 1:  # singular: one row is a Q[z]-combination of two others
            p, q = _rand_qz(rng, 1), z + ring.Poly([rng.randint(-3, 3)])
            rows[-1] = [a * p + b * q for a, b in zip(rows[0], rows[1 % (n - 1)])]
        elif trial % 4 == 1 and n > 1:  # singular: a zero column
            k = rng.randrange(n)
            for row in rows:
                row[k] = ring.Poly([])
        yield rows


def test_bareiss_solve_matches_sympy():
    """y = (d y)/d against sympy's solve over QQ(z), and M (d y) = d b exactly."""
    field = QQ.frac_field(Z)
    rng = random.Random("sympy:bareiss")
    singular = 0
    for aug in _bareiss_systems(rng):
        n = len(aug)
        dm = DomainMatrix([[field.from_sympy(_poly_sympy(p)) for p in row] for row in aug],
                          (n, n + 1), field)
        red, pivots = dm.rref()
        got = ring.bareiss_solve(aug)
        if pivots[:n] != tuple(range(n)):
            assert got is None
            singular += 1
            continue
        ys, d = got
        assert not d.is_zero()
        for i, y in enumerate(ys):
            assert field.from_sympy(_poly_sympy(y)) / field.from_sympy(_poly_sympy(d)) \
                == red.to_list()[i][n]
        for row in aug:
            acc = ring.Poly([])
            for p, y in zip(row, ys):
                acc = acc + p * y
            assert acc == row[n] * d
    assert singular >= 10
