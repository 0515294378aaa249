"""Connections in principal-nilpotent normal form on the punctured line.

Everything here lives on the Langlands dual of the input type.  A connection
is stored as d + A(z) dz with A(z) a Laurent-coefficient vector over the dual
Chevalley basis.  The two normal-form shapes in play:

* the slice shape ``f + v(z)`` with ``v`` in the centralizer of ``e``
  (output of gauge reduction on a disc), and
* the global shape ``f/z + v(z)`` used on the punctured line.

All coordinate changes track the connection transformation exactly,
including the derivative term of cocharacter and unipotent gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Tuple

from . import ring
from .errors import (
    CyclicFailure,
    MismatchError,
    NoCertificateError,
    NotOperShapeError,
)
from .laurent import LaurentPoly, ramified_pullback
from .ring import Poly, RatFunc
from .rootdata import (
    RootDatum,
    Vec,
    centralizer_basis,
    dual_root_datum,
    fundamental_degrees,
    is_regular_semisimple,
    principal_triple,
)

LVec = Dict[int, LaurentPoly]  # line -> Laurent coefficient


def lvec_add(rd: RootDatum, a: LVec, b: LVec) -> LVec:
    out = dict(a)
    for i, p in b.items():
        out[i] = out.get(i, LaurentPoly.zero()) + p
    return {i: p for i, p in out.items() if not (p.is_exact and p.known_zero())}

def lvec_scale(a: LVec, c: Fraction) -> LVec:
    return {i: p.scale(c) for i, p in a.items()} if c != 0 else {}

def lvec_from_const(vec: Vec, poly: Optional[LaurentPoly] = None) -> LVec:
    poly = poly if poly is not None else LaurentPoly.one()
    return {i: poly.scale(c) for i, c in enumerate(vec) if c != 0}

def lvec_bracket(rd: RootDatum, a: LVec, b: LVec) -> LVec:
    out: LVec = {}
    for i, pa in a.items():
        for j, pb in b.items():
            entry = rd.bracket_lines(i, j)
            if not entry:
                continue
            prod = pa * pb
            for k, c in entry.items():
                out[k] = out.get(k, LaurentPoly.zero()) + prod.scale(c)
    return {k: p for k, p in out.items() if not (p.is_exact and p.known_zero())}

def lvec_derivative(a: LVec) -> LVec:
    return {i: p.derivative() for i, p in a.items()}

def lvec_is_zero(a: LVec) -> bool:
    return all(p.is_exact and p.known_zero() for p in a.values())


@dataclass
class Oper:
    """Connection d + A(z) dz over the dual Chevalley basis.

    ``canonical`` is set when A(z) decomposes as a principal-nilpotent part
    (f or f/z) plus a centralizer-valued tail.
    """

    rd: RootDatum  # the Langlands dual datum
    coeffs: LVec
    canonical: bool = False
    source_type: str = ""
    shape: str = ""  # "slice" for f + v, "global" for f/z + v

    def component_of(self, line: int) -> LaurentPoly:
        return self.coeffs.get(line, LaurentPoly.zero())

    def to_json_dict(self) -> dict:
        return {
            "dual_type": self.rd.cartan.name,
            "source_type": self.source_type,
            "canonical": self.canonical,
            "shape": self.shape,
            "matrix": self.rep_matrix_pairs(),
            "lines": {
                self.rd.line_name(i): p.to_pairs() for i, p in sorted(self.coeffs.items())
            },
        }

    def rep_matrix_pairs(self) -> List[List[List[List[str]]]]:
        """Defining-representation matrix, entries as exponent/coefficient pairs."""
        n = self.rd.rep_dim
        zero = LaurentPoly.zero()
        entries = [[zero for _ in range(n)] for _ in range(n)]
        for idx, poly in self.coeffs.items():
            for (i, j), c in self.rd.rep_matrix(idx).items():
                entries[i][j] = entries[i][j] + poly.scale(c)
        return [[entries[i][j].to_pairs() for j in range(n)] for i in range(n)]


class _DualContext:
    """Cached slice data of a dual datum."""

    def __init__(self, rd_dual: RootDatum):
        self.rd = rd_dual
        self.triple = principal_triple(rd_dual)
        self.degrees = tuple(fundamental_degrees(rd_dual))
        self.pbasis = centralizer_basis(rd_dual, self.triple)
        self.h = rd_dual.coxeter_number
        e, h, f = self.triple.as_vecs()
        self.e, self.hvec, self.f = e, h, f
        self.rho = [c / 2 for c in h]  # pairing ht(beta) with every root line
        self.f_lines = {i for i, c in enumerate(f) if c != 0}
        self.theta_line = rd_dual.line_index[("e", rd_dual.theta)]
        self.solvers = _borel_solvers(self)


_CTX: Dict[str, _DualContext] = {}


def _ctx(rd_dual: RootDatum) -> _DualContext:
    key = rd_dual.cartan.name
    if key not in _CTX:
        _CTX[key] = _DualContext(rd_dual)
    return _CTX[key]


def _line_ht(rd: RootDatum, idx: int) -> int:
    r = rd.line_root(idx)
    return 0 if r is None else sum(r)


def _decompose_centralizer(ctx: _DualContext, tail: LVec) -> Optional[List[LaurentPoly]]:
    """Write a line vector as sum v_i(z) p_i, or None if it is not in the span.

    The p_i live in distinct principal weights, so the decomposition is a
    per-weight proportionality check.
    """
    rd = ctx.rd
    comps: List[LaurentPoly] = []
    used = set()
    for pvec in ctx.pbasis:
        support = [i for i, c in enumerate(pvec) if c != 0]
        used.update(support)
        ref = support[0]
        vi = tail.get(ref, LaurentPoly.zero()).scale(Fraction(1) / pvec[ref])
        for i in support[1:]:
            expect = vi.scale(pvec[i])
            got = tail.get(i, LaurentPoly.zero())
            if not (got - expect).known_zero():
                return None
        comps.append(vi)
    for i, p in tail.items():
        if i not in used and not p.known_zero():
            return None
    return comps


def make_oper(rd_input: RootDatum, coeffs: LVec, source: str = "") -> Oper:
    """Wrap a coefficient vector over the dual datum, detecting normal shapes."""
    rd = dual_root_datum(rd_input)
    ctx = _ctx(rd)
    op = Oper(rd, coeffs, source_type=source or rd_input.cartan.name)
    shape = _detect_shape(ctx, coeffs)
    if shape:
        op.canonical = True
        op.shape = shape
    return op


def _detect_shape(ctx: _DualContext, coeffs: LVec) -> str:
    rd = ctx.rd
    zero = LaurentPoly.zero()
    for cand, fpoly in (("slice", LaurentPoly.one()), ("global", LaurentPoly.t_power(-1))):
        ok = True
        tail: LVec = {}
        for i in range(rd.dim):
            p = coeffs.get(i, zero)
            r = rd.line_root(i)
            if r is None or sum(r) < 0:
                want = fpoly.scale(ctx.f[i]) if r is not None else zero
                if not (p - want).known_zero():
                    ok = False
                    break
            elif not p.known_zero():
                tail[i] = p
        if ok and _decompose_centralizer(ctx, tail) is not None:
            return cand
    return ""


def fg_connection(rd_input: RootDatum, a: Fraction) -> Oper:
    """The rigid connection d + (f/z + a e_theta) dz on the dual datum."""
    rd = dual_root_datum(rd_input)
    ctx = _ctx(rd)
    coeffs: LVec = lvec_from_const(ctx.f, LaurentPoly.t_power(-1))
    a = Fraction(a)
    if a != 0:
        coeffs[ctx.theta_line] = LaurentPoly.const(a)
    op = Oper(rd, coeffs, canonical=True, source_type=rd_input.cartan.name, shape="global")
    return op


def oper_components(op: Oper) -> List[LaurentPoly]:
    """Centralizer components of a canonical oper."""
    ctx = _ctx(op.rd)
    fpoly = LaurentPoly.one() if op.shape == "slice" else LaurentPoly.t_power(-1)
    tail = dict(op.coeffs)
    for i in ctx.f_lines:
        tail[i] = tail.get(i, LaurentPoly.zero()) - fpoly.scale(ctx.f[i])
    tail = {i: p for i, p in tail.items() if not p.known_zero()}
    comps = _decompose_centralizer(ctx, tail)
    if comps is None:
        raise NotOperShapeError("connection is not in a canonical shape")
    return comps


# -- gauge machinery -------------------------------------------------------


def gauge_by_exp(rd: RootDatum, A: LVec, x: LVec, max_steps: int = 40) -> LVec:
    """Connection gauge by exp(x): Ad(e^x) A - dexp_x(dx/dz)."""
    out: LVec = dict(A)
    term = dict(A)
    k = 1
    while not lvec_is_zero(term):
        term = lvec_bracket(rd, x, term)
        out = lvec_add(rd, out, lvec_scale(term, Fraction(1, factorial(k))))
        k += 1
        if k > max_steps:
            raise MismatchError("gauge series did not terminate; x is not nilpotent")
    xp = lvec_derivative(x)
    term = dict(xp)
    out = lvec_add(rd, out, lvec_scale(term, Fraction(-1)))
    k = 1
    while not lvec_is_zero(term):
        term = lvec_bracket(rd, x, term)
        out = lvec_add(rd, out, lvec_scale(term, Fraction(-1, factorial(k + 1))))
        k += 1
        if k > max_steps:
            raise MismatchError("gauge derivative series did not terminate")
    return out


def cocharacter_gauge(
    rd: RootDatum, A: LVec, c0: Fraction, k: int, rho: Vec, normalized: bool = False
) -> LVec:
    """Gauge by the principal cocharacter evaluated at c0 * t^k.

    A root line of height ht scales by (c0 t^k)^{ht}.  The derivative term
    is -k/t times the cocharacter's Cartan element when A is a dt-matrix,
    and the constant -k times it when A is written against dt/t
    (``normalized=True``).
    """
    out: LVec = {}
    for i, p in A.items():
        ht = _line_ht(rd, i)
        if ht >= 0:
            scaled = p.scale(Fraction(c0) ** ht).shift(k * ht)
        else:
            scaled = p.scale(Fraction(1) / Fraction(c0) ** (-ht)).shift(k * ht)
        out[i] = out.get(i, LaurentPoly.zero()) + scaled
    corr_poly = LaurentPoly.const(-k) if normalized else LaurentPoly.t_power(-1, -k)
    corr = lvec_from_const(rho, corr_poly)
    return lvec_add(rd, out, corr)


def gauge_reduce(op: Oper) -> Oper:
    """Normal form f + v(z), v centralizer-valued, by unipotent gauge.

    The input must have negative part exactly f and the rest in the Borel;
    the Borel tail is cleared weight by weight along the principal grading.
    """
    ctx = _ctx(op.rd)
    rd = ctx.rd
    A = dict(op.coeffs)
    zero = LaurentPoly.zero()
    for i in range(rd.dim):
        r = rd.line_root(i)
        if r is not None and sum(r) < 0:
            want = LaurentPoly.const(ctx.f[i])
            if not (A.get(i, zero) - want).known_zero():
                raise NotOperShapeError("negative part of the connection is not exactly f")
    A = _reduce_borel_tail(ctx, A)
    comps = _decompose_centralizer(
        ctx, {i: p for i, p in A.items() if not (rd.line_root(i) is not None and sum(rd.line_root(i)) < 0)}
    )
    if comps is None:
        raise MismatchError("gauge reduction did not land in the centralizer")
    out = Oper(rd, A, canonical=True, source_type=op.source_type, shape="slice")
    return out


def _borel_solvers(ctx: _DualContext) -> List[Tuple[List[int], List[int], List[Vec]]]:
    """Per principal weight w, in increasing order: the lines of weight w, the
    positive root lines of weight w + 2, and the first len(lines_up) rows of
    the inverse of [ad f on those lines | centralizer basis of weight w],
    which give the gauge coefficients that clear the weight-w tail.  Weights
    with no line above them are left out: their tail is centralizer-valued.
    """
    rd = ctx.rd
    weights = sorted({2 * _line_ht(rd, i) for i in range(rd.dim) if _line_ht(rd, i) >= 0})
    solvers = []
    for w in weights:
        lines_w = [i for i in range(rd.dim) if _line_ht(rd, i) >= 0 and 2 * _line_ht(rd, i) == w
                   and (rd.line_root(i) is not None or w == 0)]
        lines_up = [i for i in range(rd.dim) if rd.line_root(i) is not None
                    and 2 * _line_ht(rd, i) == w + 2 and sum(rd.line_root(i)) > 0]
        ker_w = [p for p in ctx.pbasis if 2 * (_pweight(rd, p)) == w]
        cols: List[Vec] = []
        for j in lines_up:
            b = rd.bracket(ctx.f, rd.basis_vec(j))
            cols.append([b[i] for i in lines_w])
        for p in ker_w:
            cols.append([p[i] for i in lines_w])
        if not lines_w:
            continue
        if len(cols) != len(lines_w):
            raise MismatchError("principal weight decomposition is not square")
        inv = _invert([[cols[c][r] for c in range(len(cols))] for r in range(len(lines_w))])
        if lines_up:
            solvers.append((lines_w, lines_up, inv[:len(lines_up)]))
    return solvers


def _reduce_borel_tail(ctx: _DualContext, A: LVec) -> LVec:
    for lines_w, lines_up, rows in ctx.solvers:
        rvec = [A.get(i, LaurentPoly.zero()) for i in lines_w]
        if all(p.known_zero() for p in rvec):
            continue
        x: LVec = {}
        for j, row in zip(lines_up, rows):
            acc = LaurentPoly.zero()
            for c, p in zip(row, rvec):
                if c != 0:
                    acc = acc + p.scale(c)
            if not acc.known_zero():
                x[j] = acc
        if x:
            A = gauge_by_exp(ctx.rd, A, x)
    return A


def _pweight(rd: RootDatum, pvec: Vec) -> int:
    support = [i for i, c in enumerate(pvec) if c != 0]
    return _line_ht(rd, support[0])


def _invert(m: List[Vec]) -> List[Vec]:
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    red, piv = ring.row_reduce(aug)
    if piv != list(range(n)):
        raise MismatchError("singular weight-solve matrix")
    return [row[n:] for row in red]


# -- local conditions -------------------------------------------------------


def check_residue_rs(op: Oper) -> bool:
    """Simple pole at z = 0 with polar part exactly f/z and regular components."""
    ctx = _ctx(op.rd)
    if not op.canonical or op.shape != "global":
        shape = _detect_shape(ctx, op.coeffs)
        if shape != "global":
            return False
        op = Oper(op.rd, op.coeffs, canonical=True, source_type=op.source_type, shape="global")
    comps = oper_components(op)
    return all(c.order_at_least(0) for c in comps)


def at_infinity(op: Oper) -> LVec:
    """Connection matrix against dt at infinity, t = 1/z."""
    out: LVec = {}
    for i, p in op.coeffs.items():
        if not p.is_exact:
            raise MismatchError("infinity analysis needs exactly known coefficients")
        flipped = LaurentPoly.exact({-k - 2: -c for k, c in p.coeffs.items()})
        out[i] = flipped
    return out


def infinity_slice_form(op: Oper) -> Oper:
    """Canonical slice form at infinity: gauge -f/t - ... to f + Borel, reduce."""
    ctx = _ctx(op.rd)
    rd = ctx.rd
    B = at_infinity(op)
    B2 = cocharacter_gauge(rd, B, Fraction(-1), -1, ctx.rho)
    op2 = Oper(rd, B2, source_type=op.source_type)
    return gauge_reduce(op2)


def check_irregular_type(op: Oper) -> bool:
    """Pole bounds d_i + floor(d_i/h) on the slice components at infinity."""
    ctx = _ctx(op.rd)
    reduced = infinity_slice_form(op)
    comps = oper_components(reduced)
    h = ctx.h
    for d, c in zip(ctx.degrees, comps):
        if not c.order_at_least(-(d + d // h)):
            return False
    return True


def global_oper_space(rd_input: RootDatum, degree_window: int = 3) -> dict:
    """Solutions of the two-point conditions among f/z + v(z), v Laurent.

    Sets up the exact linear system: regularity of the centralizer
    components at 0 and the pole bounds 1 (below top) / 2 (top) on
    t^{-2} v(1/t) at infinity; returns the kernel.
    """
    rd = dual_root_datum(rd_input)
    ctx = _ctx(rd)
    degs = ctx.degrees
    l = len(degs)
    K = degree_window + max(degs)
    exps = list(range(-K, K + 1))
    ncols = l * len(exps)
    rows = []
    for i in range(l):
        for pos, k in enumerate(exps):
            # condition at 0: no negative powers
            if k < 0:
                row = [Fraction(0)] * ncols
                row[i * len(exps) + pos] = Fraction(1)
                rows.append(row)
            # condition at infinity on t^{-k-2}: pole order <= 1 below the
            # top degree and <= 2 for the top component
            bound = 2 if i == l - 1 else 1
            if k + 2 > bound:
                row = [Fraction(0)] * ncols
                row[i * len(exps) + pos] = Fraction(1)
                rows.append(row)
    kernel = ring.kernel_basis(rows) if rows else []
    basis_desc = []
    for vec in kernel:
        desc = {}
        for i in range(l):
            for pos, k in enumerate(exps):
                c = vec[i * len(exps) + pos]
                if c != 0:
                    desc[f"component_{i}_z^{k}"] = str(c)
        basis_desc.append(desc)
    expected = {f"component_{l-1}_z^0": "1"}
    ok = len(kernel) == 1 and basis_desc[0] == expected
    if not ok:
        raise MismatchError(f"global oper space has unexpected shape: {basis_desc}")
    return {
        "proposition": "global-oper",
        "type": rd_input.cartan.name,
        "dual_type": rd.cartan.name,
        "dimension": len(kernel),
        "basis": "constant highest-root vector (e_theta)",
        "ansatz_window": [-K, K],
        "status": "pass",
    }


def global_hitchin_base(rd_input: RootDatum) -> dict:
    """Dimension of the global base: sections of omega^{d_i} on P^1 with the
    prescribed pole divisor (d_i - 1) at 0 and d_i (d_l + 1 on top) at infinity."""
    rd = rd_input
    degs = list(fundamental_degrees(rd))
    dims = []
    for i, d in enumerate(degs):
        twist = (d - 1) + (d + (1 if i == len(degs) - 1 else 0))
        k = -2 * d + twist
        dims.append(max(k + 1, 0))
    total = sum(dims)
    if total != 1 or dims[-1] != 1:
        raise MismatchError(f"global base dimensions {dims} are not concentrated on top")
    return {
        "proposition": "hitchin-base",
        "type": rd.cartan.name,
        "degrees": degs,
        "line_bundle_degrees": [-2 * d + (d - 1) + d + (1 if i == len(degs) - 1 else 0)
                                for i, d in enumerate(degs)],
        "component_dimensions": dims,
        "dimension": total,
        "status": "pass",
    }


# -- the slope certificate ---------------------------------------------------


def slope_certificate(op: Oper, search_range: Optional[int] = None) -> dict:
    """Certificate that the infinity slope is 1/h.

    Pulls the connection back along t = u^h, then searches cocharacter gauge
    exponents c with |c| <= h for a du/u-matrix of pole order exactly one
    whose leading coefficient is regular semisimple.  The leading term is
    a multiple of f + a e_theta plus the Cartan correction of the gauge.
    """
    ctx = _ctx(op.rd)
    rd = ctx.rd
    h = ctx.h
    if op.shape != "global":
        raise NotOperShapeError("slope certificate expects the global shape f/z + v")
    comps = oper_components(op)
    a = comps[-1]
    if a.known_zero():
        raise ValueError("tame connection (a = 0) carries no irregular slope certificate")
    if any(not c.known_zero() for c in comps[:-1]) or set(a.coeffs) != {0}:
        raise NotOperShapeError("slope certificate expects f/z + a e_theta with a != 0")
    B = at_infinity(op)
    # dt/t-normalized matrix pulled back along t = u^h
    M0: LVec = {}
    for i, p in B.items():
        M0[i] = ramified_pullback(p.shift(1), h).scale(h)
    rng = search_range if search_range is not None else h
    tried = []
    for c in sorted(range(-rng, rng + 1), key=lambda v: (abs(v), -v)):
        Mc = cocharacter_gauge(rd, M0, Fraction(1), c, ctx.rho, normalized=True)
        Mc = {i: p for i, p in Mc.items() if not p.known_zero()}
        vals = [p.val() for p in Mc.values() if p.val() is not None]
        if not vals or min(vals) != -1:
            tried.append(c)
            continue
        leading = rd.zero_vec()
        for i, p in Mc.items():
            leading[i] = p.coeff(-1)
        if not is_regular_semisimple(rd, leading):
            tried.append(c)
            continue
        constant = rd.zero_vec()
        for i, p in Mc.items():
            constant[i] = p.coeff(0)
        lead_mat = rd.rep_of_vec(leading)
        n = rd.rep_dim
        return {
            "proposition": "slope-certificate",
            "dual_type": rd.cartan.name,
            "pullback_degree": h,
            "gauge_exponent": c,
            "leading_matrix": [
                [str(lead_mat.get((i, j), Fraction(0))) for j in range(n)] for i in range(n)
            ],
            "cartan_correction": {rd.line_name(i): str(v) for i, v in enumerate(constant) if v != 0},
            "regular_semisimple": True,
            "slope": f"1/{h}",
            "claim": (
                "pole order one after the degree-h pullback with regular semisimple "
                "leading term; no smaller ramification balances the order pattern"
            ),
            "status": "pass",
        }
    raise NoCertificateError(f"no gauge exponent in [-{rng}, {rng}] worked (tried {tried})")


# -- scalar reduction ---------------------------------------------------------


def cyclic_ode(op: Oper) -> dict:
    """Monic scalar operator annihilating one coordinate of the flat sections.

    Flat sections satisfy v' = -A(z) v in the defining representation of the
    dual datum; starting from a basis vector, functionals are propagated by
    w -> w' - A^T w up to w_n.  The start is cyclic when w_0..w_{n-1} are
    independent over Q(z); then w_n + sum c_r w_r = 0 has exactly one
    solution.  Start vectors are attempted in basis order, then as
    e_s + z e_k (k != s) in lexicographic (s, k) order: a residue that is
    nilpotent of the wrong Jordan type, as for D4 at a = 0, leaves no
    constant start cyclic.  The report names e_s as ``start_vector`` and,
    for the second kind, e_k as ``start_twist``.
    """
    rd = op.rd
    n = rd.rep_dim
    if not all(p.is_exact for p in op.coeffs.values()):
        raise MismatchError("scalar reduction needs exactly known coefficients")
    entries: Dict[Tuple[int, int], LaurentPoly] = {}
    for idx, poly in op.coeffs.items():
        for key, c in rd.rep_matrix(idx).items():
            entries[key] = entries.get(key, LaurentPoly.zero()) + poly.scale(c)
    # A^T row by row: at[i] lists (j, A[j][i]) for the nonzero entries
    at: List[List[Tuple[int, LaurentPoly]]] = [[] for _ in range(n)]
    for (j, i), p in entries.items():
        if not p.known_zero():
            at[i].append((j, p))
    zero, one, z = LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.t_power(1)
    starts = [(s, None) for s in range(n)]
    starts += [(s, k) for s in range(n) for k in range(n) if k != s]
    for s, k in starts:
        start = [one if i == s else z if i == k else zero for i in range(n)]
        coeffs = _cyclic_from(at, start)
        if coeffs is not None:
            report = {
                "proposition": "cyclic-ode",
                "dual_type": rd.cartan.name,
                "start_vector": s,
                "order": n,
                "monic_coefficients": [f"({c.num})/({c.den})" for c in coeffs],
                "coefficients_raw": coeffs,
                "status": "pass",
            }
            if k is not None:
                report["start_twist"] = k
            return report
    raise CyclicFailure("no start vector e_s or e_s + z e_k is cyclic for this connection")


def _cyclic_from(at: List[List[Tuple[int, LaurentPoly]]], start: List[LaurentPoly]) -> Optional[List[RatFunc]]:
    """c_0..c_{n-1} with w_n + sum c_r w_r = 0, or None if ``start`` is not cyclic.

    Column r = w_r is multiplied by z^{-m_r}, m_r its least exponent, so the
    system lies over Q[z] and one fraction-free solve decides it.
    """
    n = len(start)
    zero = LaurentPoly.zero()
    w = start
    ws = [w]
    for _ in range(n):
        w = [w[i].derivative() - sum((p * w[j] for j, p in at[i]), zero) for i in range(n)]
        ws.append(w)
    lows = [min((k for p in col for k in p.coeffs), default=0) for col in ws]
    rows = [[_poly_shifted(col[i], -m) for col, m in zip(ws, lows)] for i in range(n)]
    solved = ring.bareiss_solve(rows)
    if solved is None:
        return None
    ys, det = solved
    coeffs = []
    for y, m in zip(ys, lows):
        # w_r's coefficient is y z^{m_n - m_r} / det
        k = lows[n] - m
        coeffs.append(RatFunc(-(y * _z_power(max(k, 0))), det * _z_power(max(-k, 0))))
    return coeffs


def _poly_shifted(p: LaurentPoly, k: int) -> Poly:
    """z^k p as a polynomial (k at least minus the valuation of p)."""
    cs = [Fraction(0)] * (max(p.coeffs, default=-k) + k + 1)
    for e, c in p.coeffs.items():
        cs[e + k] = c
    return Poly(cs)


def _z_power(k: int) -> Poly:
    return Poly([0] * k + [1])


def ode_substitute_infinity(order: int, coeffs: List[RatFunc]) -> Dict[int, RatFunc]:
    """Rewrite sum c_j d_z^j + d_z^order at infinity via z = 1/t, d_z = -t^2 d_t."""
    terms: List[Dict[int, RatFunc]] = [{0: RatFunc.const(1)}]
    minus_t2 = RatFunc(Poly([0, 0, -1]), Poly([1]))
    for _ in range(order):
        prev = terms[-1]
        nxt: Dict[int, RatFunc] = {}
        for k, c in prev.items():
            # (-t^2 d_t) (c d^k) = -t^2 c' d^k - t^2 c d^{k+1}
            nxt[k] = nxt.get(k, RatFunc.const(0)) + minus_t2 * c.derivative()
            nxt[k + 1] = nxt.get(k + 1, RatFunc.const(0)) + minus_t2 * c
        terms.append(nxt)
    out: Dict[int, RatFunc] = {}

    def subst_inv(rf: RatFunc) -> RatFunc:
        num, den = rf.num.cs, rf.den.cs
        d = max(len(num), len(den)) - 1
        pnum = Poly(list(reversed(num + [Fraction(0)] * (d + 1 - len(num)))))
        pden = Poly(list(reversed(den + [Fraction(0)] * (d + 1 - len(den)))))
        return RatFunc(pnum, pden)

    full = list(coeffs) + [RatFunc.const(1)]
    for j, cj in enumerate(full):
        if cj.is_zero():
            continue
        cj_t = subst_inv(cj)
        for k, c in terms[j].items():
            out[k] = out.get(k, RatFunc.const(0)) + cj_t * c
    return {k: v for k, v in out.items() if not v.is_zero()}


def newton_slopes_at_infinity(order: int, coeffs: List[RatFunc]) -> List[Tuple[Fraction, int]]:
    """Positive Newton-polygon slopes (slope, length) of the operator at infinity."""
    local = ode_substitute_infinity(order, coeffs)
    pts = sorted((k, v.order_at_zero() - k) for k, v in local.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        if s > 0:
            out.append((s, x2 - x1))
    return out


def irregularity_at_infinity(order: int, coeffs: List[RatFunc]) -> Fraction:
    return sum((s * l for s, l in newton_slopes_at_infinity(order, coeffs)), Fraction(0))
