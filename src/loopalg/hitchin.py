"""Invariant polynomials, the local Hitchin map on dt/t-twisted elements,
image order bounds, Kostant sections and the residue square.

The invariant generators are the elementary symmetric functions ``e_k`` of
the eigenvalues of the defining representation, one per fundamental degree
(A_l uses k = 2..l+1, C2 uses k = 2,4, G2 uses k = 2,6).  All order
bookkeeping is written against (dt/t)^{d_i}: a component of t-order v has
pole order d_i - v as a section of omega^{d_i}.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .affine import (
    MPLattice,
    Parahoric,
    _ceil_div,
    graded_principal_triple,
    is_principal,
    iwahori,
    moy_prasad,
    orthogonal_lattice,
    residue_pairing,
)
from .errors import (
    ContainmentViolation,
    DiagramMismatch,
    MismatchError,
    SurjectivityFailure,
    UnsupportedTypeError,
    UsageError,
)
from .laurent import LaurentPoly, OrderBound, TwistedElement
from .ring import MultiPoly
from .rootdata import (
    Degrees,
    PrincipalTriple,
    RootDatum,
    Vec,
    centralizer_basis,
    fundamental_degrees,
    principal_triple,
)


@dataclass
class HitchinValue:
    """Tuple of Laurent components, component i against (dt/t)^{d_i}."""

    components: List[LaurentPoly]
    degrees: Tuple[int, ...]

    def component(self, i: int) -> LaurentPoly:
        return self.components[i]

    def pole_orders(self) -> List[Optional[int]]:
        """Pole order of each component in omega^{d_i}, None for zero."""
        out = []
        for d, c in zip(self.degrees, self.components):
            v = c.val()
            out.append(None if v is None else d - v)
        return out


@dataclass
class HitchinImage:
    """Per-degree pole bounds for the image of a dual lattice."""

    bounds: OrderBound
    degrees: Tuple[int, ...]
    n: int
    m: int


class KostantData:
    """Triangular change of coordinates between slice and invariant values."""

    def __init__(self, rd: RootDatum, degrees: Degrees, triple: PrincipalTriple, pbasis: List[Vec]):
        self.triple = triple
        self.pbasis = pbasis
        l = rd.rank
        f = list(triple.f)
        mats: List[List[MultiPoly]] = []
        n = rd.rep_dim
        zero = MultiPoly.const(l, 0)
        entries = [[zero for _ in range(n)] for _ in range(n)]

        def add_vec(vec: Vec, poly: MultiPoly):
            sm = rd.rep_of_vec(vec)
            for (i, j), c in sm.items():
                entries[i][j] = entries[i][j] + poly.scale(c)

        add_vec(f, MultiPoly.const(l, 1))
        for i, p in enumerate(pbasis):
            add_vec(p, MultiPoly.var(l, i))
        degs = tuple(degrees)
        es = ring.charpoly_esym(entries, max(degs))
        self.gamma: List[MultiPoly] = [es[d - 1] for d in degs]
        self.kappa: List[Fraction] = []
        self.tails: List[MultiPoly] = []
        for j, d in enumerate(degs):
            g = self.gamma[j]
            for mono, _ in g.terms.items():
                wt = sum(k * degs[i] for i, k in enumerate(mono))
                if wt != d:
                    raise MismatchError("slice invariant is not weighted-homogeneous")
                if any(k > 0 and degs[i] > d for i, k in enumerate(mono)):
                    raise MismatchError("slice invariant not triangular")
            kj = g.coefficient_of_var(j)
            if kj == 0:
                raise MismatchError("vanishing linear normalization in the slice")
            self.kappa.append(kj)
            self.tails.append(g.drop_var_linear(j))

    def invert(self, values: List[LaurentPoly]) -> List[LaurentPoly]:
        """Solve gamma(b) = values for b over the Laurent ring (triangular)."""
        l = len(values)
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        bs: List[LaurentPoly] = [zero] * l
        for j in range(l):
            args = [bs[i] if i < j else zero for i in range(l)]
            tail = self.tails[j].evaluate(args, one)
            bs[j] = (values[j] - tail).scale(Fraction(1, 1) / self.kappa[j])
        return bs


def _lowest_slot(v: int, w: int) -> int:
    """Lowest nonzero slot k0 of v = sum_k c_k 2^(w k), |c_k| < 2^(w-1), v != 0: the
    trailing zero count tz of v satisfies w k0 <= tz <= w k0 + w - 2."""
    return ((v & -v).bit_length() - 1) // w


class InvariantSystem:
    """Defining representation plus one invariant generator per degree."""

    def __init__(self, rd: RootDatum):
        if not rd.cartan.has_invariant_support:
            raise UnsupportedTypeError(
                f"{rd.cartan.name} has no invariant-theory support (need A1-A4, C2 or G2)"
            )
        self.rd = rd
        self.degrees = fundamental_degrees(rd)
        self.triple = principal_triple(rd)
        self.pbasis = centralizer_basis(rd, self.triple)
        self.generators = [("charpoly", d) for d in self.degrees]
        self.kostant = KostantData(rd, self.degrees, self.triple, self.pbasis)
        # integer rep rows: rep_rows[idx] holds the entries (i, j, c) of line idx,
        # rep_norms[idx] its row l1-norms (i, sum_j |c|)
        self.rep_rows: List[Tuple[Tuple[int, int, int], ...]] = []
        self.rep_norms: List[Tuple[Tuple[int, int], ...]] = []
        for idx in range(rd.dim):
            rows = tuple((i, j, c.numerator) for (i, j), c in rd.rep_matrix(idx).items())
            norms: Dict[int, int] = {}
            for i, _, c in rows:
                norms[i] = norms.get(i, 0) + abs(c)
            self.rep_rows.append(rows)
            self.rep_norms.append(tuple(norms.items()))

    # -- evaluation -------------------------------------------------------

    def _packed_esym(self, cleared: Dict[int, Dict[int, int]]) -> Tuple[List[int], int]:
        """e_1..e_kmax, packed by t -> 2^w, and w, for the matrix over Z[t] whose
        line idx has the int coefficients ``cleared[idx]`` at exponents k >= 0.
        Each coefficient c of e_d has |c| < 2^(w-1): e_d is a sum of C(n, d) principal
        minors, each of l1-norm at most R^d for R >= 1 bounding the row l1-norms."""
        n = self.rd.rep_dim
        kmax = max(self.degrees)
        norms = [0] * n
        for idx, ints in cleared.items():
            size = sum(map(abs, ints.values()))
            for i, r in self.rep_norms[idx]:
                norms[i] += r * size
        w = ((1 << n) * max(1, max(norms)) ** kmax).bit_length() + 1
        entries = [[0] * n for _ in range(n)]
        for idx, ints in cleared.items():
            packed = sum(v << (w * k) for k, v in ints.items())
            for i, j, c in self.rep_rows[idx]:
                entries[i][j] += c * packed
        return ring.charpoly_esym(entries, kmax), w

    def invariant_values(self, vec_or_xi) -> List[LaurentPoly]:
        """e_d of the defining representation, one per fundamental degree.

        With c the lcm of the coefficient denominators and L the least exponent
        present, c t^-L xi has a matrix over Z[t] (the defining rep is integral,
        checked when it is built).  The shared packed step ``_packed_esym`` runs
        the charpoly kernel on it, and each e_d is unpacked with balanced digits
        at offset d L, then divided by c^d.  ``valuations`` runs the same step on
        a sampler draw and reads only each t-order, from the trailing zeros of
        the packed e_d, without unpacking it.
        """
        if isinstance(vec_or_xi, TwistedElement):
            xi = vec_or_xi
        else:
            xi = TwistedElement(
                {i: LaurentPoly.const(c) for i, c in enumerate(vec_or_xi) if c != 0},
                self.rd.dim, 1,
            )
        polys = list(xi.value.values())
        den = 1
        for poly in polys:
            for q in poly.coeffs.values():
                den = math.lcm(den, q.denominator)
        low = min((k for poly in polys for k in poly.coeffs), default=0)
        es, w = self._packed_esym({
            idx: {k - low: q.numerator * (den // q.denominator) for k, q in poly.coeffs.items()}
            for idx, poly in xi.value.items()
        })
        out = []
        for d in self.degrees:
            scale = den ** d
            out.append(LaurentPoly._of({
                d * low + i: Fraction(c, scale)
                for i, c in enumerate(ring._unpack(es[d - 1], w)) if c
            }))
        return out

    def valuations(self, draw: Dict[int, Dict[int, Tuple[int, int]]]) -> List[Optional[int]]:
        """t-order of each e_d (None for zero) at a ``_draw`` result, cleared as in
        ``invariant_values``: d L plus the lowest nonzero slot of the packed e_d."""
        den = math.lcm(*{q for coeffs in draw.values() for _, q in coeffs.values()})
        low = min((k for coeffs in draw.values() for k in coeffs), default=0)
        es, w = self._packed_esym({
            idx: {k - low: num * (den // q) for k, (num, q) in coeffs.items()}
            for idx, coeffs in draw.items()
        })
        return [d * low + _lowest_slot(es[d - 1], w) if es[d - 1] else None for d in self.degrees]

    def invariants_at_point(self, v: Vec) -> List[Fraction]:
        vals = self.invariant_values(v)
        return [c.coeff(0) for c in vals]


_SYSTEMS: Dict[str, InvariantSystem] = {}


def invariant_system(rd: RootDatum) -> InvariantSystem:
    key = rd.cartan.name
    if key not in _SYSTEMS:
        _SYSTEMS[key] = InvariantSystem(rd)
    return _SYSTEMS[key]


def chevalley_map(inv: InvariantSystem, xi: TwistedElement) -> HitchinValue:
    """Local Hitchin map: invariant values of a dt/t-twisted element."""
    if xi.form_degree != 1:
        raise ValueError("the local Hitchin map consumes form-degree-1 elements")
    comps = inv.invariant_values(xi)
    return HitchinValue(comps, tuple(inv.degrees))


def hitchin_bounds(p: Parahoric, n: int, degrees: Optional[Sequence[int]] = None) -> HitchinImage:
    """Pole bounds b_i = d_i - ceil(d_i (1-n) / m) on the dual-lattice image."""
    degs = tuple(degrees) if degrees is not None else tuple(fundamental_degrees(p.rd))
    bounds = OrderBound(d - _ceil_div(d * (1 - n), p.m) for d in degs)
    return HitchinImage(bounds, degs, n, p.m)


# A sampled lattice element draws each of its SAMPLE_DEPTH lowest admitted
# coefficients of a line with probability SAMPLE_DENSITY.
SAMPLE_DEPTH = 3
SAMPLE_DENSITY = 0.75


def _draw(
    p: Parahoric, orth: MPLattice, rng: random.Random
) -> Dict[int, Dict[int, Tuple[int, int]]]:
    """Coefficients (num, den) at the SAMPLE_DEPTH lowest admitted orders of each line.

    ``randrange(19) - 9`` and ``(1, 1, 2, 3)[randrange(4)]`` make the same draws
    as ``randint(-9, 9)`` and ``choice((1, 1, 2, 3))``.
    """
    random_, randrange = rng.random, rng.randrange
    out = {}
    for idx in range(p.rd.dim):
        o = orth.order_fn[idx]
        coeffs = {}
        for k in range(o, o + SAMPLE_DEPTH):
            if random_() < SAMPLE_DENSITY:
                num = randrange(19) - 9
                if num:
                    coeffs[k] = (num, (1, 1, 2, 3)[randrange(4)])
        if coeffs:
            out[idx] = coeffs
    return out


def sample_orth_element(p: Parahoric, orth: MPLattice, rng: random.Random) -> TwistedElement:
    """Random lattice element: coefficients at the SAMPLE_DEPTH lowest admitted orders."""
    value = {
        idx: LaurentPoly._of({k: Fraction(num, den) for k, (num, den) in coeffs.items()})
        for idx, coeffs in _draw(p, orth, rng).items()
    }
    return TwistedElement(value, p.rd.dim, 1)


def _sample_orders(
    inv: InvariantSystem, p: Parahoric, orth: MPLattice, seed: int, s: int
) -> List[Optional[int]]:
    """t-orders of the Hitchin components of sample s (None for a zero component)."""
    return inv.valuations(_draw(p, orth, random.Random(f"{seed}:{s}")))


def verify_containment(
    inv: InvariantSystem, p: Parahoric, n: int, samples: int = 100, seed: int = 0, map=map,
) -> dict:
    """Sample the dual lattice and check the image against the pole bounds.

    ``map`` evaluates the samples (``pool.map`` for a process pool); the
    report does not depend on it.
    """
    rd = inv.rd
    image = hitchin_bounds(p, n, inv.degrees)
    orth = orthogonal_lattice(p, n)
    min_val = [None] * len(inv.degrees)
    floors = [d - b for d, b in zip(inv.degrees, image.bounds)]
    orders = map(functools.partial(_sample_orders, inv, p, orth, seed), range(samples))
    for s, vals in enumerate(orders):
        for i, v in enumerate(vals):
            if v is None:
                continue
            if v < floors[i]:
                xi = sample_orth_element(p, orth, random.Random(f"{seed}:{s}"))
                raise ContainmentViolation(
                    f"component {i} of sample {s} has t-order {v} < {floors[i]} "
                    f"({rd.cartan.name}, coords {p.kac_coords}, n={n}, seed={seed})",
                    seed=f"{seed}:{s}",
                    witness={idx: poly.to_pairs() for idx, poly in xi.value.items()},
                )
            if min_val[i] is None or v < min_val[i]:
                min_val[i] = v
    max_orders = [
        None if v is None else d - v for d, v in zip(inv.degrees, min_val)
    ]
    return {
        "proposition": "size-of-image",
        "type": rd.cartan.name,
        "parahoric": list(p.kac_coords),
        "n": n,
        "m": p.m,
        "samples": samples,
        "seed": seed,
        "depth": SAMPLE_DEPTH,
        "degrees": list(inv.degrees),
        "bounds": list(image.bounds),
        "max_orders": max_orders,
        "status": "pass",
    }


def kostant_section(
    inv: InvariantSystem, values: Sequence[LaurentPoly], data: Optional[KostantData] = None
) -> TwistedElement:
    """Exact section of the Hitchin map through the slice f + ker(ad e)."""
    kd = data if data is not None else inv.kostant
    bs = kd.invert(list(values))
    rd = inv.rd
    out: Dict[int, LaurentPoly] = {}

    def add(vec: Vec, poly: LaurentPoly):
        for i, c in enumerate(vec):
            if c != 0:
                out[i] = out.get(i, LaurentPoly.zero()) + poly.scale(c)

    add(list(kd.triple.f), LaurentPoly.one())
    for b, pvec in zip(bs, kd.pbasis):
        add(pvec, b)
    return TwistedElement(out, rd.dim, 1)


_GRADED_KOSTANT: Dict[Tuple[str, Tuple[int, ...]], KostantData] = {}


def graded_kostant_data(inv: InvariantSystem, p: Parahoric) -> KostantData:
    key = (inv.rd.cartan.name, p.kac_coords)
    if key not in _GRADED_KOSTANT:
        triple = graded_principal_triple(p)
        pbasis = centralizer_basis(inv.rd, triple)
        for i, pvec in enumerate(pbasis):
            d = inv.degrees[i]
            for idx, c in enumerate(pvec):
                if c != 0 and p.eta_weight_line(idx) % p.m != (d - 1) % p.m:
                    raise MismatchError("centralizer basis is not graded as expected")
        _GRADED_KOSTANT[key] = KostantData(inv.rd, inv.degrees, triple, pbasis)
    return _GRADED_KOSTANT[key]


def section_from_cover(
    inv: InvariantSystem, p: Parahoric, n: int, values: Sequence[LaurentPoly],
    data: Optional[KostantData] = None,
) -> TwistedElement:
    """Element of the level-n dual lattice with prescribed Hitchin value.

    Build, on the degree-m cover u with t = u^m, the cocharacter-gauged
    slice element u^{-1} f' + sum_i u^{d_i - 1} b_i(u^m) p_i and descend it;
    the b_i solve the slice equations for m^{d_i} * values_i.
    """
    rd, m = inv.rd, p.m
    kd = data if data is not None else graded_kostant_data(inv, p)
    scaled = [v.scale(Fraction(m) ** d) for v, d in zip(values, inv.degrees)]
    bs = kd.invert(scaled)
    out: Dict[int, LaurentPoly] = {}

    def add_u_term(vec: Vec, upoly_exps: Dict[int, Fraction]):
        for idx, c in enumerate(vec):
            if c == 0:
                continue
            w = p.eta_weight_line(idx)
            tcoeffs = {}
            for uexp, coeff in upoly_exps.items():
                if (uexp - w) % m != 0:
                    raise MismatchError("cover element does not descend: grading mismatch")
                tcoeffs[(uexp - w) // m] = coeff * c
            poly = LaurentPoly(tcoeffs)
            out[idx] = out.get(idx, LaurentPoly.zero()) + poly

    add_u_term(list(kd.triple.f), {-1: Fraction(1, m)})
    for i, (b, pvec) in enumerate(zip(bs, kd.pbasis)):
        d = inv.degrees[i]
        uexps = {m * k + d - 1: v / m for k, v in b.coeffs.items()}
        add_u_term(pvec, uexps)
    return TwistedElement(out, rd.dim, 1)


def verify_surjectivity(
    inv: InvariantSystem, p: Parahoric, n: int = 2, trials: int = 25, seed: int = 0
) -> dict:
    """Round-trip surjectivity onto the bounded image at level n, level 2 only.

    Every trial draws a random point of the bounded image, reconstructs an
    element of the dual lattice through the graded slice on the m-fold
    cover, and checks lattice membership plus the exact round trip; the
    boundary pole order of every component must be attained.  The slice
    construction lands in the dual lattice only at n = 2, so any other level
    is a ``UsageError``, not a failed check.
    """
    if n != 2:
        raise UsageError(f"surjectivity is certified at level 2 only, got n = {n}")
    rd, m = inv.rd, p.m
    if not is_principal(p):
        raise SurjectivityFailure(
            f"parahoric {p.kac_coords} of {rd.cartan.name} is not principal"
        )
    kd = graded_kostant_data(inv, p)
    orth = orthogonal_lattice(p, n)
    degs = tuple(inv.degrees)
    floors = [_ceil_div(d * (1 - n), m) for d in degs]
    attained = [False] * len(degs)
    total = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:surj:{trial}")
        values = []
        for i, d in enumerate(degs):
            coeffs = {}
            for off in range(3):
                num = rng.randint(-9, 9)
                if num or (off == 0 and trial < len(degs) and i == trial):
                    coeffs[floors[i] + off] = Fraction(num if num else 1)
            values.append(LaurentPoly(coeffs))
        xi = section_from_cover(inv, p, n, values, data=kd)
        if not orth.contains(xi):
            raise SurjectivityFailure(
                f"section left the dual lattice ({rd.cartan.name}, trial {trial}, seed {seed})"
            )
        got = chevalley_map(inv, xi)
        for i, want in enumerate(values):
            if got.components[i] != want:
                raise SurjectivityFailure(
                    f"round trip failed on component {i} ({rd.cartan.name}, trial {trial})"
                )
            v = got.components[i].val()
            if v is not None and v == floors[i]:
                attained[i] = True
        total += 1
    if not all(attained):
        raise SurjectivityFailure(
            f"boundary orders not attained for components {[i for i, a in enumerate(attained) if not a]}"
        )
    return {
        "proposition": "surjectivity",
        "type": rd.cartan.name,
        "parahoric": list(p.kac_coords),
        "n": n,
        "m": m,
        "trials": total,
        "seed": seed,
        "degrees": list(degs),
        "boundary_orders": [d - f for d, f in zip(degs, floors)],
        "boundary_attained": attained,
        "status": "pass",
    }


def verify_rs_image(inv: InvariantSystem, p: Parahoric, seed: int = 0) -> dict:
    """Level-1 image fullness: every boundary order d_i is attained.

    The witness is a constant regular Cartan element; it lies in the level-1
    dual lattice of the Iwahori, hence of every standard parahoric.
    """
    rd = inv.rd
    orth_p = orthogonal_lattice(p, 1)
    orth_i = orthogonal_lattice(iwahori(rd), 1)
    witness = None
    for attempt in range(64):
        rng = random.Random(f"{seed}:rs:{attempt}")
        v = rd.zero_vec()
        for i in range(rd.rank):
            v[2 * rd.npos + i] = Fraction(rng.randint(-6, 6))
        vals = inv.invariants_at_point(v)
        if all(c != 0 for c in vals):
            witness = v
            break
    if witness is None:
        raise MismatchError("no regular Cartan witness found")
    xi = TwistedElement(
        {i: LaurentPoly.const(c) for i, c in enumerate(witness) if c != 0}, rd.dim, 1
    )
    if not (orth_p.contains(xi) and orth_i.contains(xi)):
        raise SurjectivityFailure("constant Cartan witness left the level-1 dual lattice")
    val = chevalley_map(inv, xi)
    orders = val.pole_orders()
    if list(orders) != list(inv.degrees):
        raise SurjectivityFailure(f"witness attains orders {orders}, wanted {list(inv.degrees)}")
    return {
        "proposition": "rs-image",
        "type": rd.cartan.name,
        "parahoric": list(p.kac_coords),
        "n": 1,
        "m": p.m,
        "seed": seed,
        "degrees": list(inv.degrees),
        "attained_orders": orders,
        "status": "pass",
    }


def _vp_basis(p: Parahoric) -> List[Tuple[int, int, int]]:
    """Lines of p(1)/p(2) as (node, line index, t-exponent)."""
    rd = p.rd
    lat1 = moy_prasad(p, 1)
    lat2 = moy_prasad(p, 2)
    out = []
    for idx in range(rd.dim):
        if lat1.order_fn[idx] < lat2.order_fn[idx]:
            root = rd.line_root(idx)
            if root is None:
                raise MismatchError("Cartan line in the degree-1 piece")
            if root in rd.simple_roots:
                node = rd.simple_roots.index(root) + 1
            elif root == tuple(-c for c in rd.theta):
                node = 0
            else:
                node = -1
            out.append((node, idx, lat1.order_fn[idx]))
    return sorted(out)


def torus_invariant_generator(p: Parahoric, degree_cap: Optional[int] = None) -> dict:
    """Primitive torus-invariant monomial on the dual of the degree-1 piece.

    The exponent vector generates the kernel of the node-root matrix and must
    equal the marks; the invariant ring is checked to be the polynomial ring
    on this single monomial by enumerating lattice points up to 2h.
    """
    rd = p.rd
    if not p.is_iwahori:
        raise MismatchError("the invariant-generator computation expects the Iwahori")
    basis = _vp_basis(p)
    if len(basis) != rd.rank + 1 or any(node < 0 for node, _, _ in basis):
        raise MismatchError("degree-1 piece is not the affine simple-root span")
    bar_roots: List[Root] = []
    for node, idx, _ in basis:
        bar_roots.append(rd.line_root(idx))
    rows = [[Fraction(bar_roots[i][j]) for i in range(len(basis))] for j in range(rd.rank)]
    ker = ring.kernel_basis(rows)
    if len(ker) != 1:
        raise MismatchError("node-root kernel is not one-dimensional")
    gen = ring.primitive_integer_vector(ker[0])
    if any(g <= 0 for g in gen):
        raise MismatchError("kernel generator is not positive")
    labels = [rd.kac_labels[node] for node, _, _ in basis]
    if gen != labels:
        raise MismatchError(f"invariant exponents {gen} differ from the marks {labels}")
    h = rd.coxeter_number
    cap = degree_cap if degree_cap is not None else 2 * h
    sols = []

    def enumerate_points(prefix: List[int], remaining: int, pos: int):
        if pos == len(basis):
            if any(prefix) and all(
                sum(prefix[i] * bar_roots[i][j] for i in range(len(basis))) == 0
                for j in range(rd.rank)
            ):
                sols.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            enumerate_points(prefix + [v], remaining - v, pos + 1)

    enumerate_points([], cap, 0)
    for sol in sols:
        q, r = divmod(sum(sol), sum(gen))
        if r != 0 or any(sol[i] != q * gen[i] for i in range(len(gen))):
            raise MismatchError(f"extra invariant lattice point {sol} below degree {cap}")
    monomial = "*".join(f"z{node}^{g}" for (node, _, _), g in zip(basis, gen))
    return {
        "proposition": "invariant-generator",
        "type": rd.cartan.name,
        "exponents": gen,
        "nodes": [node for node, _, _ in basis],
        "monomial": monomial,
        "degree": sum(gen),
        "degree_cap": cap,
        "lattice_points_checked": len(sols),
        "status": "pass",
    }


def residue_diagram(inv: InvariantSystem, p: Parahoric, samples: int = 50, seed: int = 0) -> dict:
    """Both paths of the residue square on random level-2 dual elements.

    Top: residue pairing against the degree-1 piece, then the invariant
    monomial.  Bottom: the Hitchin map, then the leading coefficients at the
    boundary orders of the components with m | d_i.  The two paths must
    agree up to one global scalar, fixed on the first nonvanishing sample.
    """
    rd, m = inv.rd, p.m
    if not p.is_iwahori:
        raise MismatchError("the residue square is computed for the Iwahori")
    gen_info = torus_invariant_generator(p)
    basis = _vp_basis(p)
    exps = gen_info["exponents"]
    orth = orthogonal_lattice(p, 2)
    div_idx = [i for i, d in enumerate(inv.degrees) if d % m == 0]
    if len(div_idx) != 1:
        raise MismatchError("expected a single boundary component with m | d_i")
    (bi,) = div_idx
    floor = -inv.degrees[bi] // m
    scalar: Optional[Fraction] = None
    checked = 0
    zero_pairs = 0
    for s in range(samples):
        rng = random.Random(f"{seed}:res:{s}")
        xi = sample_orth_element(p, orth, rng)
        zs = []
        for (node, idx, k) in basis:
            zs.append(residue_pairing(rd, xi, rd.basis_vec(idx), k))
        top = Fraction(1)
        for z, a in zip(zs, exps):
            top *= z ** a
        val = chevalley_map(inv, xi)
        bottom = val.components[bi].coeff(floor)
        if top == 0:
            if bottom != 0:
                raise DiagramMismatch(f"top path vanishes but bottom is {bottom} (sample {s})")
            zero_pairs += 1
            continue
        if scalar is None:
            scalar = bottom / top
            if scalar == 0:
                raise DiagramMismatch("vanishing comparison scalar")
        if bottom != scalar * top:
            raise DiagramMismatch(
                f"square fails on sample {s}: bottom {bottom}, top {top}, scalar {scalar}"
            )
        checked += 1
    if scalar is None:
        raise MismatchError("all samples had vanishing top path; cannot fix the scalar")
    return {
        "proposition": "residue-diagram",
        "type": rd.cartan.name,
        "parahoric": list(p.kac_coords),
        "samples": samples,
        "seed": seed,
        "monomial": gen_info["monomial"],
        "boundary_component_degree": inv.degrees[bi],
        "scalar": str(scalar),
        "nontrivial_samples": checked,
        "vanishing_samples": zero_pairs,
        "status": "pass",
    }
