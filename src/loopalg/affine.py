"""Parahorics via alcove coordinates, Moy-Prasad lattices, loop gradings.

A standard parahoric is encoded by coordinates ``(s_0 .. s_l)`` with entries
in {0, 1}, not all zero; ``m = sum a_i s_i`` for the marks ``a_i``.  Each
Chevalley line carries an integer grading weight: ``w(root) = sum n_i s_i``
for a root with simple coefficients ``n_i`` and ``w = 0`` on the Cartan.
The line of a root enters the level-``n`` lattice at the t-exponent
``ceil((n - w)/m)`` and its annihilator (written against dt/t) at
``ceil((1 - n - w)/m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .errors import InvalidCoordinatesError, MismatchError, UnsupportedTwistedError
from .laurent import TwistedElement
from .rootdata import (
    PrincipalTriple,
    Root,
    RootDatum,
    Vec,
    is_regular_nilpotent,
    principal_triple,
)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class AffineRoot:
    """Real affine root: finite part plus level, as an affine function."""

    finite_part: Optional[Root]
    level: int

    def evaluate(self, p: "Parahoric") -> Fraction:
        base = Fraction(self.level)
        if self.finite_part is not None:
            base += Fraction(p.eta_weight_root(self.finite_part), p.m)
        return base


class Parahoric:
    """Standard parahoric given by alcove coordinates s_i in {0, 1}."""

    def __init__(self, rd: RootDatum, kac_coords: Sequence[int]):
        s = tuple(int(c) for c in kac_coords)
        if len(s) != rd.rank + 1:
            raise InvalidCoordinatesError(
                f"expected {rd.rank + 1} coordinates for {rd.cartan.name}, got {len(s)}"
            )
        if any(c not in (0, 1) for c in s) or not any(s):
            raise InvalidCoordinatesError("coordinates must lie in {0,1} and not all vanish")
        self.rd = rd
        self.kac_coords = s
        self.m = sum(a * c for a, c in zip(rd.kac_labels, s))
        self.barycenter_values = tuple(Fraction(c, self.m) for c in s)
        self.is_iwahori = all(c == 1 for c in s)
        ones = [i for i, c in enumerate(s) if c == 1]
        self.is_hyperspecial = len(ones) == 1 and rd.kac_labels[ones[0]] == 1
        if self.is_iwahori != (self.m == rd.coxeter_number):
            raise MismatchError("m = h must characterize the Iwahori coordinates")
        if self.is_hyperspecial != (self.m == 1):
            raise MismatchError("m = 1 must characterize hyperspecial coordinates")
        self._line_weights = tuple(
            0 if rd.line_root(i) is None else self.eta_weight_root(rd.line_root(i))
            for i in range(rd.dim)
        )

    def eta_weight_root(self, root: Root) -> int:
        """Pairing of the alcove cocharacter with a root: sum n_i s_i."""
        return sum(n * c for n, c in zip(root, self.kac_coords[1:]))

    def eta_weight_line(self, idx: int) -> int:
        return self._line_weights[idx]

    def descriptor(self) -> dict:
        return {
            "type": self.rd.cartan.name,
            "rank": self.rd.rank,
            "kac_coords": list(self.kac_coords),
            "m": self.m,
            "barycenter": [str(v) for v in self.barycenter_values],
            "iwahori": self.is_iwahori,
            "hyperspecial": self.is_hyperspecial,
        }

    def __repr__(self):
        return f"Parahoric({self.rd.cartan.name}, s={self.kac_coords}, m={self.m})"


def build_parahoric(rd: RootDatum, kac_coords: Sequence[int]) -> Parahoric:
    return Parahoric(rd, kac_coords)


def iwahori(rd: RootDatum) -> Parahoric:
    return Parahoric(rd, (1,) * (rd.rank + 1))


def hyperspecial(rd: RootDatum) -> Parahoric:
    return Parahoric(rd, (1,) + (0,) * rd.rank)


@dataclass
class MPLattice:
    """A lattice in the loop algebra (or, twisted, in its dt/t-dual).

    ``order_fn[line]`` is the least admitted t-exponent of that line.
    """

    parahoric: Parahoric
    n: int
    order_fn: Dict[int, int]
    twisted: bool = False

    def min_order(self, idx: int) -> int:
        return self.order_fn[idx]

    def contains(self, elt: TwistedElement) -> bool:
        if self.twisted != (elt.form_degree == 1):
            raise ValueError("lattice and element twist mismatch")
        for idx, poly in elt.value.items():
            for k, c in poly.coeffs.items():
                if c != 0 and k < self.order_fn[idx]:
                    return False
        return True

    def dump(self) -> dict:
        rd = self.parahoric.rd
        return {rd.line_name(i): self.order_fn[i] for i in range(rd.dim)}


def moy_prasad(p: Parahoric, n: int) -> MPLattice:
    """Level-n lattice of the filtration attached to the parahoric."""
    rd, m = p.rd, p.m
    order = {}
    for i in range(rd.dim):
        w = p.eta_weight_line(i)
        order[i] = _ceil_div(n - w, m) if rd.line_root(i) is not None else _ceil_div(n, m)
    return MPLattice(p, n, order, twisted=False)


def orthogonal_lattice(p: Parahoric, n: int) -> MPLattice:
    """Annihilator of the level-n lattice under Res(k(.,.) dt/t)."""
    rd, m = p.rd, p.m
    order = {}
    for i in range(rd.dim):
        w = p.eta_weight_line(i)
        order[i] = _ceil_div(1 - n - w, m) if rd.line_root(i) is not None else _ceil_div(1 - n, m)
    return MPLattice(p, n, order, twisted=True)


def dual_lattice(lat: MPLattice) -> MPLattice:
    """Annihilator lattice on the other side of the residue pairing."""
    rd = lat.parahoric.rd
    order = {i: 1 - lat.order_fn[rd.opposite_line(i)] for i in range(rd.dim)}
    return MPLattice(lat.parahoric, lat.n, order, twisted=not lat.twisted)


def residue_pairing(rd: RootDatum, xi: TwistedElement, v: Vec, k: int) -> Fraction:
    """Res of k(xi, v t^k) dt/t for a dt/t-twisted xi and a plain lattice vector."""
    if xi.form_degree != 1:
        raise ValueError("pairing needs a form-degree-1 element")
    acc = Fraction(0)
    for idx, poly in xi.value.items():
        coeff = poly.coeffs.get(-k)
        pair = coeff and rd.line_pairing(idx, v)
        if pair:
            acc += coeff * pair
    return acc


@dataclass
class KacGrading:
    """Z/m grading of the finite algebra induced by a standard parahoric."""

    parahoric: Parahoric
    pieces: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self):
        p, rd, m = self.parahoric, self.parahoric.rd, self.parahoric.m
        if not self.pieces:
            pieces: Dict[int, List[int]] = {i: [] for i in range(m)}
            for idx in range(rd.dim):
                pieces[p.eta_weight_line(idx) % m].append(idx)
            self.pieces = pieces

    @property
    def eta(self) -> Tuple[int, ...]:
        """Pairings of the grading cocharacter with the simple roots."""
        return tuple(self.parahoric.kac_coords[1:])

    def degree_of_line(self, idx: int) -> int:
        return self.parahoric.eta_weight_line(idx) % self.parahoric.m

    def piece_dims(self) -> Dict[int, int]:
        return {i: len(v) for i, v in self.pieces.items()}

    def levi_dimension(self) -> int:
        return len(self.pieces.get(0, []))

    def dump(self) -> dict:
        rd = self.parahoric.rd
        return {str(i): [rd.line_name(j) for j in lines] for i, lines in sorted(self.pieces.items())}


def kac_grading(p: Parahoric, r: int = 1) -> KacGrading:
    """Grading by eta-weights mod m; only the split (r = 1) case exists here."""
    if r != 1:
        raise UnsupportedTwistedError("twisted gradings (r = 2, 3) are not implemented")
    g = KacGrading(p)
    rd, m = p.rd, p.m
    if sum(len(v) for v in g.pieces.values()) != rd.dim:
        raise MismatchError("grading pieces do not partition the basis")
    # graded-realization consistency: the t-order at which a line enters the
    # level-n lattice matches the least j = w (mod m), j >= n
    for n in (-1, 0, 1, 2):
        lat = moy_prasad(p, n)
        for idx in range(rd.dim):
            w = p.eta_weight_line(idx)
            j = w + m * lat.order_fn[idx]
            if j < n or j - m >= n:
                raise MismatchError("graded realization disagrees with the lattice order")
    return g


# -- principality ---------------------------------------------------------------


def _affine_diagram_automorphisms(rd: RootDatum) -> List[Tuple[int, ...]]:
    """All permutations of the affine nodes preserving the affine Cartan matrix."""
    A = rd.affine_cartan_matrix
    n = len(A)
    perms: List[Tuple[int, ...]] = []

    def backtrack(partial: List[int], used: set):
        i = len(partial)
        if i == n:
            perms.append(tuple(partial))
            return
        for cand in range(n):
            if cand in used:
                continue
            ok = True
            for j in range(i):
                if A[i][j] != A[cand][partial[j]] or A[j][i] != A[partial[j]][cand]:
                    ok = False
                    break
            if ok and A[i][i] == A[cand][cand]:
                partial.append(cand)
                used.add(cand)
                backtrack(partial, used)
                partial.pop()
                used.discard(cand)

    backtrack([], set())
    return perms


def _principal_alcove_coords(rd: RootDatum, m: int) -> Optional[Tuple[int, ...]]:
    """Alcove-normalized coordinates (times m) of the order-m principal point.

    The point is rho-check / m, characterized by pairing 1/m with every
    simple root; the walk reflects through violated walls until all affine
    coordinates are nonnegative.
    """
    l = rd.rank
    x = [Fraction(1, m)] * l  # alpha_i(x)
    coroot_pair = {}

    def pair_with_coroot(i: int, beta: Root) -> Fraction:
        # <alpha_i, beta^vee>
        key = (i, beta)
        if key not in coroot_pair:
            cs = rd.coroot_coefficients(beta)
            coroot_pair[key] = sum(cs[j] * rd.cartan_matrix[j][i] for j in range(l))
        return coroot_pair[key]

    theta = rd.theta
    for _ in range(100000):
        a0 = 1 - sum(n * xi for n, xi in zip(theta, x))
        if a0 < 0:
            # reflect in the wall of alpha_0 = 1 - theta
            x = [xi + a0 * pair_with_coroot(i, theta) for i, xi in enumerate(x)]
            continue
        neg = next((i for i in range(l) if x[i] < 0), None)
        if neg is None:
            coords = [a0 * m] + [xi * m for xi in x]
            if any(c.denominator != 1 for c in coords):
                raise MismatchError("alcove walk produced non-integral coordinates")
            return tuple(int(c) for c in coords)
        beta = rd.simple_roots[neg]
        val = x[neg]
        x = [xi - val * pair_with_coroot(i, beta) for i, xi in enumerate(x)]
    raise MismatchError("alcove walk did not terminate")  # pragma: no cover


def is_principal(p: Parahoric, r: int = 1) -> bool:
    """Whether the degree-1 piece of the grading contains a regular nilpotent.

    Decided by comparing the coordinates against the alcove-normalized
    principal point of the same order, up to affine diagram automorphisms;
    a found witness is cached for the graded-triple construction.
    """
    if r != 1:
        raise UnsupportedTwistedError("twisted gradings (r = 2, 3) are not implemented")
    rd = p.rd
    target = _principal_alcove_coords(rd, p.m)
    mine = p.kac_coords
    for perm in _affine_diagram_automorphisms(rd):
        if tuple(target[perm[i]] for i in range(len(mine))) == mine:
            return True
    return False


def regular_nilpotent_witness(p: Parahoric) -> Optional[Vec]:
    """A regular nilpotent in the degree-1 piece, or None.

    Deterministic search over subsets of the degree-1 lines with small
    integer coefficient patterns; nilpotency is checked in the defining
    representation and regularity through the centralizer dimension.
    """
    rd, m = p.rd, p.m
    if m == 1:
        return list(principal_triple(rd).e)
    lines = [i for i in range(rd.dim) if p.eta_weight_line(i) % m == 1 % m]
    lines.sort()
    if len(lines) > 14:
        raise MismatchError("degree-1 piece too large for the witness search")
    rank_lines = [i for i in lines if p.eta_weight_line(i) == 1]
    orderings = [rank_lines] if len(rank_lines) >= rd.rank else []
    patterns = ([1] * rd.dim, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])
    candidates = orderings + [list(c) for size in range(rd.rank, len(lines) + 1)
                              for c in combinations(lines, size)]
    for subset in candidates:
        for pat in patterns:
            v = rd.zero_vec()
            for pos, idx in enumerate(subset):
                v[idx] = Fraction(pat[pos % len(pat)])
            if is_regular_nilpotent(rd, v):
                return v
    return None


def graded_principal_triple(p: Parahoric) -> PrincipalTriple:
    """A principal triple adapted to the grading: e in degree 1, h in 0, f in -1.

    For the Iwahori and hyperspecial cases this is the standard triple; in
    general the triple is completed from a regular nilpotent witness by two
    exact linear solves.
    """
    rd, m = p.rd, p.m
    std = principal_triple(rd)
    if m == 1 or p.is_iwahori:
        _assert_graded(p, std)
        return std
    e = regular_nilpotent_witness(p)
    if e is None:
        raise MismatchError("no regular nilpotent witness in the degree-1 piece")
    deg_minus = [i for i in range(rd.dim) if p.eta_weight_line(i) % m == (-1) % m]
    # solve [[e, f0], e] = 2e for f0 supported in degree -1
    rows = []
    rhs = []
    cols = deg_minus
    images = []
    for idx in cols:
        b = rd.bracket(rd.bracket(e, rd.basis_vec(idx)), e)
        images.append(b)
    for coord in range(rd.dim):
        rows.append([img[coord] for img in images])
        rhs.append(2 * e[coord])
    sol = ring.solve_linear(rows, rhs)
    if sol is None:
        raise MismatchError("graded sl2 completion failed (h-solve)")
    f0 = rd.zero_vec()
    for pos, idx in enumerate(cols):
        f0[idx] = sol[pos]
    h = rd.bracket(e, f0)
    # correct f0 by ker(ad e) in degree -1 so that [h, f] = -2f
    ad_e = rd.ad_matrix(e)
    ker = ring.kernel_basis(ad_e)
    ker_deg = []
    for v in ker:
        if all(c == 0 or p.eta_weight_line(i) % m == (-1) % m for i, c in enumerate(v)):
            ker_deg.append(v)
    target = [-(rd.bracket(h, f0)[i] + 2 * f0[i]) for i in range(rd.dim)]

    def hplus2(v: Vec) -> Vec:
        b = rd.bracket(h, v)
        return [b[i] + 2 * v[i] for i in range(rd.dim)]

    imgs = [hplus2(v) for v in ker_deg]
    rows2 = [[img[coord] for img in imgs] for coord in range(rd.dim)]
    sol2 = ring.solve_linear(rows2, target)
    if sol2 is None:
        raise MismatchError("graded sl2 completion failed (f-solve)")
    f = list(f0)
    for c, v in zip(sol2, ker_deg):
        for i in range(rd.dim):
            f[i] += c * v[i]
    triple = PrincipalTriple(tuple(e), tuple(h), tuple(f))
    if rd.bracket(list(triple.h), list(triple.e)) != [2 * c for c in triple.e]:
        raise MismatchError("graded triple fails [h, e] = 2e")
    if rd.bracket(list(triple.h), list(triple.f)) != [-2 * c for c in triple.f]:
        raise MismatchError("graded triple fails [h, f] = -2f")
    if rd.bracket(list(triple.e), list(triple.f)) != list(triple.h):
        raise MismatchError("graded triple fails [e, f] = h")
    _assert_graded(p, triple)
    return triple


def _assert_graded(p: Parahoric, triple: PrincipalTriple):
    rd, m = p.rd, p.m
    for vec, deg in ((triple.e, 1), (triple.h, 0), (triple.f, -1)):
        for i, c in enumerate(vec):
            if c != 0 and p.eta_weight_line(i) % m != deg % m:
                raise MismatchError("principal triple is not adapted to the grading")
