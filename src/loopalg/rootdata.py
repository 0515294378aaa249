"""Finite root systems and Chevalley bases with exact structure constants.

Conventions fixed here and relied on everywhere else:

* The Cartan matrix is ``C[i][j] = alpha_j(h_i)``.
* Positive roots are ordered by (height, coefficient tuple); the basis lines
  are the positive root vectors in that order, then the negative ones in the
  mirrored order, then the simple coroots ``h_1 .. h_l``.
* Structure-constant signs follow the extraspecial-pair convention: for each
  non-simple positive root ``g`` the chain pair is ``(alpha_i, g - alpha_i)``
  with ``i`` least, and ``N`` for that pair is ``+(p+1)``.
* Every basis element carries an exact integer matrix in a small faithful
  representation (sl, so, sp, or the 7-dimensional G2 module); brackets of
  coefficient vectors are computed from a table extracted from (and verified
  against) those matrices.  Representation bases are ordered lowest weight
  first, so ``f``-matrices sit above the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .errors import MismatchError, UnsupportedTypeError

Root = Tuple[int, ...]
Vec = List[Fraction]
SMat = Dict[Tuple[int, int], Fraction]  # sparse matrix

ROOT_SYSTEM_FAMILIES = {"A", "B", "C", "D", "G"}
INVARIANT_SUPPORT = {("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("G", 2)}
MAX_RANK = 8


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ROOT_SYSTEM_FAMILIES:
            raise UnsupportedTypeError(f"unknown family {self.family!r}")
        lo = {"A": 1, "B": 2, "C": 2, "D": 4, "G": 2}[self.family]
        hi = 2 if self.family == "G" else MAX_RANK
        if not lo <= self.rank <= hi:
            raise UnsupportedTypeError(
                f"{self.family}{self.rank} outside supported ranks [{lo}, {hi}]"
            )

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def has_invariant_support(self) -> bool:
        return (self.family, self.rank) in INVARIANT_SUPPORT

    @classmethod
    def parse(cls, name: str) -> "CartanType":
        name = name.strip()
        try:
            rank = int(name[1:]) if name[1:].isdigit() else None
        except ValueError:  # digits int() does not read, such as superscripts
            rank = None
        if rank is None:
            raise UnsupportedTypeError(f"cannot parse Cartan type {name!r}")
        return cls(name[0].upper(), rank)


def cartan_matrix(ct: CartanType) -> List[List[int]]:
    n = ct.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if ct.family in {"A", "B", "C", "D"}:
        for i in range(n - 1):
            C[i][i + 1] = C[i + 1][i] = -1
    if ct.family == "B":
        C[n - 1][n - 2] = -2  # alpha_l short
    elif ct.family == "C":
        C[n - 2][n - 1] = -2  # alpha_l long
    elif ct.family == "D":
        C[n - 2][n - 1] = C[n - 1][n - 2] = 0
        C[n - 3][n - 1] = C[n - 1][n - 3] = -1
    elif ct.family == "G":
        C[0][1] = -1  # alpha_1 long
        C[1][0] = -3  # alpha_2 short
    return C


def _positive_roots(C: List[List[int]]) -> List[Root]:
    """Close the simple roots under root strings, lowest height first."""
    n = len(C)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        new = []
        for b in layer:
            for i in range(n):
                pairing = sum(b[j] * C[i][j] for j in range(n))
                p = 0
                cur = tuple(x - y for x, y in zip(b, simple[i]))
                while cur in roots:
                    p += 1
                    cur = tuple(x - y for x, y in zip(cur, simple[i]))
                if p - pairing > 0:
                    cand = tuple(x + y for x, y in zip(b, simple[i]))
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        layer = new
    return sorted(roots, key=lambda r: (sum(r), r))


def _symmetrizer(C: List[List[int]]) -> List[Fraction]:
    """Positive d_i with d_i C[i][j] symmetric, normalized to min 1."""
    n = len(C)
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if C[i][j] != 0 and d[i] != 0 and d[j] == 0:
                    d[j] = d[i] * C[i][j] / C[j][i]
                    changed = True
    m = min(d)
    return [x / m for x in d]


# -- sparse matrices -----------------------------------------------------------


def smat(entries: Dict[Tuple[int, int], int]) -> SMat:
    """1-indexed entry dict to a sparse matrix (0-indexed internally)."""
    return {(i - 1, j - 1): Fraction(c) for (i, j), c in entries.items() if c != 0}


def sm_bracket(a: SMat, b: SMat) -> SMat:
    out: SMat = {}
    for (i, k), av in a.items():
        for (k2, j), bv in b.items():
            if k == k2:
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + av * bv
    for (i, k), bv in b.items():
        for (k2, j), av in a.items():
            if k == k2:
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) - bv * av
    return {k: v for k, v in out.items() if v != 0}


def sm_mul(a: SMat, b: SMat) -> SMat:
    out: SMat = {}
    for (i, k), av in a.items():
        for (k2, j), bv in b.items():
            if k == k2:
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + av * bv
    return {k: v for k, v in out.items() if v != 0}


def sm_scale(a: SMat, c: Fraction) -> SMat:
    return {} if c == 0 else {k: c * v for k, v in a.items()}


def sm_add(a: SMat, b: SMat) -> SMat:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def sm_trace_product(a: SMat, b: SMat) -> Fraction:
    acc = Fraction(0)
    for (i, j), av in a.items():
        bv = b.get((j, i))
        if bv is not None:
            acc += av * bv
    return acc


def sm_flip(a: SMat, n: int) -> SMat:
    """Conjugate by the order-reversing permutation of the basis."""
    return {(n - 1 - i, n - 1 - j): v for (i, j), v in a.items()}


def _proportionality(m: SMat, target: SMat) -> Fraction:
    """m == c * target exactly, else MismatchError."""
    if set(m) != set(target):
        raise MismatchError("bracket support differs from the expected root vector")
    c = None
    for key, tv in target.items():
        ratio = m[key] / tv
        if c is None:
            c = ratio
        elif c != ratio:
            raise MismatchError("bracket not proportional to the expected root vector")
    if c is None:
        raise MismatchError("expected root vector is zero")
    return c


# -- defining representations --------------------------------------------------


def _simple_generators(ct: CartanType) -> Tuple[int, List[SMat], List[SMat]]:
    """(rep dimension, e-matrices, f-matrices), lowest-weight-first ordering."""
    l = ct.rank
    if ct.family == "A":
        n = l + 1
        es = [smat({(i, i + 1): 1}) for i in range(1, l + 1)]
        fs = [smat({(i + 1, i): 1}) for i in range(1, l + 1)]
    elif ct.family == "C":
        n = 2 * l
        es = [smat({(i, i + 1): 1, (n - i, n + 1 - i): -1}) for i in range(1, l)]
        es.append(smat({(l, l + 1): 1}))
        fs = [smat({(i + 1, i): 1, (n + 1 - i, n - i): -1}) for i in range(1, l)]
        fs.append(smat({(l + 1, l): 1}))
    elif ct.family == "B":
        # Short-root generators follow the divided-power pattern through the
        # zero weight (coefficient 2 into it, 1 out of it), like the G2 case.
        n = 2 * l + 1
        es = [smat({(i, i + 1): 1, (n - i, n + 1 - i): -1}) for i in range(1, l)]
        es.append(smat({(l, l + 1): 2, (l + 1, l + 2): -1}))
        fs = [smat({(i + 1, i): 1, (n + 1 - i, n - i): -1}) for i in range(1, l)]
        fs.append(smat({(l + 1, l): 1, (l + 2, l + 1): -2}))
    elif ct.family == "D":
        n = 2 * l
        es = [smat({(i, i + 1): 1, (n - i, n + 1 - i): -1}) for i in range(1, l)]
        es.append(smat({(l - 1, l + 1): 1, (l, l + 2): -1}))
        fs = [smat({(i + 1, i): 1, (n + 1 - i, n - i): -1}) for i in range(1, l)]
        fs.append(smat({(l + 1, l - 1): 1, (l + 2, l): -1}))
    elif ct.family == "G":
        # 7-dimensional module; basis ordered by weight height:
        # -(a1+2a2), -(a1+a2), -a2, 0, a2, a1+a2, a1+2a2.
        n = 7
        es = [
            smat({(3, 2): 1, (6, 5): 1}),
            smat({(2, 1): 1, (4, 3): 2, (5, 4): 1, (7, 6): 1}),
        ]
        fs = [
            smat({(2, 3): 1, (5, 6): 1}),
            smat({(1, 2): 1, (3, 4): 1, (4, 5): 2, (6, 7): 1}),
        ]
        return n, es, fs
    else:  # pragma: no cover
        raise UnsupportedTypeError(ct.name)
    # The classical matrices above are written highest-weight-first; flip to
    # the lowest-weight-first convention (raising operators increase indices).
    es = [sm_flip(m, n) for m in es]
    fs = [sm_flip(m, n) for m in fs]
    return n, es, fs


class RootDatum:
    """Chevalley pinning of a simple Lie algebra over Q."""

    def __init__(self, cartan: CartanType):
        self.cartan = cartan
        self.rank = cartan.rank
        self.cartan_matrix = cartan_matrix(cartan)
        self.positive_roots = _positive_roots(self.cartan_matrix)
        self.root_set = set(self.positive_roots) | {
            tuple(-c for c in r) for r in self.positive_roots
        }
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        ]
        self.all_roots = self.positive_roots + [tuple(-c for c in r) for r in self.positive_roots]
        self.symmetrizer = _symmetrizer(self.cartan_matrix)
        self.theta = self.positive_roots[-1]

        self._build_lines()
        self._build_rep()
        self._extract_structure_constants()
        self._build_affine_data()
        self._trace_form()
        self._check_dimensions()

    # -- basis lines -----------------------------------------------------

    def _build_lines(self):
        self.npos = len(self.positive_roots)
        self.lines: List[Tuple[str, object]] = (
            [("e", r) for r in self.positive_roots]
            + [("f", r) for r in self.positive_roots]
            + [("h", i) for i in range(self.rank)]
        )
        self.dim = len(self.lines)
        self.line_index: Dict[Tuple[str, object], int] = {
            lab: i for i, lab in enumerate(self.lines)
        }

    def line_root(self, idx: int) -> Optional[Root]:
        """Root of a line as a signed coefficient tuple; None for Cartan lines."""
        kind, data = self.lines[idx]
        if kind == "e":
            return data
        if kind == "f":
            return tuple(-c for c in data)
        return None

    def line_name(self, idx: int) -> str:
        kind, data = self.lines[idx]
        if kind == "h":
            return f"h{data + 1}"
        return f"{kind}[{','.join(str(c) for c in data)}]"

    def root_line(self, root: Root) -> int:
        if sum(root) > 0:
            return self.line_index[("e", root)]
        return self.line_index[("f", tuple(-c for c in root))]

    def opposite_line(self, idx: int) -> int:
        kind, data = self.lines[idx]
        if kind == "e":
            return self.line_index[("f", data)]
        if kind == "f":
            return self.line_index[("e", data)]
        return idx

    def pairing(self, root: Root, i: int) -> int:
        """<root, alpha_i^vee>."""
        return sum(root[j] * self.cartan_matrix[i][j] for j in range(self.rank))

    def norm2(self, root: Root) -> Fraction:
        B, C = self.symmetrizer, self.cartan_matrix
        return sum(
            Fraction(root[i] * root[j]) * B[i] * C[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def coroot_coefficients(self, root: Root) -> List[Fraction]:
        """root^vee = sum_i c_i alpha_i^vee."""
        d = self.symmetrizer
        dg = self.norm2(root) / 2
        return [root[i] * d[i] / dg for i in range(self.rank)]

    # -- representation ----------------------------------------------------

    def _build_rep(self):
        n, es, fs = _simple_generators(self.cartan)
        self.rep_dim = n
        rep: Dict[Tuple[str, object], SMat] = {}
        for i in range(self.rank):
            rep[("e", self.simple_roots[i])] = es[i]
            rep[("f", self.simple_roots[i])] = fs[i]
            rep[("h", i)] = sm_bracket(es[i], fs[i])
        for i in range(self.rank):
            for j in range(self.rank):
                lhs = sm_bracket(rep[("h", i)], es[j])
                rhs = sm_scale(es[j], Fraction(self.cartan_matrix[i][j]))
                if lhs != rhs:
                    raise MismatchError(f"[h_{i}, e_{j}] != C[{i}][{j}] e_{j} in the defining rep")
        for g in self.positive_roots:
            if sum(g) == 1:
                continue
            i0 = next(
                i
                for i in range(self.rank)
                if tuple(g[j] - self.simple_roots[i][j] for j in range(self.rank)) in self.root_set
            )
            a = self.simple_roots[i0]
            b = tuple(g[j] - a[j] for j in range(self.rank))
            p = self._string_down(b, a)
            scale = Fraction(1, p + 1)
            rep[("e", g)] = sm_scale(sm_bracket(rep[("e", a)], rep[("e", b)]), scale)
            rep[("f", g)] = sm_scale(sm_bracket(rep[("f", a)], rep[("f", b)]), -scale)
            for key in (("e", g), ("f", g)):
                if any(v.denominator != 1 for v in rep[key].values()):
                    raise MismatchError(f"non-integral Chevalley matrix for {key}")
        self.rep = rep

    def _string_down(self, b: Root, a: Root) -> int:
        """p = max m with b - m a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self.root_set:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def rep_matrix(self, idx: int) -> SMat:
        return self.rep[self.lines[idx]]

    # -- structure constants ----------------------------------------------

    def _extract_structure_constants(self):
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        self.structure_constants: Dict[Tuple[Root, Root], Fraction] = {}
        mats = [self.rep_matrix(i) for i in range(self.dim)]
        hs = mats[2 * self.npos :]
        for i in range(self.dim):
            ri = self.line_root(i)
            for j in range(i + 1, self.dim):
                rj = self.line_root(j)
                br = sm_bracket(mats[i], mats[j])
                entry: Dict[int, Fraction] = {}
                if ri is None and rj is None:
                    if br:
                        raise MismatchError("Cartan lines do not commute in the defining rep")
                elif ri is None or rj is None:
                    root = rj if ri is None else ri
                    hidx = self.lines[i][1] if ri is None else self.lines[j][1]
                    sign = 1 if ri is None else -1
                    val = sign * self.pairing(root, hidx)
                    tgt = j if ri is None else i
                    if val != 0:
                        if _proportionality(br, mats[tgt]) != val:
                            raise MismatchError("Cartan action disagrees with root pairing")
                        entry[tgt] = Fraction(val)
                    elif br:
                        raise MismatchError("Cartan action should vanish")
                else:
                    s = tuple(x + y for x, y in zip(ri, rj))
                    if all(c == 0 for c in s):
                        coeffs = self._decompose_cartan(br, hs)
                        for k, c in enumerate(coeffs):
                            if c != 0:
                                entry[2 * self.npos + k] = c
                        # i is the e-line here, so [e_b, f_b] must be b^vee
                        if coeffs != self.coroot_coefficients(ri):
                            raise MismatchError("[e_b, f_b] is not the coroot of b")
                    elif s in self.root_set:
                        tgt = self.root_line(s)
                        c = _proportionality(br, mats[tgt])
                        p = self._string_down(rj, ri)
                        if c.denominator != 1 or abs(c) != p + 1:
                            raise MismatchError(
                                f"structure constant {c} for {ri}+{rj} is not +-(p+1), p={p}"
                            )
                        entry[tgt] = c
                        self.structure_constants[(ri, rj)] = c
                        self.structure_constants[(rj, ri)] = -c
                    elif br:
                        raise MismatchError(f"bracket of {ri}, {rj} should vanish")
                if entry:
                    table[(i, j)] = entry
        self.bracket_table = table

    def _decompose_cartan(self, m: SMat, hs: List[SMat]) -> List[Fraction]:
        if any(i != j for (i, j) in m):
            raise MismatchError("Cartan-valued bracket is not diagonal in the rep")
        rows = [[hs[k].get((d, d), Fraction(0)) for k in range(self.rank)] for d in range(self.rep_dim)]
        rhs = [m.get((d, d), Fraction(0)) for d in range(self.rep_dim)]
        sol = ring.solve_linear(rows, rhs)
        if sol is None:
            raise MismatchError("bracket does not lie in the Cartan span")
        return sol

    # -- affine data --------------------------------------------------------

    def _build_affine_data(self):
        l, C, theta = self.rank, self.cartan_matrix, self.theta
        theta_co = self.coroot_coefficients(theta)
        aff = [[Fraction(0)] * (l + 1) for _ in range(l + 1)]
        aff[0][0] = Fraction(2)
        for j in range(l):
            aff[0][j + 1] = -sum(Fraction(C[i][j]) * theta_co[i] for i in range(l))
            aff[j + 1][0] = -Fraction(self.pairing(theta, j))
        for i in range(l):
            for j in range(l):
                aff[i + 1][j + 1] = Fraction(C[i][j])
        null = ring.kernel_basis(aff)
        if len(null) != 1:
            raise MismatchError("affine Cartan matrix kernel is not one-dimensional")
        labels = ring.primitive_integer_vector(null[0])
        if labels[0] != 1 or any(a <= 0 for a in labels):
            raise MismatchError("Kac labels are not positive primitive with a_0 = 1")
        if tuple(labels[1:]) != theta:
            raise MismatchError("Kac labels disagree with the highest root")
        self.affine_cartan_matrix = aff
        self.kac_labels = tuple(labels)
        self.coxeter_number = sum(labels)

    # -- invariant form -----------------------------------------------------

    def _trace_form(self):
        """Trace form of the defining representation on basis lines."""
        self.pair_scalar: Dict[int, Fraction] = {}
        for i in range(self.npos):
            v = sm_trace_product(self.rep_matrix(i), self.rep_matrix(self.npos + i))
            if v == 0:
                raise MismatchError("degenerate trace form on a root pair")
            self.pair_scalar[i] = v
            self.pair_scalar[self.npos + i] = v
        self.cartan_gram = [
            [
                sm_trace_product(self.rep_matrix(2 * self.npos + i), self.rep_matrix(2 * self.npos + j))
                for j in range(self.rank)
            ]
            for i in range(self.rank)
        ]
        if ring.rank(self.cartan_gram) != self.rank:
            raise MismatchError("degenerate trace form on the Cartan")

    def _check_dimensions(self):
        l, h = self.rank, self.coxeter_number
        if len(self.all_roots) != l * h:
            raise MismatchError("|roots| != rank * Coxeter number")
        if self.dim != l * (h + 1):
            raise MismatchError("dim g != rank * (h + 1)")

    # -- vectors and brackets -------------------------------------------------

    def zero_vec(self) -> Vec:
        return [Fraction(0)] * self.dim

    def basis_vec(self, idx: int) -> Vec:
        v = self.zero_vec()
        v[idx] = Fraction(1)
        return v

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out = self.zero_vec()
        nz_u = [(i, c) for i, c in enumerate(u) if c != 0]
        nz_v = [(j, c) for j, c in enumerate(v) if c != 0]
        for i, a in nz_u:
            for j, b in nz_v:
                if i == j:
                    continue
                if i < j:
                    entry = self.bracket_table.get((i, j))
                    s = a * b
                else:
                    entry = self.bracket_table.get((j, i))
                    s = -a * b
                if entry:
                    for k, c in entry.items():
                        out[k] += s * c
        return out

    def bracket_lines(self, i: int, j: int) -> Dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return dict(self.bracket_table.get((i, j), {}))
        return {k: -c for k, c in self.bracket_table.get((j, i), {}).items()}

    def ad_matrix(self, v: Vec) -> List[Vec]:
        cols = [self.bracket(v, self.basis_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def rep_of_vec(self, v: Vec) -> SMat:
        out: SMat = {}
        for idx, c in enumerate(v):
            if c != 0:
                for key, val in self.rep_matrix(idx).items():
                    out[key] = out.get(key, Fraction(0)) + c * val
        return {k: val for k, val in out.items() if val != 0}

    def line_pairing(self, idx: int, v: Vec) -> Fraction:
        """Trace form of basis line idx against v.  Its Gram matrix on lines is
        sparse: root line i pairs only with its opposite line, through
        pair_scalar[i]; Cartan line 2*npos + i through row i of cartan_gram."""
        c = 2 * self.npos
        if idx < c:
            b = v[self.opposite_line(idx)]
            return self.pair_scalar[idx] * b if b else b
        return sum((g * b for g, b in zip(self.cartan_gram[idx - c], v[c:]) if b), Fraction(0))

    def trace_pairing(self, u: Vec, v: Vec) -> Fraction:
        """Trace form of the defining rep on coefficient vectors: by the sparse
        Gram structure, the sum of u[i] * line_pairing(i, v) over u[i] != 0."""
        return sum((a * self.line_pairing(i, v) for i, a in enumerate(u) if a), Fraction(0))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "type": self.cartan.name,
            "rank": self.rank,
            "cartan_matrix": self.cartan_matrix,
            "simple_roots": [list(r) for r in self.simple_roots],
            "positive_roots": [list(r) for r in self.positive_roots],
            "kac_labels": list(self.kac_labels),
            "coxeter_number": self.coxeter_number,
            "dimension": self.dim,
            "structure_constant_convention": "extraspecial-chain-positive",
        }

    def __repr__(self):
        return f"RootDatum({self.cartan.name}, dim={self.dim}, h={self.coxeter_number})"


_CACHE: Dict[Tuple[str, int], RootDatum] = {}


def build_root_datum(cartan: CartanType) -> RootDatum:
    """Construct (and cache) the Chevalley pinning for a supported type."""
    key = (cartan.family, cartan.rank)
    if key not in _CACHE:
        _CACHE[key] = RootDatum(cartan)
    return _CACHE[key]


def dual_root_datum(rd: RootDatum) -> RootDatum:
    """Root datum of the Langlands dual type.

    A and D are self-dual and B/C swap; G2's dual is G2 with the two nodes
    relabeled, which this package identifies with G2 itself since downstream
    consumers only use pinning-independent data (triple, highest root,
    centralizer basis).
    """
    fam = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}[rd.cartan.family]
    return build_root_datum(CartanType(fam, rd.cartan.rank))


@dataclass(frozen=True)
class PrincipalTriple:
    e: tuple
    h: tuple
    f: tuple

    def as_vecs(self) -> Tuple[Vec, Vec, Vec]:
        return list(self.e), list(self.h), list(self.f)


@dataclass(frozen=True)
class Degrees:
    values: Tuple[int, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def principal_triple(rd: RootDatum) -> PrincipalTriple:
    """f = sum of simple negative vectors, h with alpha_i(h) = 2, e solved exactly."""
    cached = getattr(rd, "_triple_cache", None)
    if cached is not None:
        return cached
    l = rd.rank
    rows = [[Fraction(rd.cartan_matrix[j][i]) for j in range(l)] for i in range(l)]
    c = ring.solve_linear(rows, [Fraction(2)] * l)
    if c is None:
        raise MismatchError("Cartan matrix is singular")
    h = rd.zero_vec()
    f = rd.zero_vec()
    e = rd.zero_vec()
    for i in range(l):
        h[2 * rd.npos + i] = c[i]
        f[rd.line_index[("f", rd.simple_roots[i])]] = Fraction(1)
        e[rd.line_index[("e", rd.simple_roots[i])]] = c[i]
    if rd.bracket(h, e) != [2 * x for x in e] or rd.bracket(h, f) != [-2 * x for x in f]:
        raise MismatchError("principal triple fails the h relations")
    if rd.bracket(e, f) != h:
        raise MismatchError("principal triple fails [e, f] = h")
    if rd.dim - ring.rank(rd.ad_matrix(e)) != l:
        raise MismatchError("principal e is not regular nilpotent")
    triple = PrincipalTriple(tuple(e), tuple(h), tuple(f))
    rd._triple_cache = triple
    return triple


def line_height_weight(rd: RootDatum, idx: int) -> int:
    """ad(h)-weight of a basis line for the principal h (twice the height)."""
    r = rd.line_root(idx)
    return 0 if r is None else 2 * sum(r)


def _centralizer_weight_basis(rd: RootDatum, triple: PrincipalTriple) -> List[Tuple[int, Vec]]:
    """(weight, vector) pairs spanning ker(ad e), homogeneous for ad h.

    Works for any principal triple: the kernel is computed exactly and then
    split into ad(h)-eigenspaces for the even eigenvalues 0 .. 2(h-1).
    """
    e, h, _ = triple.as_vecs()
    kernel = ring.kernel_basis(rd.ad_matrix(e))
    if len(kernel) != rd.rank:
        raise MismatchError("centralizer of principal e has wrong dimension")
    # matrix of ad h restricted to the kernel
    imgs = [rd.bracket(h, v) for v in kernel]
    cols = [[kernel[j][i] for j in range(len(kernel))] for i in range(rd.dim)]
    restr = []
    for img in imgs:
        sol = ring.solve_linear(cols, img)
        if sol is None:
            raise MismatchError("ad h does not preserve ker(ad e)")
        restr.append(sol)
    out: List[Tuple[int, Vec]] = []
    size = len(kernel)
    for w in range(0, 2 * rd.coxeter_number, 2):
        shifted = [
            [restr[j][i] - (w if i == j else 0) for j in range(size)] for i in range(size)
        ]
        for coeffs in ring.kernel_basis(shifted):
            full = rd.zero_vec()
            for j, c in enumerate(coeffs):
                for i in range(rd.dim):
                    full[i] += c * kernel[j][i]
            out.append((w, [Fraction(x) for x in ring.primitive_integer_vector(full)]))
    if len(out) != rd.rank:
        raise MismatchError("kernel does not split into even principal weights")
    out.sort(key=lambda t: t[0])
    return out


def centralizer_basis(rd: RootDatum, triple: PrincipalTriple) -> List[Vec]:
    """ad(h)-homogeneous basis p_1 .. p_l of ker(ad e), weights 2(d_i - 1).

    Entries are primitive integer vectors with positive leading coefficient.
    For the standard triple the top element is pinned to be exactly the
    highest-root vector.
    """
    out = _centralizer_weight_basis(rd, triple)
    basis = [v for _, v in out]
    if triple == principal_triple(rd):
        theta_idx = rd.line_index[("e", rd.theta)]
        if any(c != 0 for i, c in enumerate(basis[-1]) if i != theta_idx):
            raise MismatchError("top centralizer element is not the highest-root line")
        basis[-1] = rd.basis_vec(theta_idx)
    return basis


def fundamental_degrees(rd: RootDatum) -> Degrees:
    """Invariant-ring generator degrees: exponents of ad h on ker(ad e), plus one."""
    if not hasattr(rd, "_degrees_cache"):
        triple = principal_triple(rd)
        degs = sorted(w // 2 + 1 for w, _ in _centralizer_weight_basis(rd, triple))
        d = Degrees(tuple(degs))
        if sum(2 * di - 1 for di in d) != rd.dim:
            raise MismatchError("sum(2 d_i - 1) != dim g")
        if d[len(d) - 1] != rd.coxeter_number:
            raise MismatchError("largest degree is not the Coxeter number")
        rd._degrees_cache = d
    return rd._degrees_cache


def is_regular_semisimple(rd: RootDatum, x: Sequence[Fraction]) -> bool:
    """dim ker(ad x) = rank, and x is semisimple.

    The defining representation is faithful, so it preserves the Jordan
    decomposition: x is semisimple iff rep(x) is, i.e. iff the squarefree
    part s = p / gcd(p, p') of its characteristic polynomial p annihilates
    it.  rep(x) is first scaled to an integer matrix M, which changes
    neither answer; p comes from ``ring.charpoly_esym`` and s(M) from
    Horner's rule over the integers.
    """
    if rd.dim - ring.rank(rd.ad_matrix(list(x))) != rd.rank:
        return False
    rep = rd.rep_of_vec(list(x))
    den = 1
    for v in rep.values():
        den = lcm(den, v.denominator)
    n = rd.rep_dim
    m = [[int(rep.get((i, j), 0) * den) for j in range(n)] for i in range(n)]
    es = [1] + ring.charpoly_esym(m, n)
    p = ring.Poly([(-1) ** (n - j) * es[n - j] for j in range(n + 1)])
    squarefree = p.divmod(p.gcd(p.derivative()))[0]
    s = ring.primitive_integer_vector(squarefree.cs)
    acc = [[s[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(s[:-1]):
        acc = ring.mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return not any(any(row) for row in acc)


def is_nilpotent(rd: RootDatum, x: Sequence[Fraction]) -> bool:
    """Nilpotency, tested in the faithful defining representation."""
    m = rd.rep_of_vec(list(x))
    cur = m
    for _ in range(rd.rep_dim):
        if not cur:
            return True
        cur = sm_mul(cur, m)
    return not cur


def is_regular_nilpotent(rd: RootDatum, x: Sequence[Fraction]) -> bool:
    if not is_nilpotent(rd, list(x)):
        return False
    return rd.dim - ring.rank(rd.ad_matrix(list(x))) == rd.rank
