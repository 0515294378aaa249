"""Parahorics, Moy-Prasad lattices, gradings and principality."""

import random
from fractions import Fraction
from itertools import product

import pytest

from loopalg.affine import (
    build_parahoric,
    dual_lattice,
    graded_principal_triple,
    hyperspecial,
    is_principal,
    iwahori,
    kac_grading,
    moy_prasad,
    orthogonal_lattice,
    regular_nilpotent_witness,
    residue_pairing,
)
from loopalg.errors import InvalidCoordinatesError, UnsupportedTwistedError
from loopalg.hitchin import sample_orth_element
from loopalg.laurent import LaurentPoly, TwistedElement
from loopalg.ring import MultiPoly
from loopalg.rootdata import CartanType, build_root_datum, is_regular_nilpotent

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]


def rd_of(name):
    return build_root_datum(CartanType.parse(name))


def all_parahorics(rd):
    for coords in product([0, 1], repeat=rd.rank + 1):
        if any(coords):
            yield build_parahoric(rd, coords)


class TestParahoric:
    def test_iwahori_a1(self):
        p = build_parahoric(rd_of("A1"), (1, 1))
        assert p.m == 2 and p.is_iwahori

    def test_hyperspecial_a2(self):
        p = build_parahoric(rd_of("A2"), (1, 0, 0))
        assert p.m == 1 and p.is_hyperspecial

    def test_g2_iwahori_m(self):
        p = build_parahoric(rd_of("G2"), (1, 1, 1))
        assert p.m == 6

    def test_invalid_coords(self):
        rd = rd_of("A2")
        with pytest.raises(InvalidCoordinatesError):
            build_parahoric(rd, (0, 0, 0))
        with pytest.raises(InvalidCoordinatesError):
            build_parahoric(rd, (2, 0, 0))
        with pytest.raises(InvalidCoordinatesError):
            build_parahoric(rd, (1, 0))


class TestMoyPrasad:
    def test_a1_iwahori_levels(self):
        rd = rd_of("A1")
        p = iwahori(rd)
        lat0 = moy_prasad(p, 0)
        e_idx, f_idx, h_idx = 0, rd.npos, 2 * rd.npos
        assert lat0.order_fn[e_idx] == 0
        assert lat0.order_fn[f_idx] == 1
        assert lat0.order_fn[h_idx] == 0
        lat1 = moy_prasad(p, 1)
        assert lat1.order_fn[e_idx] == 0
        assert lat1.order_fn[f_idx] == 1
        assert lat1.order_fn[h_idx] == 1

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_periodicity(self, name):
        rd = rd_of(name)
        for p in all_parahorics(rd):
            for n in (-2, 0, 3):
                a = moy_prasad(p, n)
                b = moy_prasad(p, n + p.m)
                assert all(b.order_fn[i] == a.order_fn[i] + 1 for i in range(rd.dim))

    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2"])
    def test_bracket_compatibility(self, name):
        rd = rd_of(name)
        for p in all_parahorics(rd):
            lats = {n: moy_prasad(p, n) for n in (0, 1, 2, 3, 4)}
            for i in range(rd.dim):
                for j in range(rd.dim):
                    entry = rd.bracket_lines(i, j)
                    if not entry:
                        continue
                    for ni in (0, 1, 2):
                        for nj in (0, 1, 2):
                            ki, kj = lats[ni].order_fn[i], lats[nj].order_fn[j]
                            tgt = lats[ni + nj]
                            for k in entry:
                                assert tgt.order_fn[k] <= ki + kj


class TestOrthogonal:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_closed_formula_matches_brute_force(self, name):
        # least t-exponent j at which X_i t^j pairs to zero with the whole
        # level-n lattice, found by evaluating residue pairings; X_i t^j can
        # only pair with the t^{-j} term of a lattice element
        rd = rd_of(name)
        basis = [rd.basis_vec(l) for l in range(rd.dim)]
        for p in all_parahorics(rd):
            for n in (0, 1, 2):
                plain = moy_prasad(p, n).order_fn
                closed = orthogonal_lattice(p, n).order_fn

                def annihilates(i, j):
                    xi = TwistedElement({i: LaurentPoly.t_power(j)}, rd.dim, 1)
                    return all(
                        residue_pairing(rd, xi, basis[l], -j) == 0
                        for l in range(rd.dim) if -j >= plain[l]
                    )

                for i in range(rd.dim):
                    j = -max(plain.values()) - 1
                    while not annihilates(i, j):
                        j += 1
                    assert j == closed[i], (p, n, rd.line_name(i))

    def test_a1_iwahori_example(self):
        rd = rd_of("A1")
        p = iwahori(rd)
        orth = orthogonal_lattice(p, 2)
        # dual of p(2) is p(1-2) = p(-1) written against dt/t
        plain = moy_prasad(p, -1)
        assert orth.order_fn == plain.order_fn

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_double_dual(self, name):
        rd = rd_of(name)
        for p in all_parahorics(rd):
            for n in (0, 1, 2):
                orth = orthogonal_lattice(p, n)
                assert dual_lattice(orth).order_fn == moy_prasad(p, n).order_fn

    def test_pairing_vanishes_on_basis(self):
        n = 2
        for name in INVARIANT_TYPES:
            rd = rd_of(name)
            p = iwahori(rd)
            orth = orthogonal_lattice(p, n)
            plain = moy_prasad(p, n)
            for idx in range(rd.dim):
                xi = TwistedElement({idx: LaurentPoly.t_power(orth.order_fn[idx])}, rd.dim, 1)
                for jdx in range(rd.dim):
                    for extra in range(3):
                        k = plain.order_fn[jdx] + extra
                        assert residue_pairing(rd, xi, rd.basis_vec(jdx), k) == 0, (name, idx)

    def test_pairing_detects_below_lattice(self):
        rd = rd_of("A1")
        p = iwahori(rd)
        orth = orthogonal_lattice(p, 2)
        idx = 0  # e-line
        xi = TwistedElement({idx: LaurentPoly.t_power(orth.order_fn[idx] - 1)}, rd.dim, 1)
        plain = moy_prasad(p, 2)
        opp = rd.opposite_line(idx)
        hits = [
            residue_pairing(rd, xi, rd.basis_vec(opp), plain.order_fn[opp] + extra)
            for extra in range(4)
        ]
        assert any(h != 0 for h in hits)


def dense_residue_pairing(rd, xi, v, k):
    """Reference residue pairing through the dense trace form: each line of xi
    becomes a dense coefficient vector, paired over every root pair and the
    whole Cartan block."""
    acc = Fraction(0)
    for idx, poly in xi.value.items():
        opp = rd.opposite_line(idx)
        if v[opp] == 0 and rd.line_root(idx) is not None:
            continue
        coeff = poly.coeffs.get(-k)
        if not coeff:
            continue
        u = [coeff * c for c in rd.basis_vec(idx)]
        for i in range(rd.npos):
            acc += rd.pair_scalar[i] * (u[i] * v[rd.npos + i] + u[rd.npos + i] * v[i])
        for i in range(rd.rank):
            for j in range(rd.rank):
                acc += rd.cartan_gram[i][j] * u[2 * rd.npos + i] * v[2 * rd.npos + j]
    return acc


@pytest.mark.parametrize("name", INVARIANT_TYPES)
def test_residue_pairing_matches_dense_reference(name):
    rd = rd_of(name)
    p = iwahori(rd)
    orth = orthogonal_lattice(p, 2)
    rng = random.Random(f"dense-pairing:{name}")
    nonzero = 0
    for _ in range(8):
        xi = sample_orth_element(p, orth, rng)
        exps = sorted({e for q in xi.value.values() for e in q.coeffs})
        for k in [-e for e in exps] + [-exps[0] + 1]:
            v = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(rd.dim)]
            got = residue_pairing(rd, xi, v, k)
            assert got == dense_residue_pairing(rd, xi, v, k), (name, k)
            nonzero += got != 0
    assert nonzero >= 8


class TestGrading:
    def test_a1_iwahori(self):
        g = kac_grading(iwahori(rd_of("A1")))
        dims = g.piece_dims()
        assert dims == {0: 1, 1: 2}
        assert g.levi_dimension() == 1

    def test_a2_hyperspecial_single_piece(self):
        g = kac_grading(hyperspecial(rd_of("A2")))
        assert g.piece_dims() == {0: 8}

    def test_a2_iwahori_degree_one(self):
        g = kac_grading(iwahori(rd_of("A2")))
        assert g.piece_dims()[1] == 3  # rank + 1

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_iwahori_dims(self, name):
        rd = rd_of(name)
        g = kac_grading(iwahori(rd))
        assert g.piece_dims()[1] == rd.rank + 1
        assert g.levi_dimension() == rd.rank

    @pytest.mark.parametrize("name", ["A2", "C2", "G2"])
    def test_bracket_respects_grading(self, name):
        rd = rd_of(name)
        for p in all_parahorics(rd):
            g = kac_grading(p)
            m = p.m
            deg = {i: g.degree_of_line(i) for i in range(rd.dim)}
            for i in range(rd.dim):
                for j in range(rd.dim):
                    for k in rd.bracket_lines(i, j):
                        assert deg[k] == (deg[i] + deg[j]) % m

    def test_twisted_request_rejected(self):
        with pytest.raises(UnsupportedTwistedError):
            kac_grading(iwahori(rd_of("A2")), r=2)
        with pytest.raises(UnsupportedTwistedError):
            is_principal(iwahori(rd_of("A2")), r=3)


class TestPrincipality:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_iwahori_and_hyperspecial_principal(self, name):
        rd = rd_of(name)
        assert is_principal(iwahori(rd))
        assert is_principal(hyperspecial(rd))

    def test_c2_m2_patterns(self):
        rd = rd_of("C2")
        assert not is_principal(build_parahoric(rd, (0, 1, 0)))
        assert is_principal(build_parahoric(rd, (1, 0, 1)))

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "C2", "G2"])
    def test_classification_matches_witness_search(self, name):
        rd = rd_of(name)
        for p in all_parahorics(rd):
            assert is_principal(p) == (regular_nilpotent_witness(p) is not None)

    def test_c2_nonprincipal_rank_oracle(self):
        """Generic centralizer dimension in the degree-1 piece, exactly.

        For the pattern (0,1,0) the square of the generic degree-1 element is
        a scalar in the defining representation, so every element has
        centralizer dimension >= 4 > rank; specializations attain 4.
        """
        rd = rd_of("C2")
        p = build_parahoric(rd, (0, 1, 0))
        lines = [i for i in range(rd.dim) if p.eta_weight_line(i) % p.m == 1]
        assert len(lines) == 4
        nvars = len(lines)
        zero = MultiPoly.const(nvars, 0)
        n = rd.rep_dim
        entries = [[zero for _ in range(n)] for _ in range(n)]
        for pos, idx in enumerate(lines):
            for (i, j), c in rd.rep_matrix(idx).items():
                entries[i][j] = entries[i][j] + MultiPoly.var(nvars, pos).scale(c)
        square = [
            [
                sum((entries[i][k] * entries[k][j] for k in range(n)), zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        diag = square[0][0]
        for i in range(n):
            for j in range(n):
                assert square[i][j] == (diag if i == j else zero)
        # specializations: centralizer dimension 4 everywhere sampled
        rng = random.Random(1)
        from loopalg.ring import kernel_basis

        dims = set()
        for _ in range(5):
            v = rd.zero_vec()
            for idx in lines:
                v[idx] = Fraction(rng.randint(1, 9), rng.choice([1, 2]))
            dims.add(len(kernel_basis(rd.ad_matrix(v))))
        assert dims == {4}

    def test_c2_principal_pattern_generic_regular(self):
        rd = rd_of("C2")
        p = build_parahoric(rd, (1, 0, 1))
        lines = [i for i in range(rd.dim) if p.eta_weight_line(i) % p.m == 1]
        rng = random.Random(2)
        from loopalg.ring import kernel_basis

        v = rd.zero_vec()
        for idx in lines:
            v[idx] = Fraction(rng.randint(1, 9))
        assert len(kernel_basis(rd.ad_matrix(v))) == rd.rank


class TestGradedTriple:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_iwahori_triples(self, name):
        rd = rd_of(name)
        p = iwahori(rd)
        t = graded_principal_triple(p)
        assert rd.bracket(list(t.e), list(t.f)) == list(t.h)

    def test_intermediate_principal_triple(self):
        rd = rd_of("C2")
        p = build_parahoric(rd, (1, 0, 1))
        t = graded_principal_triple(p)
        e, h, f = t.as_vecs()
        assert rd.bracket(h, e) == [2 * c for c in e]
        assert rd.bracket(h, f) == [-2 * c for c in f]
        assert rd.bracket(e, f) == h
        assert is_regular_nilpotent(rd, e)
        for vec, d in ((e, 1), (h, 0), (f, -1)):
            for i, c in enumerate(vec):
                if c != 0:
                    assert p.eta_weight_line(i) % p.m == d % p.m
