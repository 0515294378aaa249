"""The local Hitchin map, its order bounds, sections, and the residue square."""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from loopalg import hitchin, ring
from loopalg.affine import build_parahoric, hyperspecial, iwahori, orthogonal_lattice
from loopalg.errors import ContainmentViolation, SurjectivityFailure
from loopalg.hitchin import (
    chevalley_map,
    hitchin_bounds,
    invariant_system,
    kostant_section,
    residue_diagram,
    sample_orth_element,
    torus_invariant_generator,
    verify_containment,
    verify_rs_image,
    verify_surjectivity,
)
from loopalg.laurent import LaurentPoly, TwistedElement
from loopalg.rootdata import CartanType, build_root_datum, principal_triple

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]

# neither Iwahori nor hyperspecial, as in the acceptance suite
INTERMEDIATE = {
    "A1": (0, 1),
    "A2": (1, 1, 0),
    "A3": (1, 0, 1, 0),
    "A4": (1, 1, 0, 0, 0),
    "C2": (0, 1, 0),
    "G2": (1, 1, 0),
}


def containment_parahorics(rd):
    """The three parahorics a containment sweep runs on."""
    return [iwahori(rd), hyperspecial(rd), build_parahoric(rd, INTERMEDIATE[rd.cartan.name])]


def rd_of(name):
    return build_root_datum(CartanType.parse(name))


def laurent_matrix(rd, xi):
    """Defining-representation matrix of xi with LaurentPoly entries."""
    n = rd.rep_dim
    entries = [[LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
    for idx, poly in xi.value.items():
        for (i, j), c in rd.rep_matrix(idx).items():
            entries[i][j] = entries[i][j] + poly.scale(c)
    return entries


def const_element(rd, vec):
    return TwistedElement(
        {i: LaurentPoly.const(c) for i, c in enumerate(vec) if c != 0}, rd.dim, 1
    )


class TestInvariantSystem:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_ad_invariance_twenty_points(self, name):
        rd = rd_of(name)
        inv = invariant_system(rd)
        rng = random.Random(f"adinv:{name}")
        for _ in range(20):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(rd.dim)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(rd.dim)]
            xy = rd.bracket(x, y)
            # P(y + s [x, y]) must have vanishing s-linear part; reuse the
            # Laurent ring as Q[s]
            xi = TwistedElement(
                {
                    i: LaurentPoly({0: y[i], 1: xy[i]})
                    for i in range(rd.dim)
                    if y[i] != 0 or xy[i] != 0
                },
                rd.dim,
                1,
            )
            for comp in inv.invariant_values(xi):
                assert comp.coeff(1) == 0

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_slice_triangular_and_unit_jacobian(self, name):
        inv = invariant_system(rd_of(name))
        degs = list(inv.degrees)
        for j, g in enumerate(inv.kostant.gamma):
            assert inv.kostant.kappa[j] != 0
            for mono in g.terms:
                assert sum(k * degs[i] for i, k in enumerate(mono)) == degs[j]

    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2"])
    def test_jacobian_full_rank_at_regular_point(self, name):
        from loopalg.ring import rank

        rd = rd_of(name)
        inv = invariant_system(rd)
        rng = random.Random(f"jac:{name}")
        # a regular point: slice element with random constants
        values = [LaurentPoly.const(Fraction(rng.randint(1, 7))) for _ in inv.degrees]
        y = kostant_section(inv, values)
        yvec = [y.component(i).coeff(0) for i in range(rd.dim)]
        rows = []
        for direction in range(rd.dim):
            # directional derivative via the s-linear part
            xi = TwistedElement(
                {
                    i: LaurentPoly({0: yvec[i], 1: Fraction(1 if i == direction else 0)})
                    for i in range(rd.dim)
                    if yvec[i] != 0 or i == direction
                },
                rd.dim,
                1,
            )
            rows.append([comp.coeff(1) for comp in inv.invariant_values(xi)])
        jac = [[rows[d][j] for d in range(rd.dim)] for j in range(len(inv.degrees))]
        assert rank(jac) == rd.rank

    def test_nilpotent_maps_to_zero(self):
        rd = rd_of("A1")
        inv = invariant_system(rd)
        e = list(principal_triple(rd).e)
        val = chevalley_map(inv, const_element(rd, e))
        assert all(c.is_zero() for c in val.components)

    def test_a1_cartan_value(self):
        rd = rd_of("A1")
        inv = invariant_system(rd)
        h = list(principal_triple(rd).h)
        val = chevalley_map(inv, const_element(rd, h))
        # det of diag(-1, 1): the recorded normalization constant
        assert val.components[0].coeffs == {0: Fraction(-1)}

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_rational_samples_match_generic_charpoly(self, name):
        """The packed kernel on the cached integer rep rows against the generic
        charpoly over LaurentPoly, on every parahoric and level containment runs."""
        rd = rd_of(name)
        inv = invariant_system(rd)
        rng = random.Random(f"oracle:{name}")
        for p in containment_parahorics(rd):
            for n in (2, 0, 1):
                orth = orthogonal_lattice(p, n)
                first = p.is_iwahori and n == 2
                for _ in range(5 if first else 2):
                    xi = sample_orth_element(p, orth, rng)
                    rational = any(c.denominator != 1 for q in xi.value.values() for c in q.coeffs.values())
                    assert rational or not first
                    es = ring.charpoly_esym(laurent_matrix(rd, xi), max(inv.degrees))
                    got = inv.invariant_values(xi)
                    for d, comp in zip(inv.degrees, got):
                        assert comp == es[d - 1]

    def test_sample_stream_is_pinned(self):
        """sha256 of the first 20 draws of the containment stream (seed 7) on the
        three containment parahorics of each type at n = 0, 1, 2.  Seeds,
        witnesses and goldens depend on this stream staying byte-identical."""
        digest = hashlib.sha256()
        for name in INVARIANT_TYPES:
            rd = rd_of(name)
            for p in containment_parahorics(rd):
                for n in (0, 1, 2):
                    orth = orthogonal_lattice(p, n)
                    for s in range(20):
                        xi = sample_orth_element(p, orth, random.Random(f"7:{s}"))
                        pairs = {idx: poly.to_pairs() for idx, poly in sorted(xi.value.items())}
                        digest.update(json.dumps(pairs, sort_keys=True).encode())
        assert digest.hexdigest() == "1a002a264036510dbc7f34b7615bc8b64f1ca8976317c47fa73a443c4baa6c7c"

    def test_a2_cyclic_element_order(self):
        rd = rd_of("A2")
        inv = invariant_system(rd)
        f = list(principal_triple(rd).f)
        xi_val = {i: LaurentPoly.t_power(-1, c) for i, c in enumerate(f) if c != 0}
        xi_val[rd.line_index[("e", rd.theta)]] = LaurentPoly.one()
        xi = TwistedElement(xi_val, rd.dim, 1)
        val = chevalley_map(inv, xi)
        # the degree-3 component of t^{-1} f + e_theta has t-order exactly -2
        assert val.components[1].val() == -2
        v0 = val.components[0].val()
        assert v0 is None or v0 >= -1


class TestBounds:
    def test_bounds_formula_cases(self):
        rd = rd_of("G2")
        p = iwahori(rd)
        assert list(hitchin_bounds(p, 1).bounds) == [2, 6]            # b_i = d_i
        assert list(hitchin_bounds(p, 0).bounds) == [1, 5]            # d_i - 1 at the Iwahori
        hs = hyperspecial(rd)
        assert list(hitchin_bounds(hs, 0).bounds) == [0, 0]           # unramified lattice

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_monotone_in_n(self, name):
        rd = rd_of(name)
        p = iwahori(rd)
        prev = None
        for n in range(-2, 4):
            cur = hitchin_bounds(p, n).bounds
            if prev is not None:
                assert prev <= cur
            prev = cur


class TestContainment:
    def test_a1_iwahori_n2_sharp(self):
        rd = rd_of("A1")
        rep = verify_containment(invariant_system(rd), iwahori(rd), 2, samples=100, seed=7)
        assert rep["status"] == "pass"
        assert rep["max_orders"] == [3]

    def test_a2_hyperspecial_n0(self):
        rd = rd_of("A2")
        rep = verify_containment(invariant_system(rd), hyperspecial(rd), 0, samples=60, seed=11)
        assert rep["bounds"] == [0, 0]
        assert rep["status"] == "pass"

    def test_a1_iwahori_n0(self):
        rd = rd_of("A1")
        rep = verify_containment(invariant_system(rd), iwahori(rd), 0, samples=60, seed=2)
        assert rep["bounds"] == [1]  # d_1 - 1
        assert rep["status"] == "pass"

    def test_map_callable_does_not_change_report(self):
        rd = rd_of("C2")
        inv = invariant_system(rd)
        p = iwahori(rd)
        serial = verify_containment(inv, p, 1, samples=30, seed=5)
        mapped = verify_containment(
            inv, p, 1, samples=30, seed=5, map=lambda f, xs: list(map(f, xs))
        )
        assert mapped == serial

    def test_violation_carries_the_same_witness_on_both_paths(self, monkeypatch):
        real = hitchin.hitchin_bounds
        # the bounds of a much lower level are violated by the first nonzero sample
        monkeypatch.setattr(hitchin, "hitchin_bounds", lambda p, n, degs: real(p, n - 10, degs))
        rd = rd_of("A2")
        inv = invariant_system(rd)
        p = iwahori(rd)
        caught = []
        for kw in ({}, {"map": lambda f, xs: list(map(f, xs))}):
            with pytest.raises(ContainmentViolation) as ex:
                verify_containment(inv, p, 2, samples=10, seed=4, **kw)
            caught.append(ex.value)
        serial, mapped = caught
        assert serial.seed == mapped.seed and serial.seed.startswith("4:")
        assert serial.witness == mapped.witness and serial.witness
        # the witness is built on the Fraction path; replayed through the
        # Hitchin map, the failed component has the t-order the sweep reported
        i, v = map(int, re.match(r"component (\d+) of sample \d+ has t-order (-?\d+)",
                                 str(serial)).groups())
        xi = TwistedElement(
            {idx: LaurentPoly.from_pairs(pairs) for idx, pairs in serial.witness.items()}, rd.dim, 1
        )
        assert chevalley_map(inv, xi).components[i].val() == v

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_integer_orders_match_the_hitchin_map(self, name):
        """The sweep's integer t-orders equal those of the Hitchin map on the
        same sample built with Fractions, on every containment case."""
        rd = rd_of(name)
        inv = invariant_system(rd)
        for p in containment_parahorics(rd):
            for n in (0, 1, 2):
                orth = orthogonal_lattice(p, n)
                for s in range(20):
                    draw = hitchin._draw(p, orth, random.Random(f"eq:{s}"))
                    xi = sample_orth_element(p, orth, random.Random(f"eq:{s}"))
                    want = [c.val() for c in chevalley_map(inv, xi).components]
                    assert inv.valuations(draw) == want, (p.kac_coords, n, s)

    def test_sweep_builds_no_fraction_or_laurent_element(self, monkeypatch):
        """A passing sweep stays in ints: neither ``Fraction`` in the Hitchin
        module nor ``LaurentPoly._of`` is called."""
        rd = rd_of("G2")
        inv = invariant_system(rd)
        p = iwahori(rd)
        orthogonal_lattice(p, 2)
        calls = []
        real_fraction, real_of = hitchin.Fraction, LaurentPoly._of.__func__

        def fraction(*args):
            calls.append("Fraction")
            return real_fraction(*args)

        def of(cls, coeffs):
            calls.append("_of")
            return real_of(cls, coeffs)

        monkeypatch.setattr(hitchin, "Fraction", fraction)
        monkeypatch.setattr(LaurentPoly, "_of", classmethod(of))
        assert verify_containment(inv, p, 2, samples=50, seed=9)["status"] == "pass"
        assert calls == []
        sample_orth_element(p, orthogonal_lattice(p, 2), random.Random(1))
        assert "Fraction" in calls and "_of" in calls  # the wrappers do count

    def test_gauge_invariance_of_map(self):
        """Conjugating by exp of a nilpotent over O leaves the image fixed."""
        from loopalg.opers import lvec_bracket

        rd = rd_of("A2")
        inv = invariant_system(rd)
        p = iwahori(rd)
        orth = orthogonal_lattice(p, 2)
        rng = random.Random(31)
        for _ in range(5):
            xi = sample_orth_element(p, orth, rng)
            x = {}
            for i in range(rd.dim):
                r = rd.line_root(i)
                if r is not None and sum(r) > 0 and rng.random() < 0.8:
                    x[i] = LaurentPoly(
                        {k: Fraction(rng.randint(-3, 3)) for k in range(0, 3)}
                    )
            cur = dict(xi.value)
            acc = dict(cur)
            fact = 1
            for k in range(1, 12):
                cur = lvec_bracket(rd, x, cur)
                fact *= k
                if all(q.is_zero() for q in cur.values()):
                    break
                for i, q in cur.items():
                    acc[i] = acc.get(i, LaurentPoly.zero()) + q.scale(Fraction(1, fact))
            conj = TwistedElement(acc, rd.dim, 1)
            a = chevalley_map(inv, xi)
            b = chevalley_map(inv, conj)
            assert a == b


class TestKostant:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_round_trip_exact(self, name):
        rd = rd_of(name)
        inv = invariant_system(rd)
        rng = random.Random(f"kostant:{name}")
        values = [
            LaurentPoly({k: Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
                               for k in range(-1, 2)})
            for _ in inv.degrees
        ]
        xi = kostant_section(inv, values)
        got = chevalley_map(inv, xi)
        for want, have in zip(values, got.components):
            assert have == want

    def test_zero_gives_nilpotent_slice_point(self):
        rd = rd_of("A2")
        inv = invariant_system(rd)
        xi = kostant_section(inv, [LaurentPoly.zero()] * 2)
        f = list(principal_triple(rd).f)
        assert xi == const_element(rd, f)
        got = chevalley_map(inv, xi)
        assert all(c.is_zero() for c in got.components)

    def test_a1_linear_normalization(self):
        rd = rd_of("A1")
        inv = invariant_system(rd)
        # gamma(b) = kappa * b in rank one, so the section divides by kappa
        c = LaurentPoly.const(Fraction(3))
        xi = kostant_section(inv, [c])
        e_idx = 0
        p1 = inv.pbasis[0]
        assert xi.component(e_idx) == LaurentPoly.const(Fraction(3) / inv.kostant.kappa[0] * p1[e_idx])


class TestSurjectivity:
    @pytest.mark.parametrize("name", ["A1", "A2", "C2"])
    def test_iwahori_pass(self, name):
        rd = rd_of(name)
        rep = verify_surjectivity(invariant_system(rd), iwahori(rd), trials=25, seed=3)
        assert rep["status"] == "pass"
        assert all(rep["boundary_attained"])

    def test_hyperspecial_pass(self):
        rd = rd_of("C2")
        rep = verify_surjectivity(invariant_system(rd), hyperspecial(rd), trials=10, seed=5)
        assert rep["status"] == "pass"

    def test_intermediate_principal_pass(self):
        rd = rd_of("C2")
        p = build_parahoric(rd, (1, 0, 1))
        rep = verify_surjectivity(invariant_system(rd), p, trials=10, seed=5)
        assert rep["status"] == "pass"

    def test_non_principal_rejected(self):
        rd = rd_of("C2")
        p = build_parahoric(rd, (0, 1, 0))
        with pytest.raises(SurjectivityFailure):
            verify_surjectivity(invariant_system(rd), p, trials=5, seed=1)


class TestRsImage:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_all_parahorics(self, name):
        from itertools import product

        rd = rd_of(name)
        inv = invariant_system(rd)
        for coords in product([0, 1], repeat=rd.rank + 1):
            if not any(coords):
                continue
            rep = verify_rs_image(inv, build_parahoric(rd, coords), seed=9)
            assert rep["attained_orders"] == list(inv.degrees)


class TestResidueDiagram:
    SCALARS = {"A1": "-1", "A2": "1", "A3": "-1", "A4": "1", "C2": "1/4", "G2": "-1/432"}

    @pytest.mark.parametrize("name", ["A1", "A2", "C2"])
    def test_square_commutes(self, name):
        rd = rd_of(name)
        rep = residue_diagram(invariant_system(rd), iwahori(rd), samples=50, seed=1)
        assert rep["status"] == "pass"
        assert rep["scalar"] == self.SCALARS[name]

    def test_level_one_elements_vanish_both_ways(self):
        rd = rd_of("A1")
        inv = invariant_system(rd)
        p = iwahori(rd)
        orth1 = orthogonal_lattice(p, 1)
        rng = random.Random(4)
        from loopalg.affine import residue_pairing
        from loopalg.hitchin import _vp_basis

        basis = _vp_basis(p)
        for _ in range(10):
            xi = sample_orth_element(p, orth1, rng)
            zs = [residue_pairing(rd, xi, rd.basis_vec(idx), k) for (_, idx, k) in basis]
            assert all(z == 0 for z in zs)
            val = chevalley_map(inv, xi)
            assert val.components[-1].coeff(-1) == 0


class TestInvariantGenerator:
    @pytest.mark.parametrize(
        "name,labels",
        [("A1", [1, 1]), ("A2", [1, 1, 1]), ("G2", [1, 2, 3])],
    )
    def test_matches_marks(self, name, labels):
        rd = rd_of(name)
        rep = torus_invariant_generator(iwahori(rd))
        assert rep["exponents"] == labels
        assert rep["degree"] == rd.coxeter_number
        assert rep["status"] == "pass"

    def test_monomial_weight_zero(self):
        rd = rd_of("A2")
        p = iwahori(rd)
        rep = torus_invariant_generator(p)
        from loopalg.hitchin import _vp_basis

        basis = _vp_basis(p)
        weight = [0] * rd.rank
        for (node, idx, _), g in zip(basis, rep["exponents"]):
            r = rd.line_root(idx)
            for j in range(rd.rank):
                weight[j] += g * r[j]
        assert all(w == 0 for w in weight)
