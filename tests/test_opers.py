"""Normal forms, the rigid connection, and its local certificates."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from loopalg.errors import CyclicFailure, MismatchError, NotOperShapeError
from loopalg.laurent import LaurentPoly
from loopalg.opers import (
    Oper,
    check_irregular_type,
    check_residue_rs,
    cyclic_ode,
    fg_connection,
    gauge_by_exp,
    gauge_reduce,
    global_hitchin_base,
    global_oper_space,
    infinity_slice_form,
    irregularity_at_infinity,
    lvec_from_const,
    make_oper,
    newton_slopes_at_infinity,
    oper_components,
    slope_certificate,
    _ctx,
)
from loopalg.ring import Poly, RatFunc
from loopalg.rootdata import CartanType, build_root_datum, dual_root_datum

INVARIANT_TYPES = ["A1", "A2", "A3", "A4", "C2", "G2"]


def rd_of(name):
    return build_root_datum(CartanType.parse(name))


def dual_ctx(name):
    return _ctx(dual_root_datum(rd_of(name)))


class TestFgConnection:
    def test_a1_matrix(self):
        op = fg_connection(rd_of("A1"), Fraction(1))
        mat = op.rep_matrix_pairs()
        # f on the superdiagonal with the 1/z pole, e_theta in the lower corner
        assert mat[0][1] == [["-1", "1"]]
        assert mat[1][0] == [["0", "1"]]

    def test_a2_matrix_shape(self):
        op = fg_connection(rd_of("A2"), Fraction(1))
        mat = op.rep_matrix_pairs()
        assert mat[0][1] == [["-1", "1"]] and mat[1][2] == [["-1", "1"]]
        assert mat[2][0] == [["0", "1"]]
        assert mat[0][2] == [] and mat[1][0] == []

    def test_dual_labeling(self):
        op = fg_connection(rd_of("C2"), Fraction(1))
        assert op.rd.cartan.name == "B2"
        assert op.source_type == "C2"

    def test_tame_case(self):
        op = fg_connection(rd_of("A1"), Fraction(0))
        assert op.canonical and op.shape == "global"
        comps = oper_components(op)
        assert all(c.known_zero() for c in comps)


class TestGaugeReduce:
    @pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2"])
    def test_idempotent_and_orbit_constant(self, name):
        rd = dual_root_datum(rd_of(name))
        ctx = _ctx(rd)
        rng = random.Random(f"gauge:{name}")
        coeffs = dict(lvec_from_const(ctx.f))
        for i in range(rd.dim):
            r = rd.line_root(i)
            if (r is None or sum(r) > 0) and rng.random() < 0.8:
                coeffs[i] = LaurentPoly.exact(
                    {k: Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for k in range(-1, 3)}
                )
        op = Oper(rd, coeffs)
        red = gauge_reduce(op)
        assert gauge_reduce(red).coeffs == red.coeffs
        x = {}
        for i in range(rd.dim):
            r = rd.line_root(i)
            if r is not None and sum(r) > 0 and rng.random() < 0.7:
                x[i] = LaurentPoly.exact({k: Fraction(rng.randint(-3, 3)) for k in range(-1, 2)})
        redg = gauge_reduce(Oper(rd, gauge_by_exp(rd, coeffs, x)))
        keys = set(red.coeffs) | set(redg.coeffs)
        assert all((redg.component_of(i) - red.component_of(i)).known_zero() for i in keys)

    def test_already_canonical_unchanged(self):
        rd = dual_root_datum(rd_of("A2"))
        ctx = _ctx(rd)
        coeffs = dict(lvec_from_const(ctx.f))
        coeffs[ctx.theta_line] = LaurentPoly.exact({0: Fraction(2), 1: Fraction(1)})
        op = Oper(rd, coeffs)
        red = gauge_reduce(op)
        assert red.coeffs == {i: p for i, p in coeffs.items() if not p.known_zero()}

    def test_a1_explicit(self):
        rd = dual_root_datum(rd_of("A1"))
        ctx = _ctx(rd)
        coeffs = dict(lvec_from_const(ctx.f))
        h_idx = 2 * rd.npos
        coeffs[h_idx] = LaurentPoly.exact({0: Fraction(1)})
        red = gauge_reduce(Oper(rd, coeffs))
        comps = oper_components(red)
        assert red.component_of(h_idx).known_zero()
        assert len(comps) == 1

    def test_wrong_f_part_rejected(self):
        rd = dual_root_datum(rd_of("A1"))
        ctx = _ctx(rd)
        coeffs = lvec_from_const(ctx.f, LaurentPoly.t_power(1))
        with pytest.raises(NotOperShapeError):
            gauge_reduce(Oper(rd, coeffs))

    @pytest.mark.parametrize("name", ["A2", "C2"])
    def test_output_commutes_with_e(self, name):
        rd = dual_root_datum(rd_of(name))
        ctx = _ctx(rd)
        rng = random.Random(9)
        coeffs = dict(lvec_from_const(ctx.f))
        for i in range(rd.dim):
            r = rd.line_root(i)
            if (r is None or sum(r) > 0) and rng.random() < 0.9:
                coeffs[i] = LaurentPoly.exact({k: Fraction(rng.randint(-3, 3)) for k in range(0, 3)})
        red = gauge_reduce(Oper(rd, coeffs))
        from loopalg.opers import lvec_bracket

        tail = dict(red.coeffs)
        for i in ctx.f_lines:
            tail[i] = tail.get(i, LaurentPoly.zero()) - LaurentPoly.const(ctx.f[i])
        br = lvec_bracket(rd, lvec_from_const(ctx.e), tail)
        assert all(p.known_zero() for p in br.values())


class TestLocalConditions:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(0)])
    def test_fg_passes_both(self, name, a):
        op = fg_connection(rd_of(name), a)
        assert check_residue_rs(op)
        assert check_irregular_type(op)

    def test_double_pole_fails_rs(self):
        rd = dual_root_datum(rd_of("A1"))
        ctx = _ctx(rd)
        coeffs = lvec_from_const(ctx.f, LaurentPoly.t_power(-2))
        op = Oper(rd, coeffs)
        assert not check_residue_rs(op)

    def test_polar_component_fails_rs(self):
        rd0 = rd_of("A1")
        rd = dual_root_datum(rd0)
        ctx = _ctx(rd)
        coeffs = dict(lvec_from_const(ctx.f, LaurentPoly.t_power(-1)))
        # p_1-component with a pole at 0
        p1 = ctx.pbasis[0]
        for i, c in enumerate(p1):
            if c != 0:
                coeffs[i] = LaurentPoly.t_power(-1, c)
        op = make_oper(rd0, coeffs)
        assert op.shape == "global"
        assert not check_residue_rs(op)

    def test_growing_theta_term_fails_infinity(self):
        rd0 = rd_of("A1")
        rd = dual_root_datum(rd0)
        ctx = _ctx(rd)
        coeffs = dict(lvec_from_const(ctx.f, LaurentPoly.t_power(-1)))
        coeffs[ctx.theta_line] = LaurentPoly.t_power(1)  # a * z * e_theta
        op = make_oper(rd0, coeffs)
        assert not check_irregular_type(op)


class TestGlobalSpaces:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_oper_space_dimension_one(self, name):
        rep = global_oper_space(rd_of(name))
        assert rep["dimension"] == 1
        assert "e_theta" in rep["basis"]

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_hitchin_base_dimension_one(self, name):
        rep = global_hitchin_base(rd_of(name))
        assert rep["dimension"] == 1
        assert rep["component_dimensions"][-1] == 1
        assert all(d == 0 for d in rep["component_dimensions"][:-1])

    @pytest.mark.parametrize("name", ["A1", "A2", "C2"])
    def test_fg_family_exhausts_the_space(self, name):
        # the one-dimensional space is the constant-theta line: its members
        # pass both local checks, and any other centralizer direction fails
        rd = rd_of(name)
        for a in (Fraction(1), Fraction(-7, 3)):
            op = fg_connection(rd, a)
            assert check_residue_rs(op) and check_irregular_type(op)
        rdd = dual_root_datum(rd)
        ctx = _ctx(rdd)
        if len(ctx.pbasis) > 1:
            coeffs = dict(lvec_from_const(ctx.f, LaurentPoly.t_power(-1)))
            p1 = ctx.pbasis[0]
            for i, c in enumerate(p1):
                if c != 0:
                    coeffs[i] = LaurentPoly.const(c)
            op = make_oper(rd, coeffs)
            assert not check_irregular_type(op)


class TestSlopeCertificate:
    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    def test_certificate_all_types(self, name):
        rd = rd_of(name)
        op = fg_connection(rd, Fraction(1))
        cert = slope_certificate(op)
        h = dual_root_datum(rd).coxeter_number
        assert cert["pullback_degree"] == h
        assert cert["gauge_exponent"] == 1
        assert cert["regular_semisimple"] is True
        assert cert["slope"] == f"1/{h}"

    def test_a1_eigenvalues(self):
        op = fg_connection(rd_of("A1"), Fraction(1))
        cert = slope_certificate(op)
        m = [[Fraction(x) for x in row] for row in cert["leading_matrix"]]
        # leading term is -2(f + e): eigenvalues +-2, a unit times +-1
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert tr == 0 and det == -4

    def test_tame_guard(self):
        op = fg_connection(rd_of("A1"), Fraction(0))
        with pytest.raises(ValueError):
            slope_certificate(op)


class TestCyclicOde:
    def test_a1_bessel_pattern(self):
        """z y'' + y' - a y, derived by hand from the 2x2 system."""
        for a in (Fraction(1), Fraction(2, 3)):
            op = fg_connection(rd_of("A1"), a)
            ode = cyclic_ode(op)
            assert ode["order"] == 2
            c0, c1 = ode["coefficients_raw"]
            z = __import__("loopalg.ring", fromlist=["Poly"]).Poly
            # c1 = 1/z and c0 = -a/z
            assert c1.num.cs == [Fraction(1)] and c1.den.cs == [Fraction(0), Fraction(1)]
            assert c0.num.cs == [-a] and c0.den.cs == [Fraction(0), Fraction(1)]

    def test_a2_third_order_and_newton_polygon(self):
        op = fg_connection(rd_of("A2"), Fraction(1))
        ode = cyclic_ode(op)
        assert ode["order"] == 3
        slopes = newton_slopes_at_infinity(ode["order"], ode["coefficients_raw"])
        assert slopes == [(Fraction(1, 3), 3)]
        assert irregularity_at_infinity(ode["order"], ode["coefficients_raw"]) == 1

    def test_euler_case_regular(self):
        op = fg_connection(rd_of("A2"), Fraction(0))
        ode = cyclic_ode(op)
        slopes = newton_slopes_at_infinity(ode["order"], ode["coefficients_raw"])
        assert slopes == []
        assert irregularity_at_infinity(ode["order"], ode["coefficients_raw"]) == 0

    @pytest.mark.parametrize("name,slope", [("A3", Fraction(1, 4)), ("C2", Fraction(1, 4)), ("G2", Fraction(1, 6))])
    def test_slopes_match_certificates(self, name, slope):
        op = fg_connection(rd_of(name), Fraction(1))
        ode = cyclic_ode(op)
        slopes = newton_slopes_at_infinity(ode["order"], ode["coefficients_raw"])
        assert slopes, "expected an irregular part"
        assert max(s for s, _ in slopes) == slope

    def test_cartan_lines_only_have_no_cyclic_vector(self):
        rd = dual_root_datum(rd_of("G2"))
        h = 2 * rd.npos
        op = Oper(rd, {h: LaurentPoly.t_power(-1, 3), h + 1: LaurentPoly.const(1)})
        with pytest.raises(CyclicFailure):
            cyclic_ode(op)

    def test_later_start_vector(self):
        """On the e-line alone, basis vector 0 is killed by A^T; vector 1 is cyclic."""
        rd = dual_root_datum(rd_of("A1"))
        op = Oper(rd, lvec_from_const(_ctx(rd).e, LaurentPoly.exact({-1: 2, 1: 1})))
        ode = cyclic_ode(op)
        assert ode["start_vector"] == 1 and ode["order"] == 2
        assert ode["monic_coefficients"] == ["(0)/(1*z^0)", "(2*z^0 + -1*z^2)/(2*z^1 + 1*z^3)"]

    def test_windowed_coefficient_rejected(self):
        rd = dual_root_datum(rd_of("A1"))
        op = Oper(rd, {0: LaurentPoly({0: 1}, 0, 3)})
        with pytest.raises(MismatchError):
            cyclic_ode(op)

    @pytest.mark.parametrize("name", INVARIANT_TYPES)
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(0)])
    def test_operator_annihilates_the_start_functional(self, name, a):
        """w_n + sum c_r w_r = 0, recomputed in plain RatFunc arithmetic."""
        op = fg_connection(rd_of(name), a)
        ode = cyclic_ode(op)
        assert "start_twist" not in ode
        self._assert_annihilates(op, ode)

    def test_tame_d4_starts_from_a_twisted_vector(self):
        """At a = 0 the D4 residue is nilpotent of Jordan type (7, 1), so no
        constant start is cyclic; e_0 + z e_3 is the first twisted one."""
        op = fg_connection(rd_of("D4"), Fraction(0))
        ode = cyclic_ode(op)
        assert (ode["start_vector"], ode["start_twist"], ode["order"]) == (0, 3, 8)
        self._assert_annihilates(op, ode)

    @staticmethod
    def _assert_annihilates(op, ode):
        rd, n = op.rd, op.rd.rep_dim
        zero = RatFunc.const(0)
        at = [[zero] * n for _ in range(n)]
        for idx, p in op.coeffs.items():
            lo = min(0, min(p.coeffs))
            num = Poly([p.coeffs.get(k, 0) for k in range(lo, max(p.coeffs) + 1)])
            rf = RatFunc(num, Poly([0] * -lo + [1]))
            for (i, j), c in rd.rep_matrix(idx).items():
                at[j][i] = at[j][i] + rf.scale(c)
        w = [RatFunc.const(1) if i == ode["start_vector"] else zero for i in range(n)]
        if "start_twist" in ode:
            w[ode["start_twist"]] = RatFunc(Poly([0, 1]), Poly([1]))
        acc = [zero] * n
        for c in ode["coefficients_raw"] + [RatFunc.const(1)]:
            acc = [s + c * x for s, x in zip(acc, w)]
            w = [x.derivative() - sum((r * y for r, y in zip(at[i], w)), zero) for i, x in enumerate(w)]
        assert ode["order"] == n
        assert all(s.is_zero() for s in acc)


class TestBeyondRankFive:
    """Slope certificates and a scalar reduction past the invariant-supported ranks."""

    @pytest.mark.parametrize("name,budget", [("B3", 5), ("C3", 5), ("D4", 5), ("C6", 10)])
    def test_slope_certificate(self, name, budget):
        t0 = time.time()
        rd = rd_of(name)
        cert = slope_certificate(fg_connection(rd, Fraction(1)))
        elapsed = time.time() - t0
        assert cert["status"] == "pass" and cert["regular_semisimple"] is True
        assert cert["slope"] == f"1/{dual_root_datum(rd).coxeter_number}"
        assert elapsed < budget, f"{name} slope certificate took {elapsed:.1f}s"

    def test_d4_cyclic_ode(self):
        t0 = time.time()
        op = fg_connection(rd_of("D4"), Fraction(3, 5))
        ode = cyclic_ode(op)
        elapsed = time.time() - t0
        assert ode["order"] == op.rd.rep_dim == 8
        assert elapsed < 5, f"D4 cyclic ODE took {elapsed:.1f}s"


# sha256 of the certificates below, recorded before the exact linear algebra
# moved from Fraction to integer elimination; any change to a certified value
# or to its printed form changes it.
CERTIFICATE_DIGEST = "caad4ffe24e41373d7a631085d73258071724f05d1fa43294606adb456fb4cf1"


def test_certificates_are_pinned():
    """Slope certificate, local checks, slice form at infinity and cyclic ODE
    of f/z + a e_theta for nine types and three a, plus the twisted D4 and D5
    starts at a = 0, hashed as one sorted-keys JSON dump."""
    out = {}
    for name in ("A1", "A2", "A3", "A4", "B3", "C2", "C3", "D4", "G2"):
        rd = rd_of(name)
        for a in (Fraction(1), Fraction(-2), Fraction(3, 5)):
            op = fg_connection(rd, a)
            ode = cyclic_ode(op)
            ode.pop("coefficients_raw")
            out[f"{name} a={a}"] = {
                "slope": slope_certificate(op),
                "residue_rs": check_residue_rs(op),
                "irregular_type": check_irregular_type(op),
                "infinity": {str(i): p.to_pairs()
                             for i, p in sorted(infinity_slice_form(op).coeffs.items())},
                "ode": ode,
            }
    for name in ("D4", "D5"):
        ode = cyclic_ode(fg_connection(rd_of(name), Fraction(0)))
        ode.pop("coefficients_raw")
        out[f"{name} a=0"] = {"ode": ode}
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == CERTIFICATE_DIGEST
