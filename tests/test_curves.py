import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellnum.arith import primes_up_to
from ellnum.counting import count_charsum, count_naive, count_points
from ellnum.curves import (
    CurveModel,
    ReducedCurve,
    is_good_prime,
    legendre,
    parse_curve,
    point_add,
    point_neg,
    scalar_mul,
    sqrt_mod,
)
from ellnum.errors import CurveSpecError, SingularCurveError


def all_points(rc):
    pts = [None]
    for x in range(rc.p):
        for y in range(rc.p):
            if rc.is_on_curve((x, y)):
                pts.append((x, y))
    return pts


class TestParse:
    def test_conductor_37_curve(self):
        m = parse_curve("0,0,1,-1,0")
        assert m.disc == 37
        assert (m.b2, m.b4, m.b6, m.b8) == (0, -2, 1, -1)

    def test_second_curve_discriminant(self):
        m = parse_curve("0,0,3,-1,2")
        assert m.disc == -7739
        assert -7739 == -71 * 109

    def test_singular_model_rejected(self):
        with pytest.raises(SingularCurveError):
            parse_curve("0,0,0,0,0")

    def test_spaces_tolerated(self):
        assert parse_curve(" 0, 0, 1, -1, 0 ") == parse_curve("0,0,1,-1,0")

    @pytest.mark.parametrize("bad", ["1,2,3", "1,2,3,4,5,6", "a,b,c,d,e", "", "1;2;3;4;5"])
    def test_malformed_specs(self, bad):
        with pytest.raises(CurveSpecError):
            parse_curve(bad)

    @given(st.tuples(*[st.integers(-50, 50)] * 5))
    def test_b_invariant_identity(self, coeffs):
        try:
            m = CurveModel.from_coefficients(*coeffs)
        except SingularCurveError:
            return
        assert 4 * m.b8 == m.b2 * m.b6 - m.b4 * m.b4
        assert m.disc == (-m.b2**2 * m.b8 - 8 * m.b4**3 - 27 * m.b6**2 + 9 * m.b2 * m.b4 * m.b6)


def from_roots(s, t, a2, a4, a6):
    """y^2 + 2sxy + 2ty = x^3 + (a2 - s^2)x^2 + (a4 - 2st)x + a6 - t^2, which
    y -> y + sx + t takes to y^2 = x^3 + a2 x^2 + a4 x + a6: same 2-torsion."""
    return CurveModel.from_coefficients(2 * s, a2 - s * s, 2 * t, a4 - 2 * s * t, a6 - t * t)


def cubic(*roots):
    """(a2, a4, a6) of prod (x - r) over three roots."""
    r1, r2, r3 = roots
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


# (curve, |E(Q)[2]|): no, one and three rational 2-torsion points, with a1, a3 != 0
# and coefficients past 2^64 among them
TWO_TORSION_CURVES = [
    (parse_curve("0,0,1,-1,0"), 1),  # 37a
    (parse_curve("0,-1,1,-10,-20"), 1),  # 11a, whose Z/5 has no 2-torsion
    (parse_curve("7,-3,11,123456789012,-987654321098765"), 1),
    (parse_curve("0,0,0,0,1"), 2),
    (parse_curve("1,0,0,-1,0"), 2),
    (parse_curve("1,0,1,4,-6"), 2),  # 14a1, torsion Z/6
    (from_roots(-7, 10**12 + 39, 10**10 + 1 - 271828, 10**15 + 3 - 271828 * (10**10 + 1), -271828 * (10**15 + 3)), 2),
    (parse_curve("0,0,0,-1,0"), 4),
    (parse_curve("1,1,1,-10,-10"), 4),  # 15a1, torsion Z/4 x Z/2
    (from_roots(3, -(10**11) + 5, *cubic(10**9 + 7, -3 * 10**9, 123456789)), 4),
]


class TestTwoTorsion:
    def test_matches_the_rational_roots_of_sympy(self):
        from sympy import Poly, roots, symbols

        x = symbols("x")
        for model, want in TWO_TORSION_CURVES:
            cubic_x = Poly(4 * x**3 + model.b2 * x**2 + 2 * model.b4 * x + model.b6, x)
            assert model.two_torsion_order == 1 + len(roots(cubic_x, filter="Q")) == want, model

    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 3), st.integers(-50, 50), st.integers(-10**6, 10**6))
    def test_full_two_torsion_from_three_integer_roots(self, rs, s, t):
        if len(set(rs)) == 3:
            assert from_roots(s, t, *cubic(*rs)).two_torsion_order == 4

    def test_divides_every_count_and_twist_count_to_2e4(self):
        for model, t in [(m, t) for m, t in TWO_TORSION_CURVES if t > 1]:
            for p in primes_up_to(20_000)[1:].tolist():
                if model.disc % p:
                    rc = ReducedCurve.reduce(model, p)
                    n = count_naive(rc) if p == 3 else count_charsum(rc)
                    assert n % t == 0 and (2 * p + 2 - n) % t == 0, (model, p)


class TestGoodPrimes:
    def test_examples(self, curve_a, curve_b):
        assert is_good_prime(curve_a, 37) is False
        assert is_good_prime(curve_a, 2) is True
        assert is_good_prime(curve_b, 71) is False
        assert is_good_prime(curve_b, 109) is False

    def test_nonprime_rejected(self, curve_a):
        with pytest.raises(ValueError):
            is_good_prime(curve_a, 6)

    def test_bad_sets_are_exactly_the_disc_primes(self, curve_a, curve_b):
        from ellnum.arith import primes_up_to

        bad_a = [p for p in primes_up_to(200).tolist() if not is_good_prime(curve_a, p)]
        bad_b = [p for p in primes_up_to(200).tolist() if not is_good_prime(curve_b, p)]
        assert bad_a == [37]
        assert bad_b == [71, 109]


class TestGroupLaw:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_exhaustive_group_axioms_small_p(self, curve_a, p):
        rc = ReducedCurve.reduce(curve_a, p)
        pts = all_points(rc)
        for P in pts:
            assert point_add(rc, P, None) == P
            assert point_add(rc, None, P) == P
            assert point_add(rc, P, point_neg(rc, P)) is None
            for Q in pts:
                assert point_add(rc, P, Q) == point_add(rc, Q, P)
        for P in pts:
            for Q in pts:
                PQ = point_add(rc, P, Q)
                for R in pts:
                    assert point_add(rc, PQ, R) == point_add(rc, P, point_add(rc, Q, R))

    @pytest.mark.parametrize("p", [1009, 1013])
    def test_sampled_axioms_larger_p(self, curve_a, p):
        rc = ReducedCurve.reduce(curve_a, p)
        base = _some_point(rc)
        rng = random.Random(11)
        pts = [scalar_mul(rc, rng.randrange(1, 2 * p), base) for _ in range(12)] + [None]
        for _ in range(200):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert point_add(rc, P, Q) == point_add(rc, Q, P)
            assert point_add(rc, point_add(rc, P, Q), R) == point_add(rc, P, point_add(rc, Q, R))

    def test_double_point_lands_on_curve(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 5)
        pts = set(all_points(rc))
        assert (0, 0) in pts
        D = point_add(rc, (0, 0), (0, 0))
        assert D in pts

    def test_off_curve_point_rejected(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 11)
        bogus = next(
            (x, y) for x in range(11) for y in range(11) if not rc.is_on_curve((x, y))
        )
        with pytest.raises(ValueError):
            point_add(rc, bogus, None)
        with pytest.raises(ValueError):
            scalar_mul(rc, 3, bogus)


class TestScalarMul:
    def test_identity_cases(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 11)
        P = _some_point(rc)
        assert scalar_mul(rc, 0, P) is None
        assert scalar_mul(rc, 1, P) == P

    @pytest.mark.parametrize("p", [101, 1009])
    def test_lagrange_annihilates_random_points(self, curve_a, p):
        # group order times any point is the identity
        rc = ReducedCurve.reduce(curve_a, p)
        n = count_points(curve_a, p)
        if p == 101:
            assert n == 99
        rng = random.Random(3)
        base = _some_point(rc)
        for _ in range(10):
            P = scalar_mul(rc, rng.randrange(1, 3 * p), base)
            assert scalar_mul(rc, n, P) is None

    def test_negative_scalar_rejected(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 11)
        with pytest.raises(ValueError):
            scalar_mul(rc, -1, _some_point(rc))


def _some_point(rc):
    for x in range(rc.p):
        for y in range(rc.p):
            if rc.is_on_curve((x, y)):
                return (x, y)
    raise AssertionError("no affine point found")


class TestLegendre:
    def test_examples(self):
        assert legendre(1, 11) == 1
        assert legendre(0, 11) == 0
        assert legendre(2, 7) == 1  # 3^2 = 9 = 2 mod 7

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
    def test_matches_euler_criterion(self, p):
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert legendre(a, p) == expected

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 15)


class TestSqrtMod:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 101, 10007])
    def test_roots_square_back(self, p):
        for a in range(min(p, 60)):
            r = sqrt_mod(a, p)
            if legendre(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a % p
