import math
import random

import pytest

from ellnum import counting, parse_curve
from ellnum.arith import primes_in_range, primes_up_to
from ellnum.counting import (
    CHARSUM_THRESHOLD,
    count_bsgs,
    count_charsum,
    count_naive,
    count_points,
    count_points_many,
    hasse_bounds,
)
from ellnum.curves import ReducedCurve
from ellnum.errors import BadReductionError, EllnumError

# y^2 = x^3 - x: complex multiplication and full 2-torsion, so points of
# small order are common.
CM_SPEC = "0,0,0,-1,0"


def good_primes(model, lo, hi):
    return [p for p in primes_in_range(lo, hi) if model.disc % p != 0]


class TestNaive:
    def test_small_values_37a(self, curve_a):
        assert count_naive(ReducedCurve.reduce(curve_a, 2)) == 5
        assert count_naive(ReducedCurve.reduce(curve_a, 3)) == 7
        assert count_naive(ReducedCurve.reduce(curve_a, 5)) == 8

    def test_count_at_101(self, curve_a):
        assert count_naive(ReducedCurve.reduce(curve_a, 101)) == 99

    def test_count_at_127(self, curve_a):
        assert count_naive(ReducedCurve.reduce(curve_a, 127)) == 127


class TestCharsum:
    def test_published_value_at_1009(self, curve_a):
        assert count_charsum(ReducedCurve.reduce(curve_a, 1009)) == 1057

    def test_derived_value_at_43(self, curve_a):
        # 3360 = N_2 * N_13 * N_43 with N_2 = 5, N_13 = 16
        assert count_charsum(ReducedCurve.reduce(curve_a, 43)) == 42
        assert 5 * 16 * 42 == 3360

    def test_small_prime_within_hasse(self, curve_a):
        n = count_charsum(ReducedCurve.reduce(curve_a, 5))
        assert abs(n - 6) <= 4
        assert n == count_naive(ReducedCurve.reduce(curve_a, 5))

    @pytest.mark.parametrize("p", [2, 3])
    def test_rejects_tiny_primes(self, curve_a, p):
        with pytest.raises(ValueError):
            count_charsum(ReducedCurve.reduce(curve_a, p))

    def test_matches_naive_up_to_200(self, curve_a, curve_b):
        for model in (curve_a, curve_b):
            for p in good_primes(model, 5, 200):
                rc = ReducedCurve.reduce(model, p)
                assert count_charsum(rc) == count_naive(rc), f"p={p}"

    def test_numpy_and_python_paths_agree(self, curve_a):
        # the implementation switches to vectorized evaluation around p ~ 600
        for p in good_primes(curve_a, 550, 650):
            rc = ReducedCurve.reduce(curve_a, p)
            assert count_charsum(rc) == count_naive(rc)


class TestBsgs:
    def test_published_values(self, curve_a, curve_b):
        assert count_bsgs(ReducedCurve.reduce(curve_a, 1601)) == 1648
        assert count_bsgs(ReducedCurve.reduce(curve_a, 1063)) == 1057
        assert count_bsgs(ReducedCurve.reduce(curve_b, 593)) == 624

    def test_rejects_tiny_primes(self, curve_a):
        with pytest.raises(ValueError):
            count_bsgs(ReducedCurve.reduce(curve_a, 3))

    def test_matches_charsum_or_naive_on_small_primes(self, curve_a, curve_b):
        # exercises the ambiguity budget and twist disambiguation paths
        for model in (curve_a, curve_b):
            for p in good_primes(model, 5, 120):
                rc = ReducedCurve.reduce(model, p)
                assert count_bsgs(rc) == count_naive(rc), f"p={p}"

    def test_matches_charsum_sample_band(self, curve_a, curve_b):
        for model in (curve_a, curve_b):
            for p in good_primes(model, 1000, 1200):
                rc = ReducedCurve.reduce(model, p)
                assert count_bsgs(rc) == count_charsum(rc), f"p={p}"

    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_seed_does_not_change_the_order(self, curve_a, seed):
        assert count_bsgs(ReducedCurve.reduce(curve_a, 1009), seed=seed) == 1057

    def test_spent_budget_raises_above_the_charsum_range(self, curve_a, monkeypatch):
        monkeypatch.setattr(counting, "BSGS_POINT_BUDGET", 0)
        monkeypatch.setattr(counting, "BSGS_TWIST_BUDGET", 0)
        above = next(p for p in good_primes(curve_a, CHARSUM_THRESHOLD + 1, 2 * CHARSUM_THRESHOLD))
        with pytest.raises(EllnumError) as exc:
            count_bsgs(ReducedCurve.reduce(curve_a, above))
        assert f"p={above}" in str(exc.value)
        assert curve_a.spec_text() in str(exc.value)
        below = ReducedCurve.reduce(curve_a, 1009)
        assert count_bsgs(below) == count_charsum(below) == 1057


class TestDispatcher:
    def test_examples(self, curve_a):
        assert count_points(curve_a, 2) == 5
        assert count_points(curve_a, 251) == 254
        assert count_points(curve_a, 113) == 132

    def test_bad_prime_reports_prime_and_disc(self, curve_a):
        with pytest.raises(BadReductionError) as exc:
            count_points(curve_a, 37)
        assert "37" in str(exc.value)

    def test_threshold_routes_to_bsgs(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 1009)
        assert count_bsgs(rc) == count_charsum(rc) == 1057

    def test_dispatch_regions_agree(self, curve_a):
        for p in good_primes(curve_a, 5, 400):
            rc = ReducedCurve.reduce(curve_a, p)
            assert count_bsgs(rc) == count_charsum(rc), p


class TestLanes:
    """count_points_many against the scalar paths it stands in for."""

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", "0,0,3,-1,2", CM_SPEC])
    @pytest.mark.parametrize("threshold", [CHARSUM_THRESHOLD, 229])
    def test_matches_charsum_to_2e4(self, spec, threshold, monkeypatch):
        # at threshold 229, the bound of Mestre's theorem, the lanes count
        # every prime above it, where points of small order are commonest
        monkeypatch.setattr(counting, "CHARSUM_THRESHOLD", threshold)
        model = parse_curve(spec)
        ps = good_primes(model, 5, 20_000)
        want = [count_charsum(ReducedCurve.reduce(model, p)) for p in ps]
        got = []
        for i in range(0, len(ps), 1000):
            got += count_points_many(model, ps[i : i + 1000])
        assert got == want

    @pytest.mark.parametrize("size", [1_000_000, 10_000_000])
    def test_matches_scalar_bsgs_on_large_primes(self, curve_a, curve_b, size):
        rng = random.Random(size)
        for model in (curve_a, curve_b):
            ps = sorted(rng.sample(good_primes(model, size, size + 20_000), 25))
            want = [count_bsgs(ReducedCurve.reduce(model, p)) for p in ps]
            assert count_points_many(model, ps) == want

    def test_batch_split_and_order_do_not_matter(self, curve_a):
        ps = good_primes(curve_a, 2, 60) + good_primes(curve_a, 2900, 3400) + good_primes(curve_a, 99_000, 99_400)
        whole = count_points_many(curve_a, ps)
        assert whole == [count_points(curve_a, p) for p in ps]
        shuffled = ps[:]
        random.Random(7).shuffle(shuffled)
        by_p = dict(zip(shuffled, count_points_many(curve_a, shuffled)))
        assert [by_p[p] for p in ps] == whole
        assert [count_points_many(curve_a, [p])[0] for p in ps] == whole

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_seed_does_not_change_the_counts(self, curve_a, seed):
        ps = good_primes(curve_a, 50_000, 51_000)
        assert count_points_many(curve_a, ps, seed=seed) == count_points_many(curve_a, ps)

    def test_rejects_bad_and_composite_inputs(self, curve_a):
        assert count_points_many(curve_a, []) == []
        with pytest.raises(BadReductionError):
            count_points_many(curve_a, [5, 37])
        with pytest.raises(ValueError):
            count_points_many(curve_a, [100_003, 100_001])  # 100001 = 11 * 9091


class TestHasseInvariants:
    def test_hasse_bounds_are_exact(self):
        for p in primes_up_to(3000):
            lo, hi = hasse_bounds(p)
            s = math.isqrt(4 * p)
            assert (lo, hi) == (p + 1 - s, p + 1 + s)
            assert (hi - p - 1) ** 2 <= 4 * p < (hi - p) ** 2

    def test_sweep_small(self, curve_a, curve_b):
        for model in (curve_a, curve_b):
            for p in good_primes(model, 2, 2000):
                n = count_points(model, p)
                assert (n - p - 1) ** 2 <= 4 * p
                assert 100 * n >= p
