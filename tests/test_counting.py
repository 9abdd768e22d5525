import itertools
import math
import random

import numpy as np
import pytest

from ellnum import counting, parse_curve, search
from ellnum.arith import is_prime, primes_in_range, primes_up_to
from ellnum.counting import (
    CHARSUM_THRESHOLD,
    LANE_CELLS,
    LANE_PRIME_CAP,
    LANE_PRIME_FLOOR,
    count_bsgs,
    count_charsum,
    count_naive,
    count_points,
    hasse_bounds,
)
from ellnum.curves import ReducedCurve
from ellnum.errors import BadReductionError, EllnumError
from ellnum.search import find_progressions, g1, gk_solutions, hasse_prime_window
from ellnum.table import CHUNK_PRIMES, build_table

# y^2 = x^3 - x: complex multiplication and full 2-torsion, so points of
# small order are common.
CM_SPEC = "0,0,0,-1,0"

# Curves with one rational 2-torsion point: y^2 = x^3 + 1 and y^2 + xy = x^3 - x.
TWO_TORSION_SPECS = ["0,0,0,0,1", "1,0,0,-1,0"]


def strong_probable_prime(n, a):
    """n passes the Miller-Rabin test to the base a; n odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def good_primes(model, lo, hi):
    return [p for p in primes_in_range(lo, hi).tolist() if model.disc % p != 0]


def short_model_lanes(model, p):
    """The lanes' y^2 = x^3 + A x + B, A = -27 c4 and B = -54 c6, at each prime of p."""
    c4 = model.b2 * model.b2 - 24 * model.b4
    c6 = -model.b2**3 + 36 * model.b2 * model.b4 - 216 * model.b6
    return counting._XLine(p, -27 * c4 % p, -54 * c6 % p)


def spy_lane_blocks(monkeypatch):
    """(lanes, step rows) of every _lane_divisors call, rows laid out as it does."""
    blocks = []
    real = counting._lane_divisors

    def spy(xl, x0, lo, hi, t=1):
        w = int((hi // t + lo // -t).max())  # the width of [ceil(lo / t), floor(hi / t)]
        m = math.isqrt(w) + 1
        blocks.append((len(x0), m + 1 + w // (2 * m + 1) + 2))
        return real(xl, x0, lo, hi, t)

    monkeypatch.setattr(counting, "_lane_divisors", spy)
    return blocks


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
        # charsum against the naive count, above the range of test_matches_naive_up_to_200
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

    @pytest.mark.parametrize("spec", [CM_SPEC, *TWO_TORSION_SPECS])
    def test_matches_charsum_where_two_torsion_divides_the_order(self, spec):
        # the candidates are the multiples of |E(Q)[2]| only
        model = parse_curve(spec)
        assert model.two_torsion_order > 1
        for p in good_primes(model, 5, 1200):
            rc = ReducedCurve.reduce(model, p)
            assert count_bsgs(rc) == count_charsum(rc), p

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

    def test_numpy_integer_is_one_prime(self, curve_a):
        n = count_points(curve_a, np.int64(100_003))
        assert type(n) is int and n == count_points(curve_a, 100_003)

    def test_threshold_routes_to_bsgs(self, curve_a):
        rc = ReducedCurve.reduce(curve_a, 1009)
        assert count_bsgs(rc) == count_charsum(rc) == 1057

    def test_dispatch_regions_agree(self, curve_a):
        for p in good_primes(curve_a, 5, 400):
            rc = ReducedCurve.reduce(curve_a, p)
            assert count_bsgs(rc) == count_charsum(rc), p


class TestLanes:
    """count_points on a batch against the scalar paths it stands in for."""

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", "0,0,3,-1,2", CM_SPEC, *TWO_TORSION_SPECS])
    @pytest.mark.parametrize("floor", [CHARSUM_THRESHOLD, 229])
    def test_matches_charsum_to_2e4(self, spec, floor, monkeypatch):
        # at the default floor 229, the bound of Mestre's theorem, the lanes
        # count every prime above it, where points of small order are commonest
        monkeypatch.setattr(counting, "LANE_PRIME_FLOOR", floor)
        model = parse_curve(spec)
        ps = good_primes(model, 5, 20_000)
        want = [count_charsum(ReducedCurve.reduce(model, p)) for p in ps]
        got = []
        for i in range(0, len(ps), 1000):
            got += count_points(model, ps[i : i + 1000])
        assert got == want

    @pytest.mark.parametrize("size", [1_000_000, 10_000_000])
    def test_matches_scalar_bsgs_on_large_primes(self, curve_a, curve_b, size):
        rng = random.Random(size)
        for model in (curve_a, curve_b):
            ps = sorted(rng.sample(good_primes(model, size, size + 20_000), 25))
            want = [count_bsgs(ReducedCurve.reduce(model, p)) for p in ps]
            assert count_points(model, ps) == want

    def test_batch_split_and_order_do_not_matter(self, curve_a):
        ps = good_primes(curve_a, 2, 60) + good_primes(curve_a, 2900, 3400) + good_primes(curve_a, 99_000, 99_400)
        whole = count_points(curve_a, ps)
        assert whole == [count_points(curve_a, p) for p in ps]
        shuffled = ps[:]
        random.Random(7).shuffle(shuffled)
        by_p = dict(zip(shuffled, count_points(curve_a, shuffled)))
        assert [by_p[p] for p in ps] == whole
        assert [count_points(curve_a, [p])[0] for p in ps] == whole

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_seed_does_not_change_the_counts(self, curve_a, seed):
        ps = good_primes(curve_a, 50_000, 51_000)
        assert count_points(curve_a, ps, seed=seed) == count_points(curve_a, ps)

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC])
    def test_draws_are_points_of_the_curve_or_its_twist(self, spec):
        model = parse_curve(spec)
        rng = random.Random(2024)
        # log-uniform over the lane range, plus tiny primes where f(x0) = 0 is often hit
        starts = [int(math.exp(rng.uniform(math.log(3001), math.log(LANE_PRIME_CAP - 1000)))) for _ in range(150)]
        ps = [next(q for q in itertools.count(s) if is_prime(q) and model.disc % q) for s in starts]
        ps += [q for q in range(5, 60) if is_prime(q) and model.disc % q]
        ps.append(max(q for q in range(LANE_PRIME_CAP - 200, LANE_PRIME_CAP) if is_prime(q)))
        p = np.array(ps * 4, dtype=np.int64)
        xl = short_model_lanes(model, p)
        for seed in (0, 7, -3, 2**70 + 1):
            x0, twist = counting._draw_points(xl, seed, np.repeat(np.arange(4), len(ps)))
            for q, A, B, x, tw in zip(p.tolist(), xl.A.tolist(), xl.B.tolist(), x0.tolist(), twist.tolist()):
                f = (x**3 + A * x + B) % q
                assert 1 <= x <= q - 1 and f != 0, (q, x)
                assert tw == (pow(f, (q - 1) // 2, q) != 1), (q, x)

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, "0,0,0,0,1"])
    def test_every_point_gives_a_divisor_of_its_group_order(self, spec):
        # every x0 of small primes, where points of small order and steps
        # with x = 0 are common: a lane returns a divisor of N_p or of the
        # twist's order, or 0, searching all multiples or those of |E(Q)[2]|
        model = parse_curve(spec)
        for q in good_primes(model, 230, 700):
            xl = short_model_lanes(model, np.full(q - 1, q, dtype=np.int64))
            x0 = np.arange(1, q, dtype=np.int64)
            f = ((x0 * x0 % q + xl.A) * x0 + xl.B) % q
            on = np.flatnonzero(f)
            lo, hi = hasse_bounds(q)
            n = count_charsum(ReducedCurve.reduce(model, q))
            order = [2 * q + 2 - n if pow(int(v), (q - 1) // 2, q) != 1 else n for v in f[on]]
            for t in {1, model.two_torsion_order}:
                d = counting._lane_divisors(xl.take(on), x0[on], np.full(len(on), lo), np.full(len(on), hi), t)
                assert d.any()
                assert all(e == 0 or o % e == 0 for e, o in zip(d.tolist(), order)), (q, t)

    # dirty lanes of the sweep below when a second ladder settled the signs
    LADDER_DIRTY = {"0,0,1,-1,0": 2112, CM_SPEC: 8524, "0,0,0,0,1": 9636}

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, "0,0,0,0,1"])
    def test_clean_lanes_give_the_exact_gcd_over_the_hasse_interval(self, spec):
        # every x0 of small primes, searching all multiples and those of
        # |E(Q)[2]|: a clean lane returns the gcd of the multiples of lcm(t,
        # ord(P)) in the Hasse interval, so it took the sign of every match right
        model = parse_curve(spec)
        lanes = dirty = two_s = two_i = first_row = 0
        for q in good_primes(model, 230, 700):
            xl = short_model_lanes(model, np.full(q - 1, q, dtype=np.int64))
            x0 = np.arange(1, q, dtype=np.int64)
            f = ((x0 * x0 % q + xl.A) * x0 + xl.B) % q
            on = np.flatnonzero(f)
            xl, x0, f = xl.take(on), x0[on], f[on]
            lo, hi = hasse_bounds(q)
            n = count_charsum(ReducedCurve.reduce(model, q))
            twist = np.array([pow(int(v), (q - 1) // 2, q) != 1 for v in f])
            order = orders(xl, x0, np.where(twist, 2 * q + 2 - n, n))
            for t in {1, model.two_torsion_order}:
                o = np.lcm(t, order)
                first, last = (lo + o - 1) // o * o, hi // o * o
                d = counting._lane_divisors(xl, x0, np.full_like(x0, lo), np.full_like(x0, hi), t)
                clean = d != 0
                assert (d[clean] == np.where(first == last, first, o)[clean]).all(), (q, t)
                # Q = tP of order o / t, S = step Q, and the first giant centre c0
                m, step, _, _ = counting._layout(hi // t - (lo + t - 1) // t)
                oq, c0 = o // t, ((lo + t - 1) // t + m) // step * step
                near = np.minimum(c0 % oq, -c0 % oq)  # c0 Q = +/-iQ for i = near, if 1 <= i <= m + 1
                lanes, dirty = lanes + len(d), dirty + int((~clean).sum())
                two_s += int((clean & (oq == 2 * step)).sum())  # 2S = O
                two_i += int((clean & (oq == 2 * m + 2)).sum())  # 2iQ = O at i = m + 1
                first_row += int((clean & (near >= 1) & (near <= m + 1)).sum())
        assert two_s and two_i and first_row > 100
        assert dirty <= self.LADDER_DIRTY[spec] + 0.002 * lanes

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, "0,0,0,0,1"])
    def test_repeated_baby_steps_dirty_the_lane(self, spec):
        # a point of order m + 2 .. 2m meets no baby step at infinity, but
        # iP = -jP for two baby steps i != j, i + j its order: such a lane gives 0
        model = parse_curve(spec)
        seen = 0
        for q in good_primes(model, 230, 400):
            xl = short_model_lanes(model, np.full(q - 1, q, dtype=np.int64))
            x0 = np.arange(1, q, dtype=np.int64)
            on = np.flatnonzero(((x0 * x0 % q + xl.A) * x0 + xl.B) % q)
            xl, x0 = xl.take(on), x0[on]
            lo, hi = hasse_bounds(q)
            m = math.isqrt(hi - lo) + 1
            order = np.zeros_like(x0)
            for k in range(2 * m, 0, -1):  # the least k <= 2m with kP at infinity
                order[xl.ladder(x0, np.ones_like(x0), np.full_like(x0, k))[0][1] == 0] = k
            repeats = order >= m + 2
            d = counting._lane_divisors(xl, x0, np.full_like(x0, lo), np.full_like(x0, hi))
            assert not d[repeats].any(), q
            seen += int(repeats.sum())
        assert seen > 100

    def test_miller_rabin_bases_agree_with_is_prime(self):
        # every odd n in the lane range to 2e5, and the strong pseudoprimes to
        # the base 2 below 1e6, which the bases 7 and 61 must catch
        n = np.arange(LANE_PRIME_FLOOR + 2, 200_001, 2, dtype=np.int64)
        assert counting._is_prime_lanes(n).tolist() == [is_prime(v) for v in n.tolist()]
        primes = set(primes_up_to(1_000_000).tolist())
        fermat = [v for v in range(3, 1_000_000, 2) if pow(2, v - 1, v) == 1 and v not in primes]
        psp = [v for v in fermat if strong_probable_prime(v, 2)]
        assert len(psp) == 46 and psp[0] == 2047
        assert not counting._is_prime_lanes(np.array(psp, dtype=np.int64)).any()

    def test_rare_scalar_fallbacks_on_the_cm_curve(self, monkeypatch):
        # 27 primes went to scalar BSGS when each lane tried two points in two rounds
        calls = []
        real = counting.count_bsgs

        def spy(rc, seed=0):
            calls.append(rc.p)
            return real(rc, seed=seed)

        monkeypatch.setattr(counting, "count_bsgs", spy)
        table = build_table(parse_curve(CM_SPEC), 20_000)
        assert table.np_of(19_997) == count_charsum(ReducedCurve.reduce(table.curve, 19_997))
        assert len(calls) <= 27

    @pytest.mark.parametrize("size", [1_000_000, 10_000_000, 57_000_000])
    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, "0,-1,1,-10,-20"])
    def test_batch_equals_scalar_dispatch(self, spec, size):
        model = parse_curve(spec)
        ps = good_primes(model, size, size + 400)
        assert len(ps) >= 15
        assert count_points(model, ps) == [count_points(model, p) for p in ps]

    def test_batch_across_the_lane_floor(self, curve_a):
        ps = good_primes(curve_a, 2, 600)
        assert ps[0] < LANE_PRIME_FLOOR < ps[-1]
        assert count_points(curve_a, ps) == [count_points(curve_a, p) for p in ps]

    def test_batch_across_lane_blocks(self, curve_a, monkeypatch):
        blocks = spy_lane_blocks(monkeypatch)
        ps = good_primes(curve_a, 57_000_000, 57_006_000)
        got = count_points(curve_a, ps)
        assert blocks[0][0] < len(ps) < 2 * blocks[0][0]  # the first round runs in two blocks
        assert got == [count_points(curve_a, p) for p in ps]

    def test_blocks_stay_within_lane_cells(self, curve_a, monkeypatch):
        blocks = spy_lane_blocks(monkeypatch)
        ps = good_primes(curve_a, *hasse_prime_window(57_000_000))
        count_points(curve_a, ps)
        assert all(lanes * rows <= LANE_CELLS for lanes, rows in blocks)
        assert blocks[0] == (LANE_CELLS // 263, 263)
        assert sum(lanes for lanes, _ in blocks) >= len(ps)
        # a range cut from the Hasse intervals: narrower blocks, still within the bound
        blocks.clear()
        count_points(curve_a, ps, within=(56_990_000, 57_003_000))
        assert all(lanes * rows <= LANE_CELLS for lanes, rows in blocks)
        assert len(blocks) > 2 and blocks[0][1] < 263
        blocks.clear()
        g1(curve_a, 57_000_000)
        assert blocks[0] == (len(ps), 4)

    def test_retry_round_is_one_call_per_chunk(self, curve_a, monkeypatch):
        # each chunk's first round runs in LANE_CELLS blocks, and the lanes it
        # leaves open take their retry points in one more call
        blocks = spy_lane_blocks(monkeypatch)
        table = build_table(curve_a, 115_000)
        assert all(lanes * rows <= LANE_CELLS for lanes, rows in blocks)
        chunks = [table.ps[i : i + CHUNK_PRIMES] for i in range(0, len(table), CHUNK_PRIMES)]
        assert len(chunks) == 2
        k = 0
        for chunk in chunks:
            want, seen = int((chunk > LANE_PRIME_FLOOR).sum()), 0
            while seen < want:
                seen, k = seen + blocks[k][0], k + 1
            assert seen == want
            k += 1  # the retry round
        assert k == len(blocks)

    def test_rejects_bad_and_composite_inputs(self, curve_a):
        assert count_points(curve_a, []) == []
        with pytest.raises(BadReductionError):
            count_points(curve_a, [5, 37])
        with pytest.raises(ValueError):
            count_points(curve_a, [100_003, 100_001])  # 100001 = 11 * 9091



class TestSievedBatches:
    """Sieve output reaches the lanes without a second primality proof;
    every other batch is proved prime lane by lane."""

    def test_searches_and_builds_prove_no_sieved_prime_again(self, curve_a, monkeypatch):
        proofs, lanes = [], []
        real_proof, real_lanes = counting._is_prime_lanes, counting._lane_counts

        def proof(p):
            proofs.append(len(p))
            return real_proof(p)

        def lane_counts(model, p, *args):
            lanes.append(len(p))
            return real_lanes(model, p, *args)

        monkeypatch.setattr(counting, "_is_prime_lanes", proof)
        monkeypatch.setattr(counting, "_lane_counts", lane_counts)
        monkeypatch.setattr(search, "_SMALLEST_CACHE", {})
        for run in (
            lambda: g1(curve_a, 1_000_000),
            lambda: find_progressions(curve_a, 1_000_000, 1_000_500),
            lambda: gk_solutions(curve_a, 2, 100_000),
            lambda: build_table(curve_a, 20_000),
        ):
            lanes.clear()
            run()
            assert sum(lanes) > 0 and proofs == []  # lanes ran, and none was proved prime
        ps = good_primes(curve_a, 1_000_000, 1_002_000)
        count_points(curve_a, ps)
        assert proofs == [len(ps)]

    def test_a_composite_at_the_end_of_a_long_batch_raises(self, curve_a, monkeypatch):
        blocks = spy_lane_blocks(monkeypatch)
        ps = good_primes(curve_a, 1_000_000, 1_040_000)[:2000]
        assert len(ps) == 2000
        with pytest.raises(ValueError, match="1022117 is not prime"):
            count_points(curve_a, ps + [1009 * 1013])
        assert blocks == []  # refused before any lane is counted

    def test_window_split_on_a_discriminant_past_int64(self):
        # y^2 = x^3 + 1000003 * 10^6: disc = -432 a6^2, and the prime 1000003 divides it
        model = parse_curve("0,0,0,0,1000003000000")
        assert abs(model.disc) >= 2**63 and model.disc % 1_000_003 == 0
        lo, hi = 999_700, 1_000_300
        ps, nps = search._np_window(model, lo, hi, None, 0)
        assert ps == [p for p in primes_in_range(lo, hi).tolist() if model.disc % p]
        assert nps == [count_points(model, p) for p in ps]
        with pytest.raises(BadReductionError):
            count_points(model, ps + [1_000_003])


def orders(xl, x0, n):
    """ord(P) per lane, x(P) = x0 != 0, from a multiple n of it, by the ladder."""
    o = n.copy()
    for r in [r for r in range(2, int(n.max()) + 1) if is_prime(r) and (n % r == 0).any()]:
        while True:
            can = o % r == 0
            drop = can & (xl.ladder(x0, np.ones_like(x0), np.where(can, o // r, 1))[0][1] == 0)
            if not drop.any():
                break
            o[drop] //= r
    return o


class TestWithin:
    """count_points(..., within=(a, b)) against the full count, masked to [a, b]."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, "0,-1,1,-10,-20", *TWO_TORSION_SPECS])
    def test_equals_the_masked_full_count(self, spec, seed):
        model = parse_curve(spec)
        for size in (230, 5_000, 1_000_000, 10_000_000, 57_000_000):
            ps = good_primes(model, size, size + 300)
            full = count_points(model, ps, seed=seed)
            lo, hi = hasse_bounds(ps[0])[0], hasse_bounds(ps[-1])[1]
            n = full[len(full) // 2]
            unattained = next(v for v in range(n, hi) if v not in full)
            ranges = [
                (n, n),
                (unattained, unattained),
                (n - 5, n + 5),
                (lo - 10, lo + 10),  # across the low end of the first prime's interval
                (hi - 10, hi + 10),  # and the high end of the last one's
                (lo - 100, hi + 100),
                (lo, hi),
                (n, n - 1),
                (1, 2**70),
            ]
            for a, b in ranges:
                want = [v if a <= v <= b else 0 for v in full]
                assert count_points(model, ps, seed=seed, within=(a, b)) == want, (size, a, b)

    def test_g1_off_the_multiples_of_two_torsion_runs_no_lane(self, monkeypatch):
        # 4 divides N_p on the CM curve, so no prime has N_p = n for n = 2 mod 4
        model = parse_curve(CM_SPEC)
        blocks = spy_lane_blocks(monkeypatch)
        for n in (1_000_002, 10_000_006):
            assert g1(model, n).primes == ()
            assert blocks == []
            full = count_points(model, good_primes(model, *hasse_prime_window(n)))
            assert n not in full and all(v % 4 == 0 for v in full)
            blocks.clear()
        assert g1(model, 10_000_008).primes != () and blocks

    def test_ranges_with_no_lane(self, curve_a):
        ps = good_primes(curve_a, 2, 240)
        full = count_points(curve_a, ps)
        assert count_points(curve_a, ps, within=(100, 200)) == [v if 100 <= v <= 200 else 0 for v in full]
        assert count_points(curve_a, [], within=(1, 5)) == []

    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_one_prime_is_masked_like_a_batch(self, curve_a, kind):
        # one prime per counting method: enumeration, charsum and BSGS
        for q in (3, 1009, 1_000_003):
            n = count_points(curve_a, q)
            for a, b in ((n, n), (n - 5, n + 5), (1, n - 1), (n + 1, 2**70), (n, n - 1)):
                want = n if a <= n <= b else 0
                assert count_points(curve_a, kind(q), within=(a, b)) == want == count_points(
                    curve_a, [q], within=(a, b)
                )[0], (q, a, b)

    @pytest.mark.parametrize("spec", ["0,0,1,-1,0", CM_SPEC, *TWO_TORSION_SPECS])
    def test_a_clean_lane_says_none_only_when_no_multiple_lies_in_range(self, spec):
        # every x0 of small primes, each with a random [a, b] inside its Hasse
        # interval: -1 exactly when no multiple of lcm(|E(Q)[2]|, ord(P)) lies there
        model = parse_curve(spec)
        t = model.two_torsion_order
        rng = np.random.default_rng(5)
        nones = hits = 0
        for q in good_primes(model, 231, 699):
            xl = short_model_lanes(model, np.full(q - 1, q, dtype=np.int64))
            x0 = np.arange(1, q, dtype=np.int64)
            f = ((x0 * x0 % q + xl.A) * x0 + xl.B) % q
            on = np.flatnonzero(f)
            xl, x0, f = xl.take(on), x0[on], f[on]
            lo, hi = hasse_bounds(q)
            a = rng.integers(lo, hi + 1, len(x0))
            b = np.minimum(a + rng.integers(0, [1, 8, hi - lo + 1][q % 3], len(x0)), hi)
            n = count_charsum(ReducedCurve.reduce(model, q))
            twist = np.array([pow(int(v), (q - 1) // 2, q) != 1 for v in f])
            o = np.lcm(t, orders(xl, x0, np.where(twist, 2 * q + 2 - n, n)))
            first, last = (a + o - 1) // o * o, b // o * o
            want = np.where(first > last, -1, np.where(first == last, first, o))
            d = counting._lane_divisors(xl, x0, a, b, t)
            assert ((d == want) | (d == 0)).all(), q
            nones += int((d == -1).sum())
            hits += int((d > 0).sum())
        assert nones > 1000 and hits > 1000


class TestHasseInvariants:
    def test_hasse_bounds_are_exact(self):
        for p in primes_up_to(3000).tolist():
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
