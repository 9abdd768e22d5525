import math
from collections import Counter
from itertools import combinations

import pytest

from ellnum import search
from ellnum.arith import loglog, omega, omega_table, primes_in_range
from ellnum.counting import count_points
from ellnum.errors import CensusBudgetError, TableError
from ellnum.search import (
    bk_count,
    default_epsilon,
    dense_product_count,
    find_progressions,
    g1,
    gk_census,
    gk_solutions,
    hasse_prime_window,
)


def test_default_epsilon_rule():
    assert default_epsilon(3) == 0.008
    for k in (1, 2, 4, 5, 8):
        eps = default_epsilon(k)
        assert eps == pytest.approx(0.9 * 2 / (20 * (k * k + k)))
        assert 0 < eps < 2 / (20 * (k * k + k))


class TestHasseWindow:
    def test_window_around_1057(self):
        assert hasse_prime_window(1057) == (993, 1123)
        assert 993 <= 1009 <= 1123 and 993 <= 1063 <= 1123

    def test_window_around_624_contains_published_primes(self):
        lo, hi = hasse_prime_window(624)
        assert all(lo <= p <= hi for p in (593, 619, 661))

    def test_window_around_1(self):
        lo, hi = hasse_prime_window(1)
        assert lo >= 1
        assert {2, 3} <= set(range(lo, hi + 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hasse_prime_window(0)

    def test_soundness_no_solution_escapes(self, curve_a, table_a5k):
        # every prime with N_p = n must land inside the window of n
        hits = {}
        for p, n in table_a5k:
            if p <= 400:
                hits.setdefault(n, []).append(p)
        for n, ps in hits.items():
            lo, hi = hasse_prime_window(n)
            assert all(lo <= p <= hi for p in ps), (n, ps)

    def test_window_is_exactly_the_hasse_set(self):
        # integer window == {m : (n - m - 1)^2 <= 4m, m >= 1}, checked directly
        for n in list(range(1, 200)) + [1057, 3360]:
            lo, hi = hasse_prime_window(n)
            direct = [m for m in range(1, n + 4 * math.isqrt(n) + 8) if (n - m - 1) ** 2 <= 4 * m]
            assert direct == list(range(lo, hi + 1))


class TestG1:
    def test_published_pair_at_1057(self, curve_a):
        rec = g1(curve_a, 1057)
        assert rec.primes == (1009, 1063)
        assert rec.multiplicity == 2

    def test_second_curve_624(self, curve_b):
        rec = g1(curve_b, 624)
        assert rec.primes == (593, 619, 661)

    def test_no_solutions_for_2(self, curve_a):
        assert g1(curve_a, 2).multiplicity == 0

    def test_n_1_handled_without_special_case(self, curve_a):
        assert g1(curve_a, 1).multiplicity == 0

    def test_exactness_against_brute_force(self, curve_a, table_a5k):
        # windows up to n = 2000 stay inside the p <= 5000 table
        brute = Counter(n for _, n in table_a5k)
        for n in range(1, 2001):
            assert g1(curve_a, n, table=table_a5k).multiplicity == brute.get(n, 0), n


class TestFindProgressions:
    def test_range_600_700_contains_624(self, curve_b):
        recs = find_progressions(curve_b, 600, 700, 3)
        assert any(r.n == 624 for r in recs)

    def test_empty_range(self, curve_a):
        assert find_progressions(curve_a, 5, 4, 2) == []

    def test_rejects_nonpositive_start(self, curve_a):
        with pytest.raises(ValueError):
            find_progressions(curve_a, 0, 10, 2)

    def test_published_extract_rows(self, curve_b):
        recs = {r.n: r.multiplicity for r in find_progressions(curve_b, 10262, 11441, 2)}
        expected = {10262: 2, 10494: 2, 10630: 2, 10697: 2, 10704: 2, 11072: 2,
                    11100: 2, 11168: 2, 11276: 2, 11422: 3, 11441: 2}
        for n, mult in expected.items():
            assert recs[n] == mult, n

    def test_counts_each_window_prime_once(self, curve_b, monkeypatch):
        calls = []
        real = search.count_points

        def counted(model, p, *args, **kwargs):
            calls.append(p)
            return real(model, p, *args, **kwargs)

        monkeypatch.setattr(search, "count_points", counted)
        find_progressions(curve_b, 10262, 11441, 2)
        lo, hi = hasse_prime_window(10262)[0], hasse_prime_window(11441)[1]
        assert calls == [p for p in primes_in_range(lo, hi) if curve_b.disc % p]

    def test_matches_g1_across_table_limit(self, curve_a, table_a5k):
        # the union window [4763, 5242] runs past the table's limit of 5000,
        # so it is read partly from the table and partly by counting
        n_lo, n_hi = 4900, 5100
        assert hasse_prime_window(n_lo)[0] < table_a5k.limit < hasse_prime_window(n_hi)[1]
        oracle = [rec for rec in (g1(curve_a, n) for n in range(n_lo, n_hi + 1)) if rec.multiplicity]
        assert find_progressions(curve_a, n_lo, n_hi, 1, table=table_a5k) == oracle
        assert find_progressions(curve_a, n_lo, n_hi, 2, table=table_a5k) == [
            rec for rec in oracle if rec.multiplicity >= 2
        ]

    def test_min_multiplicity_filters(self, curve_b):
        at2 = find_progressions(curve_b, 11400, 11450, 2)
        at3 = find_progressions(curve_b, 11400, 11450, 3)
        assert {r.n for r in at3} <= {r.n for r in at2}
        assert all(r.multiplicity >= 3 for r in at3)


class TestGkSolutions:
    def test_published_triples_3360(self, curve_a):
        sol = gk_solutions(curve_a, 3, 3360)
        assert {(2, 13, 43), (3, 5, 67)} <= set(sol.solutions)
        assert sol.count >= 2
        assert sol.count == 3  # the search also finds (3, 19, 29)

    def test_published_triples_25200(self, curve_a):
        sol = gk_solutions(curve_a, 3, 25200)
        assert {(5, 43, 73), (17, 19, 61)} <= set(sol.solutions)
        assert sol.count == 7

    def test_k1_consistency_with_g1(self, curve_a):
        sol = gk_solutions(curve_a, 1, 1057)
        assert sol.count == 2
        assert sol.solutions == ((1009,), (1063,))
        assert sol.count == g1(curve_a, 1057).multiplicity

    def test_solutions_are_canonical_distinct_sets(self, curve_a):
        sol = gk_solutions(curve_a, 3, 3360)
        for s in sol.solutions:
            assert list(s) == sorted(s)
            assert len(set(s)) == len(s)
        assert len(set(sol.solutions)) == sol.count

    def test_products_reproduce_n(self, curve_a):
        for n in (3360, 25200, 5040):
            sol = gk_solutions(curve_a, 3, n)
            for s in sol.solutions:
                assert math.prod(count_points(curve_a, p) for p in s) == n

    def test_no_solutions_below_min_product(self, curve_a):
        assert gk_solutions(curve_a, 3, 30).count == 0
        assert gk_solutions(curve_a, 2, 1).count == 0

    def test_counts_each_prime_once(self, curve_a, monkeypatch):
        # the k-1 smallest N_p are scanned once per process and cached;
        # past that scan, the overlapping divisor windows are read as one union
        search._smallest_np_values(curve_a, 2, None, 0)
        calls = []
        real = search.count_points

        def counted(model, p, *args, **kwargs):
            calls.append(p)
            return real(model, p, *args, **kwargs)

        monkeypatch.setattr(search, "count_points", counted)
        sol = gk_solutions(curve_a, 3, 3017520)
        assert len(calls) == len(set(calls))
        assert {(101, 107, 251), (113, 127, 167)} <= set(sol.solutions)
        assert sol.count == 25

    def test_smallest_scan_counts_each_prime_once(self, curve_a, monkeypatch):
        # 200 values outgrow the first bound of 1000, so the scan grows its window
        monkeypatch.setattr(search, "_SMALLEST_CACHE", {})
        calls = []
        real = search.count_points

        def counted(model, p, *args, **kwargs):
            calls.append(p)
            return real(model, p, *args, **kwargs)

        monkeypatch.setattr(search, "count_points", counted)
        picked = search._smallest_np_values(curve_a, 200, None, 0)
        assert max(calls) > 1000
        assert calls == [p for p in primes_in_range(2, max(calls)) if curve_a.disc % p]
        assert picked == tuple(sorted(real(curve_a, p) for p in calls)[:200])

    def test_rejects_bad_arguments(self, curve_a):
        with pytest.raises(ValueError):
            gk_solutions(curve_a, 0, 10)
        with pytest.raises(ValueError):
            gk_solutions(curve_a, 2, 0)


class TestCensus:
    def test_empty_bound(self, curve_a, table_a5k):
        census = gk_census(curve_a, 3, 0, table=table_a5k)
        assert len(census) == 0
        assert census.csv_lines() == ["n,count"]

    def test_self_consistency_small(self, curve_a, table_a5k):
        census = gk_census(curve_a, 3, 3000, table=table_a5k)
        np_of = dict(iter(table_a5k))
        for n, count in census.items():
            assert n <= 3000
            sets = census.witnesses(n)
            assert len(sets) == count
            for s in sets:
                assert math.prod(np_of[p] for p in s) == n

    def test_census_equals_gk_solutions_at_1e4_k2(self, curve_a, table_a5k):
        census = gk_census(curve_a, 2, 10_000, table=table_a5k)
        for n, count in census.items():
            assert count == gk_solutions(curve_a, 2, n, table=table_a5k).count, n

    def test_census_covers_all_attained_products(self, curve_a, table_a5k):
        # independent oracle: enumerate pairs of good primes directly
        census = gk_census(curve_a, 2, 2_000, table=table_a5k)
        pairs = Counter()
        entries = [(p, n) for p, n in table_a5k if n <= 1000]
        for (p1, n1), (p2, n2) in combinations(entries, 2):
            if n1 * n2 <= 2000:
                pairs[n1 * n2] += 1
        assert dict(census.items()) == dict(pairs)

    def test_k1_census_counts_value_multiplicity(self, curve_a, table_a5k):
        census = gk_census(curve_a, 1, 500, table=table_a5k)
        brute = Counter(n for _, n in table_a5k if n <= 500)
        assert dict(census.items()) == dict(brute)

    def test_budget_error_reports_feasible_bound(self, curve_a, table_a5k):
        with pytest.raises(CensusBudgetError) as exc:
            gk_census(curve_a, 2, 10_000, table=table_a5k, budget=10)
        bound = exc.value.feasible_bound
        assert 1 <= bound < 10_000
        retry = gk_census(curve_a, 2, bound, table=table_a5k, budget=10)
        assert retry.total_products <= 10

    def test_short_or_foreign_table_raises(self, curve_a, curve_b, table_a5k):
        # k = 2 at 1e5: factors up to 1e5 / 5, whose Hasse window ends at 20283
        with pytest.raises(TableError) as exc:
            gk_census(curve_a, 2, 100_000, table=table_a5k)
        msg = str(exc.value)
        assert "20283" in msg and "5000" in msg and "0,0,1,-1,0" in msg
        with pytest.raises(TableError):
            gk_census(curve_b, 2, 1_000, table=table_a5k)

    def test_4e6_witness_counts(self, curve_a, table_a):
        census = gk_census(curve_a, 3, 4_000_000, table=table_a)
        assert census.count(3017520) == 25
        assert census.count(3107520) == 7
        wit = census.witnesses(3017520)
        assert len(wit) == len(set(wit)) == 25
        assert {(101, 107, 251), (113, 127, 167)} <= set(wit)


def _brute_bk(model, k, x, epsilon, table):
    threshold = (1 - epsilon) * loglog(x)
    ps, nps = table.upto(x)
    adm = [int(p) for p, v in zip(ps, nps) if omega(int(v)) >= threshold]
    return sum(1 for combo in combinations(adm, k) if math.prod(combo) <= x)


class TestBkCount:
    def test_k1_is_a_subset_of_primes(self, curve_a, table_a):
        rep = bk_count(curve_a, 1, 10_000, 0.008, table=table_a)
        assert rep.count <= 1229  # pi(10^4)

    def test_matches_double_loop_at_100(self, curve_a, table_a5k):
        rep = bk_count(curve_a, 2, 100, 0.008, table=table_a5k)
        assert rep.count == _brute_bk(curve_a, 2, 100, 0.008, table_a5k)

    def test_matches_double_loop_at_5000(self, curve_a, table_a5k):
        rep = bk_count(curve_a, 2, 5_000, 0.008, table=table_a5k)
        brute = _brute_bk(curve_a, 2, 5_000, 0.008, table_a5k)
        assert rep.count == brute
        assert brute > 0  # the check is not vacuous at this bound

    def test_density_ratio_definition(self, curve_a, table_a5k):
        rep = bk_count(curve_a, 2, 5_000, 0.008, table=table_a5k)
        assert rep.density_ratio == pytest.approx(rep.count * math.log(5_000) / 5_000)

    def test_range_restriction(self, curve_a, table_a5k):
        # oracle with primes confined to [x^a, x^b)
        x, a, b, eps = 5_000, 1 / 8, 1 / 2, 0.008
        rep = bk_count(curve_a, 2, x, eps, a=a, b=b, table=table_a5k)
        threshold = (1 - eps) * loglog(x)
        ps, nps = table_a5k.upto(x)
        adm = [
            int(p) for p, v in zip(ps, nps)
            if omega(int(v)) >= threshold and x**a <= p < x**b
        ]
        brute = sum(1 for c in combinations(adm, 2) if math.prod(c) <= x)
        assert rep.count == brute

    def test_empty_at_1e5_k3(self, curve_a, table_a):
        # the three smallest admissible primes (43, 61, 67) already multiply
        # past 1e5, so the count is zero at this scale
        rep = bk_count(curve_a, 3, 100_000, 0.008, table=table_a)
        assert rep.count == 0
        assert rep.density_ratio == 0.0

    def test_short_table_raises(self, curve_a, table_a5k):
        with pytest.raises(TableError) as exc:
            bk_count(curve_a, 2, 10_000, table=table_a5k)
        assert "10000" in str(exc.value) and "5000" in str(exc.value)

    def test_argument_validation(self, curve_a, table_a5k):
        with pytest.raises(ValueError):
            bk_count(curve_a, 2, 100, 1.5, table=table_a5k)
        with pytest.raises(ValueError):
            bk_count(curve_a, 2, 100, 0.008, a=0.25, table=table_a5k)
        with pytest.raises(ValueError):
            bk_count(curve_a, 2, 100, 0.008, a=0.5, b=0.25, table=table_a5k)
        with pytest.raises(ValueError):
            bk_count(curve_a, 0, 100, 0.008, table=table_a5k)


def _brute_dense(x, k, epsilon):
    if x < 2:
        return 0
    threshold = (1 - epsilon) * math.log(math.log(x))
    wtab = omega_table(x)
    ok = [m for m in range(1, x + 1) if wtab[m] > threshold]
    okset = set(ok)

    def splits(n, parts):
        if parts == 1:
            return n in okset
        return any(
            n % d == 0 and d in okset and splits(n // d, parts - 1)
            for d in range(1, n + 1)
        )

    return sum(1 for n in range(1, x + 1) if splits(n, k))


class TestDenseProducts:
    def test_tiny_examples(self):
        assert dense_product_count(7, 3, 0.008) == 0
        assert dense_product_count(16, 3, 0.008) == 0

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("x", [50, 120, 200])
    def test_matches_exhaustive_oracle(self, x, k):
        assert dense_product_count(x, k, 0.008) == _brute_dense(x, k, 0.008)

    def test_counts_are_attained_at_1e5(self):
        # threshold at x = 1e5 needs omega >= 3 per factor, so n >= 30^3
        assert dense_product_count(100_000, 3, 0.008) > 0

    def test_monotone_in_x(self):
        lo = dense_product_count(50_000, 3, 0.008)
        hi = dense_product_count(100_000, 3, 0.008)
        assert 0 <= lo <= hi <= 100_000

    def test_zero_at_1e4(self):
        assert dense_product_count(10_000, 3, 0.008) == 0

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError):
            dense_product_count(2_000_000, 3, 0.008)
