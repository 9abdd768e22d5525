import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellnum.arith import (
    FactorSieve,
    divisors,
    iroot,
    is_prime,
    is_squarefree,
    loglog,
    omega,
    omega_table,
    primes_in_range,
    primes_up_to,
    reciprocal_prime_sum,
)


class TestPrimes:
    def test_examples(self):
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert len(primes_up_to(50)) == 15
        assert primes_up_to(2) == [2]
        assert primes_up_to(1) == []
        assert primes_up_to(0) == []

    def test_pi_of_10000(self):
        assert len(primes_up_to(10_000)) == 1229

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(0, 3000):
            assert is_prime(n) == trial(n), n

    def test_primes_in_range_matches_filter(self):
        ps = primes_up_to(500)
        assert primes_in_range(100, 300) == [p for p in ps if 100 <= p <= 300]
        assert primes_in_range(200, 100) == []
        assert primes_in_range(-5, 2) == [2]

    def test_segmented_range(self):
        got = primes_in_range(2_000_000, 2_000_100)
        assert got and all(is_prime(p) for p in got)
        assert all(2_000_000 <= p <= 2_000_100 for p in got)
        assert got == sorted(got)
        assert 2_000_003 in got


class TestFactorSieve:
    def test_spf_invariant(self):
        sieve = FactorSieve(500)
        for n in range(2, 501):
            q = int(sieve.spf[n])
            assert is_prime(q) and n % q == 0
            assert all(n % r for r in range(2, q))

    def test_factorize_reconstructs(self):
        sieve = FactorSieve(10_000)
        for n in range(1, 2001):
            prod = 1
            for q, e in sieve.factorize(n):
                assert is_prime(q)
                prod *= q**e
            assert prod == n

    def test_trial_division_fallback_above_limit(self):
        sieve = FactorSieve(100)
        assert sieve.factorize(9991) == [(97, 1), (103, 1)]
        assert sieve.factorize(10_000) == [(2, 4), (5, 4)]
        with pytest.raises(ValueError):
            sieve.factorize(10**10 + 19)

    def test_rejects_zero(self):
        sieve = FactorSieve(100)
        with pytest.raises(ValueError):
            sieve.factorize(0)


class TestAdditiveFunctions:
    def test_omega_examples(self):
        assert omega(1) == 0
        assert omega(3360) == 4  # 2^5 * 3 * 5 * 7
        assert omega(1057) == 2  # 7 * 151

    def test_errors_on_zero(self):
        with pytest.raises(ValueError):
            omega(0)

    def test_order_relations_up_to_1e4(self):
        sieve = FactorSieve(10_000)
        for n in range(2, 10_001):
            w = omega(n)
            assert w <= sum(e for _, e in sieve.factorize(n)) <= math.log2(n) + 1e-9

    def test_omega_table_matches_pointwise(self):
        for limit in (3000, 120_000):
            table = omega_table(limit)
            assert len(table) == limit + 1 and table[0] == table[1] == 0
            for n in range(2, limit + 1):
                assert int(table[n]) == omega(n), n

    def test_omega_table_sampled_to_5_8e6(self):
        # seeded values plus the edges of the sieve: prime squares near
        # sqrt(limit), and values whose cofactor is a prime above it
        limit = 5_800_000
        root = math.isqrt(limit)
        rng = random.Random(20_000)
        ns = [rng.randint(2, limit) for _ in range(2000)]
        near_root = primes_in_range(root - 60, root)
        ns += [q * q for q in near_root]
        ns += primes_in_range(limit - 200, limit)
        ns += [2 * p for p in primes_in_range(limit // 2 - 100, limit // 2)]
        pairs = [(q, p) for q in (2, 3, 5, near_root[0]) for p in primes_in_range(root + 1, root + 60)]
        ns += [q * p for q, p in pairs if q * p <= limit]
        table = omega_table(limit)
        for n in ns:
            assert int(table[n]) == omega(n), n

    def test_divisors_listing(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert len(divisors(3360)) == 48  # 2^5 * 3 * 5 * 7: 6 * 2 * 2 * 2

    def test_is_squarefree_matches_square_divisors(self):
        for n in range(1, 5001):
            direct = all(n % (d * d) for d in range(2, math.isqrt(n) + 1))
            assert is_squarefree(n) == direct, n


class TestDivisorSumBound:
    @pytest.mark.parametrize("x", [1_000, 10_000, 100_000])
    def test_average_order_bound(self, x):
        # independent identity: sum_{n<=x} d(n) = sum_{d<=x} floor(x/d)
        hyperbola = sum(x // d for d in range(1, x + 1))
        assert hyperbola <= 2 * x * math.log(x)
        if x <= 10_000:
            direct = sum(len(divisors(n)) for n in range(1, x + 1))
            assert direct == hyperbola


class TestMertens:
    def test_reciprocal_sum_in_band(self):
        # primes in [x^(1/8), x^(1/4)] at x = 1e8, i.e. [10, 100]
        s = reciprocal_prime_sum(10, 100)
        assert abs(s - math.log(1 / 4) + math.log(1 / 8)) <= 0.2
        assert abs(s - math.log(2)) <= 0.2


class TestLogLog:
    def test_fixed_point(self):
        assert loglog(math.e**math.e) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_1e5(self):
        # direct evaluation: log(log(100000)) = log(11.512925...)
        assert loglog(1e5) == pytest.approx(2.443470357682056, abs=1e-9)

    @pytest.mark.parametrize("x", [3, 15.0, 1, -4])
    def test_guard(self, x):
        with pytest.raises(ValueError):
            loglog(x)


class TestIroot:
    @given(st.integers(0, 10**12), st.integers(1, 6))
    def test_exact_floor_root(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
