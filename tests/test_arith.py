import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellnum.arith import (
    FactorSieve,
    divides,
    divisors,
    factorize,
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
from ellnum.curves import CurveModel
from ellnum.table import build_table


class TestPrimes:
    def test_examples(self):
        assert primes_up_to(10).tolist() == [2, 3, 5, 7]
        assert len(primes_up_to(50)) == 15
        assert primes_up_to(2).tolist() == [2]
        assert primes_up_to(1).tolist() == []
        assert primes_up_to(0).tolist() == []

    def test_sieves_return_int64_arrays(self):
        for ps in (primes_up_to(1), primes_up_to(100), primes_in_range(200, 100), primes_in_range(90, 200)):
            assert isinstance(ps, np.ndarray) and ps.dtype == np.int64

    def test_pi_of_10000(self):
        assert len(primes_up_to(10_000)) == 1229

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(0, 3000):
            assert is_prime(n) == trial(n), n

    def test_is_prime_past_the_bases_up_to_37(self):
        # psi_12 (Sorenson-Webster), the least strong pseudoprime to every prime base up to 37
        assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441
        assert is_prime(399165290221) and is_prime(798330580441)

    def test_primes_in_range_matches_filter(self):
        ps = primes_up_to(500)
        assert primes_in_range(100, 300).tolist() == [p for p in ps.tolist() if 100 <= p <= 300]
        assert primes_in_range(200, 100).tolist() == []
        assert primes_in_range(-5, 2).tolist() == [2]

    def test_segmented_range(self):
        got = primes_in_range(2_000_000, 2_000_100).tolist()
        assert got and all(is_prime(p) for p in got)
        assert all(2_000_000 <= p <= 2_000_100 for p in got)
        assert got == sorted(got)
        assert 2_000_003 in got

    @pytest.mark.parametrize(
        "lo, hi",
        [(1_048_000, 1_049_500), (1_048_577, 1_050_000), (10, 1_050_000), (900, 1_000_000),
         (1000, 1000), (1024, 1030), (24, 24)],
    )
    def test_segment_equals_a_slice_of_the_full_sieve(self, lo, hi):
        # windows across 2^20, starting below sqrt(hi), or without a prime
        ps = primes_up_to(hi).tolist()
        assert primes_in_range(lo, hi).tolist() == [p for p in ps if p >= lo]


class TestDivides:
    def test_matches_python_remainders_past_int64(self):
        # integers of any size, signs and zero, against primes and against int64 moduli up to 2^63 - 25
        rng = random.Random(21)
        ps = primes_up_to(100_000)
        moduli = np.array([1, 2, 3, 2**31 - 1, 2**62 + 135, 2**63 - 25], dtype=np.int64)
        squarefree = math.prod(rng.sample(ps.tolist(), 40))
        ns = [0, 1, -37, 2**63, -(2**64) * 97, squarefree, -squarefree * 99_991]
        ns += [rng.getrandbits(400) for _ in range(20)] + [(2**63 - 25) * (2**31 - 1) * rng.getrandbits(100)]
        for n in ns:
            assert divides(ps, n).tolist() == [n % p == 0 for p in ps.tolist()], n
            assert divides(moduli, n).tolist() == [n % q == 0 for q in moduli.tolist()], n

    def test_good_and_bad_split_of_a_discriminant_past_int64(self):
        model = CurveModel.from_coefficients(0, 0, 0, 10**7, 10**10)
        assert abs(model.disc) >= 2**63
        ps = primes_up_to(100_000)
        good = ps[~divides(ps, model.disc)]
        assert good.tolist() == [p for p in ps.tolist() if model.disc % p]
        assert build_table(model, 3000).bad_primes == (2, 5, 67)  # disc = -2^24 * 5^20 * 67


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


class TestFactorize:
    def test_matches_sympy(self):
        from sympy import factorint

        rng = random.Random(15)
        ps = primes_in_range(1, 50_000).tolist()
        squares = [q * q for q in ps[:20] + ps[-20:]]
        # p * q with p just below sqrt(p * q): the cofactor left is the prime q
        near_root = [p * q for p, q in zip(ps[-20:], primes_in_range(50_001, 50_400).tolist())]
        seeded = [rng.randint(2, 2 * 10**9) for _ in range(300)]
        for n in [1, 2, 3, 4, 1_988_217_000] + ps[:50] + ps[-50:] + squares + near_root + seeded:
            assert factorize(n) == sorted(factorint(n).items()), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_cofactor_left_after_early_stop(self):
        # the loop stops once q^2 exceeds the cofactor; what is left is one prime
        big, p, q = 999_999_937, 46_337, 46_349  # primes; p < sqrt(p * q) < q
        assert factorize(2 * big) == [(2, 1), (big, 1)]
        assert factorize(3 * 2 * big) == [(2, 1), (3, 1), (big, 1)]
        assert factorize(p * p) == [(p, 2)]
        assert factorize(p**3) == [(p, 3)]
        assert factorize(4 * p * p) == [(2, 2), (p, 2)]
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(2**31 - 1) == [(2**31 - 1, 1)]
        assert factorize(2**31) == [(2, 31)]


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
        near_root = primes_in_range(root - 60, root).tolist()
        ns += [q * q for q in near_root]
        ns += primes_in_range(limit - 200, limit).tolist()
        ns += [2 * p for p in primes_in_range(limit // 2 - 100, limit // 2).tolist()]
        pairs = [(q, p) for q in (2, 3, 5, near_root[0]) for p in primes_in_range(root + 1, root + 60).tolist()]
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
