"""Sieves and elementary arithmetic functions applied to point counts.

factorize is trial division up to the square root of the cofactor;
divisors and is_squarefree go through it. omega_table counts distinct
prime factors over a whole range at once, and the pipeline reads
omega(N_p) from it.
The factor sieve (smallest prime factors up to a limit, default 2 * 10**6;
larger values go to factorize) and the per-value omega on top of it are
off the pipeline's path: they stay as the reference that omega_table is
tested against and as perfbench's probes.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SIEVE_LIMIT = 2_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, exact below psi_13 =
    3317044064679887385961981, about 3.3 * 10**24 (Sorenson-Webster, Math.
    Comp. 2017); from psi_13 on, True means a strong probable prime."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x in ascending order, as an int64 array; empty for x < 2."""
    return primes_in_range(2, x)


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p <= hi, ascending, as an int64 array: [lo, hi] is
    sieved by the base primes <= isqrt(hi), which one sieve of [0, isqrt(hi)]
    finds with a Python loop over i <= hi^(1/4) only."""
    if hi < 2 or hi < lo:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 2)
    base = np.ones(math.isqrt(hi) + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(len(base) - 1) + 1):
        if base[i]:
            base[i * i :: i] = False
    sieve = np.ones(hi - lo + 1, dtype=bool)
    for q in np.flatnonzero(base).tolist():
        start = max(q * q, (lo + q - 1) // q * q)
        sieve[start - lo :: q] = False
    ps = np.flatnonzero(sieve).astype(np.int64, copy=False)
    ps += lo  # in place: one prime array besides the sieve at the peak
    return ps


def divides(ps: np.ndarray, n: int) -> np.ndarray:
    """Whether each p >= 1 of the int64 array ps divides the integer n of any size:
    |n| mod p by Horner's rule over k-bit limbs, with k small enough that r * 2^k + limb fits uint64."""
    u, k, n, r = ps.astype(np.uint64), 64 - int(ps.max(initial=1)).bit_length(), abs(n), np.uint64(0)
    for shift in range(n.bit_length() // k * k, -1, -k):
        r = (r << np.uint64(k) | np.uint64(n >> shift & ((1 << k) - 1))) % u
    return r == 0


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs,
    by trial division that stops once q^2 exceeds the cofactor: a cofactor
    left above 1 then has no prime factor up to its square root, so it is
    prime."""
    if n < 1:
        raise ValueError("factorization needs n >= 1")
    out: list[tuple[int, int]] = []
    for q in primes_up_to(math.isqrt(n)).tolist():
        if q * q > n:
            break
        if n % q:
            continue
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        out.append((q, e))
    if n > 1:
        out.append((n, 1))
    return out


class FactorSieve:
    """Smallest-prime-factor table for 2 <= n <= limit."""

    def __init__(self, limit: int = DEFAULT_SIEVE_LIMIT):
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        self.limit = limit
        spf = np.zeros(limit + 1, dtype=np.int64)
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == 0:
                block = spf[i * i :: i]
                block[block == 0] = i
        rest = np.flatnonzero(spf[2:] == 0) + 2
        spf[rest] = rest
        self.spf = spf

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n >= 1 as (prime, exponent) pairs; n above
        the limit, up to its square, goes to trial division."""
        if n < 1:
            raise ValueError("factorization needs n >= 1")
        if n > self.limit:
            if math.isqrt(n) > self.limit:
                raise ValueError(f"{n} exceeds the factorization range of this sieve")
            return factorize(n)
        out: list[tuple[int, int]] = []
        spf = self.spf
        while n > 1:
            q = int(spf[n])
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        return out


_shared_sieve: FactorSieve | None = None


def shared_sieve(at_least: int = DEFAULT_SIEVE_LIMIT) -> FactorSieve:
    """Process-wide sieve, grown on demand and reused by all callers."""
    global _shared_sieve
    if _shared_sieve is None or _shared_sieve.limit < at_least:
        _shared_sieve = FactorSieve(max(at_least, DEFAULT_SIEVE_LIMIT))
    return _shared_sieve


def omega(n: int, sieve: FactorSieve | None = None) -> int:
    """Number of distinct prime factors of n >= 1."""
    sieve = sieve or shared_sieve()
    return len(sieve.factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for q, e in factorize(n):
        out = [d * q**i for d in out for i in range(e + 1)]
    out.sort()
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


# Reject arguments where log(log(x)) would be below 1; statistics callers
# stay at x >= 16 anyway.
LOGLOG_GUARD = math.e**math.e


def loglog(x: float) -> float:
    """log(log(x)), guarded to x >= e^e so the value is at least 1."""
    if x < LOGLOG_GUARD:
        raise ValueError(f"loglog needs x >= e^e (about 15.154), got {x}")
    return math.log(math.log(x))


def reciprocal_prime_sum(lo: float, hi: float) -> float:
    """Sum of 1/p over primes in [lo, hi]."""
    top = math.floor(hi)
    ps = primes_in_range(math.ceil(lo), top).tolist()
    return sum(1.0 / p for p in ps)


def iroot(n: int, k: int) -> int:
    """Exact floor(n ** (1/k)) for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def omega_table(limit: int) -> np.ndarray:
    """omega(n) for all 0 <= n <= limit as a small-int array.

    Only the primes q <= sqrt(limit) are sieved; each strips its powers
    from a cofactor array, and a cofactor left above 1 is the one prime
    factor above sqrt(limit) that a value <= limit can have.
    """
    w = np.zeros(limit + 1, dtype=np.int8)
    rem = np.arange(limit + 1, dtype=np.int32 if limit < 2**31 else np.int64)
    for q in primes_up_to(math.isqrt(limit)).tolist():
        w[q::q] += 1
        qa = q
        while qa <= limit:
            rem[qa::qa] //= q
            qa *= q
    w[2:] += rem[2:] > 1
    return w

