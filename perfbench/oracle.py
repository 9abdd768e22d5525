"""Checks made apart from ellnum: nothing here imports the library.

Point counts are confirmed by group-order tests on the x-line. For a short
model y^2 = x^3 + A x + B over F_p and a random x0, the value f(x0) is a
square (x0 lifts to a point of E) or not (x0 lifts to a point of the
quadratic twist, whose order is 2p + 2 - N_p). A Montgomery ladder on the
x-coordinate, run in numpy with one lane per (prime, point), computes
x(s * P) projectively; s * P is the point at infinity exactly when Z = 0.
A claimed N_p passes when every sampled point is killed by N_p (or by
2p + 2 - N_p on the twist); a wrong value leaves some point alive.

The CM curve y^2 = x^3 - x is checked exactly by its closed form, and the
statistics by trial-division omega.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

CM_COEFFS = (0, 0, 0, -1, 0)

# Points per claim in the first pass, and for every disputed (p, n) pair.
FIRST_POINTS = 3
DISPUTE_POINTS = 12
# Table entries of a non-CM curve recounted exactly by Euler's criterion.
EXACT_SAMPLE = 16


# --- primes and curve invariants --------------------------------------------

def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a segmented sieve of Eratosthenes."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    r = math.isqrt(hi)
    base = np.ones(r + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(r) + 1):
        if base[i]:
            base[i * i :: i] = False
    seg = np.ones(hi - lo + 1, dtype=bool)
    for q in np.flatnonzero(base).tolist():
        start = max(q * q, -(-lo // q) * q)
        seg[start - lo :: q] = False
    return (np.flatnonzero(seg) + lo).tolist()


def invariants(coeffs) -> tuple[int, int, int]:
    """(A, B, disc): E is isomorphic to y^2 = x^3 + A x + B for p >= 5."""
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = (c4 ** 3 - c6 * c6) // 1728
    return -27 * c4, -54 * c6, disc


def hasse_window(n: int) -> tuple[int, int]:
    """Primes p with |n - p - 1| <= 2 sqrt(p) lie in this interval."""
    s = math.isqrt(4 * n)
    return max(1, n + 1 - s), n + 1 + s


def good_primes(coeffs, lo: int, hi: int) -> list[int]:
    disc = invariants(coeffs)[2]
    return [p for p in primes_between(lo, hi) if disc % p]


def naive_count(coeffs, p: int) -> int:
    """1 + affine points of the long Weierstrass model, by enumeration."""
    a1, a2, a3, a4, a6 = coeffs
    total = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0:
                total += 1
    return total


def euler_count(coeffs, p: int) -> int:
    """p + 1 + sum_x (f(x) | p) on the short model, by Euler's criterion."""
    if p < 5:
        return naive_count(coeffs, p)
    A, B, _ = invariants(coeffs)
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p * x + (A % p) * x + B % p) % p
    chi = _powmod(f, np.full(p, (p - 1) // 2, dtype=np.int64), np.full(p, p, dtype=np.int64))
    return p + 1 + int(np.count_nonzero(chi == 1)) - int(np.count_nonzero(chi == p - 1))


# --- the CM curve ------------------------------------------------------------

def _two_squares_odd(p: int) -> int:
    """The odd a with p = a^2 + b^2, for a prime p = 1 (mod 4) (Cornacchia)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r0, r1 = p, pow(c, (p - 1) // 4, p)
    bound = math.isqrt(p)
    while r1 > bound:
        r0, r1 = r1, r0 % r1
    a, b = r1, math.isqrt(p - r1 * r1)
    assert a * a + b * b == p
    return a if a % 2 else b


def cm_count(p: int) -> int:
    """N_p of y^2 = x^3 - x for an odd prime p."""
    if p == 3 or p % 4 == 3:
        return p + 1
    a = _two_squares_odd(p)
    return p + 1 - 2 * a if (p + 1 - 2 * a) % 8 == 0 else p + 1 + 2 * a


# --- x-line arithmetic, one numpy lane per (prime, point) -------------------

def _powmod(b, e, p):
    result = np.ones_like(b)
    b = b % p
    e = e.copy()
    while np.any(e):
        odd = (e & 1).astype(bool)
        result = np.where(odd, result * b % p, result)
        b = b * b % p
        e >>= 1
    return result


class _Lanes:
    """Lane-wise moduli and short-model coefficients."""

    def __init__(self, coeffs, ps):
        A, B, _ = invariants(coeffs)
        self.p = np.asarray(ps, dtype=np.int64)
        self.A = A % self.p
        self.B = B % self.p
        self.B4 = 4 * self.B % self.p
        self.B8 = 8 * self.B % self.p

    def dbl(self, X, Z):
        p = self.p
        X2, Z2 = X * X % p, Z * Z % p
        t = (X2 - self.A * Z2) % p
        XZ = X * Z % p
        Xn = (t * t - self.B8 * (XZ * Z2 % p)) % p
        Zn = 4 * Z * ((X2 * X + self.A * (X * Z2 % p) + self.B * (Z2 * Z % p)) % p) % p
        return Xn, Zn

    def add(self, X1, Z1, X2, Z2, XD, ZD):
        """x(P + Q) from x(P), x(Q) and x(P - Q), all projective."""
        p = self.p
        Z12 = Z1 * Z2 % p
        u = (X1 * X2 - self.A * Z12) % p
        c1, c2 = X1 * Z2 % p, X2 * Z1 % p
        v = self.B4 * Z12 % p * ((c1 + c2) % p) % p
        w = (c1 - c2) % p
        return ZD * ((u * u - v) % p) % p, XD * (w * w % p) % p

    def chi(self, x):
        p = self.p
        f = (x * x % p * x + self.A * x + self.B) % p
        return _powmod(f, (p - 1) // 2, p), f

    def ladder(self, x0, s):
        """(s * P, (s + 1) * P) for the lifts P of x0; x0 != 0."""
        one = np.ones_like(x0)
        R0 = (one, np.zeros_like(x0))
        R1 = (x0, one)
        for i in range(int(s.max()).bit_length() - 1, -1, -1):
            bit = ((s >> i) & 1).astype(bool)
            S = self.add(*R0, *R1, x0, one)
            D0, D1 = self.dbl(*R0), self.dbl(*R1)
            R0 = (np.where(bit, S[0], D0[0]), np.where(bit, S[1], D0[1]))
            R1 = (np.where(bit, D1[0], S[0]), np.where(bit, D1[1], S[1]))
        return R0, R1


def _sample_x(lanes: _Lanes, rng):
    """Random x0 in [1, p - 1] with f(x0) != 0, and whether x0 lifts to E."""
    p = lanes.p
    x0 = rng.integers(1, p)
    while True:
        chi, f = lanes.chi(x0)
        redo = f == 0
        if not redo.any():
            return x0, chi == 1
        x0 = np.where(redo, rng.integers(1, p), x0)


def order_test(coeffs, ps, ns, rng, points: int) -> np.ndarray:
    """For each (p, n): does every one of `points` random points fit N_p = n?"""
    ps = np.repeat(np.asarray(ps, dtype=np.int64), points)
    ns = np.repeat(np.asarray(ns, dtype=np.int64), points)
    if len(ps) == 0:
        return np.zeros(0, dtype=bool)
    lanes = _Lanes(coeffs, ps)
    x0, on_curve = _sample_x(lanes, rng)
    s = np.where(on_curve, ns, 2 * ps + 2 - ns)
    (_, Z), _ = lanes.ladder(x0, s)
    return (Z == 0).reshape(-1, points).all(axis=1)


def _walk_survivors(coeffs, ps, n_lo: int, n_hi: int, rng) -> set[tuple[int, int]]:
    """(p, n) with n in [n_lo, n_hi] that no sampled point rules out.

    Each lane walks s * P over the scalars that match n_lo..n_hi, by
    differential addition from ((s - 1) * P, s * P); lanes where the
    difference has x = 0 are re-seeded by the ladder.
    """
    width = n_hi - n_lo + 1
    if not ps:
        return set()
    if n_hi > 2 * min(ps) + 1:
        raise ValueError("n range reaches past twice the smallest prime; twist scalars would be < 1")
    ps_l = np.repeat(np.asarray(ps, dtype=np.int64), FIRST_POINTS)
    lanes = _Lanes(coeffs, ps_l)
    x0, on_curve = _sample_x(lanes, rng)
    start = np.where(on_curve, n_lo, 2 * ps_l + 2 - n_hi)
    prev, cur = lanes.ladder(x0, start - 1)
    one = np.ones_like(x0)
    alive = np.zeros((width, len(ps_l)), dtype=bool)
    for j in range(width):
        alive[j] = cur[1] == 0
        if j == width - 1:
            break
        nxt = lanes.add(*cur, x0, one, *prev)
        dbl = lanes.dbl(*cur)
        cur_inf, prev_inf = cur[1] == 0, prev[1] == 0
        X = np.where(cur_inf, x0, np.where(prev_inf, dbl[0], nxt[0]))
        Z = np.where(cur_inf, one, np.where(prev_inf, dbl[1], nxt[1]))
        bad = (prev[0] == 0) & ~prev_inf & ~cur_inf
        if bad.any():
            idx = np.flatnonzero(bad)
            sub = _Lanes(coeffs, ps_l[idx])
            (FX, FZ), _ = sub.ladder(x0[idx], start[idx] + j + 1)
            X[idx], Z[idx] = FX, FZ
        prev, cur = cur, (X, Z)
    # row j is scalar start + j: n_lo + j on the curve, n_hi - j on the twist
    alive_n = np.where(on_curve[None, :], alive, alive[::-1])
    keep = alive_n.reshape(width, -1, FIRST_POINTS).all(axis=2)
    js, ks = np.nonzero(keep)
    return {(int(ps[k]), n_lo + int(j)) for j, k in zip(js, ks)}


def point_counts_in_range(coeffs, ps, n_lo: int, n_hi: int, rng) -> dict[int, list[int]]:
    """n -> primes of `ps` with N_p = n, for every n in [n_lo, n_hi].

    Exact for the CM curve. Otherwise the survivors of the walk are
    confirmed with DISPUTE_POINTS more points each.
    """
    out: dict[int, list[int]] = {}
    if tuple(coeffs) == CM_COEFFS:
        for p in ps:
            n = cm_count(p)
            if n_lo <= n <= n_hi:
                out.setdefault(n, []).append(p)
        return out
    pairs = sorted(_walk_survivors(coeffs, ps, n_lo, n_hi, rng))
    if pairs:
        ok = order_test(coeffs, [p for p, _ in pairs], [n for _, n in pairs], rng, DISPUTE_POINTS)
        for (p, n), good in zip(pairs, ok.tolist()):
            if good:
                out.setdefault(n, []).append(p)
    for n in out:
        out[n].sort()
    return out


# --- checks ------------------------------------------------------------------

def check_g1(coeffs, n: int, primes, rng) -> list[str]:
    """Problems with a claimed G_1 answer: the primes p with N_p = n."""
    lo, hi = hasse_window(n)
    window = good_primes(coeffs, lo, hi)
    want = point_counts_in_range(coeffs, window, n, n, rng).get(n, [])
    if list(primes) != want:
        return [f"g1({n}) on {coeffs}: got {list(primes)}, independent {want}"]
    return []


def check_progressions(coeffs, n_lo: int, n_hi: int, min_mult: int, records, rng) -> list[str]:
    """Problems with a claimed list of (n, primes) for G_1(n) >= min_mult."""
    window = good_primes(coeffs, hasse_window(n_lo)[0], hasse_window(n_hi)[1])
    counts = point_counts_in_range(coeffs, window, n_lo, n_hi, rng)
    want = [(n, counts[n]) for n in sorted(counts) if len(counts[n]) >= min_mult]
    got = [(n, list(ps)) for n, ps in records]
    if got != want:
        return [f"progressions [{n_lo}, {n_hi}] on {coeffs}: got {got}, independent {want}"]
    return []


def check_table(coeffs, limit: int, ps, nps, bad, rng, published=None) -> list[str]:
    """Problems with a table of N_p for every good prime <= limit."""
    problems = []
    disc = invariants(coeffs)[2]
    ps = np.asarray(ps, dtype=np.int64)
    nps = np.asarray(nps, dtype=np.int64)
    primes = primes_between(2, limit)
    if sorted(ps.tolist() + list(bad)) != primes:
        problems.append("entries plus bad primes are not the primes <= limit")
    if list(bad) != [q for q in primes if disc % q == 0]:
        problems.append(f"bad primes {list(bad)} are not the prime divisors of {disc}")
    d = nps - ps - 1
    if np.any(d * d > 4 * ps):
        problems.append("an entry breaks the Hasse bound")
    small = ps < 5
    for p, n in zip(ps[small].tolist(), nps[small].tolist()):
        if naive_count(coeffs, p) != n:
            problems.append(f"N_{p} = {n}, enumeration gives {naive_count(coeffs, p)}")
    big_p, big_n = ps[~small], nps[~small]
    if tuple(coeffs) == CM_COEFFS:
        wrong = [(p, n) for p, n in zip(big_p.tolist(), big_n.tolist()) if cm_count(p) != n]
        problems += [f"N_{p} = {n}, closed form gives {cm_count(p)}" for p, n in wrong[:5]]
    else:
        ok = order_test(coeffs, big_p, big_n, rng, FIRST_POINTS)
        problems += [f"N_{p} = {n} fails the order test" for p, n in
                     zip(big_p[~ok].tolist()[:5], big_n[~ok].tolist()[:5])]
        for i in rng.choice(len(big_p), size=min(EXACT_SAMPLE, len(big_p)), replace=False).tolist():
            p, n = int(big_p[i]), int(big_n[i])
            if euler_count(coeffs, p) != n:
                problems.append(f"N_{p} = {n}, Euler's criterion gives {euler_count(coeffs, p)}")
    table = dict(zip(ps.tolist(), nps.tolist()))
    for p, n in (published or {}).items():
        if p <= limit and table.get(p) != n:
            problems.append(f"N_{p} = {table.get(p)}, published {n}")
    return problems


def omega_values(values) -> np.ndarray:
    """Number of distinct prime factors of each value, by trial division."""
    rem = np.asarray(values, dtype=np.int64).copy()
    w = np.zeros(len(rem), dtype=np.int64)
    for q in primes_between(2, math.isqrt(int(rem.max())) + 1):
        hit = rem % q == 0
        w += hit
        while hit.any():
            rem[hit] //= q
            hit = rem % q == 0
    return w + (rem > 1)


def products(values, k: int, x: int) -> np.ndarray:
    """Products of values over index-ascending k-subsets, each <= x; values sorted."""
    v = np.asarray(values, dtype=np.int64)
    out = []

    def rec(start, left, partial):
        if left == 1:
            j = int(np.searchsorted(v, x // partial, side="right"))
            if j > start:
                out.append(partial * v[start:j])
            return
        for i in range(start, len(v)):
            if partial * int(v[i]) ** left > x:
                break
            rec(i + 1, left - 1, partial * int(v[i]))

    rec(0, k, 1)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def census(values, k: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, G_k(n)) for every attained n <= x, ascending in n."""
    ns, counts = np.unique(products(np.sort(values), k, x), return_counts=True)
    return ns, counts.astype(np.int64)


def solutions(ps, nps, k: int, n: int) -> list[tuple[int, ...]]:
    """All k-sets of table primes whose N values multiply to n."""
    ps = np.asarray(ps, dtype=np.int64)
    nps = np.asarray(nps, dtype=np.int64)
    cand = [(int(p), int(v)) for p, v in zip(ps[n % nps == 0], nps[n % nps == 0])]
    return sorted(tuple(sorted(p for p, _ in c)) for c in combinations(cand, k)
                  if math.prod(v for _, v in c) == n)


def admissible_count(ps, nps, k: int, x: int, epsilon: float) -> int:
    """k-sets of distinct primes <= x with omega(N_p) >= (1-eps) loglog x and product <= x."""
    ps = np.asarray(ps, dtype=np.int64)
    nps = np.asarray(nps, dtype=np.int64)
    keep = ps <= x
    w = omega_values(nps[keep])
    adm = ps[keep][w >= (1.0 - epsilon) * math.log(math.log(x))]
    return len(products(adm, k, x))


def omega_stats(ps, nps, bad, x: int, epsilon: float, a: float, b: float) -> dict:
    """Reference values for the stats passes at x, from trial-division omega."""
    ps = np.asarray(ps, dtype=np.int64)
    nps = np.asarray(nps, dtype=np.int64)
    keep = ps <= x
    w = omega_values(nps[keep]).astype(float)
    llx = math.log(math.log(x))
    d = w - llx
    z = np.sort(d / math.sqrt(llx))
    n = len(z)
    cdf = np.array([0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in z.tolist()])
    i = np.arange(n)
    thr = (1.0 - epsilon) * llx
    inad = w < thr
    band = (ps >= x ** a) & (ps < x ** b)
    wb = omega_values(nps[band]) if band.any() else np.zeros(0)
    rb = 1.0 / ps[band]
    return {
        "n_good": n,
        "pi_x": n + sum(1 for q in bad if q <= x),
        "mean_omega": float(w.mean()),
        "m2": float((d * d).sum()),
        "m4": float((d ** 4).sum()),
        "ks": float(max(np.abs((i + 1) / n - cdf).max(), np.abs(i / n - cdf).max())),
        "admissible": int((~inad).sum()),
        "inadmissible": int(inad.sum()),
        "inadmissible_recip": float((1.0 / ps[keep][inad]).sum()),
        "band_total": float(rb.sum()),
        "band_admissible": float(rb[wb >= thr].sum()),
    }
