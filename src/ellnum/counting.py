"""Point counts N_p over prime fields by three methods.

count_naive enumerates all affine pairs (O(p^2), oracle for tiny p),
count_charsum sums the quadratic character of the completed square
(O(p), vectorized), and count_bsgs finds the group order inside the
Hasse interval via baby-step/giant-step (O(p^(1/4)) group operations).
count_points dispatches one prime on its size; count_points_many counts
a batch, running the primes above the charsum range as int64 numpy
lanes through an x-only baby-step/giant-step. All paths agree wherever
their domains overlap.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .curves import CurveModel, Point, ReducedCurve, _add_raw, legendre, point_neg, scalar_mul, sqrt_mod
from .errors import EllnumError

# Characters sums stay exact in int64 up to here; BSGS has no such cap.
CHARSUM_PRIME_CAP = 1 << 30

# Dispatch threshold of count_points: charsum for p up to here, BSGS above
# it. Charsum's int64 arrays stay under glibc's 128 KB mmap threshold, so
# they come from the heap.
CHARSUM_THRESHOLD = 3_000

# Lanes serve LANE_PRIME_FLOOR < p < LANE_PRIME_CAP: above Mestre's bound
# E or its twist has a point whose order alone fixes N_p, and under the
# cap every residue product fits int64. A lane gets one point, then
# LANE_POINTS - 1 more in one retry round, before count_bsgs takes over.
LANE_PRIME_FLOOR = 229
LANE_PRIME_CAP = 1 << 31
LANE_POINTS = 5

# Ambiguity budget: random points on the curve, then on its twist.
BSGS_POINT_BUDGET = 8
BSGS_TWIST_BUDGET = 8


def hasse_bounds(p: int) -> tuple[int, int]:
    """Exact integer Hasse interval [p+1-floor(2*sqrt(p)), p+1+floor(2*sqrt(p))]."""
    s = math.isqrt(4 * p)
    return p + 1 - s, p + 1 + s


def count_naive(rc: ReducedCurve) -> int:
    """1 + #{(x, y) in F_p^2 on the curve}; O(p^2), oracle use only."""
    p = rc.p
    a1, a2, a3, a4, a6 = rc.coefficients
    count = 1
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        t = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + t * y) % p == rhs:
                count += 1
    return count


def count_charsum(rc: ReducedCurve) -> int:
    """p + 1 + sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6) for odd p >= 5.

    Completing the square in y shows the number of points above x is
    1 + chi(value), so N_p = 1 + #{value = 0} + 2 * #{value a nonzero QR}.
    """
    p = rc.p
    if p < 5:
        raise ValueError("count_charsum needs p >= 5; dispatch p in {2, 3} to count_naive")
    if p > CHARSUM_PRIME_CAP:
        raise ValueError(f"count_charsum caps at p <= {CHARSUM_PRIME_CAP}")
    m = rc.model
    c2, c1, c0 = m.b2 % p, (2 * m.b4) % p, m.b6 % p
    if p < 600:
        # below numpy's break-even point
        sq = {x * x % p for x in range(p)}
        total = 1
        for x in range(p):
            g = (4 * x * x * x + c2 * x * x + c1 * x + c0) % p
            if g == 0:
                total += 1
            elif g in sq:
                total += 2
        return total
    x = np.arange(p, dtype=np.int64)
    x2 = x * x
    x2 %= p
    x3 = x2 * x
    x3 %= p
    g = 4 * x3
    g += c2 * x2
    g += c1 * x
    g += c0
    g %= p
    is_qr = np.zeros(p, dtype=np.int8)
    is_qr[x2] = 1
    is_qr[0] = 0
    qr_hits = int(is_qr[g].sum())
    zeros = int(np.count_nonzero(g == 0))
    return 1 + zeros + 2 * qr_hits


def _random_point(rc: ReducedCurve, rng: random.Random) -> Point:
    """A uniform-ish affine point, solving the y-quadratic at random x; p odd."""
    p = rc.p
    inv2 = pow(2, -1, p)
    while True:
        x = rng.randrange(p)
        d = rc.rhs_discriminant(x)
        y2 = sqrt_mod(d, p)
        if y2 is None:
            continue
        if rng.getrandbits(1):
            y2 = (-y2) % p
        y = (y2 - rc.a1 * x - rc.a3) * inv2 % p
        return (x, y)


def _twist_curve(rc: ReducedCurve) -> ReducedCurve:
    """Quadratic twist by the least nonresidue, as a reduced short model; p >= 5."""
    p = rc.p
    d = 2
    while legendre(d, p) != -1:
        d += 1
    inv2 = pow(2, -1, p)
    inv4 = inv2 * inv2 % p
    c2 = rc.model.b2 * inv4 % p
    c1 = rc.model.b4 * inv2 % p
    c0 = rc.model.b6 * inv4 % p
    return ReducedCurve(rc.model, p, 0, c2 * d % p, 0, c1 * d * d % p, c0 * d * d * d % p)


def _order_multiples_in_interval(rc: ReducedCurve, P: Point, lo: int, hi: int) -> set[int]:
    """All m in [lo, hi] with m*P = infinity, by baby-step/giant-step."""
    p, a1, a2, a3, a4, a6 = rc.p, rc.a1, rc.a2, rc.a3, rc.a4, rc.a6
    width = hi - lo
    bs = math.isqrt(width) + 1
    baby: dict[Point, list[int]] = {}
    R: Point = None
    for i in range(bs):
        baby.setdefault(R, []).append(i)
        R = _add_raw(p, a1, a2, a3, a4, a6, R, P)
    # R is now bs*P
    step_neg = point_neg(rc, R)
    # target: j*P = -(lo*P), scan j = t*bs + i over [0, width]
    gamma = point_neg(rc, scalar_mul(rc, lo, P))
    found: set[int] = set()
    for t in range(width // bs + 1):
        for i in baby.get(gamma, ()):
            j = t * bs + i
            if j <= width:
                found.add(lo + j)
        gamma = _add_raw(p, a1, a2, a3, a4, a6, gamma, step_neg)
    return found


def count_bsgs(rc: ReducedCurve, seed: int = 0) -> int:
    """Group order via Hasse-interval order finding; deterministic result.

    Candidate sets from successive random points (then twist points) are
    intersected until unique. If the attempt budget runs out, a prime in
    the charsum range is counted by count_charsum; above it the call
    raises EllnumError rather than allocate p-sized arrays.
    """
    p = rc.p
    if p < 5:
        raise ValueError("count_bsgs needs p >= 5")
    lo, hi = hasse_bounds(p)
    rng = random.Random((seed << 24) ^ p)
    candidates: set[int] | None = None
    for _ in range(BSGS_POINT_BUDGET):
        P = _random_point(rc, rng)
        found = _order_multiples_in_interval(rc, P, lo, hi)
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    twist = _twist_curve(rc)
    for _ in range(BSGS_TWIST_BUDGET):
        Q = _random_point(twist, rng)
        found = _order_multiples_in_interval(twist, Q, lo, hi)
        # twist order m' determines the curve order 2p + 2 - m'
        mirrored = {2 * p + 2 - m for m in found}
        candidates = mirrored if candidates is None else candidates & mirrored
        if len(candidates) == 1:
            return candidates.pop()
    if p <= CHARSUM_THRESHOLD:
        return count_charsum(rc)
    raise EllnumError(
        f"count_bsgs on {rc.model.spec_text()} at p={p}: the group order is still ambiguous "
        f"after {BSGS_POINT_BUDGET} points and {BSGS_TWIST_BUDGET} twist points"
    )


def count_points(model: CurveModel, p: int, seed: int = 0) -> int:
    """N_p(E) for a good prime p, dispatched by prime size."""
    rc = ReducedCurve.reduce(model, p)
    if p <= 3:
        return count_naive(rc)
    if p <= CHARSUM_THRESHOLD:
        return count_charsum(rc)
    return count_bsgs(rc, seed=seed)


# --- batched counting: one int64 numpy lane per prime ------------------------


def count_points_many(model: CurveModel, ps, seed: int = 0) -> list[int]:
    """N_p(E) for each good prime of `ps`, in order; equals count_points.

    Primes up to LANE_PRIME_FLOOR go to count_points. Each larger one runs
    as a lane: it draws a point on E or on its quadratic twist, whose
    x-only baby-step/giant-step gives a divisor of that group's order
    (_lane_divisors), until one N in the Hasse interval fits all the
    divisors found (_unique_order). Lanes the first point leaves open get
    LANE_POINTS - 1 more, half on each side, in one retry round; count_bsgs
    takes the rest and any prime past LANE_PRIME_CAP.
    """
    ps = [int(p) for p in ps]
    out = [0] * len(ps)
    big = []
    for i, p in enumerate(ps):
        if LANE_PRIME_FLOOR < p < LANE_PRIME_CAP and model.disc % p:
            big.append(i)
        else:
            out[i] = count_points(model, p, seed=seed)
    if not big:
        return out
    p = np.array([ps[i] for i in big], dtype=np.int64)
    for q in p[~_is_prime_lanes(p)].tolist():
        ReducedCurve.reduce(model, q)  # raises: q is not prime
    # the short model y^2 = x^3 + A x + B, isomorphic to E for p >= 5
    c4 = model.b2 * model.b2 - 24 * model.b4
    c6 = -model.b2**3 + 36 * model.b2 * model.b4 - 216 * model.b6
    xl = _XLine(p, -27 * c4 % p, -54 * c6 % p)
    s = np.sqrt(4.0 * p).astype(np.int64)  # hasse_bounds, exact after the two corrections
    s += ((s + 1) * (s + 1) <= 4 * p).astype(np.int64) - (s * s > 4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    # known divisors of N_p (dE) and of the twist's order 2p + 2 - N_p (dT)
    dE, dT, res = np.ones_like(p), np.ones_like(p), np.zeros_like(p)
    lanes = np.arange(len(p))
    for k in (np.zeros(1, dtype=np.int64), np.arange(1, 2 * LANE_POINTS - 1)):
        if not len(lanes):
            break
        idx = np.tile(lanes, len(k))
        x0, twist = _draw_points(xl.take(idx), seed, np.repeat(k, len(lanes)))
        # the retry draws twice what it keeps: the first (LANE_POINTS - 1) / 2 on each side
        tw = twist.reshape(len(k), -1)
        side_rank = np.where(tw, np.cumsum(tw, axis=0), np.cumsum(~tw, axis=0)).ravel()
        keep = side_rank <= max(1, (LANE_POINTS - 1) // 2)
        idx, x0, twist = idx[keep], x0[keep], twist[keep]
        d = np.maximum(_lane_divisors(xl.take(idx), x0, lo[idx], hi[idx]), 1)
        np.lcm.at(dE, idx[~twist], d[~twist])
        np.lcm.at(dT, idx[twist], d[twist])
        res[lanes] = _unique_order(p[lanes], lo[lanes], hi[lanes], dE[lanes], dT[lanes])
        lanes = lanes[res[lanes] == 0]
    for i, n in zip(big, res.tolist()):
        out[i] = n or count_bsgs(ReducedCurve.reduce(model, ps[i]), seed=seed)
    return out


def _draw_points(xl: "_XLine", seed: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point k of each lane: x0 in [1, p-1] with f(x0) = x0^3 + A x0 + B != 0,
    and whether it lifts to the twist (f(x0) a non-residue) rather than to E.
    x0 is a splitmix64 hash of a key made of (seed, p, k), stepped by 2^48
    while f(x0) = 0; uint64 products wrap mod 2^64."""
    p = xl.p
    salt = np.full(len(p), seed * 0x9E3779B97F4A7C15 % 2**64, dtype=np.uint64)
    z = (k.astype(np.uint64) << 32 | p.astype(np.uint64)) ^ salt
    x0, f = np.zeros_like(p), np.zeros_like(p)
    redo = np.ones(len(p), dtype=bool)
    while redo.any():
        h = z[redo]
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB
        x0[redo] = x = ((h ^ (h >> 31)) % (p[redo] - 1).astype(np.uint64)).astype(np.int64) + 1
        f[redo] = ((x * x % p[redo] + xl.A[redo]) * x + xl.B[redo]) % p[redo]
        z[redo] += 1 << 48
        redo = f == 0
    return x0, _powmod(f, (p - 1) // 2, p) != 1


def _powmod(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b^e mod p, lane-wise; b broadcasts against e and p."""
    b = b % p
    r = np.ones_like(b)
    for i in range(int(e.max()).bit_length()):
        r = np.where((e >> i) & 1 == 1, r * b % p, r)
        b = b * b % p
    return r


def _is_prime_lanes(n: np.ndarray) -> np.ndarray:
    """Miller-Rabin to the bases 2, 3, 5, 7, lane-wise; exact for 7 < n < 3215031751."""
    low = (n - 1) & (1 - n)  # the lowest set bit of n - 1 = d * 2^s, d odd
    d, s = (n - 1) // low, np.log2(low).astype(np.int64)
    x = _powmod(np.array([[2], [3], [5], [7]], dtype=np.int64), d, n)
    passed = (x == 1) | (x == n - 1)
    for r in range(1, int(s.max())):
        x = x * x % n
        passed |= (x == n - 1) & (r < s)
    return (n & 1 == 1) & passed.all(axis=0)


class _XLine:
    """x-only arithmetic on y^2 = x^3 + A x + B mod p, one lane per prime.

    A point is (X : Z) with x = X/Z, and Z = 0 at infinity. The formulas
    never use y, so they serve E and its quadratic twist alike. Residues
    are below p < 2^31, so a product of two, a sum of two products, or a
    residue times a sum of two residues fits int64 before it is reduced.
    """

    def __init__(self, p: np.ndarray, A: np.ndarray, B: np.ndarray):
        self.p, self.A, self.B = p, A, B
        self.B4 = 4 * B % p
        self.B8 = 8 * B % p

    def take(self, idx: np.ndarray) -> "_XLine":
        return _XLine(self.p[idx], self.A[idx], self.B[idx])

    def dbl(self, X, Z):
        """x(2P); exact for every P, O and the 2-torsion included."""
        p = self.p
        X2, Z2 = X * X % p, Z * Z % p
        AZ2 = self.A * Z2 % p
        t = X2 - AZ2
        Xn = (t * t - self.B8 * (X * Z % p * Z2 % p)) % p
        g = (X * (X2 + AZ2) % p + self.B * (Z2 * Z % p)) % p
        return Xn, Z * g % p * 4 % p

    def add(self, X1, Z1, X2, Z2, XD, ZD):
        """x(P + Q) from x(P), x(Q) and x(P - Q); exact unless x(P - Q) is 0 or infinity."""
        p = self.p
        Z12 = Z1 * Z2 % p
        u = (X1 * X2 - self.A * Z12) % p
        c1, c2 = X1 * Z2 % p, X2 * Z1 % p
        v = self.B4 * Z12 % p * (c1 + c2) % p
        w = c1 - c2
        return ZD * ((u * u - v) % p) % p, XD * (w * w % p) % p

    def ladder(self, X, Z, s: np.ndarray):
        """(s Q, (s + 1) Q) for Q = (X : Z) and s >= 0 by the Montgomery ladder; exact
        when Q != O and x(Q) != 0, as every differential addition has difference Q."""
        R0 = (np.ones_like(s), np.zeros_like(s))
        R1 = (X, Z)
        for i in range(int(s.max(initial=0)).bit_length() - 1, -1, -1):
            bit = (s >> i) & 1 == 1
            S = self.add(*R0, *R1, X, Z)
            D = self.dbl(np.where(bit, R1[0], R0[0]), np.where(bit, R1[1], R0[1]))
            R0 = (np.where(bit, S[0], D[0]), np.where(bit, S[1], D[1]))
            R1 = (np.where(bit, D[0], S[0]), np.where(bit, D[1], S[1]))
        return R0, R1


def _lane_divisors(xl: _XLine, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per lane, a divisor of the order of the group holding P, x(P) = x0, or 0.

    Baby steps x(iP), i <= m + 1, meet giant steps x(c_t P) at the centres
    c_t = (t0 + t)(2m + 1), walked from S = (2m + 1)P, where c_t -/+ i kills
    P. A lane is clean when no baby step is at infinity, no step has x = 0,
    S is neither, and the baby x are distinct: then every step is exact,
    and the c -/+ i found in [lo, hi], with the c_t at infinity, are all
    the multiples of ord(P) there. A ladder checks c - i; c + i kills when
    c - i does not, or when iP is 2-torsion. Their gcd is ord(P) for two or
    more, the group order for one. Dirty lanes give 0.
    """
    p = xl.p
    L = len(p)
    lanes = np.arange(L, dtype=np.int64)
    wmax = int((hi - lo).max())
    m = math.isqrt(wmax) + 1
    step = 2 * m + 1
    g = m + 1  # first giant row
    rows = g + wmax // step + 2  # windows [c_t - m, c_t + m] tile [lo, hi] from c_0 <= lo + m
    one = np.ones_like(x0)
    X, Z = np.empty((2, rows, L), dtype=np.int64)
    X[0], Z[0] = x0, one
    X[1], Z[1] = xl.dbl(x0, one)
    for r in range(2, g):
        X[r], Z[r] = xl.add(X[r - 1], Z[r - 1], x0, one, X[r - 2], Z[r - 2])
    SX, SZ = xl.add(X[m], Z[m], X[m - 1], Z[m - 1], x0, one)
    t0 = (lo + m) // step
    (X[g], Z[g]), (X[g + 1], Z[g + 1]) = xl.ladder(SX, SZ, t0)
    S2 = xl.dbl(SX, SZ)
    for r in range(g + 2, rows):
        Xr, Zr = xl.add(X[r - 1], Z[r - 1], SX, SZ, X[r - 2], Z[r - 2])
        o = Z[r - 2] == 0  # a difference at infinity: row r - 1 is S, so row r is 2S
        X[r], Z[r] = np.where(o, S2[0], Xr), np.where(o, S2[1], Zr)
    at_inf = Z == 0
    dirty = (SX == 0) | (SZ == 0) | at_inf[:g].any(axis=0) | (X == 0).any(axis=0)

    # normalise x = X/Z with one Fermat inverse per lane (simultaneous inversion)
    Z[at_inf] = 1
    prefix = np.empty_like(Z)
    prefix[0] = Z[0]
    for r in range(1, rows):
        prefix[r] = prefix[r - 1] * Z[r] % p
    inv = _powmod(prefix[-1], p - 2, p)
    for r in range(rows - 1, 0, -1):
        X[r] = X[r] * (inv * prefix[r - 1] % p) % p
        inv = inv * Z[r] % p
    X[0] = X[0] * inv % p

    # match (lane, x) keys; rows at infinity and dirty lanes are left out
    baby = ((lanes << 32) | X[:g]).ravel()
    order = np.argsort(baby)
    baby = baby[order]
    dirty[baby[1:][baby[1:] == baby[:-1]] >> 32] = True
    giant = ((lanes << 32) | X[g:]).ravel()
    pos = np.minimum(np.searchsorted(baby, giant), len(baby) - 1)
    hit = np.flatnonzero((baby[pos] == giant) & ~at_inf[g:].ravel() & ~dirty[giant >> 32])
    lane = hit % L
    c = (t0[lane] + hit // L) * step
    i = order[pos[hit]] // L + 1
    xi = X[i - 1, lane]
    pl = p[lane]
    minus = xl.take(lane).ladder(x0[lane], one[lane], np.abs(c - i))[0][1] == 0
    plus = ~minus | (((xi * xi % pl + xl.A[lane]) * xi + xl.B[lane]) % pl == 0)
    zero = np.flatnonzero(at_inf[g:].ravel())
    v_lane = np.concatenate([lane[minus], lane[plus], zero % L])
    v = np.concatenate([(c - i)[minus], (c + i)[plus], (t0[zero % L] + zero // L) * step])
    keep = (lo[v_lane] <= v) & (v <= hi[v_lane]) & ~dirty[v_lane]
    d = np.zeros(L, dtype=np.int64)
    np.gcd.at(d, v_lane[keep], v[keep])
    return d


def _unique_order(p, lo, hi, dE, dT) -> np.ndarray:
    """Per lane, the one N in [lo, hi] with dE | N and dT | 2p + 2 - N, or 0
    where none or several fit. The Hasse interval is symmetric about p + 1,
    so the side with fewer multiples is listed (at most 64) and the other
    tested."""
    cE = hi // dE - (lo - 1) // dE
    cT = hi // dT - (lo - 1) // dT
    flip = cT < cE
    d, other = np.where(flip, dT, dE), np.where(flip, dE, dT)
    count = np.minimum(cE, cT)
    count[count > 64] = 0
    lane = np.repeat(np.arange(len(p)), count)
    j = np.arange(len(lane)) - np.repeat(np.cumsum(count) - count, count)
    v = ((lo[lane] - 1) // d[lane] + 1 + j) * d[lane]
    fits = (2 * p[lane] + 2 - v) % other[lane] == 0
    lane, v = lane[fits], v[fits]
    n = np.zeros_like(p)
    once = np.bincount(lane, minlength=len(p))[lane] == 1
    n[lane[once]] = np.where(flip[lane[once]], 2 * p[lane[once]] + 2 - v[once], v[once])
    return n
