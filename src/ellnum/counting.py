"""Point counts N_p over prime fields by three methods.

count_naive enumerates all affine pairs (O(p^2), oracle for tiny p),
count_charsum sums the quadratic character of the completed square
(O(p), vectorized), and count_bsgs finds the group order inside the
Hasse interval via baby-step/giant-step (O(p^(1/4)) group operations).
count_points dispatches one prime on its size, and counts a batch of
primes as int64 numpy lanes through an x-only baby-step/giant-step.
All paths agree wherever their domains overlap.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .arith import divides
from .curves import CurveModel, Point, ReducedCurve, _add_raw, point_neg, scalar_mul
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

# Lanes run in blocks of at most this many cells, a block's lanes times the
# step rows of its widest Hasse interval: about 1.6 MB of arrays at the peak.
LANE_CELLS = 1 << 16

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


def _draw_point(rc: ReducedCurve, rng: random.Random, twist: bool) -> tuple[ReducedCurve, Point]:
    """A random point on E, or on its quadratic twist, with no square root; p odd.

    E is y^2 = f(x) = x^3 + b2 x^2 + 8 b4 x + 16 b6 over F_p. For a random x
    with f = f(x) on the wanted side of Euler's criterion, (f x, f^2) lies
    on y^2 = x^3 + f b2 x^2 + f^2 8 b4 x + f^3 16 b6, the twist of E by f,
    which is E itself when f is a square. A root of f gives (x, 0) on E,
    of order 2, which serves either side.
    """
    p, m = rc.p, rc.model
    while True:
        x = rng.randrange(p)
        f = (((x + m.b2) * x + 8 * m.b4) * x + 16 * m.b6) % p
        if f == 0 or (pow(f, (p - 1) // 2, p) != 1) == twist:
            d = f or 1
            curve = ReducedCurve(m, p, 0, d * m.b2 % p, 0, d * d * 8 * m.b4 % p, d**3 * 16 * m.b6 % p)
            return curve, (d * x % p, d * f % p)


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
    intersected until unique. |E(Q)[2]| = t divides the order of the curve
    and of its twist, so a point P gives the n in [lo / t, hi / t] with
    n(tP) = O, and its candidates are their multiples tn. If the attempt
    budget runs out, a prime in the charsum range is counted by
    count_charsum; above it the call raises EllnumError rather than
    allocate p-sized arrays.
    """
    p = rc.p
    if p < 5:
        raise ValueError("count_bsgs needs p >= 5")
    lo, hi = hasse_bounds(p)
    t = rc.model.two_torsion_order
    rng = random.Random((seed << 24) ^ p)

    def multiples(curve: ReducedCurve, P: Point) -> set[int]:
        return {t * n for n in _order_multiples_in_interval(curve, scalar_mul(curve, t, P), -(-lo // t), hi // t)}

    candidates: set[int] | None = None
    for twist in [False] * BSGS_POINT_BUDGET + [True] * BSGS_TWIST_BUDGET:
        found = multiples(*_draw_point(rc, rng, twist))
        if twist:  # twist order m' determines the curve order 2p + 2 - m'
            found = {2 * p + 2 - m for m in found}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    if p <= CHARSUM_THRESHOLD:
        return count_charsum(rc)
    raise EllnumError(
        f"count_bsgs on {rc.model.spec_text()} at p={p}: the group order is still ambiguous "
        f"after {BSGS_POINT_BUDGET} points and {BSGS_TWIST_BUDGET} twist points"
    )


def count_points(
    model: CurveModel, p, seed: int = 0, within: tuple[int, int] | None = None, *, sieved: bool = False
) -> int | list[int]:
    """N_p(E) for a good prime p, dispatched by prime size; for a sequence
    of good primes below 2^63, the list of their N_p in order, in lanes.

    In a batch, primes up to LANE_PRIME_FLOOR are counted one by one. Each
    larger one runs as a lane: it draws a point on E or on its quadratic
    twist, whose x-only baby-step/giant-step gives a divisor of that
    group's order (_lane_divisors), until one N in the Hasse interval fits
    all the divisors found (_unique_order). |E(Q)[2]| = t divides the
    order on either side, so a lane looks only at multiples of t. Lanes
    the first point leaves open get LANE_POINTS - 1 more, half on each
    side, in one retry round; count_bsgs takes the rest and any prime past
    LANE_PRIME_CAP.

    With within = (a, b), count_points gives N_p where a <= N_p <= b and
    0 elsewhere (N_p >= 1, so 0 is no count), for one prime as for a
    batch. In a batch, the first point looks only where N_p may lie:
    [a, b] on E, [2p + 2 - b, 2p + 2 - a] on the twist, cut to the Hasse
    interval (unless that keeps over half of it).
    By Lagrange's theorem a clean lane that finds no multiple of ord(P)
    there, or whose cut holds no multiple of t, has N_p outside and is
    done. A lane with a hit, or a dirty one, runs that point again over
    its whole Hasse interval, in the blocks of the retry round, as a
    multiple found in a cut need not be the group order; from there it
    takes the same points as without a range. Lane primes are proved prime
    by Miller-Rabin, unless sieved=True says that they come from a sieve.
    """
    if isinstance(p, (int, np.integer)):
        rc = ReducedCurve.reduce(model, int(p))
        if rc.p <= 3:
            n = count_naive(rc)
        elif rc.p <= CHARSUM_THRESHOLD:
            n = count_charsum(rc)
        else:
            n = count_bsgs(rc, seed=seed)
        return n if not within or within[0] <= n <= within[1] else 0
    ps = np.asarray(p, dtype=np.int64)
    lane = (LANE_PRIME_FLOOR < ps) & (ps < LANE_PRIME_CAP)
    lane[lane] = ~divides(ps[lane], model.disc)
    out = np.zeros(len(ps), dtype=np.int64)
    for i in np.flatnonzero(~lane).tolist():
        out[i] = count_points(model, int(ps[i]), seed=seed)
    if not sieved:
        for q in ps[lane][~_is_prime_lanes(ps[lane])].tolist():
            ReducedCurve.reduce(model, q)  # raises: q is not prime
    out[lane] = _lane_counts(model, ps[lane], seed, within)
    if within:
        out[(out < within[0]) | (out > within[1])] = 0
    return out.tolist()


def _lane_counts(model: CurveModel, p: np.ndarray, seed: int, within: tuple[int, int] | None) -> np.ndarray:
    """N_p of each lane prime, or 0 where the first point puts N_p outside within."""
    # the short model y^2 = x^3 + A x + B, isomorphic to E for p >= 5
    c4 = model.b2 * model.b2 - 24 * model.b4
    c6 = -model.b2**3 + 36 * model.b2 * model.b4 - 216 * model.b6
    xl = _XLine(p, -27 * c4 % p, -54 * c6 % p)
    s = np.sqrt(4.0 * p).astype(np.int64)  # hasse_bounds, exact after the two corrections
    s += ((s + 1) * (s + 1) <= 4 * p).astype(np.int64) - (s * s > 4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    # known divisors of N_p (dE) and of the twist's order 2p + 2 - N_p (dT), from |E(Q)[2]| on
    t = model.two_torsion_order
    dE, dT, res = np.full_like(p, t), np.full_like(p, t), np.zeros_like(p)
    outside = np.zeros(len(p), dtype=bool)
    # a lane's next step: 0 its first point on the cut, 1 that point on the whole
    # Hasse interval, 2 the retry round's points, 3 none left
    stage = np.full(len(p), 0 if within else 1)
    retry = np.arange(1, 2 * LANE_POINTS - 1)
    lanes = np.arange(len(p))
    while len(lanes):
        first, again = lanes[stage[lanes] < 2], lanes[stage[lanes] == 2]
        idx = np.concatenate([first, np.tile(again, len(retry))])
        k = np.concatenate([np.zeros_like(first), np.repeat(retry, len(again))])
        x0, twist = _draw_points(xl.take(idx), seed, k)
        # the retry draws twice what it keeps: the first (LANE_POINTS - 1) / 2 on each side
        tw = twist[len(first) :].reshape(len(retry), -1)
        side_rank = np.where(tw, np.cumsum(tw, axis=0), np.cumsum(~tw, axis=0)).ravel()
        keep = np.r_[np.ones(len(first), dtype=bool), side_rank <= (LANE_POINTS - 1) // 2]
        idx, x0, twist = idx[keep], x0[keep], twist[keep]
        cut_lo, cut_hi = lo[idx], hi[idx]
        if within:  # values past 2^33 are past every Hasse interval
            a, b = (min(max(v, 0), 1 << 33) for v in within)
            c_lo = np.maximum(cut_lo, np.where(twist, 2 * p[idx] + 2 - b, a))
            c_hi = np.minimum(cut_hi, np.where(twist, 2 * p[idx] + 2 - a, b))
            # only a first point is cut, and not where its cut keeps over half the
            # interval: that saves fewer step rows than its hits cost again
            on = (stage[idx] == 0) & (2 * (c_hi - c_lo) <= cut_hi - cut_lo)
            cut_lo, cut_hi = np.where(on, c_lo, cut_lo), np.where(on, c_hi, cut_hi)
        d = np.full(len(idx), -1)
        n_lo, n_hi = -(-cut_lo // t), cut_hi // t  # the lanes search n = N / t
        run = np.flatnonzero(n_lo <= n_hi)
        if len(run):
            block = LANE_CELLS // _layout(int((n_hi - n_lo)[run].max()))[3]  # lanes at the widest step rows
            blocks = np.split(run, list(range(block, len(run), block)))
            d[run] = np.concatenate([_lane_divisors(xl.take(idx[j]), x0[j], cut_lo[j], cut_hi[j], t) for j in blocks])
        # a clean lane with no multiple of ord(P) in its cut has N_p outside; one with
        # a hit, or a dirty one, runs that point again, as a hit need not be the order
        cut = (cut_lo != lo[idx]) | (cut_hi != hi[idx])
        outside[idx[cut & (d < 0)]] = True
        stage[lanes] = np.where(stage[lanes] == 2, 3, 2)
        stage[idx[cut & (d >= 0)]] = 1
        d = np.where(cut, 1, np.maximum(d, 1))
        np.lcm.at(dE, idx[~twist], d[~twist])
        np.lcm.at(dT, idx[twist], d[twist])
        res[lanes] = _unique_order(p[lanes], lo[lanes], hi[lanes], dE[lanes], dT[lanes])
        lanes = lanes[(res[lanes] == 0) & ~outside[lanes] & (stage[lanes] < 3)]
    for i in np.flatnonzero((res == 0) & ~outside).tolist():
        res[i] = count_bsgs(ReducedCurve.reduce(model, int(p[i])), seed=seed)
    return res


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
    for i in range(int(e.max(initial=0)).bit_length()):
        r = np.where((e >> i) & 1 == 1, r * b % p, r)
        b = b * b % p
    return r


def _invert_rows(Z: np.ndarray, p: np.ndarray) -> None:
    """Z becomes Z^-1 mod p, row by row, with one Fermat inversion per lane:
    rows i and i + h multiply into row i + h, whose inverse times one of
    them is the inverse of the other."""
    if len(Z) == 1:
        Z[:] = _powmod(Z, p - 2, p)
        return
    h = len(Z) // 2
    C = Z[h : 2 * h].copy()
    Z[h : 2 * h] *= Z[:h]
    Z[h : 2 * h] %= p
    _invert_rows(Z[h:], p)
    C *= Z[h : 2 * h]
    Z[h : 2 * h] *= Z[:h]
    np.remainder(C, p, out=Z[:h])
    Z[h:] %= p


def _is_prime_lanes(n: np.ndarray) -> np.ndarray:
    """Miller-Rabin to the bases 2, 7, 61, lane-wise; exact for 61 < n < 4759123141."""
    low = (n - 1) & (1 - n)  # the lowest set bit of n - 1 = d * 2^s, d odd
    d, s = (n - 1) // low, np.log2(low).astype(np.int64)
    x = _powmod(np.array([[2], [7], [61]], dtype=np.int64), d, n)
    passed = (x == 1) | (x == n - 1)
    for r in range(1, int(s.max(initial=0))):
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


def _layout(w: int) -> tuple[int, int, int, int]:
    """(m, step, g, rows) of _lane_divisors for the width w of its n-range: baby rows
    0..m, then giant rows from g = m + 1 whose windows [c_t - m, c_t + m],
    step = 2m + 1 apart, tile [lo, hi] from c_0 <= lo + m."""
    m = math.isqrt(w) + 1
    return m, 2 * m + 1, m + 1, m + 1 + w // (2 * m + 1) + 2


def _lane_divisors(xl: _XLine, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: int = 1) -> np.ndarray:
    """Per lane, the gcd of the multiples of lcm(t, ord(P)), x(P) = x0, in
    [lo, hi]: -1 where a clean lane finds none there, 0 where the lane is
    dirty. t is a power of 2 dividing the order of the group that holds P.

    The search is for the n in [ceil(lo / t), floor(hi / t)] with nQ = O,
    Q = tP (log2 t doublings), and returns tn: nQ = O exactly when
    lcm(t, ord(P)) divides tn. Baby steps x(iQ), i <= m + 1, meet giant
    steps x(c_j Q) at the centres c_j = (t0 + j)(2m + 1), walked from
    S = (2m + 1)Q, where c_j -/+ i kills Q. A lane is clean when no baby
    step is at infinity (Q = O included), no step has x = 0, S is neither,
    and the baby x are distinct: then every step is exact, and the c -/+ i
    found in range, with the c_j at infinity, are all the multiples of
    ord(Q) there. A match's sign comes from u = x(S - iQ): cQ = iQ puts u
    on the giant row before c, cQ = -iQ on the row after, and the two
    differ unless 2S = O or 2iQ = O. A clean lane has ord(Q) > 2m + 1. So
    2S = O there means ord(Q) = 2(2m + 1), and no giant row matches; 2iQ
    = O means ord(Q) = 2i = 2m + 2, and the sign not taken gives a
    multiple found on the next giant row, or one outside [lo, hi]. Their
    gcd is ord(Q) for two or more; one alone is the group order over t
    when [lo, hi] is the Hasse interval.
    Baby steps double, so the first degenerate one is exact; Q stays
    projective until the inversion of the step rows; keys need
    lanes * rows < 2^31.
    """
    p = xl.p
    L = len(p)
    lo, hi = -(-lo // t), hi // t
    m, step, g, rows = _layout(int((hi - lo).max(initial=0)))
    z0 = np.ones_like(x0)
    for _ in range(t.bit_length() - 1):
        x0, z0 = xl.dbl(x0, z0)
    X, Z = np.empty((rows, L), dtype=np.int64), np.empty((rows, L), dtype=np.int64)
    X[0], Z[0] = x0, z0
    X[1], Z[1] = xl.dbl(x0, z0)
    k = 2
    while k < g:  # rows 0..k-1 hold x(Q)..x(kQ); (k + j)Q = kQ + jQ, with difference (k - j)Q
        n = min(k - 1, g - k, 16)  # at most 16 rows a stage keeps the temporaries small
        D = slice(k - 1 - n, k - 1)
        X[k : k + n], Z[k : k + n] = xl.add(X[k - 1], Z[k - 1], X[:n], Z[:n], X[D][::-1], Z[D][::-1])
        k += n
    SX, SZ = xl.add(X[m], Z[m], X[m - 1], Z[m - 1], x0, z0)
    t0 = (lo + m) // step
    (X[g], Z[g]), (X[g + 1], Z[g + 1]) = xl.ladder(SX, SZ, t0)
    S2 = xl.dbl(SX, SZ)
    for r in range(g + 2, rows):
        Xr, Zr = xl.add(X[r - 1], Z[r - 1], SX, SZ, X[r - 2], Z[r - 2])
        o = Z[r - 2] == 0  # a difference at infinity: row r - 1 is S, so row r is 2S
        X[r], Z[r] = np.where(o, S2[0], Xr), np.where(o, S2[1], Zr)
    at_inf = Z == 0
    dirty = (SX == 0) | (SZ == 0) | at_inf[:g].any(axis=0) | (X == 0).any(axis=0)

    Z[at_inf] = 1  # x = X/Z, normalised
    _invert_rows(Z, p)
    X *= Z
    X %= p
    del Z
    xn = X.astype(np.int32)  # the normalised rows, kept for the signs of the matches

    # one sort of (lane, x, row) keys: a run of equal (lane, x) lists its baby
    # rows first, and a giant row matches when its run starts with a baby row
    rbits = (rows - 1).bit_length()
    X |= np.arange(L) << 31
    X <<= rbits
    X |= np.arange(rows)[:, None]
    lx = X.ravel()
    lx.sort()
    row = (lx & ((1 << rbits) - 1)).astype(np.int16)
    lx >>= rbits
    new = np.r_[True, lx[1:] != lx[:-1]]
    first = np.arange(len(lx))  # the index of each key's run start, then its row
    first[~new] = 0
    first = row[np.maximum.accumulate(first, out=first)]
    dirty[lx[~new & (row < g)] >> 31] = True  # two baby rows share an x
    hit = np.flatnonzero((first < g) & (row >= g))
    # rows at infinity and dirty lanes are left out
    hit = hit[~at_inf[row[hit], lx[hit] >> 31] & ~dirty[lx[hit] >> 31]]
    lane, j, i = lx[hit] >> 31, row[hit] - g, first[hit] + 1
    c = (t0[lane] + j) * step
    # u = x((2m + 1 - i)Q): baby row 2m - i for i >= m, else rows m and m - 1 - i
    # added, with difference row i; cQ = iQ when the giant row before c has x = u,
    # and on the first giant row when the row after it does not
    r = np.minimum(i, m - 1)
    Xa, Xb, Xd = (xn[k, lane].astype(np.int64) for k in (m, m - 1 - r, r))
    Xu, Zu = xl.take(lane).add(Xa, 1, Xb, 1, Xd, 1)
    Xu, Zu = np.where(i < m, Xu, xn[np.minimum(2 * m - i, m), lane]), np.where(i < m, Zu, 1)
    nb = g + np.where(j > 0, j - 1, 1)
    same = ~at_inf[nb, lane] & (xn[nb, lane] * Zu % p[lane] == Xu)
    c += np.where(same != (j == 0), -i, i)
    zero = np.flatnonzero(at_inf[g:].ravel())
    v_lane = np.concatenate([lane, zero % L])
    v = np.concatenate([c, (t0[zero % L] + zero // L) * step])
    keep = (lo[v_lane] <= v) & (v <= hi[v_lane]) & ~dirty[v_lane]
    d = np.zeros(L, dtype=np.int64)
    np.gcd.at(d, v_lane[keep], v[keep])
    d[(d == 0) & ~dirty] = -1
    d[d > 0] *= t
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
