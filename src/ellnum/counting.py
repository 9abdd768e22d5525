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

from .arith import primes_up_to
from .curves import CurveModel, Point, ReducedCurve, _add_raw, legendre, point_neg, scalar_mul, sqrt_mod
from .errors import EllnumError

# Characters sums stay exact in int64 up to here; BSGS has no such cap.
CHARSUM_PRIME_CAP = 1 << 30

# Dispatch threshold: charsum for p up to here; above it count_points uses
# BSGS and count_points_many the lanes. Charsum's int64 arrays stay under
# glibc's 128 KB mmap threshold, so they come from the heap.
CHARSUM_THRESHOLD = 3_000

# Lanes: points tried per prime before count_bsgs takes over, and the
# prime cap under which every residue product fits int64.
LANE_POINTS = 2
LANE_PRIME_CAP = 1 << 31

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

    p <= 3 is enumerated and p <= CHARSUM_THRESHOLD goes to the character
    sum. Larger primes run as lanes: each draws a point, on E or on its
    quadratic twist, and an x-only baby-step/giant-step finds a multiple
    of its order in the Hasse interval (_lane_orders). A lane still
    undecided after LANE_POINTS points, or past LANE_PRIME_CAP, is counted
    by count_bsgs.
    """
    ps = [int(p) for p in ps]
    out = [0] * len(ps)
    big = []
    for i, p in enumerate(ps):
        if CHARSUM_THRESHOLD < p < LANE_PRIME_CAP and model.disc % p:
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
    A, B = -27 * c4, -54 * c6
    draws = {}
    for i in big:
        rng = random.Random((seed << 24) ^ ps[i])
        draws[i] = [_draw_x(ps[i], rng, A, B) for _ in range(LANE_POINTS)]
    for k in range(LANE_POINTS):
        if not big:
            break
        p = np.array([ps[i] for i in big], dtype=np.int64)
        x0 = np.array([draws[i][k][0] for i in big], dtype=np.int64)
        twist = np.array([draws[i][k][1] for i in big])
        orders = _lane_orders(_XLine(p, A % p, B % p), x0, twist).tolist()
        for i, n in zip(big, orders):
            out[i] = n
        big = [i for i, n in zip(big, orders) if n == 0]
    for i in big:
        out[i] = count_bsgs(ReducedCurve.reduce(model, ps[i]), seed=seed)
    return out


def _draw_x(p: int, rng: random.Random, A: int, B: int) -> tuple[int, bool]:
    """x0 in [1, p-1] with f(x0) = x0^3 + A x0 + B != 0 mod p, and whether
    x0 lifts to the quadratic twist (f(x0) a non-residue) rather than to E."""
    a, b = A % p, B % p
    while True:
        x = rng.randrange(1, p)
        f = (x * x * x + a * x + b) % p
        if f:
            return x, pow(f, (p - 1) // 2, p) != 1


def _powmod(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b^e mod p, lane-wise."""
    r = np.ones_like(b)
    b = b % p
    for i in range(int(e.max()).bit_length()):
        r = np.where((e >> i) & 1 == 1, r * b % p, r)
        b = b * b % p
    return r


def _is_prime_lanes(n: np.ndarray) -> np.ndarray:
    """Miller-Rabin to the bases 2, 3, 5, 7, lane-wise; exact for 7 < n < 3215031751."""
    d = n - 1
    s = np.zeros_like(n)
    while (even := d & 1 == 0).any():
        d = np.where(even, d >> 1, d)
        s += even
    prime = n & 1 == 1
    for a in (2, 3, 5, 7):
        x = _powmod(np.full_like(n, a), d, n)
        passed = (x == 1) | (x == n - 1)
        for r in range(1, int(s.max())):
            x = x * x % n
            passed |= (x == n - 1) & (r < s)
        prime &= passed
    return prime


class _XLine:
    """x-only arithmetic on y^2 = x^3 + A x + B mod p, one lane per prime.

    A point is (X : Z) with x = X/Z, and Z = 0 at infinity. The formulas
    never use y, so they serve E and its quadratic twist alike. Every
    product of two residues is reduced before the next sum, so p < 2^31
    keeps all of it in int64. Arrays broadcast: a (k, L) operand runs k
    scalars per lane.
    """

    def __init__(self, p: np.ndarray, A: np.ndarray, B: np.ndarray):
        self.p, self.A, self.B = p, A, B
        self.B4 = 4 * B % p
        self.B8 = 8 * B % p

    def take(self, idx: np.ndarray) -> "_XLine":
        return _XLine(self.p[idx], self.A[idx], self.B[idx])

    def dbl(self, X, Z):
        p = self.p
        X2, Z2 = X * X % p, Z * Z % p
        t = (X2 - self.A * Z2 % p) % p
        Xn = (t * t % p - self.B8 * (X * Z % p * Z2 % p) % p) % p
        g = (X2 * X % p + self.A * (X * Z2 % p) % p + self.B * (Z2 * Z % p) % p) % p
        return Xn, 4 * (Z * g % p) % p

    def add(self, X1, Z1, X2, Z2, XD, ZD):
        """x(P + Q) from x(P), x(Q) and x(P - Q); exact unless x(P - Q) is 0 or infinity."""
        p = self.p
        Z12 = Z1 * Z2 % p
        u = (X1 * X2 % p - self.A * Z12 % p) % p
        c1, c2 = X1 * Z2 % p, X2 * Z1 % p
        v = self.B4 * Z12 % p * ((c1 + c2) % p) % p
        w = (c1 - c2) % p
        return ZD * ((u * u % p - v) % p) % p, XD * (w * w % p) % p

    def ladder(self, x: np.ndarray, s: np.ndarray):
        """(X, Z) of s*P for x(P) = x != 0 and s >= 1, by the Montgomery ladder.

        Exact: every differential addition has P itself as its difference.
        """
        one = np.ones_like(x)
        R0 = (np.ones_like(s), np.zeros_like(s))
        R1 = (np.broadcast_to(x, s.shape), np.broadcast_to(one, s.shape))
        for i in range(int(s.max(initial=0)).bit_length() - 1, -1, -1):
            bit = (s >> i) & 1 == 1
            S = self.add(*R0, *R1, x, one)
            D = self.dbl(np.where(bit, R1[0], R0[0]), np.where(bit, R1[1], R0[1]))
            R0 = (np.where(bit, S[0], D[0]), np.where(bit, S[1], D[1]))
            R1 = (np.where(bit, D[0], S[0]), np.where(bit, D[1], S[1]))
        return R0

    def kills(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        """s*P = O, lane-wise."""
        return self.ladder(x, s)[1] == 0


def _lane_orders(xl: _XLine, x0: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """N_p per lane from the point P with x(P) = x0, or 0 where undecided.

    Baby steps x(iP), i = 1..m, and giant steps x(c_t P) at the centres
    c_t = lo + m + t(2m + 1) meet where c_t -/+ i kills P. Each candidate
    in the Hasse interval [lo, hi] is checked with a ladder. A lane is
    accepted only when a verified multiple reduces to an exact order e
    of P with no other multiple of e in [lo, hi]; e > hi - lo
    suffices, and by Mestre's theorem E or its twist has a point of such
    an order once p > 229. On the twist the multiple is 2p + 2 - N_p.
    Differential steps past a degenerate point only lose candidates or
    add false ones, so they can leave a lane undecided but never wrong.
    """
    p = xl.p
    L = len(p)
    lanes = np.arange(L, dtype=np.int64)
    bounds = [hasse_bounds(q) for q in p.tolist()]
    lo = np.array([b[0] for b in bounds], dtype=np.int64)
    hi = np.array([b[1] for b in bounds], dtype=np.int64)
    width = hi - lo
    m = math.isqrt(int(width.max())) + 1
    step = 2 * m + 1
    T = max(2, (int(width.max()) + step) // step)
    one = np.ones_like(x0)

    # baby steps: row i holds (i + 1) P
    X = np.empty((m + T, L), dtype=np.int64)
    Z = np.empty((m + T, L), dtype=np.int64)
    X[0], Z[0] = x0, one
    X[1], Z[1] = xl.dbl(x0, one)
    for i in range(2, m):
        X[i], Z[i] = xl.add(X[i - 1], Z[i - 1], x0, one, X[i - 2], Z[i - 2])
    # giant steps: row m + t holds c_t P
    c0 = lo + m
    GX, GZ = xl.ladder(x0, np.stack([c0, c0 + step, np.full(L, step, dtype=np.int64)]))
    X[m : m + 2], Z[m : m + 2] = GX[:2], GZ[:2]
    for t in range(2, T):
        r = m + t
        X[r], Z[r] = xl.add(X[r - 1], Z[r - 1], GX[2], GZ[2], X[r - 2], Z[r - 2])

    # normalise x = X/Z with one Fermat inverse per lane (simultaneous inversion)
    at_inf = Z == 0
    Z[at_inf] = 1
    prefix = np.empty_like(Z)
    prefix[0] = Z[0]
    for r in range(1, m + T):
        prefix[r] = prefix[r - 1] * Z[r] % p
    inv = _powmod(prefix[-1], p - 2, p)
    for r in range(m + T - 1, 0, -1):
        X[r] = X[r] * (inv * prefix[r - 1] % p) % p
        inv = inv * Z[r] % p
    X[0] = X[0] * inv % p

    # match (lane, x) keys; rows at infinity give junk keys, which the ladder check drops
    baby = ((lanes << 32) | X[:m]).ravel()
    order = np.argsort(baby)
    baby = baby[order]
    giant = ((lanes << 32) | X[m:]).ravel()
    pos = np.minimum(np.searchsorted(baby, giant), len(baby) - 1)
    hit = (baby[pos] == giant) & ~at_inf[m:].ravel()
    g_lane = np.flatnonzero(hit) % L
    centre = c0[g_lane] + np.flatnonzero(hit) // L * step
    i = order[pos[hit]] // L + 1
    zero = np.flatnonzero(at_inf[m:].ravel())
    cand_lane = np.concatenate([g_lane, g_lane, zero % L])
    cand = np.concatenate([centre - i, centre + i, c0[zero % L] + zero // L * step])
    keep = (lo[cand_lane] <= cand) & (cand <= hi[cand_lane])
    key = np.sort((cand_lane[keep] << 32) | cand[keep])
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    cand_lane, cand = key >> 32, key & 0xFFFFFFFF

    ok = xl.take(cand_lane).kills(x0[cand_lane], cand)
    cand_lane, cand = cand_lane[ok], cand[ok]
    e = _exact_orders(xl.take(cand_lane), x0[cand_lane], cand)
    accept = hi[cand_lane] // e - (lo[cand_lane] - 1) // e == 1
    cand_lane, cand = cand_lane[accept], cand[accept]
    out = np.zeros(L, dtype=np.int64)
    out[cand_lane] = np.where(twist[cand_lane], 2 * p[cand_lane] + 2 - cand, cand)
    return out


def _exact_orders(xl: _XLine, x0: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The order of P per lane, given a multiple M of it (M P = O).

    v_q(order) = v_q(M) - a for the largest a with (M / q^a) P = O, so
    each prime q of M is stripped on its own; all (lane, q) pairs run in
    one ladder per round.
    """
    e = M.copy()
    rem = M.copy()
    pair_lane, pair_q = [], []
    for q in primes_up_to(math.isqrt(int(M.max(initial=0)))):
        hit = rem % q == 0
        if not hit.any():
            continue
        pair_lane.append(np.flatnonzero(hit))
        while hit.any():
            rem[hit] //= q
            hit = rem % q == 0
        pair_q.append(np.full(len(pair_lane[-1]), q, dtype=np.int64))
    last = np.flatnonzero(rem > 1)
    lane = np.concatenate(pair_lane + [last])
    q = np.concatenate(pair_q + [rem[last]])
    s = M[lane] // q
    live = np.arange(len(lane))
    while len(live):
        stripped = xl.take(lane[live]).kills(x0[lane[live]], s[live])
        live = live[stripped]
        np.floor_divide.at(e, lane[live], q[live])
        live = live[s[live] % q[live] == 0]
        s[live] //= q[live]
    return e
