"""Point counts N_p over prime fields by three methods.

count_naive enumerates all affine pairs (O(p^2), oracle for tiny p),
count_charsum sums the quadratic character of the completed square
(O(p), vectorized), and count_bsgs finds the group order inside the
Hasse interval via baby-step/giant-step (O(p^(1/4)) group operations).
count_points dispatches on the prime size; the three methods agree
wherever their domains overlap.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .curves import CurveModel, Point, ReducedCurve, _add_raw, legendre, point_neg, scalar_mul, sqrt_mod

# Characters sums stay exact in int64 up to here; BSGS has no such cap.
CHARSUM_PRIME_CAP = 1 << 30

# Dispatch threshold: charsum for p up to here, BSGS above.
CHARSUM_THRESHOLD = 100_000

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
    intersected until unique; if the attempt budget runs out the call
    falls back to count_charsum rather than failing.
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
    return count_charsum(rc)


def count_points(model: CurveModel, p: int, seed: int = 0) -> int:
    """N_p(E) for a good prime p, dispatched by prime size."""
    rc = ReducedCurve.reduce(model, p)
    if p <= 3:
        return count_naive(rc)
    if p <= CHARSUM_THRESHOLD:
        return count_charsum(rc)
    return count_bsgs(rc, seed=seed)
