"""Exact Weierstrass curve arithmetic over Q and over prime fields.

A curve is given by five integer coefficients (a1, a2, a3, a4, a6) of

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

The group law is implemented for this full five-coefficient form, so
p = 2 and p = 3 need no special casing anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .arith import is_prime
from .errors import BadReductionError, CurveSpecError, SingularCurveError

# Affine points are (x, y) residue pairs; None is the point at infinity.
Point = tuple[int, int] | None
INFINITY: Point = None


@dataclass(frozen=True)
class CurveModel:
    """An integral Weierstrass model with its derived invariants."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    disc: int

    @classmethod
    def from_coefficients(cls, a1: int, a2: int, a3: int, a4: int, a6: int) -> "CurveModel":
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        assert 4 * b8 == b2 * b6 - b4 * b4
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurveError(
                f"singular model ({a1},{a2},{a3},{a4},{a6}): discriminant is 0"
            )
        return cls(a1, a2, a3, a4, a6, b2, b4, b6, b8, disc)

    @property
    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def two_torsion_order(self) -> int:
        """|E(Q)[2]|, which divides N_p and the twist's order 2p + 2 - N_p at
        every odd good p: 1 plus the rational roots x of 4x^3 + b2 x^2 +
        2 b4 x + b6, the x of the points with 2y + a1 x + a3 = 0.

        y = 4x turns them into the integer roots of the monic
        g(y) = y^3 + b2 y^2 + 8 b4 y + 16 b6, all with |y| < bound (Cauchy).
        g is monotone between its critical points (-b2 -/+ sqrt(D)) / 3,
        D = b2^2 - 24 b4; the few integers that may lie on either side of
        one are tried, and each monotone run between them is bisected.
        """
        e2, e1, e0 = self.b2, 8 * self.b4, 16 * self.b6

        def g(y: int) -> int:
            return ((y + e2) * y + e1) * y + e0

        bound = 1 + max(abs(e2), abs(e1), abs(e0))
        runs, tried = [(-bound, bound, 1)], []
        if 3 * e1 < e2 * e2:  # two critical points: g rises, falls, rises
            s = math.isqrt(e2 * e2 - 3 * e1)
            u, v = (-e2 - s - 1) // 3, (-e2 + s) // 3  # u < the first point < u + 2, v <= the second < v + 2
            runs = [(-bound, u, 1), (u + 2, v, -1), (v + 2, bound, 1)]
            tried = [u + 1, v + 1]
        roots = {y for y in tried if g(y) == 0}
        for lo, hi, sign in runs:
            while lo < hi:  # the first y with sign * g(y) >= 0
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if sign * g(mid) >= 0 else (mid + 1, hi)
            if g(lo) == 0:
                roots.add(lo)
        return 1 + len(roots)

    def spec_text(self) -> str:
        """The canonical "a1,a2,a3,a4,a6" form of this model."""
        return ",".join(str(a) for a in self.coefficients)

    def __str__(self) -> str:
        return f"curve {self.spec_text()} (disc {self.disc})"


def parse_curve(spec: str) -> CurveModel:
    """Parse "a1,a2,a3,a4,a6" (signed decimal integers, spaces tolerated)."""
    parts = [s.strip() for s in spec.split(",")]
    if len(parts) != 5:
        raise CurveSpecError(f"curve spec needs 5 comma-separated integers, got {spec!r}")
    try:
        coeffs = [int(s) for s in parts]
    except ValueError:
        raise CurveSpecError(f"curve spec has a non-integer field: {spec!r}") from None
    return CurveModel.from_coefficients(*coeffs)


def is_good_prime(model: CurveModel, p: int) -> bool:
    """True iff p does not divide the discriminant of this model."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return model.disc % p != 0


@dataclass(frozen=True)
class ReducedCurve:
    """A curve model reduced modulo a good prime."""

    model: CurveModel
    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @classmethod
    def reduce(cls, model: CurveModel, p: int) -> "ReducedCurve":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if model.disc % p == 0:
            raise BadReductionError(
                f"p={p} divides disc={model.disc} of {model.spec_text()}: bad reduction"
            )
        a1, a2, a3, a4, a6 = (a % p for a in model.coefficients)
        return cls(model, p, a1, a2, a3, a4, a6)

    @property
    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_on_curve(self, P: Point) -> bool:
        if P is None:
            return True
        x, y = P
        p = self.p
        lhs = (y * y + self.a1 * x * y + self.a3 * y) % p
        rhs = (((x + self.a2) * x + self.a4) * x + self.a6) % p
        return lhs == rhs


def point_neg(rc: ReducedCurve, P: Point) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, (-y - rc.a1 * x - rc.a3) % rc.p)


def point_add(rc: ReducedCurve, P: Point, Q: Point) -> Point:
    """Chord-tangent sum of two points on the five-coefficient model."""
    if not rc.is_on_curve(P):
        raise ValueError(f"point {P} is not on the curve mod {rc.p}")
    if not rc.is_on_curve(Q):
        raise ValueError(f"point {Q} is not on the curve mod {rc.p}")
    return _add_raw(rc.p, rc.a1, rc.a2, rc.a3, rc.a4, rc.a6, P, Q)


def _add_raw(p, a1, a2, a3, a4, a6, P, Q):
    # Group law per the general Weierstrass formulas; no on-curve checks.
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3) % p == 0:
            return None
        # tangent slope at P (here necessarily P == Q)
        num = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) % p
        den = (2 * y1 + a1 * x1 + a3) % p
    else:
        num = (y2 - y1) % p
        den = (x2 - x1) % p
    lam = num * pow(den, -1, p) % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1 - a1 * x3 - a3) % p
    return (x3, y3)


def scalar_mul(rc: ReducedCurve, m: int, P: Point) -> Point:
    """m*P by double-and-add; 0*P is the point at infinity."""
    if m < 0:
        raise ValueError("scalar must be nonnegative")
    if not rc.is_on_curve(P):
        raise ValueError(f"point {P} is not on the curve mod {rc.p}")
    p, a1, a2, a3, a4, a6 = rc.p, rc.a1, rc.a2, rc.a3, rc.a4, rc.a6
    result: Point = None
    addend = P
    while m:
        if m & 1:
            result = _add_raw(p, a1, a2, a3, a4, a6, result, addend)
        addend = _add_raw(p, a1, a2, a3, a4, a6, addend, addend)
        m >>= 1
    return result


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a|p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre symbol needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1

