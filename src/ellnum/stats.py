"""Empirical distribution statistics of omega(N_p) over good primes.

Centered moments use the range bound x for the centering term loglog(x),
never a per-prime value. Every pass reads omega(N_p) from the table's
omegas column, which one omega_table fills once per table.
Sums run left to right in ascending p (a cumulative sum, not numpy's
pairwise np.sum) so every floating-point result is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_squarefree, loglog
from .arith import shared_sieve  # noqa: F401 (perfbench wraps stats.shared_sieve)
from .table import NpTable


@dataclass(frozen=True)
class MomentReport:
    """Centered second and fourth moments of omega(N_p) up to x.

    m2 and m4 are sums of (omega(N_p) - loglog x)^2 and ^4 over good
    primes p <= x. Both second-moment normalizations are reported:
    ratio2 divides by pi(x)*loglog x, ratio2_alt by x*loglog x, and
    ratio4 by pi(x)*(loglog x)^2.
    """

    x: int
    pi_x: int
    n_good: int
    mean_omega: float
    m2: float
    m4: float
    ratio2: float
    ratio2_alt: float
    ratio4: float


@dataclass(frozen=True)
class AdmissibilityProfile:
    """Partition of good primes <= x by omega(N_p) >= (1-eps)*loglog x."""

    x: int
    epsilon: float
    threshold: float
    admissible_count: int
    inadmissible_count: int
    inadmissible_recip_sum: float


@dataclass(frozen=True)
class DistributionReport:
    """Histogram of (omega(N_p) - loglog x) / sqrt(loglog x) and its KS statistic."""

    x: int
    sample_size: int
    bins: tuple[tuple[float, float, float], ...]  # (left, right, mass)
    ks_stat: float

    def csv_lines(self) -> list[str]:
        lines = ["bin_left,bin_right,mass"]
        lines.extend(f"{l!r},{r!r},{m!r}" for l, r, m in self.bins)
        return lines


@dataclass(frozen=True)
class RecipSumReport:
    """Reciprocal sums over good primes in [x^a, x^b), split by admissibility."""

    x: int
    a: float
    b: float
    epsilon: float
    total_sum: float
    admissible_sum: float
    inadmissible_sum: float
    mertens_reference: float  # log(b/a)
    empty_range: bool


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float sum; 0.0 when empty."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _omega_values(table: NpTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(good primes <= x, omega of their N values), ascending p."""
    if x > table.limit:
        raise ValueError(f"x={x} exceeds the table limit {table.limit}")
    ps = table.upto(x)[0]
    if len(ps) == 0:
        raise ValueError(f"no good primes <= {x} in the table")
    return ps, table.omegas[: len(ps)]


def moments(table: NpTable, x: int) -> MomentReport:
    """Centered moment sums of omega(N_p) over good primes p <= x."""
    llx = loglog(x)
    _, ws = _omega_values(table, x)
    n_good = len(ws)
    d = ws - llx
    d2 = d * d
    m2 = _ordered_sum(d2)
    m4 = _ordered_sum(d2 * d2)
    total = int(ws.sum())
    pi_x = n_good + sum(1 for b in table.bad_primes if b <= x)
    return MomentReport(
        x=x,
        pi_x=pi_x,
        n_good=n_good,
        mean_omega=total / n_good,
        m2=m2,
        m4=m4,
        ratio2=m2 / (pi_x * llx),
        ratio2_alt=m2 / (x * llx),
        ratio4=m4 / (pi_x * llx * llx),
    )


def _normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def standardized_distribution(table: NpTable, x: int, bins: int) -> DistributionReport:
    """Histogram of standardized omega values plus the KS distance to N(0,1)."""
    if bins < 1:
        raise ValueError("need at least one bin")
    llx = loglog(x)
    scale = math.sqrt(llx)
    _, ws = _omega_values(table, x)
    values = (ws - llx) / scale
    counts, edges = np.histogram(values, bins=bins)
    masses = counts / counts.sum()
    values.sort()
    n = len(values)
    distinct, at = np.unique(values, return_inverse=True)
    cdf = np.array([_normal_cdf(v) for v in distinct.tolist()])[at]
    i = np.arange(n)
    ks = float(max(np.abs((i + 1) / n - cdf).max(), np.abs(i / n - cdf).max()))
    return DistributionReport(
        x=x,
        sample_size=n,
        bins=tuple((float(edges[i]), float(edges[i + 1]), float(masses[i])) for i in range(bins)),
        ks_stat=ks,
    )


def admissibility_profile(table: NpTable, x: int, epsilon: float) -> AdmissibilityProfile:
    """Counts and the inadmissible reciprocal sum at threshold (1-eps)*loglog x."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    threshold = (1.0 - epsilon) * loglog(x)
    ps, ws = _omega_values(table, x)
    inad = ws < threshold
    n_inad = int(np.count_nonzero(inad))
    recip = _ordered_sum(1.0 / ps[inad])
    return AdmissibilityProfile(x, epsilon, threshold, len(ws) - n_inad, n_inad, recip)


def admissible_recip_sum(table: NpTable, x: int, a: float, b: float, epsilon: float) -> RecipSumReport:
    """Reciprocal sums over good primes in [x^a, x^b) at scale x.

    total_sum is the plain Mertens-style sum over good primes in the
    range; admissible_sum and inadmissible_sum split it exactly by the
    omega(N_p) >= (1-eps)*loglog x test. mertens_reference is log(b/a).
    """
    if not 0 < a < b < 1:
        raise ValueError(f"need 0 < a < b < 1, got a={a}, b={b}")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    hi = x**b
    if hi > table.limit + 1:
        raise ValueError(f"x^b = {hi:.1f} exceeds the table limit {table.limit}")
    lo = x**a
    threshold = (1.0 - epsilon) * loglog(x)
    band = (table.ps >= lo) & (table.ps < hi)
    r = 1.0 / table.ps[band]
    ok = table.omegas[band] >= threshold
    return RecipSumReport(
        x=x,
        a=a,
        b=b,
        epsilon=epsilon,
        total_sum=_ordered_sum(r),
        admissible_sum=_ordered_sum(r[ok]),
        inadmissible_sum=_ordered_sum(r[~ok]),
        mertens_reference=math.log(b / a),
        empty_range=not len(r),
    )


def pi_e(table: NpTable, x: int, d: int) -> int:
    """Number of good primes p <= x with d dividing N_p, for squarefree d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not is_squarefree(d):
        raise ValueError(f"d={d} is not squarefree")
    if x > table.limit:
        raise ValueError(f"x={x} exceeds the table limit {table.limit}")
    _, nps = table.upto(x)
    return int(np.count_nonzero(nps % d == 0))
