"""Solvers for the product equation N_{p1} * ... * N_{pk} = n.

g1 inverts a single point count through the Hasse window, gk_solutions
enumerates k-sets of distinct good primes whose counts multiply to n,
gk_census aggregates all attained products up to a bound, and bk_count /
dense_product_count are the admissible-product and dense-product
counters used as distribution diagnostics.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import divisors, iroot, loglog, omega_table, primes_in_range
from .counting import count_points
from .curves import CurveModel
from .errors import CensusBudgetError
from .table import NpTable, covering_table

DEFAULT_CENSUS_BUDGET = 200_000_000
DENSE_BRUTE_CEILING = 1_000_000


def default_epsilon(k: int) -> float:
    """Admissibility parameter: 0.008 at k = 3, else 90% of 2/(20(k^2+k))."""
    if k == 3:
        return 0.008
    return 0.9 * 2.0 / (20.0 * (k * k + k))


def hasse_prime_window(n: int) -> tuple[int, int]:
    """The integer interval of primes p that can possibly have N_p = n.

    N_p = n forces (sqrt(p) - 1)^2 <= n <= (sqrt(p) + 1)^2, i.e.
    p in [n + 1 - 2*sqrt(n), n + 1 + 2*sqrt(n)]; the bounds use exact
    integer square roots, no floating point.
    """
    if n < 1:
        raise ValueError("window needs n >= 1")
    s = math.isqrt(4 * n)
    return max(1, n + 1 - s), n + 1 + s


@dataclass(frozen=True)
class ProgressionRecord:
    """All good primes sharing the point count n; len(primes) is G_1(E, n)."""

    n: int
    primes: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.primes)

    def as_dict(self) -> dict:
        return {"n": self.n, "primes": list(self.primes), "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class GkSolution:
    """All unordered k-sets of distinct good primes with N-product n."""

    n: int
    k: int
    solutions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.solutions)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "count": self.count,
            "solutions": [list(s) for s in self.solutions],
        }


@dataclass(frozen=True)
class BkReport:
    """Count of squarefree products of k distinct admissible primes <= x."""

    x: int
    k: int
    epsilon: float
    count: int
    density_ratio: float

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "k": self.k,
            "epsilon": self.epsilon,
            "count": self.count,
            "density_ratio": self.density_ratio,
        }


def _np_window(
    model: CurveModel, lo: int, hi: int, table: NpTable | None, seed: int
) -> tuple[list[int], list[int]]:
    """Good primes in [lo, hi] with their N_p, ascending.

    A table for the same curve serves the primes up to its limit; each
    good prime above the limit is counted once.
    """
    ps: list[int] = []
    nps: list[int] = []
    if table is not None and table.curve.coefficients == model.coefficients:
        i = int(np.searchsorted(table.ps, lo))
        j = int(np.searchsorted(table.ps, hi, side="right"))
        ps, nps = table.ps[i:j].tolist(), table.nps[i:j].tolist()
        lo = max(lo, table.limit + 1)
    for p in primes_in_range(lo, hi):
        if model.disc % p:
            ps.append(p)
            nps.append(count_points(model, p, seed=seed))
    return ps, nps


def g1(model: CurveModel, n: int, table: NpTable | None = None, seed: int = 0) -> ProgressionRecord:
    """Exhaustive solution of N_p = n: every prime in the window is tested."""
    ps, nps = _np_window(model, *hasse_prime_window(n), table, seed)
    return ProgressionRecord(n, tuple(p for p, v in zip(ps, nps) if v == n))


def find_progressions(
    model: CurveModel,
    n_lo: int,
    n_hi: int,
    min_multiplicity: int = 2,
    table: NpTable | None = None,
    seed: int = 0,
) -> list[ProgressionRecord]:
    """All n in [n_lo, n_hi] with G_1(E, n) >= min_multiplicity.

    Both ends of the Hasse window are nondecreasing in n, so the window
    from the low end of n_lo to the high end of n_hi holds every prime
    whose N_p lies in range; one pass groups those primes by value.
    """
    if n_lo < 1:
        raise ValueError("range must start at n >= 1")
    if n_hi < n_lo:
        return []
    lo = hasse_prime_window(n_lo)[0]
    hi = hasse_prime_window(n_hi)[1]
    groups: dict[int, list[int]] = {}
    for p, v in zip(*_np_window(model, lo, hi, table, seed)):
        if n_lo <= v <= n_hi:
            groups.setdefault(v, []).append(p)
    return [
        ProgressionRecord(n, tuple(groups[n]))
        for n in sorted(groups)
        if len(groups[n]) >= min_multiplicity
    ]


_SMALLEST_CACHE: dict[tuple, tuple[int, ...]] = {}


def _smallest_np_values(model: CurveModel, count: int, table: NpTable | None, seed: int) -> tuple[int, ...]:
    """The `count` smallest N_p values over distinct good primes, globally.

    A scan of p <= B is exhaustive once the Hasse bound forces every
    prime above B past the largest chosen value.
    """
    if count <= 0:
        return ()
    key = (model.coefficients, count)
    if key in _SMALLEST_CACHE:
        return _SMALLEST_CACHE[key]
    lo, bound, vals = 2, 1000, []
    while True:
        vals = sorted(vals + _np_window(model, lo, bound, table, seed)[1])
        if len(vals) >= count and hasse_prime_window(vals[count - 1])[1] <= bound:
            picked = tuple(vals[:count])
            _SMALLEST_CACHE[key] = picked
            return picked
        lo, bound = bound + 1, bound * 4


def gk_solutions(
    model: CurveModel,
    k: int,
    n: int,
    table: NpTable | None = None,
    seed: int = 0,
) -> GkSolution:
    """All unordered k-sets of distinct good primes with N-product exactly n.

    Every factor divides n and is at most n over the product of the k-1
    smallest N_p, so the candidate pool is finite and fixed before
    enumeration starts. The Hasse windows of those divisors overlap, so
    their union is read once, span by span.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    smallest = _smallest_np_values(model, k - 1, table, seed)
    other_min = math.prod(smallest) if smallest else 1
    if other_min > n:
        return GkSolution(n, k, ())
    d_cap = n // other_min
    wanted = [d for d in divisors(n) if d <= d_cap]
    # both ends of the window are nondecreasing in d, so spans merge in order
    spans: list[list[int]] = []
    for d in wanted:
        lo, hi = hasse_prime_window(d)
        if spans and lo <= spans[-1][1] + 1:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])
    wanted_set = set(wanted)
    pool: list[tuple[int, int]] = []  # (N value, prime), sorted by N then p
    for lo, hi in spans:
        pool.extend((v, p) for p, v in zip(*_np_window(model, lo, hi, table, seed)) if v in wanted_set)
    pool.sort()
    vals = [d for d, _ in pool]
    sols: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(start: int, remaining: int, rem_product: int) -> None:
        if remaining == 1:
            i = bisect_left(vals, rem_product, lo=start)
            j = bisect_right(vals, rem_product, lo=i)
            for t in range(i, j):
                sols.append(tuple(sorted(chosen + [pool[t][1]])))
            return
        for i in range(start, len(pool)):
            d = vals[i]
            if d**remaining > rem_product:
                break
            if rem_product % d:
                continue
            chosen.append(pool[i][1])
            rec(i + 1, remaining - 1, rem_product // d)
            chosen.pop()

    rec(0, k, n)
    sols.sort()
    return GkSolution(n, k, tuple(sols))


class CensusResult:
    """Aggregated map n -> G_k(E, n) over all attained products n <= x."""

    def __init__(
        self,
        model: CurveModel,
        k: int,
        x: int,
        ns: np.ndarray,
        counts: np.ndarray,
        table: NpTable | None = None,
    ):
        self.model = model
        self.k = k
        self.x = x
        self.ns = ns
        self.counts = counts
        self._table = table

    def __len__(self) -> int:
        return len(self.ns)

    @property
    def table(self) -> NpTable | None:
        return self._table

    def count(self, n: int) -> int:
        i = int(np.searchsorted(self.ns, n))
        if i < len(self.ns) and self.ns[i] == n:
            return int(self.counts[i])
        return 0

    def items(self):
        for n, c in zip(self.ns.tolist(), self.counts.tolist()):
            yield n, c

    def as_dict(self) -> dict[int, int]:
        return dict(self.items())

    @property
    def total_products(self) -> int:
        return int(self.counts.sum()) if len(self.counts) else 0

    @property
    def max_count(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    @property
    def argmax(self) -> int | None:
        if not len(self.counts):
            return None
        return int(self.ns[int(np.argmax(self.counts))])

    def witnesses(self, n: int) -> list[tuple[int, ...]]:
        """Every solution set for n, recomputed through gk_solutions."""
        return list(gk_solutions(self.model, self.k, n, table=self._table).solutions)

    def csv_lines(self) -> list[str]:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in self.items())
        return lines


def _product_blocks(vals: list[int], k: int, x: int, repeat: bool = False) -> list[tuple[int, int, int]]:
    """The index-ascending k-products <= x over the sorted values, as blocks.

    A block (partial, start, stop) stands for the products partial * vals[t]
    for start <= t < stop, partial being the product of the k - 1 earlier
    factors. Indices rise strictly, or weakly when `repeat` is set.
    """
    blocks: list[tuple[int, int, int]] = []
    stack = [(0, k, x, 1)]
    while stack:
        start, remaining, cap, partial = stack.pop()
        if remaining == 1:
            stop = bisect_right(vals, cap, lo=start)
            if stop > start:
                blocks.append((partial, start, stop))
            continue
        hi = bisect_right(vals, iroot(cap, remaining), lo=start)
        for i in range(start, hi):
            v = vals[i]
            stack.append((i if repeat else i + 1, remaining - 1, cap // v, partial * v))
    return blocks


def _product_count(vals: list[int], k: int, x: int) -> int:
    """Number of index-ascending k-products <= x over the sorted values."""
    return sum(stop - start for _, start, stop in _product_blocks(vals, k, x))


def gk_census(
    model: CurveModel,
    k: int,
    x: int,
    table: NpTable | None = None,
    seed: int = 0,
    budget: int = DEFAULT_CENSUS_BUDGET,
    workers: int = 1,
    cache_dir=None,
) -> CensusResult:
    """Aggregate G_k(E, n) for every attained n <= x.

    The candidate primes are fixed before enumeration (Hasse window of
    the largest possible factor); one enumeration lists the product
    blocks, their total is checked against `budget`, and the blocks fill
    one flat product array that is sorted and grouped. The result is
    deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    empty = np.empty(0, np.int64)
    if x < 1:
        return CensusResult(model, k, x, empty, empty, table)
    smallest = _smallest_np_values(model, k - 1, table, seed)
    other_min = math.prod(smallest) if smallest else 1
    if other_min > x:
        return CensusResult(model, k, x, empty, empty, table)
    n_cap = x // other_min
    limit = hasse_prime_window(n_cap)[1]
    table = covering_table(table, model, limit, workers=workers, seed=seed, cache_dir=cache_dir)
    nps = table.upto(limit)[1]
    nps_arr = np.sort(nps[nps <= n_cap])
    ns = nps_arr.tolist()
    blocks = _product_blocks(ns, k, x)
    total = sum(stop - start for _, start, stop in blocks)
    if total > budget:
        lo_b, hi_b = 1, x
        while lo_b < hi_b:
            mid = (lo_b + hi_b + 1) // 2
            if _product_count(ns, k, mid) <= budget:
                lo_b = mid
            else:
                hi_b = mid - 1
        raise CensusBudgetError(
            f"census at x={x} needs {total} products (budget {budget}); "
            f"largest feasible bound is x={lo_b}",
            feasible_bound=lo_b,
        )
    if total == 0:
        return CensusResult(model, k, x, empty, empty, table)
    products = np.empty(total, dtype=np.int64)
    cursor = 0
    for partial, start, stop in blocks:
        products[cursor : cursor + stop - start] = partial * nps_arr[start:stop]
        cursor += stop - start
    products.sort()
    breaks = np.flatnonzero(products[1:] != products[:-1])
    starts = np.concatenate(([0], breaks + 1))
    uniq = products[starts].copy()
    counts = np.diff(np.concatenate((starts, [total]))).astype(np.int64)
    return CensusResult(model, k, x, uniq, counts, table)


def bk_count(
    model: CurveModel,
    k: int,
    x: int,
    epsilon: float | None = None,
    a: float | None = None,
    b: float | None = None,
    table: NpTable | None = None,
    seed: int = 0,
) -> BkReport:
    """Count squarefree products of k distinct admissible primes <= x.

    A prime is admissible when omega(N_p) >= (1 - epsilon) * loglog(x);
    epsilon defaults per default_epsilon(k). When a and b are given the
    primes are restricted to [x^a, x^b); by default every admissible
    prime <= x may appear.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if epsilon is None:
        epsilon = default_epsilon(k)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    threshold = (1.0 - epsilon) * loglog(x)
    if (a is None) != (b is None):
        raise ValueError("give both a and b, or neither")
    table = covering_table(table, model, x, seed=seed)
    ps, nps = table.upto(x)
    admissible = ps[omega_table(int(nps.max(initial=0)))[nps] >= threshold].tolist()
    if a is not None:
        if not 0 < a < b < 1:
            raise ValueError("need 0 < a < b < 1")
        lo_p, hi_p = x**a, x**b
        admissible = [p for p in admissible if lo_p <= p < hi_p]
    count = _product_count(admissible, k, x)
    return BkReport(x, k, epsilon, count, count * math.log(x) / x)


def dense_product_count(
    x: int, k: int, epsilon: float | None = None, ceiling: int = DENSE_BRUTE_CEILING
) -> int:
    """|{n <= x : n = n_1 * ... * n_k, omega(n_i) > (1-eps)*loglog(x) for all i}|.

    Brute force by design: factors with enough distinct prime divisors
    are listed from a sieve and every k-fold product is marked.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if epsilon is None:
        epsilon = default_epsilon(k)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if x > ceiling:
        raise ValueError(f"x={x} above the brute-force ceiling {ceiling}")
    if x < 2:
        return 0
    threshold = (1.0 - epsilon) * math.log(math.log(x))
    w = omega_table(x)
    factors = np.flatnonzero(w > threshold).tolist()
    arr = np.asarray(factors, dtype=np.int64)
    marked = np.zeros(x + 1, dtype=bool)
    for partial, start, stop in _product_blocks(factors, k, x, repeat=True):
        marked[partial * arr[start:stop]] = True
    return int(np.count_nonzero(marked))
