"""Solvers for the product equation N_{p1} * ... * N_{pk} = n.

g1 inverts a single point count through the Hasse window, gk_solutions
enumerates k-sets of distinct good primes whose counts multiply to n,
gk_census aggregates all attained products up to a bound, and bk_count /
dense_product_count are the admissible-product and dense-product
counters used as distribution diagnostics. g1, find_progressions and
gk_solutions ask the counting batch only for the values they can use,
so primes whose N_p cannot be among them are dropped uncounted.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import divides, divisors, iroot, loglog, omega_table, primes_in_range
from .counting import count_points, hasse_bounds
from .curves import CurveModel
from .table import NpTable, covering_table

DENSE_BRUTE_CEILING = 1_000_000

# Product blocks become products in chunks of at most this many values, so
# the fill's temporaries stay about 1.5 MB whatever the census size.
FILL_CELLS = 1 << 16

# A census groups its products in slabs of n holding at most this many (or
# one n), so its work arrays stay under about 100 MB whatever x is.
SLAB_CELLS = 1 << 22


def default_epsilon(k: int) -> float:
    """Admissibility parameter: 0.008 at k = 3, else 90% of 2/(20(k^2+k))."""
    if k == 3:
        return 0.008
    return 0.9 * 2.0 / (20.0 * (k * k + k))


def hasse_prime_window(n: int) -> tuple[int, int]:
    """The integer interval of primes p that can possibly have N_p = n.

    N_p = n forces (sqrt(p) - 1)^2 <= n <= (sqrt(p) + 1)^2, i.e.
    p in [n + 1 - 2*sqrt(n), n + 1 + 2*sqrt(n)]: the Hasse interval of n
    itself, clipped at 1.
    """
    if n < 1:
        raise ValueError("window needs n >= 1")
    lo, hi = hasse_bounds(n)
    return max(1, lo), hi


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


def _np_window(
    model: CurveModel, lo: int, hi: int, table: NpTable | None, seed: int, within: tuple[int, int] | None = None
) -> tuple[list[int], list[int]]:
    """Good primes in [lo, hi] with their N_p, ascending; with within =
    (a, b), only those with a <= N_p <= b.

    A table serves the primes up to its limit and raises TableError if it
    is for another curve; the good primes above the limit are counted
    once, as one batch of lanes, which drop the primes whose N_p cannot
    lie in within before counting. |E(Q)[2]| divides N_p at every odd
    good p, so a window of odd primes whose range holds no multiple of it
    is empty before any prime is sieved.
    """
    if table is not None:
        covering_table(table, model, min(hi, table.limit))
    t = model.two_torsion_order
    if within and lo > 2 and within[1] // t < -(-within[0] // t):
        return [], []
    ps = nps = np.empty(0, dtype=np.int64)
    if table is not None:
        i = int(np.searchsorted(table.ps, lo))
        j = int(np.searchsorted(table.ps, hi, side="right"))
        ps, nps = table.ps[i:j], table.nps[i:j]
        lo = max(lo, table.limit + 1)
    primes = primes_in_range(lo, hi)
    good = primes[~divides(primes, model.disc)] if len(primes) else primes
    if len(good):
        # one batch through the module attribute, as a tuple: traced runs keep (curve, primes) in a set
        counted = count_points(model, tuple(good.tolist()), seed=seed, within=within, sieved=True)
        ps, nps = np.concatenate([ps, good]), np.concatenate([nps, counted])
    kept = (max(within[0], 1) <= nps) & (nps <= within[1]) if within else slice(None)
    return ps[kept].tolist(), nps[kept].tolist()


def g1(model: CurveModel, n: int, table: NpTable | None = None, seed: int = 0) -> ProgressionRecord:
    """Exhaustive solution of N_p = n: every prime in the window is tested."""
    return ProgressionRecord(n, tuple(_np_window(model, *hasse_prime_window(n), table, seed, (n, n))[0]))


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
    for p, v in zip(*_np_window(model, lo, hi, table, seed, (n_lo, n_hi))):
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
    spans: list[list[int]] = []  # [lo, hi, first d, last d]
    for d in wanted:
        lo, hi = hasse_prime_window(d)
        if spans and lo <= spans[-1][1] + 1:
            spans[-1][1], spans[-1][3] = hi, d
        else:
            spans.append([lo, hi, d, d])
    wanted_set = set(wanted)
    pool: list[tuple[int, int]] = []  # (N value, prime), sorted by N then p
    for lo, hi, d_lo, d_hi in spans:
        window = _np_window(model, lo, hi, table, seed, (d_lo, d_hi))
        pool.extend((v, p) for p, v in zip(*window) if v in wanted_set)
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


@dataclass(frozen=True, eq=False)
class CensusResult:
    """Aggregated map n -> G_k(E, n) over all attained products n <= x."""

    model: CurveModel
    k: int
    x: int
    ns: np.ndarray
    counts: np.ndarray
    table: NpTable | None = None

    def __len__(self) -> int:
        return len(self.ns)

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
        return list(gk_solutions(self.model, self.k, n, table=self.table).solutions)

    def csv_lines(self) -> list[str]:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in self.items())
        return lines


def _product_blocks(vals: np.ndarray, k: int, x: int, repeat: bool = False):
    """The index-ascending k-products <= x over the sorted positive values, as blocks.

    Returns int64 arrays (partial, start, stop): block b stands for the
    products partial[b] * vals[t] for start[b] <= t < stop[b], partial[b]
    being the product of the k - 1 earlier factors. Indices rise strictly,
    or weakly when `repeat` is set. The frontier of partial products grows
    one factor per level: a factor v with rem factors still to place needs
    v**rem <= x // partial, and only values up to iroot(x, rem) can, so
    their rem-th powers fit int64 and one searchsorted bounds every entry.
    """
    vals = np.asarray(vals, dtype=np.int64)
    partial = np.ones(1, np.int64)
    start = np.zeros(1, np.int64)
    cap = np.full(1, x, np.int64)
    for rem in range(k, 1, -1):
        head = vals[: np.searchsorted(vals, iroot(x, rem), side="right")]
        width = np.maximum(np.searchsorted(head**rem, cap, side="right") - start, 0)
        parent = np.repeat(np.arange(len(width)), width)
        t = start[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        v = vals[t]
        partial, cap, start = partial[parent] * v, cap[parent] // v, t if repeat else t + 1
    stop = np.searchsorted(vals, cap, side="right")
    keep = stop > start
    return partial[keep], start[keep], stop[keep]


def _product_count(vals: np.ndarray, k: int, x: int) -> int:
    """Number of index-ascending k-products <= x over the sorted values."""
    _, start, stop = _product_blocks(vals, k, x)
    return int((stop - start).sum())


def _product_chunks(vals: np.ndarray, blocks):
    """The products of the blocks in block order, in arrays of at most
    FILL_CELLS values of the dtype of vals.

    A chunk may cut a block at either end. Within a chunk, the value index
    of position j in block b is j plus the offset lo[b] - (first position
    of b), so one repeat of the offsets gives every index.
    """
    partial, start, stop = blocks
    ends = np.cumsum(stop - start)
    total = int(ends[-1]) if len(ends) else 0
    for c0 in range(0, total, FILL_CELLS):
        c1 = min(c0 + FILL_CELLS, total)
        b0 = int(np.searchsorted(ends, c0, side="right"))
        b1 = int(np.searchsorted(ends, c1 - 1, side="right")) + 1
        lo, hi = start[b0:b1].copy(), stop[b0:b1].copy()
        lo[0] = stop[b0] - (ends[b0] - c0)
        hi[-1] = stop[b1 - 1] - (ends[b1 - 1] - c1)
        lens = hi - lo
        t = np.arange(c1 - c0) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        yield np.repeat(partial[b0:b1].astype(vals.dtype), lens) * vals[t]


def _group_products(key: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(ns, counts) in the dtype of key, the sorted values: each distinct
    product of the blocks, ascending, with the number of blocks' products
    equal to it. A count is at most the blocks' total, so it fits that
    dtype whenever the products do.
    """
    total = int((blocks[2] - blocks[1]).sum())
    products = np.empty(total, key.dtype)
    cursor = 0
    for chunk in _product_chunks(key, blocks):
        products[cursor : cursor + len(chunk)] = chunk
        cursor += len(chunk)
    products.sort()
    run = np.empty(total, bool)
    run[:1] = True
    np.not_equal(products[1:], products[:-1], out=run[1:])
    heads = np.flatnonzero(run)
    del run
    ns, counts = np.empty(len(heads), key.dtype), np.empty(len(heads), key.dtype)
    ns[:] = products[heads]
    del products
    # run lengths go straight into counts, with no concatenated copy of heads
    np.subtract(heads[1:], heads[:-1], out=counts[:-1])
    counts[-1:] = total - heads[-1:]
    return ns, counts


def _split(key: np.ndarray, blocks, edge: int):
    """The blocks cut into those of their products <= edge and those above:
    a block's products partial * key[t] ascend in t, so the first above
    edge is at the first value > edge // partial. Empty blocks are dropped."""
    partial, start, stop = blocks
    cut = np.clip(np.searchsorted(key, (edge // partial).astype(key.dtype), side="right"), start, stop)
    below, above = cut > start, stop > cut
    return (partial[below], start[below], cut[below]), (partial[above], cut[above], stop[above])


def _slab_groups(key: np.ndarray, blocks, lo: int, hi: int):
    """(ns, counts) of the products of the blocks, all in [lo, hi], in
    ascending pieces; a range of more than SLAB_CELLS products and more
    than one n is halved, and a half with no products is skipped."""
    if lo == hi or int((blocks[2] - blocks[1]).sum()) <= SLAB_CELLS:
        yield _group_products(key, blocks)
        return
    mid = (lo + hi) // 2
    for half, a, b in zip(_split(key, blocks, mid), (lo, mid + 1), (mid, hi)):
        if len(half[0]):
            yield from _slab_groups(key, half, a, b)


def gk_census(
    model: CurveModel,
    k: int,
    x: int,
    table: NpTable | None = None,
    seed: int = 0,
    workers: int = 1,
    cache_dir=None,
) -> CensusResult:
    """Aggregate G_k(E, n) for every attained n <= x.

    The candidate primes are fixed before enumeration (Hasse window of
    the largest possible factor); one enumeration lists the product
    blocks, which are sorted and grouped slab by slab of n, each slab
    holding at most SLAB_CELLS products. The slabs give `ns` and `counts`
    as int32 when x < 2**31, else int64. The result is deterministic for a
    fixed seed.
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
    vals = np.sort(nps[nps <= n_cap])
    # every product, and every value and partial product it is made of, is at most x,
    # so below 2**31 they are filled, sorted and grouped as int32 keys: half the bytes
    key = vals.astype(np.int32) if x < 2**31 else vals
    ns, counts = zip(*_slab_groups(key, _product_blocks(vals, k, x), 1, x))
    if len(ns) == 1:  # one slab is not copied
        return CensusResult(model, k, x, ns[0], counts[0], table)
    ns = np.concatenate(ns)  # its pieces go before those of counts are joined
    return CensusResult(model, k, x, ns, np.concatenate(counts), table)


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
    ps = table.upto(x)[0]
    admissible = ps[table.omegas[: len(ps)] >= threshold]
    if a is not None:
        if not 0 < a < b < 1:
            raise ValueError("need 0 < a < b < 1")
        lo_p, hi_p = x**a, x**b
        admissible = admissible[(lo_p <= admissible) & (admissible < hi_p)]
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
    factors = np.flatnonzero(omega_table(x)[1:] > threshold) + 1
    marked = np.zeros(x + 1, dtype=bool)
    for chunk in _product_chunks(factors, _product_blocks(factors, k, x, repeat=True)):
        marked[chunk] = True
    return int(np.count_nonzero(marked))
