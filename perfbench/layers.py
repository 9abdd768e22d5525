"""The traced run: spans around calls into each layer, and the layer probes.

Tracing wraps ellnum's public functions on the modules that call them, so
a call from search into counting is seen at that boundary. Spans are
aggregated in memory per name (calls, total and self CPU time) and written
out when the run ends. The probes time each layer's public functions, in
CPU time, on fixed-size seeded inputs; their figures are the per-layer
metrics.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import ellnum.arith
import ellnum.counting
import ellnum.curves
import ellnum.search
import ellnum.stats
import ellnum.table

import oracle

# (module, attribute, span name): the boundaries the traced run records.
BOUNDARIES = [
    (ellnum.table, "build_table", "table.build_table"),
    (ellnum.table, "save_table", "table.save_table"),
    (ellnum.table, "load_table", "table.load_table"),
    (ellnum.table, "count_points", "counting.count_points"),
    (ellnum.table, "primes_up_to", "arith.primes_up_to"),
    (ellnum.search, "count_points", "counting.count_points"),
    (ellnum.search, "primes_in_range", "arith.primes_in_range"),
    (ellnum.search, "divisors", "arith.divisors"),
    (ellnum.search, "covering_table", "table.covering_table"),
    (ellnum.search, "g1", "search.g1"),
    (ellnum.search, "find_progressions", "search.find_progressions"),
    (ellnum.search, "gk_census", "search.gk_census"),
    (ellnum.search, "gk_solutions", "search.gk_solutions"),
    (ellnum.search, "bk_count", "search.bk_count"),
    (ellnum.stats, "moments", "stats.moments"),
    (ellnum.stats, "standardized_distribution", "stats.standardized_distribution"),
    (ellnum.stats, "admissibility_profile", "stats.admissibility_profile"),
    (ellnum.stats, "admissible_recip_sum", "stats.admissible_recip_sum"),
    (ellnum.stats, "shared_sieve", "arith.shared_sieve"),
    (ellnum.counting, "count_charsum", "counting.count_charsum"),
    (ellnum.counting, "count_bsgs", "counting.count_bsgs"),
]


class Tracer:
    """Wraps the boundaries above; aggregates spans per name."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.search_counts: list[tuple] = []     # (curve, p) of every search -> counting call
        self._stack: list[float] = []            # child time accumulated per open span
        self._saved = []

    def install(self):
        for module, attr, name in BOUNDARIES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, module is ellnum.search and attr == "count_points"))
        validate = ellnum.table.NpTable.validate
        self._saved.append((ellnum.table.NpTable, "validate", validate))
        ellnum.table.NpTable.validate = self._wrap(validate, "table.validate", False)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, count_prime):
        def traced(*args, **kwargs):
            if count_prime:
                self.search_counts.append((args[0].coefficients, args[1]))
            self._stack.append(0.0)
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child

        traced.__wrapped__ = fn
        return traced

    def merge(self, summary: dict) -> None:
        """Add the spans of another process, given as its summary()."""
        for name, span in summary.items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += span["calls"]
            agg[1] += span["total_s"]
            agg[2] += span["self_s"]

    def summary(self) -> dict:
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())}


def _median_time(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.process_time()
        out = fn()
        times.append(time.process_time() - t0)
    return statistics.median(times), out


def _sample_primes(coeffs, size: int, count: int, rng) -> list[int]:
    """`count` seeded good primes in [size, 1.05 * size]."""
    window = oracle.good_primes(coeffs, size, size + size // 20)
    return sorted(rng.choice(window, size=min(count, len(window)), replace=False).tolist())


def _per_prime_us(method, model, primes, seed: int) -> float:
    rcs = [ellnum.curves.ReducedCurve.reduce(model, p) for p in primes]
    t0 = time.process_time()
    for rc in rcs:
        if method == "bsgs":
            ellnum.counting.count_bsgs(rc, seed=seed)
        else:
            ellnum.counting.count_charsum(rc)
    return (time.process_time() - t0) / len(rcs) * 1e6


def _point_on_37a(p: int, rng):
    """A point of 37a mod p = 3 (mod 4): (2y + 1)^2 = 4x^3 - 4x + 1."""
    while True:
        x = int(rng.integers(0, p))
        r = (4 * x ** 3 - 4 * x + 1) % p
        s = pow(r, (p + 1) // 4, p)
        if s * s % p == r:
            return x, (s - 1) * pow(2, -1, p) % p


def probe_layers(seed: int, out_dir: str) -> dict:
    """Per-layer metrics on fixed-size seeded inputs: name -> (value, unit).

    Meant for a fresh process, so that every workload's traced run reports
    them from the same starting state.
    """
    rng = np.random.default_rng(seed)
    e37 = ellnum.curves.parse_curve("0,0,1,-1,0")
    coeffs = e37.coefficients
    m: dict[str, tuple[float, str]] = {}

    # arith
    t, _ = _median_time(lambda: ellnum.arith.primes_up_to(115_000), 5)
    m["arith.primes_up_to_ms"] = (t * 1e3, "ms")
    n7 = 10_000_000 + int(rng.integers(0, 10_000))
    lo, hi = oracle.hasse_window(n7)
    t, _ = _median_time(lambda: ellnum.arith.primes_in_range(lo, hi), 5)
    m["arith.primes_in_range_ms"] = (t * 1e3, "ms")

    # The build and charsum come first, and the large sieves after them:
    # freeing an array of a few MB raises glibc's trim threshold, after
    # which count_charsum's per-prime arrays stop faulting in fresh pages
    # and the 37a build runs ~1.6x faster than in a fresh process, such as
    # the table-build workload's or the cli's.
    # table: the 37a table that Tier-1 and verify-paper build
    t0 = time.process_time()
    table = ellnum.table.build_table(e37, 115_000, workers=1, seed=seed)
    m["table.build_s"] = (time.process_time() - t0, "s")
    path = os.path.join(out_dir, "probe-37a.ellnum")
    t, _ = _median_time(lambda: ellnum.table.save_table(table, path), 5)
    m["table.save_ms"] = (t * 1e3, "ms")
    t, _ = _median_time(lambda: ellnum.table.load_table(path, expect=e37), 5)
    m["table.load_ms"] = (t * 1e3, "ms")
    t, _ = _median_time(table.validate, 5)
    m["table.validate_ms"] = (t * 1e3, "ms")

    # counting: microseconds per prime over seeded samples
    for label, size in (("p1e3", 1_000), ("p1e4", 10_000), ("p1e5", 100_000)):
        primes = _sample_primes(coeffs, size, 12 if size == 100_000 else 40, rng)
        m[f"counting.charsum_us.{label}"] = (_per_prime_us("charsum", e37, primes, seed), "us")
    for label, size in (("p1e4", 10_000), ("p1e5", 100_000), ("p1e6", 1_000_000),
                        ("p1e7", 10_000_000), ("p57e6", 57_000_000)):
        primes = _sample_primes(coeffs, size, 40, rng)
        m[f"counting.bsgs_us.{label}"] = (_per_prime_us("bsgs", e37, primes, seed), "us")

    t, sieve = _median_time(lambda: ellnum.arith.FactorSieve(), 3)
    m["arith.factor_sieve_ms"] = (t * 1e3, "ms")

    # curves: scalar_mul at p ~ 1e7, per group operation
    p = next(q for q in oracle.good_primes(coeffs, n7, n7 + 1000) if q % 4 == 3)
    rc = ellnum.curves.ReducedCurve.reduce(e37, p)
    P = _point_on_37a(p, rng)
    k = int(rng.integers(p // 2, p))
    group_ops = k.bit_length() + bin(k).count("1")
    t, _ = _median_time(lambda: ellnum.curves.scalar_mul(rc, k, P), 9)
    m["curves.point_add_us"] = (t / group_ops * 1e6, "us")

    # arith.omega per N_p value, on that table
    nps = table.nps.tolist()
    t, _ = _median_time(lambda: [ellnum.arith.omega(v, sieve) for v in nps], 3)
    m["arith.omega_us"] = (t / len(nps) * 1e6, "us")

    # search without a table: the k = 1 search, and its recount ratio
    t, _ = _median_time(lambda: ellnum.search.g1(e37, n7), 3)
    m["search.g1_ms"] = (t * 1e3, "ms")
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.process_time()
        ellnum.search.find_progressions(e37, 10_000_000, 10_002_000, 2)
        m["search.find_progressions_ms"] = ((time.process_time() - t0) * 1e3, "ms")
    finally:
        tracer.uninstall()
    calls = tracer.search_counts
    m["search.counts_per_distinct_prime"] = (len(calls) / len(set(calls)), "ratio")

    # search and stats on the table
    t, census = _median_time(lambda: ellnum.search.gk_census(e37, 3, 4_000_000, table=table), 5)
    m["search.census_ms"] = (t * 1e3, "ms")
    m["search.census_products"] = (census.total_products, "count")
    m["search.census_products_per_s"] = (census.total_products / t, "1/s")
    t, _ = _median_time(lambda: ellnum.search.gk_solutions(e37, 3, 3_017_520, table=table), 5)
    m["search.gk_solutions_ms"] = (t * 1e3, "ms")
    t, _ = _median_time(lambda: ellnum.search.bk_count(e37, 2, 100_000, table=table), 5)
    m["search.bk_count_ms"] = (t * 1e3, "ms")
    for key, fn in (
        ("stats.moments_ms", lambda: ellnum.stats.moments(table, 100_000)),
        ("stats.distribution_ms", lambda: ellnum.stats.standardized_distribution(table, 100_000, 20)),
        ("stats.admissibility_ms", lambda: ellnum.stats.admissibility_profile(table, 100_000, 0.008)),
        ("stats.recip_sum_ms", lambda: ellnum.stats.admissible_recip_sum(table, 100_000, 0.25, 0.95, 0.008)),
    ):
        t, _ = _median_time(fn, 5)
        m[key] = (t * 1e3, "ms")
    return m
