"""The three workloads: seeded inputs, one round of operations, the checks.

Each workload is driven through ellnum's public functions only, looked up
on their modules at call time (``search.g1``), so that the traced run can
wrap them. A run repeats one round of operations; every round does the
same operations on the same inputs, and the checks compare each later
round's outputs with the first round's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ellnum import parse_curve, search, stats
from ellnum import table as tables
from ellnum.arith import divisors

import oracle

CURVES = {
    "37a": "0,0,1,-1,0",
    "cm": "0,0,0,-1,0",
    "11a": "0,-1,1,-10,-20",
    "b": "0,0,3,-1,2",
}
CURVES_T = {k: tuple(int(a) for a in v.split(",")) for k, v in CURVES.items()}

# Published point counts on 37a behind the triple identities.
PUBLISHED_37A = {101: 99, 107: 120, 251: 254, 113: 132, 127: 127, 167: 180,
                 1009: 1057, 1063: 1057, 1181: 1125, 1601: 1648, 1283: 1320, 1399: 1425}

# Published G_1 rows: 37a at 1057, and the first progression table of curve b.
PUBLISHED_G1 = {
    "37a": {1057: (1009, 1063)},
    "b": {624: (593, 619, 661), 6495: (6337, 6389, 6449), 7440: (7369, 7487, 7523),
          8568: (8423, 8527, 8563), 11422: (11299, 11519, 11617),
          12312: (12161, 12391, 12421), 12672: (12619, 12721, 12791),
          32022: (31699, 31873, 32213), 34240: (34217, 34327, 34603),
          37464: (37517, 37571, 37693)},
}

# Tables the analyze workload reads: curve label -> limit.
ANALYZE_TABLES = {"37a": 115_000, "b": 100_000}


@dataclass
class Op:
    """One timed call: `call()` does the work, `keep` reduces its output to
    what the checks need, `primes` counts the good primes it counts or reads."""

    name: str
    call: Callable[[], Any]
    keep: Callable[[Any], Any]
    primes: int
    spec: tuple

    def timed(self, tracer=None) -> tuple[Any, float, int]:
        """Run once: the output, the op's CPU seconds (user + system) and the
        peak RSS in kB of the process that ran it. CPU time leaves out the
        time the host gives the vCPU to other tenants."""
        t0 = time.process_time()
        out = self.call()
        seconds = time.process_time() - t0
        return out, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _model(label):
    return parse_curve(CURVES[label])


def _jitter(rng, base: int) -> int:
    """A seeded value in (0.99 base, base]: a size class without moving its cost."""
    return base - int(rng.integers(0, base // 100))


def _digest(*arrays) -> str:
    """A census is kept as a digest, so that no copy of it adds to peak memory."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes() + b"|")
    return h.hexdigest()


def _rel_close(a: float, b: float) -> bool:
    """Float results agree with the reference to a relative 1e-9: the sums
    run in another order than the library's."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# --- table-build -------------------------------------------------------------

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def build_once(label: str, limit: int, seed: int, path: str, trace: bool) -> dict:
    """One table-build op, in the process that calls it: build_table at the
    default dispatch, save_table, load_table."""
    model = _model(label)
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    try:
        t0 = time.process_time()
        built = tables.build_table(model, limit, workers=1, seed=seed)
        tables.save_table(built, path)
        loaded = tables.load_table(path, expect=model)
        seconds = time.process_time() - t0
    finally:
        if tracer:
            tracer.uninstall()
    return {"seconds": seconds, "round_trip": built == loaded,
            "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.summary() if tracer else {}}


@dataclass
class FreshBuild(Op):
    """A table-build op run in a fresh child process, as the cli `table`
    command runs; the child times itself.

    count_charsum's per-prime arrays fault in fresh pages or not depending on
    whether the process has freed a large array before (glibc's dynamic mmap
    threshold), which moves the 37a build by a large factor. A fresh process
    per build fixes that state. The kept output is the round-trip verdict
    and a digest of the saved file.
    """

    label: str = ""
    limit: int = 0
    seed: int = 0
    path: str = ""

    def timed(self, tracer=None):
        args = [sys.executable, RUN_PY, "--build-op", self.label, str(self.limit), self.path,
                "--seed", str(self.seed), "--trace", "1" if tracer else "0"]
        proc = subprocess.run(args, capture_output=True, text=True, cwd=os.getcwd())
        if proc.returncode != 0:
            raise RuntimeError(f"build child exited {proc.returncode}: {proc.stderr[-500:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        if tracer:
            tracer.merge(res["spans"])
        with open(self.path, "rb") as fh:
            saved = hashlib.sha256(fh.read()).hexdigest()
        return (res["round_trip"], saved), res["seconds"], res["peak_kb"]


class TableBuild:
    """Cold build_table at the default dispatch, then a save/load round trip,
    each in a fresh process."""

    name = "table-build"

    def setup(self, seed: int, out_dir: str, cache_dir: str):
        rng = np.random.default_rng(seed)
        jobs = [("37a", 115_000)] + [("cm", _jitter(rng, 20_000))] * 4
        return {"seed": seed, "out_dir": out_dir, "jobs": jobs}

    def ops(self, state):
        ops = []
        for i, (label, limit) in enumerate(state["jobs"]):
            path = os.path.join(state["out_dir"], f"{label}-{i}.ellnum")
            n_good = len(oracle.good_primes(CURVES_T[label], 2, limit))
            ops.append(FreshBuild(f"build {label} {limit}", None, lambda out: out, n_good,
                                  (label, limit), label, limit, state["seed"], path))
        return ops

    def check(self, state, ops, outputs, rng):
        problems = []
        for op, (round_trip, _) in zip(ops, outputs):
            label, limit = op.spec
            if not round_trip:
                problems.append(f"{op.name}: the loaded table differs from the built one")
            loaded = tables.load_table(op.path, expect=_model(label))
            published = PUBLISHED_37A if label == "37a" else None
            problems += oracle.check_table(CURVES_T[label], limit, loaded.ps, loaded.nps,
                                           loaded.bad_primes, rng, published)
        return problems


# --- progressions ------------------------------------------------------------

# One g1 and one find_progressions per curve, the sizes spread over
# 1e6 .. 5.7e7 so that a round stays near 4 s and a run repeats it. g1 is
# at a seeded n just above its size. find_progressions takes a fixed range:
# its cost follows the number of n in range with two or more primes, which
# would make a seeded range's cost swing with the seed.
G1_JOBS = [("37a", 57_000_000), ("cm", 10_000_000), ("11a", 1_000_000)]
PROGRESSION_JOBS = [("37a", 1_000_000, 1_000_500), ("cm", 1_000_000, 1_000_200),
                    ("11a", 10_000_000, 10_000_100)]


class Progressions:
    """g1 and find_progressions with no table: every prime is counted."""

    name = "progressions"

    def setup(self, seed: int, out_dir: str, cache_dir: str):
        rng = np.random.default_rng(seed)
        jobs = [(label, size + int(rng.integers(0, size // 1000)), None) for label, size in G1_JOBS]
        jobs += PROGRESSION_JOBS
        return {"jobs": jobs, "models": {lab: _model(lab) for lab, _, _ in jobs}}

    def ops(self, state):
        ops = []
        for label, n, n_hi in state["jobs"]:
            model = state["models"][label]
            coeffs = CURVES_T[label]
            if n_hi is None:
                lo, hi = oracle.hasse_window(n)
                ops.append(Op(f"g1 {label} {n}", lambda model=model, n=n: search.g1(model, n),
                              lambda r: r.primes, len(oracle.good_primes(coeffs, lo, hi)),
                              (label, n, n)))
            else:
                lo, hi = oracle.hasse_window(n)[0], oracle.hasse_window(n_hi)[1]
                ops.append(Op(f"progressions {label} [{n}, {n_hi}]",
                              lambda model=model, n=n, n_hi=n_hi:
                              search.find_progressions(model, n, n_hi, 2),
                              lambda recs: [(r.n, r.primes) for r in recs],
                              len(oracle.good_primes(coeffs, lo, hi)), (label, n, n_hi)))
        return ops

    def check(self, state, ops, outputs, rng):
        problems = []
        for op, out in zip(ops, outputs):
            label, lo, hi = op.spec
            if op.name.startswith("g1"):
                problems += oracle.check_g1(CURVES_T[label], lo, out, rng)
            else:
                problems += oracle.check_progressions(CURVES_T[label], lo, hi, 2, out, rng)
        return problems


# --- analyze -----------------------------------------------------------------

# Census bounds per table and k, each at most the table's reach.
CENSUS_X = {
    "37a": {2: [10_000, 100_000, 550_000], 3: [10_000, 100_000, 1_000_000, 4_000_000],
            4: [100_000, 1_000_000, 10_000_000, 30_000_000]},
    "b": {2: [10_000, 99_000], 3: [10_000, 100_000, 290_000],
          4: [10_000, 100_000, 1_100_000]},
}
STATS_X = [1_000, 10_000, 100_000]
BK_SHAPES = [(2, 100_000), (3, 100_000)]
STATS_EPSILON = 0.008
RECIP_BAND = (0.25, 0.95)
DIST_BINS = 20
GK_SOLUTION_DRAWS = 4
SOLUTION_CANDIDATES = 48
SOLUTION_WORK = {"37a": 0.2, "b": 0.7}


def table_path(cache_dir: str, label: str) -> str:
    return os.path.join(cache_dir, f"{label}-{ANALYZE_TABLES[label]}.ellnum")


def make_tables(cache_dir: str) -> None:
    """Build and save the analyze tables that are missing from cache_dir."""
    os.makedirs(cache_dir, exist_ok=True)
    for label, limit in ANALYZE_TABLES.items():
        path = table_path(cache_dir, label)
        if not os.path.exists(path):
            built = tables.build_table(_model(label), limit, workers=1)
            tables.save_table(built, path + ".tmp")
            os.replace(path + ".tmp", path)


def _smallest_product(nps, count: int) -> int:
    return math.prod(sorted(nps.tolist())[:count])


class Analyze:
    """Census, solutions, g1, bk and the stats passes on loaded tables."""

    name = "analyze"

    def setup(self, seed: int, out_dir: str, cache_dir: str):
        rng = np.random.default_rng(seed)
        loaded = {}
        for label in ANALYZE_TABLES:
            model = _model(label)
            loaded[label] = (model, tables.load_table(table_path(cache_dir, label), expect=model))
        # first-use warm-up: the smallest-N_p cache and the shared factor sieve
        for model, t in loaded.values():
            for k in (2, 3, 4):
                search.gk_census(model, k, 100, table=t)
            stats.moments(t, STATS_X[0])
        jobs = []
        for label in ANALYZE_TABLES:
            _, t = loaded[label]
            for k, xs in CENSUS_X[label].items():
                jobs += [(label, "census", k, _jitter(rng, x)) for x in xs]
            x3 = max(CENSUS_X[label][3])
            for n in self._draw_products(t, x3, SOLUTION_WORK[label], rng):
                jobs.append((label, "solutions", 3, n))
            jobs += [(label, "g1", 1, n) for n in PUBLISHED_G1[label]]
            jobs += [(label, "bk", k, _jitter(rng, x)) for k, x in BK_SHAPES]
            for x in STATS_X:
                xj = _jitter(rng, x)
                jobs += [(label, kind, 0, xj) for kind in
                         ("moments", "distribution", "admissibility", "recip_sum")]
        return {"tables": loaded, "jobs": jobs}

    @staticmethod
    def _draw_products(t, x: int, target: float, rng) -> list[int]:
        """Seeded n <= x attained as a product of three distinct table entries.

        Of SOLUTION_CANDIDATES draws, keep those whose work (the sum of the
        divisors d <= x / (two smallest N) that gk_solutions inverts) lies
        closest to a fixed share of x, so every seed asks for like work.
        """
        cap = x // _smallest_product(t.nps, 2)
        cands: dict[int, float] = {}
        while len(cands) < SOLUTION_CANDIDATES:
            picked, n = [], 1
            for left in (3, 2, 1):
                room = np.flatnonzero(t.nps ** left <= x // n)
                room = room[~np.isin(room, picked)]
                i = int(rng.choice(room))
                picked.append(i)
                n *= int(t.nps[i])
            work = sum(d for d in divisors(n) if d <= cap) / x
            cands[n] = abs(math.log(work / target))
        return sorted(cands, key=cands.get)[:GK_SOLUTION_DRAWS]

    def ops(self, state):
        ops = []
        for label, kind, k, x in state["jobs"]:
            model, t = state["tables"][label]
            ps = t.ps
            if kind == "census":
                cap = x // _smallest_product(t.nps, k - 1)
                read = int(np.count_nonzero(t.nps <= cap))
                ops.append(Op(f"census {label} k={k} x={x}",
                              lambda model=model, k=k, x=x, t=t: search.gk_census(model, k, x, table=t),
                              lambda c: _digest(c.ns, c.counts), read, (label, kind, k, x)))
            elif kind == "solutions":
                cap = x // _smallest_product(t.nps, k - 1)
                seen = set()
                for d in divisors(x):
                    if d <= cap:
                        lo, hi = oracle.hasse_window(d)
                        seen.update(ps[(ps >= lo) & (ps <= hi)].tolist())
                ops.append(Op(f"solutions {label} n={x}",
                              lambda model=model, x=x, t=t: search.gk_solutions(model, 3, x, table=t),
                              lambda s: s.solutions, len(seen), (label, kind, k, x)))
            elif kind == "g1":
                lo, hi = oracle.hasse_window(x)
                ops.append(Op(f"g1 {label} n={x}",
                              lambda model=model, x=x, t=t: search.g1(model, x, table=t),
                              lambda r: r.primes, int(np.count_nonzero((ps >= lo) & (ps <= hi))),
                              (label, kind, k, x)))
            elif kind == "bk":
                ops.append(Op(f"bk {label} k={k} x={x}",
                              lambda model=model, k=k, x=x, t=t: search.bk_count(model, k, x, table=t),
                              lambda r: (r.count, r.density_ratio),
                              int(np.count_nonzero(ps <= x)), (label, kind, k, x)))
            else:
                call, keep, read = self._stats_op(kind, t, x)
                ops.append(Op(f"{kind} {label} x={x}", call, keep, read, (label, kind, k, x)))
        return ops

    @staticmethod
    def _stats_op(kind, t, x):
        n_upto = int(np.count_nonzero(t.ps <= x))
        if kind == "moments":
            return (lambda: stats.moments(t, x)), (lambda r: r), n_upto
        if kind == "distribution":
            return (lambda: stats.standardized_distribution(t, x, DIST_BINS)), (lambda r: r), n_upto
        if kind == "admissibility":
            return (lambda: stats.admissibility_profile(t, x, STATS_EPSILON)), (lambda r: r), n_upto
        a, b = RECIP_BAND
        band = int(np.count_nonzero((t.ps >= x ** a) & (t.ps < x ** b)))
        return (lambda: stats.admissible_recip_sum(t, x, a, b, STATS_EPSILON)), (lambda r: r), band

    def check(self, state, ops, outputs, rng):
        problems = []
        for label, (_, t) in state["tables"].items():
            published = PUBLISHED_37A if label == "37a" else None
            problems += oracle.check_table(CURVES_T[label], t.limit, t.ps, t.nps, t.bad_primes,
                                           rng, published)
        refs = {}
        for op, out in zip(ops, outputs):
            label, kind, k, x = op.spec
            _, t = state["tables"][label]
            if kind == "census":
                if _digest(*oracle.census(t.nps, k, x)) != out:
                    problems.append(f"{op.name}: census differs from the brute-force count")
            elif kind == "solutions":
                want = oracle.solutions(t.ps, t.nps, 3, x)
                if list(out) != want:
                    problems.append(f"{op.name}: got {len(out)} sets, brute force {len(want)}")
            elif kind == "g1":
                if out != PUBLISHED_G1[label][x]:
                    problems.append(f"{op.name}: got {out}, published {PUBLISHED_G1[label][x]}")
            elif kind == "bk":
                eps = 0.008 if k == 3 else 0.9 * 2.0 / (20.0 * (k * k + k))
                want = oracle.admissible_count(t.ps, t.nps, k, x, eps)
                if out[0] != want or not _rel_close(out[1], want * math.log(x) / x):
                    problems.append(f"{op.name}: got {out}, independent count {want}")
            else:
                key = (label, x)
                if key not in refs:
                    refs[key] = oracle.omega_stats(t.ps, t.nps, t.bad_primes, x,
                                                   STATS_EPSILON, *RECIP_BAND)
                problems += self._check_stats(op.name, kind, out, refs[key])
        return problems

    @staticmethod
    def _check_stats(name, kind, r, ref) -> list[str]:
        if kind == "moments":
            ok = (r.n_good == ref["n_good"] and r.pi_x == ref["pi_x"]
                  and all(_rel_close(getattr(r, f), ref[g]) for f, g in
                          (("mean_omega", "mean_omega"), ("m2", "m2"), ("m4", "m4"))))
        elif kind == "distribution":
            masses = sum(m for _, _, m in r.bins)
            ok = (r.sample_size == ref["n_good"] and _rel_close(r.ks_stat, ref["ks"])
                  and _rel_close(masses, 1.0) and len(r.bins) == DIST_BINS)
        elif kind == "admissibility":
            ok = (r.admissible_count == ref["admissible"]
                  and r.inadmissible_count == ref["inadmissible"]
                  and _rel_close(r.inadmissible_recip_sum, ref["inadmissible_recip"]))
        else:
            ok = (_rel_close(r.total_sum, ref["band_total"])
                  and _rel_close(r.admissible_sum, ref["band_admissible"])
                  and _rel_close(r.inadmissible_sum, ref["band_total"] - ref["band_admissible"]))
        return [] if ok else [f"{name}: differs from the trial-division reference"]


WORKLOADS = {w.name: w for w in (TableBuild(), Progressions(), Analyze())}
