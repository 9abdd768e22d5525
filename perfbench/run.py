"""Benchmark for ellnum: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload table-build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). Details of
the run, every operation's latency among them, go to perfbench/out/. The
exit status is 1 when a check failed or an operation raised.

    python3 perfbench/run.py --self-test

plants a wrong N_p in a table and a wrong prime in a g1 answer and exits 1
unless the checks catch both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TABLE_CACHE = os.path.join(HERE, "tables")

# Set-up is repeated in this many fresh processes; setup_s is their median.
SETUP_PROBES = 5


def _import_library():
    """Put ./src first on the path; refuse to run on any other ellnum."""
    init = os.path.join(SRC, "ellnum", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no ellnum sources at {init}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ellnum

    if os.path.abspath(ellnum.__file__) != init:
        sys.exit(f"perfbench: imported ellnum from {ellnum.__file__}, not {init}")


def _source_digest() -> str:
    """Digest of the library sources: tables are never reused across versions."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ellnum")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cache_dir() -> str:
    return os.path.join(TABLE_CACHE, _source_digest())


def _child(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh process until its set-up is done."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _child("--setup-probe", "--workload", workload, "--seed", str(seed))
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe for {workload} failed")
    return samples


def _host_speed_ms() -> float:
    """CPU ms of a fixed pure-Python loop, the median of five: a record of
    how fast the host ran this run, kept beside the metrics, never in them."""
    times = []
    for _ in range(5):
        t0 = time.process_time()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.process_time() - t0) * 1e3)
    return statistics.median(times)


def _setup(workloads, name: str, seed: int):
    os.makedirs(OUT, exist_ok=True)
    return workloads.WORKLOADS[name].setup(seed, OUT, _cache_dir())


def _run_rounds(ops, seconds: float, tracer):
    """Whole rounds of `ops`: one, and more while the next one is expected
    to end within `seconds` of op time.

    Returns the first round's kept outputs (None where the op raised),
    each op's latencies, the failures, the ops whose output in a later
    round differed from the first, the round count and the peak RSS in kB
    of the processes that ran the ops.
    """
    first, lat, failures, drift = [], [[] for _ in ops], [], []
    spent = last = 0.0
    rounds = peak_kb = 0
    while rounds == 0 or 0 < last and spent + last <= seconds:
        started = spent
        for i, op in enumerate(ops):
            try:
                out, dt, kb = op.timed(tracer)
            except Exception as exc:  # a failed op is counted, never timed
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                if rounds == 0:
                    first.append(None)
                continue
            peak_kb = max(peak_kb, kb)
            kept = op.keep(out)
            del out
            if rounds == 0:
                first.append(kept)
            elif kept != first[i]:
                drift.append(op.name)
            lat[i].append(dt)
            spent += dt
        last = spent - started
        rounds += 1
    return first, lat, failures, drift, rounds, peak_kb


def _end_to_end(setup_samples, ops, lat, peak_kb) -> dict:
    """The five end-to-end metrics, each op timed by its fastest execution.

    Other tenants of a shared machine only ever slow an op down, so its
    fastest execution in the run is the steadiest measure of its cost; ops
    with the same name (same call, same inputs) pool their executions.
    Latencies are CPU seconds of the process that ran the op.
    """
    runs: dict[str, list[float]] = {}
    primes: dict[str, int] = {}
    for op, ts in zip(ops, lat):
        runs.setdefault(op.name, []).extend(ts)
        primes[op.name] = op.primes
    done = {name: ts for name, ts in runs.items() if ts}
    best = [min(ts) for ts in done.values() for _ in ts]
    busy = sum(best)
    counted = sum(primes[name] * len(ts) for name, ts in done.items())
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(best) / busy, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
        "primes_per_s": {"value": counted / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _write(name: str, payload: dict) -> None:
    path = os.path.join(OUT, name)
    with open(path + ".tmp", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["table-build", "progressions", "analyze"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--make-tables", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-layers", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--build-op", nargs=3, metavar=("CURVE", "LIMIT", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.make_tables or args.probe_layers
            or args.build_op):
        ap.error("give --workload or --self-test")

    _import_library()
    import numpy as np

    import selftest
    import workloads

    if args.build_op:
        label, limit, path = args.build_op
        print(json.dumps(workloads.build_once(label, int(limit), args.seed, path, bool(args.trace))))
        return 0
    if args.make_tables:
        workloads.make_tables(_cache_dir())
        return 0
    if args.probe_layers:
        import layers

        os.makedirs(OUT, exist_ok=True)
        metrics = layers.probe_layers(args.seed, OUT)
        print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
        return 0
    if args.setup_probe:
        _setup(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.self_test:
        problems = selftest.run(np.random.default_rng(args.seed))
        print(json.dumps({"self_test": "pass" if not problems else "fail", "problems": problems}))
        return 1 if problems else 0

    workload = workloads.WORKLOADS[args.workload]
    if args.workload == "analyze" and _child("--make-tables").wait() != 0:
        sys.exit("perfbench: building the analyze tables failed")

    host_speed = [_host_speed_ms()]
    setup_samples = [] if args.trace else _setup_seconds(args.workload, args.seed)
    state = _setup(workloads, args.workload, args.seed)
    ops = workload.ops(state)

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    try:
        first, lat, failures, drift, rounds, peak_kb = _run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    host_speed.append(_host_speed_ms())

    rng = np.random.default_rng(args.seed + 1_000_003)
    problems = [f"{name}: output changed between rounds" for name in drift]
    done = [(op, out) for op, out in zip(ops, first) if out is not None]
    problems += workload.check(state, [op for op, _ in done], [out for _, out in done], rng)
    problems += selftest.run(rng)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "ops_per_round": len(ops), "samples": sum(map(len, lat)),
        "host_loop_ms_before_after": host_speed,
        "setup_s_samples": setup_samples, "problems": problems, "failures": failures,
        "ops": [{"name": op.name, "primes": op.primes, "latency_ms": [t * 1e3 for t in ts]}
                for op, ts in zip(ops, lat)],
    }
    if args.trace:
        e2e = _end_to_end([0.0], ops, lat, peak_kb)
        del e2e["setup_s"]
        calls = tracer.search_counts
        probe = _child("--probe-layers", "--seed", str(args.seed))
        out, _ = probe.communicate()
        if probe.returncode != 0:
            sys.exit("perfbench: the layer probes failed")
        metrics = json.loads(out.splitlines()[-1])
        untraced_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.json")
        overhead = {}
        if os.path.exists(untraced_path):
            with open(untraced_path) as fh:
                base = json.load(fh)["metrics"]
            overhead = {k: e2e[k]["value"] / base[k]["value"] - 1.0 for k in e2e}
        detail.update(spans=tracer.summary(), traced_end_to_end=e2e,
                      search_counts_per_distinct_prime=(
                          len(calls) / (len(set(calls)) * rounds) if calls else None),
                      tracing_overhead_vs_untraced=overhead, metrics=metrics)
        _write(f"{args.workload}-seed{args.seed}-trace.json", detail)
    else:
        metrics = _end_to_end(setup_samples, ops, lat, peak_kb)
        detail["metrics"] = metrics
        _write(f"{args.workload}-seed{args.seed}.json", detail)

    for line in failures:
        print(f"perfbench: OPERATION FAILED: {line}", file=sys.stderr)
    for line in problems:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    attempted = rounds * len(ops)
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems or failures else 0


if __name__ == "__main__":
    sys.exit(main())
