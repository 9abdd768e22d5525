"""Self-test of the independent checks: they pass true answers and catch
planted wrong ones.

The counters in oracle are first tied to each other (enumeration, Euler's
criterion, the CM closed form, the order test). Then tables and g1
answers made by ellnum pass the checks, and the same answers with one
wrong N_p or one wrong prime planted in them fail.
"""

from __future__ import annotations

from ellnum import parse_curve, search
from ellnum import table as tables

import oracle
from workloads import CURVES, CURVES_T, PUBLISHED_37A


def _expect(problems: list[str], label: str, want_fail: bool) -> list[str]:
    if want_fail and not problems:
        return [f"self-test: {label} was not caught"]
    if not want_fail and problems:
        return [f"self-test: {label} was rejected: {problems[0]}"]
    return []


def run(rng) -> list[str]:
    out = []
    e37, cm, e11 = CURVES_T["37a"], CURVES_T["cm"], CURVES_T["11a"]

    # the counters agree with each other
    for p in oracle.primes_between(5, 60):
        if not oracle.naive_count(e37, p) == oracle.euler_count(e37, p):
            out.append(f"self-test: enumeration and Euler's criterion differ at p={p}")
    for p in oracle.primes_between(3, 1500):
        if oracle.cm_count(p) != oracle.euler_count(cm, p):
            out.append(f"self-test: CM closed form differs from Euler's criterion at p={p}")
    ps = oracle.primes_between(5, 1500)
    for coeffs in (e37, e11):
        disc = oracle.invariants(coeffs)[2]
        good = [p for p in ps if disc % p]
        ns = [oracle.euler_count(coeffs, p) for p in good]
        if not oracle.order_test(coeffs, good, ns, rng, oracle.FIRST_POINTS).all():
            out.append(f"self-test: the order test rejects a true N_p on {coeffs}")
        for shift in (-1, 1):
            wrong = [n + shift for n in ns]
            if oracle.order_test(coeffs, good, wrong, rng, oracle.FIRST_POINTS).any():
                out.append(f"self-test: the order test accepts N_p {shift:+d} on {coeffs}")

    # tables: true passes, one planted wrong N_p fails
    for label, limit in (("37a", 3000), ("cm", 3000)):
        t = tables.build_table(parse_curve(CURVES[label]), limit, workers=1)
        coeffs = CURVES_T[label]
        published = PUBLISHED_37A if label == "37a" else None
        nps = t.nps.copy()
        out += _expect(oracle.check_table(coeffs, limit, t.ps, nps, t.bad_primes, rng, published),
                       f"the {label} table", False)
        i = int(rng.integers(10, len(nps)))
        nps[i] += 1 if (nps[i] - t.ps[i]) ** 2 < 4 * t.ps[i] else -1
        out += _expect(oracle.check_table(coeffs, limit, t.ps, nps, t.bad_primes, rng, published),
                       f"a wrong N_{int(t.ps[i])} in the {label} table", True)

    # g1: true passes, one planted wrong prime fails (added or dropped)
    for label, n in (("37a", 1057), ("11a", 1_000_000), ("cm", 10_000_000)):
        coeffs = CURVES_T[label]
        primes = list(search.g1(parse_curve(CURVES[label]), n).primes)
        out += _expect(oracle.check_g1(coeffs, n, primes, rng), f"g1({n}) on {label}", False)
        lo, hi = oracle.hasse_window(n)
        extra = next(p for p in oracle.good_primes(coeffs, lo, hi) if p not in primes)
        out += _expect(oracle.check_g1(coeffs, n, sorted(primes + [extra]), rng),
                       f"a wrong prime {extra} in g1({n}) on {label}", True)
        if primes:
            out += _expect(oracle.check_g1(coeffs, n, primes[1:], rng),
                           f"a missing prime {primes[0]} in g1({n}) on {label}", True)

    # find_progressions: true passes, a planted extra prime fails
    # (the published second progression table of curve b lies in this range)
    b, lo, hi = CURVES_T["b"], 10_262, 11_441
    recs = [(r.n, list(r.primes)) for r in
            search.find_progressions(parse_curve(CURVES["b"]), lo, hi, 2)]
    out += _expect(oracle.check_progressions(b, lo, hi, 2, recs, rng), "progressions on b", False)
    n, primes = recs[0]
    extra = next(p for p in oracle.good_primes(b, *oracle.hasse_window(n)) if p not in primes)
    planted = [(n, sorted(primes + [extra]))] + recs[1:]
    out += _expect(oracle.check_progressions(b, lo, hi, 2, planted, rng),
                   f"a wrong prime {extra} in the progression at {n} on b", True)
    return out
