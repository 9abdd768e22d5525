"""Command-line surface: np, table, g1, progressions, gk, census, moments,
mertens, pied, and the verify-paper golden suite.

Every command prints a JSON payload on stdout (table, progressions,
census and moments also print csv under --format csv) and a one-line
reproducibility stamp on stderr. Each command takes only the options
it reads: --curve and --seed everywhere, --cache and --workers on the
commands that provision a table. Output is deterministic for fixed
flags and seed. Exit codes: 0 success, 1 operation error, 2 bad
reduction, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .counting import count_points
from .curves import CurveModel, parse_curve
from .errors import BadReductionError, EllnumError
from .search import find_progressions, g1, gk_census, gk_solutions
from .stats import admissible_recip_sum, moments, pi_e, standardized_distribution
from .table import covering_table, save_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_REDUCTION = 2
EXIT_USAGE = 64

DEFAULT_CURVE = "0,0,1,-1,0"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _stamp(args, model: CurveModel, limit=None) -> None:
    limit_s = str(limit) if limit is not None else "-"
    workers_s = f" workers={args.workers}" if "workers" in args else ""
    print(
        f"# ellnum {__version__} curve={model.spec_text()} limit={limit_s} seed={args.seed}{workers_s}",
        file=sys.stderr,
    )


def _emit(args, payload: dict, csv_lines=None) -> None:
    """Print what csv_lines() returns under --format csv, else the JSON payload."""
    if vars(args).get("format") == "csv":
        print("\n".join(csv_lines()))
    else:
        print(json.dumps(payload, sort_keys=True))


def _command(sub, name: str, summary: str, *, table: bool = False, csv: bool = False) -> _Parser:
    """A subcommand with --curve and --seed; --cache and --workers if it
    provisions a table; --format if it has a csv form."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("--curve", default=DEFAULT_CURVE, help="a1,a2,a3,a4,a6 (default 37a: %(default)s)")
    sp.add_argument("--seed", type=int, default=0)
    if table:
        sp.add_argument("--cache", default="cache", help="table cache directory (default: %(default)s)")
        sp.add_argument("--workers", type=int, default=1)
    if csv:
        sp.add_argument("--format", choices=["json", "csv"], default="json")
    return sp


def build_parser() -> _Parser:
    ap = _Parser(prog="ellnum", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "np", "point count at one prime")
    p.add_argument("--prime", type=int, required=True)

    p = _command(sub, "table", "build (or reuse) the N_p table up to a limit", table=True, csv=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", default=None, help="also write the table to this path")

    p = _command(sub, "g1", "all primes with N_p = n")
    p.add_argument("--n", type=int, required=True)

    p = _command(sub, "progressions", "all n in a range with G_1(n) >= m", csv=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--min-mult", type=int, default=2)

    p = _command(sub, "gk", "all k-sets of distinct good primes with N-product n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ordered", action="store_true",
                   help="also report the ordered-tuple count k! * count")

    p = _command(sub, "census", "G_k(n) for every attained n <= x", table=True, csv=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)

    p = _command(sub, "moments", "centered moments of omega(N_p) up to x", table=True, csv=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--bins", type=int, default=0,
                   help="also emit a standardized histogram (the csv form; --format csv needs it)")

    p = _command(sub, "mertens", "reciprocal prime sums in [x^a, x^b) split by admissibility", table=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--a", type=float, default=1 / 8)
    p.add_argument("--b", type=float, default=1 / 4)
    p.add_argument("--epsilon", type=float, default=0.008)

    p = _command(sub, "pied", "count good primes p <= x with d | N_p", table=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = _command(sub, "verify-paper", "golden checks of the published numeric surface", table=True)
    p.add_argument("--extended", action="store_true",
                   help="also run the census witness check at x = 2*10^9 (minutes)")

    return ap


def cmd_np(args, model) -> int:
    _stamp(args, model)
    n = count_points(model, args.prime, seed=args.seed)
    print(json.dumps(n))
    return EXIT_OK


def cmd_table(args, model) -> int:
    _stamp(args, model, args.limit)
    table = covering_table(None, model, args.limit, args.cache, args.workers, args.seed)
    if args.out:
        save_table(table, args.out)
    payload = {
        "limit": table.limit,
        "entries": len(table),
        "bad_primes": list(table.bad_primes),
        "max_np": table.max_np(),
    }
    _emit(args, payload, csv_lines=lambda: ["p,np"] + [f"{p},{n}" for p, n in table])
    return EXIT_OK


def cmd_g1(args, model) -> int:
    _stamp(args, model)
    rec = g1(model, args.n, seed=args.seed)
    _emit(args, rec.as_dict())
    return EXIT_OK


def cmd_progressions(args, model) -> int:
    _stamp(args, model)
    recs = find_progressions(model, args.lo, args.hi, args.min_mult, seed=args.seed)
    payload = {"records": [r.as_dict() for r in recs]}
    _emit(args, payload, csv_lines=lambda: ["n,multiplicity,primes"] + [
        f"{r.n},{r.multiplicity},{' '.join(map(str, r.primes))}" for r in recs
    ])
    return EXIT_OK


def cmd_gk(args, model) -> int:
    _stamp(args, model)
    sol = gk_solutions(model, args.k, args.n, seed=args.seed)
    payload = sol.as_dict()
    if args.ordered:
        payload["ordered_count"] = math.factorial(args.k) * sol.count
    _emit(args, payload)
    return EXIT_OK


def cmd_census(args, model) -> int:
    _stamp(args, model, args.x)
    census = gk_census(model, args.k, args.x, seed=args.seed, workers=args.workers, cache_dir=args.cache)
    payload = {
        "k": census.k,
        "x": census.x,
        "distinct_n": len(census),
        "total_products": census.total_products,
        "max_count": census.max_count,
        "argmax": census.argmax,
    }
    _emit(args, payload, csv_lines=census.csv_lines)
    return EXIT_OK


def cmd_moments(args, model) -> int:
    if args.format == "csv" and args.bins <= 0:
        print("ellnum moments: error: --format csv is the histogram, so it needs --bins > 0", file=sys.stderr)
        return EXIT_USAGE
    _stamp(args, model, args.x)
    table = covering_table(None, model, args.x, args.cache, args.workers, args.seed)
    rep = moments(table, args.x)
    payload = dataclasses.asdict(rep)
    csv_lines = None
    if args.bins > 0:
        dist = standardized_distribution(table, args.x, args.bins)
        payload["ks_stat"] = dist.ks_stat
        csv_lines = dist.csv_lines
    _emit(args, payload, csv_lines=csv_lines)
    return EXIT_OK


def cmd_mertens(args, model) -> int:
    _stamp(args, model, args.x)
    limit = int(math.ceil(args.x**args.b)) + 1
    table = covering_table(None, model, limit, args.cache, args.workers, args.seed)
    rep = admissible_recip_sum(table, args.x, args.a, args.b, args.epsilon)
    _emit(args, dataclasses.asdict(rep))
    return EXIT_OK


def cmd_pied(args, model) -> int:
    _stamp(args, model, args.x)
    table = covering_table(None, model, args.x, args.cache, args.workers, args.seed)
    payload = {"x": args.x, "d": args.d, "count": pi_e(table, args.x, args.d)}
    _emit(args, payload)
    return EXIT_OK


# Reference values for the verify-paper suite. Each triple identity lists
# the primes of both sides, the expected N factors, and the published
# product. Two published numbers disagree with their own factor lists;
# they are flagged below instead of being asserted blindly.
TRIPLE_IDENTITIES = [
    # (left primes, right primes, left factors, right factors, published product)
    ((2, 13, 43), (3, 5, 67), (5, 16, 42), (7, 8, 60), 3360),
    ((5, 43, 73), (17, 19, 61), (8, 42, 75), (18, 20, 70), 25200),
    ((101, 107, 251), (113, 127, 167), (99, 120, 254), (132, 127, 180), 3107520),
    ((1009, 1181, 1601), (1063, 1283, 1399), (1057, 1125, 1648), (1057, 1320, 1425), 1988217000),
]

G1_TABLE_ONE = {
    624: (593, 619, 661),
    6495: (6337, 6389, 6449),
    7440: (7369, 7487, 7523),
    8568: (8423, 8527, 8563),
    11422: (11299, 11519, 11617),
    12312: (12161, 12391, 12421),
    12672: (12619, 12721, 12791),
    32022: (31699, 31873, 32213),
    34240: (34217, 34327, 34603),
    37464: (37517, 37571, 37693),
}

G1_TABLE_TWO = {
    10262: 2, 10494: 2, 10630: 2, 10697: 2, 10704: 2, 11072: 2,
    11100: 2, 11168: 2, 11276: 2, 11422: 3, 11441: 2,
}

SECOND_CURVE = "0,0,3,-1,2"
CENSUS_FAST_X = 4_000_000
CENSUS_EXT_X = 2_000_000_000
CENSUS_EXT_N = 1_988_217_000


def cmd_verify_paper(args, model) -> int:
    failures = 0
    checks = 0
    notes: list[str] = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures, checks
        checks += 1
        if not ok:
            failures += 1
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        print(line)

    curve_a = model
    curve_b = parse_curve(SECOND_CURVE)

    # chained triple-product identities
    for left, right, lf, rf, published in TRIPLE_IDENTITIES:
        nl, nr = (tuple(count_points(curve_a, ps, seed=args.seed)) for ps in (left, right))
        report(f"factors of {left}", nl == lf, f"computed {nl}, reference {lf}")
        report(f"factors of {right}", nr == rf, f"computed {nr}, reference {rf}")
        pl, pr = math.prod(nl), math.prod(nr)
        if pl == pr:
            report(f"triple products agree at {pl}", True)
            if pl != published:
                notes.append(
                    f"published value {published} is a misprint: both factor lists "
                    f"multiply to {pl}"
                )
        elif nl == lf and nr == rf:
            # each side matches its published factors, so the printed
            # identity itself is defective, not the computation
            notes.append(
                f"published identity at {published} fails as printed: left product "
                f"{pl} != right product {pr}, yet both factor lists verify"
            )
        else:
            report(f"triple products agree ({published})", False, f"left {pl}, right {pr}")

    rec = g1(curve_a, 1057, seed=args.seed)
    report("G_1(1057) on the first curve", rec.primes == (1009, 1063),
           f"computed {rec.primes}, expected (1009, 1063)")

    for n, primes in G1_TABLE_ONE.items():
        got = g1(curve_b, n, seed=args.seed)
        report(f"G_1({n}) = 3 row", got.primes == primes,
               f"computed {got.primes}, reference {primes}")

    recs = {r.n: r.multiplicity
            for r in find_progressions(curve_b, 10262, 11441, 2, seed=args.seed)}
    for n, mult in G1_TABLE_TWO.items():
        report(f"G_1({n}) = {mult}", recs.get(n, 0) == mult,
               f"computed {recs.get(n, 0)}")
    extras = sorted(set(recs) - set(G1_TABLE_TWO))
    if extras:
        notes.append(f"interval [10262, 11441] also attains G_1 >= 2 at {extras} "
                     f"(the published extract omits them)")
    else:
        notes.append("the published extract covers every n with G_1 >= 2 in [10262, 11441]")

    # census witness at the fast bound
    try:
        census = gk_census(curve_a, 3, CENSUS_FAST_X, seed=args.seed,
                           workers=args.workers, cache_dir=args.cache)
        c_pub = census.count(3107520)
        c_fix = census.count(3017520)
        report("census 4e6 count at 3107520 >= 2", c_pub >= 2, f"count {c_pub}")
        report("census 4e6 count at 3017520 >= 2", c_fix >= 2, f"count {c_fix}")
        wit = census.witnesses(3017520)
        have = {(101, 107, 251), (113, 127, 167)} <= set(wit)
        report("published witness triples appear at 3017520", have, f"{len(wit)} sets")
        # Hasse bound sweep over the table the census built
        tab = census.table
        d = tab.nps - tab.ps - 1
        ok = bool((d * d <= 4 * tab.ps).all() and (100 * tab.nps >= tab.ps).all())
        report(f"Hasse bound sweep over {len(tab)} good primes", ok)
    except EllnumError as exc:
        report("census 4e6", False, str(exc))

    if args.extended:
        try:
            # the full 2e9 census groups ~2.3e8 products, slab by slab
            big = gk_census(curve_a, 3, CENSUS_EXT_X, seed=args.seed,
                            workers=args.workers, cache_dir=args.cache)
            c = big.count(CENSUS_EXT_N)
            report(f"census 2e9 count at {CENSUS_EXT_N} >= 2", c >= 2, f"count {c}")
        except EllnumError as exc:
            report("census 2e9", False, str(exc))

    for note in notes:
        print(f"NOTE  {note}")
    print(f"{checks - failures}/{checks} checks passed")
    return EXIT_OK if failures == 0 else EXIT_ERROR


COMMANDS = {
    "np": cmd_np,
    "table": cmd_table,
    "g1": cmd_g1,
    "progressions": cmd_progressions,
    "gk": cmd_gk,
    "census": cmd_census,
    "moments": cmd_moments,
    "mertens": cmd_mertens,
    "pied": cmd_pied,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = parse_curve(args.curve)
    except EllnumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args, model)
    except BadReductionError as exc:
        print(f"bad reduction: {exc}", file=sys.stderr)
        return EXIT_BAD_REDUCTION
    except EllnumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
