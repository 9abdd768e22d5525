"""Build, persist, and reload the map p -> N_p over all good primes <= limit.

Cache format (ellnum-v1): text, UTF-8, LF endings, no trailing whitespace.
Line 1 is "ellnum-v1,<a1>,<a2>,<a3>,<a4>,<a6>,<limit>", then one line per
good prime "p,np" in ascending order, then one line per bad prime "!p".
The format is canonical, so identical tables serialize to identical bytes.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from functools import cached_property
from itertools import repeat

import numpy as np

from .arith import omega_table, primes_up_to
from .counting import count_points
from .curves import CurveModel
from .errors import (
    TableBuildError,
    TableCurveError,
    TableError,
    TableFormatError,
    TableHasseError,
    TableOrderError,
)

FORMAT_TAG = "ellnum-v1"
# A chunk of good primes is one count_points batch: one retry round, in blocks of LANE_CELLS.
CHUNK_PRIMES = 1 << 13


class NpTable:
    """Immutable sorted map from good primes to N_p, plus the bad primes."""

    def __init__(self, curve: CurveModel, limit: int, ps, nps, bad_primes):
        self.curve = curve
        self.limit = int(limit)
        self.ps = np.asarray(ps, dtype=np.int64)
        self.nps = np.asarray(nps, dtype=np.int64)
        self.bad_primes = tuple(int(b) for b in bad_primes)
        self.ps.flags.writeable = False
        self.nps.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ps)

    def __iter__(self):
        for p, n in zip(self.ps.tolist(), self.nps.tolist()):
            yield (p, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NpTable):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.limit == other.limit
            and self.bad_primes == other.bad_primes
            and np.array_equal(self.ps, other.ps)
            and np.array_equal(self.nps, other.nps)
        )

    @property
    def entries(self) -> list[tuple[int, int]]:
        return list(self)

    def np_of(self, p: int) -> int:
        i = int(np.searchsorted(self.ps, p))
        if i >= len(self.ps) or self.ps[i] != p:
            raise KeyError(f"prime {p} not in table (limit {self.limit})")
        return int(self.nps[i])

    def upto(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, counts) restricted to good primes <= x."""
        i = int(np.searchsorted(self.ps, x, side="right"))
        return self.ps[:i], self.nps[:i]

    def max_np(self) -> int:
        return int(self.nps.max()) if len(self.nps) else 0

    @cached_property
    def omegas(self) -> np.ndarray:
        """omega(N_p) for every entry, from one omega_table sieved on first use."""
        w = omega_table(self.max_np())[self.nps]
        w.flags.writeable = False
        return w

    def validate(self) -> None:
        """Re-check every structural invariant; raises a TableError subclass."""
        if len(self.ps) != len(self.nps):
            raise TableFormatError("prime and count columns differ in length")
        if np.any(self.ps[1:] <= self.ps[:-1]):
            raise TableOrderError("good-prime entries are not strictly ascending")
        d = self.nps - self.ps - 1
        bad = np.flatnonzero(d * d > 4 * self.ps)
        if len(bad):
            i = int(bad[0])
            raise TableHasseError(
                f"entry ({int(self.ps[i])},{int(self.nps[i])}) violates the Hasse bound"
            )
        expected = primes_up_to(self.limit)
        merged = sorted(self.ps.tolist() + list(self.bad_primes))
        if merged != expected:
            raise TableFormatError(
                f"entries plus bad primes do not cover exactly the {len(expected)} primes <= {self.limit}"
            )
        for b in self.bad_primes:
            if self.curve.disc % b != 0:
                raise TableFormatError(f"{b} is marked bad but does not divide disc {self.curve.disc}")


def _count_chunk(coeffs, primes, seed):
    return count_points(CurveModel.from_coefficients(*coeffs), primes, seed=seed)


def build_table(
    model: CurveModel,
    limit: int,
    workers: int = 1,
    seed: int = 0,
) -> NpTable:
    """Compute N_p for every good prime <= limit.

    Work is split into contiguous chunks of at most CHUNK_PRIMES primes,
    and of at most an even share per worker, each counted as one batch by
    count_points; results are merged in prime order, so the table is
    identical for any worker count.
    """
    primes = primes_up_to(limit)
    good = [p for p in primes if model.disc % p != 0]
    bad = [p for p in primes if model.disc % p == 0]
    size = max(1, min(CHUNK_PRIMES, -(-len(good) // max(workers, 1))))
    chunks = [good[i : i + size] for i in range(0, len(good), size)]
    jobs = (repeat(model.coefficients), chunks, repeat(seed))
    results: list[list[int]] = []
    with ExitStack() as stack:
        if workers <= 1 or len(chunks) <= 1:
            counted = map(_count_chunk, *jobs)
        else:
            from concurrent.futures import ProcessPoolExecutor  # imported on use: it costs ~2 MB
            counted = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map(_count_chunk, *jobs)
        try:
            for chunk in counted:
                results.append(chunk)
        except Exception as exc:
            done_to = chunks[len(results) - 1][-1] if results else 0
            raise TableBuildError(
                f"table build failed in chunk {len(results)} (completed through p={done_to}): {exc}"
            ) from exc
    table = NpTable(model, limit, good, [n for chunk in results for n in chunk], bad)
    table.validate()
    return table


def save_table(table: NpTable, path: str | os.PathLike) -> None:
    """Write the canonical ellnum-v1 text form through a temporary file next
    to `path`, so that an interrupted write leaves `path` as it was."""
    a1, a2, a3, a4, a6 = table.curve.coefficients
    lines = [f"{FORMAT_TAG},{a1},{a2},{a3},{a4},{a6},{table.limit}"]
    lines.extend(f"{p},{n}" for p, n in table)
    lines.extend(f"!{b}" for b in table.bad_primes)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path: str | os.PathLike, expect: CurveModel | None = None) -> NpTable:
    """Parse and fully re-validate an ellnum-v1 file.

    Every failure names the offending line; a curve different from
    `expect` raises TableCurveError before any entry is trusted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TableFormatError("empty table file", 1)
    head = lines[0].split(",")
    if len(head) != 7 or head[0] != FORMAT_TAG:
        raise TableFormatError(f"bad header {lines[0]!r}: want '{FORMAT_TAG},a1,a2,a3,a4,a6,limit'", 1)
    try:
        a1, a2, a3, a4, a6, limit = (int(v) for v in head[1:])
    except ValueError:
        raise TableFormatError(f"non-integer header field in {lines[0]!r}", 1) from None
    curve = CurveModel.from_coefficients(a1, a2, a3, a4, a6)
    if expect is not None and curve.coefficients != expect.coefficients:
        raise TableCurveError(
            f"table curve {curve.spec_text()} does not match expected {expect.spec_text()}", 1
        )
    ps: list[int] = []
    nps: list[int] = []
    bad: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line != line.strip():
            raise TableFormatError(f"stray whitespace in {line!r}", lineno)
        if line.startswith("!"):
            try:
                b = int(line[1:])
            except ValueError:
                raise TableFormatError(f"bad bad-prime line {line!r}", lineno) from None
            if bad and b <= bad[-1]:
                raise TableOrderError("bad primes are not ascending", lineno)
            bad.append(b)
            continue
        if bad:
            raise TableFormatError("good-prime entry after the bad-prime section", lineno)
        try:
            p_s, n_s = line.split(",")
            p, n = int(p_s), int(n_s)
        except ValueError:
            raise TableFormatError(f"bad entry line {line!r}: want 'p,np'", lineno) from None
        if ps and p <= ps[-1]:
            raise TableOrderError(f"entry p={p} not ascending after {ps[-1]}", lineno)
        if (n - p - 1) ** 2 > 4 * p:
            raise TableHasseError(f"entry ({p},{n}) violates the Hasse bound", lineno)
        ps.append(p)
        nps.append(n)
    table = NpTable(curve, limit, ps, nps, bad)
    table.validate()
    return table


def cache_path(cache_dir: str | os.PathLike, model: CurveModel, limit: int) -> str:
    a1, a2, a3, a4, a6 = model.coefficients
    return os.path.join(os.fspath(cache_dir), f"{a1}_{a2}_{a3}_{a4}_{a6}_{limit}.ellnum")


def cached_table(
    model: CurveModel,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
    seed: int = 0,
) -> NpTable:
    """Load the table from the cache directory, or build and cache it.

    With no cache directory this is a plain build. An existing file that
    fails validation is reported, never silently rebuilt.
    """
    if cache_dir is None:
        return build_table(model, limit, workers, seed)
    path = cache_path(cache_dir, model, limit)
    if os.path.exists(path):
        return load_table(path, expect=model)
    table = build_table(model, limit, workers, seed)
    save_table(table, path)
    return table


def covering_table(table: NpTable | None, model: CurveModel, limit: int, **kw) -> NpTable:
    """`table` itself, which must cover `limit`; with no table, a cached one that does."""
    if table is None:
        return cached_table(model, limit, **kw)
    if table.curve.coefficients != model.coefficients or table.limit < limit:
        raise TableError(
            f"the table of curve {table.curve.spec_text()} to {table.limit} "
            f"does not cover curve {model.spec_text()} to {limit}"
        )
    return table
