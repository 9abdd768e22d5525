"""Build, persist, and reload the map p -> N_p over all good primes <= limit.

Cache format (ellnum-v1): text, UTF-8, LF endings, no trailing whitespace.
Line 1 is "ellnum-v1,<a1>,<a2>,<a3>,<a4>,<a6>,<limit>", then one line per
good prime "p,np" in ascending order, then one line per bad prime "!p";
p, np and the bad primes have at most 18 digits.
The format is canonical, so identical tables serialize to identical bytes.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import ExitStack
from functools import cached_property
from itertools import repeat

import numpy as np

from .arith import divides, omega_table, primes_up_to
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
# A chunk of good primes is one count_points batch (one retry round, in blocks of
# LANE_CELLS) and one write of save_table.
CHUNK_PRIMES = 1 << 13


class NpTable:
    """Immutable sorted map from good primes to N_p, plus the bad primes."""

    def __init__(self, curve: CurveModel, limit: int, ps, nps, bad_primes):
        self.curve = curve
        self.limit = int(limit)
        self.ps = np.ascontiguousarray(ps, dtype=np.int64)
        self.nps = np.ascontiguousarray(nps, dtype=np.int64)
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

    def validate(self, first_line: int | None = None) -> None:
        """Re-check every structural invariant; raises a TableError subclass.
        Given `first_line`, the file line of entry 0 (the bad primes follow the
        entries, one a line), an error about one entry or bad prime names its line."""

        def line(i):
            return None if first_line is None else first_line + i

        ps, nps, bad = self.ps, self.nps, np.asarray(self.bad_primes, dtype=np.int64)
        if len(ps) != len(nps):
            raise TableFormatError("prime and count columns differ in length")
        for col, offset, what in ((ps, 0, "good prime"), (bad, len(ps), "bad prime")):
            down = np.flatnonzero(col[1:] <= col[:-1])
            if len(down):
                i = int(down[0]) + 1
                raise TableOrderError(f"{what} {col[i]} not ascending after {col[i - 1]}", line(offset + i))
        # |N - p - 1| < 1e18 for fields of at most 18 digits; clamped to 2**31 its
        # square fits int64 and still exceeds 4p for every p < 1e18
        d = np.minimum(np.abs(nps - ps - 1), 1 << 31)
        over = np.flatnonzero(d * d > 4 * ps)
        if len(over):
            i = int(over[0])
            raise TableHasseError(f"entry ({ps[i]},{nps[i]}) violates the Hasse bound", line(i))
        for j, b in enumerate(self.bad_primes):
            if self.curve.disc % b != 0:
                raise TableFormatError(
                    f"{b} is marked bad but does not divide disc {self.curve.disc}", line(len(ps) + j)
                )
        # pi(x) > x / ln x for x >= 17 (Rosser), so a table this short is refused
        # before a corrupt limit makes the sieve below allocate limit + 1 bytes
        count = len(ps) + len(bad)
        if self.limit >= 17 and count * math.log(self.limit) <= self.limit:
            raise TableFormatError(f"{count} entries and bad primes cannot cover the primes <= {self.limit}")
        primes = primes_up_to(self.limit)
        is_bad = np.isin(primes, bad)
        if np.count_nonzero(is_bad) != len(bad) or not np.array_equal(primes[~is_bad], ps):
            raise TableFormatError(
                f"entries plus bad primes do not cover exactly the {len(primes)} primes <= {self.limit}"
            )


def _count_chunk(coeffs, primes, seed):
    return count_points(CurveModel.from_coefficients(*coeffs), primes, seed=seed, sieved=True)


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
    good = primes_up_to(limit)  # every prime until the split; rebinding frees it before validate sieves
    is_bad = divides(good, model.disc)
    bad, good = good[is_bad], good[~is_bad]
    size = max(1, min(CHUNK_PRIMES, -(-len(good) // max(workers, 1))))
    chunks = [good[i : i + size] for i in range(0, len(good), size)]
    jobs = (repeat(model.coefficients), chunks, repeat(seed))
    nps = np.empty(len(good), dtype=np.int64)
    done = 0
    with ExitStack() as stack:
        if workers <= 1 or len(chunks) <= 1:
            counted = map(_count_chunk, *jobs)
        else:
            from concurrent.futures import ProcessPoolExecutor  # imported on use: it costs ~2 MB
            counted = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map(_count_chunk, *jobs)
        try:
            for counts in counted:
                nps[done * size : (done + 1) * size] = counts
                done += 1
        except Exception as exc:
            done_to = chunks[done - 1][-1] if done else 0
            raise TableBuildError(
                f"table build failed in chunk {done} (completed through p={done_to}): {exc}"
            ) from exc
    table = NpTable(model, limit, good, nps, bad)
    table.validate()
    return table


def save_table(table: NpTable, path: str | os.PathLike) -> None:
    """Write the canonical ellnum-v1 text form, CHUNK_PRIMES entries per
    write, through a temporary file next to `path`, so that an interrupted
    write leaves `path` as it was."""
    a1, a2, a3, a4, a6 = table.curve.coefficients
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{FORMAT_TAG},{a1},{a2},{a3},{a4},{a6},{table.limit}\n")
            for i in range(0, len(table), CHUNK_PRIMES):
                rows = zip(table.ps[i : i + CHUNK_PRIMES].tolist(), table.nps[i : i + CHUNK_PRIMES].tolist())
                fh.write("".join(f"{p},{n}\n" for p, n in rows))
            fh.write("".join(f"!{b}\n" for b in table.bad_primes))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_HEADER = re.compile(rf"{FORMAT_TAG}((?:,-?[0-9]+){{6}})")
# The first line of a block that is not in the canonical form: a field is
# 1 to 18 digits with no leading zero (so it fits int64 exactly), and every
# line ends with LF. Found in one search, without a backtracking stack.
_BAD_ENTRY = re.compile(r"^(?![1-9][0-9]{0,17},[1-9][0-9]{0,17}\n|\Z)", re.M)
_BAD_BAD_PRIME = re.compile(r"^(?!![1-9][0-9]{0,17}\n|\Z)", re.M)


def load_table(path: str | os.PathLike, expect: CurveModel | None = None) -> NpTable:
    """Parse and fully re-validate an ellnum-v1 file.

    Every failure names the offending line; a curve different from
    `expect` raises TableCurveError before any entry is trusted.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:  # no CR may pass as an LF
        text = fh.read()
    head, newline, text = text.partition("\n")  # text: the entries, then the bad primes
    fields = _HEADER.fullmatch(head)
    if not (fields and newline):
        raise TableFormatError(f"bad header {head!r}: want '{FORMAT_TAG},a1,a2,a3,a4,a6,limit' and a newline", 1)
    *coeffs, limit = map(int, fields[1].split(",")[1:])
    curve = CurveModel.from_coefficients(*coeffs)
    if expect is not None and curve.coefficients != expect.coefficients:
        raise TableCurveError(
            f"table curve {curve.spec_text()} does not match expected {expect.spec_text()}", 1
        )
    cut = text.find("!") if "!" in text else len(text)
    for lo, hi, malformed, want in ((0, cut, _BAD_ENTRY, "p,np"), (cut, len(text), _BAD_BAD_PRIME, "!p")):
        m = malformed.search(text, lo, hi)
        if m:
            line = text[m.start() :].partition("\n")[0]
            lineno = text.count("\n", 0, m.start()) + 2
            raise TableFormatError(f"bad line {line!r}: want '{want}' and a newline", lineno)
    bad, rows = text[cut:].replace("!", "").split(), text.count("\n", 0, cut)
    text = text.replace("\n", ",")  # one copy of the file text at a time (57 MB each at 5.7e7)
    flat = np.fromstring(text, dtype=np.int64, sep=",", count=2 * rows)  # stops at the bad primes
    del text
    table = NpTable(curve, limit, flat[0::2], flat[1::2], bad)
    del flat  # freed before validate sieves
    table.validate(first_line=2)
    return table


def cache_path(cache_dir: str | os.PathLike, model: CurveModel, limit: int) -> str:
    a1, a2, a3, a4, a6 = model.coefficients
    return os.path.join(os.fspath(cache_dir), f"{a1}_{a2}_{a3}_{a4}_{a6}_{limit}.ellnum")


def _covering_file(cache_dir: str | os.PathLike, model: CurveModel, limit: int) -> str | None:
    """The cache_path of `model` in `cache_dir` with the smallest limit >= `limit`, if any."""
    try:
        names = set(os.listdir(cache_dir))
    except FileNotFoundError:
        return None
    limits = {int(m[1]) for m in (re.search(r"_([0-9]+)\.ellnum\Z", name) for name in names) if m}
    covering = [n for n in limits if n >= limit and os.path.basename(cache_path(cache_dir, model, n)) in names]
    return cache_path(cache_dir, model, min(covering)) if covering else None


def covering_table(
    table: NpTable | None,
    model: CurveModel,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
    seed: int = 0,
) -> NpTable:
    """`table` itself, which must be of `model` and cover `limit`; with no
    table, the prefix to `limit` of the smallest file of `model` in
    `cache_dir` that covers it (it saves byte-identical to a fresh build),
    else a build to `limit`, saved there given a cache directory. A cached
    file that fails validation is reported, never silently rebuilt."""
    if table is not None:
        if table.curve.coefficients != model.coefficients or table.limit < limit:
            raise TableError(
                f"the table of curve {table.curve.spec_text()} to {table.limit} "
                f"does not cover curve {model.spec_text()} to {limit}"
            )
        return table
    if cache_dir is None:
        return build_table(model, limit, workers, seed)
    path = _covering_file(cache_dir, model, limit)
    if path is None:
        table = build_table(model, limit, workers, seed)
        save_table(table, cache_path(cache_dir, model, limit))
        return table
    table = covering_table(load_table(path, expect=model), model, limit)
    if table.limit == limit:
        return table
    ps, nps = table.upto(limit)  # copied, so the larger table's columns are freed
    return NpTable(model, limit, ps.copy(), nps.copy(), [b for b in table.bad_primes if b <= limit])
