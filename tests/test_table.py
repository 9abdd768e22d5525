import hashlib
import os

import pytest

from ellnum import counting
from ellnum.arith import primes_up_to
from ellnum.errors import (
    TableCurveError,
    TableFormatError,
    TableHasseError,
    TableOrderError,
)
from ellnum.table import (
    NpTable,
    build_table,
    cache_path,
    cached_table,
    load_table,
    save_table,
)


class TestBuild:
    def test_limit_50_has_14_entries(self, curve_a):
        t = build_table(curve_a, 50)
        assert len(t) == 14
        assert t.bad_primes == (37,)
        assert len(t) + len(t.bad_primes) == len(primes_up_to(50))

    def test_limit_2_single_entry(self, curve_a):
        t = build_table(curve_a, 2)
        assert t.entries == [(2, 5)]

    def test_limit_1_empty(self, curve_a):
        t = build_table(curve_a, 1)
        assert len(t) == 0
        assert t.bad_primes == ()

    def test_second_curve_bad_primes(self, curve_b):
        t = build_table(curve_b, 200)
        assert t.bad_primes == (71, 109)

    def test_every_entry_in_hasse_range(self, curve_a):
        t = build_table(curve_a, 1000)
        for p, n in t:
            assert (n - p - 1) ** 2 <= 4 * p

    def test_np_of_lookup(self, curve_a):
        t = build_table(curve_a, 200)
        assert t.np_of(2) == 5
        assert t.np_of(101) == 99
        with pytest.raises(KeyError):
            t.np_of(37)


class TestGoldenTable:
    # sha256 of the saved build_table(37a, 115000), recorded when the table
    # was counted one prime at a time (charsum to 1e5, scalar BSGS above)
    TABLE_A_SHA256 = "d6caffcac669b3944a2f0b0d06b34cea7b7d587d0c24f45af3749f3e768ada3c"

    def test_saved_table_a_bytes(self, table_a, tmp_path):
        path = tmp_path / "37a.ellnum"
        save_table(table_a, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TABLE_A_SHA256

    def test_no_charsum_above_the_threshold(self, curve_a, monkeypatch):
        seen = []
        real = counting.count_charsum

        def spy(rc):
            seen.append(rc.p)
            return real(rc)

        monkeypatch.setattr(counting, "count_charsum", spy)
        table = build_table(curve_a, 20_000)
        assert table.np_of(1009) == 1057
        assert seen and max(seen) <= counting.CHARSUM_THRESHOLD


class TestWorkersDeterminism:
    def test_worker_counts_agree_byte_for_byte(self, curve_a, tmp_path, monkeypatch):
        # small chunks force the pool path even at this little limit
        monkeypatch.setattr("ellnum.table.CHUNK_PRIMES", 50)
        blobs = []
        for w in (1, 2):
            t = build_table(curve_a, 3000, workers=w)
            path = tmp_path / f"w{w}.ellnum"
            save_table(t, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestBuildFailure:
    def test_partial_progress_reported(self, curve_a, monkeypatch):
        import ellnum.table as table_mod
        from ellnum.errors import TableBuildError

        monkeypatch.setattr(table_mod, "CHUNK_PRIMES", 5)
        real = table_mod._count_chunk
        calls = {"n": 0}

        def flaky(coeffs, primes, seed):
            calls["n"] += 1
            if calls["n"] == 3:
                raise MemoryError("simulated exhaustion")
            return real(coeffs, primes, seed)

        monkeypatch.setattr(table_mod, "_count_chunk", flaky)
        with pytest.raises(TableBuildError) as exc:
            build_table(curve_a, 100)
        # chunks of five good primes: 2..11, 13..29, then the failure
        assert "chunk 2 (completed through p=29)" in str(exc.value)
        assert isinstance(exc.value.__cause__, MemoryError)


class TestRoundTrip:
    def test_save_load_identity(self, curve_a, tmp_path):
        t = build_table(curve_a, 200)
        path = tmp_path / "t.ellnum"
        save_table(t, path)
        assert load_table(path) == t

    def test_file_shape(self, curve_a, tmp_path):
        t = build_table(curve_a, 50)
        path = tmp_path / "t.ellnum"
        save_table(t, path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "ellnum-v1,0,0,1,-1,0,50"
        assert lines[1] == "2,5"
        assert lines[-2] == "!37"
        assert text.endswith("\n") and "\r" not in text and " " not in text

    def test_expected_curve_accepted(self, curve_a, tmp_path):
        t = build_table(curve_a, 50)
        path = tmp_path / "t.ellnum"
        save_table(t, path)
        assert load_table(path, expect=curve_a) == t

    def test_interrupted_save_keeps_the_old_file(self, curve_a, tmp_path, monkeypatch):
        import builtins

        import ellnum.table as table_mod

        path = tmp_path / "t.ellnum"
        save_table(build_table(curve_a, 50), path)
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("simulated full disk")

        monkeypatch.setattr(table_mod, "open", lambda *a, **kw: HalfWriter(builtins.open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="simulated full disk"):
            save_table(build_table(curve_a, 200), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.ellnum"]
        monkeypatch.undo()
        assert load_table(path, expect=curve_a) == build_table(curve_a, 50)


def _write(tmp_path, lines):
    path = tmp_path / "bad.ellnum"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadValidation:
    HEAD = "ellnum-v1,0,0,1,-1,0,10"
    GOOD = [HEAD, "2,5", "3,7", "5,8", "7,9"]

    def test_good_file_loads(self, tmp_path):
        t = load_table(_write(tmp_path, self.GOOD))
        assert t.entries == [(2, 5), (3, 7), (5, 8), (7, 9)]

    def test_hasse_violation_with_line_number(self, curve_a, tmp_path):
        lines = ["ellnum-v1,0,0,1,-1,0,101", "2,5", "101,300"]
        with pytest.raises(TableHasseError) as exc:
            load_table(_write(tmp_path, lines))
        assert exc.value.lineno == 3
        assert (300 - 101 - 1) ** 2 > 4 * 101

    def test_shuffled_lines_not_ascending(self, tmp_path):
        lines = [self.HEAD, "3,7", "2,5", "5,8", "7,9"]
        with pytest.raises(TableOrderError) as exc:
            load_table(_write(tmp_path, lines))
        assert exc.value.lineno == 3

    def test_bad_header(self, tmp_path):
        with pytest.raises(TableFormatError) as exc:
            load_table(_write(tmp_path, ["ellnum-v2,0,0,1,-1,0,10", "2,5"]))
        assert exc.value.lineno == 1

    def test_malformed_entry(self, tmp_path):
        with pytest.raises(TableFormatError) as exc:
            load_table(_write(tmp_path, [self.HEAD, "2,5", "3;7"]))
        assert exc.value.lineno == 3

    def test_stray_whitespace_rejected(self, tmp_path):
        with pytest.raises(TableFormatError):
            load_table(_write(tmp_path, [self.HEAD, "2,5 ", "3,7"]))

    def test_entry_after_bad_section(self, tmp_path):
        lines = ["ellnum-v1,0,0,1,-1,0,37", "2,5", "!37", "41,40"]
        with pytest.raises(TableFormatError):
            load_table(_write(tmp_path, lines))

    def test_curve_mismatch(self, curve_b, tmp_path):
        with pytest.raises(TableCurveError) as exc:
            load_table(_write(tmp_path, self.GOOD), expect=curve_b)
        assert exc.value.lineno == 1

    def test_missing_prime_breaks_completeness(self, tmp_path):
        lines = [self.HEAD, "2,5", "3,7", "7,9"]  # 5 missing
        with pytest.raises(TableFormatError):
            load_table(_write(tmp_path, lines))

    def test_fake_bad_prime_rejected(self, tmp_path):
        lines = [self.HEAD, "2,5", "3,7", "5,8", "!7"]  # 7 does not divide 37
        with pytest.raises(TableFormatError):
            load_table(_write(tmp_path, lines))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ellnum"
        path.write_text("")
        with pytest.raises(TableFormatError):
            load_table(path)


class TestValidateDirect:
    def test_doctored_table_caught(self, curve_a):
        t = build_table(curve_a, 50)
        bad = NpTable(curve_a, 50, t.ps, t.nps, (37, 41))
        with pytest.raises(TableFormatError):
            bad.validate()


class TestCache:
    def test_cache_path_format(self, curve_a):
        assert cache_path("cache", curve_a, 50) == os.path.join("cache", "0_0_1_-1_0_50.ellnum")

    def test_cached_table_builds_then_loads(self, curve_a, tmp_path):
        d = str(tmp_path / "cache")
        t1 = cached_table(curve_a, 100, cache_dir=d)
        path = cache_path(d, curve_a, 100)
        assert os.path.exists(path)
        stamp = os.path.getmtime(path)
        t2 = cached_table(curve_a, 100, cache_dir=d)
        assert t1 == t2
        assert os.path.getmtime(path) == stamp

    def test_corrupt_cache_surfaces_error(self, curve_a, tmp_path):
        d = tmp_path / "cache"
        d.mkdir()
        path = cache_path(str(d), curve_a, 101)
        with open(path, "w") as fh:
            fh.write("ellnum-v1,0,0,1,-1,0,101\n2,5\n101,300\n")
        with pytest.raises(TableHasseError):
            cached_table(curve_a, 101, cache_dir=str(d))
