import os

import pytest

from ellnum import parse_curve
from ellnum.table import covering_table

CURVE_A_SPEC = "0,0,1,-1,0"
CURVE_B_SPEC = "0,0,3,-1,2"

# Session tables sized for the acceptance suite: the 37a table covers the
# x = 4e6 census (largest factor 114285, window top 114962) and the
# x = 1e5 statistics; the second table covers the 1e5 Hasse sweep.
TABLE_A_LIMIT = 115_000
TABLE_B_LIMIT = 100_000


@pytest.fixture(scope="session")
def curve_a():
    return parse_curve(CURVE_A_SPEC)


@pytest.fixture(scope="session")
def curve_b():
    return parse_curve(CURVE_B_SPEC)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    # ELLNUM_CACHE_DIR lets long runs (the extended census in particular)
    # reuse tables across sessions; loads re-validate everything anyway.
    env = os.environ.get("ELLNUM_CACHE_DIR")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("table-cache"))


@pytest.fixture(scope="session")
def table_a(curve_a, cache_dir):
    return covering_table(None, curve_a, TABLE_A_LIMIT, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def table_b(curve_b, cache_dir):
    return covering_table(None, curve_b, TABLE_B_LIMIT, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def table_a5k(curve_a, cache_dir):
    return covering_table(None, curve_a, 5_000, cache_dir=cache_dir)
