"""The benchmark's traced run (perfbench --trace 1) wraps ellnum names by
attribute; each must still exist, so a rename fails here first."""

import importlib
import os

from ellnum.table import NpTable

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_wraps_and_restores_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")

    def current():
        return [getattr(module, attr) for module, attr, _ in layers.BOUNDARIES] + [NpTable.validate]

    before = current()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert [fn.__wrapped__ for fn in current()] == before
    finally:
        tracer.uninstall()
    assert current() == before
