"""The benchmark's tracer wraps program functions that it names as strings.

A renamed or deleted function would only show as an AttributeError deep
inside a traced benchmark run; this test names it instead.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("sd4x_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists(monkeypatch):
    missing = []
    for mod_name, attr, _, _ in _load_tracer(monkeypatch).TARGETS:
        owner = importlib.import_module(f"sd4x.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"sd4x.{mod_name}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps functions that do not exist: {missing}"
