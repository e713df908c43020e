"""The benchmark's layer spans wrap program entry points by name; a renamed or
deleted entry point would silently read 0 there, so each target must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_patch_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for targets, _ in spans.PATCHES.values():
        for mod_name, attr in targets:
            if not callable(getattr(importlib.import_module(f"qdfsim.{mod_name}"), attr, None)):
                missing.append(f"{mod_name}.{attr}")
    np_mod = getattr(importlib.import_module("qdfsim.integrator"), "np", None)
    if not callable(getattr(getattr(np_mod, "linalg", None), "matrix_power", None)):
        missing.append("integrator.np.linalg.matrix_power")
    assert missing == []
