"""The traced benchmark run can wrap and restore every name it traces.

``perfbench/tracing.py`` replaces a fixed list of module and class
attributes with timing wrappers. A renamed or removed attribute would
otherwise only surface as a ``KeyError`` from
``perfbench/run.py --trace 1``. No Spark session is needed.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def _targets(tracing):
    """(owner, attribute) for every name the tracer wraps."""
    out = []
    for mod_name, path, _, _ in tracing.TRACED:
        owner = importlib.import_module(mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{mod_name}.{path} is gone"
        out.append((owner, attr))
    return out + tracing._stopping_targets()


def test_tracer_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    targets = _targets(tracing)
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer(True)
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr].__wrapped__ is original
        from repro.fastframe.engine import _BlockPicker

        picked = _BlockPicker(8, 6).pick_scan(np.zeros(8, bool), np.ones(8, bool), 4)
        assert picked.tolist() == [6, 7, 0, 1]
        assert [s.name for s in tracer.spans] == ["engine.pick"]
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original
