"""The benchmark's tracer names library functions; every name must resolve.

``perfbench/tracer.py`` wraps the attributes listed in its ``BOUNDARIES``
by name, so deleting or renaming one of them silently drops a layer from
``perfbench/run.py --trace 1``.  The tracer is only read here, never
installed: installing it rewrites module globals.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("layer, module_name, attrs, _spans", TRACER.BOUNDARIES, ids=[b[0] for b in TRACER.BOUNDARIES])
def test_every_boundary_resolves(layer, module_name, attrs, _spans):
    module = importlib.import_module(module_name)
    for attr in attrs:
        owner = module
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {module_name}.{attr}"


def test_recursive_entries_and_sample_box_resolve():
    for module_name, attr in TRACER.RECURSIVE:
        assert callable(getattr(importlib.import_module(module_name), attr))
    assert callable(importlib.import_module("gcrystal.ud").sample_box)
