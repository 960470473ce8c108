"""The traced benchmark wraps ueprobe functions by name; keep those names alive.

bench/tracing.py patches each (module, attribute) of its PROBES table in the
module that defines it. A refactor that renames, inlines or moves one of them
would silently drop that layer from the per-layer metrics, so this test fails
first.
"""

import importlib
import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(REPO, "bench", "tracing.py")


def _load_probes():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = _load_probes()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in PROBES])
def test_probe_resolves_to_a_function(module_name, attr):
    obj = importlib.import_module(f"ueprobe.{module_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"ueprobe.{module_name} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)
    if "." not in attr:
        # defined in that module, so patching the module global reaches every caller
        assert obj.__module__ == f"ueprobe.{module_name}"
