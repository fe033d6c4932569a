"""The benchmark's per-layer tracer must still find every function it names.

The tracer skips a name that no longer exists, so a rename inside gpaley
would silently drop that function's series from the per-layer metrics.
"""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _tracing()
    names = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns]
    names += list(tracing.MEMORY_TRACED) + list(tracing.COUNT_ROUTES)
    names += list(tracing.SEARCH_ROUTE.values())
    missing = []
    for name in names:
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"gpaley.{mod}"), fn, None)):
            missing.append(name)
    assert not missing, f"traced names missing from gpaley: {missing}"
