"""The layers the benchmark's tracer wraps exist in mtlab.

``bench/traced.py`` reports a layer it cannot find as ``missing`` and
carries on, so a renamed or deleted function would silently leave its
metrics at zero. This test reads the tracer's ``SPECS`` and changes
nothing under ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).parent.parent / "bench" / "traced.py"

# wrapped layers known to be gone from mtlab: the function moved into the
# tests as a reference
KNOWN_MISSING = {("mtlab.modsym", "ManinSymbolSpace.evaluate_divisor")}


def load_specs():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


def resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_layer_resolves():
    specs = load_specs()
    assert specs
    missing = {(modname, attr) for _, modname, attr, _, _ in specs
               if not resolves(modname, attr)}
    assert missing == KNOWN_MISSING
