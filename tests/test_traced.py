"""The layers the benchmark's tracer wraps exist in mtlab.

``bench/traced.py`` reports a layer it cannot find as ``missing`` and
carries on, so a renamed or deleted function would silently leave its
metrics at zero, and a changed signature turns an extra statistic into
``changed``. These tests read the tracer's ``SPECS`` and run it on a small
job; they change nothing under ``bench/``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
TRACED = ROOT / "bench" / "traced.py"

# wrapped layers known to be gone from mtlab: each function moved into the
# tests as a reference
KNOWN_MISSING = {("mtlab.modsym", "ManinSymbolSpace.evaluate_divisor"),
                 ("mtlab.polyact", "act")}


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


def test_traced_job_reads_every_statistic(tmp_path):
    # levels 1 and 2 at p = 5: 4 + 20 coefficients
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = ["invariants", "--level", "11", "--weight", "2", "--p", "5",
           "--nmax", "1", "--out", str(tmp_path / "r.json")]
    done = subprocess.run([sys.executable, str(TRACED), str(trace)] + job,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(trace.read_text())
    assert result["absent"] == {"modsym.evaluate_divisor": "missing",
                                "polyact.act": "missing"}
    assert result["metrics"]["mazurtate.element.coeffs"] == 24
