"""Which mtlab modules a job loads.

Each job runs ``cli.main`` in a fresh interpreter, which then reports the
``mtlab`` modules in ``sys.modules``. Every job compiles the modules it
loads from source when no bytecode is cached, so the Mazur-Tate elements,
the block factoring of Montes' algorithm, the identity checks and
``fractions`` (with the ``decimal`` and ``numbers`` modules it imports)
must load only in the jobs that run them. No time is measured.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

PROBE = """
import json, sys
from mtlab import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("mtlab.")
                               or m == "fractions")]))
"""

# the modules every job imports with mtlab.cli
EVERY_JOB = {"mtlab.analysis", "mtlab.cli", "mtlab.modsym", "mtlab.padic"}

# the modules only some jobs load
OPTIONAL = {"mtlab.mazurtate", "mtlab.montes", "mtlab.verify", "fractions"}


def loaded(argv, tmp_path):
    """The exit code and the mtlab modules loaded by one job."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE] + argv
        + ["--out", str(tmp_path / "r.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv,optional", [
    # over Q: no block to factor, and no identity check
    (["invariants", "--level", "11", "--weight", "2", "--p", "5",
      "--nmax", "1"], {"mtlab.mazurtate"}),
    # the benchmark's split-mumin job: the degree-6 Hecke field has a
    # repeated block that Montes' algorithm splits at order 1, and no
    # Mazur-Tate element is built
    (["mu-min", "--level", "23", "--weight", "6", "--p", "3",
      "--sign", "both"], {"mtlab.montes"}),
    # the prime above 3 of the 11/4 Hecke field has e = 2: its block is
    # one segment, whose type reads each valuation as a Fraction
    (["verify", "--mode", "three-term", "--level", "11", "--weight", "4",
      "--p", "3", "--nmax", "2"],
     {"mtlab.mazurtate", "mtlab.montes", "mtlab.verify", "fractions"}),
    # the benchmark's mt-deep and mt-field jobs
    (["invariants", "--level", "11", "--weight", "2", "--p", "5",
      "--nmax", "4"], {"mtlab.mazurtate"}),
    (["invariants", "--level", "23", "--weight", "6", "--p", "3",
      "--nmax", "3"], {"mtlab.mazurtate", "mtlab.montes"}),
    # the quartic 11/8 Hecke field has a block at 3 with a prime of residue
    # degree 2 above phibar of degree 1, read through the type that found it
    (["invariants", "--level", "11", "--weight", "8", "--p", "3",
      "--nmax", "1"], {"mtlab.mazurtate", "mtlab.montes", "fractions"}),
], ids=["invariants", "mu-min", "verify", "mt-deep", "mt-field",
        "order-two"])
def test_job_loads_only_the_modules_it_runs(argv, optional, tmp_path):
    code, modules = loaded(argv, tmp_path)
    assert code == 0
    assert EVERY_JOB <= modules
    assert modules & OPTIONAL == optional


def _imports_cli(node):
    """Whether an import statement names the module mtlab.cli."""
    if isinstance(node, ast.Import):
        return any(alias.name == "mtlab.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    package = "mtlab" if node.level else None
    module = ".".join(filter(None, [package, node.module]))
    return module == "mtlab.cli" or module == "mtlab" and any(
        alias.name == "cli" for alias in node.names)


def test_no_module_imports_the_command_line_module():
    # cli drives every job, so a module that imported it back would make
    # ``python -m mtlab.cli`` load a second copy of it
    importers = [path.name for path in sorted((SRC / "mtlab").glob("*.py"))
                 if any(_imports_cli(node) for node in
                        ast.walk(ast.parse(path.read_text())))]
    assert importers == []


def test_python_m_cli_reports_a_verify_config_error(tmp_path):
    # run as ``python -m mtlab.cli``, a mode's configuration error ends the
    # job with exit 1 and one line on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["verify", "--mode", "alphastick", "--level", "11", "--weight",
            "2", "--p", "3", "--nmax", "1"]
    done = subprocess.run([sys.executable, "-m", "mtlab.cli"] + argv,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 1
    assert done.stderr == ("error: the alpha map needs k > 2 with (p - 1) "
                           "dividing k - 2\n")
