"""Which mtlab modules a job loads.

Each job runs ``cli.main`` in a fresh interpreter, which then reports the
``mtlab`` modules in ``sys.modules``. Every job compiles the modules it
loads from source when no bytecode is cached, so the tame block factoring
and the identity checks must load only in the jobs that run them. No time
is measured.
"""

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
                               if m.startswith("mtlab."))]))
"""

# the modules every job imports with mtlab.cli
EVERY_JOB = {"mtlab.analysis", "mtlab.cli", "mtlab.mazurtate",
             "mtlab.modsym", "mtlab.padic"}


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


@pytest.mark.parametrize("argv,tame,verify", [
    # over Q: no block to factor, and no identity check
    (["invariants", "--level", "11", "--weight", "2", "--p", "5",
      "--nmax", "1"], False, False),
    # the degree-6 Hecke field has a block that needs the tame models
    (["mu-min", "--level", "23", "--weight", "6", "--p", "3",
      "--sign", "both"], True, False),
    (["verify", "--mode", "three-term", "--level", "11", "--weight", "4",
      "--p", "3", "--nmax", "2"], False, True),
], ids=["invariants", "mu-min", "verify"])
def test_job_loads_only_the_modules_it_runs(argv, tame, verify, tmp_path):
    code, modules = loaded(argv, tmp_path)
    assert code == 0
    assert EVERY_JOB <= modules
    assert ("mtlab.tame" in modules) == tame
    assert ("mtlab.verify" in modules) == verify


def test_verify_shares_the_running_command_line_module(tmp_path):
    # run as ``python -m mtlab.cli``, verify must use that module and not a
    # second copy of it, or the ConfigError it raises is not caught as one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["verify", "--mode", "alphastick", "--level", "11", "--weight",
            "2", "--p", "3", "--nmax", "1"]
    done = subprocess.run([sys.executable, "-m", "mtlab.cli"] + argv,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 1
    assert done.stderr == ("error: the alpha map needs k > 2 with (p - 1) "
                           "dividing k - 2\n")
