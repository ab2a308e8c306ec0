"""Which mtlab modules a job loads.

Each job runs ``cli.main`` in a fresh interpreter, which then reports the
``mtlab`` modules in ``sys.modules``. Every job compiles the modules it
loads from source when no bytecode is cached, so the Mazur-Tate elements,
the order-1 block split, the tame block factoring, the identity checks and
``fractions`` (with the ``decimal`` and ``numbers`` modules it imports)
must load only in the jobs that run them. No time is measured.
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
                               if m.startswith("mtlab.")
                               or m == "fractions")]))
"""

# the modules every job imports with mtlab.cli
EVERY_JOB = {"mtlab.analysis", "mtlab.cli", "mtlab.modsym", "mtlab.padic"}

# the modules only some jobs load
OPTIONAL = {"mtlab.mazurtate", "mtlab.montes", "mtlab.tame", "mtlab.verify",
            "fractions"}


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
    # repeated block that the order-1 step splits without the tame models,
    # and no Mazur-Tate element is built
    (["mu-min", "--level", "23", "--weight", "6", "--p", "3",
      "--sign", "both"], {"mtlab.montes"}),
    # a prime above 3 of the 11/4 Hecke field is not monogenic, so the
    # norm formula reads a valuation as a Fraction
    (["verify", "--mode", "three-term", "--level", "11", "--weight", "4",
      "--p", "3", "--nmax", "2"],
     {"mtlab.mazurtate", "mtlab.verify", "fractions"}),
    # the benchmark's mt-deep and mt-field jobs
    (["invariants", "--level", "11", "--weight", "2", "--p", "5",
      "--nmax", "4"], {"mtlab.mazurtate"}),
    (["invariants", "--level", "23", "--weight", "6", "--p", "3",
      "--nmax", "3"], {"mtlab.mazurtate", "mtlab.montes"}),
    # the quartic 11/8 Hecke field has a block at 3 that the order-1 step
    # declines, so the tame models factor it; its primes are not monogenic
    (["invariants", "--level", "11", "--weight", "8", "--p", "3",
      "--nmax", "1"],
     {"mtlab.mazurtate", "mtlab.montes", "mtlab.tame", "fractions"}),
], ids=["invariants", "mu-min", "verify", "mt-deep", "mt-field",
        "tame"])
def test_job_loads_only_the_modules_it_runs(argv, optional, tmp_path):
    code, modules = loaded(argv, tmp_path)
    assert code == 0
    assert EVERY_JOB <= modules
    assert modules & OPTIONAL == optional


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
