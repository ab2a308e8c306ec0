"""Golden-report tests for the command line front end.

Each case runs ``cli.main`` in-process with ``--out`` in a temporary
directory and compares the exit code and the exact JSON and CSV bytes with
the files under ``tests/golden``. A case that fails before writing a report
has no golden files. After an intended change of report content, record
the named cases again with

    PYTHONPATH=src python tests/test_cli.py CASE...
"""

import json
import sys
from pathlib import Path

import pytest

from mtlab import analysis, cli, modsym
from mtlab.errors import OutOfBudget, PrecisionExhausted

GOLDEN = Path(__file__).parent / "golden"

SMALL = ["--level", "11", "--weight", "4", "--p", "3", "--nmax", "2",
         "--sign", "both"]

# case name -> (argv, exit code)
CASES = {
    "invariants": (["invariants"] + SMALL, cli.EXIT_OK),
    "mu-min": (["mu-min"] + SMALL, cli.EXIT_OK),
    "eigenforms": (["eigenforms"] + SMALL, cli.EXIT_OK),
    "stabilize": (["stabilize"] + SMALL, cli.EXIT_OK),
    "verify-three-term": (["verify", "--mode", "three-term"] + SMALL,
                          cli.EXIT_OK),
    "verify-degen": (["verify", "--mode", "degen"] + SMALL, cli.EXIT_OK),
    "verify-atkin-lehner": (["verify", "--mode", "atkin-lehner"] + SMALL,
                            cli.EXIT_OK),
    "verify-alphastick": (["verify", "--mode", "alphastick"] + SMALL,
                          cli.EXIT_OK),
    # ordinary source form: the congruence identity does not hold here
    "verify-congruence": (["verify", "--mode", "congruence"] + SMALL,
                          cli.EXIT_IDENTITY),
    # PrecisionExhausted: the twist i = 0 of a sign -1 symbol is zero
    "verify-wt2-patterns": (["verify", "--mode", "wt2-patterns"] + SMALL,
                            cli.EXIT_CONSTRUCTION),
    # NotInSpan: the reduced alpha-image leaves the degeneracy span
    "verify-oldspace": (["verify", "--mode", "oldspace"] + SMALL,
                        cli.EXIT_CONSTRUCTION),
    # class c1 has theta_{0,0} = 0 exactly, so its rows stay uncertified
    "invariants-37-2-3": (["invariants", "--level", "37", "--weight", "2",
                           "--p", "3", "--nmax", "1"], cli.EXIT_UNCERTIFIED),
    # class c1's field cannot be certified at precision 2
    "invariants-11-8-3": (["invariants", "--level", "11", "--weight", "8",
                           "--p", "3", "--nmax", "1"], cli.EXIT_OK),
}


def run_case(name, directory):
    """Exit code and {file name: bytes} of the files the case writes."""
    argv, _ = CASES[name]
    directory.mkdir(parents=True, exist_ok=True)
    code = cli.main(argv + ["--out", str(directory / (name + ".json"))])
    files = {f.name: f.read_bytes() for f in sorted(directory.iterdir())}
    return code, files


def golden_files(name):
    return {f.name: f.read_bytes()
            for f in sorted(GOLDEN.glob(name + ".*"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    code, files = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert files == golden_files(name)


@pytest.mark.parametrize("name", ["mu-min", "verify-degen",
                                  "invariants-37-2-3"])
def test_two_runs_identical(name, tmp_path):
    first = run_case(name, tmp_path / "a")
    second = run_case(name, tmp_path / "b")
    assert first == second


def test_every_command_and_mode_has_a_case():
    commands = {argv[0] for argv, _ in CASES.values()}
    modes = {argv[argv.index("--mode") + 1]
             for argv, _ in CASES.values() if "--mode" in argv}
    assert commands == set(cli._COMMANDS)
    assert modes == set(cli._VERIFY_MODES)


def test_cache_flag_rejected():
    with pytest.raises(SystemExit):
        cli.main(["eigenforms", "--level", "11", "--weight", "2",
                  "--cache", "somewhere"])


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 9])
def test_p_must_be_an_odd_prime(p, capsys):
    code = cli.main(["mu-min", "--level", "11", "--weight", "2",
                     "--p", str(p)])
    assert code == cli.EXIT_CONSTRUCTION
    assert "p must be an odd prime" in capsys.readouterr().err


PER_PRIME_MODES = ["three-term", "degen", "alphastick", "congruence",
                   "wt2-patterns", "oldspace"]


def _never_normalizes(eigensymbol, embedding):
    raise PrecisionExhausted("vanishes at M = %d" % embedding.M)


@pytest.mark.parametrize("mode", PER_PRIME_MODES)
def test_verify_row_when_precision_runs_out(mode, tmp_path, monkeypatch):
    monkeypatch.setattr(modsym, "normalize", _never_normalizes)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--mode", mode] + SMALL + ["--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    cid = "N11k2c0" if mode == "wt2-patterns" else "N11k4c0"
    assert code == cli.EXIT_IDENTITY
    assert checks == [
        {"class": cid, "embedding": 0, "n": None, "i": None,
         "ok": False, "note": "precision exhausted"}] * 2


@pytest.mark.parametrize("command", ["invariants", "mu-min"])
def test_uncertified_when_precision_runs_out(command, tmp_path,
                                             monkeypatch):
    monkeypatch.setattr(modsym, "normalize", _never_normalizes)
    code = cli.main([command] + SMALL + ["--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_UNCERTIFIED


def _config(argv):
    return cli.JobConfig(cli.build_parser().parse_args(argv))


def test_ladder_stops_at_first_certified_rung():
    config = _config(["invariants"] + SMALL)
    tried = []

    def work(norm):
        tried.append(norm.embedding.M)
        return norm.embedding.M, norm.embedding.M >= 2 * config.M

    records = list(cli._records(config, config.space(), work))
    assert [(sign, cid, j) for sign, cid, j, _ in records] == [
        (1, "N11k4c0", 0), (-1, "N11k4c0", 0)]
    assert [res for *_, res in records] == [2 * config.M] * 2
    assert tried == [config.M, 2 * config.M] * 2


def test_mu_min_climbs_the_ladder_on_out_of_budget(tmp_path, monkeypatch):
    mu_min = analysis.mu_min

    def small_budget(norm):
        if norm.embedding.M < 16:
            raise OutOfBudget("budget")
        return mu_min(norm)

    # 16 is the second rung of the ladder from the default precision 8
    monkeypatch.setattr(analysis, "mu_min", small_budget)
    out = tmp_path / "report.json"
    code = cli.main(["mu-min"] + SMALL + ["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert code == cli.EXIT_OK
    assert [(r["certified"], r["precision_used"]) for r in rows] == \
        [(True, 16)] * 2


def record(names):
    """Write the golden files of the named cases from this checkout."""
    for name in names:
        for old in GOLDEN.glob(name + ".*"):
            old.unlink()
        tmp = GOLDEN / ("." + name)
        code, files = run_case(name, tmp)
        for fname, data in files.items():
            (GOLDEN / fname).write_bytes(data)
            (tmp / fname).unlink()
        tmp.rmdir()
        print("%s: exit %d, %d files" % (name, code, len(files)))


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(CASES))
