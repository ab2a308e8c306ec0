"""Golden-report tests for the command line front end.

Each case runs ``cli.main`` in-process with ``--out`` in a temporary
directory and compares the exit code and the exact JSON and CSV bytes with
the files under ``tests/golden``. A case that fails before writing a report
has no golden files. After an intended change of report content, record
the named cases again with

    PYTHONPATH=src python tests/test_cli.py CASE...
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mtlab import (analysis, cli, linalg, mazurtate, modsym, montes, padic,
                   verify)
from mtlab.errors import OutOfBudget, PrecisionExhausted, PrecisionTooLow

GOLDEN = Path(__file__).parent / "golden"

SMALL = ["--level", "11", "--weight", "4", "--p", "3", "--nmax", "2",
         "--sign", "both"]

# p = 5: two twists per sign share each level's Mazur-Tate element
TWO_TWISTS = ["--level", "11", "--weight", "2", "--p", "5", "--nmax", "2",
              "--sign", "both"]

# case name -> (argv, exit code)
CASES = {
    "invariants": (["invariants"] + SMALL, cli.EXIT_OK),
    "mu-min": (["mu-min"] + SMALL, cli.EXIT_OK),
    "eigenforms": (["eigenforms"] + SMALL, cli.EXIT_OK),
    "stabilize": (["stabilize"] + SMALL, cli.EXIT_OK),
    "invariants-11-2-5": (["invariants"] + TWO_TWISTS, cli.EXIT_OK),
    "stabilize-11-2-5": (["stabilize"] + TWO_TWISTS, cli.EXIT_OK),
    "verify-three-term": (["verify", "--mode", "three-term"] + SMALL,
                          cli.EXIT_OK),
    "verify-degen": (["verify", "--mode", "degen"] + SMALL, cli.EXIT_OK),
    "verify-atkin-lehner": (["verify", "--mode", "atkin-lehner"] + SMALL,
                            cli.EXIT_OK),
    # class c3 of each sign is 2-old, so w_N is not applicable to it
    "verify-atkin-lehner-22-4-3": (["verify", "--mode", "atkin-lehner",
                                    "--level", "22", "--weight", "4",
                                    "--p", "3", "--sign", "both"],
                                   cli.EXIT_OK),
    "verify-alphastick": (["verify", "--mode", "alphastick"] + SMALL,
                          cli.EXIT_OK),
    # ordinary source form: the congruence identity does not hold here
    "verify-congruence": (["verify", "--mode", "congruence"] + SMALL,
                          cli.EXIT_IDENTITY),
    # one entry per twist: i = 0 for sign +1, i = 1 for sign -1
    "verify-wt2-patterns": (["verify", "--mode", "wt2-patterns"] + SMALL,
                            cli.EXIT_OK),
    # the reduced alpha-image leaves the degeneracy span: a failed row
    "verify-oldspace": (["verify", "--mode", "oldspace"] + SMALL,
                        cli.EXIT_IDENTITY),
    # c0 at sign +1 is the maximal (reducible) ordinary pattern, c1 at
    # sign -1 is supersingular, and two rows run out of precision
    "verify-wt2-patterns-37-2-3": (["verify", "--mode", "wt2-patterns",
                                    "--level", "37", "--weight", "2",
                                    "--p", "3", "--nmax", "3",
                                    "--sign", "both"], cli.EXIT_IDENTITY),
    # the only in-span row (coefficients over F_9) next to rows that
    # leave the degeneracy span
    "verify-oldspace-23-6-3": (["verify", "--mode", "oldspace", "--level",
                                "23", "--weight", "6", "--p", "3",
                                "--sign", "both"], cli.EXIT_IDENTITY),
    # partners over F_9, where two residue-field maps exist
    "verify-congruence-23-6-3": (["verify", "--mode", "congruence",
                                  "--level", "23", "--weight", "6",
                                  "--p", "3", "--nmax", "1",
                                  "--sign", "both"], cli.EXIT_IDENTITY),
    # class c1 has theta_{0,0} = 0 exactly, so its rows stay uncertified
    "invariants-37-2-3": (["invariants", "--level", "37", "--weight", "2",
                           "--p", "3", "--nmax", "1"], cli.EXIT_UNCERTIFIED),
    # class c1's quartic field has a prime above 3 of residue degree 2
    # over phibar of degree 1, read through its type
    "invariants-11-8-3": (["invariants", "--level", "11", "--weight", "8",
                           "--p", "3", "--nmax", "1"], cli.EXIT_OK),
    # the primes above 3 of class c1's field are found at the ladder's top,
    # precision 8, and the first rung reads them mod 3^2
    "invariants-11-8-3-precision-2": (["invariants", "--level", "11",
                                       "--weight", "8", "--p", "3",
                                       "--nmax", "1", "--precision", "2",
                                       "--sign", "both"], cli.EXIT_OK),
    # the same at precision 4 for the fields of weight 14
    "invariants-11-14-3-precision-4": (["invariants", "--level", "11",
                                        "--weight", "14", "--p", "3",
                                        "--nmax", "1", "--precision", "4"],
                                       cli.EXIT_OK),
    # the only case that splits the level-69 weight-6 presentation
    "stabilize-23-6-3": (["stabilize", "--level", "23", "--weight", "6",
                          "--p", "3", "--nmax", "2", "--sign", "1"],
                         cli.EXIT_OK),
    # the benchmark's space: Hecke fields of degree 3 and 6 for each sign
    "eigenforms-23-6-3": (["eigenforms", "--level", "23", "--weight", "6",
                           "--p", "3", "--sign", "both"], cli.EXIT_OK),
    # a composite level, split with the U_q candidates
    "eigenforms-22-4-3": (["eigenforms", "--level", "22", "--weight", "4",
                           "--p", "3", "--sign", "both"], cli.EXIT_OK),
    # a square-free level whose sign +1 side holds the Eisenstein
    # eigenvalue with multiplicity 7 (weight 2) and 8 (weight 4)
    "eigenforms-30-2": (["eigenforms", "--level", "30", "--weight", "2",
                         "--sign", "both"], cli.EXIT_OK),
    "eigenforms-30-4": (["eigenforms", "--level", "30", "--weight", "4",
                         "--sign", "both"], cli.EXIT_OK),
    # a big level: a_ell up to 100, past the Sturm bound 65
    "eigenforms-389-2-3": (["eigenforms", "--level", "389", "--weight", "2",
                            "--p", "3", "--ellmax", "100"], cli.EXIT_OK),
    # p > 3, so omega is not rational; weight > 2 and a symbol denominator
    # divisible by p, so the Teichmuller lifts need more than M digits
    "invariants-11-6-7": (["invariants", "--level", "11", "--weight", "6",
                           "--p", "7", "--nmax", "2", "--sign", "both"],
                          cli.EXIT_OK),
    "invariants-23-4-5": (["invariants", "--level", "23", "--weight", "4",
                           "--p", "5", "--nmax", "2", "--sign", "both"],
                          cli.EXIT_OK),
    # the degree-6 Hecke field has a repeated block at 3 that the order-1
    # step splits, and both signs split into the same two fields
    "mu-min-23-6-3": (["mu-min", "--level", "23", "--weight", "6",
                       "--p", "3", "--sign", "both"], cli.EXIT_OK),
    # high weight: mu_min reaches 5, and rows that cannot be normalized or
    # have no certified digits at precision 8 climb to 16
    "mu-min-11-22-3": (["mu-min", "--level", "11", "--weight", "22",
                        "--p", "3", "--sign", "both"], cli.EXIT_OK),
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


@pytest.mark.parametrize("name", ["verify-congruence-23-6-3",
                                  "verify-oldspace-23-6-3"])
def test_partner_is_read_through_the_map_its_match_found(name, tmp_path,
                                                         monkeypatch):
    """The weight-2 partners of 23/6/3 live over F_9, which has two maps
    into the residue field of the source prime. The report must not depend
    on the order in which the maps are listed."""
    homs = padic._residue_homs
    monkeypatch.setattr(padic, "_residue_homs",
                        lambda source, target: homs(source, target)[::-1])
    code, files = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert files == golden_files(name)


def test_a_partner_conjugate_at_one_ell_only_is_no_match(monkeypatch):
    """The weight-2 class of level 23, over Q(sqrt 5), matches a class of
    23/6/3 at a prime with residue field F_9.  With its a_2 replaced by the
    Galois conjugate, each reduction is still conjugate to the source's,
    but no one residue-field map aligns a_2 with a_5, a_7 and a_11 (none
    of which lies in F_3): the forms are not congruent there, so there is
    no match."""
    cls = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(23, 6), 1)[1]
    w2 = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(23, 2), 1)

    def primes_above(field, M):
        return padic.primes_above(field, 3, M)

    emb = primes_above(cls.field, 8)[1]
    assert emb.residue_field.degree == 2
    found = verify.find_congruent_weight2(cls, emb, w2, primes_above)
    assert [cid for cid, *_ in found] == ["N23k2c0"]
    partner = w2[0]
    assert partner.field.minpoly == (-1, -1, 1)
    a = partner.a

    def conjugate_at_2(ell):
        nums, den = a(ell)
        if ell != 2:
            return nums, den
        # y -> 1 - y takes a + b y to (a + b) - b y
        return [nums[0] + nums[1], -nums[1]], den

    monkeypatch.setattr(partner, "a", conjugate_at_2)
    assert verify.find_congruent_weight2(cls, emb, w2, primes_above) == []


def test_every_command_and_mode_has_a_case():
    commands = {argv[0] for argv, _ in CASES.values()}
    modes = {argv[argv.index("--mode") + 1]
             for argv, _ in CASES.values() if "--mode" in argv}
    assert commands == set(cli._COMMANDS)
    assert modes == set(verify._VERIFY_MODES)


def test_cache_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigenforms", "--level", "11", "--weight", "2",
                  "--cache", "somewhere"])
    assert exc.value.code == cli.EXIT_CONSTRUCTION == 1
    assert "error: unrecognized arguments: --cache" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mu-min", "--level", "11", "--weight", "2", "--p", "3", "--sign", "0"],
    ["mu-min", "--level", "abc", "--weight", "2", "--p", "3"],
    ["frobnicate", "--level", "11", "--weight", "2"],
    ["mu-min", "--weight", "2", "--p", "3"],
], ids=["sign-0", "level-abc", "unknown-command", "missing-level"])
def test_malformed_command_line_exits_1(argv, capsys):
    """argparse's own exit code 2 would read as an uncertified row."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONSTRUCTION
    assert "mtlab: error: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: mtlab" in capsys.readouterr().out


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


def _runs_out_below(monkeypatch, owner, name, M):
    """Make the method or function owner.name, whose first argument is a
    normalized symbol, raise PrecisionExhausted below working precision M."""
    func = getattr(owner, name)

    def planted(norm, *args):
        if norm.embedding.M < M:
            raise PrecisionExhausted("planted at M = %d" % norm.embedding.M)
        return func(norm, *args)

    monkeypatch.setattr(owner, name, planted)


# where each command's work step runs out of precision: the whole step for
# invariants and mu-min, every embedding for the verify modes
WORK_STEPS = {"invariants": (analysis, "invariant_table"),
              "mu-min": (analysis, "mu_min")}


@pytest.mark.parametrize("command", sorted(WORK_STEPS))
def test_work_climbs_the_ladder_on_precision_exhausted(command, tmp_path,
                                                       monkeypatch):
    # 16 is the second rung of the ladder from the default precision 8
    _runs_out_below(monkeypatch, *WORK_STEPS[command], 16)
    out = tmp_path / "report.json"
    assert cli.main([command] + SMALL + ["--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    rows = report["tables" if command == "invariants" else "rows"]
    assert [r["precision_used"] for r in rows] == [16] * 2


@pytest.mark.parametrize("command", sorted(WORK_STEPS))
def test_uncertified_when_the_work_runs_out_of_precision(command, tmp_path,
                                                         monkeypatch):
    _runs_out_below(monkeypatch, *WORK_STEPS[command], 10 ** 9)
    code = cli.main([command] + SMALL + ["--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_UNCERTIFIED


def test_job_ends_when_no_rung_finds_the_primes(capsys, monkeypatch):
    def never(field, p, M):
        raise PrecisionTooLow("planted at M = %d" % M)

    monkeypatch.setattr(padic, "primes_above", never)
    assert cli.main(["mu-min"] + SMALL) == cli.EXIT_CONSTRUCTION
    assert capsys.readouterr().err == \
        "error: PrecisionTooLow: planted at M = 32\n"


@pytest.mark.parametrize("mode", PER_PRIME_MODES)
def test_verify_row_when_the_work_runs_out_of_precision(mode, tmp_path,
                                                        monkeypatch):
    _runs_out_below(monkeypatch, modsym.NormalizedSymbol, "embed", 10 ** 9)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--mode", mode] + SMALL + ["--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    cid = "N11k2c0" if mode == "wt2-patterns" else "N11k4c0"
    assert code == cli.EXIT_IDENTITY
    assert checks == [
        {"class": cid, "embedding": 0, "n": None, "i": None,
         "ok": False, "note": "precision exhausted"}] * 2


@pytest.mark.parametrize("argv,spaces", [
    (["stabilize", "--level", "23", "--weight", "6", "--p", "3", "--nmax",
      "2"], [(23, 6)]),
    (["verify", "--mode", "wt2-patterns"] + SMALL, [(11, 2)]),
], ids=["stabilize", "wt2-patterns"])
def test_stabilization_builds_no_level_np_space(argv, spaces, tmp_path,
                                                 monkeypatch):
    built = []
    init = modsym.ManinSymbolSpace.__init__

    def counted(space, level, weight):
        built.append((level, weight))
        init(space, level, weight)

    monkeypatch.setattr(modsym.ManinSymbolSpace, "__init__", counted)
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert built == spaces


JOB_23_6_3 = ["--level", "23", "--weight", "6", "--p", "3", "--sign", "both"]


def test_stabilize_projects_each_theta_once(tmp_path, monkeypatch):
    # 10 primes above 3 for the four classes, twist 0 at sign +1 and 1 at
    # sign -1: theta_{n,i}, n = 0..2, and the stabilized theta_{3,i} need
    # 24 distinct projections; psi_n used to project theta_{n-1,i} again
    calls = []
    project = mazurtate.embedded_projection

    def counted(norm, full, i):
        calls.append((norm, full.n, i))
        return project(norm, full, i)

    monkeypatch.setattr(mazurtate, "embedded_projection", counted)
    argv = ["stabilize", "--nmax", "3"] + JOB_23_6_3
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert len(calls) == len(set(calls)) == 24


def test_degen_builds_level_np_elements_once_per_class(tmp_path,
                                                      monkeypatch):
    # four classes and three levels: 12 level-69 elements shared by the
    # 10 primes above 3, next to the 12 exact elements of the classes
    levels = []
    values = mazurtate.mazur_tate_values

    def counted(space, get_value, p, n, sign=None):
        levels.append(space.M)
        return values(space, get_value, p, n, sign)

    monkeypatch.setattr(mazurtate, "mazur_tate_values", counted)
    argv = ["verify", "--mode", "degen", "--nmax", "3"] + JOB_23_6_3
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert sorted(levels) == [23] * 12 + [69] * 12


@pytest.mark.parametrize("mode", ["degen", "alphastick"])
def test_identity_sides_walk_every_unit(mode, tmp_path, monkeypatch):
    # the level-Np element of degen and alphastick is the independent side
    # of an identity, so it walks every unit; an eigenclass's exact element
    # walks the units below p^n/2 and fills in the rest by its sign
    walks = []
    walk = modsym._convergent_bottoms

    def counted_walk(a, b):
        walks.append(b)
        return walk(a, b)

    built = []
    values = mazurtate.mazur_tate_values

    def counted(space, get_value, p, n, sign=None):
        start = len(walks)
        element = values(space, get_value, p, n, sign)
        built.append((space.M, sign, len(walks) - start, len(element.coeffs)))
        return element

    monkeypatch.setattr(modsym, "_convergent_bottoms", counted_walk)
    monkeypatch.setattr(mazurtate, "mazur_tate_values", counted)
    argv = ["verify", "--mode", mode] + SMALL
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert {M for M, *_ in built} == {11, 33}
    for M, sign, walked, units in built:
        if M == 33:
            assert sign is None and walked == units
        else:
            assert sign in (1, -1) and 2 * walked == units


# jobs whose deepest level is over the budget, level 8 at p = 5 and levels
# 11 and 12 at p = 3: cli.main refuses each before any space is split
OVER_BUDGET = {
    "invariants": (["invariants", "--level", "23", "--weight", "6", "--p",
                    "3", "--nmax", "11"], "4251528 evaluations"),
    "stabilize": (["stabilize", "--level", "11", "--weight", "2", "--p", "5",
                   "--nmax", "7"], "2500000 evaluations"),
    "three-term": (["verify", "--mode", "three-term", "--level", "11",
                    "--weight", "2", "--p", "5", "--nmax", "7"],
                   "2500000 evaluations"),
    "degen": (["verify", "--mode", "degen", "--level", "11", "--weight", "2",
               "--p", "5", "--nmax", "7"], "2500000 evaluations"),
    "alphastick": (["verify", "--mode", "alphastick", "--level", "11",
                    "--weight", "4", "--p", "3", "--nmax", "11"],
                   "1299078 evaluations"),
    "congruence": (["verify", "--mode", "congruence", "--level", "11",
                    "--weight", "4", "--p", "3", "--nmax", "11"],
                   "4251528 evaluations"),
    "wt2-patterns": (["verify", "--mode", "wt2-patterns", "--level", "11",
                      "--weight", "2", "--p", "5", "--nmax", "7"],
                     "2500000 evaluations"),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_budget_is_checked_before_any_space_is_split(name, capsys,
                                                     monkeypatch):
    built = []
    monkeypatch.setattr(modsym, "cuspidal_eigensymbols",
                        lambda *args: built.append(args))
    monkeypatch.setattr(mazurtate, "mazur_tate_values",
                        lambda *args: built.append(args))
    argv, message = OVER_BUDGET[name]
    assert cli.main(argv) == cli.EXIT_CONSTRUCTION
    assert message in capsys.readouterr().err
    assert built == []


def test_every_gated_job_has_an_over_budget_case():
    assert set(OVER_BUDGET) == set(cli._BUDGET_DEPTH)


@pytest.mark.parametrize("name", ["mu-min", "verify-atkin-lehner",
                                  "verify-oldspace"])
def test_jobs_that_build_no_element_are_not_gated(name, tmp_path):
    """At n_max 11 and p = 3 a gated job would be refused, but these jobs
    build no Mazur-Tate element: they report what they report at n_max 2."""
    with pytest.raises(OutOfBudget):
        mazurtate.check_budget(3, 11)
    argv, code = CASES[name]
    argv = argv[:argv.index("--nmax") + 1] + ["11"] + \
        argv[argv.index("--nmax") + 2:]
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out)]) == code
    report = json.loads(out.read_text())
    golden = json.loads(golden_files(name)[name + ".json"])
    assert report.pop("config")["n_max"] == 11
    golden.pop("config")
    assert report == golden


# a small job per gated command or mode; its deepest Mazur-Tate element
# must lie where the gate prices it, n_max + cli._BUDGET_DEPTH[job]
GATE_DEPTH_JOBS = {
    "invariants": ["invariants"] + SMALL,
    "stabilize": ["stabilize"] + SMALL,
    **{mode: ["verify", "--mode", mode] + SMALL
       for mode in ("three-term", "degen", "alphastick", "congruence",
                    "wt2-patterns")},
}


@pytest.mark.parametrize("job", sorted(GATE_DEPTH_JOBS))
def test_the_gate_prices_the_deepest_level_the_job_builds(job, tmp_path,
                                                          monkeypatch):
    levels = []
    values = mazurtate.mazur_tate_values

    def counted(space, get_value, p, n, sign=None):
        levels.append(n)
        return values(space, get_value, p, n, sign)

    monkeypatch.setattr(mazurtate, "mazur_tate_values", counted)
    argv = GATE_DEPTH_JOBS[job]
    cli.main(argv + ["--out", str(tmp_path / "r.json")])
    n_max = int(argv[argv.index("--nmax") + 1])
    assert max(levels) == n_max + cli._BUDGET_DEPTH[job]


@pytest.mark.parametrize("mode", ["congruence:bogus", "congruence:",
                                  "degen:x", "three-term:lowslope", "bogus",
                                  "three-term"])
def test_bad_verify_mode_fails_before_any_space(mode, capsys, monkeypatch):
    # three-term links theta_(n-1), theta_n and theta_(n+1), so --nmax 1
    # leaves it nothing to check
    built = []
    monkeypatch.setattr(modsym, "ManinSymbolSpace",
                        lambda *args: built.append(args))
    argv = ["verify", "--mode", mode, "--level", "11", "--weight", "2",
            "--p", "3", "--nmax", "1"]
    assert cli.main(argv) == cli.EXIT_CONSTRUCTION
    assert capsys.readouterr().err.startswith("error: ")
    assert built == []


def _module_state():
    """The size of every module-level dict, list and set of the loaded
    mtlab modules."""
    return {(name, attr): len(value)
            for name, module in sorted(sys.modules.items())
            if name.startswith("mtlab.")
            for attr, value in vars(module).items()
            if not attr.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_a_job_leaves_no_module_level_state(tmp_path):
    # every memo is scoped to a space, class, symbol or job; 7/10/3 is a
    # space no other test builds, so no memo could hold it already
    before = _module_state()
    argv = ["invariants", "--level", "7", "--weight", "10", "--p", "3",
            "--nmax", "1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert _module_state() == before


@pytest.mark.parametrize("r", [0, -1])
def test_r_must_be_positive(r, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(modsym, "ManinSymbolSpace",
                        lambda *args: built.append(args))
    argv = ["verify", "--mode", "oldspace", "--level", "11", "--weight", "4",
            "--p", "3", "--r", str(r)]
    assert cli.main(argv) == cli.EXIT_CONSTRUCTION
    assert capsys.readouterr().err == "error: r must be at least 1\n"
    assert built == []


@pytest.mark.parametrize("mode,want", [("congruence", "lowslope"),
                                       ("congruence:lowslope", "lowslope"),
                                       ("congruence:medweight", "medweight")])
def test_congruence_mode_option(mode, want):
    config = _config(["verify", "--mode", mode, "--level", "11", "--weight",
                      "2", "--p", "3"])
    assert (config.verify_mode, config.congruence_mode) == ("congruence", want)
    assert config.as_dict()["mode"] == mode


def test_cli_import_loads_no_sympy():
    code = "import sys, mtlab.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=Path(__file__).parent.parent / "src")
    assert out.stdout.strip() == "False"


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=6),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@example([0, -3, 5, 6], 1, 4)
def test_field_strings_write_what_fraction_writes(nums, den, common):
    # a common factor makes the inputs non-reduced
    nums, den = [c * common for c in nums], den * common
    assert cli._field_strings(nums, den) == [str(Fraction(c, den))
                                             for c in nums]


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


def test_a_higher_rung_keeps_each_prime_of_the_first(monkeypatch):
    """The seven primes above 3 of class c2's field at 11/22 are found once,
    at the ladder's top precision 8.  With a work step certified only from
    the second rung, the prime of index j that any rung reads is the top's
    prime j mod p^M, with index j (some normalize only at 8, some at no
    rung), and no prime is read twice at one rung."""
    config = _config(["mu-min", "--level", "11", "--weight", "22", "--p",
                      "3", "--precision", "2", "--sign", "1"])
    seen, normalize = [], modsym.normalize

    def read(cls, emb):
        seen.append(emb)
        return normalize(cls, emb)

    def work(norm):
        return norm.embedding, norm.embedding.M > config.M

    monkeypatch.setattr(modsym, "normalize", read)

    records = [(j, emb) for _, cid, j, emb in cli._records(
        config, config.space(), work) if cid == "N11k22c2" and emb]
    field = records[0][1].field
    top = config.primes_above(field, 8)
    assert len(top) == 7 and len(records) == 5
    assert len({id(emb) for _, emb in records}) == 5
    for j, emb in records:
        assert emb.M > 2 and emb.index == j
    read = [emb for emb in seen if emb.field is field]
    assert {emb.M for emb in read} == {2, 4, 8}
    assert len({(emb.index, emb.M) for emb in read}) == len(read)
    for emb in read:
        assert emb.local_factor == tuple(
            c % emb.pM for c in top[emb.index].local_factor)


def test_mu_min_climbs_the_ladder_on_out_of_budget(tmp_path, monkeypatch):
    mu_min = analysis.mu_min

    def uncertified(norm):
        return None if norm.embedding.M < 16 else mu_min(norm)

    # 16 is the second rung of the ladder from the default precision 8
    monkeypatch.setattr(analysis, "mu_min", uncertified)
    out = tmp_path / "report.json"
    code = cli.main(["mu-min"] + SMALL + ["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert code == cli.EXIT_OK
    assert [(r["certified"], r["precision_used"]) for r in rows] == \
        [(True, 16)] * 2


def test_verify_climbs_the_ladder_when_mu_min_is_not_certified(tmp_path,
                                                               monkeypatch):
    """A mu_min uncertified below 16 sends verify to the next rung, where
    the checks are those of the golden report."""
    mu_min = analysis.mu_min

    def uncertified(norm):
        return None if norm.embedding.M < 16 else mu_min(norm)

    monkeypatch.setattr(analysis, "mu_min", uncertified)
    name = "verify-congruence-23-6-3"
    code, files = run_case(name, tmp_path)
    assert code == CASES[name][1]
    checks = json.loads(files[name + ".json"])["checks"]
    golden = json.loads(golden_files(name)[name + ".json"])["checks"]
    assert checks == golden


def test_mu_min_sets_up_each_field_and_witness_once(tmp_path, monkeypatch):
    """Both signs of 23/6/3 split into the same two Hecke fields, and their
    ten primes pick six distinct normalization witnesses."""
    calls = {"primes_above": 0, "inverse": 0}
    primes_above, inverse = padic.primes_above, padic.NumberField.inverse_matrix

    def counted_primes_above(*args):
        calls["primes_above"] += 1
        return primes_above(*args)

    def counted_inverse(*args):
        calls["inverse"] += 1
        return inverse(*args)

    monkeypatch.setattr(padic, "primes_above", counted_primes_above)
    monkeypatch.setattr(padic.NumberField, "inverse_matrix", counted_inverse)
    argv, code = CASES["mu-min-23-6-3"]
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == code
    assert calls == {"primes_above": 2, "inverse": 6}


# (N, k) -> {old class: the prime q it is certified q-old at}
AL_OLD = {(22, 4): {"N22k4c3": 2}, (33, 2): {"N33k2c1": 3}, (11, 4): {},
          (37, 2): {}, (23, 6): {}}


@pytest.mark.parametrize("N,k", sorted(AL_OLD))
def test_atkin_lehner_is_not_applicable_exactly_on_old_classes(N, k,
                                                               tmp_path):
    out = tmp_path / "r.json"
    argv = ["verify", "--mode", "atkin-lehner", "--level", str(N),
            "--weight", str(k), "--p", "5", "--sign", "both",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) > 2 * len(AL_OLD[N, k])
    for c in checks:
        q = AL_OLD[N, k].get(c["class"])
        if q is None:
            assert c["ok"] is True and c["eigen"] is True
        else:
            assert c["ok"] is None and c["eigen"] is False
            assert c["status"] == "not-applicable"
            assert c["reason"].startswith("old at q = %d:" % q)


def test_oldspace_builds_each_partner_image_once(tmp_path, monkeypatch):
    """Both signs of 11/4/3 match the one weight-2 class of level 11; its
    degeneracy images at 3 and 9 are built once each, not once per
    source class."""
    calls = []
    images = verify._degeneracy_images

    def counted(cls, target, r):
        calls.append((cls, r))
        return images(cls, target, r)

    monkeypatch.setattr(verify, "_degeneracy_images", counted)
    argv = ["verify", "--mode", "oldspace", "--r", "2"] + SMALL
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_IDENTITY
    assert len(json.loads(out.read_text())["checks"]) == 2
    assert len(calls) == len(set(calls)) == 2
    assert sorted(r for _, r in calls) == [3, 9]


def test_mu_min_embeds_few_values(tmp_path, monkeypatch):
    """The ten mu_min searches of 23/6/3 embed at most 240 values (the
    full scan embedded 960), the same number on every run."""
    inside, calls = [], []
    mu_min, local_ints = analysis.mu_min, padic.PAdicEmbedding.local_ints

    def counted_mu_min(norm):
        inside.append(True)
        try:
            return mu_min(norm)
        finally:
            inside.pop()

    def counted_local_ints(self, nums, den):
        if inside:
            calls[-1] += 1
        return local_ints(self, nums, den)

    monkeypatch.setattr(analysis, "mu_min", counted_mu_min)
    monkeypatch.setattr(padic.PAdicEmbedding, "local_ints", counted_local_ints)
    argv, code = CASES["mu-min-23-6-3"]
    for run in range(2):
        calls.append(0)
        out = tmp_path / ("r%d.json" % run)
        assert cli.main(argv + ["--out", str(out)]) == code
    assert calls[0] == calls[1] <= 240


def test_only_the_splitting_candidates_take_a_charpoly(tmp_path,
                                                       monkeypatch):
    """eigenforms 23/6, both signs: one characteristic polynomial per
    splitting candidate tried, and none for the cuspidal cut."""
    calls = {"candidates": 0, "charpoly": 0}
    candidates = modsym._splitting_candidates
    charpoly = linalg.charpoly_rational

    def counted_candidates(space):
        for combo in candidates(space):
            calls["candidates"] += 1
            yield combo

    def counted_charpoly(rows):
        calls["charpoly"] += 1
        return charpoly(rows)

    monkeypatch.setattr(modsym, "_splitting_candidates", counted_candidates)
    monkeypatch.setattr(linalg, "charpoly_rational", counted_charpoly)
    argv, code = CASES["eigenforms-23-6-3"]
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == code
    assert calls["charpoly"] == calls["candidates"] > 0


def _count_calls(monkeypatch, owner, names):
    """{name: number of calls} of the functions owner.name from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _func=getattr(owner, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_mu_min_jobs_build_no_witness(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, analysis, ["mu_min", "mu_min_witness"])
    for name in ("mu-min", "mu-min-23-6-3"):
        code, _ = run_case(name, tmp_path / name)
        assert code == CASES[name][1]
    assert calls["mu_min"] > 0
    assert calls["mu_min_witness"] == 0


def test_verify_computes_mu_min_once_per_witness(tmp_path, monkeypatch):
    """verify congruence 23/6/3 scales by the witness of mu_min_witness,
    which asks mu_min once."""
    calls = _count_calls(monkeypatch, analysis, ["mu_min", "mu_min_witness"])
    argv, code = CASES["verify-congruence-23-6-3"]
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == code
    assert calls["mu_min"] == calls["mu_min_witness"] > 0


def test_mu_min_splits_and_normalizes_at_the_cost_of_the_data(tmp_path,
                                                             monkeypatch):
    """Per run of mu-min 23/6/3, both signs: the ten normalizations embed
    at most 300 values (the full witness scan embedded 1,200), the same
    number on every run; the two signs' equal charpolys are factored once;
    and at most 12 eliminations run (19 when each restriction was one)."""
    inside, calls = [], []
    normalize, local_ints = modsym.normalize, padic.PAdicEmbedding.local_ints
    factor, rref = padic.factor_monic_int, linalg.rref

    def counted_normalize(*args):
        inside.append(True)
        try:
            return normalize(*args)
        finally:
            inside.pop()

    def counted(key, func):
        def wrapper(*args):
            calls[-1][key] += 1
            return func(*args)
        return wrapper

    def counted_local_ints(self, nums, den):
        if inside:
            calls[-1]["local_ints"] += 1
        return local_ints(self, nums, den)

    monkeypatch.setattr(modsym, "normalize", counted_normalize)
    monkeypatch.setattr(padic.PAdicEmbedding, "local_ints", counted_local_ints)
    monkeypatch.setattr(padic, "factor_monic_int", counted("factor", factor))
    monkeypatch.setattr(linalg, "rref", counted("rref", rref))
    argv, code = CASES["mu-min-23-6-3"]
    for run in range(2):
        calls.append({"local_ints": 0, "factor": 0, "rref": 0})
        out = tmp_path / ("r%d.json" % run)
        assert cli.main(argv + ["--out", str(out)]) == code
    assert calls[0] == calls[1]
    assert calls[0]["local_ints"] <= 300
    assert calls[0]["factor"] == 1
    assert calls[0]["rref"] <= 12


def test_repeated_block_is_split_at_order_one_without_tame(tmp_path,
                                                           monkeypatch):
    """Per run of mu-min 23/6/3, both signs: the sextic's block
    (x^2 + 2x + 2)^2 mod 3 is factored once, at order 1 of Montes'
    algorithm, into its two unramified primes, with at most 10 divisions
    of H by a factor's approximation (at most 5 Newton steps per factor at
    the ladder's top precision M = 32), the same numbers on every run."""
    calls = []

    def counted(key, func):
        def wrapper(*args):
            calls[-1][key] += 1
            return func(*args)
        return wrapper

    for key, name in (("split", "factor_block"), ("eval", "_evaluate")):
        monkeypatch.setattr(montes, name, counted(key, getattr(montes, name)))
    argv, code = CASES["mu-min-23-6-3"]
    for run in range(2):
        calls.append({"split": 0, "eval": 0})
        out = tmp_path / ("r%d.json" % run)
        assert cli.main(argv + ["--out", str(out)]) == code
    assert calls[0] == calls[1]
    assert calls[0]["split"] == 1
    assert calls[0]["eval"] <= 10


def test_each_local_element_finds_its_valuation_once(tmp_path, monkeypatch):
    """mu and then lambda read the valuation of every coefficient of the
    11/2/5 thetas, and products read those of their factors: the
    numerator's valuation is found once per element."""
    seen = []
    valuation = padic.LocalElement._numerator_valuation

    def counted(x):
        seen.append(x)      # keeps x alive, so that no id is reused
        return valuation(x)

    monkeypatch.setattr(padic.LocalElement, "_numerator_valuation", counted)
    argv = ["invariants", "--level", "11", "--weight", "2", "--p", "5",
            "--nmax", "4", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert seen and len({id(x) for x in seen}) == len(seen)


def test_congruence_finds_the_primes_of_each_field_once(tmp_path,
                                                        monkeypatch):
    """Both signs of 23/6/3 split into two Hecke fields, and every
    weight-2 partner at level 23 lies in a third: one factorization each."""
    calls = []
    primes_above = padic.primes_above

    def counted(field, p, M):
        calls.append((field.minpoly, M))
        return primes_above(field, p, M)

    monkeypatch.setattr(padic, "primes_above", counted)
    argv = ["verify", "--mode", "congruence", "--level", "23", "--weight",
            "6", "--p", "3", "--nmax", "1", "--sign", "both"]
    out = ["--out", str(tmp_path / "r.json")]
    assert cli.main(argv + out) == cli.EXIT_IDENTITY
    assert len(calls) == len(set(calls)) == 3


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
