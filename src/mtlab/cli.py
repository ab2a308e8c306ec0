"""Batch command line front end.

Commands: invariants, verify, mu-min, eigenforms, stabilize. Reports are
JSON (with a schema_version field) plus a CSV mirror for tabular data,
written next to the JSON file. Reports contain no timestamps, so the same
job configuration always produces byte-identical files.

Every per-prime command runs through one record generator, ``_records``:
sign -> eigenclass -> prime above p -> precision ladder -> the command's
own step on the normalized symbol.  A job compiles only what it runs:
`mazurtate` with invariants, stabilize and verify (not mu-min or
eigenforms), the identity checks of `verify` with verify, `montes` with a
Hecke-field block that its Newton polygon does not resolve, `tame` with
one that the order-1 split of `montes` does not resolve either,
`fractions` with a non-monogenic prime.

Exit codes: 0 success, 1 construction or configuration failure (a
malformed command line included), 2 some row could not be certified at the
working precision, 3 a verified identity failed.
"""

import argparse
import json
import os
import sys
from math import gcd

from . import analysis, modsym, padic
from .errors import (
    MTLabError,
    NotOrdinary,
    PrecisionExhausted,
    PrecisionTooLow,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONSTRUCTION = 1
EXIT_UNCERTIFIED = 2
EXIT_IDENTITY = 3


class ConfigError(MTLabError):
    """The job configuration violates a documented invariant."""


class JobConfig:
    """Validated job parameters shared by every command."""

    def __init__(self, args):
        self.N = args.level
        self.k = args.weight
        self.p = args.p
        if args.sign == "both":
            self.signs = (1, -1)
        else:
            self.signs = (int(args.sign),)
        self.M = args.precision
        self.n_max = args.nmax
        self.ell_max = args.ellmax
        self.output = args.out
        self.mode = args.mode
        self.r = args.r
        self._validate()
        if args.command == "verify":
            self._parse_mode()
        self._spaces = {}
        self._primes = {}

    def _validate(self):
        if self.N < 1:
            raise ConfigError("level must be positive")
        if self.k < 2 or self.k % 2:
            raise ConfigError("weight must be an even integer >= 2")
        if self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        if self.M < 2:
            raise ConfigError("precision must be at least 2")
        if self.r < 1:
            raise ConfigError("r must be at least 1")
        if self.p is not None:
            if self.p == 2 or padic.prime_divisors(self.p) != [self.p]:
                raise ConfigError("p must be an odd prime")
            if self.N % self.p == 0:
                raise ConfigError("p must not divide the level")

    def _parse_mode(self):
        """Split --mode into the verify mode and its option: only
        congruence takes one, medweight or lowslope (the default)."""
        from . import verify
        name, colon, option = (self.mode or "").partition(":")
        if name not in verify._VERIFY_MODES:
            raise ConfigError("verify needs --mode, one of: %s"
                              % ", ".join(sorted(verify._VERIFY_MODES)))
        options = ("medweight", "lowslope") if name == "congruence" else ()
        if colon and option not in options:
            raise ConfigError("--mode %s does not take the option %r"
                              % (name, option))
        self.verify_mode = name
        self.congruence_mode = option or "lowslope"

    def as_dict(self):
        return {
            "level": self.N,
            "weight": self.k,
            "p": self.p,
            "signs": list(self.signs),
            "precision": self.M,
            "n_max": self.n_max,
            "ell_max": self.ell_max,
            "mode": self.mode,
            "r": self.r,
        }

    def space(self, level=None, weight=None):
        """The symbol space at (level, weight), built once per job."""
        key = (self.N if level is None else level,
               self.k if weight is None else weight)
        if key not in self._spaces:
            self._spaces[key] = modsym.ManinSymbolSpace(*key)
        return self._spaces[key]

    def primes_above(self, field, M):
        """The primes above p of the field at precision M, found once per
        job for each (minimal polynomial, M): eigenclasses of both signs
        that share a Hecke field share its primes."""
        key = (field.minpoly, M)
        if key not in self._primes:
            self._primes[key] = padic.primes_above(field, self.p, M)
        return self._primes[key]

    def precision_ladder(self):
        """Deterministic working precisions tried when digits run out."""
        return (self.M, 2 * self.M, 4 * self.M)


def _fmt(x):
    """Deterministic string form of a report scalar."""
    if x is None:
        return ""
    if isinstance(x, padic.FFElement):
        return "+".join("%d*t^%d" % (c, j)
                        for j, c in enumerate(x.coeffs)) or "0"
    return str(x)


def _emit(config, command, body, csv_header=None, csv_rows=None):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config.as_dict(),
        "cache_keys": [],
    }
    report.update(body)
    text = json.dumps(report, sort_keys=True, indent=2, default=_fmt) + "\n"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
        if csv_rows is not None:
            base, _ = os.path.splitext(config.output)
            with open(base + ".csv", "w") as fh:
                fh.write(",".join(csv_header) + "\n")
                for row in csv_rows:
                    fh.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the job driver


def _class_records(config, space):
    """(sign, class id, eigensymbol) per sign of the job, in report order."""
    for sign in config.signs:
        for idx, cls in enumerate(modsym.cuspidal_eigensymbols(space, sign)):
            yield sign, analysis.form_id(space, idx), cls


def _records(config, space, work):
    """(sign, class id, embedding index, result) per prime above p.

    Primes above p are found once per job for each Hecke field and ladder
    rung, at that rung's precision (`JobConfig.primes_above`), so classes
    of both signs with the same field share them. Their number is read at
    the first rung where they can be found; when no rung factors, the last
    rung's error ends the job. Each prime climbs the precision ladder from
    that rung until ``work(normalized) -> (result, certified)`` reports
    certified, and keeps the last result it got otherwise; exact symbols
    re-embed losslessly, so a higher rung describes the same object. A
    rung where the primes cannot be found, the symbol cannot be
    normalized, or the work runs out of precision, is skipped. result is
    None when no rung gave one.
    """
    ladder = config.precision_ladder()
    for sign, cid, cls in _class_records(config, space):
        for first, M in enumerate(ladder):
            try:
                count = len(config.primes_above(cls.field, M))
                break
            except (PrecisionExhausted, PrecisionTooLow):
                if M == ladder[-1]:
                    raise
        for j in range(count):
            result = None
            for M in ladder[first:]:
                try:
                    result, certified = work(modsym.normalize(
                        cls, config.primes_above(cls.field, M)[j]))
                except (PrecisionExhausted, PrecisionTooLow):
                    continue
                if certified:
                    break
            yield sign, cid, j, result


def _each(step):
    """A work step that is certified as soon as the symbol normalizes."""
    return lambda norm: (step(norm), True)


def _field_strings(nums, den):
    """The power-basis coefficients of nums / den, den > 0, as reduced
    fractions written as `fractions.Fraction` writes them."""
    return ["%d/%d" % (c // g, den // g) if (g := gcd(c, den)) < den
            else str(c // g) for c in nums]


def cmd_eigenforms(config):
    ells = padic.primes_up_to(config.ell_max)
    out = []
    for sign, cid, cls in _class_records(config, config.space()):
        out.append({
            "id": cid,
            "sign": sign,
            "degree": cls.field.degree,
            "minpoly": [str(c) for c in cls.field.minpoly],
            "eigenvalues": {
                str(ell): _field_strings(*cls.a(ell)) for ell in ells},
        })
    rows = [(e["id"], e["sign"], e["degree"], ";".join(e["minpoly"]))
            for e in out]
    _emit(config, "eigenforms", {"classes": out},
          ("class", "sign", "degree", "minpoly"), rows)
    return EXIT_OK


def cmd_mu_min(config):
    def work(norm):
        mu = analysis.mu_min(norm)
        return (mu, mu is not None, norm.embedding.M), mu is not None

    rows = [(cid, sign, j) + (res or (None, False, None))
            for sign, cid, j, res in _records(config, config.space(), work)]
    body = {"rows": [
        {"class": cid, "sign": s, "embedding": j,
         "mu_min": _fmt(mu), "certified": cert, "precision_used": used}
        for cid, s, j, mu, cert, used in rows]}
    _emit(config, "mu-min", body,
          ("class", "sign", "embedding", "mu_min", "certified"),
          [r[:5] for r in rows])
    return EXIT_OK if all(r[4] for r in rows) else EXIT_UNCERTIFIED


def cmd_invariants(config):
    from . import mazurtate
    mazurtate.check_budget(config.p, config.n_max + 1)

    def work(norm):
        rep = analysis.invariant_table(norm, config.n_max)
        table = {
            "precision_used": norm.embedding.M,
            "pattern": rep.pattern,
            "constants": {str(i): {str(k): v for k, v in c.items()}
                          for i, c in rep.constants.items()},
            "rows": [{"n": n, "i": i, "mu": _fmt(mu),
                      "lambda": _fmt(lam), "certified": cert}
                     for n, i, mu, lam, cert in rep.rows],
        }
        return table, all(cert for *_, cert in rep.rows)

    tables = [{"class": cid, "sign": sign, "embedding": j,
               **(table or {"certified": False})}
              for sign, cid, j, table in _records(config, config.space(),
                                                  work)]
    rows = [(t["class"], t["sign"], t["embedding"], r["n"], r["i"], r["mu"],
             r["lambda"], r["certified"])
            for t in tables for r in t.get("rows", [])]
    _emit(config, "invariants", {"tables": tables},
          ("class", "sign", "embedding", "n", "i", "mu", "lambda",
           "certified"), rows)
    certified = all(t.get("certified", True) for t in tables) and \
        all(r[7] for r in rows)
    return EXIT_OK if certified else EXIT_UNCERTIFIED


def cmd_stabilize(config):
    from . import mazurtate
    mazurtate.check_budget(config.p, config.n_max + 1)

    def step(norm):
        try:
            alpha = mazurtate.p_stabilize(norm)
        except NotOrdinary as exc:
            return {"ordinary": False, "reason": str(exc)}
        psi_rows = []
        for n in range(config.n_max + 1):
            for i in mazurtate.twists(config.p, norm.sign):
                try:
                    inv = mazurtate.invariants(
                        mazurtate.stabilized_theta(norm, alpha, n, i))
                    psi_rows.append({"n": n, "i": i, "mu": _fmt(inv.mu),
                                     "lambda": _fmt(inv.lam),
                                     "certified": inv.certified})
                except PrecisionExhausted:
                    psi_rows.append({"n": n, "i": i, "mu": "",
                                     "lambda": "", "certified": False})
        return {
            "ordinary": True,
            "alpha_valuation": _fmt(alpha.valuation()),
            "alpha_residue": _fmt(alpha.reduce()),
            "precision_used": norm.embedding.M,
            "psi_rows": psi_rows,
        }

    entries = [{"class": cid, "sign": sign, "embedding": j,
                **(entry or {"certified": False})}
               for sign, cid, j, entry in _records(config, config.space(),
                                                   _each(step))]
    rows = [(e["class"], e["sign"], e["embedding"], r["n"], r["i"],
             r["mu"], r["lambda"], r["certified"])
            for e in entries for r in e.get("psi_rows", [])]
    _emit(config, "stabilize", {"stabilizations": entries},
          ("class", "sign", "embedding", "n", "i", "mu", "lambda",
           "certified"), rows)
    # only primes that never normalize and stabilized thetas that vanish to
    # the working precision (mu "") make the job uncertified
    exhausted = any(e.get("certified") is False for e in entries) or \
        any(r[5] == "" for r in rows)
    return EXIT_UNCERTIFIED if exhausted else EXIT_OK


def cmd_verify(config):
    from . import verify
    return verify.cmd_verify(config)


# ---------------------------------------------------------------------------


_COMMANDS = {
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "mu-min": cmd_mu_min,
    "eigenforms": cmd_eigenforms,
    "stabilize": cmd_stabilize,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, not argparse's 2 (an uncertified row)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONSTRUCTION, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="mtlab",
        description="Mazur-Tate elements and finite-level Iwasawa "
                    "invariants of modular eigensymbols")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--weight", type=int, required=True)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--sign", choices=("1", "-1", "both"), default="1")
    parser.add_argument("--precision", type=int, default=8)
    parser.add_argument("--nmax", type=int, default=3)
    parser.add_argument("--ellmax", type=int, default=20)
    parser.add_argument("--out", default=None)
    parser.add_argument("--mode", default=None)
    parser.add_argument("--r", type=int, default=1)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command != "eigenforms" and args.p is None:
        sys.stderr.write("error: --p is required for this command\n")
        return EXIT_CONSTRUCTION
    try:
        config = JobConfig(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CONSTRUCTION
    except MTLabError as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    # verify imports mtlab.cli: it must find this module, not run it again
    sys.modules.setdefault("mtlab.cli", sys.modules[__name__])
    sys.exit(main())
