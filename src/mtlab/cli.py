"""Batch command line front end.

Commands: invariants, verify, mu-min, eigenforms, stabilize. Reports are
JSON (with a schema_version field) plus a CSV mirror for tabular data,
written next to the JSON file. Reports contain no timestamps, so the same
job configuration always produces byte-identical files.

Every per-prime command runs through one record generator, ``_records``:
sign -> eigenclass -> prime above p -> precision ladder -> the command's
own step on the normalized symbol.

Exit codes: 0 success, 1 construction or configuration failure, 2 some
row could not be certified at the working precision, 3 a verified
identity failed.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, mazurtate, modsym, padic
from .errors import (
    MTLabError,
    NotOrdinary,
    OutOfBudget,
    PrecisionExhausted,
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
        self._spaces = {}

    def _validate(self):
        if self.N < 1:
            raise ConfigError("level must be positive")
        if self.k < 2 or self.k % 2:
            raise ConfigError("weight must be an even integer >= 2")
        if self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        if self.M < 2:
            raise ConfigError("precision must be at least 2")
        if self.p is not None:
            if self.p == 2 or padic.prime_divisors(self.p) != [self.p]:
                raise ConfigError("p must be an odd prime")
            if self.N % self.p == 0:
                raise ConfigError("p must not divide the level")

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

    def precision_ladder(self):
        """Deterministic working precisions tried when digits run out."""
        return (self.M, 2 * self.M, 4 * self.M)


def _fmt(x):
    """Deterministic string form of a report scalar."""
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return str(x)
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

    Primes above p are found once per class and ladder rung, at that rung's
    precision. Each prime climbs the precision ladder until
    ``work(normalized) -> (result, certified)`` reports certified, and keeps
    the last rung's result otherwise; exact symbols re-embed losslessly, so
    a higher rung describes the same object. result is None when the symbol
    cannot be normalized at any rung.
    """
    ladder = config.precision_ladder()
    for sign, cid, cls in _class_records(config, space):
        rungs = {ladder[0]: padic.primes_above(cls.field, config.p, ladder[0])}
        for j in range(len(rungs[ladder[0]])):
            result = None
            for M in ladder:
                if M not in rungs:
                    rungs[M] = padic.primes_above(cls.field, config.p, M)
                try:
                    norm = modsym.normalize(cls, rungs[M][j])
                except PrecisionExhausted:
                    continue
                result, certified = work(norm)
                if certified:
                    break
            yield sign, cid, j, result


def _each(step):
    """A work step that is certified as soon as the symbol normalizes."""
    return lambda norm: (step(norm), True)


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
                str(ell): [str(c) for c in cls.a(ell).coeffs]
                for ell in ells},
        })
    rows = [(e["id"], e["sign"], e["degree"], ";".join(e["minpoly"]))
            for e in out]
    _emit(config, "eigenforms", {"classes": out},
          ("class", "sign", "degree", "minpoly"), rows)
    return EXIT_OK


def cmd_mu_min(config):
    def work(norm):
        try:
            mu = analysis.mu_min(norm)
        except OutOfBudget:
            mu = None
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
    def step(norm):
        try:
            stab = mazurtate.p_stabilize(norm)
        except NotOrdinary as exc:
            return {"ordinary": False, "reason": str(exc)}
        psi_rows = []
        for n in range(config.n_max + 1):
            for i in mazurtate.twists(config.p, norm.sign):
                try:
                    _, inv = mazurtate.lp_approx(stab, i, n)
                    psi_rows.append({"n": n, "i": i, "mu": _fmt(inv.mu),
                                     "lambda": _fmt(inv.lam),
                                     "certified": inv.certified})
                except PrecisionExhausted:
                    psi_rows.append({"n": n, "i": i, "mu": "",
                                     "lambda": "", "certified": False})
        return {
            "ordinary": True,
            "alpha_valuation": _fmt(stab.alpha.valuation()),
            "alpha_residue": _fmt(stab.alpha.reduce()),
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
    # only primes that never normalize and psi elements that vanish to the
    # working precision (mu "") make the job uncertified
    exhausted = any(e.get("certified") is False for e in entries) or \
        any(r[5] == "" for r in rows)
    return EXIT_UNCERTIFIED if exhausted else EXIT_OK


# -- verify sub-modes --------------------------------------------------------


def _prime_checks(config, space, step):
    """The check rows of step(normalized) for every prime above p.

    A prime whose symbol cannot be normalized at any rung of the ladder
    gets one failed row noting that precision ran out.
    """
    checks = []
    for _, cid, j, rows in _records(config, space, _each(step)):
        if rows is None:
            rows = [{"n": None, "i": None, "ok": False,
                     "note": "precision exhausted"}]
        checks.extend({"class": cid, "embedding": j, **row} for row in rows)
    return checks


def _verify_three_term(config):
    p = config.p

    def step(norm):
        emb = norm.embedding
        ap = emb.local(norm.eigensymbol.a(p))
        pk = emb.local(p ** (config.k - 2))
        rows = []
        for i in mazurtate.twists(p, norm.sign):
            thetas = [mazurtate.theta_element(norm, n, i)
                      for n in range(config.n_max + 1)]
            for n in range(1, config.n_max):
                lhs = mazurtate.pi_project(thetas[n + 1])
                rhs = thetas[n].scale(ap) \
                    - mazurtate.nu_corestrict(thetas[n - 1]).scale(pk)
                ok = (lhs - rhs).is_zero_to_precision(1)
                rows.append({"n": n, "i": i, "ok": bool(ok)})
        return rows

    return _prime_checks(config, config.space(), step)


def _verify_degen(config):
    p = config.p
    space = config.space()
    target = config.space(level=config.N * p)

    def step(norm):
        pg = norm.embedding.local(p ** space.g)
        vp = modsym.degeneracy_values(space, target, p, norm.all_values())
        fulls = [mazurtate.mazur_tate_values(target, lambda A: vp[A], p, n + 2)
                 for n in range(config.n_max)]
        rows = []
        for i in mazurtate.twists(p, norm.sign):
            for n in range(config.n_max):
                lhs = mazurtate.omega_decompose(fulls[n], i)
                rhs = mazurtate.nu_corestrict(
                    mazurtate.theta_element(norm, n, i)).scale(pg)
                ok = (lhs - rhs).is_zero_to_precision(1)
                rows.append({"n": n, "i": i, "ok": bool(ok)})
        return rows

    return _prime_checks(config, space, step)


def _verify_atkin_lehner(config):
    checks = []
    half = config.k // 2 - 1
    space = config.space()
    for sign, cid, cls in _class_records(config, space):
        out = space.apply_operator_to_coords("wN", cls.coords)
        ratio = None
        for got, want in zip(out, cls.coords):
            if not want.is_zero():
                ratio = got / want
                break
        eigen = ratio is not None and \
            all(got == ratio * want for got, want in zip(out, cls.coords))
        is_new = eigen and (ratio * ratio ==
                            cls.field.from_rational(
                                Fraction(config.N) ** (2 * half)))
        entry = {"class": cid, "sign": sign, "eigen": bool(eigen)}
        if eigen and is_new:
            # ratio = +- N^(k/2-1) exactly for classes new at N
            plus = cls.field.from_rational(Fraction(config.N) ** half)
            if ratio == plus:
                entry["fe_sign"] = 1
            elif ratio == -plus:
                entry["fe_sign"] = -1
            else:
                entry["fe_sign"] = 0
            entry["ok"] = entry["fe_sign"] in (1, -1)
        else:
            entry["ok"] = bool(eigen)
            entry["note"] = "not new at this level" if eigen else \
                "not a wN eigenvector (old class)"
        checks.append(entry)
    return checks


def _verify_alphastick(config):
    p = config.p
    g = config.k - 2
    if g <= 0 or g % (p - 1):
        raise ConfigError(
            "the alpha map needs k > 2 with (p - 1) dividing k - 2")
    target = config.space(level=config.N * p, weight=2)

    def step(norm):
        avals = modsym.alpha_map(norm, target)
        rows = []
        for n in range(1, config.n_max + 1):
            lhs = mazurtate.mazur_tate_values(
                target, lambda A: avals[A], p, n)
            rhs = mazurtate.mazur_tate(norm, n)
            ok = all(c == rhs.coeffs[a].reduce()
                     for a, c in lhs.coeffs.items())
            rows.append({"n": n, "ok": bool(ok)})
        return rows

    return _prime_checks(config, config.space(), step)


def _weight2_matches(norm, w2_classes):
    """(match, normalized weight-2 partner) for each congruent class."""
    for m in analysis.find_congruent_weight2(
            norm.eigensymbol, norm.embedding, w2_classes):
        yield m, modsym.normalize(m.target_class, m.target_embedding)


def _verify_congruence(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)

    def step(norm):
        rows = []
        for m, gnorm in _weight2_matches(norm, w2_classes):
            res = analysis.verify_congruence(
                norm, gnorm, config.n_max,
                mode=config.mode_arg or "lowslope")
            rows.append({
                "target": m.target_id,
                "mode": res["mode"], "mu_min": _fmt(res["mu_min"]),
                "rows": [{"n": n, "i": i, "ok": ok}
                         for n, i, ok in res["rows"]],
                "ok": res["all_passed"],
            })
        return rows

    return _prime_checks(config, config.space(), step)


def _verify_wt2_patterns(config):
    def step(norm):
        rep = analysis.verify_weight2_patterns(norm, config.n_max)
        entry = {"branch": rep["branch"]}
        entry["rows"] = [
            {"n": n, "i": i, "mu": _fmt(mu), "lambda": _fmt(lam),
             "certified": cert} for n, i, mu, lam, cert in rep["rows"]]
        if rep["branch"] == "supersingular":
            entry["lambda_minus_qn"] = [
                {"n": n, "value": _fmt(v)}
                for n, v in rep["lambda_minus_qn"]]
            entry["constant"] = rep["constant"]
            entry["ok"] = rep["constant"]
        else:
            entry["pattern"] = rep["pattern"]
            if rep["pattern"] == "stable":
                entry["stabilized_at"] = rep["stabilized_at"]
                entry["mu_vanishes"] = rep["mu_vanishes"]
                entry["theta_matches_psi"] = [
                    {"n": n, "ok": ok}
                    for n, ok in rep["theta_matches_psi"]]
                entry["ok"] = rep["stabilized_at"] is not None
            else:
                entry["ok"] = True
        return [entry]

    return _prime_checks(config, config.space(weight=2), step)


def _verify_oldspace(config):
    w2_classes = modsym.cuspidal_eigensymbols(config.space(weight=2), 1)

    def step(norm):
        rows = []
        for m, gnorm in _weight2_matches(norm, w2_classes):
            dec = analysis.oldspace_decompose(norm, gnorm, config.r)
            rows.append({
                "target": m.target_id,
                "span_dimension": dec.span_dimension,
                "coefficients": [
                    {"t": t + 1, "value": _fmt(c),
                     "nonzero": not c.is_zero()}
                    for t, c in enumerate(dec)],
                "ok": True,
            })
        return rows

    return _prime_checks(config, config.space(), step)


_VERIFY_MODES = {
    "three-term": _verify_three_term,
    "degen": _verify_degen,
    "atkin-lehner": _verify_atkin_lehner,
    "alphastick": _verify_alphastick,
    "congruence": _verify_congruence,
    "wt2-patterns": _verify_wt2_patterns,
    "oldspace": _verify_oldspace,
}


def cmd_verify(config):
    mode = config.mode
    config.mode_arg = None
    if mode and ":" in mode:
        mode, config.mode_arg = mode.split(":", 1)
    if mode not in _VERIFY_MODES:
        raise ConfigError("verify needs --mode, one of: %s"
                          % ", ".join(sorted(_VERIFY_MODES)))
    checks = _VERIFY_MODES[mode](config)
    rows = [(c.get("class"), c.get("embedding"), c.get("n"),
             c.get("i"), c.get("ok")) for c in checks]
    _emit(config, "verify", {"mode": mode, "checks": checks},
          ("class", "embedding", "n", "i", "ok"), rows)
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_IDENTITY


# ---------------------------------------------------------------------------


_COMMANDS = {
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "mu-min": cmd_mu_min,
    "eigenforms": cmd_eigenforms,
    "stabilize": cmd_stabilize,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtlab",
        description="Mazur-Tate elements and finite-level Iwasawa "
                    "invariants of modular eigensymbols")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        sp = sub.add_parser(name)
        sp.add_argument("--level", type=int, required=True)
        sp.add_argument("--weight", type=int, required=True)
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--sign", choices=("1", "-1", "both"), default="1")
        sp.add_argument("--precision", type=int, default=8)
        sp.add_argument("--nmax", type=int, default=3)
        sp.add_argument("--ellmax", type=int, default=20)
        sp.add_argument("--out", default=None)
        sp.add_argument("--mode", default=None)
        sp.add_argument("--r", type=int, default=1)
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
    sys.exit(main())
