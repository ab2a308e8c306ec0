"""Run one mtlab CLI job with its layers wrapped from outside.

Usage: python3 bench/traced.py TRACE_JSON mtlab-argv...

The wrappers replace module and class attributes of the installed mtlab
package, then call ``mtlab.cli.main(argv)``; nothing inside mtlab changes.
A module-level function is replaced in every mtlab module that holds it, so
a name bound with ``from .mazurtate import theta_element`` is traced too.
After the job, TRACE_JSON receives every metric named in ``SPECS`` plus the
metrics that could not be measured, with the reason: ``missing`` when the
wrapped function does not exist in this version of mtlab, ``changed`` when
its arguments or result no longer have the shape an extra statistic reads.
The process exits with the job's exit code.

Timed wrappers record ``calls`` and ``self_s``, the time inside the call
minus the time inside wrapped calls it makes. Counted wrappers record only
``calls``: they run hundreds of thousands of times per job, and timing them
would distort the parent's numbers.
"""

import importlib
import json
import os
import sys
import time

# (metric prefix, module, attribute path, timed, extra statistic)
SPECS = (
    ("modsym.space", "mtlab.modsym", "ManinSymbolSpace.__init__", True, None),
    ("modsym.eigensymbols", "mtlab.modsym", "cuspidal_eigensymbols", True,
     "classes"),
    ("linalg.charpoly", "mtlab.linalg", "charpoly_rational", True, None),
    ("linalg.rref", "mtlab.linalg", "rref", True, None),
    ("padic.primes_above", "mtlab.padic", "primes_above", True, "errors"),
    ("modsym.normalize", "mtlab.modsym", "normalize", True, "errors"),
    ("analysis.mu_min", "mtlab.analysis", "mu_min", True, "errors"),
    ("mazurtate.element", "mtlab.mazurtate", "mazur_tate_values", True,
     "coeffs"),
    ("modsym.evaluate_divisor", "mtlab.modsym",
     "ManinSymbolSpace.evaluate_divisor", True, None),
    ("polyact.act", "mtlab.polyact", "act", False, None),
    ("padic.local", "mtlab.padic", "PAdicEmbedding.local", False, None),
    ("padic.local_mul", "mtlab.padic", "LocalElement.__mul__", False, None),
    ("mazurtate.omega", "mtlab.mazurtate", "omega_decompose", True, None),
    ("mazurtate.mu", "mtlab.mazurtate", "mu_invariant", True, None),
    ("mazurtate.lambda", "mtlab.mazurtate", "lambda_invariant", True,
     "lambda_sum"),
    ("analysis.invariant_table", "mtlab.analysis", "invariant_table", True,
     "uncertified_rows"),
    ("cli.report", "mtlab.cli", "_emit", True, "bytes"),
)

# Exceptions counted as ``.errors``: the precision ladder's retry signal for
# normalize, the scan budget for mu_min, any mtlab error for primes_above.
_ERRORS = {
    "padic.primes_above": "MTLabError",
    "modsym.normalize": "PrecisionExhausted",
    "analysis.mu_min": "OutOfBudget",
}


class Tracer:
    """Per-process counters and the stack used to compute self time."""

    def __init__(self):
        self.stats = {}
        self.absent = {}
        self.stack = []
        self.seen_elements = set()
        self.pinned = []

    def stat(self, prefix):
        return self.stats.setdefault(prefix, {"calls": 0, "self_s": 0.0})

    def counted(self, prefix, func):
        st = self.stat(prefix)

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return func(*args, **kwargs)
        return wrapper

    def timed(self, prefix, func, error_type, on_result):
        st = self.stat(prefix)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if error_type is not None and isinstance(exc, error_type):
                    st["errors"] = st.get("errors", 0) + 1
                raise
            finally:
                elapsed = clock() - start
                st["self_s"] += elapsed - stack.pop()
                st["calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                try:
                    on_result(st, args, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    self.absent["%s.%s" % (prefix, on_result.__name__[1:])] \
                        = "changed"
            return result
        return wrapper

    # -- extra statistics, keyed by the last field of the metric name -----

    def _classes(self, st, args, result):
        st["classes"] = st.get("classes", 0) + len(result)

    def _coeffs(self, st, args, result):
        space, get_value, p, n = args[:4]
        source = getattr(get_value, "__self__", get_value)
        # keep the objects alive so that their ids are never reused
        self.pinned.append((space, source))
        self.seen_elements.add((id(space), id(source), p, n))
        st["coeffs"] = st.get("coeffs", 0) + len(result.coeffs)
        st["distinct_ratio"] = len(self.seen_elements) / st["calls"]

    def _lambda_sum(self, st, args, result):
        st["lambda_sum"] = st.get("lambda_sum", 0) + result

    def _uncertified_rows(self, st, args, result):
        st["uncertified_rows"] = st.get("uncertified_rows", 0) + sum(
            1 for row in result.rows if not row[-1])

    def _bytes(self, st, args, result):
        path = args[0].output
        size = 0
        if path:
            size = os.path.getsize(path)
            csv_path = os.path.splitext(path)[0] + ".csv"
            if os.path.exists(csv_path):
                size += os.path.getsize(csv_path)
        st["bytes"] = st.get("bytes", 0) + size

    def install(self):
        loaded = {}
        for modname in sorted({spec[1] for spec in SPECS}):
            try:
                loaded[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mtlab" or name.startswith("mtlab.")]
        errors = sys.modules.get("mtlab.errors")
        for prefix, modname, attr, timed, extra in SPECS:
            self.stat(prefix)
            owner = loaded.get(modname)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            func = getattr(owner, name, None)
            if func is None:
                self.absent[prefix] = "missing"
                continue
            if timed:
                error_type = getattr(errors, _ERRORS[prefix], None) \
                    if extra == "errors" else None
                on_result = None if extra in (None, "errors") else \
                    getattr(self, "_" + extra)
                wrapper = self.timed(prefix, func, error_type, on_result)
            else:
                wrapper = self.counted(prefix, func)
            if path:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)

    def metrics(self):
        out = {}
        for name in metric_names():
            prefix, field = name.rsplit(".", 1)
            out[name] = self.stats[prefix].get(field, 0)
        return out


def metric_names():
    """Every metric a traced job reports, in ``SPECS`` order."""
    for prefix, _, _, timed, extra in SPECS:
        yield prefix + ".calls"
        if timed:
            yield prefix + ".self_s"
        if extra == "coeffs":
            yield prefix + ".distinct_ratio"
        if extra is not None:
            yield prefix + "." + extra


def main(argv):
    trace_path, job = argv[0], argv[1:]
    import mtlab.cli
    tracer = Tracer()
    tracer.install()
    code = mtlab.cli.main(job)
    with open(trace_path, "w") as fh:
        json.dump({"metrics": tracer.metrics(), "absent": tracer.absent},
                  fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
