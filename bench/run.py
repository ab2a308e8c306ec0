"""Benchmark of the mtlab command line, run as its users run it.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one fresh interpreter running ``python3 -m mtlab.cli`` with
``PYTHONPATH`` set to this checkout's ``src``, one job at a time, no cache
(``MTLAB_CACHE`` is removed and no ``--cache`` is passed), with its report
written to a private directory under ``.bench_tmp/`` that is deleted at the
end. Jobs are repeated until ``--seconds`` is spent (at least
``MIN_ROUNDS`` rounds), and the timings are medians over the run.

``--trace 0`` measures what a user sees: job wall and CPU time, peak memory,
interpreter set-up time (separate probes that import ``mtlab.cli``), the
share of certified report rows, and the share of jobs that passed the output
check. Times are given at a reference machine speed: the runner and its jobs
share one vCPU, and a fixed kernel timed just before, during (with the job
stopped) and just after each job or probe measures how fast the host runs at
that moment; see ``CAL_REFERENCE_S``. ``--trace 1`` runs the same job under ``bench/traced.py``, which wraps
each layer from outside, and reports per-layer call counts and self times;
every count must repeat exactly across the traced jobs of a run.

The inputs are fixed parameter tuples. The seed only permutes the order of
the jobs and probes inside each round.

Every report is checked outside the timed interval: its mathematical payload
must equal ``bench/reference/<workload>.json``, the reports of one run must
be byte-identical, and ``mt-deep`` must satisfy the Eisenstein oracle
lambda(theta_{n,0}) = 5^n - 1, mu = 0 for n = 1..4.

The last line of standard output is the result JSON; the line before it
records the environment, the per-job samples and the layers that were absent.
"""

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata

import traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "mt-deep": ["invariants", "--level", "11", "--weight", "2", "--p", "5",
                "--nmax", "4"],
    "mt-field": ["invariants", "--level", "23", "--weight", "6", "--p", "3",
                 "--nmax", "3"],
    "split-mumin": ["mu-min", "--level", "23", "--weight", "6", "--p", "3",
                    "--sign", "both"],
}

# One round: a user job and two set-up probes (--trace 0), or two traced
# jobs and one plain job whose difference is the tracing overhead.
ROUNDS = {0: ("job", "setup", "setup"), 1: ("traced", "traced", "job")}
MIN_ROUNDS = {0: 3, 1: 1}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_share": "ratio",
    "success_rate": "ratio",
}

# The host's speed drifts by up to 1.5x in stretches of seconds, on each
# vCPU independently, and faster than a job lasts. The runner and its jobs
# therefore share one vCPU, and every CAL_INTERVAL_S while a job runs the
# runner stops it, times one run of a fixed pure-Python kernel, and lets it
# continue; it also times the kernel just before and just after each job and
# set-up probe. A timing is reported in seconds at the reference speed, at
# which one kernel run takes CAL_REFERENCE_S: the raw time times the mean of
# CAL_REFERENCE_S / kernel time over the samples taken around and during it.
# The paused intervals are not part of a job's wall time.
CAL_INTERVAL_S = 0.5
CAL_REFERENCE_S = 0.033

SETUP_PROBE = ("import time, mtlab.cli; mtlab.cli.build_parser(); "
               "print(repr(time.monotonic()))")


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last == "distinct_ratio":
        return "ratio"
    if last == "bytes":
        return "B"
    return "count"


def per_layer_names():
    return list(traced.metric_names()) + ["trace.overhead_s"]


# ---------------------------------------------------------------------------
# output check


def payload(report):
    """The mathematical content of a report, without fields that may change.

    ``pattern``, ``constants`` and ``precision_used`` are left out: they
    describe how a result was fitted or reached, not the result itself.
    """
    rows = []
    if report["command"] == "invariants":
        for t in report["tables"]:
            head = [t["class"], t["sign"], t["embedding"]]
            if "rows" not in t:
                rows.append(head + [None, None, None, None, t["certified"]])
            for r in t.get("rows", ()):
                rows.append(head + [r["n"], r["i"], r["mu"], r["lambda"],
                                    r["certified"]])
    else:
        for r in report["rows"]:
            rows.append([r["class"], r["sign"], r["embedding"], r["mu_min"],
                         r["certified"]])
    return rows


def eisenstein_oracle(rows):
    """11a at p = 5, twist 0: theta_{n,0} has mu = 0 and lambda = 5^n - 1."""
    got = {r[3]: (r[5], r[6]) for r in rows if r[4] == 0}
    return all(got.get(n) == ("0", str(5 ** n - 1)) for n in range(1, 5))


ORACLES = {"mt-deep": eisenstein_oracle}


def check_report(workload, path, reference):
    """(passed, rows, digest) of one job's report files."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
        with open(os.path.splitext(path)[0] + ".csv", "rb") as fh:
            csv = fh.read()
        rows = payload(json.loads(text))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write("report check failed: %r\n" % (exc,))
        return False, [], None
    passed = rows == reference
    if not passed:
        sys.stderr.write("%s: payload differs from the reference\n"
                         % workload)
    oracle = ORACLES.get(workload)
    if oracle is not None and not oracle(rows):
        sys.stderr.write("%s: oracle failed\n" % workload)
        passed = False
    return passed, rows, hashlib.sha256(text + b"\0" + csv).hexdigest()


# ---------------------------------------------------------------------------
# machine speed


def calibration_kernel():
    """A fixed pure-Python workload like mtlab's hot path: vectors of small
    integers mod p^M, a dict of residues and Fraction sums."""
    p_m = 5 ** 12
    h = (3, 7, 1, 4)
    v = [1, 2, 3, 4]
    seen = {}
    total = Fraction(0)
    for k in range(16000):
        v = [(a * b + k) % p_m for a, b in zip(v, h)]
        s = 0
        for c in v:
            s = (s * 31 + c) % p_m
        seen[s % 4099] = seen.get(s % 4099, 0) + 1
        if k % 16 == 0:
            total += Fraction(s % 1000 + 1, k + 1)
    return len(seen), total


def calibration_sample():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Run this process and every job it spawns on one vCPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MTLAB_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, workdir, env, err_path, calibrate):
    """Run argv to completion.

    Returns (exit code, wall s, cpu s, maxrss MB, kernel samples). With
    ``calibrate`` the job is stopped every CAL_INTERVAL_S for one kernel
    sample, and the stopped time is left out of the wall time.
    """
    samples = []
    paused = 0.0
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while calibrate and not poller.poll(CAL_INTERVAL_S * 1000):
                stopped = time.monotonic()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break       # exited before the stop took effect
                samples.append(calibration_sample())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.monotonic() - stopped
            else:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()         # also ends a stopped job
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.monotonic() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, samples


def speed_scale(samples):
    """Factor that turns a raw time into seconds at the reference speed."""
    return statistics.fmean(CAL_REFERENCE_S / k for k in samples)


def setup_probe(workdir, env):
    """Seconds from spawning an interpreter until mtlab.cli is ready."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=workdir,
                         env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    return float(out.stdout) - start


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload, workdir, calibrate):
        self.workload = workload
        self.workdir = workdir
        self.env = child_env()
        with open(os.path.join(BENCH, "reference", workload + ".json")) as fh:
            self.reference = json.load(fh)
        self.jobs = []       # dicts: kind, code, wall, cpu, rss, passed, ...
        self.setups = []
        self.digests = set()
        self.traces = []
        self.calibrate = calibrate

    def job(self, kind):
        n = len(self.jobs)
        out = os.path.join(self.workdir, "report-%d.json" % n)
        argv = WORKLOADS[self.workload] + ["--out", out]
        if kind == "traced":
            trace_path = os.path.join(self.workdir, "trace-%d.json" % n)
            argv = [sys.executable, os.path.join(BENCH, "traced.py"),
                    trace_path] + argv
        else:
            argv = [sys.executable, "-m", "mtlab.cli"] + argv
        err_path = os.path.join(self.workdir, "job-%d.err" % n)
        before = calibration_sample() if self.calibrate else None
        code, wall, cpu, rss, samples = spawn(argv, self.workdir, self.env,
                                              err_path, self.calibrate)
        if self.calibrate:
            samples = [before] + samples + [calibration_sample()]
        passed, rows, digest = check_report(self.workload, out,
                                            self.reference)
        passed = passed and code == 0
        if code != 0:
            with open(err_path, errors="replace") as fh:
                sys.stderr.write("%s: job exited %d\n%s" % (
                    self.workload, code, fh.read()[-2000:]))
        if digest is not None:
            self.digests.add(digest)
        if kind == "traced" and passed:
            with open(trace_path) as fh:
                self.traces.append((wall, json.load(fh)))
        self.jobs.append({"kind": kind, "code": code, "wall_s": wall,
                          "cpu_s": cpu, "peak_rss_mb": rss,
                          "passed": passed, "kernel_s": samples,
                          "rows": len(rows),
                          "certified": sum(1 for r in rows if r[-1])})

    def setup(self):
        before = calibration_sample()
        value = setup_probe(self.workdir, self.env)
        self.setups.append({"setup_s": value,
                            "kernel_s": [before, calibration_sample()]})


def run(workload, seed, seconds, trace):
    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    try:
        state = Run(workload, workdir, calibrate=not trace)
        # compile bytecode once, as an installed package has it, untimed
        setup_probe(workdir, state.env)
        rng = random.Random(seed)
        start = time.monotonic()
        rounds = 0
        while True:
            order = list(ROUNDS[trace])
            rng.shuffle(order)
            for kind in order:
                if kind == "setup":
                    state.setup()
                else:
                    state.job(kind)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= MIN_ROUNDS[trace] and \
                    elapsed + elapsed / rounds > seconds:
                break
        return state, rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(state):
    """User-visible metrics; only jobs that passed the check are timed.

    Times are scaled to the reference speed (see ``CAL_REFERENCE_S``).
    """
    timed_jobs = [j for j in state.jobs if j["kind"] == "job" and j["passed"]]
    rows = sum(j["rows"] for j in state.jobs)
    scales = [speed_scale(j["kernel_s"]) for j in timed_jobs]
    setups = [s for s in state.setups if s["setup_s"] is not None]
    values = {
        "wall_s": median(j["wall_s"] * k for j, k in zip(timed_jobs, scales)),
        "cpu_s": median(j["cpu_s"] * k for j, k in zip(timed_jobs, scales)),
        "setup_s": median(s["setup_s"] * speed_scale(s["kernel_s"])
                          for s in setups),
        "peak_rss_mb": median(j["peak_rss_mb"] for j in timed_jobs),
        "certified_share": (sum(j["certified"] for j in state.jobs) / rows
                            if rows else 0.0),
        "success_rate": (sum(1 for j in state.jobs if j["passed"])
                         / len(state.jobs)),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(state):
    """(metrics, absent, counts_repeat) from the traced jobs of a run."""
    metrics = dict.fromkeys(per_layer_names(), 0)
    absent = {}
    repeat = True
    if state.traces:
        for _, trace in state.traces:
            absent.update(trace["absent"])
        for name in traced.metric_names():
            samples = [t["metrics"][name] for _, t in state.traces]
            if name.endswith(".self_s"):
                value = median(samples)
            else:
                value = samples[0]
                if any(s != value for s in samples):
                    sys.stderr.write("count %s differs: %r\n"
                                     % (name, samples))
                    repeat = False
            metrics[name] = value
            if name.endswith(".calls") and value == 0:
                absent.setdefault(name.rsplit(".", 1)[0], "not called")
        plain = [j["wall_s"] for j in state.jobs
                 if j["kind"] == "job" and j["passed"]]
        traced_wall = [w for w, _ in state.traces]
        if plain:
            metrics["trace.overhead_s"] = median(traced_wall) - median(plain)
    out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    return out, absent, repeat


# ---------------------------------------------------------------------------
# environment record


def commit():
    """The checked-out commit when the checkout has its git metadata."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mtlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment():
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "sympy": sympy_version,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtlab", "cli.py")):
        sys.stderr.write("bench: no mtlab sources under %s\n" % SRC)
        return 2
    if not os.path.isfile(os.path.join(BENCH, "reference",
                                       args.workload + ".json")):
        sys.stderr.write("bench: no reference report for %s\n"
                         % args.workload)
        return 2

    # a stopped job must not outlive the runner: turn SIGTERM into SystemExit
    # so that spawn() kills the job on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    env["cpu"] = pin_to_one_cpu()
    state, rounds = run(args.workload, args.seed, args.seconds, args.trace)
    failed = sum(1 for j in state.jobs if not j["passed"])
    identical = len(state.digests) <= 1
    if not identical:
        sys.stderr.write("reports of one run differ\n")
    absent = {}
    repeat = True
    if args.trace:
        metrics, absent, repeat = per_layer(state)
    else:
        metrics = end_to_end(state)
    correct = failed == 0 and identical and repeat and \
        all(s["setup_s"] is not None for s in state.setups)
    print(json.dumps({
        "environment": env,
        "workload": args.workload,
        "argv": WORKLOADS[args.workload],
        "seed": args.seed,
        "rounds": rounds,
        "jobs": state.jobs,
        "setup_s": state.setups,
        "absent": absent,
    }, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(state.jobs),
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
