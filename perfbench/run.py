"""districtmatch benchmark: seeded markets through the real CLI, in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload spda_market --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One run generates a pool of markets from ``--seed``, writes them as instance
files, and runs one *session* (a fixed list of ``districtmatch.cli.main``
calls, stdout captured) per market, one after another in this single
process, for ``--seconds`` of wall time.  Every command's exit code and output
are checked.  ``gc.collect()`` runs between sessions, outside the timed
interval: a user running one command per process never inherits a previous
session's garbage.

Times are reference seconds: process CPU seconds, scaled to a fixed machine
speed.  The program is single-threaded (numpy's thread pools are held to one
thread) and does little I/O, so its CPU time is its wall time minus the time
the host stole from this virtual machine, which on the machine the bounds
were set on came and went in bursts of more than 2x.  What remains is drift
in the machine's speed, up to 40% over tens of seconds: a fixed pure-Python
loop is timed before every session and every set-up (outside their timed
intervals), and each session's time is scaled by ``REFERENCE_S / mean(loop
time)`` over the loops just before it, before the session ahead of it and
after it.  Scaling each session by the speed around it, not by the run's
mean speed, halved the seed-to-seed spread of the session times.  So a
reported second is a CPU second on a machine where the loop takes
``REFERENCE_S``; raw wall times are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of sessions twice each, untraced and with the layer tracer installed
(alternating which goes first), checks that stdout and trace files are
byte-identical, and reports the per-layer metrics.  The fixed session count
makes every counter repeat exactly for a given seed.  ``--all`` runs every
workload both ways, each in its own child process, and prints all metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one process, no extra threads: numpy's BLAS pools would add CPU time that
# is not the program's
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
REFERENCE_S = 0.05  # the reference loop's CPU time on a typical machine state


def machine():
    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"{platform.system()} {platform.release()}")


def fresh_cli():
    """Import districtmatch from scratch and return its cli module."""
    for name in [m for m in sys.modules if m == "districtmatch" or m.startswith("districtmatch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("districtmatch.cli")


def call(cli, cmd):
    """Run one CLI command in-process: (exit code, stdout, trace file bytes,
    error note)."""
    out, err = io.StringIO(), io.StringIO()
    note = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command, not a benchmark crash
            code, note = 1, f"{type(exc).__name__}: {exc}"
    blob = b""
    if cmd.trace and os.path.exists(cmd.trace):
        with open(cmd.trace, "rb") as fh:
            blob = fh.read()
    return code, out.getvalue(), blob, note


class Tally:
    """Commands attempted, failed and wrongly answered, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons = {}

    def record(self, cmd, code, out, note):
        self.attempted += 1
        if code not in cmd.exits:
            reason = f"exit {code} not in {sorted(cmd.exits)}" + (f" ({note})" if note else "")
        else:
            reason = workloads.check_output(cmd, out)
            if reason is None:
                return
            self.incorrect += 1
        self.failed += 1
        args = " ".join(a for a in cmd.argv[2:] if not os.path.isabs(a))
        key = f"{cmd.argv[0]} {args}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def run_session(cli, commands, tally):
    """Time one session; outputs are checked after the clock stops.
    Returns ((CPU seconds, wall seconds), [(exit code, stdout, trace bytes)])."""
    w0, c0 = time.perf_counter(), time.process_time()
    results = [call(cli, cmd) for cmd in commands]
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    for cmd, (code, out, _, note) in zip(commands, results):
        tally.record(cmd, code, out, note)
    return (cpu, wall), [r[:3] for r in results]


def reference_loop():
    """CPU time of a fixed slice of pure-Python work, which tracks the
    machine's speed: integer arithmetic, then the tuple keys, dict updates,
    frozensets and small sorts the program itself is made of.  The mix
    tracked the program's speed about twice as closely as arithmetic alone."""
    t0 = time.process_time()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    table = {}
    for i in range(20_000):
        key = (i % 251, i % 7)
        table[key] = table.get(key, 0) + 1
        members = frozenset((i % 13, i % 11, i % 5))
        if i % 13 in members:
            acc += len(members)
        row = [i % 17, i % 3, i % 29]
        row.sort()
        acc += row[0]
    return time.process_time() - t0


def tail_percentile(n):
    """Highest whole percentile with at least ten sessions beyond it
    (nearest rank), floored at the median."""
    if n <= 0:
        return 50
    return min(99, max(50, math.floor(100 * (n - 10) / n)))


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def setup(workload, seed, workdir):
    """Import, generate and write the pool, run one warm-up session.
    Repeated; each time is scaled to the reference speed taken just before
    it, and the median is the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        scale = REFERENCE_S / statistics.mean(reference_loop() for _ in range(2))
        t0 = time.process_time()
        cli = fresh_cli()
        markets = [workload.make(seed, i, workdir) for i in range(workload.pool)]
        run_session(cli, workload.session(markets[0], workdir), Tally())
        times.append((time.process_time() - t0) * scale)
    return cli, markets, statistics.median(times)


def timed_run(cli, workload, markets, seconds, workdir):
    """Sessions over the pool, in order, until ``seconds`` of wall time
    have passed.  Returns ([(CPU, wall) seconds per session], reference
    loop seconds, tally)."""
    tally = Tally()
    durations, reference = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not durations:
        gc.collect()
        reference.append(reference_loop())
        market = markets[len(durations) % len(markets)]
        dt, _ = run_session(cli, workload.session(market, workdir), tally)
        durations.append(dt)
    return durations, reference, tally


def end_to_end(durations, reference, setup_s):
    # reference[i] is timed just before session i
    ref = [
        cpu * REFERENCE_S / statistics.mean(reference[max(0, i - 1):i + 2])
        for i, (cpu, _) in enumerate(durations)
    ]
    scale = sum(ref) / sum(c for c, _ in durations)
    wall = [w for _, w in durations]
    p = tail_percentile(len(ref))
    print(f"sessions: {len(ref)} wall: {sum(wall):.3f} s "
          f"cpu: {sum(c for c, _ in durations):.3f} s "
          f"reference loop: {statistics.mean(reference) * 1e3:.3f} ms (scale {scale:.4f})")
    print(f"wall markets_per_s: {len(wall) / sum(wall):.6g} 1/s "
          f"session_p50_s: {statistics.median(wall):.6g} s")
    print(f"session_tail_s is p{p}: "
          f"{len(ref) - max(1, math.ceil(p / 100 * len(ref)))} sessions beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "markets_per_s": (len(ref) / sum(ref), "1/s"),
        "session_p50_s": (statistics.median(ref), "s"),
        "session_tail_s": (percentile(ref, p), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(cli, workload, markets, workdir, spans_path):
    """Each of the first ``trace_sessions`` sessions untraced and traced.
    Returns (per-layer metrics, tally of the traced pass, output mismatches)."""
    import tracing

    tally = Tally()
    tracer = tracing.Tracer()
    ratios = []  # traced / untraced CPU time, per session
    trace_bytes = mismatches = 0
    for i in range(workload.trace_sessions):
        commands = workload.session(markets[i % len(markets)], workdir)
        tracer.session = i
        # alternate which pass goes first, so neither always runs cold
        for traced_pass in (i % 2 == 1, i % 2 == 0):
            gc.collect()
            if traced_pass:
                with tracer:
                    (traced_s, _), traced = run_session(cli, commands, tally)
            else:
                (plain_s, _), plain = run_session(cli, commands, Tally())
        ratios.append(traced_s / plain_s)
        trace_bytes += sum(len(blob) for _, _, blob in traced)
        mismatches += sum(a != b for a, b in zip(plain, traced))
    tracer.dump(spans_path)
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.trace_bytes"] = (trace_bytes, "B")
    # the median session ratio, so one session hit by a slow spell of the
    # machine does not decide it
    metrics["bench.trace_overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    print(f"traced sessions: {workload.trace_sessions}, spans in {os.path.relpath(spans_path, ROOT)}")
    print(f"traced outputs differing from untraced: {mismatches}")
    return metrics, tally, mismatches


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "districtmatch", "cli.py")):
        print(f"benchmark: no districtmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        cli, markets, setup_s = setup(workload, args.seed, workdir)
        print(f"machine: {machine()}")
        print(f"python: {platform.python_version()} ({platform.python_implementation()})")
        print(f"workload: {workload.name} seed: {args.seed} pool: {len(markets)} markets")
        if args.trace:
            out_dir = os.path.join(HERE, "_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{workload.name}-{args.seed}.json")
            metrics, tally, mismatches = traced_run(cli, workload, markets, workdir, spans)
        else:
            durations, reference, tally = timed_run(cli, workload, markets, args.seconds, workdir)
            metrics = end_to_end(durations, reference, setup_s)
            mismatches = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"commands: {tally.attempted} failed: {tally.failed} "
          f"failed_frac: {tally.failed / tally.attempted:.6f}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  failed x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": tally.incorrect == 0 and mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, env=env, cwd=ROOT,
            )
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(proc.stdout.splitlines()[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both passes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
