#!/usr/bin/env python3
"""Closed-loop benchmark of formzeros.

    python3 bench/run.py --workload twist-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; formzeros is imported from
``src/`` there.  One client issues each operation after the previous
one finishes, in this single process, for ``--seconds`` of measured
operation CPU time.  Inputs come from the benchmark's own seeded
generator (``workloads.py``) and every output is compared with a
closed-form oracle outside the timed region.

Each operation is timed in CPU time and scaled to a nominal host
speed, measured by a fixed probe loop run between operations (see
``probe``): on a shared host the same code runs up to half again as
slow while other tenants are busy, and the probe slows with it.  The
unscaled figures are printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass (see ``layers.py``).  ``--workload all`` runs each
workload in a child process of its own, so each reports its own peak
memory.
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
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 7
# Host-speed probe (see ``probe``); PROBE_NOMINAL_S is its time on an
# undisturbed host of the reference machine.
PROBE_LOOP = 250
PROBE_ROUNDS = 3
PROBE_NOMINAL_S = 80e-6
# The tail is one fixed percentile so that a change in throughput does
# not change which percentile a run reports; p95 keeps at least ten
# samples above it on every workload at 30 s per run.
TAIL_PERCENTILE = 95.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_formzeros():
    """Import formzeros afresh from ``src/``, dropping any earlier copy,
    so module-level state starts empty."""
    for name in [n for n in sys.modules if n == "formzeros" or n.startswith("formzeros.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "formzeros", "__init__.py")):
        raise BenchError(f"no formzeros package under {SRC}")
    fz = importlib.import_module("formzeros")
    importlib.import_module("formzeros.cli")
    if not os.path.abspath(fz.__file__).startswith(SRC + os.sep):
        raise BenchError(f"formzeros imported from {fz.__file__}, not from {SRC}")
    return fz


def run_order(fz, data) -> list:
    target, vectors, comps = data
    Poly = fz.poly.Poly
    dominates = fz.complexes.dominates
    check = fz.deformation.bott_inequality_check
    Component = fz.deformation.BottComponentData
    p = Poly(target)
    out = []
    for vec in vectors:
        holds, w = dominates(Poly(vec), p)
        out.append((holds, w.coeffs if w is not None else None))
    for comp in comps:
        rep = check([Component(index, dims) for index, dims in comp], p)
        out.append((rep.holds, rep.lhs.coeffs, rep.witness.coeffs if rep.witness is not None else None))
    return out


def run_op(fz, op):
    """Perform one operation; CLI operations give ``(exit code, stdout)``."""
    if op.argv is None:
        return run_order(fz, op.data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fz.cli.main(op.argv)
    return code, out.getvalue()


def attempt(fz, op):
    """Run one operation and time it in CPU time of this process; an
    exception becomes its result."""
    t0 = time.process_time()
    try:
        res = run_op(fz, op)
    except Exception as exc:  # counted as a failed op, never fatal
        res = ("raised", f"{type(exc).__name__}: {exc}")
    return time.process_time() - t0, res


def _probe_loop(n: int) -> int:
    """Tuples, a dict and a list, like the interpreter work of an
    operation; a plain integer loop slows less than the operations do
    when the host is busy."""
    seen, out = {}, []
    for i in range(n):
        seen[(i, i * 7919 % 101)] = i
        out.append(seen.get((i - 3, (i - 3) * 7919 % 101), 0))
    return len(seen) + sum(out)


def probe() -> float:
    """The host's speed now, as the best of ``PROBE_ROUNDS`` timings of
    a fixed loop.  The garbage collector is off while it runs, so it
    never collects an operation's leftovers, and it is timed in this
    thread's CPU time, so no other thread is counted in it."""
    enabled = gc.isenabled()
    gc.disable()
    best = math.inf
    for _ in range(PROBE_ROUNDS):
        t0 = time.thread_time()
        _probe_loop(PROBE_LOOP)
        best = min(best, time.thread_time() - t0)
    if enabled:
        gc.enable()
    return best


def scaled(cpu_s: float, before: float, after: float) -> float:
    """CPU time scaled to the host speed at which the probe takes
    ``PROBE_NOMINAL_S``, by the mean of the probes on either side."""
    return cpu_s * PROBE_NOMINAL_S / ((before + after) / 2)


def attempt_scaled(fz, op):
    """``attempt`` with its time scaled by probes on either side."""
    before = probe()
    dt, res = attempt(fz, op)
    return scaled(dt, before, probe()), res


def is_correct(op, res) -> bool:
    if op.argv is None:
        return res == workloads.expected_order(op.data)
    return res == op.expect


class Tally:
    """Attempted and failed operations, with the first mismatch kept
    for the error report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None

    def add(self, op, res) -> None:
        self.attempted += 1
        if not is_correct(op, res):
            self.failed += 1
            if self.first is None:
                self.first = (op.kind, op.argv, res, op.expect)


def setup(wl_cls, workdir: str):
    """Import formzeros and run the warm-up operations, ``SETUP_ROUNDS``
    times from a fresh import; returns the last module and the median
    round time.  Warm-up inputs come from their own seed, so no timed
    input is seen before it is timed."""
    warm_ops = wl_cls("warmup", workdir).warmup()
    times, tally = [], Tally()
    for _ in range(SETUP_ROUNDS):
        before = probe()
        t0 = time.process_time()
        fz = import_formzeros()
        results = [attempt(fz, op)[1] for op in warm_ops]
        times.append(scaled(time.process_time() - t0, before, probe()))
        for op, res in zip(warm_ops, results):
            tally.add(op, res)
    return fz, statistics.median(times), tally


def op_stream(wl):
    index = 0
    while True:
        yield from wl.chunk(index)
        index += 1


class Timings:
    """Per-operation CPU times, raw and scaled, and the wall time of the
    timed loop."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.probes = []
        self.wall = 0.0


def timed_loop(fz, wl, seconds: float):
    """Closed loop until the raw operation CPU time adds up to
    ``seconds``, or the loop has taken ``3 * seconds`` of wall time."""
    t, tally = Timings(), Tally()
    busy = 0.0
    before = probe()
    w0 = time.perf_counter()
    for op in op_stream(wl):
        dt, res = attempt(fz, op)
        after = probe()
        t.raw.append(dt)
        t.scaled.append(scaled(dt, before, after))
        t.probes.append(after)
        before = after
        busy += dt
        tally.add(op, res)
        if op.path:
            os.remove(op.path)
        t.wall = time.perf_counter() - w0
        if busy >= seconds or t.wall >= 3 * seconds:
            break
    return t, tally


def tail(latencies):
    """The ``TAIL_PERCENTILE`` latency (nearest rank) and the number of
    samples above it, which must be at least ten."""
    s = sorted(latencies)
    n = len(s)
    idx = max(math.ceil(TAIL_PERCENTILE / 100 * n) - 1, 0)
    if n - idx - 1 < 10:
        raise BenchError(f"only {n} operations; p{TAIL_PERCENTILE:g} needs at least 10 above it")
    return TAIL_PERCENTILE, s[idx], n - idx - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(metrics, correct, tally):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_workload(args) -> int:
    wl_cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        fz, setup_s, warm = setup(wl_cls, workdir)
        wl = wl_cls(str(args.seed), workdir)
        if args.trace:
            import layers

            metrics, tally, checks = layers.traced_run(wl, import_formzeros, attempt_scaled, Tally)
            for line in checks.lines():
                print(line)
            correct = checks.ok and tally.failed == 0 and warm.failed == 0
        else:
            timings, tally = timed_loop(fz, wl, args.seconds)
            metrics = end_to_end(wl.name, timings, setup_s, tally)
            correct = tally.failed == 0 and warm.failed == 0
        print(f"inputs sha256 {wl.digest.hexdigest()} (seed {args.seed}, first chunk with its input files)")
    for label, t in (("warm-up", warm), ("timed", tally)):
        if t.first is not None:
            kind, argv, got, want = t.first
            print(f"{label} mismatch in {kind} {argv}: got {got!r}, expected {want!r}", file=sys.stderr)
    report(metrics, correct, tally)
    return 0


def end_to_end(name, t: Timings, setup_s, tally) -> dict:
    n = len(t.scaled)
    busy = sum(t.scaled)
    q, tail_v, above = tail(t.scaled)
    p50 = statistics.median(t.scaled)
    rss = peak_rss_mb()
    raw_busy = sum(t.raw)
    speed = PROBE_NOMINAL_S / statistics.median(t.probes)
    print(f"workload {name}: {n} ops in {raw_busy:.3f} s of operation CPU time, {t.wall:.3f} s of wall time (closed loop, 1 client)")
    print(f"host speed: median probe {statistics.median(t.probes) * 1e6:.1f} us, {speed:.3f} of nominal")
    print(f"unscaled: ops_per_s {n / raw_busy:.3f} 1/s, latency_p50_ms {statistics.median(t.raw) * 1e3:.3f} ms, "
          f"latency_tail_ms {tail(t.raw)[1] * 1e3:.3f} ms")
    print(f"ops_per_s {n / busy:.3f} 1/s")
    print(f"latency_p50_ms {p50 * 1e3:.3f} ms (n={n})")
    print(f"latency_tail_ms {tail_v * 1e3:.3f} ms (p{q:g}, n={n}, {above} above)")
    print(f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_ROUNDS} import + warm-up rounds)")
    print(f"peak_rss_mb {rss:.2f} MB")
    return {
        "ops_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail_v * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def run_all(args) -> int:
    """Each workload in its own child process, then one summary line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for key, val in doc["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
