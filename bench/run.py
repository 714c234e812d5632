#!/usr/bin/env python3
"""biharmfem benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1    # summary of every workload

A run sets the workload up (import, seeded inputs, one tiny warm-up solve),
then starts one operation after another until the next one would end past
``--seconds``, checking every operation's output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

WORKLOAD_NAMES = ("cubic-criss-32", "cubic-jitter-12", "quartic-relabel-study",
                  "verify")
#: set-up is measured this many times per run (this process + fresh probes)
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
PERCENTILES = (50, 90, 99)
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set the workload up and print the time taken")
    return ap.parse_args(argv)


def timed_setup(name: str, seed: int, span=None):
    """Import the library, build the inputs, warm the caches; return
    (workloads module, workload, state, seconds)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, span)
    return workloads, wl, state, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, so caches start cold each time."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, cwd=bootstrap.ROOT, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail_percentile(samples: list[float]):
    """(p, value) for the highest of PERCENTILES with at least ten samples
    beyond it, or None."""
    fit = [p for p in PERCENTILES if len(samples) * (100 - p) >= 1000]
    if not fit:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return fit[-1], cuts[fit[-1] - 1]


def run_record(name: str, seed: int) -> dict:
    import numpy
    import scipy

    return {"workload": name, "seed": seed, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas_versions(),
            "nproc": bootstrap.NPROC, "blas_threads": blas_threads(),
            "src_lines": src_lines()}


def git_sha():
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_versions() -> dict:
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError):
            out[mod.__name__] = None
    return out


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read through its own API."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[pathlib.Path(path).name] = int(fn())
                break
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((bootstrap.SRC).rglob("*.py")))


def run_ops(wl, state, seconds: float, tracer=None, install=None):
    """Closed loop: start the next operation only while it is expected to
    end within ``seconds``.  Operation i runs on input i.  With a tracer,
    operations come in pairs on one input, one untraced and one traced
    (``install(tracer)`` before it, ``tracer.uninstall()`` after it), the
    traced one second in even pairs and first in odd ones, so that what a
    repeat on the same input saves cancels out of the tracing overhead;
    the returned time lists then hold the untraced and the traced time of
    each pair at the same position, and ``traced_ops`` the operation
    numbers of the traced ones."""
    from biharmfem import ComplexError, SolverError

    step = 2 if tracer is not None else 1
    times, traced_times, traced_ops, checks_of, failures = [], [], [], {}, []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= step and i % step == 0 and (
                elapsed + step * statistics.median(times + traced_times)
                > seconds):
            break
        k = i // step
        traced = step == 2 and i % 2 != k % 2
        problems = []
        if traced:
            install(tracer)
            tracer.op = i
            traced_ops.append(i)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.op", input=k):
                    result = wl.operation(state, k)
            else:
                result = wl.operation(state, k)
        except (SolverError, ComplexError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.op = None
                tracer.uninstall()
        if not problems:
            checks_of[i] = wl.check(state, k, result)
            problems = checks_of[i].failures
        (traced_times if traced else times).append(dt)
        for msg in problems:
            print(f"FAILED op {i} (input {k}): {msg}", file=sys.stderr)
        failures.append(bool(problems))
        i += 1
    return times, traced_times, traced_ops, checks_of, failures


def describe_timing(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                "no percentile has 10 samples beyond it (needs >= 20)")
    return (f"median {statistics.median(samples):.4f} s over "
            f"{len(samples)} ops ({', '.join(f'{x:.3f}' for x in samples)}); "
            f"{tail_txt}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        bootstrap.use_checkout_source()
    except bootstrap.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    workloads, wl, state, setup_s = timed_setup(
        args.workload, args.seed, tracer.span if tracer else None)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]

    layers = None
    if tracer is not None:
        import layers
    times, traced_times, traced_ops, checks_of, failures = run_ops(
        wl, state, args.seconds, tracer, layers.install if layers else None)
    attempted, failed = len(failures), sum(failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = run_record(args.workload, args.seed)

    print(f"workload {args.workload} (seed {args.seed})")
    print(f"  op_s        {describe_timing(times)}")
    print(f"  setup_s     median {statistics.median(setup_samples):.4f} s of "
          f"{len(setup_samples)}: "
          + ", ".join(f"{x:.4f}" for x in setup_samples))
    print(f"  peak_rss_mb {rss_mb:.1f} MB")
    print(f"  fail_frac   {failed}/{attempted} = {failed / attempted:g}")
    print("run_record " + json.dumps(record, sort_keys=True))

    if tracer is None:
        metrics = {
            "op_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        rows = [layers.op_metrics(tracer, i,
                                  workloads.meshes_for(state, i // 2),
                                  checks_of[i].figures if i in checks_of
                                  else {})
                for i in traced_ops]
        setup_spans = [s for s in tracer.spans if s.name == "mesh.build"]
        values = layers.per_layer(rows, setup_spans, times, traced_times)
        print(f"  traced op_s {describe_timing(traced_times)}; "
              f"overhead {values['trace.overhead_s']:+.4f} s per op "
              f"(median over {len(traced_times)} pairs)")
        print_span_tree(tracer, traced_ops[-1])
        dump_trace(tracer, args, record, values)
        metrics = {k: (v, layers.UNITS[k]) for k, v in values.items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def print_span_tree(tracer, op: int):
    """Time per span path for one traced operation, in order of first
    occurrence: total, self and calls; each path's self time plus its
    children's totals is its total, so the tree accounts for the whole
    operation."""
    spans = tracer.spans
    selfs = tracer.self_times()
    paths = {}
    rows = {}
    for idx, s in enumerate(spans):
        if s.op != op:
            continue
        path = (paths[s.parent] if s.parent in paths else ()) + (s.name,)
        paths[idx] = path
        row = rows.setdefault(path, [0.0, 0.0, 0, []])
        row[0] += s.duration
        row[1] += selfs[idx]
        row[2] += 1
        if s.name == "linalg.splu":
            row[3].append(f"{s.attrs['kind']} n={s.attrs['n']} "
                          f"L+U={s.attrs['fill']:,}")
    print(f"  span tree of traced op {op} (total s, self s, calls):")
    for path, (total, self_t, calls, notes) in rows.items():
        label = "  " * len(path) + path[-1]
        extra = f"  [{'; '.join(notes)}]" if notes else ""
        print(f"  {label:<52s} {total:9.4f} {self_t:9.4f} {calls:6d}{extra}")


def dump_trace(tracer, args, record, values):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [{"name": s.name, "parent": s.parent, "op": s.op,
              "start": s.start, "end": s.end, "attrs": s.attrs}
             for s in tracer.spans]
    path.write_text(json.dumps({"run_record": record, "per_layer": values,
                                "spans": spans}, default=str))
    print(f"  spans written to {path.relative_to(bootstrap.ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process; prints one summary line each."""
    status = 0
    print(f"{'workload':<24s} {'op_s':>10s} {'setup_s':>9s} "
          f"{'peak_rss_mb':>11s} {'fail_frac':>9s}")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=bootstrap.ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name:<24s} exited with {proc.returncode}")
            status = proc.returncode
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name:<24s} {m['op_s']:10.4f} {m['setup_s']:9.4f} "
              f"{m['peak_rss_mb']:11.1f} "
              f"{res['failed'] / res['attempted']:9.3g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
