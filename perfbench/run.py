"""Benchmark of rograd's certified pipeline.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rograd is imported from ``src/``
of that checkout and nowhere else.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from wrappers installed around rograd's
public functions (see ``spans.py``).  The line before it holds the
environment and the per-job detail.  See ``NOTES.md`` for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

# (name, unit, better, bound): what a user of rograd sees, on every workload
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.01),
]

sys.path.insert(0, str(HERE))
import jobs as jobs_mod  # noqa: E402


def import_rograd():
    """Import rograd from this checkout's sources, or exit with status 1."""
    if not (SRC / "rograd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rograd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rograd

    if Path(rograd.__file__).resolve().parent != SRC / "rograd":
        sys.exit(f"perfbench: imported rograd from {rograd.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(jobs, tracer=None):
    """Run every job once; returns a list of per-job outcome dicts.

    outcome is "ok", "failed" (raised, or exited with an unexpected code)
    or "wrong" (exited as expected but the output is not the certified one).
    """
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, payload = job.run()
            else:
                code, payload = tracer.call(f"job.{job.kind}", job.run, (), {})
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
            error = exc
        seconds = time.perf_counter() - t0
        if error is not None:
            traceback.print_exception(error)
            outcome, why = "failed", f"{type(error).__name__}: {error}"
        elif code != job.expect_exit:
            outcome, why = "failed", f"exit {code}, expected {job.expect_exit}"
        else:
            why = job.check(payload)
            outcome = "wrong" if why else "ok"
        results.append(
            {"job": job.label, "kind": job.kind, "s": seconds, "outcome": outcome, "why": why}
        )
    return results


def pass_wall(results):
    return sum(r["s"] for r in results)


def median_wall(passes):
    return statistics.median(pass_wall(p) for p in passes)


def failures(passes):
    return sum(r["outcome"] != "ok" for p in passes for r in p)


def stage_time(passes, kind):
    """Mean time per pass spent in jobs of one kind."""
    return sum(r["s"] for p in passes for r in p if r["kind"] == kind) / len(passes)


# ---------------------------------------------------------------------------
# set-up time, environment
# ---------------------------------------------------------------------------


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter to the first job being ready."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
            code = child.returncode
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with exit {code}")
        times.append(elapsed)
    return statistics.median(times)


def environment(seed):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rograd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(workload, seed, seconds):
    setup_s = measure_setup(workload, seed)
    jobs = jobs_mod.jobs_for(workload, seed)
    run_pass(jobs_mod.warmup_jobs(workload))
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(jobs))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_wall(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - failures(passes) / sum(map(len, passes)), "share"),
    }
    return passes, metrics


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes for about ``seconds``.

    The per-layer metrics come from the spans of the first traced pass, and
    trace_overhead compares the median pass of each kind.  The stage times
    and fail rate come from the untraced passes, so tracing cannot inflate
    them.
    """
    import selftest
    from spans import Tracer, layer_metrics, write_jsonl

    selftest.main()
    jobs = jobs_mod.jobs_for(workload, seed)
    run_pass(jobs_mod.warmup_jobs(workload))
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_pass(jobs))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer))
        finally:
            tracer.uninstall()
        if len(traced) == 1:
            first = tracer
    OUT.mkdir(exist_ok=True)
    write_jsonl(OUT / f"spans-{workload}-{seed}.jsonl", first.spans)
    metrics = layer_metrics(first)
    overhead = median_wall(traced) / median_wall(plain) - 1
    metrics["trace_overhead"] = (overhead, "share")
    for kind in jobs_mod.KINDS:
        metrics[f"{kind}_s"] = (stage_time(plain, kind), "s")
    metrics["fail_rate"] = (failures(plain) / sum(map(len, plain)), "share")
    return plain + traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_rograd()
    if args.setup_probe:
        jobs_mod.jobs_for(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        from spans import PER_LAYER

        passes, metrics = traced_run(args.workload, args.seed, args.seconds)
        names = [m[0] for m in PER_LAYER]
    else:
        passes, metrics = untraced_run(args.workload, args.seed, args.seconds)
        names = [m[0] for m in END_TO_END]
    assert sorted(metrics) == sorted(names), set(metrics) ^ set(names)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "passes": [
            {"wall_s": pass_wall(p), "jobs": [[r["job"], round(r["s"], 6), r["outcome"], r["why"]]
                                             for r in p]}
            for p in passes
        ],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not any(r["outcome"] == "wrong" for p in passes for r in p),
        "attempted": sum(map(len, passes)),
        "failed": failures(passes),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
