"""Seeded, correctness-gated benchmark of smoothmax.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  Set-up builds the workload's inputs and references five
times; ``setup_s`` is the median.  The run then makes whole passes over the
workload's instances, at least three and until ``--seconds`` have elapsed,
and checks every result against its reference.  A failed or wrong solve is
counted, never retried.

Every timed call is scaled to a fixed reference speed of the host (see
calibration.py).  ``--trace 0`` reports the end-to-end metrics:
``solve_ms_p50`` is the median over instances of each instance's median
scaled solve time, and ``solves_per_s`` is the number of instances over the
sum of those times.  The raw wall-clock figures (throughput, p50, and p90
where a run holds at least 100 solves) and ``fail_ratio`` are printed in the
human-readable lines and kept in the manifest.

``--trace 1`` alternates untraced and traced passes over the same
instances.  The traced passes give the per-layer metrics, each per solve and
in raw wall time; the scaled traced over untraced times give the tracing
overhead.

Human-readable lines go to standard output first.  The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A manifest of the
run (seed, instances, versions, thread counts, reference-kernel times) and,
for traced runs, the spans as .npz arrays are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3
P90_MIN_SAMPLES = 100
EXIT_NO_PROGRAM = 2


def load_program():
    """Import smoothmax from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smoothmax

    if not Path(smoothmax.__file__).resolve().is_relative_to(src):
        raise ImportError(f"smoothmax was imported from {smoothmax.__file__}, not {src}")
    return smoothmax


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def timed_pass(instances, clock, tracer, samples: list[list], failures: list) -> None:
    """Solve every instance once; append each verified solve's (wall,
    reference) sample to ``samples[index]`` and each failure to ``failures``."""
    for index, instance in enumerate(instances):
        if tracer is not None:
            tracer.solve_id += 1
        try:
            output, sample = clock.call(instance.solve, tracer)
        except Exception:  # a solver error is a failed solve, never fatal
            failures.append((instance.label, traceback.format_exc(limit=3)))
            continue
        error = instance.check(output)
        if error is None:
            samples[index].append(sample)
        else:
            failures.append((instance.label, error))


def instance_times(samples: list[list]) -> list[float]:
    """Each instance's median scaled solve time over the run's passes."""
    from calibration import scaled

    return [statistics.median(scaled(s) for s in runs) for runs in samples if runs]


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(instances, clock, seconds):
    """Whole untraced passes until ``seconds`` have elapsed and at least
    MIN_PASSES passes are done."""
    from tracing import assert_untraced

    failures, samples, passes = [], [[] for _ in instances], 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        assert_untraced()
        timed_pass(instances, clock, None, samples, failures)
        passes += 1
    assert_untraced()
    times = instance_times(samples)
    wall = [elapsed for runs in samples for elapsed, _ in runs]
    metrics = {
        "solves_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "solve_ms_p50": (statistics.median(times) * 1e3 if times else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "fail_ratio": (len(failures) / (passes * len(instances)), "ratio"),
        "passes": (passes, "count"),
        "solves": (len(wall), "count"),
        "wall_solves_per_s": (len(wall) / sum(wall) if wall else None, "1/s"),
        "wall_solve_ms_p50": (statistics.median(wall) * 1e3 if wall else None, "ms"),
        "wall_solve_ms_p90": ((percentile(wall, 0.9) * 1e3, "ms")
                              if len(wall) >= P90_MIN_SAMPLES else
                              (None, f"ms (undefined: {len(wall)} < {P90_MIN_SAMPLES} samples)")),
    }
    return metrics, notes, passes * len(instances), failures


def layer_metrics(tracer, traced, untraced) -> dict:
    totals = tracer.layer_totals()
    traced_wall = [elapsed for runs in traced for elapsed, _ in runs]
    solves = max(len(traced_wall), 1)
    metrics = {}
    for name, (total_s, self_s, calls) in totals.items():
        metrics[f"{name}.ms"] = (total_s * 1e3 / solves, "ms/solve")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / solves, "ms/solve")
        metrics[f"{name}.calls"] = (calls / solves, "calls/solve")
    counts = tracer.counts
    iterations = counts["agd.iterations"]
    steps = totals["agd.agd_step"][2]
    traced_s = sum(traced_wall)
    attributed_s = sum(self_s for _, self_s, _ in totals.values())
    untraced_s = sum(instance_times(untraced))
    metrics.update({
        "agd.iterations_per_solve": (iterations / solves, "iter/solve"),
        "agd.planned_iterations_per_solve": (counts["agd.planned_iterations"] / solves,
                                             "iter/solve"),
        "agd.iter_us": (totals["agd.run_to_gap"][0] * 1e6 / iterations if iterations else 0.0,
                        "us"),
        "agd.evals_per_iteration": (totals["core.component_values"][2] / steps if steps else 0.0,
                                    "evals/iter"),
        "agd.run_online.rounds": (counts["agd.run_online.rounds"] / solves, "rounds/solve"),
        "meb.values_at.bytes_computed": (counts["meb.values_at.bytes_computed"] / solves,
                                         "B/solve"),
        "cli.rows_parsed": (counts["cli.rows_parsed"] / solves, "rows/solve"),
        "trace.solve_ms": (traced_s * 1e3 / solves, "ms/solve"),
        "trace.unattributed_ms": ((traced_s - attributed_s) * 1e3 / solves, "ms/solve"),
        "trace.overhead_pct": ((sum(instance_times(traced)) / untraced_s - 1.0) * 100
                               if untraced_s else 0.0, "%"),
        "trace.spans": (len(tracer) / solves, "spans/solve"),
    })
    return metrics


def measure_traced(instances, clock, seconds, spans_path):
    """Alternate untraced and traced passes until ``seconds`` have elapsed."""
    from tracing import Tracer, assert_untraced

    tracer = Tracer()
    failures, passes = [], 0
    traced, untraced = [[] for _ in instances], [[] for _ in instances]
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        assert_untraced()
        timed_pass(instances, clock, None, untraced, failures)
        tracer.install()
        try:
            timed_pass(instances, clock, tracer, traced, failures)
        finally:
            tracer.uninstall()
        passes += 2
    tracer.write_spans(spans_path)
    return layer_metrics(tracer, traced, untraced), {}, passes * len(instances), failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up and measure one workload; returns (result object, manifest)."""
    from calibration import Clock, scaled
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    workdir = OUT_DIR / f"work-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            instances, sample = clock.call(setup, seed, tiny, workdir)
            setup_samples.append(sample)
        if trace:
            spans_path = OUT_DIR / f"{name}.spans.npz"
            metrics, notes, attempted, failures = measure_traced(instances, clock, seconds,
                                                                 spans_path)
        else:
            metrics, notes, attempted, failures = measure(instances, clock, seconds)
            metrics["setup_s"] = (statistics.median(scaled(s) for s in setup_samples), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    manifest = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_wall_s": [elapsed for elapsed, _ in setup_samples],
        "reference_ms": {"fastest": min(clock.references) * 1e3,
                         "median": statistics.median(clock.references) * 1e3,
                         "count": len(clock.references)},
        "instances": [instance.label for instance in instances],
        "failures": [{"instance": label, "error": error} for label, error in failures],
        "notes": {key: {"value": value, "unit": unit} for key, (value, unit) in notes.items()},
        **environment(),
    }
    return result, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    result, manifest = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    manifest_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))

    for label, error in manifest["failures"][:5]:
        print(f"FAILED {label}: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed; manifest {manifest_path.relative_to(ROOT)}")
    for key, entry in {**result["metrics"], **manifest["notes"]}.items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {key:<40} {value:>14} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
