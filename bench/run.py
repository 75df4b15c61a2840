"""qesforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload family-scan --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads are defined in ``workloads.py``: ``family-scan``,
``dense-grid`` and ``quadrature``.  The run is single-threaded (BLAS and
OpenMP pools are pinned to one thread before numpy is imported) and makes
all its inputs from ``--seed``.

It prints a table of every metric with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced over
blocks of passes over the seeded operation list until ``--seconds`` have
passed, each operation timed by its fastest pass in a block:

    setup_s       import plus set-up, median over repeated set-ups      [s]
    ops_per_s     the workload's units per second of busy time         [1/s]
                  (scan points / grid points through psi-, psi+ and V /
                  integrals)
    ok_frac       1 - failed / attempted operations                  [share]
    peak_rss_mb   peak resident memory of the process                  [MB]

The table adds the workload's own metrics, ungated: scan_pts_per_s,
build_s, build_tail_s, first_psi_s, psi_pts_per_s, potential_pts_per_s,
quad_per_s, fail_frac, and the median and tail latency of one operation
(a member that builds / one grid / one integral), op_median_ms and
op_tail_ms, each tail with its percentile and sample count.

With ``--trace 1`` one block of passes runs untraced and then again,
on the same inputs, with every layer wrapped by ``tracing.Tracer``; the
metrics are the per-layer ones listed in BENCHMARK.json.  Both modes also
write the full record (environment, named workload metrics, outcome
breakdown and, when traced, the spans) to ``bench/out/``.

An operation fails when it raises anything but a typed rejection by the
validator, or when its output misses a check.  ``correct`` is false when an
output check fails or an operation ends in an untyped exception; a typed
QesError on an admissible input counts as failed but not as incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Listed rather than read from qesforge.errors, so the per-layer names stay
# fixed when the package adds or drops an error class.
ERROR_CLASSES = (
    "ParseError", "UnknownIdentifierError", "DomainEvaluationError",
    "InadmissibleInputError", "NegativeDiscriminantError", "PatchFailureError",
    "SeamMismatchError", "BranchInconsistencyError", "UnremovablePoleError",
    "VplusPoleError", "QuadratureNonconvergenceError",
    "EigensolverNonConvergenceError", "AmbiguousNodeError",
    "ReferenceDenominatorZeroError",
)
TRACED_LAYERS = (
    "expr.parse", "expr.eval_jet", "expr.eval_array",
    "local_series.taylor_branches", "local_series.pole_branches",
    "validator.check_admissibility", "validator.locate_zeros",
    "validator.discriminant_samples", "validator.find_level_crossings",
    "susy.construct", "susy.assembly", "susy.psi", "susy.potentials",
    "susy.integrate", "susy.quad",
)


def prepare():
    """Pin BLAS/OpenMP pools to one thread and put ``src/`` and this
    directory on the path; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool, import_s: float):
    """Set up, measure, and return (outcomes, record, setup times, tracer, extra).

    When traced, ``extra`` holds the traced record and the outcomes of the
    traced pass alone, which the per-layer error counts are read from."""
    from tracing import NullTracer, Tracer
    from workloads import Outcomes, Record, SetupTimes

    null = NullTracer()
    outcomes = Outcomes()
    setup_times, setup = [], SetupTimes()
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(null, outcomes)
        setup_times.append(time.perf_counter() - t0)
        setup.build_s += state["times"].build_s
        setup.first_psi_s += state["times"].first_psi_s
    extra = {"setup_s": import_s + statistics.median(setup_times), "import_s": import_s}

    ops = workload.draw(state, random.Random(seed))

    def one_block(state, tracer, rec, outcomes):
        for _ in range(workload.block_passes):
            rec.begin_pass()
            for key, op in enumerate(ops):
                tracer.op_id = key + 1
                workload.run_op(state, key, op, tracer, rec, outcomes)
            rec.passes += 1

    rec = Record(workload.block_passes)
    if not trace:
        t0 = time.perf_counter()
        while not rec.blocks or time.perf_counter() - t0 < seconds:
            one_block(state, null, rec, outcomes)
        return outcomes, rec, setup, None, extra

    one_block(state, null, rec, outcomes)
    tracer = Tracer()
    traced, traced_outcomes = Record(workload.block_passes), Outcomes()
    tracer.install()
    try:
        traced_state = workload.setup(tracer, traced_outcomes)
        one_block(traced_state, tracer, traced, traced_outcomes)
    finally:
        tracer.uninstall()
    outcomes.merge(traced_outcomes)
    extra.update(overhead=traced.total_s / rec.total_s, traced=traced, traced_outcomes=traced_outcomes)
    return outcomes, rec, setup, tracer, extra


def end_to_end(rec, outcomes, extra) -> dict:
    return {
        "setup_s": (extra["setup_s"], "s"),
        "ops_per_s": (rec.rate(), "1/s"),
        "ok_frac": (1.0 - outcomes.n_failed / outcomes.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_metrics(workload, rec, setup, outcomes) -> dict:
    """The workload's own metrics and operation latencies, printed and
    recorded but not gated: on a host whose speed drifts they spread more
    than a bound could hold."""
    from workloads import tail

    value, pct, n = tail(rec.samples())
    out = workload.named_metrics(rec, setup)
    out["op_median_ms"] = (1e3 * rec.median(), "ms")
    out["op_tail_ms"] = (1e3 * value, "ms", f"p{pct:.1f} of {n} operations")
    out["fail_frac"] = (outcomes.n_failed / outcomes.attempted, "share")
    return out


def us_per_pt(rec, component) -> float:
    """Microseconds per point of a grid component, from the untraced passes."""
    rate = rec.rate(component, per_point=True)
    return 1e6 / rate if rate == rate else 0.0


def per_layer(tracer, rec, extra) -> dict:
    traced, outcomes = extra["traced"], extra["traced_outcomes"]
    psi_points = traced.passes * traced.points_per_pass("psi")
    c = tracer.counts
    builds = max(c["susy.builds"], 1)
    assemblies = max(c["susy.assemblies"], 1)
    out = {}
    for name in TRACED_LAYERS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    out.update({
        "jets.ops": (tracer.jet_ops, "count"),
        "jets.ops_per_build": (tracer.jet_ops_in["susy.construct"] / builds, "count"),
        "jets.ops_per_assembly": (tracer.jet_ops_in["susy.assembly"] / assemblies, "count"),
        "jets.ops_per_pt": (tracer.jet_ops_in["susy.psi"] / max(psi_points, 1), "count"),
        "jets.ops_per_integral": (
            tracer.jet_ops_in["susy.integrate"] / max(tracer.calls["susy.integrate"], 1), "count"
        ),
        "local_series.candidates": (c["local_series.candidates"], "count"),
        "local_series.candidates_used_ratio": (
            c["local_series.candidates_used"] / max(c["local_series.candidates"], 1), "share"
        ),
        "validator.rejected": (outcomes.rejected, "count"),
        "susy.patches": (c["susy.patches"] / builds, "count"),
        "susy.breakpoints": (c["susy.breakpoints"] / builds, "count"),
        "susy.cheb.degree_sum": (c["susy.cheb.degree_sum"] / assemblies, "count"),
        "susy.cheb.samples": (c["susy.cheb.samples"] / assemblies, "count"),
        "susy.cheb.capped": (c["susy.cheb.capped"], "count"),
        "susy.psi.us_per_pt": (us_per_pt(rec, "psi"), "us"),
        "susy.potentials.us_per_pt": (us_per_pt(rec, "pot"), "us"),
        "susy.quad.integrand_evals": (c["susy.quad.integrand_evals"], "count"),
    })
    known = set(ERROR_CLASSES) | {"raw", "check_failed"}
    for cls in ERROR_CLASSES:
        n = outcomes.failed[cls] + (outcomes.rejected if cls == "InadmissibleInputError" else 0)
        out[f"errors.{cls}"] = (n, "count")
    out["errors.other"] = (sum(n for k, n in outcomes.failed.items() if k not in known), "count")
    out["errors.raw"] = (outcomes.failed["raw"], "count")
    out["errors.check_failed"] = (outcomes.failed["check_failed"], "count")
    out["trace.overhead_frac"] = (extra["overhead"], "ratio")
    out["trace.spans"] = (tracer.n_spans, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qesforge" / "__init__.py").is_file():
        print(f"error: no qesforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare()
    import workloads  # numpy, scipy and qesforge load here

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    env = environment()
    print("environment:", json.dumps(env), flush=True)

    outcomes, rec, setup, tracer, extra = run(
        workload, args.seed, args.seconds, bool(args.trace), import_s
    )
    if not rec.units:
        print(f"error: {workload.name} completed no operation: {dict(outcomes.failed)}", file=sys.stderr)
        return 3
    gated = end_to_end(rec, outcomes, extra)
    named = workload_metrics(workload, rec, setup, outcomes)
    layers = per_layer(tracer, rec, extra) if tracer else {}

    print(f"{workload.name}: seed {args.seed}, {len(rec.blocks)} blocks of {workload.block_passes} passes "
          f"over {sum(rec.units.values())} {workload.unit}, "
          f"{outcomes.attempted} operations: {outcomes.ok} ok, {outcomes.rejected} rejected, "
          f"failed {dict(outcomes.failed) or 0}")
    for title, table in (("end-to-end", gated), ("workload", named), ("per-layer", layers)):
        for name, (value, unit, *note) in table.items():
            print(f"  {title:10s} {name:40s} {value:14.6g} {unit:6s} {' '.join(note)}")

    chosen = layers if tracer else gated
    result = {
        "correct": outcomes.untyped == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in chosen.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "outcomes": {"attempted": outcomes.attempted, "ok": outcomes.ok,
                     "rejected": outcomes.rejected, "failed": dict(outcomes.failed)},
        "end_to_end": gated,
        "workload_metrics": named,
        "per_layer": layers,
        "spans": tracer.kept_spans() if tracer else [],
    }
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
