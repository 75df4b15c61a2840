"""Self-test of the benchmark: every workload at minimal size, untraced and traced.

    python3 bench/selftest.py

Asserts that each run prints every metric BENCHMARK.json names (end-to-end
untraced, per-layer traced), that every metric the benchmark's issue named
appears under some table, that the output checks pass, and that tracing
restores every wrapped attribute.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Named per workload by the benchmark's issue; gated ones are generic names.
NAMED = {
    "family-scan": ("scan_pts_per_s", "build_s", "build_tail_s", "first_psi_s"),
    "dense-grid": ("psi_pts_per_s", "potential_pts_per_s"),
    "quadrature": ("quad_per_s",),
}
NAMED_ALL = ("setup_s", "fail_frac", "peak_rss_mb", "op_median_ms", "op_tail_ms")


def check(ok, message):
    if not ok:
        raise AssertionError(message)


def small_workloads(workloads):
    scan = workloads.FamilyScan(
        grid=((0.0, 1.0, 0.5), (0.0, 1.0, 2.5), (0.0, 3.2, 2.5)), probes=2
    )
    dense = workloads.DenseGrid(members=((0.0, 1.0, 0.5),), points=128)
    quad = workloads.Quadrature(members=((0.0, 1.0, 0.5),), pieces=2)
    for w in (scan, dense, quad):
        w.setup_repeats = 1
        w.block_passes = 1
    return scan, dense, quad


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.prepare()
    import workloads
    from qesforge import expr, jets, susy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names")
    originals = (expr.eval_jet, jets.Jet.__mul__, susy.quad)

    for workload in small_workloads(workloads):
        for trace in (False, True):
            outcomes, rec, setup, tracer, extra = run.run(workload, 7, 0.0, trace, 0.0)
            gated = run.end_to_end(rec, outcomes, extra)
            named = run.workload_metrics(workload, rec, setup, outcomes)
            tag = f"{workload.name} trace={int(trace)}"
            check(outcomes.untyped == 0, f"{tag}: output checks failed: {dict(outcomes.failed)}")
            check(set(gated) == e2e_names, f"{tag}: end-to-end {sorted(set(gated) ^ e2e_names)}")
            missing = set(NAMED[workload.name] + NAMED_ALL) - set(named) - set(gated)
            check(not missing, f"{tag}: named metrics missing {sorted(missing)}")
            for name, (value, *_) in gated.items():
                check(math.isfinite(value) and value > 0, f"{tag}: {name} = {value}")
            if trace:
                layers = run.per_layer(tracer, rec, extra)
                check(set(layers) == layer_names, f"{tag}: per-layer {sorted(set(layers) ^ layer_names)}")
                check(tracer.calls["susy.construct"] > 0 and tracer.n_spans > 0, f"{tag}: no spans")
                check((expr.eval_jet, jets.Jet.__mul__, susy.quad) == originals, f"{tag}: not restored")
            print(f"ok  {tag}: {outcomes.attempted} operations, failed {dict(outcomes.failed)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
