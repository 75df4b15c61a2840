"""Command line: ``qesforge inspect U eps0 eps1 [--period L] [--json]``.

Builds the system for a generating function and prints what it holds: the
admissibility checks, the structural patches, the branch map, the pole
registry, the point locator's intervals and the antiderivative table
lengths.  A typed failure prints its class (and its point, where it has one)
and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import susy
from .errors import QesError


def inspect(u: str, eps0: float, eps1: float, period: float) -> dict:
    """Everything a built and assembled system holds, as plain data."""
    system = susy.construct(u, eps0, eps1, period)
    assembly, bm = system._ensure_assembly(), system.branch_map
    return {
        "input": {"u": u, "eps0": eps0, "eps1": eps1, "period": period},
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in system.report.checks],
        "patches": [
            {"x": p.x, "kind": p.kind, "eval_halfwidth": p.eval_halfwidth, "vplus_pole": p.vplus_pole}
            for p in system.patches
        ],
        "branch_map": {"breakpoints": list(bm.breakpoints), "signs": list(bm.signs)},
        "poles": {name: [[x, rho] for x, rho in system.poles[name]] for name in susy.CHAIN_NAMES},
        "wrap_signs": list(assembly.wrap),
        "locator": [
            {"start": start, "patch": j, "side": side, "sign": sign}
            for start, (j, side, sign) in zip(system._starts, system._cells)
        ],
        "tables": {
            "segments": [list(b) for b in zip(assembly.seg_bounds[:-1], assembly.seg_bounds[1:])],
            "lengths": {
                name: [len(t.coef) for t in tables] for name, tables in zip(susy.CHAIN_NAMES, assembly.seg_tables)
            },
        },
    }


def _text(record: dict) -> str:
    lines = ["checks:"]
    lines += [f"  {'pass' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}" for c in record["checks"]]
    lines.append("patches:")
    for p in record["patches"]:
        pole = "  V+ pole" if p["vplus_pole"] else ""
        lines.append(f"  x={p['x']:.12g}  {p['kind']}  window +-{p['eval_halfwidth']:.6g}{pole}")
    bm = record["branch_map"]
    lines.append("branch map:")
    lines += [f"  from x={b:.12g}: sign {s:+d}" for b, s in zip(bm["breakpoints"], bm["signs"])]
    lines.append("poles:")
    for name, poles in record["poles"].items():
        lines.append(f"  {name}: " + (", ".join(f"x={x:.12g} residue {rho:+d}" for x, rho in poles) or "none"))
    lines.append("wrap signs: " + ", ".join(f"{w:+g}" for w in record["wrap_signs"]))
    lines.append("locator:")
    for cell in record["locator"]:
        where = "direct" if cell["patch"] < 0 else f"patch {cell['patch']} side {cell['side']:+d}"
        lines.append(f"  from x={cell['start']!r}: {where}, sign {cell['sign']:+d}")
    tables = record["tables"]
    lines.append("tables (coefficients per segment):")
    lines += [f"  {name}: {lengths}" for name, lengths in tables["lengths"].items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qesforge", description="Inspect a quasi-exactly-solvable system.")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("inspect", help="build a system and print what it holds")
    cmd.add_argument("u", help='generating function of x, eps0 and eps1, e.g. "4*eps0*eps1*sin(x)^2"')
    cmd.add_argument("eps0", type=float)
    cmd.add_argument("eps1", type=float)
    cmd.add_argument("--period", type=float, default=2.0 * math.pi)
    cmd.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    try:
        record = inspect(args.u, args.eps0, args.eps1, args.period)
    except QesError as exc:
        x = getattr(exc, "x", getattr(exc, "x0", None))
        error = {"error": type(exc).__name__, "message": str(exc), "x": x}
        report = getattr(exc, "report", None)
        if report is not None:
            error["failed_checks"] = [c.name for c in report.checks if not c.passed]
        if args.json:
            print(json.dumps(error))
        else:
            print(f"{error['error']}: {error['message']}", file=sys.stderr)
        return 1
    print(json.dumps(record) if args.json else _text(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
