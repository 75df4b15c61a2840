"""The ``qesforge inspect`` command, run as ``python -m qesforge.cli``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from qesforge import susy

SRC = Path(__file__).resolve().parent.parent / "src"
RAZAVY = "4*eps0*eps1*sin(x)^2"


def _run(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "qesforge.cli", "inspect", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_inspect_json_is_what_the_system_holds():
    out = _run(RAZAVY, "1.0", "0.5", "--json")
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    system = susy.construct(RAZAVY, 1.0, 0.5, 2.0 * math.pi)
    assembly = system._ensure_assembly()
    assert got["input"] == {"u": RAZAVY, "eps0": 1.0, "eps1": 0.5, "period": 2.0 * math.pi}
    assert [c["name"] for c in got["checks"]] == [c.name for c in system.report.checks]
    assert all(c["passed"] for c in got["checks"])
    assert [(p["x"], p["kind"], p["eval_halfwidth"]) for p in got["patches"]] == [
        (p.x, p.kind, p.eval_halfwidth) for p in system.patches
    ]
    assert got["branch_map"] == {"breakpoints": list(system.branch_map.breakpoints), "signs": list(system.branch_map.signs)}
    assert got["poles"] == {name: [list(p) for p in system.poles[name]] for name in susy.CHAIN_NAMES}
    starts = [cell["start"] for cell in got["locator"]]
    assert starts == system._starts and starts == sorted(starts)
    assert [(c["patch"], c["side"], c["sign"]) for c in got["locator"]] == system._cells
    assert got["tables"]["lengths"] == {
        name: [len(t.coef) for t in tables] for name, tables in zip(susy.CHAIN_NAMES, assembly.seg_tables)
    }


def test_inspect_text_names_each_section():
    out = _run(RAZAVY, "1.0", "0.5", "--period", str(2.0 * math.pi))
    assert out.returncode == 0, out.stderr
    for section in ("checks:", "patches:", "branch map:", "poles:", "locator:", "tables"):
        assert section in out.stdout
    assert "origin_structural" in out.stdout


def test_inspect_typed_failure_exits_nonzero_with_its_class():
    out = _run("sin(x)", "1.0", "0.5")
    assert out.returncode == 1
    assert out.stderr.startswith("InadmissibleInputError: ")
    out = _run("2.5*sin(x)^2", "1.0", "0.5", "--json")
    assert out.returncode == 1
    got = json.loads(out.stdout)
    assert got["error"] == "InadmissibleInputError" and "curvature_at_double_zeros" in got["failed_checks"]
    out = _run("sin(x", "1.0", "0.5", "--json")
    assert out.returncode == 1 and json.loads(out.stdout)["error"] == "ParseError"
