"""The package runs on numpy alone: scipy is a test dependency only."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# With sys.modules["scipy"] = None, any import of scipy or a submodule raises
# ImportError, so a run that completes proves no path reaches for it.
CHILD = """
import json, math, sys
sys.modules["scipy"] = None
import numpy as np
from qesforge import susy

system = susy.construct("4*eps0*eps1*sin(x)^2", 1.0, 0.5, 2.0 * math.pi)
xs = np.linspace(0.0, 2.0 * math.pi, 64)
values = [
    *system.wavefunctions_minus(xs),
    *system.wavefunctions_plus(xs),
    *system.potentials(xs),
    system.potentials(1.0),
    system.log_weight(1, xs),
    system.integrate_superpotential(0, 0.1, 3.0),
]
print(json.dumps({
    "finite": all(bool(np.all(np.isfinite(v))) for v in values),
    "scipy": sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None),
}))
"""


def test_package_runs_without_scipy():
    flags = ["-O"] if sys.flags.optimize else []
    out = subprocess.run(
        [sys.executable, *flags, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result == {"finite": True, "scipy": []}
