"""Record bench/reference.json: outcomes and probe values of the sweep grid.

For every family-scan grid point and every fixed member of dense-grid and
quadrature this stores the outcome of a validated construct ("ok" or the
error class).  For members that build it stores a
fixed pool of probe points spanning [-L, 2L), so period images are covered,
with psi- (three states), psi+ (two states) and (V-, V+) at each.  The
benchmark checks its outputs against these values, so record them once, at
a commit whose numbers are trusted, and commit the file:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_SIZE = 16
POOL_SEED = 20050719


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    from qesforge import susy

    from workloads import MEMBERS, PERIOD, REFERENCE_PATH, SCAN_GRID, generating_function, member_key

    rng = random.Random(POOL_SEED)
    out = {}
    for member in dict.fromkeys(SCAN_GRID + MEMBERS):
        a, e0, e1 = member
        try:
            system = susy.construct(generating_function(a), e0, e1, PERIOD)
        except Exception as exc:
            out[member_key(*member)] = {"outcome": type(exc).__name__}
            continue
        xs = sorted(rng.uniform(-PERIOD, 2.0 * PERIOD) for _ in range(POOL_SIZE))
        pm = system.wavefunctions_minus(np.asarray(xs))
        pp = system.wavefunctions_plus(np.asarray(xs))
        v = [system.potentials(x) for x in xs]
        out[member_key(*member)] = {
            "outcome": "ok",
            "x": xs,
            "psi_minus": [row.tolist() for row in pm],
            "psi_plus": [row.tolist() for row in pp],
            "potentials": [[p[0] for p in v], [p[1] for p in v]],
        }
        print(member_key(*member), "ok", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
