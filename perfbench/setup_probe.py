"""Set-up time of one workload in a fresh interpreter.

`python3 setup_probe.py <src dir> <scenario.yaml>...` imports `specpert.cli`,
loads each scenario (YAML plus JSON-schema validation) and builds its grid
and family, then prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from specpert import cli, lattice  # noqa: E402

for path in sys.argv[2:]:
    doc = cli.load_scenario(Path(path))
    if "grid" in doc:
        lattice.Grid(extent=tuple((float(a), float(b)) for a, b in doc["grid"]["extent"]),
                     points=tuple(int(n) for n in doc["grid"]["points"]))
    cli.build_family(doc["family"], np.random.default_rng(int(doc["seed"])))
print(repr(time.perf_counter() - t0))
