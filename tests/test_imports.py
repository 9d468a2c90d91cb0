"""What ``import l0geom`` loads, and the names it exports on first use.

The package loads a submodule the first time one of its names is read, so
a caller that only solves never loads the bounds, the Monte Carlo layer,
NumPy's RNG or a thread pool.  Import sets are read in a fresh
interpreter, since this test process has loaded every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import l0geom
from l0geom import bounds, config

SRC = str(Path(l0geom.__file__).resolve().parent.parent)

# The wlp3 dictionary of the CI smoke test: every solver layer, and a
# hit-or-miss volume and two-worker sampling once it validates.
WLP3 = {
    "dictionary": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1]],
    "fidelity": {"kind": "wlp", "p": 3, "weights": [1, 2, 0.5]},
    "tau_grid": [0.01, 0.02, 0.05],
    "samples": 10_000,  # three 4,096-draw chunks, so two workers split them
    "seed": 5,
}

# argv: config path, then "eager" to import every module up front.
SOLVE_THEN_VALIDATE = """
import json, sys
if sys.argv[2] == "eager":
    import l0geom.cli
import numpy as np
import l0geom

cfg = l0geom.load_config(sys.argv[1])
solver = l0geom.L0Solver(cfg.dictionary, cfg.fidelity)
for k in range(cfg.dictionary.n_dim + 1):
    solver.family(k)
solver.solve(np.array([0.3, -0.7, 0.2]), cfg.tau_grid[0])
loaded = sorted(sys.modules)
report = l0geom.validate_bounds(
    cfg.dictionary, cfg.fidelity, cfg.data, cfg.tau_grid, cfg.theta, cfg.K_list,
    quantities=cfg.quantities, n_samples=cfg.n_samples, seed=cfg.seed, workers=2,
)
print(json.dumps({"loaded": loaded, "csv": l0geom.report_to_csv(report)}))
"""

STAR_IMPORT = """
import importlib, json
namespace = {}
exec("from l0geom import *", namespace)
import l0geom
print(json.dumps({
    "unbound": [n for n in l0geom.__all__ if n not in namespace],
    "foreign": [
        n for n in l0geom.__all__
        if namespace[n] is not getattr(importlib.import_module(namespace[n].__module__), n)
        or not namespace[n].__module__.startswith("l0geom.")
    ],
}))
"""


def _fresh(script, *args):
    """JSON printed by ``script`` run in a new interpreter that finds l0geom first."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "wlp3.json"
    path.write_text(json.dumps(WLP3))
    return {mode: _fresh(SOLVE_THEN_VALIDATE, str(path), mode) for mode in ("lazy", "eager")}


def test_solving_loads_no_bounds_or_monte_carlo_layer(runs):
    loaded = set(runs["lazy"]["loaded"])
    assert {"l0geom.config", "l0geom.solver", "l0geom.subspaces"} <= loaded
    assert not loaded & {"l0geom.bounds", "l0geom.montecarlo", "l0geom.sampling", "l0geom.cli"}


def test_solving_loads_no_rng_or_thread_pool_beyond_numpy(runs):
    # NumPy 1.x loads numpy.random itself; then only what NumPy loads is allowed.
    baseline = set(_fresh("import json, sys, numpy; print(json.dumps(sorted(sys.modules)))"))
    unwanted = {"numpy.random", "concurrent.futures"} - baseline
    assert not set(runs["lazy"]["loaded"]) & unwanted


def test_a_lazy_process_validates_to_the_same_bytes(runs):
    assert "l0geom.bounds" in runs["eager"]["loaded"]
    assert runs["lazy"]["csv"] == runs["eager"]["csv"]


def test_star_import_binds_every_name_to_its_defining_module():
    assert _fresh(STAR_IMPORT) == {"unbound": [], "foreign": []}


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        l0geom.no_such_name


def test_dir_lists_every_export():
    assert set(l0geom.__all__) <= set(dir(l0geom))
    assert "cylinder_constant" not in l0geom.__all__ and "overlap_cap" not in l0geom.__all__


def test_quantity_lives_in_config_and_stays_in_bounds():
    assert bounds.Quantity is config.Quantity is l0geom.Quantity
