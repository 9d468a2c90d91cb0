"""One set-up of l0geom in a fresh interpreter, timed from the inside.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Times what a caller pays before its first query: importing l0geom (and
with it NumPy), loading the config, and building an L0Solver with every
span family enumerated.  Prints one JSON line with the time and the
family sizes.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import l0geom

    config = l0geom.load_config(config_path)
    solver = l0geom.L0Solver(
        config.dictionary, config.fidelity, config.span_tol, config.feas_tol, config.dist_tol
    )
    sizes = [len(solver.family(k)) for k in range(config.dictionary.n_dim + 1)]
    elapsed = time.perf_counter() - _START
    print(json.dumps({"setup_s": elapsed, "family_sizes": sizes, "module": l0geom.__file__}))


if __name__ == "__main__":
    main()
