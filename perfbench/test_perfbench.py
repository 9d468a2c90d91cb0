"""Self-test of the benchmark: run with ``python3 -m pytest perfbench -q``.

Uses tiny configs, so it takes seconds rather than a benchmark run's
minute.  It checks that every metric BENCHMARK.json names is emitted with
its unit, that the workload generator is a pure function of its seed,
that tracing does not change the program's output, that the wall-time cap
turns a slow run into failed operations, and that the benchmark refuses
to run without the program's sources.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracing import SITES, Tracer


def tiny(fidelity: str, data: str, samples: int, cap_s: float = 30.0) -> workloads.Workload:
    config = {
        "dictionary": [list(a) for a in workloads.DICT3],
        "fidelity": {"kind": fidelity},
        "data": {"kind": data},
        "tau_grid": [0.05, 0.1],
        "samples": samples,
        "theta": 1.0,
        "seed": 7,
        "threads": 1,
    }
    vectors = workloads.uniform_ball(np.random.default_rng(0), data, 3, 40, 1.0)
    return workloads.Workload("tiny", 7, config, vectors, 0.1, cap_s)


def spec_units(mode: str) -> dict[str, str]:
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    return {e["name"]: e["unit"] for e in spec[mode]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_a_pure_function_of_the_seed(name):
    a, b, other = (workloads.generate(name, s) for s in (3, 3, 4))
    assert json.dumps(a.config) == json.dumps(b.config)
    assert np.array_equal(a.solve_data, b.solve_data)
    assert (a.solve_tau, a.cap_s) == (b.solve_tau, b.cap_s)
    assert a.config["seed"] != other.config["seed"]
    assert not np.array_equal(a.solve_data, other.solve_data)
    assert a.solve_data.shape[0] >= 1000


def test_solve_vectors_lie_in_the_data_ball():
    for name in workloads.NAMES:
        w = workloads.generate(name, 5)
        order = 2 if w.config["data"]["kind"] == "l2" else 1
        assert np.all(np.linalg.norm(w.solve_data, ord=order, axis=1) <= w.config["theta"])


def test_end_to_end_mode_emits_every_metric_with_its_unit():
    result, info = run.run(tiny("l2", "l2", 5000), seconds=1, trace=False)
    units = spec_units("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert info["env"]["blas_threads"] == "1"
    assert len(info["validate_reps_s"][1]) >= run.MIN_ROUNDS


def test_traced_mode_emits_every_layer_with_its_unit():
    result, info = run.run(tiny("linf", "l1", 64), seconds=1, trace=True)
    units = spec_units("per_layer")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(units)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name] and math.isfinite(metric["value"])
    assert info["missing_sites"] == []
    assert values["simplex.lp_solves"] > 0
    assert values["solver.solve.calls"] == 40
    assert values["montecarlo.cells"] > 0
    assert 0.0 <= values["trace.root_self_s"] < values["trace.validate_s"]


def test_euclidean_trace_runs_no_linear_program():
    result, _ = run.run(tiny("l2", "l2", 5000), seconds=1, trace=True)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["simplex.lp_solves"] == 0
    assert values["solver.solve.lp_solves"] == 0
    assert values["sampling.samples"] == 5000
    assert values["simplex.busy_s"] == 0


def test_tracing_does_not_change_the_csv():
    l0geom = run.import_program()
    workdir = run.WORK / "selftest-csv"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(l0geom, tiny("linf", "l1", 64), workdir, seconds=1)
        assert runner.validate(1, "untraced") is not None
        assert runner.validate(1, "traced", Tracer()) is not None
        assert runner.validate(2, "two threads") is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert runner.ledger.failed == 0 and runner.log.reference is not None


def test_tracer_puts_every_original_back():
    run.import_program()
    tracer = Tracer()

    def current():
        out = []
        for site, attr, *_ in SITES:
            module_name, _, class_name = site.partition(":")
            owner = importlib.import_module(module_name)
            out.append(getattr(getattr(owner, class_name) if class_name else owner, attr))
        return out

    before = current()
    with tracer.installed():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_past_its_cap_counts_as_failed(trace):
    result, info = run.run(tiny("linf", "l1", 4000, cap_s=0.05), seconds=1, trace=trace)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("cap" in note for note in info["notes"])
    units = spec_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        for path in run.BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "poly3", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
