#!/usr/bin/env python3
"""l0geom benchmark: ``validate`` and ``solve`` end to end, with a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs traced and untraced validates side by side
and a traced solve loop, and reports the per-layer metrics.  Both check
every output (see NOTES.md) and print, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metric names and units come from
BENCHMARK.json at the repository root.
"""

import os

# Pin the BLAS/OpenMP pools before NumPy loads, so that "2 threads" means
# l0geom's own worker threads and nothing else.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
# l0geom's CLI lets these override the config's seed and thread count; the
# benchmark passes both explicitly and wants no stray value from outside.
for _name in ("L0GEOM_SEED", "L0GEOM_THREADS"):
    os.environ.pop(_name, None)

import argparse
import csv
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"  # per-run configs and CSVs, removed at exit
OUT = ROOT / ".perfbench_out"  # span dumps of traced runs

SETUP_REPS = 5  # timed set-ups per run, after one untimed warm-up
MIN_ROUNDS = 4  # of the end-to-end round robin, so each validate runs 4 times or more
SOLVES_PER_ROUND = 500  # solve vectors per round; the loop cycles through all of them
HARD_LIMIT_S = 150.0  # no validate may run past this point of a run


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


class CapExceeded(Exception):
    """A validate call, or the solve loop, ran past the workload's wall-time cap."""


@dataclass
class Ledger:
    """Operations attempted and failed.  An operation is a validate cell or a solve."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if note and len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class ValidateLog:
    """Checks every validate CSV against the first one of the run.

    The CSV must be byte-identical across thread counts and between traced
    and untraced runs; a mismatching run counts all of its cells as failed,
    as does a run that errors or passes its cap.
    """

    ledger: Ledger
    reference: bytes | None = None
    cells: int = 0

    def record(self, label: str, rc: int | None, data: bytes | None) -> tuple[int, int, int]:
        if rc not in (0, 2) or data is None:
            lost = max(self.cells, 1)
            self.ledger.add(lost, lost, f"{label}: validate failed (exit {rc})")
            return lost, lost, 0
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        failed = sum(1 for row in rows if row.get("pass") == "false")
        invalid = sum(1 for row in rows if row.get("pass") == "")
        if self.reference is None:
            self.reference, self.cells = data, len(rows)
        elif data != self.reference:
            self.ledger.add(len(rows), len(rows), f"{label}: CSV differs from the first run")
            return len(rows), len(rows), invalid
        self.ledger.add(len(rows), failed, f"{label}: {failed} cells failed" if failed else None)
        return len(rows), failed, invalid


def import_program():
    """Import l0geom from this checkout's src/, and nowhere else."""
    if not (SRC / "l0geom" / "__init__.py").is_file():
        raise BenchError(f"no l0geom sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import l0geom
    import l0geom.cli

    if Path(l0geom.__file__).resolve().parent != SRC / "l0geom":
        raise BenchError(f"imported l0geom from {l0geom.__file__}, expected {SRC}")
    return l0geom


def environment() -> dict[str, Any]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(config_path: Path) -> dict[str, Any]:
    """One set-up of l0geom in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@contextmanager
def wall_cap(seconds: float) -> Iterator[None]:
    """Raise CapExceeded in the main thread once ``seconds`` have passed.

    At two threads the worker pool still drains the chunks it was given
    before the exception leaves ``map_chunks``.
    """
    def on_alarm(signum, frame):
        raise CapExceeded(f"wall-time cap of {seconds:.3g} s exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, l0geom, workload: workloads.Workload, workdir: Path, seconds: int) -> None:
        self.l0geom = l0geom
        self.w = workload
        self.seconds = seconds
        self.config_path = workdir / "config.json"
        self.csv_path = workdir / "validate.csv"
        self.config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.config = l0geom.load_config(str(self.config_path))
        self.ledger = Ledger()
        self.log = ValidateLog(self.ledger)
        self.started = time.perf_counter()
        self.capped = False
        self.last_cells = (0, 0, 0)

    # -- validate ----------------------------------------------------------

    def validate(self, threads: int, label: str, tracer: Tracer | None = None) -> float | None:
        """Run ``l0geom validate`` in process; return its wall time, None if capped.

        ``self.last_cells`` receives (cells, failed, invalid) of the run.
        """
        cap = min(self.w.cap_s, HARD_LIMIT_S - (time.perf_counter() - self.started))
        if cap <= 0:
            self.capped = True
            self.last_cells = self.log.record(f"{label}: not started, out of time", None, None)
            return None
        self.csv_path.unlink(missing_ok=True)
        argv = ["validate", "--config", str(self.config_path), "--seed", str(self.w.seed),
                "--threads", str(threads), "--output", str(self.csv_path)]
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                with wall_cap(cap), tracer.span("cli.validate") if tracer is not None else nullcontext():
                    rc = self.l0geom.cli.main(argv)
            except CapExceeded as err:
                self.capped = True
                self.last_cells = self.log.record(f"{label}: {err}", None, None)
                return None
            except Exception as err:  # a crash is a failed operation, not a dead benchmark
                self.last_cells = self.log.record(f"{label}: {type(err).__name__}: {err}", None, None)
                return time.perf_counter() - start
            elapsed = time.perf_counter() - start
        data = self.csv_path.read_bytes() if self.csv_path.exists() else None
        self.last_cells = self.log.record(label, rc, data)
        return elapsed

    # -- the two modes -----------------------------------------------------

    def end_to_end(self) -> tuple[dict[str, float], dict[str, Any]]:
        """Round robin of set-up, a block of solves and 1- and 2-thread validates.

        Every round does one of each, so a slow spell on the machine lands
        on all metrics alike.  Rounds repeat until ``seconds`` have passed
        and there are MIN_ROUNDS of them; then set-ups are topped up to
        SETUP_REPS.  Set-up reports the median of its repetitions.  The
        validates report the mean of theirs: the machine's slow and fast
        spells last several seconds, so a run's repetitions fall into two
        groups, and their median jumps between the groups from run to run
        where their mean moves in step with the share of slow time.
        """
        family_sizes = measure_setup(self.config_path)["family_sizes"]  # warm-up, untimed
        solves = SolveLoop(self)
        setups: list[float] = []
        times: dict[int, list[float]] = {1: [], 2: []}
        deadline = time.perf_counter() + self.seconds
        while not self.capped:
            setups.append(measure_setup(self.config_path)["setup_s"])
            solves.run(SOLVES_PER_ROUND)
            if self.capped:
                break
            for threads in (1, 2):
                seconds = self.validate(threads, f"validate {threads}t #{len(times[threads])}")
                if seconds is None:
                    break
                times[threads].append(seconds)
            done = min(len(t) for t in times.values()) >= MIN_ROUNDS
            if done and time.perf_counter() >= deadline:
                break
        if not self.capped:
            while len(setups) < SETUP_REPS:
                setups.append(measure_setup(self.config_path)["setup_s"])
        per_vector = solves.mean_ms()
        p50, p99 = np.percentile(per_vector, [50, 99]) if per_vector.size else (self.w.cap_s * 1e3,) * 2
        metrics = {
            "setup_s": statistics.median(setups),
            "validate_s": statistics.mean(times[1]) if times[1] else self.w.cap_s,
            "validate_2t_s": statistics.mean(times[2]) if times[2] else self.w.cap_s,
            "solve_p50_ms": float(p50),
            "solve_p99_ms": float(p99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = {"family_sizes": family_sizes, "setup_reps_s": setups,
                "validate_reps_s": times, "solve_calls": solves.calls}
        return metrics, info

    def traced(self) -> tuple[dict[str, float], dict[str, Any]]:
        tracer = Tracer()
        untraced, traced, reps = [], [], []
        deadline = time.perf_counter() + self.seconds
        while not self.capped:
            plain = self.validate(1, f"untraced #{len(untraced)}")
            tracer.reset()
            seconds = None if plain is None else self.validate(1, f"traced #{len(traced)}", tracer)
            if seconds is None:
                break
            untraced.append(plain)
            traced.append(seconds)
            reps.append(layer_metrics(tracer, seconds, self.last_cells, self.config.n_samples))
            if time.perf_counter() >= deadline:
                break
        validate_spans = tracer.dump()

        tracer.reset()
        solve_start = time.perf_counter()
        SolveLoop(self, tracer).run(len(self.w.solve_data))
        solve = {
            "solver.solve.busy_s": tracer.busy_s("solver.solve"),
            "solver.solve.calls": tracer.calls["solver.solve"],
            "solver.subspace_distance.calls": tracer.calls["solver.subspace_distance"],
            "solver.solve.lp_solves": tracer.calls["simplex.solve_standard_form"],
        }
        write_spans(self.w, validate_spans, tracer.dump())
        if reps:
            metrics = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
            metrics["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(untraced)
            metrics.update(solve)
        else:  # the first pair was capped: its cells already count as failed
            metrics = {}
        info = {"validate_reps_s": {"untraced": untraced, "traced": traced},
                "solve_phase_s": time.perf_counter() - solve_start,
                "missing_sites": tracer.missing}
        return metrics, info


class SolveLoop:
    """Closed loop over the workload's solve vectors: one caller, no think time.

    Each ``run`` solves the next ``count`` vectors back to back, cycling
    through all of them.  A vector's latency is the mean of its calls,
    which the end-to-end mode spreads over the whole run, leaving out its
    slowest call.  One call lasts from a fraction of a millisecond to a
    few, so it falls inside a single fast or slow spell of the machine,
    and only the mean over spells moves smoothly with the machine's state.
    About one call in 400 stalls for milliseconds, and one stall would
    lift its vector's mean past p99.  Every solve is checked for feasibility and against
    values_from_profiles on the same vector, computed once up front.
    """

    def __init__(self, runner: Runner, tracer: Tracer | None = None) -> None:
        c = runner.config
        self.runner = runner
        self.tracer = tracer
        self.solver = runner.l0geom.L0Solver(
            c.dictionary, c.fidelity, c.span_tol, c.feas_tol, c.dist_tol
        )
        for k in range(c.dictionary.n_dim + 1):
            self.solver.family(k)
        self.data, self.tau = runner.w.solve_data, runner.w.solve_tau
        self.expected = runner.l0geom.values_from_profiles(
            self.solver.distance_profiles(self.data), self.tau, c.feas_tol
        )
        self.thresh = self.tau * (1.0 + c.feas_tol)
        self.calls = 0
        self.sum_ms = np.zeros(len(self.data))
        self.max_ms = np.zeros(len(self.data))
        self.timed = np.zeros(len(self.data), dtype=int)
        self.busy_s = 0.0  # time spent in run, held to the workload's cap

    def mean_ms(self) -> np.ndarray:
        """Latency of each vector solved twice or more, in ms: the mean without the slowest call."""
        seen = self.timed > 1
        return (self.sum_ms[seen] - self.max_ms[seen]) / (self.timed[seen] - 1)

    def run(self, count: int) -> None:
        ledger = self.runner.ledger
        start = time.perf_counter()
        done = 0
        try:
            with wall_cap(max(self.runner.w.cap_s - self.busy_s, 1e-3)), (
                self.tracer.installed() if self.tracer is not None else nullcontext()
            ):
                for _ in range(count):
                    i = self.calls % len(self.data)
                    self.calls += 1
                    done += 1
                    t0 = time.perf_counter()
                    try:
                        result = self.solver.solve(self.data[i], self.tau)
                    except CapExceeded:
                        raise
                    except Exception as err:  # count it and keep measuring
                        ledger.add(1, 1, f"solve {i}: {type(err).__name__}: {err}")
                        continue
                    ms = (time.perf_counter() - t0) * 1e3
                    self.sum_ms[i] += ms
                    self.max_ms[i] = max(self.max_ms[i], ms)
                    self.timed[i] += 1
                    bad = result.residual > self.thresh or result.value != int(self.expected[i])
                    ledger.add(1, int(bad), f"solve {i}: wrong result" if bad else None)
        except CapExceeded as err:
            left = count - done + 1
            ledger.add(left, left, f"solve loop: {err}")
            self.runner.capped = True
        finally:
            self.busy_s += time.perf_counter() - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_s: float, cells: tuple[int, int, int], n_samples: int) -> dict[str, float]:
    """Per-layer numbers of one traced validate, named <module>.<what>."""
    (root,) = [i for i in tr.roots() if tr.spans[i].name == "cli.validate"]
    root_span = tr.spans[root]
    root_s = root_span.end - root_span.start
    children = tr.children_s(root)
    spans_calls = tr.calls["subspaces.enumerate_spans"]
    lp = tr.calls["simplex.solve_standard_form"]
    return {
        "sampling.busy_s": tr.busy_s("sampling.sample_levelset_batch"),
        "sampling.samples": tr.counts["sampling.samples"],
        "streams.busy_s": tr.tally_s["streams.map_chunks"],
        "streams.chunks": tr.counts["streams.chunks"],
        "subspaces.enumerate_spans.busy_s": tr.busy_s("subspaces.enumerate_spans"),
        "subspaces.enumerate_spans.calls": spans_calls,
        "subspaces.enumerate_spans.repeat_calls": tr.counts["subspaces.enumerate_spans.repeat_calls"],
        "subspaces.enumerate_spans.repeat_share": _ratio(
            tr.counts["subspaces.enumerate_spans.repeat_calls"], spans_calls),
        "subspaces.members": tr.counts["subspaces.members"],
        "subspaces.subsets_tried": tr.counts["subspaces.subsets_tried"],
        "subspaces.member_yield": _ratio(
            tr.counts["subspaces.members"], tr.counts["subspaces.subsets_tried"]),
        "subspaces.enumerate_pairs.busy_s": tr.busy_s("subspaces.enumerate_pairs"),
        "subspaces.pairs": tr.counts["subspaces.pairs"],
        "subspaces.intersection_dim.calls": tr.calls["subspaces.intersection_dim"],
        "subspaces.intersection_basis.busy_s": tr.busy_s("subspaces.intersection_basis"),
        "solver.distance_profiles.busy_s": tr.busy_s("solver.distance_profiles"),
        "solver.distance_profiles.self_s": tr.self_s("solver.distance_profiles"),
        "solver.member_rows": tr.counts["solver.member_rows"],
        "solver.values_from_profiles.busy_s": tr.busy_s("solver.values_from_profiles"),
        "solver.values_from_profiles.calls": tr.calls["solver.values_from_profiles"],
        "solver.values_from_profiles.taus": len(tr.taus),
        "solver.values_from_profiles.calls_per_tau": _ratio(
            tr.calls["solver.values_from_profiles"], len(tr.taus)),
        "simplex.lp_solves": lp,
        "simplex.busy_s": tr.busy_s("simplex.solve_standard_form"),
        "simplex.lp_per_sample": _ratio(lp, n_samples),
        "simplex.lp_per_sample.base": n_samples,
        "norms.hit_or_miss.busy_s": tr.busy_s("norms.hit_or_miss"),
        "norms.hit_or_miss.draws": tr.counts["norms.hit_or_miss.draws"],
        "norms.ball_volume.busy_s": tr.busy_s("norms.ball_volume"),
        "bounds.projected_ball_volume.busy_s": tr.busy_s("bounds.projected_ball_volume"),
        "bounds.slice_volume.busy_s": tr.busy_s("bounds.slice_volume"),
        "bounds.overlap_constant.busy_s": tr.busy_s("bounds.overlap_constant"),
        "bounds.overlap_constant.calls": tr.calls["bounds.overlap_constant"],
        "bounds.assemble_constants.self_s": tr.self_s("bounds.assemble_constants"),
        "bounds.bound_report.busy_s": tr.busy_s("bounds.bound_report"),
        "montecarlo.validate_bounds.self_s": tr.self_s("montecarlo.validate_bounds"),
        "montecarlo.cells": cells[0],
        "montecarlo.cells_failed": cells[1],
        "montecarlo.cells_invalid": cells[2],
        "config.load_config.busy_s": tr.busy_s("config.load_config"),
        "trace.validate_s": traced_s,
        "trace.root_self_s": root_s - children,
        "trace.spans": len(tr.spans),
    }


def write_spans(w: workloads.Workload, validate_spans: list, solve_spans: list) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{w.seed}.spans.json"
    path.write_text(json.dumps({"validate": validate_spans, "solve": solve_spans}), encoding="utf-8")


def load_spec() -> dict[str, Any]:
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {SPEC}: {err}") from err


def capped_metrics(entries: list[dict[str, Any]], cap_s: float) -> dict[str, float]:
    """Stand-in values for a run whose first validate passed its cap.

    Times read as the cap and counts as 0; the run's result is already
    marked incorrect by the failed cells.
    """
    scale = {"s": 1.0, "ms": 1e3}
    return {e["name"]: cap_s * scale.get(e["unit"], 0.0) for e in entries}


def result_metrics(values: dict[str, float], entries: list[dict[str, Any]]) -> dict[str, Any]:
    """Exactly the metrics BENCHMARK.json lists for this mode, with their units."""
    names = [e["name"] for e in entries]
    if set(values) != set(names):
        raise BenchError(
            f"metrics out of step with BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"unlisted {sorted(set(values) - set(names))}"
        )
    return {e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in entries}


def run(workload: workloads.Workload, seconds: int, trace: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """Measure one workload; return the result object and an info object."""
    spec = load_spec()
    l0geom = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{workload.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(l0geom, workload, workdir, seconds)
        values, info = runner.traced() if trace else runner.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = runner.ledger
    entries = spec["per_layer" if trace else "end_to_end"]
    if not values and ledger.failed:
        values = capped_metrics(entries, workload.cap_s)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics(values, entries),
    }
    info.update(
        workload=workload.name, seed=workload.seed, trace=int(trace), env=environment(),
        csv_sha256=hashlib.sha256(runner.log.reference or b"").hexdigest(),
        notes=ledger.notes,
    )
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result, info = run(workloads.generate(args.workload, args.seed), args.seconds, bool(args.trace))
    except BenchError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
