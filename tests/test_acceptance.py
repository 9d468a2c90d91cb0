"""End-to-end acceptance suite: twelve numbered checks, one line printed each.

Checks 2 through 8 build deterministic text artifacts through a shared
builder; check 9 rebuilds every artifact with 2 and 8 worker threads and
requires byte identity with the single-threaded build.  Check 1 (solver
versus brute force) is randomized but seeded, and timed.  Checks 10, 11
and 12 run non-Euclidean validations end to end: linf fidelity with l1
data, weighted lp (p = 3) fidelity with l2 data, and l1 data on the
identity in R^6, whose exact constants must not depend on the seed.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from l0geom import (
    Dictionary,
    LevelSetExperiment,
    NormSpec,
    Quantity,
    assemble_constants,
    constants_to_csv,
    fit_asymptote,
    norm_eval,
    orthonormal_basis,
    report_to_csv,
    solve_l0,
    spans_equal,
    validate_bounds,
)
from l0geom.bounds import euclid_ck
from l0geom.solver import threshold
from l0geom.subspaces import enumerate_spans
from oracles import tube_overlap_measure
from test_bounds import monte_carlo_volume

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
AXES2 = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0]])
DICT3 = Dictionary.from_vectors(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
)
RHO = 8.0 / math.pi  # leading slope of P(value <= 1) for the two-axis setup

SAMPLES = 1_000_000
SEED = 42
TAUS_SANDWICH = (0.01, 0.02, 0.05)
TAUS_SLOPE = (0.01, 0.02, 0.05, 0.1)
TAUS_OVERLAP = (0.02, 0.05)

_ARTIFACTS: dict[int, dict[str, str]] = {}
_TIMES: dict[tuple[int, str], float] = {}


def _checked(number, label, body):
    try:
        detail = body()
    except BaseException:
        print(f"check {number} ({label}): FAIL")
        raise
    print(f"check {number} ({label}): PASS" + (f" — {detail}" if detail else ""))


def _oracle_distance(spec, atoms, d):
    """Independent route: least squares for l2, scipy LPs for l1 and linf."""
    n = d.size
    if atoms.shape[1] == 0:
        return float(norm_eval(spec, d))
    if spec.kind == "l2":
        res = d - atoms @ np.linalg.lstsq(atoms, d, rcond=None)[0]
        return float(np.linalg.norm(res))
    k = atoms.shape[1]
    if spec.kind == "l1":
        a = np.hstack([atoms, -atoms, np.eye(n), -np.eye(n)])
        c = np.concatenate([np.zeros(2 * k), np.ones(2 * n)])
        ref = linprog(c, A_eq=a, b_eq=d, method="highs")
    else:
        cols = 2 * k + 1 + 2 * n
        a = np.zeros((2 * n, cols))
        a[:n, :k], a[:n, k : 2 * k], a[:n, 2 * k] = atoms, -atoms, 1.0
        a[:n, 2 * k + 1 : 2 * k + 1 + n] = -np.eye(n)
        a[n:, :k], a[n:, k : 2 * k], a[n:, 2 * k] = atoms, -atoms, -1.0
        a[n:, 2 * k + 1 + n :] = np.eye(n)
        c = np.zeros(cols)
        c[2 * k] = 1.0
        ref = linprog(c, A_eq=a, b_eq=np.concatenate([d, d]), method="highs")
    assert ref.status == 0
    return float(ref.fun)


def _oracle_value(spec, dictionary, d, tau):
    thresh = tau * (1.0 + 1e-10)
    for size in range(dictionary.n_atoms + 1):
        for subset in combinations(range(dictionary.n_atoms), size):
            if _oracle_distance(spec, dictionary.subset(subset), d) <= thresh:
                return size
    return None


def _random_dictionary(rng, n, m):
    while True:
        try:
            return Dictionary.from_vectors(rng.standard_normal((m, n)))
        except ValueError:
            continue


def _timed(workers, name, fn):
    start = time.monotonic()
    result = fn()
    _TIMES[(workers, name)] = time.monotonic() - start
    return result


def build_artifacts(workers):
    if workers in _ARTIFACTS:
        return _ARTIFACTS[workers]
    art = {}

    def feasibility():
        exp = LevelSetExperiment(
            DICT3, L2, L2, theta=1.0, n_samples=100_000, seed=SEED, workers=workers
        )
        feasible = exp.profiles <= threshold(0.05)
        n_infeasible = int(np.count_nonzero(~feasible.any(axis=1)))
        counts = np.bincount(exp.values(0.05), minlength=4)
        lines = ["val,count"]
        lines += [f"{v},{c}" for v, c in enumerate(counts)]
        lines.append(f"n_infeasible,{n_infeasible}")
        return "\n".join(lines) + "\n"

    art["feasibility"] = _timed(workers, "feasibility", feasibility)

    def families():
        rng = np.random.default_rng(777)
        lines = ["dictionary,n,m,K,family_size,subset_cap"]
        for index in range(50):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            d = _random_dictionary(rng, n, m)
            for K in range(n + 1):
                family = enumerate_spans(d, K)
                lines.append(
                    f"{index},{n},{m},{K},{len(family.members)},{math.comb(m, K)}"
                )
        return "\n".join(lines) + "\n"

    art["families"] = _timed(workers, "families", families)

    def volumes():
        line2 = orthonormal_basis([[1.0, 1.0]])
        line3 = orthonormal_basis([[1.0, 2.0, 2.0]])
        plane3 = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        full2 = orthonormal_basis(np.eye(2))
        cells = [
            ("shadow_line_r2", monte_carlo_volume("shadow", L2, line2, SAMPLES, SEED, 0), 2.0),
            ("shadow_line_r3", monte_carlo_volume("shadow", L2, line3, SAMPLES, SEED, 1), math.pi),
            ("shadow_plane_r3", monte_carlo_volume("shadow", L2, plane3, SAMPLES, SEED, 2), 2.0),
            ("slice_line_r3", monte_carlo_volume("slice", L2, line3, SAMPLES, SEED, 3), 2.0),
            ("slice_plane_r3", monte_carlo_volume("slice", L2, plane3, SAMPLES, SEED, 4), math.pi),
            ("slice_full_r2", monte_carlo_volume("slice", L2, full2, SAMPLES, SEED, 5), math.pi),
        ]
        lines = ["name,estimate,target"]
        lines += [f"{name},{est.value!r},{target!r}" for name, est, target in cells]
        shadow = dict((name, est.value) for name, est, _ in cells)
        for name, prod, K, n in (
            ("cylinder_r2", shadow["shadow_line_r2"] * shadow["shadow_line_r2"], 1, 2),
            ("cylinder_line_r3", shadow["shadow_line_r3"] * shadow["slice_line_r3"], 1, 3),
            ("cylinder_plane_r3", shadow["shadow_plane_r3"] * shadow["slice_plane_r3"], 2, 3),
        ):
            lines.append(f"{name},{prod!r},{euclid_ck(K, n)!r}")
        return "\n".join(lines) + "\n"

    art["volumes"] = _timed(workers, "volumes", volumes)

    def sandwich():
        report = validate_bounds(
            AXES2, L2, L2, TAUS_SANDWICH, 1.0, (0, 1, 2),
            quantities=tuple(Quantity), n_samples=SAMPLES, seed=SEED, workers=workers,
        )
        return report_to_csv(report)

    art["sandwich"] = _timed(workers, "sandwich", sandwich)

    def slopes_and_overlap():
        exp = LevelSetExperiment(
            AXES2, L2, L2, theta=1.0, n_samples=SAMPLES, seed=SEED, workers=workers
        )
        lines = ["tau,hits_leq0,hits_leq1,expect"]
        p0s, p1s, gaps = [], [], []
        for tau in TAUS_SLOPE:
            vals = exp.values(tau)
            hits0 = int(np.count_nonzero(vals <= 0))
            hits1 = int(np.count_nonzero(vals <= 1))
            mean = exp.estimate(Quantity.EXPECT, None, tau).mean
            p0s.append(hits0 / SAMPLES)
            p1s.append(hits1 / SAMPLES)
            gaps.append(2.0 - mean)
            lines.append(f"{tau!r},{hits0},{hits1},{mean!r}")
        fit_p = fit_asymptote(TAUS_SLOPE, p1s, exponent=1)
        fit_e = fit_asymptote(TAUS_SLOPE, gaps, exponent=1)
        lines.append(f"slope_p,{fit_p.slope!r},r2,{fit_p.r_squared!r}")
        lines.append(f"slope_e,{fit_e.slope!r},r2,{fit_e.r_squared!r}")
        slope_text = "\n".join(lines) + "\n"

        x_axis = orthonormal_basis([[1.0, 0.0]])
        y_axis = orthonormal_basis([[0.0, 1.0]])
        rows = ["tau,estimate,ci,bound"]
        for tau in TAUS_OVERLAP:
            est = tube_overlap_measure(exp, x_axis, y_axis, tau)
            bound = 4.0 * math.pi * tau * tau
            rows.append(f"{tau!r},{est.mean!r},{est.half_width_95!r},{bound!r}")
        return slope_text, "\n".join(rows) + "\n"

    art["slopes"], art["overlap"] = _timed(workers, "slopes", slopes_and_overlap)

    _ARTIFACTS[workers] = art
    return art


@pytest.fixture(scope="module")
def artifacts():
    return build_artifacts(workers=1)


def test_check_1_solver_matches_brute_force():
    def body():
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        n_checked = 0
        for i in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            d = _random_dictionary(rng, n, m)
            spec = (L1, L2, LINF)[i % 3]
            tau = (0.05, 0.2, 1.0)[i % 9 // 3]
            x = rng.standard_normal(n)
            result = solve_l0(d, spec, x, tau)
            assert result.value == _oracle_value(spec, d, x, tau)
            n_checked += 1
        elapsed = time.monotonic() - start
        assert n_checked == 200
        assert elapsed < 60.0
        return f"200 instances, {elapsed:.1f} s"

    _checked(1, "solver vs brute force", body)


def test_check_2_every_sample_is_feasible(artifacts):
    def body():
        lines = artifacts["feasibility"].splitlines()
        counts = {int(k): int(v) for k, v in (line.split(",") for line in lines[1:5])}
        assert lines[-1] == "n_infeasible,0"
        assert sum(counts.values()) == 100_000
        return f"100000 samples, max value {max(k for k, v in counts.items() if v)}"

    _checked(2, "bounded value everywhere", body)


def test_check_3_span_families_are_exact(artifacts):
    def body():
        rng = np.random.default_rng(777)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            d = _random_dictionary(rng, n, m)
            for K in range(n + 1):
                family = enumerate_spans(d, K)
                members = family.members
                assert all(member.dim == K for member in members)
                for a, b in combinations(members, 2):
                    assert not spans_equal(a, b)
                assert len(members) <= math.comb(m, K)
                if K == 0:
                    assert len(members) == 1  # the trivial span, from the empty subset
                    continue
                for subset in combinations(range(m), K):
                    atoms = d.subset(subset)
                    if np.linalg.matrix_rank(atoms) < K:
                        continue
                    candidate = orthonormal_basis(atoms.T)
                    assert any(spans_equal(candidate, member) for member in members)
        # The builder's family census was produced by the same enumeration;
        # pin the cross-worker artifact to this verified content.
        assert artifacts["families"].startswith("dictionary,n,m,K,family_size")
        return "50 dictionaries, all levels"

    _checked(3, "span family properties", body)


def test_check_4_euclidean_closed_forms(artifacts):
    def body():
        worst = 0.0
        for line in artifacts["volumes"].splitlines()[1:]:
            name, value, target = line.split(",")
            rel = abs(float(value) - float(target)) / float(target)
            worst = max(worst, rel)
            assert rel <= 0.02, f"{name}: {value} vs {target}"
        return f"9 volumes, worst relative error {worst:.4f}"

    _checked(4, "volume estimates vs closed forms", body)


def test_check_5_sandwich_validation(artifacts):
    def body():
        lines = artifacts["sandwich"].splitlines()
        rows = lines[1:]
        assert len(rows) == 4 * 3 * 3 + 3
        assert all(row.endswith(",true,true") for row in rows)
        assert _TIMES[(1, "sandwich")] < 300.0
        return f"39 cells in {_TIMES[(1, 'sandwich')]:.1f} s, all inside bounds"

    _checked(5, "two-sided bounds hold", body)


def _parse_slopes(text):
    lines = text.splitlines()
    slope_p = float(lines[-2].split(",")[1])
    r2_p = float(lines[-2].split(",")[3])
    slope_e = float(lines[-1].split(",")[1])
    r2_e = float(lines[-1].split(",")[3])
    return lines, slope_p, r2_p, slope_e, r2_e


def test_check_6_probability_slope(artifacts):
    def body():
        _, slope_p, r2_p, _, _ = _parse_slopes(artifacts["slopes"])
        assert abs(slope_p - RHO) <= 0.1 * RHO
        assert r2_p >= 0.99
        return f"slope {slope_p:.4f} vs {RHO:.4f}, r2 {r2_p:.5f}"

    _checked(6, "small-tolerance probability slope", body)


def test_check_7_expectation_slope_and_identity(artifacts):
    def body():
        lines, _, _, slope_e, r2_e = _parse_slopes(artifacts["slopes"])
        assert abs(slope_e - RHO) <= 0.1 * RHO
        assert r2_e >= 0.99
        for line in lines[1 : 1 + len(TAUS_SLOPE)]:
            _, hits0, hits1, mean = line.split(",")
            counted = 2.0 - (int(hits0) + int(hits1)) / SAMPLES
            assert float(mean) == pytest.approx(counted, abs=1e-12)
        return f"slope {slope_e:.4f} vs {RHO:.4f}, r2 {r2_e:.5f}"

    _checked(7, "expected-value slope and identity", body)


def test_check_8_pairwise_tube_overlap(artifacts):
    def body():
        margins = []
        for line in artifacts["overlap"].splitlines()[1:]:
            tau, estimate, ci, bound = (float(part) for part in line.split(","))
            sigma = ci / 1.959963984540054
            assert estimate <= bound + 3.0 * sigma
            margins.append(bound - estimate)
        assert len(margins) == len(TAUS_OVERLAP)
        return "no violation at any tolerance"

    _checked(8, "pairwise overlap bound", body)


def test_check_9_byte_identical_across_workers(artifacts):
    def body():
        for workers in (2, 8):
            rebuilt = build_artifacts(workers)
            assert set(rebuilt) == set(artifacts)
            for name in artifacts:
                assert rebuilt[name] == artifacts[name], (
                    f"artifact {name!r} differs at workers={workers}"
                )
        return "artifacts identical at 1, 2, and 8 workers"

    _checked(9, "worker-count determinism", body)


def test_check_10_non_euclidean_end_to_end():
    def body():
        csvs, seconds = {}, {}
        for workers in (1, 2):
            start = time.monotonic()
            report = validate_bounds(
                DICT3, LINF, L1, TAUS_SANDWICH, 1.0, (0, 1, 2, 3),
                quantities=tuple(Quantity), n_samples=100_000, seed=SEED, workers=workers,
            )
            seconds[workers] = time.monotonic() - start
            assert seconds[workers] < 60.0, f"validate took {seconds[workers]:.1f} s"
            assert report.n_fail == 0
            assert report.n_pass > 0
            csvs[workers] = report_to_csv(report)
        assert csvs[1] == csvs[2]
        return (
            f"{report.n_pass} valid cells pass, {report.n_invalid} invalid, "
            f"CSV identical at 1 and 2 workers, {max(seconds.values()):.1f} s"
        )

    _checked(10, "non-Euclidean end to end", body)


def test_check_11_weighted_lp_end_to_end():
    fidelity = NormSpec.weighted_lp(3.0, [1.0, 2.0, 0.5])

    def body():
        csvs, seconds = {}, {}
        for workers in (1, 2):
            start = time.monotonic()
            report = validate_bounds(
                DICT3, fidelity, L2, TAUS_SANDWICH, 1.0, (0, 1, 2, 3),
                quantities=tuple(Quantity), n_samples=20_000, seed=SEED, workers=workers,
            )
            seconds[workers] = time.monotonic() - start
            assert seconds[workers] < 60.0, f"validate took {seconds[workers]:.1f} s"
            assert report.n_fail == 0
            assert report.n_pass > 0
            csvs[workers] = report_to_csv(report)
        assert csvs[1] == csvs[2]
        return (
            f"{report.n_pass} valid cells pass, {report.n_invalid} invalid, "
            f"CSV identical at 1 and 2 workers, {max(seconds.values()):.1f} s"
        )

    _checked(11, "weighted lp end to end", body)


def test_check_12_l1_data_at_size_end_to_end():
    identity6 = Dictionary.from_vectors(np.eye(6))
    taus = (0.02, 0.05, 0.1)

    def body():
        csvs, seconds = {}, {}
        for workers in (1, 2):
            start = time.monotonic()
            report = validate_bounds(
                identity6, L2, L1, taus, 1.0, tuple(range(7)),
                quantities=tuple(Quantity), n_samples=100_000, seed=SEED, workers=workers,
            )
            seconds[workers] = time.monotonic() - start
            assert seconds[workers] < 60.0, f"validate took {seconds[workers]:.1f} s"
            assert (report.n_pass, report.n_fail, report.n_invalid) == (87, 0, 0)
            csvs[workers] = report_to_csv(report)
        assert csvs[1] == csvs[2]
        tables = [
            constants_to_csv([
                assemble_constants(identity6, L2, L1, K, n_samples=100_000, seed=seed)
                for K in range(7)
            ])
            for seed in (SEED, SEED + 1)
        ]
        assert tables[0] == tables[1]
        header, *rows = (line.split(",") for line in tables[0].splitlines())
        for row in rows:
            errors = [cell for name, cell in zip(header, row) if name.endswith("ci") and cell]
            assert errors and all(float(cell) == 0.0 for cell in errors)
        return (
            f"{report.n_pass} cells pass, CSV identical at 1 and 2 workers, "
            f"exact constants identical at two seeds, {max(seconds.values()):.1f} s"
        )

    _checked(12, "l1 data at size end to end", body)
