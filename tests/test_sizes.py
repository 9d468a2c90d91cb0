"""The one size rule: each command prices every level it will touch before
any work, with the refusal the leaf that builds the term gives when reached.

Every capped term follows from N, m and a level alone, so ``check_run``
refuses a run before it samples, enumerates or prices anything.  The parity
tests patch each cap to fall between two levels and compare the up-front
refusal of ``validate_bounds``, ``estimate`` and ``assemble_constants``
with the leaf builders' own: ``enumerate_spans``, ``dual_vertices``,
``bounds._slice_polytope`` and ``bounds._zonotope_volumes``.
"""

import json
import math
import re

import numpy as np
import pytest

from l0geom import (
    Dictionary,
    LevelSetExperiment,
    NormSpec,
    assemble_constants,
    dual_vertices,
    enumerate_spans,
    orthonormal_basis,
    validate_bounds,
)
from l0geom import bounds, cli, montecarlo, sizes, solver

NORMS = {
    "l2": lambda n: NormSpec.l2(),
    "l1": lambda n: NormSpec.l1(),
    "linf": lambda n: NormSpec.linf(),
    "wl1": lambda n: NormSpec.weighted_lp(1.0, np.linspace(0.5, 2.0, n)),
}
DICTIONARIES = {
    "identity5": np.eye(5),
    "gauss4x6": np.random.default_rng(3).standard_normal((6, 4)),
}
L2 = NormSpec.l2()
CAPS = ("MAX_SPAN_SUBSETS", "MAX_DUAL_CANDIDATES", "MAX_POLYTOPE_CANDIDATES")


def level_terms(n, m, fidelity, data, K, constants):
    """(cap, count) of every capped term of level K, from the formulas alone:
    a constants level's, or a distance-profile level's."""
    terms = [("MAX_SPAN_SUBSETS", math.comb(m, K))]
    dual = fidelity.polyhedral and fidelity.kind != "linf"
    if dual:
        terms.append(("MAX_DUAL_CANDIDATES", math.comb(n, n - K) * 2 ** (n - K)))
    if constants:
        if fidelity.kind == "linf":
            terms.append(("MAX_POLYTOPE_CANDIDATES", math.comb(n, n - K)))
        for k in range(max(1, 2 * K - n), K + 1) if data.polyhedral else ():
            if data.kind == "linf":
                count = math.comb(n, k) * 2**k * 2 * n
            else:
                count = 2 * math.comb(n, k - 1) * 2**n
            terms.append(("MAX_POLYTOPE_CANDIDATES", count))
    return terms


def basis(atoms, k):
    """An orthonormal basis of a k-dimensional subspace the dictionary spans."""
    return orthonormal_basis(atoms[:k])


def leaf_refusal(message, atoms, dictionary, fidelity, data):
    """Check that the leaf builder of the term named in ``message`` raises
    that message when it is called directly."""
    if found := re.match(r"span family of m=\d+ atoms at K=(\d+) ", message):
        call = lambda: enumerate_spans(dictionary, int(found[1]))  # noqa: E731
    elif found := re.match(r"\w+ dual vertex table for N=\d+, K=(\d+) ", message):
        call = lambda: dual_vertices(fidelity, basis(atoms, int(found[1])))  # noqa: E731
    elif found := re.match(r"\w+ slice of a (\d+)-dimensional subspace", message):
        u = basis(atoms, int(found[1])).matrix
        call = lambda: bounds._slice_polytope(data, u[None])  # noqa: E731
    elif found := re.match(r"linf shadow of a (\d+)-dimensional subspace", message):
        comp = basis(atoms, int(found[1])).complement().matrix
        call = lambda: bounds._zonotope_volumes(comp[None])  # noqa: E731
    else:
        raise AssertionError(f"no leaf names {message!r}")
    with pytest.raises(ValueError) as leaf:
        call()
    assert leaf.value.args[0] == message


def commands(atoms, fidelity, data):
    """Each command of the rule on a fresh dictionary, with the levels it
    prices as (K, whether it prices the level's constants)."""
    n = atoms.shape[1]

    def validate():
        d = Dictionary.from_vectors(atoms)
        validate_bounds(d, fidelity, data, [0.1], 1.0, range(n + 1), n_samples=16)

    def estimate():
        d = Dictionary.from_vectors(atoms)
        LevelSetExperiment(d, fidelity, data, 1.0, 16, 0).estimate("prob_leq", 1, 0.1)

    def constants(K):
        assemble_constants(Dictionary.from_vectors(atoms), fidelity, data, K, n_samples=16)

    profile_levels = [(K, False) for K in range(1, n)]
    yield "validate", validate, [(K, True) for K in range(1, n)] + profile_levels
    yield "estimate", estimate, profile_levels
    for K in range(1, n):
        yield f"constants at K={K}", lambda K=K: constants(K), [(K, True)]


def spy(monkeypatch):
    """Record every sample, span enumeration and volume pricing."""
    entered = []
    for owner, name in (
        (montecarlo, "sample_levelset_batch"), (solver, "enumerate_spans"), (bounds, "_volumes"),
    ):
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: entered.append(name))
    return entered


@pytest.mark.parametrize("dict_name", DICTIONARIES)
@pytest.mark.parametrize("data_name", NORMS)
@pytest.mark.parametrize("fidelity_name", NORMS)
def test_up_front_refusal_matches_the_leaf(monkeypatch, dict_name, fidelity_name, data_name):
    atoms = DICTIONARIES[dict_name]
    m, n = atoms.shape
    fidelity, data = NORMS[fidelity_name](n), NORMS[data_name](n)
    checked = 0
    for cap in CAPS:
        for name, run, levels in commands(atoms, fidelity, data):
            counts = [c for K, full in levels for t, c in level_terms(n, m, fidelity, data, K, full)
                      if t == cap]
            # The cap falls between two levels: the smallest count passes, a larger one does not.
            if not counts or max(counts) == min(counts):
                continue
            with monkeypatch.context() as patch:
                patch.setattr(sizes, cap, min(counts))
                entered = spy(patch)
                refusal = rf"above the cap of {min(counts)} \(sizes.{cap}\)$"
                with pytest.raises(ValueError, match=refusal) as refused:
                    run()
                assert entered == [], (name, cap)
            with monkeypatch.context() as patch:
                patch.setattr(sizes, cap, min(counts))
                dictionary = Dictionary.from_vectors(atoms)
                leaf_refusal(refused.value.args[0], atoms, dictionary, fidelity, data)
            checked += 1
    assert checked


@pytest.mark.parametrize("fidelity_name,data_name", [("l2", "l1"), ("linf", "linf"), ("l1", "l2")])
def test_without_the_rule_a_run_is_refused_by_the_same_cap(monkeypatch, fidelity_name, data_name):
    # The rule only moves a refusal earlier: a run that skips it reaches a
    # leaf, or a run-time guard, over the same cap.
    atoms = DICTIONARIES["identity5"]
    fidelity, data = NORMS[fidelity_name](5), NORMS[data_name](5)
    checked = 0
    for cap in CAPS:
        for name, run, levels in commands(atoms, fidelity, data):
            counts = [c for K, full in levels for t, c in level_terms(5, 5, fidelity, data, K, full)
                      if t == cap]
            if not counts or max(counts) == min(counts):
                continue
            with monkeypatch.context() as patch:
                patch.setattr(sizes, cap, min(counts))
                patch.setattr(sizes, "check_run", lambda *a, **k: None)
                with pytest.raises(ValueError, match=rf"\(sizes.{cap}\)$"):
                    run()
            checked += 1
    assert checked


def test_estimate_checks_its_cell_before_sampling(monkeypatch):
    entered = spy(monkeypatch)
    experiment = LevelSetExperiment(Dictionary.from_vectors(np.eye(3)), L2, L2, 1.0, 16, 0)
    with pytest.raises(ValueError, match=r"^K must lie in \[0, 3\], got 99$"):
        experiment.estimate("prob_leq", 99, 0.1)
    with pytest.raises(ValueError, match=r"^tau must be > 0, got -1$"):
        experiment.estimate("prob_leq", 1, -1)
    assert entered == []


def test_validate_checks_its_arguments_before_pricing(monkeypatch):
    entered = []
    monkeypatch.setattr(montecarlo, "assemble_constants", lambda *a, **k: entered.append(a))
    d = Dictionary.from_vectors(np.eye(3))
    with pytest.raises(ValueError, match=r"^theta must be > 0, got -1$"):
        validate_bounds(d, L2, L2, [0.1], -1, [0, 1, 2], n_samples=16)
    with pytest.raises(ValueError, match=r"^n_samples must be >= 1, got 0$"):
        validate_bounds(d, L2, L2, [0.1], 1.0, [0, 1, 2], n_samples=0)
    assert entered == []


def test_an_l1_shadow_batch_is_refused_at_its_first_table(monkeypatch):
    # The shadows' facet counts are known only once their dual vertex tables
    # are built, so the run-time guard prices each pass of tables as it
    # comes; at one member per pass, that is each table.
    built = []
    real = bounds._dual_tables

    def spying(*args):
        for table, counts in real(*args):
            built.append(len(counts))
            yield table, counts

    monkeypatch.setattr(bounds, "_dual_tables", spying)
    monkeypatch.setattr(solver, "_PASS_CELLS", 1)
    monkeypatch.setattr(sizes, "MAX_POLYTOPE_CANDIDATES", 0)
    d = Dictionary.from_vectors(np.eye(5))
    with pytest.raises(ValueError, match=r"^10 points by \d+ facet normals needs \d+ candidates"):
        assemble_constants(d, NormSpec.l1(), L2, 2)
    assert built == [1]  # one table, of the level's C(5, 2) = 10 members


@pytest.mark.parametrize(
    "config,command,refusal",
    [
        ({"dictionary": np.eye(11).tolist(), "data": {"kind": "l1"}}, "validate",
         "l1 slice of a 5-dimensional subspace of R^11 needs 2 * C(11, 4) * 2^11 = 1351680 "
         "candidates, above the cap of 1000000 (sizes.MAX_POLYTOPE_CANDIDATES)"),
        ({"dictionary": np.eye(13).tolist(), "fidelity": {"kind": "l1"}}, "estimate",
         "l1 dual vertex table for N=13, K=3 needs C(13, 10) * 2^10 = 292864 candidates, "
         "above the cap of 250000 (sizes.MAX_DUAL_CANDIDATES)"),
        ({"dictionary": np.eye(13).tolist(), "fidelity": {"kind": "l1"}}, "validate",
         "l1 dual vertex table for N=13, K=3 needs C(13, 10) * 2^10 = 292864 candidates, "
         "above the cap of 250000 (sizes.MAX_DUAL_CANDIDATES)"),
        ({"dictionary": np.random.default_rng(0).standard_normal((16, 8)).tolist()}, "validate",
         "span family of m=16 atoms at K=6 needs C(16, 6) = 8008 subsets, "
         "above the cap of 5000 (sizes.MAX_SPAN_SUBSETS)"),
    ],
)
def test_a_run_too_large_to_finish_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, config, command, refusal
):
    entered = spy(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "tau_grid": [0.05]}))
    assert cli.main([command, "--config", str(path), "--samples", "2000"]) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert entered == []
