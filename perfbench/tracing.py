"""In-memory span tracer that wraps l0geom's layers from the outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()``
replaces each traced function at the module attribute its callers look it
up through (``l0geom.montecarlo.assemble_constants``,
``l0geom.solver.member_distances``, ``L0Solver.distance_profiles`` and so
on) and puts the originals back on exit, so untraced runs execute the
program exactly as shipped.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent) in memory and forms the
  call tree from which busy and self times are computed;
* a *tally* counts calls and work units and adds up its outermost wall
  time, but stays out of the tree.  Tallies sit on the hot, fine-grained
  calls (``map_chunks``, ``member_distances``, ``subspace_distance``,
  ``intersection_dim``) so they neither split their callers' self time
  nor add a tree node per call.

The tracer keeps one span stack and is meant for runs at one worker
thread, which is how the benchmark's traced run executes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


# Work counters: (tracer, bound arguments, result) -> None.
def _count_samples(tr: "Tracer", a: dict[str, Any], _r: Any) -> None:
    tr.counts["sampling.samples"] += int(a["n_samples"])


def _count_chunks(tr: "Tracer", a: dict[str, Any], _r: Any) -> None:
    tr.counts["streams.chunks"] += int(a["n_chunks"])


def _count_draws(tr: "Tracer", a: dict[str, Any], _r: Any) -> None:
    tr.counts["norms.hit_or_miss.draws"] += int(a["n_samples"])


def _count_rows(tr: "Tracer", a: dict[str, Any], _r: Any) -> None:
    tr.counts["solver.member_rows"] += int(np.shape(a["rows"])[0])


def _count_pairs(tr: "Tracer", _a: dict[str, Any], r: Any) -> None:
    tr.counts["subspaces.pairs"] += len(r)


def _count_taus(tr: "Tracer", a: dict[str, Any], _r: Any) -> None:
    tr.taus.add(float(a["tau"]))


def _count_spans(tr: "Tracer", a: dict[str, Any], r: Any) -> None:
    dictionary, k = a["dictionary"], int(a["K"])
    key = (dictionary.atoms.tobytes(), k)
    if key in tr.levels_seen:
        tr.counts["subspaces.enumerate_spans.repeat_calls"] += 1
    tr.levels_seen.add(key)
    tr.counts["subspaces.members"] += len(r.members)
    tr.counts["subspaces.subsets_tried"] += math.comb(dictionary.n_atoms, k)


# (lookup site, attribute, layer name, kind, work counter).  A site is a
# module, or a class reached through a module ("l0geom.solver:L0Solver").
SITES: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("l0geom.cli", "load_config", "config.load_config", "span", None),
    ("l0geom.cli", "validate_bounds", "montecarlo.validate_bounds", "span", None),
    ("l0geom.montecarlo", "assemble_constants", "bounds.assemble_constants", "span", None),
    ("l0geom.montecarlo", "bound_report", "bounds.bound_report", "span", None),
    ("l0geom.montecarlo", "ball_volume", "norms.ball_volume", "span", None),
    ("l0geom.bounds", "ball_volume", "norms.ball_volume", "span", None),
    ("l0geom.montecarlo", "sample_levelset_batch", "sampling.sample_levelset_batch", "span", _count_samples),
    ("l0geom.montecarlo", "values_from_profiles", "solver.values_from_profiles", "span", _count_taus),
    ("l0geom.solver:L0Solver", "distance_profiles", "solver.distance_profiles", "span", None),
    ("l0geom.solver:L0Solver", "solve", "solver.solve", "span", None),
    ("l0geom.solver", "enumerate_spans", "subspaces.enumerate_spans", "span", _count_spans),
    ("l0geom.bounds", "enumerate_spans", "subspaces.enumerate_spans", "span", _count_spans),
    ("l0geom.bounds", "enumerate_pairs", "subspaces.enumerate_pairs", "span", _count_pairs),
    ("l0geom.bounds", "intersection_basis", "subspaces.intersection_basis", "span", None),
    ("l0geom.bounds", "projected_ball_volume", "bounds.projected_ball_volume", "span", None),
    ("l0geom.bounds", "slice_volume", "bounds.slice_volume", "span", None),
    ("l0geom.bounds", "overlap_constant", "bounds.overlap_constant", "span", None),
    ("l0geom.bounds", "hit_or_miss_volume", "norms.hit_or_miss", "span", _count_draws),
    ("l0geom.norms", "hit_or_miss_volume", "norms.hit_or_miss", "span", _count_draws),
    ("l0geom.simplex", "solve_standard_form", "simplex.solve_standard_form", "span", None),
    ("l0geom.streams", "map_chunks", "streams.map_chunks", "tally", _count_chunks),
    ("l0geom.solver", "map_chunks", "streams.map_chunks", "tally", _count_chunks),
    ("l0geom.solver", "member_distances", "solver.member_distances", "tally", _count_rows),
    ("l0geom.solver", "subspace_distance", "solver.subspace_distance", "tally", None),
    ("l0geom.bounds", "subspace_distance", "solver.subspace_distance", "tally", None),
    ("l0geom.subspaces", "intersection_dim", "subspaces.intersection_dim", "tally", None),
)


class Tracer:
    """Spans, call counts, work counts and tally times of one traced phase."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.tally_s: defaultdict[str, float] = defaultdict(float)
        self._tally_depth: Counter[str] = Counter()
        self.taus: set[float] = set()
        self.levels_seen: set[tuple[bytes, int]] = set()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), math.nan, self._stack[-1] if self._stack else None)
        )
        self._stack.append(index)
        self.calls[name] += 1
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, kind: str, counter: Callable | None) -> Callable:
        signature = inspect.signature(fn) if counter is not None else None

        def account(args: tuple, kwargs: dict, result: Any) -> None:
            if counter is None:
                return
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            except (KeyError, TypeError, AttributeError):
                # The traced function's signature or result changed shape;
                # report the counter as missing rather than fail the run.
                self._note_missing(f"counter:{name}")

        if kind == "span":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                account(args, kwargs, result)
                return result
            return traced

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            self.calls[name] += 1
            outermost = self._tally_depth[name] == 0
            self._tally_depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._tally_depth[name] -= 1
                if outermost:
                    self.tally_s[name] += time.perf_counter() - start
            account(args, kwargs, result)
            return result
        return tallied

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every site that exists; restore the originals on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for site, attr, name, kind, counter in SITES:
                module_name, _, class_name = site.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self._note_missing(f"{site}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, kind, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    # -- summaries ---------------------------------------------------------

    def busy_s(self, name: str) -> float:
        """Wall time under spans of this name, counting nested repeats once."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._has_ancestor(span, name):
                total += span.end - span.start
        return total

    def self_s(self, name: str) -> float:
        """Duration of this name's spans minus the time their children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return sum(
            span.end - span.start - covered[i]
            for i, span in enumerate(self.spans)
            if span.name == name
        )

    def roots(self) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.parent is None]

    def children_s(self, index: int) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent == index)

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict[str, Any]]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]
