"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into the repository's layers. The
benchmark's own code opens spans around the calls it makes, and
:meth:`Tracer.install` replaces a fixed list of module and class
attributes with timing wrappers, at the names the calling code looks
them up under. Nothing under ``src/`` is edited, and
:meth:`Tracer.uninstall` puts every original back. Spans stay in memory
and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded on the Python side, so the
children of one span never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    run_id: str  # the benchmark phase the span belongs to, e.g. "pass-3"
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _prep_counts(prep):
    return prep, {"stat_rows": float(len(prep.blk))}


def _column_bitmap_counts(bm):
    return bm.matrix, {"bytes": float(bm.matrix.nbytes)}


def _group_matrix_counts(out):
    return out[1], {"bytes": float(out[1].nbytes)}


#: (module, attribute path, span name, counter) for every wrapped name.
#: A counter maps the call's result to (object, counts); the span also
#: records whether that object was new since the last
#: :meth:`Tracer.forget`, which tells a prep-cache hit from a build.
#: The module is where the *caller* looks the name up, so e.g. the
#: engine's ``prepare`` is wrapped both in ``engine`` (used by
#: ``run_query``) and in ``count_sum_query`` (imported there by name).
TRACED = [
    ("repro.fastframe.scramble", "build_catalog", "catalog.build", None),
    ("repro.fastframe.engine", "prepare", "engine.prepare", _prep_counts),
    ("repro.fastframe.count_sum_query", "prepare", "engine.prepare", _prep_counts),
    ("repro.fastframe.engine", "group_bitmap_matrix", "bitmap.build", _group_matrix_counts),
    ("repro.fastframe.engine", "get_column_bitmap", "bitmap.build", _column_bitmap_counts),
    ("repro.fastframe.engine", "n_plus", "count_sum.n_plus", None),
    ("repro.core.vectorized", "ci", "vectorized.ci", None),
    ("repro.core.optstop", "RunningIntersection.update", "optstop.intersect", None),
    ("repro.fastframe.engine", "_BlockPicker.pick_scan", "engine.pick", None),
    ("repro.fastframe.engine", "_BlockPicker.pick_active_peek", "engine.pick", None),
    ("repro.fastframe.engine", "_BlockPicker.pick_active_sync", "engine.pick", None),
    ("repro.fastframe.count_sum_query", "count_ci", "count_sum.count_ci", None),
    ("repro.fastframe.count_sum_query", "n_plus", "count_sum.n_plus", None),
    ("repro.fastframe.count_sum_query", "sum_ci", "count_sum.sum_ci", None),
    ("repro.experiments.ground_truth", "flights_pandas", "ground_truth.pull", None),
    ("repro.experiments.ground_truth", "exact_decision", "ground_truth.exact", None),
]


def _stopping_targets():
    """Every ``StoppingCondition`` subclass that defines its own evaluate."""
    from repro.core.stopping import StoppingCondition

    todo, out = list(StoppingCondition.__subclasses__()), []
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "evaluate" in vars(cls):
            out.append((cls, "evaluate"))
    return out


class Tracer:
    """Records spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.run_id = "init"
        self._stack: List[int] = []
        self._originals: list = []
        self._seen: Dict[int, object] = {}  # id -> object, kept alive

    def forget(self) -> None:
        """Start a fresh prep cache: every object counts as new again."""
        self._seen.clear()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if counter is not None and s is not None:
                    obj, counts = counter(out)
                    s.counts.update(counts, new=float(id(obj) not in self._seen))
                    self._seen[id(obj)] = obj
                return out

        return traced

    def install(self) -> None:
        """Wrap every name in :data:`TRACED` and each stopping evaluate."""
        if self._originals:
            return
        targets = []
        for mod_name, path, name, counter in TRACED:
            owner = importlib.import_module(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            targets.append((owner, attr, name, counter))
        for cls, attr in _stopping_targets():
            targets.append((cls, attr, "stopping.evaluate", None))
        for owner, attr, name, counter in targets:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block with every wrapper removed and no spans recorded."""
        was_installed = bool(self._originals)
        enabled = self.enabled
        self.uninstall()
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = enabled
            if was_installed:
                self.install()

    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> List[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": s.run_id,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
