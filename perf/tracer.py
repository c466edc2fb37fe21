"""Benchmark-owned span tracing: timing wrappers over public callables.

No file under ``src/`` is edited.  :func:`Tracer.install` replaces each
callable of the fixed ``SPANS`` table with a wrapper that records a
span — name, start, end and the span that was open when it started —
and :func:`Tracer.uninstall` puts the originals back, so untraced
repeats run the program exactly as shipped.  Methods are wrapped on
their class; module functions on every loaded ``repro.*`` module whose
attribute *is* the original (that catches ``from … import`` bindings).
A name that no longer resolves is listed in :attr:`Tracer.missing`
instead of raising, so a later change that deletes a function does not
break the benchmark.

Spans are kept in memory and folded when a repeat ends.  A span's *self*
time is its duration minus the durations of its direct children; spans
with no parent are *roots* (the front-door calls the driver makes), so
the self times of all spans plus the time between roots add up to the
traced wall by construction.

Exec workers are forked while the wrappers are installed; an
``os.register_at_fork`` hook switches recording off in the child, so a
worker pays one flag test per wrapped call and keeps no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

__all__ = ["SPANS", "Tracer", "Fold"]

_KERNELS = ("spmm", "spmm_rows", "spmm_rows_t", "transpose", "row_slice",
            "degree_counts", "splice_delete", "splice_insert", "rescale")

# span name -> the public callables recorded under it ("module:qualname";
# "@backend" stands for the class of the resolved kernel backend)
SPANS: dict[str, tuple[str, ...]] = {
    "serve.server.advance": ("repro.serve.server:ModelServer.advance_time",),
    "serve.server.ingest": ("repro.serve.server:ModelServer.ingest_events",),
    "serve.server.submit": ("repro.serve.server:ModelServer.submit_link",
                            "repro.serve.server:ModelServer.submit_fraud"),
    "serve.server.flush": ("repro.serve.server:ModelServer.flush",
                           "repro.serve.server:ModelServer.drain"),
    "exec.router.advance": ("repro.exec.router:ExecRouter.advance_time",),
    "exec.router.ingest": ("repro.exec.router:ExecRouter.ingest_events",),
    "exec.router.submit": ("repro.exec.router:ExecRouter.submit_link",
                           "repro.exec.router:ExecRouter.submit_fraud"),
    "exec.router.flush": ("repro.exec.router:ExecRouter.flush",
                          "repro.exec.router:ExecRouter.drain"),
    "serve.ingest.fold": ("repro.serve.ingest:fold_event_batch",),
    "serve.ingest.commit": ("repro.serve.ingest:StreamIngestor.commit",),
    "graph.diff": ("repro.graph.diff:diff_snapshots",
                   "repro.graph.diff:apply_diff",
                   "repro.graph.diff:split_diff_by_blocks"),
    "graph.inc_laplacian.update":
        ("repro.graph.inc_laplacian:LaplacianMaintainer.update",),
    "serve.cache.invalidate": ("repro.serve.cache:EmbeddingCache.invalidate",
                               "repro.serve.cache:expand_dirty"),
    "serve.engine.set_snapshot":
        ("repro.serve.engine:InferenceEngine.set_snapshot",),
    "serve.engine.refresh": ("repro.serve.engine:InferenceEngine.refresh",),
    "serve.engine.advance": ("repro.serve.engine:InferenceEngine.advance",),
    "exec.transport.submit": ("repro.exec.mp:ProcessTransport.submit",),
    "exec.transport.wait": ("repro.exec.mp:ProcessTransport.result",),
    "store.append": ("repro.store.store:GraphStore.append_events",
                     "repro.store.store:GraphStore.seal_step",
                     "repro.store.store:GraphStore.append_snapshot",
                     "repro.store.store:GraphStore.append_diff"),
    "store.capture": ("repro.store.store:GraphStore.save_engine_state",
                      "repro.store.recovery:capture_engine_state"),
    "store.replay": ("repro.store.store:GraphStore.open",
                     "repro.store.store:GraphStore.replay_tail",
                     "repro.store.store:GraphStore.materialize",
                     "repro.store.store:GraphStore.latest_engine_state",
                     "repro.store.store:GraphStore._state_at_record",
                     "repro.store.recovery:restore_engine_state"),
    "store.recover": ("repro.serve.server:ModelServer.recover",),
    "train.epoch":
        ("repro.train.distributed:DistributedTrainer.train_epoch",),
    "train.reuse.aggregate": ("repro.train.reuse:AggregationCache.aggregate",),
    **{f"tensor.backend.{k}": (f"@backend:{k}",) for k in _KERNELS},
}

# how many rows a recorded call touched (summed into Fold.units)
_UNITS = {"tensor.backend.spmm_rows": lambda args: len(args[2])}


class Fold:
    """Self seconds, root seconds, calls and units per span name over one
    contiguous range of recorded spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)

    def self_of(self, *prefixes: str) -> float:
        """Summed self time of every span whose name starts with one of
        ``prefixes``."""
        return sum(s for name, s in self.self_s.items()
                   if name.startswith(prefixes))

    def calls_of(self, *prefixes: str) -> int:
        return sum(c for name, c in self.calls.items()
                   if name.startswith(prefixes))


class Tracer:
    """Installs the wrappers, records spans, folds them per phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.missing: list[str] = []
        # one row per span: [name, start, end, parent index, units]
        self._spans: list[list] = []
        self._open = -1                       # index of the innermost span
        self._phases: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str, units: int) -> int:
        idx = len(self._spans)
        self._spans.append([name, 0.0, 0.0, self._open, units])
        self._open = idx
        self._spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        row = self._spans[idx]
        row[2] = time.perf_counter()
        self._open = row[3]

    def _wrap(self, name: str, fn):
        units_of = _UNITS.get(name)
        if inspect.isgeneratorfunction(fn):
            # time the generator's own resumes, not its consumer
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self.enabled:
                    yield from it
                    return
                while True:
                    idx = self._enter(name, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._enter(name, units_of(args) if units_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def phase(self, label: str) -> None:
        """Every span started from now on belongs to phase ``label``."""
        self._phases.append((label, len(self._spans)))

    # -- install / uninstall -----------------------------------------------
    def _resolve(self, target: str):
        """``(owner, attribute name, original)`` of one table entry."""
        module_name, qualname = target.split(":")
        if module_name == "@backend":
            from repro.tensor.backend import resolve_backend
            owner = type(resolve_backend())
        else:
            owner = importlib.import_module(module_name)
            *path, qualname = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
        return owner, qualname, inspect.getattr_static(owner, qualname)

    def install(self) -> None:
        """Wrap every resolvable callable of ``SPANS`` and start
        recording (a fresh span list)."""
        self._spans, self._open, self._phases = [], -1, []
        self.missing = []
        for name, targets in SPANS.items():
            for target in targets:
                try:
                    owner, attr, original = self._resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if inspect.ismodule(owner):
                    wrapper = self._wrap(name, original)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name.startswith("repro") and \
                                getattr(mod, attr, None) is original:
                            self._patches.append((mod, attr, original, True))
                            setattr(mod, attr, wrapper)
                    continue
                own = attr in vars(owner)
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(
                        self._wrap(name, original.__func__))
                else:
                    wrapper = self._wrap(name, original)
                self._patches.append((owner, attr, original, own))
                setattr(owner, attr, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)   # the wrapper shadowed a base class
        self._patches.clear()

    # -- folding -------------------------------------------------------------
    def fold(self, label: str) -> Fold:
        """Fold the spans of phase ``label`` (all of its occurrences)."""
        out = Fold()
        bounds = self._phases + [("", len(self._spans))]
        for (name, lo), (_, hi) in zip(bounds, bounds[1:]):
            if name != label:
                continue
            child_s: dict[int, float] = defaultdict(float)
            for idx in range(lo, hi):
                span_name, start, end, parent, units = self._spans[idx]
                duration = end - start
                if parent >= lo:
                    child_s[parent] += duration
                else:
                    out.root_s[span_name] += duration
                out.calls[span_name] += 1
                out.units[span_name] += units
            for idx in range(lo, hi):
                row = self._spans[idx]
                out.self_s[row[0]] += (row[2] - row[1]) - child_s[idx]
        return out
