"""Kernel-layer benchmark: incremental operators and row-sliced SpMM.

Three headline comparisons, all on the AML-Sim serving workload:

* **Incremental operator maintenance** — advancing the resident ``Ã``
  through the timeline's GD deltas with
  :class:`~repro.graph.inc_laplacian.LaplacianMaintainer` vs rebuilding
  it from scratch (adjacency + Eq. 1 normalization) at every timestep,
  the pre-kernel serving hot path.
* **Row-sliced SpMM** — computing only a dirty frontier's output rows
  (:func:`~repro.tensor.sparse.spmm_rows`) vs the full multiply.
* **End-to-end serving refresh** — an :class:`InferenceEngine` driven
  by the same event stream twice: delta-maintained operator plus
  row-sliced refresh of the dirty rows, vs full-rebuild operator plus
  full-matrix recompute (the ``incremental=False`` baseline path).

A fourth section times every *registered kernel backend*
(:mod:`repro.tensor.backend`) against the reference implementation on
the same resident operator — one row per backend × kernel
(``spmm``, ``spmm_rows``, ``spmm_rows_bwd``, ``spmm_patch``,
``transpose``, ``maintainer_commit``) — and records the matrix under
``backend_matrix`` in ``BENCH_kernels.json``.  Matrix entries use the
unguarded ``us`` / ``vs_reference`` key names on purpose: which
backends are available varies by machine (cnative needs a C compiler), and
the perf guard must not fail on a backend the runner doesn't have.

Each comparison also reports the maximum absolute divergence against
the full-recompute reference — the kernels are exactness-preserving,
so these must be ~0 (≤ 1e-9 is the acceptance bar).  Results land in
``results/kernels.txt`` and ``BENCH_kernels.json``; CI's perf guard
fails when the recorded speedups regress by more than 20%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import render_table, write_bench_json, write_report
from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.graph.laplacian import laplacian_from_adjacency
from repro.models import build_model
from repro.serve.cache import expand_dirty
from repro.serve.engine import InferenceEngine
from repro.serve.ingest import StreamIngestor, events_between
from repro.tensor.backend import available_backends, get_backend
from repro.tensor.sparse import SparseMatrix, spmm, spmm_rows

__all__ = ["KernelWorkloadConfig", "KernelsBenchResult",
           "run_kernels_benchmark"]


@dataclass(frozen=True)
class KernelWorkloadConfig:
    """Knobs of the kernel bench (AML-Sim serving regime: small deltas
    against a large resident graph — InstantGNN's premise)."""

    num_accounts: int = 30000
    num_timesteps: int = 10
    background_per_step: int = 30000
    partner_persistence: float = 0.97
    activity_skew: float = 0.4
    seed: int = 0
    # micro-kernel knobs
    feature_dim: int = 32
    spmm_repeats: int = 30
    # end-to-end refresh replay
    serve_model: str = "cdgcn"
    hidden: int = 16
    embed_dim: int = 16
    event_batches_per_step: int = 12
    # timing rounds (best-of); smoke mode runs one round
    rounds: int = 3

    def amlsim(self) -> AMLSimConfig:
        return AMLSimConfig(
            num_accounts=self.num_accounts,
            num_timesteps=self.num_timesteps,
            background_per_step=self.background_per_step,
            partner_persistence=self.partner_persistence,
            activity_skew=self.activity_skew,
            seed=self.seed)


@dataclass(frozen=True)
class KernelsBenchResult:
    """Outcome of the three kernel comparisons."""

    # incremental operator maintenance vs full rebuild
    inc_update_s: float
    full_rebuild_s: float
    inc_max_divergence: float
    avg_delta_edges: float
    operator_nnz: int
    # row-sliced vs full SpMM
    spmm_rows_s: float
    spmm_full_s: float
    spmm_divergence: float
    num_sliced_rows: int
    # end-to-end serving refresh
    refresh_inc_s: float
    refresh_full_s: float
    refresh_divergence: float
    num_refreshes: int
    # per-backend × per-kernel matrix: {backend: {kernel: {"us", ...,
    # "vs_reference"}, "max_divergence": float}}
    backend_matrix: dict

    @property
    def inc_speedup(self) -> float:
        return self.full_rebuild_s / self.inc_update_s

    @property
    def spmm_speedup(self) -> float:
        return self.spmm_full_s / self.spmm_rows_s

    @property
    def refresh_speedup(self) -> float:
        return self.refresh_full_s / self.refresh_inc_s


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _commit_stream(dtdg, batches_per_step):
    """The serving tier's commit sequence: each timestep transition
    replayed as micro-batched edge events, one GD delta per commit."""
    ingestor = StreamIngestor(dtdg[0])
    commits = []
    for t in range(1, dtdg.num_timesteps):
        events = events_between(ingestor.resident, dtdg[t])
        chunk = max(1, -(-len(events) // batches_per_step))
        for lo in range(0, len(events), chunk):
            ingestor.push_batch(events[lo:lo + chunk])
            result = ingestor.commit()
            commits.append((result.snapshot, result.diff))
    return commits


def _bench_inc_laplacian(dtdg, commits, config):
    """Maintainer streaming vs a full operator rebuild per commit —
    what the pre-kernel serving path paid to keep ``Ã`` current."""
    n = dtdg.num_vertices

    def full_pass():
        for snap, _ in commits:
            # the pre-kernel hot path: fresh adjacency + Eq. 1 rebuild
            adj = SparseMatrix.from_edges(snap.edges, snap.values, (n, n))
            laplacian_from_adjacency(adj)

    def inc_pass():
        m = LaplacianMaintainer(dtdg[0])
        for snap, diff in commits:
            m.update(snap, diff)

    full_s = _best_of(full_pass, config.rounds)
    inc_s = _best_of(inc_pass, config.rounds)

    # exactness sweep (untimed): every maintained operator vs a rebuild
    m = LaplacianMaintainer(dtdg[0])
    worst = 0.0
    for snap, diff in commits:
        m.update(snap, diff)
        ref = laplacian_from_adjacency(snap.adjacency())
        delta = m.export().csr - ref.csr
        if delta.nnz:
            worst = max(worst, float(np.abs(delta.data).max()))
    if m.incremental_updates != len(commits):
        raise RuntimeError("maintainer fell back to full rebuilds "
                           "mid-stream; the bench would be meaningless")
    avg_delta = float(np.mean([len(d.removed) + len(d.added)
                               for _, d in commits]))
    return inc_s, full_s, worst, avg_delta, int(m.laplacian.nnz), m


def _frontier_rows(commits) -> np.ndarray:
    """A representative dirty frontier: the last commit's touched
    endpoints expanded by a 2-layer model's invalidation radius."""
    last, delta = commits[-1]
    touched = np.unique(np.concatenate(
        [delta.removed, delta.added]).ravel()) \
        if len(delta.removed) + len(delta.added) \
        else np.empty(0, dtype=np.int64)
    return expand_dirty(last, touched, hops=2)


def _bench_spmm_rows(dtdg, commits, maintainer, rows, config):
    """Row-sliced SpMM over a dirty frontier vs the full multiply."""
    lap = maintainer.laplacian
    rng = np.random.default_rng(config.seed + 13)
    x = rng.standard_normal((dtdg.num_vertices, config.feature_dim))

    def full_pass():
        for _ in range(config.spmm_repeats):
            spmm(lap, x)

    def sliced_pass():
        for _ in range(config.spmm_repeats):
            spmm_rows(lap, x, rows)

    full_s = _best_of(full_pass, config.rounds)
    sliced_s = _best_of(sliced_pass, config.rounds)
    div = float(np.abs(spmm(lap, x).data[rows]
                       - spmm_rows(lap, x, rows).data).max())
    return sliced_s, full_s, div, len(rows)


def _bench_backend_matrix(dtdg, commits, maintainer, rows, config):
    """Every available kernel backend × every hot kernel, timed against
    reference on the same resident operator and dirty frontier.

    ``spmm_patch`` is the serving patch path with the base memcpy
    excluded (the backends only differ in the fused row recompute +
    scatter; the copy is backend-invariant); ``spmm_rows`` is the
    fused gather-GEMM alone.
    """
    csr = maintainer.laplacian.csr
    n = dtdg.num_vertices
    rng = np.random.default_rng(config.seed + 29)
    x = np.ascontiguousarray(
        rng.standard_normal((n, config.feature_dim)))
    g = np.ascontiguousarray(
        rng.standard_normal((len(rows), config.feature_dim)))
    base = np.ascontiguousarray(rng.standard_normal(x.shape))
    repeats = config.spmm_repeats

    def timers(kb):
        patch_out = base.copy()

        def patch():
            patch_out[rows], _ = kb.spmm_rows(csr, rows, x)
            return patch_out
        return {
            "spmm": lambda: kb.spmm(csr, x),
            "spmm_rows": lambda: kb.spmm_rows(csr, rows, x)[0],
            "spmm_rows_bwd": lambda: kb.spmm_rows_t(csr, rows, g, None),
            "spmm_patch": patch,
            "transpose": lambda: kb.transpose(csr),
        }

    def commit_replay(kb):
        m = LaplacianMaintainer(dtdg[0], backend=kb)
        for snap, diff in commits:
            m.update(snap, diff)

    ref = get_backend("reference")
    ref_outs = {k: np.asarray(fn()) for k, fn in timers(ref).items()
                if k != "transpose"}
    matrix = {}
    for name in available_backends():
        kb = get_backend(name)
        entry = {}
        worst = 0.0
        for kernel, fn in timers(kb).items():
            out = fn()
            if kernel == "transpose":
                delta = out - ref.transpose(csr)
                if delta.nnz:
                    worst = max(worst, float(np.abs(delta.data).max()))
            else:
                worst = max(worst, float(np.abs(
                    np.asarray(out) - ref_outs[kernel]).max()))
            secs = _best_of(lambda: [fn() for _ in range(repeats)],
                            config.rounds)
            entry[kernel] = {"us": round(secs * 1e6 / repeats, 3)}
        secs = _best_of(lambda: commit_replay(kb), config.rounds)
        entry["maintainer_commit"] = {
            "us": round(secs * 1e6 / len(commits), 3)}
        entry["max_divergence"] = worst
        matrix[name] = entry
    for name, entry in matrix.items():
        for kernel, cell in entry.items():
            if isinstance(cell, dict):
                cell["vs_reference"] = round(
                    matrix["reference"][kernel]["us"] / cell["us"], 3)
    return matrix


def _bench_serving_refresh(dtdg, config):
    """End-to-end refresh path: delta-maintained + row-sliced vs
    full-rebuild + full-matrix recompute."""
    def drive(incremental: bool):
        model = build_model(config.serve_model, in_features=2,
                            hidden=config.hidden,
                            embed_dim=config.embed_dim, seed=config.seed)
        engine = InferenceEngine(model, dtdg[0])
        engine.advance()
        ingestor = StreamIngestor(dtdg[0])
        wall = 0.0
        refreshes = 0
        for t in range(1, dtdg.num_timesteps):
            events = events_between(ingestor.resident, dtdg[t])
            chunk = max(1, -(-len(events) // config.event_batches_per_step))
            for lo in range(0, len(events), chunk):
                ingestor.push_batch(events[lo:lo + chunk])
                result = ingestor.commit()
                t0 = time.perf_counter()
                if incremental:
                    engine.set_snapshot(result.snapshot,
                                        seeds=result.dirty,
                                        diff=result.diff)
                else:
                    engine.set_snapshot(result.snapshot, seeds=None)
                engine.refresh()
                wall += time.perf_counter() - t0
                refreshes += 1
            engine.advance()
        return wall, refreshes, engine.embeddings.copy()

    inc_s, refreshes, z_inc = drive(True)
    full_s, _, z_full = drive(False)
    div = float(np.abs(z_inc - z_full).max())
    return inc_s, full_s, div, refreshes


def run_kernels_benchmark(config: KernelWorkloadConfig | None = None,
                          report_name: str | None = "kernels"
                          ) -> KernelsBenchResult:
    """Run all three kernel comparisons and write the standard reports."""
    config = config or KernelWorkloadConfig()
    dtdg = generate_amlsim(config.amlsim()).dtdg
    commits = _commit_stream(dtdg, config.event_batches_per_step)

    inc_s, full_s, inc_div, avg_delta, nnz, maintainer = \
        _bench_inc_laplacian(dtdg, commits, config)
    frontier = _frontier_rows(commits)
    sliced_s, sfull_s, spmm_div, num_rows = \
        _bench_spmm_rows(dtdg, commits, maintainer, frontier, config)
    matrix = _bench_backend_matrix(dtdg, commits, maintainer, frontier,
                                   config)
    r_inc_s, r_full_s, r_div, refreshes = \
        _bench_serving_refresh(dtdg, config)

    result = KernelsBenchResult(
        inc_update_s=inc_s, full_rebuild_s=full_s,
        inc_max_divergence=inc_div, avg_delta_edges=avg_delta,
        operator_nnz=nnz,
        spmm_rows_s=sliced_s, spmm_full_s=sfull_s,
        spmm_divergence=spmm_div, num_sliced_rows=num_rows,
        refresh_inc_s=r_inc_s, refresh_full_s=r_full_s,
        refresh_divergence=r_div, num_refreshes=refreshes,
        backend_matrix=matrix)

    if report_name:
        steps = len(commits)
        rows = [
            (f"incremental Ã maintenance ({steps} commits)",
             round(inc_s * 1e3 / steps, 4),
             round(full_s * 1e3 / steps, 4),
             round(result.inc_speedup, 2),
             f"{inc_div:.1e}"),
            ("row-sliced SpMM "
             f"({num_rows}/{dtdg.num_vertices} rows)",
             round(sliced_s * 1e3 / config.spmm_repeats, 4),
             round(sfull_s * 1e3 / config.spmm_repeats, 4),
             round(result.spmm_speedup, 2),
             f"{spmm_div:.1e}"),
            (f"serving refresh ({config.serve_model}, "
             f"{refreshes} refreshes)",
             round(r_inc_s * 1e3 / refreshes, 4),
             round(r_full_s * 1e3 / refreshes, 4),
             round(result.refresh_speedup, 2),
             f"{r_div:.1e}"),
        ]
        table = render_table(
            ["kernel path", "incremental ms", "full ms", "speedup",
             "max |divergence|"],
            rows,
            title=(f"Kernel layer: AML-Sim N={config.num_accounts}, "
                   f"nnz(Ã)≈{nnz}, avg delta {avg_delta:.0f} edges/step"))
        kernel_cols = ["spmm", "spmm_rows", "spmm_rows_bwd",
                       "spmm_patch", "transpose", "maintainer_commit"]
        matrix_rows = [
            [name] + [f"{matrix[name][k]['us']:.0f} "
                      f"({matrix[name][k]['vs_reference']:.2f}x)"
                      for k in kernel_cols]
            + [f"{matrix[name]['max_divergence']:.1e}"]
            for name in matrix]
        matrix_table = render_table(
            ["backend"] + [f"{k} µs" for k in kernel_cols] + ["max |div|"],
            matrix_rows,
            title=(f"Kernel backends ({num_rows}-row frontier, "
                   f"F={config.feature_dim}); (ratio) = reference time "
                   "/ backend time"))
        write_report(report_name, table + "\n\n" + matrix_table)
        write_bench_json("kernels", {
            "workload": {
                "num_accounts": config.num_accounts,
                "num_timesteps": config.num_timesteps,
                "background_per_step": config.background_per_step,
                "operator_nnz": nnz,
                "avg_delta_edges": round(avg_delta, 1),
            },
            "inc_laplacian": {
                "speedup": round(result.inc_speedup, 3),
                "incremental_ms_per_commit": round(inc_s * 1e3 / steps, 4),
                "full_rebuild_ms_per_commit": round(full_s * 1e3 / steps,
                                                    4),
                "num_commits": steps,
                "max_abs_divergence": inc_div,
            },
            "spmm_rows": {
                "speedup": round(result.spmm_speedup, 3),
                "rows": num_rows,
                "num_vertices": dtdg.num_vertices,
                "max_abs_divergence": spmm_div,
            },
            "serving_refresh": {
                "speedup": round(result.refresh_speedup, 3),
                "model": config.serve_model,
                "num_refreshes": refreshes,
                "max_abs_divergence": r_div,
            },
            # per-backend entries deliberately avoid the guarded
            # "speedup" key names: backend availability varies by
            # machine and the perf guard must not fail on a backend the
            # runner doesn't have
            "backend_matrix": matrix,
        })
    return result
