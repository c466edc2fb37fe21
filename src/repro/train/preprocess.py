"""Input pre-processing (paper §5.4, §5.5, §6.1).

* :func:`degree_features` — the paper's input features: per-timestep
  in/out degrees (F = 2).
* :func:`apply_edge_life` — EvolveGCN's smoothing: each snapshot absorbs
  the edges of the previous ``l − 1`` snapshots.
* :func:`apply_mproduct_smoothing` — TM-GCN's smoothing: the sparse
  adjacency tensor (and optionally the features) is M-transformed along
  the timeline.
* :func:`compute_laplacians` — the Eq. 1 operators.  (The §5.5 trick
  of computing the parameter-free first layer's ``Ã·X`` once is the
  reuse cache's memo path, :mod:`repro.train.reuse`.)

Both smoothing operations *increase* the overlap between consecutive
snapshots — the property that magnifies graph-difference gains for
TM-GCN and EvolveGCN relative to CD-GCN (paper §6.2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.diff import encode_sequence
from repro.graph.dtdg import DTDG
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.graph.snapshot import GraphSnapshot
from repro.nn.mproduct import m_matrix
from repro.tensor.sparse import SparseMatrix

__all__ = ["degree_features", "apply_edge_life", "apply_mproduct_smoothing",
           "compute_laplacians", "compute_laplacians_with_diffs",
           "smooth_for_model"]


def degree_features(dtdg: DTDG) -> list[np.ndarray]:
    """Per-timestep ``N × 2`` frames of (in-degree, out-degree)."""
    frames = []
    for snap in dtdg.snapshots:
        frames.append(np.stack([snap.in_degrees(), snap.out_degrees()],
                               axis=1))
    return frames


def _combine(snapshots: list[GraphSnapshot],
             coeffs: list[float]) -> GraphSnapshot:
    """Weighted union of snapshots (sparse sum of adjacency matrices)."""
    n = snapshots[0].num_vertices
    total = None
    for snap, c in zip(snapshots, coeffs):
        if c == 0.0 or snap.num_edges == 0:
            continue
        mat = snap.adjacency().csr * c
        total = mat if total is None else total + mat
    if total is None:
        return GraphSnapshot(n, np.empty((0, 2), dtype=np.int64))
    coo = total.tocoo()
    edges = np.stack([coo.row.astype(np.int64),
                      coo.col.astype(np.int64)], axis=1)
    return GraphSnapshot(n, edges, coo.data)


def apply_edge_life(dtdg: DTDG, life: int) -> DTDG:
    """EvolveGCN smoothing: ``A_t ← A_t + Σ_{i=t−l+1}^{t−1} A_i`` (§5.4)."""
    if life < 1:
        raise ConfigError(f"edge life must be >= 1, got {life}")
    out = []
    for t in range(dtdg.num_timesteps):
        lo = max(0, t - life + 1)
        window = dtdg.snapshots[lo:t + 1]
        out.append(_combine(window, [1.0] * len(window)))
    smoothed = DTDG(out, name=f"{dtdg.name}+edgelife{life}")
    return smoothed


def apply_mproduct_smoothing(dtdg: DTDG, window: int,
                             smooth_features: bool = True) -> DTDG:
    """TM-GCN smoothing: M-transform the adjacency tensor (and the
    feature tensor when present) along the timeline (§5.4)."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    t_count = dtdg.num_timesteps
    m = m_matrix(t_count, window)
    out = []
    for t in range(t_count):
        ks = np.nonzero(m[t])[0]
        out.append(_combine([dtdg.snapshots[k] for k in ks],
                            [m[t, k] for k in ks]))
    features = None
    if dtdg.features is not None and smooth_features:
        stacked = np.stack(dtdg.features)  # (T, N, F)
        smoothed = np.einsum("tk,knf->tnf", m, stacked)
        features = [smoothed[t] for t in range(t_count)]
    elif dtdg.features is not None:
        features = dtdg.features
    return DTDG(out, features, name=f"{dtdg.name}+mprod{window}")


def smooth_for_model(dtdg: DTDG, model_name: str,
                     edge_life: int = 3, window: int = 3) -> DTDG:
    """Apply each paper model's own preprocessing (§5.4/§6.1).

    TM-GCN → M-product; EvolveGCN → edge-life; CD-GCN → raw input.
    """
    if model_name == "tmgcn":
        return apply_mproduct_smoothing(dtdg, window)
    if model_name in ("egcn", "evolvegcn"):
        return apply_edge_life(dtdg, edge_life)
    if model_name == "cdgcn":
        return dtdg
    raise ConfigError(f"unknown model {model_name!r}")


def compute_laplacians(dtdg: DTDG, *,
                       backend=None) -> list[SparseMatrix]:
    """Normalized Laplacian ``Ã_t`` per snapshot (Eq. 1).

    ``Ã_0`` is built in full once; every subsequent operator streams
    through the :class:`~repro.graph.inc_laplacian.LaplacianMaintainer`
    via the timeline's GD deltas (§3.2), touching only the rows and
    columns each transition changed.  The result is bit-compatible
    with a per-snapshot full rebuild.  ``backend`` pins the kernel
    backend of the maintainer and every exported operator.
    """
    return compute_laplacians_with_diffs(dtdg, backend=backend)[0]


def compute_laplacians_with_diffs(dtdg: DTDG, *, backend=None):
    """Per-snapshot ``Ã_t`` plus the GD deltas that produced them.

    Returns ``(laplacians, diffs)`` where ``diffs[t - 1]`` encodes the
    transition ``A_{t-1} → A_t``.  The training tier's cross-timestep
    aggregation reuse consumes the diffs to derive each timestep's
    delta-touched row set, so they are exposed here instead of being
    recomputed from the snapshots a second time.
    """
    snapshots = dtdg.snapshots
    if not snapshots:
        return [], []
    first, diffs = encode_sequence(snapshots)
    maintainer = LaplacianMaintainer(first, backend=backend)
    laplacians = [maintainer.export()]
    for snap, diff in zip(snapshots[1:], diffs):
        maintainer.update(snap, diff)
        laplacians.append(maintainer.export())
    return laplacians, diffs
