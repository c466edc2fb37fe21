"""Graph Convolutional Network layers (paper Eq. 2 and the CD-GCN
skip-concatenation variant of §5.1).

Two forward paths exist on purpose:

* :meth:`GCNLayer.forward` — the standard ``σ(Ã·X·W)``;
* :meth:`GCNLayer.forward_precomputed` — consumes a *pre-computed*
  ``Ã·X`` (the §5.5 optimization: the sparse-dense product is parameter
  independent, so it is computed once before training and reused every
  epoch).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Module, Parameter, Tensor, functional as F, init
from repro.tensor.sparse import SparseMatrix, spmm

__all__ = ["GCNLayer", "gcn_spmm_flops", "gcn_dense_flops"]


def gcn_spmm_flops(nnz: int, features: int) -> float:
    """FLOPs of the sparse aggregation ``Ã·X`` (2 per multiply-add)."""
    return 2.0 * nnz * features


def gcn_dense_flops(rows: int, f_in: int, f_out: int) -> float:
    """FLOPs of the dense projection ``(Ã·X)·W``."""
    return 2.0 * rows * f_in * f_out


class GCNLayer(Module):
    """One graph convolution.

    Parameters
    ----------
    in_features / out_features:
        ``F`` and ``F'`` of Eq. 2.
    skip_concat:
        CD-GCN variant (§5.1): ``Y = σ(Y₀ ∘ Y₀·W)`` where ``Y₀ = Ã·X``;
        the output width becomes ``in_features + out_features``.
    activation:
        ``"relu"`` (default) or ``"none"`` (the framework's last layer
        leaves logit scaling to the head).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, skip_concat: bool = False,
                 activation: str = "relu") -> None:
        super().__init__()
        if activation not in ("relu", "none"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.skip_concat = skip_concat
        self.activation = activation
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng),
            name="gcn.weight")

    @property
    def output_dim(self) -> int:
        if self.skip_concat:
            return self.in_features + self.out_features
        return self.out_features

    # -- forward paths ----------------------------------------------------------
    def forward(self, laplacian: SparseMatrix, x: Tensor) -> Tensor:
        return self.forward_precomputed(spmm(laplacian, x))

    def forward_precomputed(self, aggregated: Tensor) -> Tensor:
        """Apply the parameterized part to a pre-computed ``Ã·X``."""
        return F.gcn_project(aggregated, self.weight, self.skip_concat,
                             relu=self.activation == "relu")

    def forward_with_weight(self, laplacian: SparseMatrix, x: Tensor,
                            weight: Tensor,
                            precomputed: Tensor | None = None) -> Tensor:
        """EvolveGCN path: use an externally evolved weight ``W_t``
        (optionally over a pre-computed / reuse-patched ``Ã·X``)."""
        aggregated = precomputed if precomputed is not None \
            else spmm(laplacian, x)
        return F.gcn_project(aggregated, weight,
                             relu=self.activation == "relu")

    # -- cost model ---------------------------------------------------------------
    def flops(self, nnz: int, rows: int) -> tuple[float, float]:
        """(sparse, dense) FLOPs of one application."""
        return (gcn_spmm_flops(nnz, self.in_features),
                gcn_dense_flops(rows, self.in_features, self.out_features))
