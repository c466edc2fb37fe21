"""Learning tasks over dynamic-GNN embeddings (paper §2.2, §6.4).

Link prediction follows the paper's protocol exactly: train on the
first ``T`` timesteps, predict edges of timestep ``T+1``.  Per training
timestep, a ``θ`` fraction of that snapshot's edges get label 1 and an
equal number of random vertex pairs get label 0; the test set is built
the same way from the held-out final snapshot.  Pairs are classified by
concatenating the two endpoint embeddings and applying a fully
connected layer.  The head computes it as
``concat(z_u, z_v)·W = z_u·W[:d] + z_v·W[d:]`` (:class:`EdgeScorer`):
each vertex is projected once per timestep and a pair sums two
2-wide rows, one tape node per timestep.

Both tasks expose a *block* loss — ``loss_block(embeddings, t_start)``
— additive over blocks, which is the contract the checkpointed and
distributed trainers consume; ``loss_full`` is the single-block special
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.graph.dtdg import DTDG
from repro.nn.linear import EdgeScorer, Linear
from repro.tensor import Tensor, functional as F, no_grad

__all__ = ["LinkPredictionTask", "NodeClassificationTask"]


def _sample_negative_pairs(num_vertices: int, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Random vertex pairs with label 0 (paper §6.4 protocol)."""
    src = rng.integers(0, num_vertices, size=count)
    dst = rng.integers(0, num_vertices, size=count)
    return np.stack([src, dst], axis=1).astype(np.int64)


@dataclass
class _TimestepSample:
    pairs: np.ndarray   # (m, 2)
    labels: np.ndarray  # (m,) in {0, 1}


class LinkPredictionTask:
    """Paper §6.4 link prediction.

    Parameters
    ----------
    dtdg:
        The *full* dynamic graph; the last snapshot is held out as the
        test timestep ``T+1``, the rest form the training timeline.
    theta:
        Fraction of each snapshot's edges used as positive examples
        (paper: 0.1).
    embed_dim:
        Embedding width produced by the model (the head consumes
        ``2 × embed_dim``).
    """

    def __init__(self, dtdg: DTDG, embed_dim: int, theta: float = 0.1,
                 seed: int = 0) -> None:
        if not 0.0 < theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {theta}")
        if dtdg.num_timesteps < 2:
            raise DatasetError("link prediction needs >= 2 timesteps")
        rng = np.random.default_rng(seed)
        n = dtdg.num_vertices
        self.num_vertices = n
        self.num_train_timesteps = dtdg.num_timesteps - 1
        self.theta = theta
        self.samples: list[_TimestepSample] = []
        for t in range(self.num_train_timesteps):
            self.samples.append(self._build_sample(dtdg[t], theta, rng))
        self.test_sample = self._build_sample(
            dtdg[dtdg.num_timesteps - 1], theta, rng)
        self.head = EdgeScorer(embed_dim, 2, rng)

    @staticmethod
    def _build_sample(snapshot, theta: float,
                      rng: np.random.Generator) -> _TimestepSample:
        n_pos = max(1, int(round(theta * snapshot.num_edges)))
        if snapshot.num_edges == 0:
            pos = np.empty((0, 2), dtype=np.int64)
            n_pos = 0
        else:
            idx = rng.choice(snapshot.num_edges,
                             size=min(n_pos, snapshot.num_edges),
                             replace=False)
            pos = snapshot.edges[np.sort(idx)]
            n_pos = len(pos)
        neg = _sample_negative_pairs(snapshot.num_vertices, n_pos, rng)
        pairs = np.concatenate([pos, neg], axis=0)
        labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                                 np.zeros(n_pos, dtype=np.int64)])
        return _TimestepSample(pairs=pairs, labels=labels)

    # -- training loss ------------------------------------------------------------------
    def loss_block(self, embeddings: list[Tensor],
                   t_start: int) -> Tensor | None:
        """Loss contribution of timesteps ``[t_start, t_start+len)``.

        Each timestep contributes its mean cross-entropy divided by the
        number of training timesteps, so block losses sum to the full
        loss regardless of the blocking.
        """
        total: Tensor | None = None
        for offset, z in enumerate(embeddings):
            t = t_start + offset
            if t >= self.num_train_timesteps:
                continue
            sample = self.samples[t]
            if len(sample.pairs) == 0:
                continue
            logits = self.head(z, sample.pairs)
            term = F.cross_entropy(logits, sample.labels) * \
                (1.0 / self.num_train_timesteps)
            total = term if total is None else total + term
        return total

    def loss_full(self, embeddings: list[Tensor]) -> Tensor:
        loss = self.loss_block(embeddings, 0)
        if loss is None:
            raise DatasetError("no training pairs available")
        return loss

    # -- evaluation -----------------------------------------------------------------------
    def test_accuracy(self, final_embedding: Tensor) -> float:
        """Accuracy on the held-out timestep, scored from the last
        available embedding (the paper predicts ``T+1`` from ``T``)."""
        sample = self.test_sample
        if len(sample.pairs) == 0:
            return float("nan")
        with no_grad():
            logits = self.head(final_embedding, sample.pairs)
        pred = logits.data.argmax(axis=1)
        return float((pred == sample.labels).mean())

    def head_flops_per_step(self) -> float:
        """The §6.4 ledger's head charge: the concatenated FC layer over
        the mean pair count, as the paper's head computes it.  The
        per-vertex half-logits compute the same logits; the charge (and
        so the ledger) stays that of the concatenated form."""
        rows = int(np.mean([len(s.pairs) for s in self.samples])) \
            if self.samples else 0
        return self.head.fc.flops(rows)


class NodeClassificationTask:
    """Vertex classification (paper §2.2): ground-truth labels per vertex
    at each timestep, projected from embeddings by a learnable ``U``.

    Used with the AML-Sim account labels (suspicious vs normal).
    """

    def __init__(self, labels: np.ndarray, num_timesteps: int,
                 embed_dim: int, num_classes: int = 2,
                 seed: int = 0) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim == 1:
            labels = np.tile(labels, (num_timesteps, 1))
        if labels.shape[0] != num_timesteps:
            raise ConfigError("labels must cover every timestep")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ConfigError("label values out of class range")
        self.labels = labels
        self.num_train_timesteps = num_timesteps
        self.head = Linear(embed_dim, num_classes,
                           np.random.default_rng(seed))

    def loss_block(self, embeddings: list[Tensor],
                   t_start: int) -> Tensor | None:
        total: Tensor | None = None
        for offset, z in enumerate(embeddings):
            t = t_start + offset
            if t >= self.num_train_timesteps:
                continue
            term = F.cross_entropy(self.head(z), self.labels[t]) * \
                (1.0 / self.num_train_timesteps)
            total = term if total is None else total + term
        return total

    def loss_full(self, embeddings: list[Tensor]) -> Tensor:
        loss = self.loss_block(embeddings, 0)
        if loss is None:
            raise ConfigError("no embeddings supplied")
        return loss

    def accuracy(self, embeddings: list[Tensor]) -> float:
        correct = 0
        total = 0
        with no_grad():
            for t, z in enumerate(embeddings[:self.num_train_timesteps]):
                pred = self.head(z).data.argmax(axis=1)
                correct += int((pred == self.labels[t]).sum())
                total += len(pred)
        return correct / total if total else float("nan")

    def head_flops_per_step(self) -> float:
        return self.head.flops(self.labels.shape[1])
