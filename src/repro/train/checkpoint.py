"""Timeline gradient checkpointing (paper §3.1) — core contribution.

The timeline of ``T`` snapshots is cut into ``nb`` blocks.  The forward
pass streams the blocks under ``no_grad``, keeping only the inter-block
RNN carry ``π_b`` (hidden states / trailing window frames — paper
Fig. 2) and the scalar loss.  Backpropagation walks the blocks in
reverse: each block's forward is **re-run** with the tape enabled from
its stored carry, the block's own loss contribution is recomputed, the
gradient arriving from the *future* (the next block's gradient with
respect to this block's outgoing carry) is injected, and a normal
backward pass over just that block accumulates parameter gradients and
produces the carry gradient for the preceding block.

Only one block's activations are ever live, bounding GPU memory by
``O(T/nb)`` activations plus ``O(nb)`` carries — the trade the paper
balances by tuning ``nb``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.models.base import DynamicGNN, detach_carry
from repro.partition.snapshot_part import block_ranges
from repro.tensor import Tensor, no_grad
from repro.tensor.sparse import SparseMatrix

__all__ = ["CheckpointRunner", "flatten_tensors", "carry_nbytes",
           "ModelCheckpoint", "save_model_checkpoint",
           "load_model_checkpoint"]

# Loss callback: (block_embeddings, global_start_timestep) -> Tensor | None
BlockLossFn = Callable[[list[Tensor], int], Tensor | None]


def flatten_tensors(structure: Any) -> list[Tensor]:
    """Deterministic left-to-right list of every Tensor in a carry."""
    out: list[Tensor] = []

    def walk(node: Any) -> None:
        if isinstance(node, Tensor):
            out.append(node)
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key])

    walk(structure)
    return out


def _leafify(structure: Any) -> Any:
    """Clone a carry with every Tensor replaced by a grad-requiring leaf."""
    if isinstance(structure, Tensor):
        leaf = Tensor(structure.data, requires_grad=True)
        return leaf
    if isinstance(structure, tuple):
        return tuple(_leafify(s) for s in structure)
    if isinstance(structure, list):
        return [_leafify(s) for s in structure]
    if isinstance(structure, dict):
        return {k: _leafify(v) for k, v in structure.items()}
    return structure


def carry_nbytes(carry: Any) -> int:
    """Bytes of checkpoint payload ``π_b`` (for the memory model)."""
    return sum(t.nbytes for t in flatten_tensors(carry))


@dataclass
class CheckpointResult:
    """Outcome of one checkpointed forward+backward epoch."""

    loss: float
    num_blocks: int
    peak_live_timesteps: int
    carry_bytes: int
    # wall seconds of the two forward sweeps (phase-1 streaming plus the
    # phase-2 per-block re-runs, which are forward work re-executed for
    # the backward schedule) — the per-epoch forward time
    forward_seconds: float = 0.0
    # tape nodes visited, summed over the per-block backward sweeps
    tape_nodes: int = 0


class CheckpointRunner:
    """Executes the §3.1 two-phase schedule over a model's block protocol."""

    def __init__(self, model: DynamicGNN, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
        self.model = model
        self.num_blocks = num_blocks

    # -- forward only (inference) ---------------------------------------------------
    def forward_streaming(self, laplacians: Sequence[SparseMatrix],
                          frames: Sequence[Tensor]) -> list[Tensor]:
        """Memory-light inference: embeddings, one block at a time."""
        t_total = len(frames)
        if t_total == 0:
            return []
        outs: list[Tensor] = []
        carry = self.model.init_carry(frames[0].shape[0])
        with no_grad():
            for lo, hi in block_ranges(t_total, min(self.num_blocks,
                                                    t_total)):
                block_out, carry = self.model.forward_block(
                    list(laplacians[lo:hi]), list(frames[lo:hi]), carry,
                    t0=lo)
                outs.extend(block_out)
        return outs

    # -- training step ------------------------------------------------------------------
    def run_epoch(self, laplacians: Sequence[SparseMatrix],
                  frames: Sequence[Tensor],
                  block_loss: BlockLossFn) -> CheckpointResult:
        """One forward + checkpointed backward; parameter ``.grad`` fields
        are populated exactly as a full-graph backward would."""
        t_total = len(frames)
        if t_total == 0:
            raise ConfigError("cannot train on an empty timeline")
        if len(laplacians) != t_total:
            raise ConfigError("laplacian/frame count mismatch")
        nb = min(self.num_blocks, t_total)
        ranges = block_ranges(t_total, nb)
        rows = frames[0].shape[0]

        # ---- phase 1: streaming forward, storing carries ------------------
        # keep the live initial carry: it can contain learnable tensors
        # (EvolveGCN's base weight is the weight-LSTM's initial hidden
        # state), whose gradient arrives through block 0's carry
        init_carry_live = self.model.init_carry(rows)
        carries: list[Any] = [detach_carry(init_carry_live)]
        total_loss = 0.0
        forward_s = 0.0
        with no_grad():
            for lo, hi in ranges:
                t0 = time.perf_counter()
                block_out, carry = self.model.forward_block(
                    list(laplacians[lo:hi]), list(frames[lo:hi]),
                    carries[-1], t0=lo)
                forward_s += time.perf_counter() - t0
                carries.append(detach_carry(carry))
                loss = block_loss(block_out, lo)
                if loss is not None:
                    total_loss += loss.item()

        # ---- phase 2: reverse sweep with per-block re-run ------------------
        future_grads: list[np.ndarray] | None = None
        tape_nodes = 0
        for b in range(nb - 1, -1, -1):
            lo, hi = ranges[b]
            carry_in = _leafify(carries[b])
            in_leaves = flatten_tensors(carry_in)
            t0 = time.perf_counter()
            block_out, carry_out = self.model.forward_block(
                list(laplacians[lo:hi]), list(frames[lo:hi]), carry_in,
                t0=lo)
            forward_s += time.perf_counter() - t0

            objective = block_loss(block_out, lo)
            # inject the future's gradient through the outgoing carry:
            # d(total)/d(carry_out) was produced by block b+1's backward
            if future_grads is not None:
                out_tensors = flatten_tensors(carry_out)
                if len(out_tensors) != len(future_grads):
                    raise ConfigError(
                        "carry structure changed between blocks; cannot "
                        "propagate checkpoint gradients")
                for tensor, grad in zip(out_tensors, future_grads):
                    if grad is None or not tensor.requires_grad:
                        continue
                    term = (tensor * Tensor(grad)).sum()
                    objective = term if objective is None \
                        else objective + term
            if objective is None or not objective.requires_grad:
                future_grads = [None] * len(in_leaves)
                continue
            tape_nodes += objective.backward()
            future_grads = [leaf.grad for leaf in in_leaves]

        # route the gradient w.r.t. the initial carry into any learnable
        # tensors it contains (no-op for zero-state carries)
        if future_grads is not None:
            for tensor, grad in zip(flatten_tensors(init_carry_live),
                                    future_grads):
                if grad is not None and tensor.requires_grad:
                    tensor._accumulate(grad)

        bsize = max(hi - lo for lo, hi in ranges)
        return CheckpointResult(
            loss=total_loss, num_blocks=nb, peak_live_timesteps=bsize,
            carry_bytes=sum(carry_nbytes(c) for c in carries[1:]),
            forward_seconds=forward_s, tape_nodes=tape_nodes)


# ---------------------------------------------------------------------------
# Model persistence: the train→serve hand-off.
#
# A checkpoint is a single .npz with every model (and optional head)
# parameter plus a JSON config record sufficient to rebuild the model
# through repro.models.registry — the ModelServer's loading path.
# ---------------------------------------------------------------------------

@dataclass
class ModelCheckpoint:
    """A rebuilt model plus its task heads, as loaded from disk."""

    model: DynamicGNN
    model_name: str
    link_head: Any = None    # EdgeScorer | None
    fraud_head: Any = None   # Linear | None
    extra: dict | None = None


def _model_config(model: DynamicGNN, model_name: str) -> dict:
    config = {
        "model_name": model_name,
        "in_features": model.in_features,
        "hidden": model.hidden,
        "embed_dim": model.embed_dim,
        "num_layers": model.num_layers,
    }
    if hasattr(model, "window"):
        config["window"] = model.window
    return config


def save_model_checkpoint(path: str, model: DynamicGNN, model_name: str,
                          *, link_head=None, fraud_head=None,
                          extra: dict | None = None) -> str:
    """Persist a trained model (and optional heads) to ``path`` (.npz).

    ``model_name`` must resolve through the model registry so
    :func:`load_model_checkpoint` can rebuild the architecture.
    """
    from repro.models.registry import resolve_model_name
    config = _model_config(model, resolve_model_name(model_name))
    if link_head is not None:
        config["link_head"] = {"embed_dim": link_head.embed_dim,
                               "num_classes": link_head.num_classes}
    if fraud_head is not None:
        config["fraud_head"] = {"in_features": fraud_head.in_features,
                                "out_features": fraud_head.out_features,
                                "bias": fraud_head.use_bias}
    if extra:
        config["extra"] = extra
    payload: dict[str, np.ndarray] = {
        "config_json": np.array([json.dumps(config)])}
    for name, value in model.state_dict().items():
        payload[f"model/{name}"] = value
    if link_head is not None:
        for name, value in link_head.state_dict().items():
            payload[f"link_head/{name}"] = value
    if fraud_head is not None:
        for name, value in fraud_head.state_dict().items():
            payload[f"fraud_head/{name}"] = value
    # write through a file handle: np.savez would otherwise silently
    # append ".npz" to a suffix-less path and the returned path would
    # not exist
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)
    return path


def load_model_checkpoint(path: str, seed: int = 0) -> ModelCheckpoint:
    """Rebuild a model (via the registry) from a saved checkpoint."""
    from repro.models.registry import build_model
    from repro.nn.linear import EdgeScorer, Linear
    if not os.path.exists(path):
        raise ConfigError(f"no such checkpoint: {path}")
    with np.load(path, allow_pickle=False) as archive:
        config = json.loads(str(archive["config_json"][0]))
        kwargs = {}
        if "window" in config:
            kwargs["window"] = config["window"]
        model = build_model(config["model_name"],
                            in_features=config["in_features"],
                            hidden=config["hidden"],
                            embed_dim=config["embed_dim"],
                            num_layers=config["num_layers"],
                            seed=seed, **kwargs)

        def section(prefix: str) -> dict[str, np.ndarray]:
            plen = len(prefix) + 1
            return {key[plen:]: archive[key] for key in archive.files
                    if key.startswith(prefix + "/")}

        model.load_state_dict(section("model"))
        rng = np.random.default_rng(seed)
        link_head = fraud_head = None
        if "link_head" in config:
            spec = config["link_head"]
            link_head = EdgeScorer(spec["embed_dim"], spec["num_classes"],
                                  rng)
            link_head.load_state_dict(section("link_head"))
        if "fraud_head" in config:
            spec = config["fraud_head"]
            fraud_head = Linear(spec["in_features"], spec["out_features"],
                                rng, bias=spec["bias"])
            fraud_head.load_state_dict(section("fraud_head"))
    return ModelCheckpoint(model=model, model_name=config["model_name"],
                           link_head=link_head, fraud_head=fraud_head,
                           extra=config.get("extra"))
