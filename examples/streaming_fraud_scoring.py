"""Train-then-serve: stream live transactions through the model server.

The full production loop the serving subsystem enables:

1. simulate a bank's transaction history with planted laundering
   typologies (AML-Sim),
2. train CD-GCN + a fraud-classification head on the first weeks,
3. persist the trained model as a checkpoint (the train→serve hand-off),
4. boot a :class:`repro.serve.ModelServer` from the checkpoint and
   stream the held-out weeks through it as live edge events, scoring
   accounts as transactions arrive,
5. print flagged accounts, detection quality against the simulator's
   ground truth, and the server's throughput/latency/cache counters.

Run:  python examples/streaming_fraud_scoring.py
"""

import os
import tempfile

import numpy as np

from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.serve import ModelServer, events_between
from repro.tensor import Adam, Tensor
from repro.train import (NodeClassificationTask, compute_laplacians,
                         degree_features, save_model_checkpoint)

WARMUP_T = 8          # timesteps used for training
EMBED = 12


def train(sim, dtdg):
    """Train CD-GCN + fraud head on the warmup prefix."""
    history = dtdg.slice_time(0, WARMUP_T)
    history.set_features(degree_features(history))
    laplacians = compute_laplacians(history)
    frames = [Tensor(f) for f in history.features]
    labels = sim.account_labels()

    model = build_model("cdgcn", in_features=2, hidden=EMBED,
                        embed_dim=EMBED, seed=0)
    task = NodeClassificationTask(labels, WARMUP_T, embed_dim=EMBED,
                                  num_classes=2, seed=0)
    optimizer = Adam(model.parameters() + task.head.parameters(), lr=0.03)
    for epoch in range(60):
        optimizer.zero_grad()
        embeddings = model(laplacians, frames)
        loss = task.loss_full(embeddings)
        loss.backward()
        optimizer.step()
        if epoch % 20 == 0 or epoch == 59:
            print(f"  epoch {epoch:2d}  loss {loss.item():.4f}  "
                  f"train accuracy {task.accuracy(embeddings):.1%}")
    return model, task


def main() -> None:
    config = AMLSimConfig(
        num_accounts=400, num_timesteps=14, background_per_step=700,
        partner_persistence=0.85, num_fan_out=6, num_fan_in=6,
        num_cycles=4, num_scatter_gather=3, pattern_size=10, seed=7)
    sim = generate_amlsim(config)
    dtdg = sim.dtdg
    labels = sim.account_labels()
    print(f"simulated {dtdg.total_nnz} transactions over "
          f"{dtdg.num_timesteps} weeks; {int(labels.sum())} of "
          f"{len(labels)} accounts launder money")

    print(f"\ntraining CD-GCN on the first {WARMUP_T} weeks ...")
    model, task = train(sim, dtdg)

    # persist and boot the server exactly as a deployment would
    ckpt = os.path.join(tempfile.gettempdir(), "amlsim_cdgcn.npz")
    save_model_checkpoint(ckpt, model, "cdgcn", fraud_head=task.head,
                          extra={"dataset": "amlsim", "warmup": WARMUP_T})
    server = ModelServer.from_checkpoint(
        ckpt, dtdg[0], max_batch_size=32, flush_latency_ms=5.0)
    for t in range(1, WARMUP_T):
        server.advance_time(dtdg[t])
    print(f"\nmodel server booted from {ckpt}")

    # stream the held-out weeks as live edge events
    flagged: dict[int, float] = {}
    rng = np.random.default_rng(1)
    for t in range(WARMUP_T, dtdg.num_timesteps):
        server.advance_time()
        events = events_between(server.ingestor.resident, dtdg[t])
        third = max(1, len(events) // 3)
        for lo in range(0, len(events), third):
            batch = events[lo:lo + third]
            server.ingest_events(batch)
            # score the accounts that just transacted, plus a random audit
            touched = {e.src for e in batch} | {e.dst for e in batch}
            audit = set(rng.integers(0, dtdg.num_vertices, 8).tolist())
            accounts = np.array(sorted(touched | audit))
            queries = server.submit_fraud_many(accounts)   # one chunk
            server.drain()
            hits = queries.scores >= 0.5
            for acct, score in zip(accounts[hits].tolist(),
                                   queries.scores[hits].tolist()):
                flagged[acct] = max(flagged.get(acct, 0.0), score)
        print(f"  week {t}: {len(events):4d} events streamed, "
              f"{len(flagged)} accounts flagged so far")

    # detection quality of the streaming scores
    predicted = np.zeros(dtdg.num_vertices, dtype=bool)
    predicted[list(flagged)] = True
    tp = int((predicted & (labels == 1)).sum())
    fp = int((predicted & (labels == 0)).sum())
    fn = int((~predicted & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else float("nan")
    recall = tp / (tp + fn) if tp + fn else float("nan")

    top = sorted(flagged.items(), key=lambda kv: -kv[1])[:10]
    print("\ntop flagged accounts (score, ground truth):")
    for acct, score in top:
        truth = "LAUNDERER" if labels[acct] else "clean"
        print(f"  account {acct:4d}  score {score:.3f}  {truth}")
    print(f"\nstreaming detection: precision {precision:.1%}, "
          f"recall {recall:.1%}")

    stats = server.stats()
    c = stats.counters
    print(f"server: {c.queries_completed} queries in "
          f"{stats.elapsed_s * 1e3:.0f} ms "
          f"({stats.queries_per_second:,.0f} q/s), "
          f"p50 {stats.latency_p50_ms:.2f} ms, "
          f"p99 {stats.latency_p99_ms:.2f} ms")
    print(f"cache: hit rate {c.cache_hit_rate:.1%} over {c.refreshes} "
          f"refreshes ({c.events_ingested} events, "
          f"{c.advances} timeline advances)")


if __name__ == "__main__":
    main()
