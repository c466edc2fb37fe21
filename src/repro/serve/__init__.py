"""Streaming inference: live ingestion, embedding cache, model server.

The serving tier turns the trained reproduction into a train-then-serve
system: edge events stream into a resident snapshot through the same
graph-difference machinery the trainer uses for CPU→GPU transfer
(paper §3.2), an embedding cache invalidates only the k-hop neighborhood
of changed edges, and a micro-batching model server answers
link-prediction and fraud-score queries from the incrementally
maintained embeddings.
"""

from repro.serve.ingest import (EdgeEvent, IngestResult, StreamIngestor,
                                events_between)
from repro.serve.cache import EmbeddingCache, expand_dirty
from repro.serve.engine import InferenceEngine
from repro.serve.server import (ModelServer, PendingQuery, QueryBatch,
                                QueryFrontend, score_fraud, score_links)
from repro.serve.metrics import LatencyTracker, ServerCounters, ServerStats
from repro.serve.sharded import ShardEngine, ShardPlan

__all__ = [
    "EdgeEvent", "IngestResult", "StreamIngestor", "events_between",
    "EmbeddingCache", "expand_dirty",
    "InferenceEngine",
    "ModelServer", "PendingQuery", "QueryBatch", "QueryFrontend",
    "score_links", "score_fraud",
    "LatencyTracker", "ServerCounters", "ServerStats",
    "ShardPlan", "ShardEngine",
]
