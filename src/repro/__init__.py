"""repro — reproduction of "Efficient Scaling of Dynamic Graph Neural
Networks" (SC'21, arXiv:2109.07893).

Subpackages
-----------
``repro.tensor``
    From-scratch reverse-mode autograd over numpy/scipy-sparse.
``repro.graph``
    Discrete-time dynamic graphs: snapshots, Laplacians, the
    graph-difference encoding, generators and calibrated datasets.
``repro.cluster``
    Simulated multi-node multi-GPU system: device memory accounting,
    CPU→GPU transfer engine, link-model collectives, per-rank clocks.
``repro.partition``
    Snapshot, vertex (hypergraph) and hybrid partitioning strategies.
``repro.nn`` / ``repro.models``
    GCN/LSTM/M-product blocks and the CD-GCN, EvolveGCN, TM-GCN models.
``repro.train``
    Smoothing pre-processing, timeline gradient checkpointing, tasks,
    the trainer (one rank is one GPU), model checkpoint save/load.
``repro.serve``
    Streaming inference: live edge-event ingestion via graph-difference
    deltas, a k-hop-invalidated embedding cache, and a micro-batching
    model server for link-prediction and fraud-score queries.
``repro.store``
    Temporal graph store: append-only delta-log WAL, CSR snapshot
    compaction, time-travel views, and crash-recoverable serving state.
``repro.bench``
    Harness that regenerates every table and figure of the paper.
"""

__version__ = "1.0.0"
