"""The distributed cost ledger, cell by cell, against a recorded fixture.

``ledger_parent.json`` was recorded at the commit *before* the three
distribution engines became cost plans over one forward (each engine
then spelled its own model forward beside its charges).  Every number
an epoch reports must survive that refactor — and any later one — to
the digit: collectives barrier the rank clocks, so even the *order* of
two charges is part of the ledger.  The only cells re-recorded after
the refactor are hybrid × EvolveGCN, whose replicated weight evolution
the old hybrid engine forgot to charge (``compute`` only).

Re-record (deliberate cost-model changes only, and say so in
CHANGES.md): ``PYTHONPATH=src python tests/train/test_distributed_ledger.py``.
"""

import itertools
import json
import pathlib

import pytest

from repro.cluster import Cluster
from repro.graph import evolving_dtdg
from repro.models import MODEL_NAMES, build_model
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask

FIXTURE = pathlib.Path(__file__).with_name("ledger_parent.json")
EPOCHS = 2

EXACT = ("comm_volume_units", "comm_volume_full_units",
         "gradient_volume_units", "transfer_bytes",
         "transfer_naive_equivalent_bytes", "peak_memory_bytes",
         "agg_flops", "agg_flops_full_equivalent")
SECONDS = ("transfer", "compute", "comm")

CELLS = {f"{model}-{part}-{'reuse' if reuse else 'full'}-nb{nb}":
         (model, part, reuse, nb)
         for model, part, reuse, nb in itertools.product(
             MODEL_NAMES, ("snapshot", "vertex", "hybrid"),
             (False, True), (1, 2))}


def run_cell(model_name, part, reuse, num_blocks) -> list[dict]:
    """Two epochs of one (model, partitioning, reuse, blocks) cell."""
    dtdg = evolving_dtdg(40, 7, 120, churn=0.25, seed=3)
    model = build_model(model_name, in_features=2, hidden=4, embed_dim=4,
                        seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
    # hybrid × gcn_rnn allows one group only (§6.5): 2 ranks there
    ranks = 2 if part == "hybrid" and model.kind == "gcn_rnn" else 4
    config = DistConfig(partitioning=part, group_size=2,
                        learning_rate=0.02, num_blocks=num_blocks,
                        reuse_aggregation=reuse)
    trainer = DistributedTrainer(model, dtdg, task, Cluster.of_size(ranks),
                                 config)
    epochs = []
    for result in trainer.fit(EPOCHS):
        row = {"loss": result.loss}
        row.update({k: getattr(result.breakdown, k) for k in SECONDS})
        row.update({k: getattr(result, k) for k in EXACT})
        epochs.append(row)
    return epochs


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(recorded):
    assert sorted(recorded) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_ledger_equals_recorded(cell, recorded):
    got = run_cell(*CELLS[cell])
    assert len(got) == len(recorded[cell]) == EPOCHS
    for epoch, (row, want) in enumerate(zip(got, recorded[cell])):
        for key in EXACT:
            assert row[key] == want[key], (cell, epoch, key)
        for key in SECONDS:
            assert row[key] == pytest.approx(want[key], rel=1e-12), \
                (cell, epoch, key)
        assert row["loss"] == pytest.approx(want["loss"], rel=1e-8)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {cell: run_cell(*args) for cell, args in CELLS.items()},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells -> {FIXTURE}")
