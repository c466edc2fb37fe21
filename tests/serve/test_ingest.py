"""Tests for live edge-event ingestion (StreamIngestor)."""

import numpy as np
import pytest

from repro.errors import ConfigError, DatasetError
from repro.graph import GraphSnapshot, apply_diff
from repro.graph.generators import evolving_dtdg
from repro.serve import EdgeEvent, StreamIngestor, events_between
from repro.serve.ingest import fold_event_batch


def snap(n, pairs, values=None):
    return GraphSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         values)


class TestEdgeEvent:
    def test_bad_op_rejected(self):
        with pytest.raises(ConfigError):
            EdgeEvent(0, 1, op="upsert")

    def test_defaults(self):
        e = EdgeEvent(2, 3)
        assert e.op == "add" and e.value == 1.0


class TestStreamIngestor:
    def test_add_edge(self):
        ing = StreamIngestor(snap(4, [[0, 1]]))
        result = ing.commit([EdgeEvent(2, 3)])
        assert result.snapshot == snap(4, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(result.dirty, [2, 3])
        assert result.num_events == 1

    def test_remove_edge(self):
        ing = StreamIngestor(snap(4, [[0, 1], [2, 3]]))
        result = ing.commit([EdgeEvent(2, 3, op="remove")])
        assert result.snapshot == snap(4, [[0, 1]])

    def test_remove_missing_edge_noop(self):
        ing = StreamIngestor(snap(4, [[0, 1]]))
        result = ing.commit([EdgeEvent(1, 2, op="remove")])
        assert result.snapshot == snap(4, [[0, 1]])
        # endpoints still reported dirty (conservative)
        np.testing.assert_array_equal(result.dirty, [1, 2])

    def test_add_existing_edge_accumulates_value(self):
        ing = StreamIngestor(snap(4, [[0, 1]], values=[2.0]))
        result = ing.commit([EdgeEvent(0, 1, value=3.0)])
        np.testing.assert_allclose(result.snapshot.values, [5.0])

    def test_remove_then_add_replaces_value(self):
        ing = StreamIngestor(snap(4, [[0, 1]], values=[2.0]))
        result = ing.commit([EdgeEvent(0, 1, op="remove"),
                             EdgeEvent(0, 1, value=7.0)])
        assert result.snapshot == snap(4, [[0, 1]], values=[7.0])

    def test_out_of_range_endpoint_rejected(self):
        base = snap(4, [[0, 1]])
        ing = StreamIngestor(base)
        with pytest.raises(DatasetError):
            ing.commit([EdgeEvent(2, 3), EdgeEvent(0, 4)])
        # the whole batch is refused before anything moves
        assert ing.resident is base
        assert ing.total_events == ing.total_commits == 0

    def test_empty_commit(self):
        base = snap(4, [[0, 1]])
        ing = StreamIngestor(base)
        result = ing.commit()
        assert result.num_events == 0
        assert result.snapshot is base
        assert len(result.dirty) == 0
        # nothing changed, so nothing is rebuilt: the resident is the
        # same object and the delta is the empty diff against it
        assert ing.resident is base
        assert len(result.diff.removed) == len(result.diff.added) == 0
        assert apply_diff(base, result.diff) == base

    def test_diff_is_replayable(self):
        """The emitted SnapshotDiff must replay on a mirror of the old
        resident — the GD wire-format contract."""
        base = snap(5, [[0, 1], [1, 2], [3, 4]])
        mirror = snap(5, [[0, 1], [1, 2], [3, 4]])
        ing = StreamIngestor(base)
        result = ing.commit([EdgeEvent(2, 3), EdgeEvent(1, 2, op="remove")])
        assert apply_diff(mirror, result.diff) == result.snapshot

    def test_counters_and_payload(self):
        ing = StreamIngestor(snap(4, [[0, 1]]))
        result = ing.commit([EdgeEvent(1, 2), EdgeEvent(2, 3)])
        assert ing.total_events == 2
        assert ing.total_commits == 1
        assert ing.total_payload_nbytes == result.payload_nbytes > 0

    def test_rebase_keeps_vertex_set(self):
        ing = StreamIngestor(snap(4, [[0, 1]]))
        with pytest.raises(DatasetError):
            ing.rebase(snap(5, [[0, 1]]))


class TestFoldValidation:
    """The one event fold rejects what would corrupt the graph — an
    endpoint that is not an integer, a value that is not finite — and
    folds numpy integers like Python ones."""

    BASE = snap(4, [[0, 1]], values=[1e308])

    @pytest.mark.parametrize("events", [
        [EdgeEvent(1.0, 2)],                              # not truncated
        [EdgeEvent(2, 3, value=float("nan"))],            # enters
        [EdgeEvent(2, 3, value=float("-inf"))],
        [EdgeEvent(2, 3, value=-1e308)] * 2,              # sum overflows
        [EdgeEvent(0, 1, value=1e308)],                   # stays, overflows
        [EdgeEvent(0, 1, op="remove"),
         EdgeEvent(0, 1, value=float("nan"))],            # replaces
    ], ids=["float-endpoint", "nan", "inf", "overflow-enters",
            "overflow-stays", "nan-replaces"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in add")
    def test_rejected_before_anything_is_built(self, events):
        with pytest.raises(DatasetError):
            fold_event_batch(self.BASE, [EdgeEvent(2, 3)] + events)

    @pytest.mark.parametrize("events, message", [
        ([EdgeEvent(2, 3), EdgeEvent(1.0, 2)],
         "event endpoint (1.0, 2) is not an integer vertex id"),
        # the first offender in batch order wins, whatever its kind
        ([EdgeEvent(2, 3), EdgeEvent(0, 4), EdgeEvent(1.5, 2)],
         "event endpoint (0, 4) outside the vertex set of size 4"),
        ([EdgeEvent(2, 2.5), EdgeEvent(0, 4)],
         "event endpoint (2, 2.5) is not an integer vertex id"),
        ([EdgeEvent(True, 9)],
         "event endpoint (1, 9) outside the vertex set of size 4"),
        ([EdgeEvent(np.int64(9), np.int32(1))],
         "event endpoint (9, 1) outside the vertex set of size 4"),
        ([EdgeEvent(np.int64(1), np.int64(-1))],
         "event endpoint (1, -1) outside the vertex set of size 4"),
        ([EdgeEvent(2, 3), EdgeEvent(2 ** 63, 1)],
         "event endpoint (9223372036854775808, 1) outside the vertex set "
         "of size 4"),
        ([EdgeEvent(2 ** 64, 1)],
         "event endpoint (18446744073709551616, 1) outside the vertex set "
         "of size 4"),
    ], ids=["float-after-valid", "range-before-float", "float-before-range",
            "bool", "np-int64", "np-negative", "2**63", "2**64"])
    def test_first_bad_endpoint_named_exactly(self, events, message):
        with pytest.raises(DatasetError) as err:
            fold_event_batch(self.BASE, events)
        assert str(err.value) == message

    def test_bool_endpoints_fold_like_ints(self):
        want = fold_event_batch(self.BASE, [EdgeEvent(1, 0)])[0]
        assert fold_event_batch(self.BASE, [EdgeEvent(True, False)])[0] \
            == want

    def test_numpy_integer_endpoints_fold_like_ints(self):
        want = fold_event_batch(self.BASE, [EdgeEvent(2, 3)])[0]
        got = fold_event_batch(self.BASE,
                               [EdgeEvent(np.int32(2), np.int64(3))])[0]
        assert got == want


class TestEventsBetween:
    def test_roundtrip_over_evolving_stream(self):
        dtdg = evolving_dtdg(40, 6, 60, churn=0.3, seed=9)
        ing = StreamIngestor(dtdg[0])
        for t in range(1, dtdg.num_timesteps):
            ing.commit(events_between(ing.resident, dtdg[t]))
            assert ing.resident == dtdg[t], f"mismatch at t={t}"

    def test_value_change_becomes_replace_pair(self):
        a = snap(4, [[0, 1], [1, 2]], values=[1.0, 1.0])
        b = snap(4, [[0, 1], [1, 2]], values=[1.0, 4.0])
        events = events_between(a, b)
        ing = StreamIngestor(a)
        assert ing.commit(events).snapshot == b

    def test_tiny_relative_value_change_not_dropped(self):
        """Value comparison must be exact: a 5e-6 relative change on a
        large balance is still a change."""
        a = snap(4, [[0, 1]], values=[2_000_000.0])
        b = snap(4, [[0, 1]], values=[2_000_010.0])
        events = events_between(a, b)
        assert len(events) == 2  # remove + add
        ing = StreamIngestor(a)
        np.testing.assert_array_equal(ing.commit(events).snapshot.values,
                                      [2_000_010.0])
