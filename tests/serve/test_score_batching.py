"""A query's score does not depend on which queries share its flush.

The heads run one GEMM over a flush's rows, and BLAS picks its kernel
by the row count; a head that scored a batch as one ``rows x K`` product
gave a row different last bits in a batch of 1, 7 or 100.  The sharded
router scores per owner shard and the single-worker server per flush,
so the two tiers differed by an ulp on the same query.  The heads run
on fixed-shape tiles instead (PR 17's rule, ``docs/kernels.md``), and
every split of the same queries scores bit-equal.  CI reruns this
module on the Haswell kernel family with the rest of ``tests/serve``.
"""

import numpy as np
import pytest

from repro.nn.linear import EdgeScorer, Linear
from repro.serve import score_fraud, score_links

N, DIM, QUERIES = 400, 32, 257


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((N, DIM))
    pairs = rng.integers(N, size=(QUERIES, 2))
    accounts = rng.integers(N, size=QUERIES)
    return z, pairs, accounts, rng


def _splits(total):
    """Every chunk size 1-100, plus the whole batch at once."""
    for size in (*range(1, 101), total):
        yield [slice(lo, lo + size) for lo in range(0, total, size)]


def _assert_split_invariant(score, total):
    whole = score(slice(None))
    for chunks in _splits(total):
        parts = np.concatenate([score(chunk) for chunk in chunks])
        np.testing.assert_array_equal(parts, whole,
                                      err_msg=f"chunks of {chunks[0]}")


@pytest.mark.parametrize("trained", [True, False])
def test_link_scores_are_bit_equal_under_every_split(queries, trained):
    z, pairs, _, rng = queries
    head = EdgeScorer(DIM, 2, rng) if trained else None
    _assert_split_invariant(
        lambda chunk: score_links(z, pairs[chunk], head), QUERIES)


def test_fraud_scores_are_bit_equal_under_every_split(queries):
    z, _, accounts, rng = queries
    head = Linear(DIM, 2, rng)
    _assert_split_invariant(
        lambda chunk: score_fraud(z, accounts[chunk], head), QUERIES)
