"""The LSTM cell's runner (docs/kernels.md, "Panels on every core" and
"Spans, not panels"): the fixed partition into ``SPAN_ROWS``-row spans
spread over threads gives the one-thread bits, for any thread count.

The thread count is pinned through the runner's private ``threads``
attribute; 1 is the serial loop, 3 puts more threads than cores on a
two-core host.  Everything here is ``array_equal`` or byte-equal: the
partition never depends on the thread count, and the weight-gradient
partials are added in panel order.
"""

import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
from repro.cluster import Cluster
from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, evolving_dtdg, generate_amlsim
from repro.models import build_model
from repro.nn import Linear
from repro.tensor import Tensor, functional as F, no_grad
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask
from repro.train.preprocess import degree_features

PANEL, SPAN = F.PANEL_ROWS, F.SPAN_ROWS
ROWS = [2 * PANEL, 2 * PANEL + 1, 3 * PANEL + 7, 5 * PANEL]
THREADS = [1, 2, 3]
POOL = F._PANEL_POOL


@pytest.fixture
def threads(monkeypatch):
    """Pin the runner's thread count: ``threads(n)``."""
    def pin(n):
        monkeypatch.setattr(POOL, "threads", n)
    return pin


@pytest.fixture(autouse=True)
def alarm():
    """A hung helper must fail the test, not the run."""
    def on_alarm(signum, frame):
        raise TimeoutError("panel pool test exceeded 120 s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- the runner ---------------------------------------------------------------------
@pytest.mark.parametrize("count", THREADS)
@pytest.mark.parametrize("rows",
                         [1, PANEL, PANEL + 1, SPAN + 1, 64 * PANEL + 3])
def test_every_panel_runs_once(threads, count, rows):
    """Threads switch every microsecond, so a claim the lock did not
    guard would hand a span (whole panels) out twice, or drop one."""
    threads(count)
    seen, lock = [], threading.Lock()

    def share(panels):
        for item in panels:
            with lock:
                seen.append(item)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        POOL.run(rows, share)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(F._ranges(rows, SPAN))


def test_a_caller_error_waits_for_the_helpers(threads):
    """The caller's share fails on its first span; the call returns
    only once the helper has run every other span."""
    threads(2)
    rows, seen = 8 * SPAN, []

    def share(spans):
        for lo, _ in spans:
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("caller share failed")
            time.sleep(0.01)
            seen.append(lo)

    with pytest.raises(RuntimeError, match="caller share failed"):
        POOL.run(rows, share)
    assert len(seen) == 7 and sorted(seen) == sorted(set(seen))


def test_a_helper_error_reaches_the_caller_and_the_pool_survives(
        threads, monkeypatch):
    """The caller's first span waits until a helper has claimed one,
    so the helper's share is sure to run, and raise."""
    threads(2)
    rng = np.random.default_rng(0)
    rows, hs = SPAN + PANEL, 4
    arrays = [rng.normal(size=s) for s in
              [(rows, 3), (rows, hs), (rows, hs), (3, 4 * hs),
               (hs, 4 * hs), (4 * hs,)]]
    want = F.lstm_cell_forward(*arrays)
    real, entered = F.lstm_panel, threading.Event()

    def flaky(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            assert entered.wait(timeout=30)
            return real(*args, **kwargs)
        entered.set()
        raise RuntimeError("helper share failed")

    monkeypatch.setattr(F, "lstm_panel", flaky)
    with pytest.raises(RuntimeError, match="helper share failed"):
        F.lstm_cell_forward(*arrays)
    monkeypatch.setattr(F, "lstm_panel", real)
    for got, ref in zip(F.lstm_cell_forward(*arrays)[:2], want[:2]):
        np.testing.assert_array_equal(got, ref)


def test_an_idle_helper_holds_no_array_of_the_last_step(threads):
    threads(2)
    rng = np.random.default_rng(4)
    rows, hs = 2 * SPAN, 4
    arrays = [rng.normal(size=s) for s in
              [(rows, 3), (rows, hs), (rows, hs), (3, 4 * hs),
               (hs, 4 * hs), (4 * hs,)]]
    probe = weakref.ref(arrays[0])
    F.lstm_cell_forward(*arrays)
    del arrays
    assert probe() is None


# -- the cell -----------------------------------------------------------------------
def _cell(rows, needs, alias, seed, uses="both"):
    """Outputs and the six gradients of one cell step whose inputs
    require a gradient per ``needs`` (x, h_prev, c_prev, w_ih, w_hh,
    bias); with ``alias`` one tensor is both ``x`` and ``h_prev``."""
    rng = np.random.default_rng(seed)
    hs = 5
    fin = hs if alias else 7
    shapes = [(rows, fin), (rows, hs), (rows, hs), (fin, 4 * hs),
              (hs, 4 * hs), (4 * hs,)]
    ins = [Tensor(rng.normal(scale=0.7, size=s), requires_grad=n)
           for s, n in zip(shapes, needs)]
    if alias:
        ins[1] = ins[0]
    h, c = F.lstm_cell(*ins)
    if c.requires_grad:                  # not under no_grad
        w = rng.normal(size=(2, rows, hs))
        loss = (c * Tensor(w[1])).sum()
        if uses == "both":
            loss = loss + (h * Tensor(w[0])).sum()
        loss.backward()
    return [h.data, c.data] + [t.grad for t in ins]


def _assert_equal(got, want):
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rows", ROWS)
def test_cell_bits_do_not_depend_on_the_thread_count(threads, rows):
    patterns = list(itertools.product((False, True), repeat=6))
    for k, needs in enumerate(patterns):
        uses = "both" if k % 2 else "c_only"   # c_only: h's slot stays empty
        threads(1)
        want = _cell(rows, needs, False, k, uses)
        for count in THREADS[1:]:
            threads(count)
            _assert_equal(_cell(rows, needs, False, k, uses), want)


@pytest.mark.parametrize("rows", ROWS)
def test_aliased_input_and_no_grad_bits_do_not_depend_on_threads(
        threads, rows):
    runs = {}
    for count in THREADS:
        threads(count)
        aliased = _cell(rows, (True,) * 6, True, 1)
        with no_grad():
            plain = _cell(rows, (True,) * 6, False, 2)
        runs[count] = aliased + plain
    for count in THREADS[1:]:
        _assert_equal(runs[count], runs[1])


@pytest.mark.parametrize("count", THREADS)
def test_weight_gradients_are_panel_partials_added_in_order(threads, count):
    """A panel's rows get the same ``dz`` in a call of their own (rows
    are independent), so the full call's weight and bias gradients must
    be ``0 + g₀ + g₁ + …`` over the one-panel calls' — the serial
    loop's sum, not any other grouping of the same partials."""
    threads(count)
    rng = np.random.default_rng(12)
    rows, hs, fin = 4 * PANEL + 9, 5, 7
    data = [rng.normal(scale=s, size=shape) for s, shape in
            [(3.0, (rows, fin)), (3.0, (rows, hs)), (1.0, (rows, hs)),
             (0.7, (fin, 4 * hs)), (0.7, (hs, 4 * hs)), (0.7, (4 * hs,))]]
    # row scales spanning many magnitudes, so a regrouped sum rounds
    # differently
    weight = rng.normal(size=(rows, hs)) * 10.0 ** rng.integers(
        -6, 7, size=(rows, 1))

    def grads(lo, hi):
        ins = [Tensor(a, requires_grad=True)
               for a in [a[lo:hi] for a in data[:3]] + data[3:]]
        h, c = F.lstm_cell(*ins)
        ((h * Tensor(weight[lo:hi])).sum() + c.sum()).backward()
        return [t.grad for t in ins[3:]]

    want = [np.zeros(a.shape) for a in data[3:]]
    for lo, hi in F._ranges(rows, PANEL):
        for total, part in zip(want, grads(lo, hi)):
            total += part
    _assert_equal(grads(0, rows), want)


# -- the trainer --------------------------------------------------------------------
def _fit(model_name, dtdg):
    model = build_model(model_name, in_features=2, hidden=6, embed_dim=6,
                        seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=6, theta=0.4, seed=0)
    trainer = DistributedTrainer(
        model, dtdg, task, Cluster.of_size(2),
        DistConfig(learning_rate=0.02, partitioning="snapshot",
                   num_blocks=2, reuse_aggregation=True))
    losses = [r.loss for r in trainer.fit(3)]
    params = b"".join(p.data.tobytes() for p in
                      model.parameters() + task.head.parameters())
    return losses, params


@pytest.mark.parametrize("model_name", ["cdgcn", "egcn"])
def test_three_epochs_are_byte_identical_for_any_thread_count(
        threads, model_name):
    dtdg = evolving_dtdg(2 * SPAN + 40, 5, 2500, churn=0.3, seed=4)
    dtdg.set_features(degree_features(dtdg))
    runs = {}
    for count in THREADS:
        threads(count)
        runs[count] = _fit(model_name, dtdg)
    for count in THREADS[1:]:
        assert runs[count][0] == runs[1][0]
        assert runs[count][1] == runs[1][1]


# -- processes and threads ----------------------------------------------------------
def test_a_multiprocess_router_serves_after_a_pooled_epoch(threads):
    """Workers fork from a process whose helpers are running."""
    threads(2)
    dtdg = evolving_dtdg(2 * SPAN, 3, 2000, churn=0.3, seed=6)
    dtdg.set_features(degree_features(dtdg))
    _fit("cdgcn", dtdg)
    assert any(t.name == "repro-panel" for t in threading.enumerate())

    world = generate_amlsim(AMLSimConfig(
        num_accounts=120, num_timesteps=4, background_per_step=200,
        num_fan_out=1, num_fan_in=1, num_cycles=1, num_scatter_gather=1,
        pattern_size=4, num_branches=2, seed=5))
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    router = ExecRouter(model, world.dtdg[0], fraud_head=fraud,
                        backend="multiprocess", num_shards=2)
    try:
        links = [router.submit_link(i, (i + 7) % 120) for i in range(8)]
        account = router.submit_fraud(3)
        router.drain()
        assert all(q.done and q.result is not None
                   for q in links + [account])
    finally:
        router.close()


def _child_step(arrays, conn):
    POOL.threads = 2
    conn.send(F.lstm_cell_forward(*arrays)[:2])
    conn.close()


def test_a_forked_child_starts_its_own_helpers(threads):
    """The parent's helpers do not survive a fork: a child that ran on
    their inboxes would wait forever."""
    threads(2)
    rng = np.random.default_rng(8)
    rows, hs = 2 * SPAN + 7, 4
    arrays = [rng.normal(size=s) for s in
              [(rows, 3), (rows, hs), (rows, hs), (3, 4 * hs),
               (hs, 4 * hs), (4 * hs,)]]
    want = F.lstm_cell_forward(*arrays)[:2]      # the parent's helpers run
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_step, args=(arrays, send),
                        daemon=True)
    child.start()
    send.close()
    try:
        assert recv.poll(30), "the forked child's pooled step hung"
        got = recv.recv()
        child.join(30)
        assert child.exitcode == 0
    finally:
        child.kill()
        child.join()
    _assert_equal(got, want)


_NO_STRAY = """
import threading
import numpy as np
from repro.models import build_model
from repro.tensor import functional as F
from repro.train.preprocess import degree_features
from repro.graph import evolving_dtdg
from repro.serve import ModelServer

before = threading.active_count()
d = evolving_dtdg({rows}, 3, 3000, churn=0.3, seed=1)
d.set_features(degree_features(d))
for name in ("cdgcn", "egcn"):
    server = ModelServer(build_model(name, in_features=2, seed=0),
                         d[0])
    server.advance_time(d[1])
    server.submit_link(0, 1)
    server.drain()
rng = np.random.default_rng(0)


def step(rows):
    F.lstm_cell_forward(rng.normal(size=(rows, 3)),
                        rng.normal(size=(rows, 4)),
                        rng.normal(size=(rows, 4)), rng.normal(size=(3, 16)),
                        rng.normal(size=(4, 16)), rng.normal(size=16))
    return threading.active_count() - before


served = step({panel})
one_span = [step({panel} + 1), step({span})]
print(served, *one_span, step({span} + 1))
"""


def test_no_thread_starts_before_a_two_span_step():
    """Serving (the engine's own panel loop; EvolveGCN's weight cell has
    far fewer rows than a span) and one-span steps, also of two or more
    panels, start no thread; the first two-span step starts the
    helpers."""
    script = _NO_STRAY.format(rows=2 * SPAN + PANEL, panel=PANEL, span=SPAN)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    served, two_panels, four_panels, pooled = map(int, out.stdout.split())
    assert served == 0
    assert two_panels == four_panels == 0
    assert pooled == min(len(os.sched_getaffinity(0)), 2) - 1
