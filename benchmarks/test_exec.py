"""Real-process execution tier — wall-clock scaling from 1 to 4 workers.

Replays one AML-Sim event + query stream through
:class:`~repro.exec.router.ExecRouter` tiers whose shard workers are
real OS processes (shared-memory blocks, pipe RPC).  The claims under
test:

* the multiprocess tier is *exact* — its gathered embeddings match the
  in-process simulated oracle bit for bit at every process count;
* aggregate throughput over the measured critical path (router busy +
  slowest worker's in-process busy clock) scales ≥ 2x from 1 process
  to 4 (the guarded ``scaling_speedup``; the end-to-end pipelined wall
  ratio is recorded unguarded since it is bounded by host cores);
* the wire discipline holds: RPC bytes stay O(delta + queries) while
  the O(graph) blocks ride shared memory.

Set ``REPRO_SMOKE=1`` for the CI-sized sweep (same shape, smaller
graph).
"""

import os

import pytest

from repro.bench import ExecWorkloadConfig, run_exec_benchmark
from repro.bench.reporting import results_dir


@pytest.fixture(scope="module")
def result():
    config = ExecWorkloadConfig.smoke() \
        if os.environ.get("REPRO_SMOKE") else ExecWorkloadConfig()
    return run_exec_benchmark(config)


def test_exec_reports_written(result):
    assert os.path.exists(os.path.join(results_dir(), "exec_scaling.txt"))
    bench_dir = os.environ.get("REPRO_BENCH_DIR", os.getcwd())
    assert os.path.exists(os.path.join(bench_dir, "BENCH_exec.json"))


def test_real_workers_are_exact(result):
    """Process isolation buys wall-clock, not approximation: every
    multiprocess point matches the simulated oracle bit for bit."""
    assert result.max_abs_divergence == 0.0


def test_every_tier_answers_the_full_stream(result):
    assert result.num_events > 0
    assert result.num_queries > 0
    for p in result.points:
        assert p.stats.counters.queries_completed == result.num_queries


def test_critical_path_scales_across_processes(result):
    """The headline: ≥ 2x aggregate throughput from 1 to 4 processes
    over the critical path.  Worker busy clocks are wall clocks inside
    each process, so with fewer cores than workers they also count the
    time a worker sat descheduled — the ratio then measures the host,
    not the tier."""
    cores = os.cpu_count() or 1
    if cores < result.max_shards:
        pytest.skip(f"{cores} cores < {result.max_shards} worker "
                    f"processes: busy clocks include scheduler waits "
                    f"(measured {result.scaling_speedup:.2f}x)")
    assert result.scaling_speedup >= 2.0, (
        f"4 processes only scaled {result.scaling_speedup:.2f}x over 1")


def test_wire_stays_delta_sized(result):
    """Shared memory carries the O(graph) blocks; the pipe carries
    O(delta + queries).  If a snapshot ever leaks onto the pipe, sent
    bytes jump by orders of magnitude."""
    p4 = result.point(4)
    assert p4.stats.shm_bytes_mapped > 0
    # the whole replay's RPC request traffic stays below one full
    # topology broadcast per streamed timestep
    snapshot_bytes = p4.stats.shm_bytes_mapped
    assert p4.stats.rpc_bytes_sent < snapshot_bytes * 8


def test_halo_traffic_flows(result):
    p4 = result.point(4)
    assert p4.stats.traffic.rows_shipped > 0
    assert p4.stats.traffic.bytes_shipped > 0
    assert p4.stats.counters.cross_shard_events > 0
