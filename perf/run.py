#!/usr/bin/env python3
"""The repo's one benchmark command.

    python3 perf/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perf/run.py [--seed S] [--seconds T] [--smoke] [--out FILE]

With ``--workload`` it runs that workload in this process: inputs from
the seed, one untimed warm-up repeat, then timed repeats for about
``--seconds`` seconds (``--trace 0``: all untraced; ``--trace 1``:
untraced and traced repeats alternate, the traced ones giving the
per-layer account), then the correctness checks.  It prints every metric
by name with its unit and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` it runs every workload of ``BENCHMARK.json`` that
way in fresh subprocesses (trace 0, then trace 1) and merges their
results into one document (``--out``), with an ``env`` block.

Metric names, units and the workload list are read from the
``BENCHMARK.json`` next to this directory, so the command and the
manifest cannot drift apart.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perf_work")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCRUBBED_VARS = ("REPRO_KERNEL_BACKEND", "REPRO_SMOKE", "REPRO_RESULTS_DIR")
# a percentile is reported when at least ten samples lie beyond it
MIN_SAMPLES = {50: 20, 95: 200}
DIVERGENCE_BOUND = 1e-9
# what the host probe (drivers.HostProbe) takes on the 2-core review host
# when nothing disturbs it; times are reported at that host speed
PROBE_REFERENCE_S = 0.0005
# how much of the probe's slowdown a segment sees: the probe is short and
# starts cold, so it feels a slow phase more than a long segment does.
# Fitted once (perf/README.md has the table); not a knob.
HOST_EXPONENT = 0.7


def prepare_environment() -> None:
    """Pin BLAS to one thread (before numpy is imported; forked exec
    workers inherit it), drop the repo's bench switches so the shipped
    defaults run, and make ``perf/`` and ``src/`` importable."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    for var in SCRUBBED_VARS:
        os.environ.pop(var, None)
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended:
    exec workers a failed repeat left behind, then the shared-memory
    resource tracker that ``multiprocessing`` starts with the first
    segment (it would otherwise outlive this process by the moment it
    takes to see its pipe close), then whatever child is still there."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()   # closes its pipe, so it cleans up and exits; waits for it
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                parent = fh.read().rsplit(")", 1)[1].split()[1]
            if parent == me:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
        except (OSError, IndexError):
            continue   # gone already, or not ours to wait for


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def calibrate(segments, probes) -> list:
    """Segment times at the reference host speed: each divided by the
    slowdown the probes around it saw, ``(probe time / reference probe
    time) ** HOST_EXPONENT``."""
    return [[s * (PROBE_REFERENCE_S / p) ** HOST_EXPONENT
             for s, p in zip(row, prow)]
            for row, prow in zip(segments, probes)]


def column_sum(rows, pick) -> float:
    """Sum over segments of ``pick`` (median or min) across repeats of
    that segment; a column is the same work in every row."""
    return float(sum(pick(column) for column in zip(*rows)))


def timing(segments, probes, whole, pick=statistics.median) -> dict:
    """The calibrated estimate of one timed unit — the sum over segments
    of ``pick`` across the k repeats of segment time over host slowdown —
    with the raw whole-repeat statistics beside it.  ``spread`` is how
    far the estimate moves when any one repeat is left out, as a share of
    it.  Why and how well this works is measured in ``perf/README.md``."""
    rows = calibrate(segments, probes)
    value = column_sum(rows, pick)
    k = len(rows)
    left_out = [column_sum(rows[:i] + rows[i + 1:], pick)
                for i in range(k)] if k > 1 else [value]
    raw = sum(sum(row) for row in segments)
    q1, med, q3 = quartiles(whole)
    return {"value": value, "unit": "s",
            "spread": (max(left_out) - min(left_out)) / value,
            "host_slowdown": raw / sum(sum(row) for row in rows),
            "raw_min": float(min(whole)), "raw_median": med, "raw_q1": q1,
            "raw_q3": q3, "k": k, "segments": len(rows[0])}


def client_metrics(repeats) -> dict:
    """Latencies the closed-loop client saw, pooled over the untraced
    timed repeats and calibrated like the segments (an ingest ack is a
    segment; a repeat's query latencies are divided by the repeat's mean
    slowdown).  A percentile is reported when at least ten independent
    samples lie beyond it; queries of one flush resolve together, so for
    query latency the independent sample is the flush.  ``spread`` is
    the distance between the quartiles of the per-repeat values over the
    pooled value."""
    import numpy as np
    query, ingest = [], []
    for r in repeats:
        rows = calibrate([r.timed.segments], [r.timed.probes])
        query.append(r.query_ms * (sum(rows[0]) / sum(r.timed.segments)))
        ingest.append(np.array([rows[0][i] for i in r.ingest_at]) * 1e3)
    out = {}
    series = {"query": (query, sum(r.flushes for r in repeats)),
              "ingest_ack": (ingest, sum(len(x) for x in ingest))}
    for name, (per_repeat, support) in series.items():
        pooled = np.concatenate(per_repeat)
        for q in (50, 95):
            if support < MIN_SAMPLES[q] or len(pooled) == 0:
                continue
            value = float(np.percentile(pooled, q))
            q1, _, q3 = quartiles([np.percentile(x, q) for x in per_repeat])
            out[f"{name}_p{q}_ms"] = {"value": value, "unit": "ms",
                                      "samples": support,
                                      "spread": (q3 - q1) / value}
    recover = [calibrate([[r.recover_s]], [[r.recover_probe]])[0][0]
               for r in repeats if r.recover_s]
    if recover:
        q1, med, q3 = quartiles(recover)
        out["recover_s"] = {"value": med, "unit": "s",
                            "samples": len(recover),
                            "spread": (q3 - q1) / med}
    return out


# the self times that, with bench.unattributed_s, add up to the traced wall
SELF_KEYS = (
    "serve.server.self_s", "exec.router.self_s", "train.self_s",
    "serve.ingest.fold_self_s", "serve.ingest.commit_self_s",
    "graph.diff.self_s", "graph.inc_laplacian.update_self_s",
    "serve.cache.invalidate_self_s", "serve.engine.set_snapshot_self_s",
    "serve.engine.refresh_self_s", "serve.engine.advance_self_s",
    "tensor.backend.kernel_self_s", "exec.transport.submit_s",
    "exec.transport.wait_s", "store.append_self_s", "store.capture_self_s",
    "train.reuse.aggregate_self_s")


def layer_account(kind: str, replay, recover, rep) -> dict:
    """The time half of the per-layer metrics from one traced repeat
    (``replay`` / ``recover`` are the folded spans of those phases)."""
    front = "exec.router" if kind == "exec" else "serve.server"
    layers = {}
    if kind != "train":
        for verb in ("advance", "ingest", "submit", "flush"):
            layers[f"{front}.{verb}_s"] = replay.root_s[f"{front}.{verb}"]
        layers[f"{front}.self_s"] = replay.self_of(front + ".")
        layers[f"{front}.boot_s"] = rep.boot_s
    else:
        layers["train.self_s"] = replay.self_s["train.epoch"]
    kernel = "tensor.backend."
    layers.update({
        "serve.ingest.fold_self_s": replay.self_s["serve.ingest.fold"],
        "serve.ingest.commit_self_s": replay.self_s["serve.ingest.commit"],
        "graph.diff.self_s": replay.self_s["graph.diff"],
        "graph.diff.calls": replay.calls["graph.diff"],
        "graph.inc_laplacian.update_self_s":
            replay.self_s["graph.inc_laplacian.update"],
        "serve.cache.invalidate_self_s":
            replay.self_s["serve.cache.invalidate"],
        "serve.engine.set_snapshot_self_s":
            replay.self_s["serve.engine.set_snapshot"],
        "serve.engine.refresh_self_s": replay.self_s["serve.engine.refresh"],
        "serve.engine.advance_self_s": replay.self_s["serve.engine.advance"],
        "tensor.backend.kernel_self_s": replay.self_of(kernel),
        "tensor.backend.spmm_rows_self_s":
            replay.self_s[kernel + "spmm_rows"],
        # the four maintainer primitives
        "tensor.backend.splice_self_s": replay.self_of(
            kernel + "splice_", kernel + "rescale",
            kernel + "degree_counts"),
        "tensor.backend.kernel_calls": replay.calls_of(kernel),
        "tensor.backend.spmm_rows_rows": replay.units[kernel + "spmm_rows"],
        "exec.transport.submit_s": replay.self_s["exec.transport.submit"],
        "exec.transport.wait_s": replay.self_s["exec.transport.wait"],
        "store.append_self_s": replay.self_s["store.append"],
        "store.capture_self_s": replay.self_s["store.capture"],
        "store.replay_self_s": recover.self_s["store.replay"],
        "train.reuse.aggregate_self_s":
            replay.self_s["train.reuse.aggregate"],
    })
    wall = sum(rep.timed.segments)
    layers["bench.traced_wall_s"] = wall
    layers["bench.unattributed_s"] = wall - sum(
        layers.get(key, 0.0) for key in SELF_KEYS)
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Run one workload in this process; returns its full result."""
    import numpy as np
    from drivers import make_driver
    from tracer import Tracer
    from workloads import workload_spec

    spec = workload_spec(name, smoke)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    try:
        driver = make_driver(spec, seed, workdir)
        t0 = time.perf_counter()
        input_sha = driver.make_inputs()
        inputs_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warmup = driver.repeat(warmup=True)
        warmup_s = time.perf_counter() - t0

        tracer = Tracer() if trace else None
        timed, traced, accounts = [], [], []
        loop_t0 = time.perf_counter()
        while True:
            # the previous repeat's system is garbage by now: collect it
            # outside any timed region, so every repeat starts alike
            gc.collect()
            timed.append(driver.repeat())
            if trace:
                gc.collect()
                tracer.install()
                try:
                    rep = driver.repeat(tracer=tracer)
                finally:
                    tracer.uninstall()
                traced.append(rep)
                accounts.append(layer_account(
                    spec["kind"], tracer.fold("replay"),
                    tracer.fold("recover"), rep))
            elapsed = time.perf_counter() - loop_t0
            if elapsed + elapsed / len(timed) > seconds:
                break

        # -- checks ----------------------------------------------------------
        every = [warmup] + timed + traced
        last = every[-1]
        # what a repeat checked itself (recovery) must hold in every one
        checks = {key: (max if isinstance(value, float) else all)(
                      r.checks[key] for r in every)
                  for key, value in last.checks.items()}
        checks["exact_repeatable"] = all(
            r.exact == last.exact and r.public == last.public
            for r in every[1:])
        oracle = driver.oracle_embeddings()
        if oracle is not None:
            checks["oracle_divergence"] = float(
                np.abs(oracle - last.embeddings).max())
        else:   # the warm-up trainer ran fewer epochs: compare those
            checks["losses_repeatable"] = all(
                r.losses == last.losses[:len(r.losses)] for r in every)
        correct = all(
            (v <= DIVERGENCE_BOUND) if isinstance(v, float) else v
            for v in checks.values())
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    # -- assemble ------------------------------------------------------------
    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    if not correct:
        failed = attempted   # a wrong answer is worth no timing
    # boots are few and, on train_dist, bimodal (whether the allocator
    # handed the previous trainer's pages back to the kernel), so setup_s
    # takes the fastest of each boot segment; the warm-up's cold boot is
    # left out
    booted = every[1:]
    e2e = {
        "setup_s": dict(timing([r.boot.segments for r in booted],
                               [r.boot.probes for r in booted],
                               [r.boot_s for r in booted], pick=min),
                        inputs_s=inputs_s, warmup_s=warmup_s),
        "wall_s": timing(*driver.observations(timed),
                         [r.wall_s for r in timed]),
        "peak_rss_mb": {"value": max(r.rss_kb for r in every) / 1024.0,
                        "unit": "MiB"},
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
    }
    client = client_metrics(timed)
    e2e.update(client)
    result = {
        "workload": name, "seed": seed, "smoke": smoke,
        "trace": int(trace), "input_sha": input_sha,
        # what the probe took at its fastest here: far from the reference
        # means another class of host, and "s" that are not its seconds
        "probe_floor_ms": float(np.percentile(driver.probe.samples, 1)) * 1e3,
        "correct": correct,
        "attempted": attempted, "failed": failed, "e2e": e2e,
        "exact": {**last.exact, **last.public}, "checks": checks,
    }
    if trace:
        best = min(range(len(traced)), key=lambda i: traced[i].wall_s)
        layers = dict(accounts[best])
        layers.update(traced[best].clocks)
        layers.update(last.public)
        for key, metric in client.items():
            layers["client." + key] = metric["value"]
        layers["obs.trace_overhead_share"] = \
            traced[best].wall_s / e2e["wall_s"]["raw_min"] - 1.0
        result["layers"] = layers
        result["missing_spans"] = tracer.missing
    return result


def contract_metrics(result: dict, manifest: dict) -> dict:
    """The metrics of the last-line JSON: every ``end_to_end`` metric
    untraced, every ``per_layer`` metric traced (0 where a workload
    never enters the layer)."""
    if result["trace"]:
        layers = result["layers"]
        unknown = set(layers) - {m["name"] for m in manifest["per_layer"]}
        if unknown:
            raise KeyError(f"layer metrics not in BENCHMARK.json: "
                           f"{sorted(unknown)}")
        return {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                            "unit": m["unit"]}
                for m in manifest["per_layer"]}
    return {m["name"]: {"value": result["e2e"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in manifest["end_to_end"]}


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  trace={result['trace']}  "
          f"input_sha={result['input_sha'][:16]}")
    for key, m in result["e2e"].items():
        extra = ""
        if "k" in m:
            extra = (f"  (k={m['k']}, host slowdown "
                     f"{m['host_slowdown']:.2f}x; raw whole repeats: min "
                     f"{m['raw_min']:.4f}, median {m['raw_median']:.4f}, "
                     f"q1 {m['raw_q1']:.4f}, q3 {m['raw_q3']:.4f})")
        elif "samples" in m:
            extra = f"  ({m['samples']} samples)"
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}{extra}")
    for key, value in result.get("layers", {}).items():
        print(f"{name} layer {key} = {value:.6g}")
    for key, value in result["exact"].items():
        print(f"{name} exact {key} = {value}")
    for key, value in result["checks"].items():
        print(f"{name} check {key} = {value}")
    for target in result.get("missing_spans", ()):
        print(f"{name} span missing: {target}")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from repro.tensor.backend import resolve_backend
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": resolve_backend().name,
            "git_sha": sha, "seed": seed}


def run_suite(args, manifest: dict) -> int:
    """Every workload, each in fresh subprocesses, merged."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="suite-", dir=WORK_ROOT)
    document = {"env": environment(args.seed), "claim": None,
                "workloads": {}}
    status = 0
    try:
        for workload in manifest["workloads"]:
            merged = None
            for trace in (0, 1):
                part = os.path.join(scratch, f"{workload['name']}.{trace}")
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload["name"],
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", part]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                status = status or proc.returncode
                if not os.path.exists(part):
                    continue
                with open(part) as fh:
                    result = json.load(fh)
                if merged is None:
                    merged = result
                else:   # the traced run contributes the layer account
                    merged["layers"] = result["layers"]
                    merged["missing_spans"] = result["missing_spans"]
                    merged["correct"] &= result["correct"]
            document["workloads"][workload["name"]] = merged
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": document["env"], "ok": status == 0}))
    return status


def main(argv=None) -> int:
    prepare_environment()
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small graphs and short streams, same shape")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    # a terminated run unwinds like a failed one, so its children stop too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_suite(args, manifest)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print_result(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": contract_metrics(result, manifest)}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
