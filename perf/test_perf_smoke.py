"""Smoke test of the perf benchmark: every workload at ``--smoke`` scale.

Asserts no timing.  Checks that the command emits exactly the metric
names of ``BENCHMARK.json`` with their units, that every workload passes
its correctness checks, that two runs of one seed give identical
``exact`` blocks and ``input_sha``, and that the command fails cleanly
where the program is absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _run(args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke suite through the command line (a fresh subprocess per
    workload and trace mode)."""
    out = tmp_path_factory.mktemp("perf") / "suite.json"
    proc = _run(["--smoke", "--seconds", "0", "--seed", "3",
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


# a second pass over the same seed, all workloads in one fresh process
_SECOND_PASS = """
import json, sys
sys.path.insert(0, "perf")
import run
run.prepare_environment()
names = [w["name"] for w in run.load_manifest()["workloads"]]
print(json.dumps({n: run.run_workload(n, 3, 0.0, False, True)
                  for n in names}))
"""


def test_manifest_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in MANIFEST["end_to_end"]] \
        + [m["name"] for m in MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}


def test_every_workload_is_correct_and_complete(suite):
    doc = suite
    assert doc["claim"] is None
    assert doc["env"]["blas_threads"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
    layer_names = {m["name"] for m in MANIFEST["per_layer"]}
    seen = set()
    for name in WORKLOADS:
        result = doc["workloads"][name]
        assert result["correct"], result["checks"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["e2e"]["failed_share"]["value"] == 0
        for metric in MANIFEST["end_to_end"]:
            got = result["e2e"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
        assert set(result["layers"]) <= layer_names
        assert result["missing_spans"] == []
        seen |= {k for k, v in result["layers"].items() if v}
    # every declared layer metric is produced by some workload (the
    # percentiles that need more samples than a smoke run has, and the
    # fallback counter that stays 0 on a healthy run, excepted)
    quiet = {"client.query_p95_ms", "client.ingest_ack_p95_ms",
             "graph.inc_laplacian.fallbacks"}
    assert layer_names - seen <= quiet, layer_names - seen - quiet


def test_layers_separate_as_designed(suite):
    w = suite["workloads"]
    assert w["exec_p1"]["layers"]["serve.sharded.halo.rows_shipped"] == 0
    assert w["exec_p2"]["layers"]["serve.sharded.halo.rows_shipped"] > 0
    assert all(v == 0 for k, v in w["serve_trickle"]["layers"].items()
               if k.startswith("store."))
    assert w["serve_durable"]["layers"]["store.append_self_s"] > 0
    assert w["serve_durable"]["e2e"]["recover_s"]["value"] > 0


def test_two_runs_of_one_seed_agree_exactly(suite):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", _SECOND_PASS], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    a, b = suite["workloads"], json.loads(proc.stdout)
    for name in WORKLOADS:
        assert a[name]["input_sha"] == b[name]["input_sha"]
        assert json.dumps(a[name]["exact"], sort_keys=True) == \
            json.dumps(b[name]["exact"], sort_keys=True)


def test_contract_line_and_compare(tmp_path, suite):
    """The driver's form: last stdout line is the result object."""
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "serve_churn", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace), "--smoke"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert {k: v["unit"] for k, v in last["metrics"].items()} == \
            {m["name"]: m["unit"] for m in MANIFEST[section]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    proc = subprocess.run(
        [sys.executable, "perf/compare.py", str(path), str(path)], cwd=ROOT,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differs" not in proc.stdout and "missing" not in proc.stdout
    assert "serve_trickle" in proc.stdout and "wall_s" in proc.stdout


def test_fails_cleanly_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and perf/ the
    command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "serve_trickle", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
