"""Collection order and output location for the tier-1 command
(`pytest -x -q` at the root).

Unit suites run before the paper-figure benches and the perf suites,
whatever order the directories collect in: with ``-x`` a failing
figure bench must not stop the run before a single unit test has
executed.

The figure benches write ``results/*.txt``, which is tracked, so a test
run sends it to a session temp dir and leaves the tree clean.
``REPRO_BENCH_WRITE=1`` writes the reports in place (regenerating a
figure); an explicit ``REPRO_RESULTS_DIR`` is always honoured.
"""

import os
import shutil
import tempfile

_LATE = ("benchmarks", "perf")


def pytest_configure(config):
    if os.environ.get("REPRO_BENCH_WRITE") == "1" \
            or "REPRO_RESULTS_DIR" in os.environ:
        return
    scratch = tempfile.mkdtemp(prefix="repro-bench-")
    os.environ["REPRO_RESULTS_DIR"] = scratch

    def cleanup():
        os.environ.pop("REPRO_RESULTS_DIR", None)
        shutil.rmtree(scratch, ignore_errors=True)

    config.add_cleanup(cleanup)


def pytest_collection_modifyitems(config, items):
    root = config.rootpath

    def rank(item) -> int:
        top = item.path.relative_to(root).parts[0] \
            if item.path.is_relative_to(root) else ""
        return _LATE.index(top) + 1 if top in _LATE else 0

    items.sort(key=rank)  # stable: order within each suite is kept
