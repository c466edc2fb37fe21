"""Collection order and output location for the tier-1 command
(`pytest -x -q` at the root).

Unit suites run before the benchmark and perf suites, whatever order
the directories collect in: with ``-x`` a host-dependent timing guard
in ``benchmarks/`` must not stop the run before a single unit test has
executed.

The bench suites write ``BENCH_*.json`` and ``results/*.txt``; both are
tracked, so a test run sends them to a session temp dir and leaves the
tree clean.  ``REPRO_BENCH_WRITE=1`` writes them in place (recording a
bench, CI's perf guard); an explicit ``REPRO_BENCH_DIR`` /
``REPRO_RESULTS_DIR`` is always honoured.
"""

import os
import shutil
import tempfile

_LATE = ("benchmarks", "perf")
_OUTPUT_VARS = ("REPRO_BENCH_DIR", "REPRO_RESULTS_DIR")


def pytest_configure(config):
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        return
    scratch = tempfile.mkdtemp(prefix="repro-bench-")
    ours = [var for var in _OUTPUT_VARS if var not in os.environ]
    os.environ.update({var: scratch for var in ours})

    def cleanup():
        for var in ours:
            os.environ.pop(var, None)
        shutil.rmtree(scratch, ignore_errors=True)

    config.add_cleanup(cleanup)


def pytest_collection_modifyitems(config, items):
    root = config.rootpath

    def rank(item) -> int:
        top = item.path.relative_to(root).parts[0] \
            if item.path.is_relative_to(root) else ""
        return _LATE.index(top) + 1 if top in _LATE else 0

    items.sort(key=rank)  # stable: order within each suite is kept
