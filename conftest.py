"""Collection order for the tier-1 command (`pytest -x -q` at the root).

Unit suites run before the benchmark and perf suites, whatever order
the directories collect in: with ``-x`` a host-dependent timing guard
in ``benchmarks/`` must not stop the run before a single unit test has
executed.
"""

_LATE = ("benchmarks", "perf")


def pytest_collection_modifyitems(config, items):
    root = config.rootpath

    def rank(item) -> int:
        top = item.path.relative_to(root).parts[0] \
            if item.path.is_relative_to(root) else ""
        return _LATE.index(top) + 1 if top in _LATE else 0

    items.sort(key=rank)  # stable: order within each suite is kept
