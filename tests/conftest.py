import time

import pytest

from scl_lab.benchmarks import run, table1
from scl_lab.decomposition import make_decomposition, make_decomposition_ex1
from scl_lab.plants import build_example2, build_example3

# The remainder observer of each shipped example, for the observer tests
# (``from conftest import OBSERVER_MODELS``).
OBSERVER_MODELS = {
    "ex1": lambda: make_decomposition_ex1(20.0),
    "ex2": lambda: make_decomposition(build_example2()[0]),
    "ex3": lambda: make_decomposition(build_example3()[0]),
}


class BenchmarkCache:
    """Session-wide cache so acceptance checks share simulation runs."""

    def __init__(self):
        self._runs = {}
        self._table = None
        self.table_seconds = None

    def cell(self, example, method, scenario=None):
        key = (example, method, scenario)
        if key not in self._runs:
            self._runs[key] = run(example, method, scenario=scenario)
        return self._runs[key]

    def table(self):
        if self._table is None:
            t0 = time.monotonic()
            self._table = table1()
            self.table_seconds = time.monotonic() - t0
        return self._table


@pytest.fixture(scope="session")
def bench():
    return BenchmarkCache()
