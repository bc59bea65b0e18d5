"""The ``>>>`` examples in the package's docstrings run as part of the suite."""

import doctest
import importlib
import pkgutil

import twochar


def test_every_module_doctest_passes():
    failed = attempted = 0
    for info in pkgutil.iter_modules(twochar.__path__):
        module = importlib.import_module(f"twochar.{info.name}")
        result = doctest.testmod(module, verbose=False)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 3
