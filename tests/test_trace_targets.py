"""The benchmark's tracer wraps library functions by name
(``benchmark/tracing.py``), so a rename here would break traced runs without
failing any library test.  These tests resolve every name it lists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(short: str, attr: str):
    owner = importlib.import_module("twochar." + short)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


tracing = _tracing()


@pytest.mark.parametrize("name, short, attr", tracing.SPAN_TARGETS, ids=[t[0] for t in tracing.SPAN_TARGETS])
def test_span_target_resolves(name, short, attr):
    assert callable(_resolve(short, attr)), name


@pytest.mark.parametrize("name, short, attr", tracing.CACHE_TARGETS, ids=[t[0] for t in tracing.CACHE_TARGETS])
def test_cache_target_resolves(name, short, attr):
    assert callable(_resolve(short, attr).cache_info), name

