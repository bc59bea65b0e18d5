"""Tests of the benchmark itself (not of twochar).

    python3 -m pytest benchmark/tests -q

The slow ones start real child passes, as the benchmark does.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(*args: str, python_flags=(), root=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *python_flags, os.path.join(root, "benchmark", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_task_list_is_a_function_of_the_seed(workload):
    a = wl.task_list(workload, 7)
    b = wl.task_list(workload, 8)
    assert a == wl.task_list(workload, 7)
    assert a != b
    assert sum(t[0] == "query" for t in a) >= 1000
    # the seed moves the order and the inputs, never the mix of queries
    assert Counter(t[1:3] for t in a if t[0] == "query") == Counter(t[1:3] for t in b if t[0] == "query")
    assert a[0][:2] == wl.LARGEST[workload]


def test_same_seed_same_answers_and_tracing_changes_none():
    first = _child("--workload", "char-table", "--seed", "11")
    again = _child("--workload", "char-table", "--seed", "11")
    traced = _child("--workload", "char-table", "--seed", "11", "--trace")
    assert first["failures"] == again["failures"] == traced["failures"] == []
    assert first["digest"] == again["digest"] == traced["digest"]


def test_machine_cache_misses_twice_per_group():
    # _machine_for is keyed on the level-carrying module, so levels |G| and
    # |G|² each build the machine: 2 misses per group at this commit.
    res = _child("--workload", "cohomology", "--seed", "3", "--trace")
    assert res["failures"] == []
    assert res["layers"]["cochains.machine.misses"] == 2 * len(wl.COHOMOLOGY_GROUPS)
    assert res["layers"]["snf.self_s"] > 0.5 * res["pass_s"]


def test_wrong_pinned_value_counts_as_failure(tmp_path):
    # a copy of the benchmark with one wrong pin, run on this checkout's sources
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "benchmark" / "pinned.json"
    pinned = json.loads(path.read_text())
    pinned["char-table"]["determinant_squared"]["V4"] = "4097"
    path.write_text(json.dumps(pinned))
    proc = _run("--workload", "char-table", "--seed", "1", "--seconds", "1", root=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "det²" in proc.stdout


def test_exceptions_are_counted_and_the_pass_goes_on(monkeypatch):
    from twochar import characters
    from twochar.cyclo import CycloInt

    corpus = wl.build_corpus("char-table")
    # determinant before its mark matrix: KeyError; a wrong gk_rep: the
    # AssertionError of char_table's three-way check
    tasks = [("determinant", "V4"), ("char_table", "V4"), ("mark_matrix", "Z4")]
    monkeypatch.setattr(characters, "gk_rep", lambda r, a, b: CycloInt.from_int(99))
    state = wl.PassState("char-table", 0, corpus)
    outcome = wl.run_pass(state, tasks, time.perf_counter, contextlib.nullcontext)
    errors = [f["error"].split(":")[0] for f in outcome["failures"]]
    assert errors == ["KeyError", "AssertionError"]
    assert ("mark_matrix", "Z4") in state.results


def test_refuses_python_O():
    proc = _run("--workload", "char-table", "--seed", "1", "--seconds", "1", python_flags=("-O",))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "cohomology", "--seed", "1", "--seconds", "1", root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer(time.perf_counter)
    t.spans.extend([
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ])
    st = t.self_times()
    assert st["a"] == (1, 6.0)
    assert st["b"] == (2, 3.0)
    assert st["c"] == (1, 1.0)


def test_char_table_digest_ignores_class_index_order():
    from twochar.characters import CharTable, char_table

    G = wl.build_corpus("char-table")["groups"]["V4"]
    t = char_table(G, verify=False)
    order = list(reversed(range(len(t.columns))))
    shuffled = CharTable(
        t.group, t.pairs, tuple(t.columns[j] for j in order),
        tuple(tuple(row[j] for j in order) for row in t.entries),
    )
    assert wl.char_table_summary(shuffled) == wl.char_table_summary(t)


def test_host_speed_scales_by_nearby_samples_and_clock_skips_them():
    h = hostspeed.HostSpeed()
    ref = hostspeed.REF_S
    # slow host (reference at twice REF_S) early on, nominal later
    h.samples = [(t / 10, 2 * ref) for t in range(20)] + [(5 + t / 10, ref) for t in range(20)]
    assert h.scaled(4.0, 0.2, 1.8) == 2.0  # a slow stretch counts as half its wall time
    assert h.scaled(4.0, 5.2, 6.8) == 4.0
    assert h.factor(3.0, 3.0) == 0.5  # nothing within the window: the nearest samples
    h.samples = []
    t0 = h.now()
    h.sample()
    assert h.now() - t0 < h.samples[0][1]
