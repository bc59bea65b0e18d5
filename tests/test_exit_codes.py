"""Exit codes for faults and bounds: an internal fault exits 4, a bound
exits 3 before the group is built, or before its subgroup lattice is, and
input errors and argument values out of range keep exit 2.  Only a typed
input error, or a document that cannot be read or decoded as JSON, exits 2:
a ``ValueError``, ``KeyError`` or ``TypeError`` from inside the library is an
internal fault.

Each internal fault is raised by patching the library call behind
``twochar h2``, in-process and in a ``python -O`` subprocess, which strips
``assert`` statements.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twochar import burnside, cli, crossed, groups
from twochar.cli import main
from twochar.crossed import crossed_from_json, load_json
from twochar.errors import (
    ClosureTooLarge,
    InexactDivision,
    InternalFault,
    NotAGroup,
    NotAHomomorphism,
    NotAnAction,
    NotAPermutation,
    NotMonic,
    TooLarge,
    TwistMismatch,
    WrongWitness,
)
from twochar.groups import DEFAULT_MAX_ORDER, from_permutation_generators, group_from_json

FAULTS = [WrongWitness, TwistMismatch, InexactDivision, NotMonic]
S7 = {"degree": 7, "generators": [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]}


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
def test_internal_fault_exits_4_with_its_witness(fault, monkeypatch, capsys):
    assert issubclass(fault, InternalFault)
    monkeypatch.setattr(cli, "schur_classes", _raiser(fault("injected", witness=(1, 2))))
    assert main(["h2", "v4"]) == 4
    err = capsys.readouterr().err
    assert f"{fault.__name__}: injected (witness: (1, 2))" in err


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("boom"),
        AssertionError("boom"),
        ZeroDivisionError("boom"),
        ValueError("boom"),
        KeyError("boom"),
        TypeError("boom"),
    ],
)
def test_any_other_escaping_exception_exits_4(exc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "schur_classes", _raiser(exc))
    assert main(["h2", "v4"]) == 4
    assert f"internal fault: {type(exc).__name__}: {exc}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc",
    [
        OSError("bad"),
        FileNotFoundError("bad"),       # what the loaders raise for an unknown name
        json.JSONDecodeError("bad", "{", 1),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"),
    ],
)
def test_input_errors_keep_exit_2(exc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "schur_classes", _raiser(exc))
    assert main(["h2", "v4"]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["non-utf8", "truncated-json", "directory"])
def test_unreadable_documents_exit_2(kind, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if kind == "non-utf8":
        path.write_bytes(b'{"cayley": [[0]]}\xff')
    elif kind == "truncated-json":
        path.write_text('{"cayley": [[0, 1], [1')
    else:
        path.mkdir()
    assert main(["h2", str(path)]) == 2
    assert "invalid input" in capsys.readouterr().err


_UNDER_O = """
from twochar import cli, errors

def raise_it(exc):
    def f(*args, **kwargs):
        raise exc
    return f

for exc in (errors.WrongWitness("x"), errors.TwistMismatch("x"), errors.InexactDivision("x"),
            errors.NotMonic("x"), AssertionError("x"), ValueError("x"), KeyError("x"), TypeError("x"),
            OSError("x")):
    cli.schur_classes = raise_it(exc)
    print(cli.main(["h2", "v4"]))
"""


def test_exit_codes_hold_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["4"] * 8 + ["2"]


def test_generator_closure_stops_one_past_the_bound():
    with pytest.raises(ClosureTooLarge) as info:
        group_from_json(S7, 64)
    assert info.value.witness == 65


def test_s7_generators_exit_3(tmp_path, capsys):
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(S7))
    assert main(["h2", str(path), "--max-order", "64"]) == 3
    assert "bound exceeded: closure exceeded 64 elements" in capsys.readouterr().err


def test_empty_generator_list_is_the_trivial_group_at_any_degree(tmp_path, capsys):
    # the degree of an empty generator list is not held to the document's
    # size, so no degree-length permutation may be built
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"degree": 10**12, "generators": []}))
    start = time.perf_counter()
    assert main(["h2", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "group: G (order 1)" in capsys.readouterr().out


# Argument values outside their range, refused by the argument parser before
# a handler runs, with the argument named; the process exits 2.
BAD_ARGUMENTS = {
    "negative-seed": (["h2", "v4", "--seed", "-1"], "--seed"),
    "zero-iters": (["verify", "burnside", "--iters", "0"], "--iters"),
    "zero-max-order": (["h2", "v4", "--max-order", "0"], "--max-order"),
    "zero-level": (["h2", "v4", "--level", "0"], "--level"),
    "non-integer-level": (["h2", "v4", "--level", "two"], "--level"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_bad_arguments_exit_2_naming_the_argument(name, monkeypatch, capsys):
    argv, argument = BAD_ARGUMENTS[name]
    monkeypatch.setattr(cli, "schur_classes", _raiser(AssertionError("handler ran")))
    monkeypatch.setattr(cli, "SUITES", {"burnside": _raiser(AssertionError("handler ran"))})
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"error: argument {argument}: " in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [("0", "must be at least 1, got 0"), ("abc", "invalid int value: 'abc'")])
def test_max_order_from_the_environment_is_checked_by_the_parser(value, message, monkeypatch, capsys):
    monkeypatch.setenv("TWO_CHAR_MAX_ORDER", value)
    with pytest.raises(SystemExit) as info:
        main(["h2", "v4"])
    assert info.value.code == 2
    assert f"error: argument --max-order: {message}" in capsys.readouterr().err


# Order 64: accepted by the loaders, but its d₂ is 23,814×3,969, over the
# bound.  The subgroup lattice of Z2⁶ (2,825 subgroups) took most of a minute.
Z2_6 = {"name": "Z2^6", "cayley": [[i ^ j for j in range(64)] for i in range(64)]}


@pytest.mark.parametrize("command", ["char-table", "burnside"])
def test_order_64_exits_3_before_the_subgroup_lattice(command, tmp_path, capsys):
    path = tmp_path / "z2_6.json"
    path.write_text(json.dumps(Z2_6))
    misses = groups.all_subgroups.cache_info().misses
    assert main([command, str(path)]) == 3
    assert "bound exceeded: d₂ on the generator rows would be 23814×3969" in capsys.readouterr().err
    with pytest.raises(TooLarge):
        burnside.mark_matrix(group_from_json(Z2_6))
    assert groups.all_subgroups.cache_info().misses == misses


def test_cayley_table_over_the_bound_is_refused_before_validation(monkeypatch):
    monkeypatch.setattr(groups, "_validate_table", _raiser(AssertionError("table validated")))
    doc = {"cayley": [[(i + j) % 65 for j in range(65)] for i in range(65)]}
    with pytest.raises(TooLarge):
        group_from_json(doc, 64)


def test_every_loader_defaults_to_the_cli_bound(monkeypatch):
    monkeypatch.setattr(groups, "_validate_table", _raiser(AssertionError("table validated")))
    doc = {"cayley": [[(i + j) % 65 for j in range(65)] for i in range(65)]}
    with pytest.raises(TooLarge):
        group_from_json(doc)
    with pytest.raises(TooLarge):
        crossed_from_json({"H": doc, "G": doc, "boundary": [0] * 65, "action": [list(range(65))] * 65})
    with pytest.raises(ClosureTooLarge) as info:
        from_permutation_generators(S7["degree"], S7["generators"])
    assert info.value.witness == DEFAULT_MAX_ORDER + 1 == 65


def test_crossed_module_over_the_bound_is_refused_before_validation(monkeypatch):
    monkeypatch.setattr(crossed, "_validate", _raiser(AssertionError("crossed module validated")))
    doc = load_json("crossed_inner_s3", "crossed module")  # S3 → S3
    with pytest.raises(TooLarge):
        crossed_from_json(doc, 4)


# Input documents with entries that are not JSON integers.  Cast by
# ``np.array(..., dtype=np.int64)`` or ``int``, each would become a valid group
# or crossed module (a negative degree, the trivial group), so each is refused
# where it is read, with the entry's position as witness.  So is an integer
# entry past int64, which the cast would raise on as an internal fault (exit
# 4), and a declared order that is not an integer (witness: the value).
Z2 = {"name": "Z2", "cayley": [[0, 1], [1, 0]]}
Z4 = {"name": "Z4", "cayley": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
NON_INTEGER_DOCS = {
    "float-table": ({"cayley": [[0.7, 1.2], [1.9, 0.1]]}, NotAGroup, (0, 0)),
    "string-table": ({"cayley": [[0, 1], [1, "0"]]}, NotAGroup, (1, 1)),
    "bool-table": ({"cayley": [[False]]}, NotAGroup, (0, 0)),
    "float-degree": ({"degree": 2.5, "generators": [[1, 0]]}, NotAPermutation, 2.5),
    "negative-degree": ({"degree": -1, "generators": []}, NotAPermutation, -1),
    "float-generator": ({"degree": 2, "generators": [[1.9, 0.2]]}, NotAPermutation, (0, 0)),
    "crossed-float-boundary": (
        {"H": Z2, "G": Z4, "boundary": [0, 2.0], "action": [[0, 1]] * 4}, NotAHomomorphism, (1,)
    ),
    "crossed-string-action": (
        {"H": Z2, "G": Z4, "boundary": [0, 2], "action": [["0", "1"]] * 4}, NotAnAction, (0, 0)
    ),
    "huge-table-entry": ({"cayley": [[0, 2**70], [1, 0]]}, NotAGroup, (0, 1)),
    "crossed-huge-boundary": (
        {"H": Z2, "G": Z4, "boundary": [0, 2**70], "action": [[0, 1]] * 4}, NotAHomomorphism, (1,)
    ),
    "crossed-huge-action": (
        {"H": Z2, "G": Z4, "boundary": [0, 2], "action": [[0, 1]] * 3 + [[0, 2**70]]}, NotAnAction, (3, 1)
    ),
    "bool-order": ({"order": True, "cayley": [[0]]}, NotAGroup, True),
    "float-order": ({"order": 2.0, "cayley": [[0, 1], [1, 0]]}, NotAGroup, 2.0),
}


def _exits_2_with(doc, error, witness, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    crossed_doc = any(k in doc for k in ("H", "G", "boundary", "action"))
    argv = ["crossed", str(path), "validate"] if crossed_doc else ["h2", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {error.__name__}: " in err
    assert err.endswith(f"(witness: {witness})\n")


@pytest.mark.parametrize("name", NON_INTEGER_DOCS)
def test_non_integer_entries_exit_2_with_their_position(name, tmp_path, capsys):
    _exits_2_with(*NON_INTEGER_DOCS[name], tmp_path, capsys)


# Missing keys, values that are not lists and ragged rows, refused where the
# document is read (witness: the key, or the row's position) instead of
# reaching ``np.array`` or a ``KeyError`` without a witness.
MALFORMED_DOCS = {
    "missing-degree": ({"generators": [[1, 0]]}, NotAPermutation, "degree"),
    "missing-H": ({"G": Z4, "boundary": [0, 2], "action": [[0, 1]] * 4}, NotAGroup, "H"),
    "missing-G": ({"H": Z2, "boundary": [0, 2], "action": [[0, 1]] * 4}, NotAGroup, "G"),
    "missing-boundary": ({"H": Z2, "G": Z4, "action": [[0, 1]] * 4}, NotAHomomorphism, "boundary"),
    "missing-action": ({"H": Z2, "G": Z4, "boundary": [0, 2]}, NotAnAction, "action"),
    "non-list-table": ({"cayley": 5}, NotAGroup, "cayley"),
    "string-table": ({"cayley": "ab"}, NotAGroup, "cayley"),
    "non-list-table-row": ({"cayley": [[0, 1], 1]}, NotAGroup, (1,)),
    "ragged-table": ({"cayley": [[0, 1], [1]]}, NotAGroup, (1,)),
    "non-square-table": ({"cayley": [[0, 1, 2], [1, 2, 0]]}, NotAGroup, (0,)),
    "non-list-generators": ({"degree": 2, "generators": 5}, NotAPermutation, "generators"),
    "non-list-generator": ({"degree": 2, "generators": [[1, 0], 1]}, NotAPermutation, (1,)),
    "ragged-generator": ({"degree": 2, "generators": [[1, 0], [0]]}, NotAPermutation, (1,)),
    "crossed-non-list-boundary": ({"H": Z2, "G": Z4, "boundary": 2, "action": [[0, 1]] * 4}, NotAHomomorphism, "boundary"),
    "crossed-short-boundary": ({"H": Z2, "G": Z4, "boundary": [0], "action": [[0, 1]] * 4}, NotAHomomorphism, "boundary"),
    "crossed-nested-boundary": ({"H": Z2, "G": Z4, "boundary": [[0], [2]], "action": [[0, 1]] * 4}, NotAHomomorphism, (0,)),
    "crossed-non-list-action": ({"H": Z2, "G": Z4, "boundary": [0, 2], "action": 0}, NotAnAction, "action"),
    "crossed-short-action": ({"H": Z2, "G": Z4, "boundary": [0, 2], "action": [[0, 1]] * 3}, NotAnAction, "action"),
    "crossed-ragged-action": (
        {"H": Z2, "G": Z4, "boundary": [0, 2], "action": [[0, 1], [0, 1], [0], [0, 1]]}, NotAnAction, (2,)
    ),
}


@pytest.mark.parametrize("name", MALFORMED_DOCS)
def test_missing_keys_and_ragged_rows_exit_2_with_their_place(name, tmp_path, capsys):
    _exits_2_with(*MALFORMED_DOCS[name], tmp_path, capsys)


# Documents that are not JSON objects, and a group document with neither
# form, refused with ``NotAGroup`` where they are read (witness: the
# document's type, or the keys it lacks) instead of reaching the catch-all
# with no witness.
NOT_OBJECTS = {
    "group-list": ("h2", [[0]], "list"),
    "group-number": ("h2", 5, "int"),
    "group-without-a-form": ("h2", {"name": "G"}, ("cayley", "generators")),
    "crossed-number": ("crossed", 5, "int"),
    "crossed-string": ("crossed", "H", "str"),
    "crossed-list-G": ("crossed", {"H": Z2, "G": [Z4], "boundary": [0, 2], "action": [[0, 1]] * 4}, "list"),
}


@pytest.mark.parametrize("name", NOT_OBJECTS)
def test_documents_that_are_not_objects_exit_2_with_their_type(name, tmp_path, capsys):
    command, doc, witness = NOT_OBJECTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["crossed", str(path), "validate"] if command == "crossed" else ["h2", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotAGroup: ")
    assert err.endswith(f"(witness: {witness})\n")
