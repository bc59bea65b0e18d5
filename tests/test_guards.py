"""Checks that guard a result raise typed errors with a witness, so that they
still fire under ``python -O``, which strips ``assert`` statements.

Each guard is tripped in a ``python -O`` subprocess: by a bad input where
the public entry points refuse to build one, or by patching the step the
guard checks.  The subprocess prints one JSON line per guard: the exception
type and its witness.  The package itself holds no ``assert`` statement, so
no check goes missing under ``-O``.

Every definition in the package is reached from the package itself or from
the benchmark, apart from a pinned few, each with its reason: code that only
its own tests run is deleted, not kept.  Likewise every error type is raised
by the package, or is the base of one that is.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_TRIP = r"""
import json, sys, types
import numpy as np
from twochar import burnside, characters, crossed, cyclo
from twochar.groups import from_cayley_table, from_permutation_generators, full_subgroup
from twochar.reps import linear_classes

V4 = from_cayley_table([[i ^ j for j in range(4)] for i in range(4)], name="V4")
S3 = from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)], name="S3")
MU = linear_classes(full_subgroup(V4)).representatives[1]


def _shift_measured_factor(nth):
    # shift the nth λ that twisted_regular measures, in row-major (g, h) order
    original, calls = characters._monomial_ratio, []

    def shifted(x, y, level):
        calls.append(x)
        k = original(x, y, level)
        return (k + 1) % level if len(calls) == nth else k

    characters._monomial_ratio = shifted
    try:
        characters.twisted_regular(MU)
    finally:
        characters._monomial_ratio = original


def measured_factor_not_a_cocycle():
    # ν(0, 0) ≠ 0 breaks normalization, so ν is no cocycle equal to μ
    _shift_measured_factor(1)


def measured_factor_not_the_twist():
    # ν(1, 2) shifted: the 7th λ measured
    _shift_measured_factor(7)


def boundary_image_not_normal():
    # a transposition of S3 as the whole boundary image
    crossed._pi1_data.__wrapped__(types.SimpleNamespace(G=S3, boundary=np.array([0, 1])))


def kernel_not_central():
    crossed.pi2(types.SimpleNamespace(H=S3, boundary=np.zeros(S3.order, dtype=np.int64)))


def determinant_not_integral():
    # the elimination over Q(zeta) hands back 1/2 for a matrix over Z[zeta]
    burnside._eliminate = lambda a: cyclo.CycloRat(cyclo.CycloInt.one(), 2)
    burnside.determinant([[cyclo.CycloInt.one()]])


def divisor_not_monic():
    cyclo._poly_divmod((1, 0, 1), (1, 2))


def cyclotomic_division_not_exact():
    cyclo.cyclotomic_polynomial.cache_clear()
    cyclo._poly_mul = lambda a, b: (2, 1)
    cyclo.cyclotomic_polynomial(2)


print(sys.flags.optimize)
for case in (
    measured_factor_not_a_cocycle,
    measured_factor_not_the_twist,
    boundary_image_not_normal,
    kernel_not_central,
    determinant_not_integral,
    divisor_not_monic,
    cyclotomic_division_not_exact,
):
    try:
        case()
        print(json.dumps([case.__name__, None, None]))
    except Exception as exc:
        print(json.dumps([case.__name__, type(exc).__name__, getattr(exc, "witness", None)]))
"""

EXPECTED = {
    "measured_factor_not_a_cocycle": ("TwistMismatch", [0, 0]),
    "measured_factor_not_the_twist": ("TwistMismatch", [1, 2]),
    "boundary_image_not_normal": ("NotNormal", [2, 1]),
    "kernel_not_central": ("NotCentral", [1, 2]),
    "divisor_not_monic": ("NotMonic", [1, 2]),
    "determinant_not_integral": ("InternalFault", 2),
    "cyclotomic_division_not_exact": ("InexactDivision", [2, [3]]),
}


@pytest.fixture(scope="module")
def tripped():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TRIP], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "1"
    return {name: (kind, witness) for name, kind, witness in map(json.loads, lines[1:])}


@pytest.mark.parametrize("case", EXPECTED)
def test_guard_raises_a_typed_error_under_optimize_flag(tripped, case):
    assert tripped[case] == EXPECTED[case]


def test_package_has_no_assert_statement():
    src = Path(__file__).resolve().parents[1] / "src" / "twochar"
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Definitions that nothing in the package or the benchmark reaches, by module
# and name, each kept for a stated reason.
UNREACHED = {
    "reps.trivial_rep2": "the unit of the representation ring, which the tests build from",
    "reps.from_perm_cocycle": "the inverse of to_perm_cocycle, whose round trip is an acceptance criterion",
    "burnside.add": "the sum of the Burnside ring, which acceptance criterion 5 checks against reps.direct_sum",
    "reps.direct_sum": "the sum of 2-representations, which acceptance criterion 5 maps to the Burnside sum",
    "reps.degree": "the size of a 2-representation, which acceptance criterion 8 checks against its permutation form",
}


def _module_of(node, in_package):
    """The package module that an import names, without the package prefix
    ('' for the package itself), or None for any other import."""
    if node.level:
        return (node.module or "") if in_package and node.level == 1 else None
    if node.module == "twochar" or node.module.startswith("twochar."):
        return node.module[len("twochar.") :]
    return None


def _module_references(tree, in_package):
    """(module, name) for every definition the file refers to through its
    module: a name imported from that module, or an attribute of a name
    bound to the module itself (``from twochar import burnside``,
    ``import twochar.burnside as b``)."""
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _module_of(node, in_package)) is not None:
            for alias in node.names:
                if module:
                    found.append((module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("twochar."):
                    modules[alias.asname] = alias.name[len("twochar.") :]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append((modules[node.value.id], node.attr))
    return found


def test_every_definition_is_reached_outside_the_tests():
    """A module-level function or class is reached if its own module names
    it outside the definition, if the package or the benchmark imports it
    from its module or reads it as an attribute of that module, or if the
    benchmark quotes it as a span name, ``"<module>.<name>"``.  Code of the
    same name in another module does not reach it.  A method is reached if
    the package reads an attribute of its name outside the method, or its
    name occurs as a whole word in the benchmark's Python files.  Every name
    pinned in ``UNREACHED`` must still be defined and still unreached, so a
    stale pin fails too."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "twochar"
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.rglob("*.py"))}
    bench_paths = sorted((root / "benchmark").rglob("*.py"))
    bench = [path.read_text() for path in bench_paths]
    bench_trees = [ast.parse(text, str(path)) for path, text in zip(bench_paths, bench)]
    through_module = {ref for tree in trees.values() for ref in _module_references(tree, True)}
    through_module |= {ref for tree in bench_trees for ref in _module_references(tree, False)}
    quoted = {
        node.value
        for tree in bench_trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    attributes = [
        (path, node.attr, node.lineno)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    unreached = set()
    for path, tree in trees.items():
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        names = [(node.id, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Name)]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            reached = (
                any(name == node.name and line not in inside for name, line in names)
                or (module, node.name) in through_module
                or f"{module}.{node.name}" in quoted
            )
            if not reached:
                unreached.add(f"{module}.{node.name}")
        methods = [(c.name, n) for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for owner, node in methods:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or re.fullmatch(r"__\w+__", node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            reached = any(
                name == node.name and (other != path or line not in inside) for other, name, line in attributes
            )
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not reached and not any(word.search(t) for t in bench):
                unreached.add(f"{module}.{owner}.{node.name}")
    orphans = sorted(unreached - UNREACHED.keys())
    assert orphans == [], f"reached only by the tests: {orphans}"
    stale = sorted(UNREACHED.keys() - unreached)
    assert stale == [], f"pinned in UNREACHED but reached or not defined: {stale}"


def test_every_error_type_is_raised_by_the_package():
    """Each exception class in ``errors.py`` is raised somewhere in the
    package, or is a base of one that is, so a deleted ``raise`` cannot leave
    a dead error type behind."""
    package = Path(__file__).resolve().parents[1] / "src" / "twochar"
    tree = ast.parse((package / "errors.py").read_text())
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    live, todo = set(), [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(b for b in bases[name] if b in bases)
    assert sorted(bases.keys() - live) == []
    assert "TwoCharError" in bases
