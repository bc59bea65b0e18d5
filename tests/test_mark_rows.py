"""Rows of the table of marks up to conjugacy.

The mark at (P, α) equals the mark at (P, α∘n*) for n in the normalizer of
P, so ``mark_matrix`` keeps one α per normalizer orbit.  On Z3²⋊C2 (the C2
swapping the factors) the swap inverts H²(Z3²; ℂ^×) = ℤ/3, and one row per
character would give an 11×10 matrix.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from twochar.burnside import _character_table, basis, basis_element, determinant, mark, mark_matrix
from twochar.cli import main
from twochar.cochains import conjugate_pullback
from twochar.cyclo import CycloInt
from twochar.groups import group_from_json, load_group, normalizer, subgroup_class_representatives
from twochar.reps import linear_classes

Z3SQ_C2 = Path(__file__).resolve().parent / "data" / "z3sq_c2.json"

# digests of ``burnside Z3SQ_C2 --format json`` and
# ``char-table Z3SQ_C2 --format json --verify``
Z3SQ_C2_GOLDEN = {
    ("burnside", "--format", "json"): "97e439c3e9531e03023d703d59d9aaa092da0158e4bde682dcf6512a15f89fbf",
    ("char-table", "--format", "json", "--verify"): "c8ee71028fb68dc397267921d325bfe23bca41e9b2018ab1bc6b830923e2b1d5",
}


def _z3sq_c2():
    return group_from_json(json.loads(Z3SQ_C2.read_text()))


@pytest.mark.parametrize(
    "argv, digest", [pytest.param(argv, digest, id=argv[0]) for argv, digest in Z3SQ_C2_GOLDEN.items()]
)
def test_z3sq_c2_output_matches_golden_digest(argv, digest):
    command, *flags = argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(Z3SQ_C2), *flags])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_z3sq_c2_table_of_marks_is_square():
    G = _z3sq_c2()
    assert G.order == 18
    labels, cols, rows = mark_matrix(G)
    assert len(rows) == len(cols) == 10
    assert determinant(rows) == CycloInt.from_int(-104976)
    # the two nontrivial characters of H²(Z3²; ℂ^×) = ℤ/3 are swapped: one row
    P = next(P for P in subgroup_class_representatives(G) if P.order == 9)
    assert len(_character_table(P)) == 3
    assert [ci for Q, ci in labels if Q == P] == [0, 1]


# Z3²: its marks at the subgroups of order 3 and 9 are not all rational, so
# these pins cover how a value and the determinant print at level 3
Z3SQ = {"name": "Z3^2", "cayley": [[(a // 3 + b // 3) % 3 * 3 + (a + b) % 3 for b in range(9)] for a in range(9)]}
Z3SQ_BURNSIDE_JSON = "aa86e24cebdad5afcb6bad976afa8a55d12ebfc757879fd02bb718d102ef7d04"


def test_z3sq_marks_and_determinant_print_as_pinned(tmp_path):
    G = group_from_json(Z3SQ)
    rows = mark_matrix(G)[2]
    assert sum(str(v).count("ζ3") > 0 for row in rows for v in row) == 4
    assert str(determinant(rows)) == "-2187 - 4374·ζ3"
    path = tmp_path / "z3sq.json"
    path.write_text(json.dumps(Z3SQ))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["burnside", str(path), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == Z3SQ_BURNSIDE_JSON


# the bundled groups and the unbundled golden groups but Z2^4, on which the
# normalizers act trivially: Z2^4 is abelian
BUNDLED = ("z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "v4", "s3", "d4", "q8")
MARK_GROUPS = [load_group(name) for name in BUNDLED] + [
    group_from_json({"name": "Z2^3", "cayley": [[i ^ j for j in range(8)] for i in range(8)]}),
    group_from_json({"name": "Z4xZ2", "degree": 6, "generators": [[1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]}),
    _z3sq_c2(),
]


@pytest.mark.parametrize("G", MARK_GROUPS, ids=lambda G: G.name)
def test_mark_is_constant_on_normalizer_orbits_of_alpha(G):
    elements = [basis_element(G, pair) for pair in basis(G)]
    for P in subgroup_class_representatives(G):
        sc = linear_classes(P)
        for n in normalizer(G, P).elements:
            # the class of n*μ, through cochains
            moved = [sc.index_of(conjugate_pullback(rep, n, P)) for rep in sc.representatives]
            for alpha in _character_table(P):
                beta = tuple(alpha[j] for j in moved)
                assert beta in _character_table(P)
                for u in elements:
                    assert mark(P, alpha, u) == mark(P, beta, u), (P, n, alpha)
