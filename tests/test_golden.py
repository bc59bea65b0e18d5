"""Golden outputs: sha256 digests of CLI reports for the bundled groups.

The digests pin the class indices, representative cocycles, canonical basis,
mark matrices and character tables byte for byte, so that a change of engine
behind them cannot reorder or rewrite an answer unnoticed.  The ``verify``
cases pin each invariant suite's report, witness and exit code, with and
without fault injection.  Each command runs in-process through ``cli.main``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twochar.burnside import determinant, mark_matrix
from twochar.characters import char_table
from twochar.cli import main
from twochar.cochains import GModule, h2, schur_classes
from twochar.groups import from_permutation_generators, group_from_json

GOLDEN = {
    ("h2", "z1"): "f8847b44a939c6b85857b47e0cefa39f9fb6db313ddab7cf6aae759a4f288297",
    ("burnside", "z1"): "1c89b2cc05b0ddc89d8350ebef6fa71d8f655ef4b2743053033c471097de3aaf",
    ("char-table", "z1"): "b10881d17cb9cdc6cb0258f425cb975bbee2e5cb11dd411fb4b55f909c3fe2c2",
    ("h2", "z2"): "443e5d021babeeb5a54c8472cb4c12f2e89c0018427025104bf64b1faba892a9",
    ("burnside", "z2"): "0c4ba0a2b2f54379cd2737303323ae36a25d88d6e3d94550a71ec282b27878e8",
    ("char-table", "z2"): "3c8b07d22d697006672e3200d9b6db014ce649df00e840e8ed16122cda73dd47",
    ("h2", "z3"): "89136f1f3488344e6372703ba004be05f6845646c0edf47a7980694b3e31ebc5",
    ("burnside", "z3"): "fa6f8be341291b76924e4bc281a46ac01478813649c46939605f56c537f74019",
    ("char-table", "z3"): "dd9c14dd01c8759c117698b137a009823d5acdcbad88fad83fd82c1f017f6870",
    ("h2", "z4"): "0697d0fb727703e6f21327fd01d48f1201506cd5ce5ebe72ebd5aadcde2bf7d9",
    ("burnside", "z4"): "3d9f2fdb9b92f79652a711b7cca9a029caeb0e929ea63cd167d8f7399ab9e0e5",
    ("char-table", "z4"): "63a646f2e13ccc025f6b461f24c8baaeffab25bc3bca003a21e9d396b223378a",
    ("h2", "z5"): "e4aab1ddc9666211e2c1e90846a789d90cde9ad51c426df915378ea3fff215aa",
    ("burnside", "z5"): "5995c7af947c70fb949a5e167485978b9007a29eca34419e386b412cb6a1c605",
    ("char-table", "z5"): "039081b29f4e82d1f9d098c47b9e6f64bed1bc6c6a28d9435a6c6795ff515f03",
    ("h2", "z6"): "45cc47f649e30fdcc67dbb6f51c9eecf8066e18b619c6e8ddaa4c4dec58403f3",
    ("burnside", "z6"): "b4537671dd078fde0601900019257a88b21bf4c6df3f458bbcacede30ae32f97",
    ("char-table", "z6"): "37a5c8ce65b5cef7a9ddf875b2fe0cddb65971100f2931d09d87e4f676350eef",
    ("h2", "z7"): "c0c2ddefc7c7c6a565b5593f38ef8a803b2bbbe548e3393e40190d8b6b5da4ce",
    ("burnside", "z7"): "4d7644d83714231ad60c68918c70b2298864bf5cdf924a82497cacc5e8942067",
    ("char-table", "z7"): "634dae779bb9e52f1a0fba658edc26644ea404d9084a90025604d125e3c29b4e",
    ("h2", "z8"): "a97723bddafa688e0a253c45989f259b5ddf6506bf2ff0cc93eea11824eab0b7",
    ("burnside", "z8"): "2e53371dcf9073af180026bba8e7bb008d77749c3bc67d1616ef614b17f38207",
    ("char-table", "z8"): "95372d97617fdf46238f17f58c6634b26bd741cc427a2f7006806398f29ed220",
    ("h2", "v4"): "7b179ddd4f18e231aae97132c5c8993eb9380c37dad1158bd2739c7d8a88d784",
    ("burnside", "v4"): "356c625bcdbbe979f9591caf034d74ac39e58253140c2194fd1911b4a19f1d17",
    ("char-table", "v4"): "14d6d618545003c20f9cc75f9e08af433ba4f92e4c8e2973a15d5e0740af2064",
    ("h2", "s3"): "488f967b7e7f8a2da1ba3a70e8b18ed928ee62de0a46adeb5828de3738738621",
    ("burnside", "s3"): "1e62500207ef88fe54bf351e18626ef959c4e904aede254ddf767cb457b6f6d6",
    ("char-table", "s3"): "c881a2ef439af3c92881d2ecd94448ce9fda4a2bc755dd363028f4396e2ccadd",
    ("h2", "d4"): "68c31d8ef3919cac0d09f5aef50a04d4df6aa9df85a8bd94fac83ef73461242a",
    ("burnside", "d4"): "2c365fc8ed859ccd81e6cbc467e87ff09d8abf2fb3aea9e5e93de910d3583676",
    ("char-table", "d4"): "cc85a15cd731933d1ecca874b826fd1a1c186695e5b0454a18d79939496993f7",
    ("h2", "q8"): "2c267fde4a5c8059965cb54f9141aa426b28ac0caff060d7bc8a3413a176c70f",
    ("burnside", "q8"): "ffe1520513d45de182ea8e802e1793ee7c9c5a37e6c3ea626ac566f4cd98a97c",
    ("char-table", "q8"): "6bc6018d7c659819c14473847f1b2304d284e7d18f29b59d7a451e563b08c682",
}

# (group, level): digest of ``h2 GROUP --level LEVEL``, which prints every
# class at that level with its canonical representative
LEVEL_GOLDEN = {
    ("v4", 2): "1f16061d85ce678264929e150d7349a6d8e2d3e3e4a31f50a58c0f4a93aac5b4",
    ("d4", 4): "c26e6aa4bd5d4be30feb3b321c11a9d0264fe7dc9a56072f1a26dd13fc44c180",
    ("z6", 6): "415794b4b913f155019805d2af7c8074fe902588cfd3fbda7b263484de7f54b0",
}

# h2 prints its text report; the other two commands print JSON
FORMAT = {"h2": (), "burnside": ("--format", "json"), "char-table": ("--format", "json")}

# group: digest of the default ``char-table GROUP`` report (CSV, exact values)
CSV_GOLDEN = {
    "z1": "f763e3dd728b7c26c1c004bab6fef17f88c2aa29005a9e4b8559e765f33bcefc",
    "z2": "aaab11c100afceb54a5366b5792e5f4d5b6c03010df78d83096113e44c7472e3",
    "z3": "7b6444bdaed086dbb5858ad01df1e4f5e04183863629331406fc05fe44cfb519",
    "z4": "e9d21396ac481b144f8958078ef5f7a16a01eb5e5d8712592ba3e9a4526d0be2",
    "z5": "225d13f9897aaee6027d2ace771a306de95755687d6a0cb1c8476d6a944226b7",
    "z6": "e06279a4240dc6524a160980cbfaef6760c754be7754a47ffe3e20bedcf82d78",
    "z7": "51e5cec2378d353fec8f2da1f5de7d7685ca9f48975bea4c8136804bb4e2bb10",
    "z8": "e8a9e5be38cedf075bef90b7f0c85e600b968c11f6025b65d30f16fe22d5992f",
    "v4": "0f11fa792d27904bba839b2ba9c1fe352af7e9c873a3e2551a776cbe527c4066",
    "s3": "66677a4d9f2e434368749aabcbe6e2269a70389f9876c5c2a1809af56628faec",
    "d4": "07735c8702737371f438e9c7c41e2ea7ecf582e21f019e6c9bed9850fe6e40bf",
    "q8": "0c11563d36c5212a32cc1cdfdfc717bd45014d73b334231b108a26c5e56d4ea7",
}

# (group, flag): digest of ``char-table GROUP FLAG`` in the default CSV format
CSV_FLAG_GOLDEN = {
    ("d4", "--numeric"): "d1ff608ac29c2504adb375a8f1691015b15eba722a0f891992f790d79975f626",
    ("q8", "--verify"): "ad4e9f43f2e970fd459bc0f181318b1390b5caff9fb3aa41a23e8c013c8a68c0",
}

# (suite, seed, poison): (exit code, digest) of ``verify SUITE --iters 5 --seed SEED [--poison]``
VERIFY_GOLDEN = {
    ("shapiro", 0, False): (0, "7257a0872edf613e907b1d0b7c13c0352ebcf39a8ac3f08b1180b31be8836a70"),
    ("shapiro", 0, True): (1, "853f20993120f0883126986586da92d368f57f203dac31cfb318c6c0cc9a2272"),
    ("shapiro", 5, False): (0, "bbcaaa05bf3fe4836e87e92ad1d0d9cfe64adf12f3c92ee122e24ea5bff97ad5"),
    ("shapiro", 5, True): (1, "6473436debd6fd98c70f9a8817a0cade88cfe2d29be4f5fa0fcc511205919343"),
    ("oracle", 0, False): (0, "f1534759af50003bfaa221115f8b3d75b0e8f0a28158bcdf0dfdd9a176fbc03f"),
    ("oracle", 0, True): (1, "186a13a7dba8ffb826824205f9bca0816ca68fc095779d1fdd70c477ebe7c1d8"),
    ("oracle", 5, False): (0, "3c6a4a104f4c78cf1a6ec34ba64afd8555f56a06d13cfa86fa07b0fb31649dc7"),
    ("oracle", 5, True): (1, "e36ac5ba359da6d2c6982dd311b9dbabeaa516506d3e5488fa02f24db5078a3f"),
    ("burnside", 0, False): (0, "15c1e116542ddab707e6ef5d8c1213e114bbc2130d63b281542f43964b7be5bc"),
    ("burnside", 0, True): (1, "d4a4d11ca5a7546d61e75581c175a3f56ab61e1301e676eab95a6545b84b78e8"),
    ("burnside", 5, False): (0, "3b578dd48e7445022df38aa7b60c449f8a4238a10fc4f465d35c5e087257c596"),
    ("burnside", 5, True): (1, "3a6d9bda4a9e483f00a2476442eab4707bbdc568383933371bb5a55948966a31"),
    ("crossed", 0, False): (0, "dcb546c2166da475acb009a02d11afa8f542d4514e16bcd38b59f40bf0a5eaeb"),
    ("crossed", 0, True): (1, "eb8109fed58058d08e75a048398c61ecd8d833fb1bac5cd0e1fd3f3c63cdb2f3"),
    ("crossed", 5, False): (0, "a4adce31e122fc8fd1c6f06879be791cf25c9574f1b66df73c95150211a9976d"),
    ("crossed", 5, True): (1, "50b2c2317132f5be27245b0b2f80cb2377a620a5eaf0bfd3741fc3e8ead2763b"),
}

CASES = [
    pytest.param((command, group, *FORMAT[command]), 0, digest, id=f"{command}-{group}")
    for (command, group), digest in sorted(GOLDEN.items())
] + [
    pytest.param(("h2", group, "--level", str(level)), 0, digest, id=f"h2-{group}-level{level}")
    for (group, level), digest in LEVEL_GOLDEN.items()
] + [
    pytest.param(("char-table", group), 0, digest, id=f"char-table-{group}-csv")
    for group, digest in CSV_GOLDEN.items()
] + [
    pytest.param(("char-table", group, flag), 0, digest, id=f"char-table-{group}-csv{flag}")
    for (group, flag), digest in CSV_FLAG_GOLDEN.items()
] + [
    pytest.param(
        ("verify", suite, "--iters", "5", "--seed", str(seed), *(("--poison",) if poison else ())),
        code,
        digest,
        id=f"verify-{suite}-seed{seed}" + ("-poison" if poison else ""),
    )
    for (suite, seed, poison), (code, digest) in VERIFY_GOLDEN.items()
]


@pytest.mark.parametrize("argv, code, digest", CASES)
def test_cli_output_matches_golden_digest(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(list(argv))
    assert exit_code == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# Groups outside the bundled corpus whose subgroups carry more than two Schur
# classes: Z2^3 has Schur multiplier (Z/2)^3, Z2^4 has (Z/2)^6 (64 classes).
# Both outputs record each value's level ("level" keys and ζ8^2 versus ζ4), so
# a level drift shows here even where the values compare equal.
EXTRA_GROUPS = {
    "Z2^3": {"name": "Z2^3", "cayley": [[i ^ j for j in range(8)] for i in range(8)]},
    "Z4xZ2": {"name": "Z4xZ2", "degree": 6, "generators": [[1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]},
    "Z2^4": {"name": "Z2^4", "cayley": [[i ^ j for j in range(16)] for i in range(16)]},
}

EXTRA_GOLDEN = {
    ("burnside", "Z2^3"): "2f3fdbd1431ad007e44bd1b17ed9685b9fb474eb34fd895d70025e3d84cd7f13",
    ("char-table", "Z2^3"): "0bb6883fc29126655426a7697692662b886259c31176fb5d7da4a5e46da5bb0e",
    ("burnside", "Z4xZ2"): "2ebb0d795bfb488baebfac3351e91d370577b03c309f5864e0eafc9849f2f24c",
    ("char-table", "Z4xZ2"): "a1b840e46bcf33386c37c2bc25d16597e1ef966d4e0e1fa4a4cf058e358bdab9",
    ("char-table", "Z2^4"): "146a758e242b93988bc2d5da1c33de50167158e3fdab07c93a1a8e6fcfae68b2",
}

# Z2^4 has 270 mark rows; its ``burnside`` report also prints all 270² basis
# products, so the marks and the determinant are pinned directly: digests of
# json.dumps([[str(v) for v in row] for row in rows]) and of str(determinant)
Z2_4_MARKS = "4ff71020af651dec9e7367b1e97dfa4a3214c3d0ccae8c240f34aab13154f7c8"
Z2_4_DETERMINANT = "ea6dea9f3b35c0e51c8ac10fd8ecc5070c8ff0949c6bf60922b50ef0ab16a08e"

EXTRA_FLAGS = {"burnside": ("--format", "json"), "char-table": ("--format", "json", "--verify")}


@pytest.mark.parametrize(
    "command, group, digest",
    [pytest.param(c, g, d, id=f"{c}-{g}") for (c, g), d in EXTRA_GOLDEN.items()],
)
def test_unbundled_group_output_matches_golden_digest(tmp_path, command, group, digest):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(EXTRA_GROUPS[group]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main([command, str(path), *EXTRA_FLAGS[command]])
    assert exit_code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_z2_4_mark_matrix_and_determinant_match_golden_digest():
    rows = mark_matrix(group_from_json(EXTRA_GROUPS["Z2^4"]))[2]
    assert len(rows) == 270
    marks = json.dumps([[str(v) for v in row] for row in rows])
    assert hashlib.sha256(marks.encode()).hexdigest() == Z2_4_MARKS
    assert hashlib.sha256(str(determinant(rows)).encode()).hexdigest() == Z2_4_DETERMINANT


# The repr of a CycloInt shows its level, which the printed reports drop (a
# mark with no fixed coset is CycloInt(1, (0,)), not 0 at the row's level).
# Digests of repr(rows) of mark_matrix and of repr((pairs, columns, entries))
# of char_table(verify=True), both on Z2^4.
Z2_4_REPR = {
    "mark_matrix": "2859c6963de11068a3bf66bd6686fb4de85cdaaf14df8f1099ac69cf6617bc35",
    "char_table": "99342d4d4565c63467cad2eaf03620a5f2a942c26f5cfd69b6e1916c62236019",
}


def test_z2_4_tables_match_golden_repr_digest():
    G = group_from_json(EXTRA_GROUPS["Z2^4"])
    rows = mark_matrix(G)[2]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == Z2_4_REPR["mark_matrix"]
    t = char_table(G, verify=True)
    table = repr((t.pairs, t.columns, t.entries))
    assert hashlib.sha256(table.encode()).hexdigest() == Z2_4_REPR["char_table"]


# Order-16 groups with more subgroup classes than the bundled ones, run on a
# file with a fixed relative name (the CSV report prints its input path).
ORDER_16_GROUPS = {
    "D8": {"name": "D8", "degree": 8, "generators": [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]]},
    "Z4xZ2^2": {
        "name": "Z4xZ2^2",
        "degree": 8,
        "generators": [[1, 2, 3, 0, 4, 5, 6, 7], [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
    },
}

ORDER_16_GOLDEN = {
    ("char-table", "D8"): "e3c38cd2bbc76afe29c01f748aec3c5614a68f3a007e3fe63d60fea5fcf1fd7d",
    ("char-table", "Z4xZ2^2"): "56fd99fd1e096645cfcab10f5dc58a613cd75d8ab5f7c62900192e97d1932bd7",
    ("burnside", "D8"): "364e370aa7e194f7bfd697e30f2caf53142f99ea3ab9b84a1fbb5db4e8dacb1f",
}

ORDER_16_FLAGS = {"burnside": ("--format", "json"), "char-table": ()}


@pytest.mark.parametrize(
    "command, group, digest",
    [pytest.param(c, g, d, id=f"{c}-{g}") for (c, g), d in ORDER_16_GOLDEN.items()],
)
def test_order_16_output_matches_golden_digest(tmp_path, monkeypatch, command, group, digest):
    monkeypatch.chdir(tmp_path)
    Path("group.json").write_text(json.dumps(ORDER_16_GROUPS[group]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main([command, "group.json", *ORDER_16_FLAGS[command]])
    assert exit_code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# The whole ``burnside`` report on Z2^4, all 270² products included.  The text
# report prints its input path, so the group file has a fixed relative name.
Z2_4_BURNSIDE = {
    "json": "d0857168381d2e79065b253cd3ac3a3c679a0b5c082164aed461022ff838b3e4",
    "text": "40829ec8d867b165b68e5738096e404f31cb026c1cdc3f8ff2dfa22ced397d4e",
}


@pytest.mark.parametrize("fmt, digest", sorted(Z2_4_BURNSIDE.items()))
def test_z2_4_burnside_report_matches_golden_digest(tmp_path, monkeypatch, fmt, digest):
    monkeypatch.chdir(tmp_path)
    Path("z2_4.json").write_text(json.dumps(EXTRA_GROUPS["Z2^4"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(["burnside", "z2_4.json", "--format", fmt])
    assert exit_code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# S4 is the group whose d₂ reduction shrinks the most when only the rows whose
# first argument is a generator are kept.  Digests of repr(invariant factors)
# followed by the ``values.tobytes()`` of every representative, in order.
S4_GOLDEN = {
    "schur_classes": "da51bfadebbe7a439532220cba235b33e0246e176e947c0205bd769d53c5371c",
    "h2 level 24": "817aedc97d26e0e3ddfb634fb709786767e597904a5bd807c39b05f1e0a8431a",
}


def _classes_digest(classes) -> str:
    digest = hashlib.sha256(repr(classes.invariant_factors).encode())
    for rep in classes.representatives:
        digest.update(rep.values.tobytes())
    return digest.hexdigest()


def test_s4_classes_match_golden_digest():
    S4 = from_permutation_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")
    assert _classes_digest(schur_classes(S4)) == S4_GOLDEN["schur_classes"]
    assert _classes_digest(h2(S4, GModule.trivial(S4, 24))) == S4_GOLDEN["h2 level 24"]


# Runs a list of CLI argument vectors read from stdin in one process and prints
# one line per run: exit code and output digest.
_RUN_ALL = """
import contextlib, hashlib, io, json, sys
from twochar.cli import main
print(sys.flags.optimize)
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_mark_goldens_hold_in_reverse_order_under_optimize_flag(tmp_path):
    # a second cache history next to the forward in-process run above, with
    # every assert stripped: no digest may depend on either
    cases = [((c, g, *FORMAT[c]), d) for (c, g), d in sorted(GOLDEN.items()) if c != "h2"]
    for (command, group), digest in EXTRA_GOLDEN.items():
        path = tmp_path / f"{group}.json"
        path.write_text(json.dumps(EXTRA_GROUPS[group]))
        cases.append(((command, str(path), *EXTRA_FLAGS[command]), digest))
    cases.reverse()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _RUN_ALL],
        input=json.dumps([list(argv) for argv, _ in cases]),
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "1"
    assert lines[1:] == [f"0 {digest}" for _, digest in cases]
