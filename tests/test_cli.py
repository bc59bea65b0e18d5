"""Command-line interface: reports, exit codes, fault injection, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twochar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h2_report(capsys):
    code, out, _ = run(capsys, "h2", "v4")
    assert code == 0
    assert "Schur classes: 2, structure: Z/2" in out
    assert "seed: 0" in out


def test_h2_cyclic_is_trivial(capsys):
    code, out, _ = run(capsys, "h2", "z6")
    assert code == 0
    assert "Schur classes: 1, structure: trivial" in out


def test_h2_with_level(capsys):
    code, out, _ = run(capsys, "h2", "v4", "--level", "2")
    assert code == 0
    assert "classes at level 2: 8" in out


def test_burnside_report(capsys):
    code, out, _ = run(capsys, "burnside", "s3")
    assert code == 0
    assert "basis pairs: 4" in out
    assert "determinant: 12" in out
    assert "determinant nonzero: True" in out


def test_burnside_json(capsys):
    code, out, _ = run(capsys, "burnside", "v4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 6
    assert doc["determinant"] == "-64"


def test_char_table_verified(capsys):
    code, out, _ = run(capsys, "char-table", "v4", "--verify")
    assert code == 0
    assert "three-way agreement: PASS" in out
    assert out.count("\n") >= 16


def test_verify_suites_pass(capsys):
    for suite, iters in (("shapiro", "5"), ("oracle", "1"), ("burnside", "10"), ("crossed", "1")):
        code, out, _ = run(capsys, "verify", suite, "--iters", iters)
        assert code == 0, (suite, out)
        assert "status: PASS" in out
        assert "seed: 0" in out


def test_verify_poison_fails_with_witness(capsys):
    for suite in ("shapiro", "oracle", "burnside", "crossed"):
        code, out, _ = run(capsys, "verify", suite, "--iters", "5", "--poison")
        assert code == 1, (suite, out)
        assert "status: FAIL" in out
        assert "witness:" in out


def test_crossed_reports(capsys):
    code, out, _ = run(capsys, "crossed", "crossed_z2_z4", "validate")
    assert code == 0 and "valid: true" in out
    code, out, _ = run(capsys, "crossed", "crossed_inner_s3", "triples")
    assert code == 0 and "triples: 36" in out and "classes: 11" in out
    code, out, _ = run(capsys, "crossed", "crossed_z2_z4", "pi")
    assert code == 0 and "pi1 order: 2" in out


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "h2", str(bad))
    assert code == 2
    assert "error" in err


def test_invalid_table_is_input_error(tmp_path, capsys):
    doc = tmp_path / "loop.json"
    doc.write_text(json.dumps({"name": "X", "cayley": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, "h2", str(doc))
    assert code == 2
    assert "NotAGroup" in err


def test_unknown_group_is_input_error(capsys):
    code, _, err = run(capsys, "h2", "nosuchgroup")
    assert code == 2


def test_order_bound_is_exit_3(capsys, monkeypatch):
    code, _, err = run(capsys, "h2", "q8", "--max-order", "4")
    assert code == 3
    monkeypatch.setenv("TWO_CHAR_MAX_ORDER", "4")
    code, _, err = run(capsys, "h2", "q8")
    assert code == 3


def test_verify_crossed_respects_order_bound(capsys):
    # crossed_inner_s3 is S3 → S3, over the bound 4
    code, out, err = run(capsys, "verify", "crossed", "--max-order", "4")
    assert code == 3
    assert out == ""
    assert "bound exceeded" in err


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_char_table_disagreement_fails_under_optimize_flag(flags):
    code = (
        "import twochar.characters as characters\n"
        "from twochar.cli import main\n"
        "from twochar.cyclo import CycloInt\n"
        "gk_rep, column = characters.gk_rep, characters._transversal_column\n"
        "characters.gk_rep = lambda *args: gk_rep(*args) + CycloInt.one()\n"
        "def planted(hits, pair, count, n):\n"
        "    out = column(hits, pair, count, n)\n"
        "    out[0, 0] += pair is characters.basis(pair.subgroup.parent)[0]\n"
        "    return out\n"
        "characters._transversal_column = planted\n"
        "raise SystemExit(main(['char-table', 'v4', '--verify']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 1, out.stderr
    assert "three-way agreement: FAIL (character formulas disagree at pair (0,0), column 0)" in out.stdout


def test_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        code = main(["char-table", "s3", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_threads_into_reports(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--seed", "42", "--iters", "1")
    assert code == 0
    assert "seed: 42" in out
