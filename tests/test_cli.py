"""End-to-end command-line interface tests via cli.main."""

import json

import pytest

from uwrt import cli, evaluate
from uwrt.invariants import jm_borromean
from uwrt.laurent import LaurentU
from uwrt.tangles import builtin, colored_jones

BORR = '{"family": "borromean", "params": [1, 1, 1]}'


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_jones_human(capsys):
    code, out, _ = run(capsys, ["jones", "--builtin", "unknot", "2"])
    assert code == 0
    assert out.strip() == "q + 1 + q^-1"


def test_jones_json_deterministic(capsys):
    argv = ["jones", "--format", "json", "--builtin", "hopf", "1", "1"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["command"] == "jones"
    assert LaurentU.from_json(obj["value"]) == \
        colored_jones(builtin("hopf"), (1, 1))


def test_jones_from_file(capsys, tmp_path):
    path = tmp_path / "unknot.txt"
    path.write_text("U(1)\nA(1)\n")
    code, out, _ = run(capsys, ["jones", "--diagram", str(path), "1"])
    assert code == 0
    assert out.strip() == "v + v^-1"


def test_jm(capsys):
    code, out, _ = run(capsys, ["jm", "--depth", "6", "--surgery", BORR])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot 0: 1"
    assert any(line.startswith("reduced mod (q)_6:") for line in lines)


def test_eval_root(capsys):
    code, out, _ = run(capsys,
                       ["eval", "--surgery", BORR, "root", "1"])
    assert code == 0
    assert out.strip() == "1"


def test_eval_rational(capsys):
    code, out, _ = run(capsys,
                       ["eval", "--surgery", BORR, "rational", "2", "1", "5"])
    assert code == 0
    assert out.startswith("4 ")


def test_eval_modp_scan(capsys):
    code, out, _ = run(capsys,
                       ["eval", "--surgery", BORR, "modp-scan", "5", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "modulus-type,p,r,value-encoding,nonvanishing-flag"
    rs = [int(line.split(",")[2]) for line in lines[1:]]
    assert rs == [1, 2, 3, 4, 6]        # r = 5 skipped, shares a factor


def test_eval_modp_value_computed_once(capsys, monkeypatch):
    original = evaluate.modp_value
    calls = []

    def counted(x, p, r):
        calls.append((p, r))
        return original(x, p, r)

    monkeypatch.setattr(evaluate, "modp_value", counted)
    monkeypatch.setattr(cli, "modp_value", counted)
    for fmt in ("human", "json"):
        calls.clear()
        code, _, _ = run(capsys, ["eval", "--format", fmt, "--surgery",
                                  BORR, "modp", "7", "3"])
        assert code == 0 and calls == [(7, 3)]
        calls.clear()
        code, _, _ = run(capsys, ["eval", "--format", fmt, "--surgery",
                                  BORR, "modp-scan", "3", "10"])
        assert code == 0 and len(calls) == 10 - 10 // 3
    code, out, _ = run(capsys, ["eval", "--surgery", BORR, "modp", "7", "3"])
    value = original(jm_borromean(1, 1, 1, 10), 7, 3).value
    assert out.splitlines()[1] == \
        f"nonvanishing: {evaluate.modp_nonvanishing(value)}"


def test_ohtsuki(capsys):
    code, out, _ = run(capsys, ["ohtsuki", "--surgery", BORR, "6"])
    assert code == 0
    assert out.strip() == "1 -6 45 -464 6224 -102816"


def test_taylor(capsys):
    code, out, _ = run(capsys, ["taylor", "--surgery", BORR, "1", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("h^0: [1]")
    assert lines[1].startswith("h^1: [-6]")


def test_wrt(capsys):
    code, out, _ = run(capsys, ["wrt", "--surgery", BORR, "1"])
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys,
                       ["wrt", "--format", "json", "--surgery", BORR, "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "wrt" and obj["r"] == 3


def test_kashaev(capsys):
    code, out, _ = run(capsys, ["kashaev", "--depth", "4", "1", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot 0: 1"
    assert lines[1] == "slot 1: -q^2 + q"


def test_surgery_from_file(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text('{"diagram": "unknot", "framings": [1]}')
    code, out, _ = run(capsys,
                       ["eval", "--surgery", str(path), "root", "2"])
    assert code == 0
    assert out.strip() == "[1] with modulus [1, 1]"


def test_input_errors(capsys):
    code, _, err = run(capsys, ["jm", "--surgery", "/does/not/exist.json"])
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, ["jm", "--surgery", "{not json"])
    assert code == 2
    code, _, err = run(capsys, ["jm"])
    assert code == 2
    code, _, err = run(capsys,
                       ["eval", "--surgery", BORR, "rational", "2"])
    assert code == 2
    code, _, err = run(capsys, ["jm", "--depth", "0", "--surgery", BORR])
    assert code == 2
    code, _, err = run(capsys, ["check", "bogus-suite"])
    assert code == 2
    code, _, err = run(capsys, ["jones", "--builtin", "hopf", "--",
                                "-1", "1"])
    assert code == 2 and "input error" in err
    for mode in (["modp", "4", "3"], ["modp", "6", "5"],
                 ["padic", "2", "4", "3"]):
        code, _, err = run(capsys, ["eval", "--surgery", BORR] + mode)
        assert code == 2 and "input error" in err
    for argv in (["ohtsuki", "--surgery", BORR, "0"],
                 ["ohtsuki", "--surgery", BORR, "-2"],
                 ["taylor", "--surgery", BORR, "1", "0"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and "input error" in err and not out


def test_domain_error_exit_code(capsys):
    surgery = '{"diagram": "hopf", "framings": [1, 1]}'
    code, _, err = run(capsys, ["wrt", "--surgery", surgery, "3"])
    assert code == 1 and "domain error" in err


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["jones", "--builtin", "figure-eight", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--surgery", BORR, "complex", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
