"""End-to-end command-line interface tests via cli.main."""

import argparse
import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwrt import accept, cli, evaluate, invariants, qhat, repring, tangles
from uwrt.invariants import jm_borromean
from uwrt.laurent import ONE
from uwrt.qhat import eval_root
from uwrt.tangles import builtin, colored_jones

BORR = '{"family": "borromean", "params": [1, 1, 1]}'
README = Path(__file__).resolve().parent.parent / "README.md"
TREFOIL = """U(1)
|1_ U(1) |1^
X-(1,1) |1^ |1^
X-(1,1) |1^ |1^
X-(1,1) |1^ |1^
|1_ A(1) |1^
A(1)
"""


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
    assert obj["value"] == colored_jones(builtin("hopf"), (1, 1)).to_json()


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
    # r past --depth 10: J_M is built at depth rmax, and every row is the
    # value at the root reduced mod p
    code, out, _ = run(capsys,
                       ["eval", "--surgery", BORR, "modp-scan", "5", "12"])
    assert code == 0
    x = jm_borromean(1, 1, 1, 12)
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [int(row[2]) for row in rows] == \
        [r for r in range(1, 13) if r % 5]
    for row in rows:
        val = eval_root(x, int(row[2]))
        want = [val % 5] if row[2] == "1" else [c % 5 for c in val.coeffs]
        assert [int(c) for c in row[3].split(";")] == want


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
    assert obj["value"]["base"] == "Z"


def test_wrt_not_integral_exits_1(capsys, monkeypatch):
    original = invariants._unknot_inverse
    monkeypatch.setattr(invariants, "_unknot_inverse",
                        lambda r, f: original(r, f) + 1)
    surgery = '{"diagram": "unknot", "framings": [1]}'
    code, out, err = run(capsys, ["wrt", "--surgery", surgery, "3"])
    assert code == 1 and not out
    assert "domain error" in err and "not integral" in err


def test_kashaev(capsys):
    code, out, _ = run(capsys, ["kashaev", "--depth", "4", "1", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot 0: 1"
    assert lines[1] == "slot 1: -q^2 + q"


def test_kashaev_large_twist_parameter(capsys):
    # omega^2000 has 2000 parts in each composition of its coefficients
    code, out, err = run(capsys, ["kashaev", "--depth", "1", "2000", "1"])
    assert code == 0 and not err
    assert out.splitlines()[0] == "slot 0: 1"


def test_trivial_element_at_large_depth_builds_no_pochhammer(
        capsys, monkeypatch):
    # the element 1 is canonical mod (q)_d as it stands, and theta0 skips
    # its zero slots: (q)_d of degree d(d+1)/2 is never built (each of
    # these ran past 30 s before)
    def fail(n):
        raise AssertionError(f"(q)_{n} built")

    monkeypatch.setattr(qhat, "pochhammer", fail)
    monkeypatch.setattr(invariants, "pochhammer",
                        lambda n: fail(n) if n else ONE)
    for argv, depth in (
            (["jm", "--surgery",
              '{"family": "borromean", "params": [0, 0, 0]}',
              "--depth", "400"], 400),
            (["kashaev", "0", "0", "--depth", "1000"], 1000)):
        code, out, err = run(capsys, argv)
        assert code == 0 and not err
        assert out.splitlines() == ["slot 0: 1",
                                    f"reduced mod (q)_{depth}: 1"]


def test_large_twist_refused_at_once(capsys, monkeypatch):
    # omega^100000 at P'_1 would run for hours; it is refused before the
    # packed pass of its row starts
    def fail(*args):
        raise AssertionError("omega^p work started")

    monkeypatch.setattr(repring, "_omega_sums", fail)
    for argv in (["kashaev", "100000", "1"],
                 ["jm", "--surgery",
                  '{"family": "borromean", "params": [100000, 1, 1]}']):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err.startswith("input error: omega^100000 at P'_1")


def test_closed_form_past_the_omega_bound_refused_before_any_slot(
        capsys, monkeypatch):
    # a closed form whose largest |p| passes the omega work bound at some
    # slot is refused before the shallower slots, or their factors, are
    # computed (each of these ran for about two minutes before)
    def fail(*args):
        raise AssertionError("slot work started")

    monkeypatch.setattr(repring, "_omega_sums", fail)
    monkeypatch.setattr(invariants, "_borromean_factor", fail)
    for argv, refused in (
            (["eval", "--surgery",
              '{"family": "borromean", "params": [1, 1, 1]}',
              "modp", "3", "400"], "omega^1 at P'_111"),
            (["jm", "--surgery",
              '{"family": "borromean", "params": [2, 1, 1]}',
              "--depth", "100"], "omega^2 at P'_79"),
            (["kashaev", "--depth", "100", "2", "1"], "omega^2 at P'_79")):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err.startswith(f"input error: {refused}: work"), err


@pytest.mark.parametrize("argv, want", [
    (["wrt", "--surgery", BORR, "0"], "r must be >= 1, got 0"),
    (["eval", "--surgery", BORR, "modp", "5", "0"], "r must be >= 1, got 0"),
    (["eval", "--surgery", BORR, "modp", "5", "-1"],
     "r must be >= 1, got -1"),
    (["eval", "--surgery", BORR, "rational", "2", "1", "0"],
     "modulus must be >= 1, got 0"),
    (["eval", "--surgery", BORR, "padic", "2", "3", "0"],
     "precision must be >= 1, got 0")],
    ids=["wrt-r", "modp-r-0", "modp-r-neg", "rational-m", "padic-e"])
def test_an_order_below_1_is_refused_in_one_wording(capsys, argv, want):
    # the order is checked before the gcd: gcd(5, 0) = 5 must not turn
    # modp 5 0 into a domain error
    assert run(capsys, argv) == (2, "", f"input error: {want}\n")


def test_non_utf8_diagram_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"\xff\xfeU(1)\nA(1)\n")
    code, out, err = run(capsys, ["jones", "--diagram", str(path), "1"])
    assert code == 2 and not out
    assert err.startswith("input error: 'utf-8' codec can't decode")


def test_non_utf8_surgery_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"diagram": "unknot", "framings": [1]}\xff')
    code, out, err = run(capsys, ["wrt", "--surgery", str(path), "2"])
    assert code == 2 and not out
    assert err.startswith("input error: 'utf-8' codec can't decode")


def test_surgery_integer_past_the_digit_limit_is_an_input_error(capsys):
    surgery = '{"diagram": "unknot", "framings": [%s]}' % ("1" * 5000)
    code, out, err = run(capsys, ["wrt", "--surgery", surgery, "2"])
    assert code == 2 and not out
    assert err.startswith("input error: Exceeds the limit")


def test_diagram_label_past_the_digit_limit_is_an_input_error(capsys,
                                                               tmp_path):
    label = "1" * 5000
    path = tmp_path / "d.txt"
    path.write_text(f"U({label})\nA({label})\n", encoding="utf-8")
    code, out, err = run(capsys, ["jones", "--diagram", str(path), "1"])
    assert code == 2 and not out
    assert err.startswith("input error: Exceeds the limit")


def test_padic_modulus_too_long_to_print(capsys):
    # 3^100000 has 47,713 digits, beyond int's default conversion limit
    code, out, err = run(capsys, ["eval", "--surgery", BORR,
                                  "padic", "2", "3", "100000"])
    assert code == 1 and not out
    assert "domain error" in err and "3^100000" in err


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
    assert code == 2 and err == "input error: depth must be >= 1, got 0\n"
    code, _, err = run(capsys, ["jones", "1"])
    assert code == 2 and "input error: no diagram given" in err
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
                 ["taylor", "--surgery", BORR, "1", "0"],
                 ["taylor", "--surgery", BORR, "0", "2"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and "input error" in err and not out
    for surgery in ('{"diagram": "unknot", "framings": [1.0]}',
                    '{"diagram": "unknot", "framings": 1}',
                    '{"diagram": 5, "framings": [1]}',
                    '{"diagram": "unknot", "framings": [true]}',
                    '{"family": "borromean", "params": [1.7, 1, 1]}',
                    '{"family": "borromean", "params": [true, 1, 1]}'):
        code, out, err = run(capsys, ["wrt", "--surgery", surgery, "2"])
        assert code == 2 and "input error" in err and not out
        assert "Traceback" not in err
    # a key of neither form, or of the other form, is named and refused
    for surgery, key in (
            ('{"diagram": "unknot", "framings": [1], "params": [2]}',
             "params"),
            ('{"family": "borromean", "params": [1, 1, 1], '
             '"diagram": "hopf"}', "diagram"),
            ('{"diagrm": "unknot", "framings": [1]}', "diagrm")):
        code, out, err = run(capsys, ["wrt", "--surgery", surgery, "2"])
        assert code == 2 and not out
        assert f'input error: unexpected key "{key}"' in err
    for surgery in ('[1]', '"x"', '1'):        # JSON naming no file
        code, out, err = run(capsys, ["wrt", "--surgery", surgery, "2"])
        assert code == 2 and not out and "Traceback" not in err
        assert "a surgery presentation is a JSON object" in err


def test_check_exit_code_follows_the_criteria(capsys, monkeypatch):
    monkeypatch.setattr(accept, "CRITERIA", [lambda: (True, "holds"),
                                            lambda: (False, "fails")])
    code, out, _ = run(capsys, ["check"])
    assert code == 1
    assert out.splitlines() == ["PASS criterion 1: holds",
                                "FAIL criterion 2: fails"]
    monkeypatch.setattr(accept, "CRITERIA", [lambda: (True, "holds")])
    assert run(capsys, ["check", "spec-accept"])[0] == 0


def test_counts_checked_before_the_surgery_sum(capsys, monkeypatch):
    def fail(pres, depth):
        raise AssertionError("surgery sum started")

    monkeypatch.setattr(cli, "jm_from_surgery", fail)
    surgery = '{"diagram": "borromean", "framings": [-1, -1, -1]}'
    for argv in (["ohtsuki", "--surgery", surgery, "0"],
                 ["taylor", "--surgery", surgery, "1", "0"],
                 ["taylor", "--surgery", surgery, "0", "2"],
                 ["eval", "--surgery", surgery, "root", "0"],
                 ["eval", "--surgery", surgery, "rational", "2", "1", "0"],
                 ["eval", "--surgery", surgery, "padic", "2", "4", "3"],
                 ["eval", "--surgery", surgery, "padic", "2", "3", "0"],
                 ["eval", "--surgery", surgery, "modp", "4", "3"],
                 ["eval", "--surgery", surgery, "modp", "5", "-3"],
                 ["eval", "--surgery", surgery, "modp-scan", "4", "5"],
                 ["eval", "--surgery", surgery, "modp-scan", "0", "2"],
                 ["eval", "--surgery", surgery, "modp-scan", "1", "5"],
                 ["eval", "--surgery", surgery, "modp-scan", "7", "0"],
                 ["eval", "--surgery", surgery, "modp-scan", "7", "-2"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and "input error" in err and not out
    for argv in (["eval", "--surgery", surgery, "rational", "2", "1", "4"],
                 ["eval", "--surgery", surgery, "padic", "3", "3", "2"],
                 ["eval", "--surgery", surgery, "modp", "5", "10"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and "domain error" in err and not out


def test_taylor_depth_is_what_it_reads(capsys, monkeypatch):
    # ohtsuki and taylor read r*count terms, whatever --depth says
    depths = []

    def record(pres, depth):
        depths.append(depth)
        return jm_borromean(*pres.params, depth)

    monkeypatch.setattr(cli, "jm_from_surgery", record)
    for argv, depth in ((["ohtsuki", "--surgery", BORR, "3"], 3),
                        (["ohtsuki", "--depth", "2", "--surgery", BORR,
                          "4"], 4),
                        (["taylor", "--surgery", BORR, "3", "2"], 6),
                        (["taylor", "--depth", "20", "--surgery", BORR,
                          "2", "3"], 6)):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out and depths[-1] == depth


def test_eval_depth_is_what_it_reads(capsys, monkeypatch):
    # root and modp read r terms and modp-scan rmax, whatever --depth says;
    # at a point s mod m the value reads up to the first n with
    # (s)_n = 0 mod m, and --depth only caps n
    depths = []

    def record(pres, depth):
        depths.append(depth)
        return jm_borromean(*pres.params, depth)

    monkeypatch.setattr(cli, "jm_from_surgery", record)
    for params, depth in ((["root", "5"], 5),
                          (["rational", "3", "1", "7"], 6),
                          (["padic", "5", "2", "5"], 2),
                          (["modp-scan", "5", "6"], 6),
                          (["modp", "7", "3"], 3),
                          (["rational", "2", "1", "1"], 1)):    # n = 0
        for extra in ([], ["--depth", "8"], ["--depth", "6"]):
            code, out, _ = run(capsys, ["eval", *extra, "--surgery", BORR,
                                        *params])
            assert code == 0 and out and depths[-1] == depth


def test_truncation_past_depth_refused_before_the_surgery_sum(
        capsys, monkeypatch):
    def fail(pres, depth):
        raise AssertionError("surgery sum started")

    monkeypatch.setattr(cli, "jm_from_surgery", fail)
    for params, message in (
            (["rational", "3", "1", "7"],
             "(q)_n at q = 3/1 mod 7 does not vanish within depth 5"),
            (["padic", "3", "2", "6"],
             "(q)_n at q = 3 mod 2^6 does not vanish within depth 3")):
        depth = message.split()[-1]
        code, out, err = run(capsys, ["eval", "--depth", depth, "--surgery",
                                      BORR, *params])
        assert (code, out, err) == (1, "", f"domain error: {message}\n")


def _value_at(x, s, m):
    """sum_n c_n (s)_n mod m over every term of x, by the q-polynomial of
    the whole element: no truncation index involved."""
    lo, run_ = x.expand(x.depth)
    return sum(c * pow(s, lo + i, m) for i, c in enumerate(run_)) % m


_eval_cases = st.one_of(
    st.tuples(st.just("root"), st.tuples(st.integers(1, 9))),
    st.tuples(st.just("modp"), st.tuples(st.sampled_from([2, 3, 7]),
                                         st.integers(1, 9))),
    st.tuples(st.just("modp-scan"), st.tuples(st.sampled_from([2, 3, 7]),
                                              st.integers(1, 9))),
    st.tuples(st.just("rational"),
              st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3]),
                        st.sampled_from([1, 5, 7, 11]))),
    st.tuples(st.just("padic"),
              st.tuples(st.integers(-6, 6), st.sampled_from([2, 3]),
                        st.integers(1, 3))))


def _root_line(x, r, p):
    """The coefficient list that eval prints for x at an r-th root, mod p
    when p > 0."""
    val = eval_root(x, r)
    coeffs = [val] if r == 1 else list(val.coeffs)
    return [c % p for c in coeffs] if p else coeffs


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(-2, 2), min_size=3, max_size=3), _eval_cases)
@example([1, -1, 1], ("root", (5,)))
@example([-1, 2, 1], ("modp", (7, 5)))
@example([2, -2, 1], ("modp-scan", (3, 8)))
@example([-1, 2, 1], ("rational", (3, 1, 7)))
@example([-2, -1, 1], ("padic", (5, 2, 5)))
def test_eval_matches_a_deeper_element(params, case):
    # every mode prints the value of J_M built at depth 12, read without
    # the truncation the command computes; at a root with +-1 parameters,
    # also the WRT value of the diagram form
    mode, values = case
    x = jm_borromean(*params, 12)
    surgery = json.dumps({"family": "borromean", "params": params})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--depth", "12", "--surgery", surgery, mode,
                         "--", *map(str, values)])
    lines = out.getvalue().splitlines()
    if mode in ("rational", "padic"):
        s, b, m = values if mode == "rational" else \
            (values[0], 1, values[1] ** values[2])
        if math.gcd(m, s * b) != 1:
            assert code == 1 and not lines
            return
        assert code == 0, err.getvalue()
        assert int(lines[0].split()[0]) == \
            _value_at(x, s * pow(b, -1, m) % m, m)
    elif mode == "root":
        r = values[0]
        assert code == 0, err.getvalue()
        want = _root_line(x, r, 0)
        assert lines == [str(want[0]) if r == 1 else
                         cli._modpoly_str(eval_root(x, r))]
        if 1 < r <= 6 and set(params) <= {1, -1}:
            pres = invariants.borromean_presentation([-i for i in params])
            assert list(invariants.wrt(pres, r).coeffs) == want
    elif mode == "modp":
        p, r = values
        if r % p == 0:
            assert code == 1 and not lines
            return
        assert code == 0, err.getvalue()
        assert lines[0].split(" with modulus")[0] == str(_root_line(x, r, p))
    else:
        p, rmax = values
        assert code == 0, err.getvalue()
        assert [[int(c) for c in line.split(",")[3].split(";")]
                for line in lines[1:]] == \
            [_root_line(x, r, p) for r in range(1, rmax + 1) if r % p]


def test_upward_crossing_refused_before_any_contraction(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("contraction started")

    monkeypatch.setattr(tangles, "colored_jones", fail)
    monkeypatch.setattr(tangles, "_contract", fail)
    # two upward crossings of opposite signs: a 0-framed split link if
    # they were read at all
    diagram = ("U(1)\n|1_ U(2) |1^\n|1_ |2_ X+(2,1)\n|1_ |2_ X-(1,2)\n"
               "|1_ A(2) |1^\nA(1)\n")
    surgery = json.dumps({"diagram": diagram, "framings": [1, 1]})
    code, out, err = run(capsys, ["jm", "--surgery", surgery])
    assert code == 1 and not out
    assert "domain error" in err and "downward" in err


def test_readme_commands_exit_0(capsys, tmp_path):
    # every uwrt line of the README's command-line block, with its
    # placeholder files filled in
    surgery, knot = tmp_path / "s.json", tmp_path / "my_knot.txt"
    surgery.write_text(BORR)
    knot.write_text(TREFOIL)
    files = {"s.json": str(surgery), "my_knot.txt": str(knot)}
    block = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("uwrt ")]
    assert len(commands) == 14
    for argv in commands:
        code, out, err = run(capsys, [files.get(a, a) for a in argv[1:]])
        assert code == 0 and out, (argv, err)


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


def test_jones_takes_one_of_builtin_and_diagram(capsys, tmp_path):
    path = tmp_path / "unknot.txt"
    path.write_text("U(1)\nA(1)\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["jones", "--builtin", "trefoil", "--diagram", str(path),
                  "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert "argument --diagram: not allowed with argument --builtin" in err
    code, out, err = run(capsys, ["jones", "1"])
    assert code == 2 and not out
    assert err == "input error: no diagram given; use --builtin or --diagram\n"


# What argparse printed, recorded with CPython 3.11 when main still built
# every subcommand: building one must not change a byte of it.
_USAGE = ("usage: uwrt [-h] {jones,jm,eval,ohtsuki,taylor,wrt,kashaev,check}"
          " ...\n")
_CHOICES = ("(choose from 'jones', 'jm', 'eval', 'ohtsuki', 'taylor', "
            "'wrt', 'kashaev', 'check')\n")
_DEPTH_HELP = ("  --depth DEPTH         truncation depth (default 10); caps "
               "eval rational and\n"
               "                        padic, unused by eval root, modp, "
               "modp-scan, jones,\n"
               "                        wrt, ohtsuki and taylor\n")
_RECORDED = {
    "": ("", _USAGE + "uwrt: error: the following arguments are required: "
         "command\n", 2),
    "-h": (_USAGE + "\n"
           "Exact quantum invariants of links and integral homology spheres\n"
           "\n"
           "positional arguments:\n"
           "  {jones,jm,eval,ohtsuki,taylor,wrt,kashaev,check}\n"
           "    jones               colored Jones value of a diagram\n"
           "    jm                  unified invariant from a presentation\n"
           "    eval                specialize the unified invariant\n"
           "    ohtsuki             Taylor coefficients at q = 1\n"
           "    taylor              expansion at a root of unity\n"
           "    wrt                 WRT invariant at a primitive r-th root\n"
           "    kashaev             unified Kashaev invariant of the knot "
           "K_(i,j)\n"
           "    check               run a verification suite\n"
           "\n"
           "options:\n"
           "  -h, --help            show this help message and exit\n",
           "", 0),
    "bogus": ("", _USAGE + "uwrt: error: argument command: invalid choice: "
              "'bogus' " + _CHOICES, 2),
    "jm --bogus": ("", _USAGE + "uwrt: error: unrecognized arguments: "
                   "--bogus\n", 2),
    "jm -h": ("usage: uwrt jm [-h] [--depth DEPTH] [--format {human,json}]\n"
              "               [--surgery SURGERY]\n"
              "\n"
              "options:\n"
              "  -h, --help            show this help message and exit\n"
              + _DEPTH_HELP +
              "  --format {human,json}\n"
              "  --surgery SURGERY     surgery presentation JSON (file or "
              "inline)\n", "", 0),
    "check --depth 3": ("", _USAGE + "uwrt: error: unrecognized arguments: "
                        "--depth\n", 2),
    "--depth 3 jm": ("", _USAGE + "uwrt: error: argument command: invalid "
                     "choice: '3' " + _CHOICES, 2),
    "jone --builtin unknot 1": ("", _USAGE + "uwrt: error: argument command: "
                                "invalid choice: 'jone' " + _CHOICES, 2),
}


@pytest.mark.parametrize("line", list(_RECORDED))
def test_help_and_error_paths_keep_their_bytes(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")      # argparse wraps help to it
    with pytest.raises(SystemExit) as exc:
        cli.main(line.split())
    out, err = capsys.readouterr()
    assert (out, err, exc.value.code) == _RECORDED[line]


_NAMES = ["jones", "jm", "eval", "ohtsuki", "taylor", "wrt", "kashaev",
          "check"]


@pytest.mark.parametrize("line, built", [
    *[(f"{name} -h", 1) for name in _NAMES],
    ("jones --builtin unknot 1", 1),
    ("-h", 8), ("bogus", 8), ("", 8), ("--depth 3 jm", 8),
    (None, 8),                                  # build_parser() itself
])
def test_main_builds_only_the_subparser_it_runs(capsys, monkeypatch, line,
                                                built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **options):
        names.append(name)
        return add_parser(self, name, **options)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    if line is None:
        cli.build_parser()
    else:
        with contextlib.suppress(SystemExit):
            cli.main(line.split())
    capsys.readouterr()
    assert names == (_NAMES if built == 8 else line.split()[:1])


def test_readme_names_every_command():
    # the README shows a `uwrt <name>` line for every row of the table
    text = README.read_text(encoding="utf-8")
    assert set(re.findall(r"^uwrt ([a-z]\S*)", text, re.M)) == set(
        cli.COMMANDS)


# -- fuzzing over the documented grammar --------------------------------------
#
# Mostly well-formed; some draws carry a fault: a zero depth, a wrong
# parameter count, a bad mode parameter or a malformed presentation.

_small = st.integers(min_value=-3, max_value=4)
_params = st.lists(st.integers(min_value=-2, max_value=2), min_size=3,
                   max_size=3)
_surgery = st.one_of(
    st.builds(lambda ps: {"family": "borromean", "params": ps}, _params),
    st.builds(lambda ps: {"family": "borromean", "params": ps}, _params),
    st.builds(lambda d, fs: {"diagram": d, "framings": fs},
              st.sampled_from(["unknot", "unknot+1", "unknot-1", "hopf",
                               "trefoil", "figure8", "borromean"]),
              st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3)),
    st.sampled_from([{"family": "borromean", "params": [1, 1]},
                     {"family": "borromean", "params": [1.5, 1, 1]},
                     {"diagram": "unknot", "framings": [True]},
                     {"diagram": "nowhere", "framings": [1]},
                     {"diagram": "unknot", "framings": [2]},
                     {"diagram": "unknot", "framings": [1], "params": [2]},
                     {"family": "borromean", "params": [1, 1, 1],
                      "diagram": "hopf"},
                     {"diagrm": "unknot", "framings": [1]}, [1], 3]))
_counts = {"jm": 0, "ohtsuki": 1, "wrt": 1, "taylor": 2, "kashaev": 2,
           "root": 1, "rational": 3, "padic": 3, "modp": 2, "modp-scan": 2}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["jm", "eval", "ohtsuki", "taylor", "wrt",
                                    "kashaev", "jones"]))
    depth = draw(st.sampled_from([1, 2, 3, 3, 0]))
    argv = [command, "--format", draw(st.sampled_from(["human", "json"])),
            "--depth", str(depth)]
    surgery = None
    if command == "jones":
        argv += ["--builtin", draw(st.sampled_from(["unknot", "hopf"]))]
    elif command != "kashaev":
        surgery = draw(_surgery)
        argv += ["--surgery", json.dumps(surgery)]
    positional = []
    if command == "eval":
        positional.append(draw(st.sampled_from(["root", "rational", "padic",
                                                "modp", "modp-scan"])))
    n = _counts.get(positional[0] if positional else command)
    if n is None:                           # jones: one colour per component
        n = 1 if argv[-1] == "unknot" else 2
    n = draw(st.sampled_from([n, n, n, n + 1]))
    values = draw(st.lists(_small, min_size=n, max_size=n))
    if command in ("ohtsuki", "taylor", "wrt"):
        values = [min(v, 3) for v in values]    # keep r * count small
    if (isinstance(surgery, dict) and
            surgery.get("diagram") in ("unknot-1", "trefoil", "figure8",
                                       "borromean")):
        # the new diagrams are contracted at depth <= 3, whatever the command
        values = [min(v, 3) for v in values]
        if command == "taylor":
            values[1:] = [min(v, 1) for v in values[1:]]
    positional += [str(v) for v in values]
    return argv + (["--"] + positional if positional else [])


@settings(deadline=None, max_examples=60)
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:            # argparse rejections
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue())
