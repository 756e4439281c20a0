import contextlib
import io
import itertools
import json
import re
import sys

import pytest

import sccheck.checker
import sccheck.cli
from sccheck import load_system, save_system
from sccheck.cli import run

from conftest import PENDULUM_DOC


@pytest.fixture()
def pendulum_file(tmp_path):
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(PENDULUM_DOC))
    return path


@pytest.fixture()
def sigma_files(tmp_path, sigma1, sigma2):
    p1 = tmp_path / "sigma1.json"
    p2 = tmp_path / "sigma2.json"
    save_system(sigma1, p1)
    save_system(sigma2, p2)
    return p1, p2


@pytest.fixture()
def duplicated_file(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "name": "dup",
        "parameters": ["z1"],
        "A": [["z1", "0"], ["0", "z1"]],
        "B": [["1"], ["0"]],
    }))
    return path


def test_check_pendulum_all_methods(pendulum_file, capsys):
    rc = run(["check", str(pendulum_file), "--method", "all",
              "--partition", "1,2;3,4;5,6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pbh] CONTROLLABLE" in out
    assert "[kalman] CONTROLLABLE" in out
    assert "[matroid] CERTIFIED" in out
    assert "{a4, a5}" in out and "{a6, a7}" in out and "{a2, a3}" in out


def test_check_not_controllable_shows_gcd(duplicated_file, capsys):
    rc = run(["check", str(duplicated_file), "--method", "pbh"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NOT_CONTROLLABLE" in out
    # canonical graded-lex rendering puts the parameter term first
    assert "-z1 + s" in out


def test_check_zero_input_matroid_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "noinput.json"
    path.write_text(json.dumps({
        "name": "noinput",
        "parameters": ["z1"],
        "A": [["z1"]],
        "B": [["0"]],
    }))
    rc = run(["check", str(path), "--method", "matroid"])
    assert rc == 2
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_check_json_report_round_trips(pendulum_file, capsys):
    rc = run(["check", str(pendulum_file), "--method", "all",
              "--partition", "1,2;3,4;5,6", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == report["status"] == 0
    assert report["system"] == "pendulum"
    assert report["n"] == 6 and report["m"] == 1
    methods = {r["method"]: r for r in report["results"]}
    assert methods["pbh"]["status"] == "CONTROLLABLE"
    assert methods["pbh"]["gcd"] == "1"
    assert methods["kalman"]["status"] == "CONTROLLABLE"
    assert methods["matroid"]["status"] == "CERTIFIED"
    cert = methods["matroid"]["certificate"]
    assert [b["base"] for b in cert["blocks"]] == [["a4", "a5"], ["a6", "a7"], ["a2", "a3"]]
    for result in report["results"]:
        assert result["evidence"]


def test_check_output_is_deterministic(pendulum_file, capsys):
    run(["check", str(pendulum_file), "--json"])
    first = capsys.readouterr().out
    run(["check", str(pendulum_file), "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_check_rejects_missing_file(tmp_path, capsys):
    rc = run(["check", str(tmp_path / "nope.json")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_check_rejects_bad_expression_with_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        "parameters": ["z1"],
        "A": [["z1 + bogus"]],
        "B": [["1"]],
    }))
    rc = run(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "bogus" in err
    assert "A[1][1]" in err


def test_check_rejects_bad_partition(pendulum_file, capsys):
    rc = run(["check", str(pendulum_file), "--partition", "1,2"])
    assert rc == 3


def test_usage_errors_exit_3(capsys):
    assert run(["check"]) == 3
    assert run(["frobnicate"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--max-bases", "--max-columns"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_caps_below_one_are_input_errors(pendulum_file, flag, value, capsys):
    rc = run(["check", str(pendulum_file), "--method", "matroid", flag, value])
    assert rc == 3
    assert flag in capsys.readouterr().err


def test_matroid_route_honours_max_columns(pendulum_file, capsys):
    rc = run(["check", str(pendulum_file), "--partition", "1,2;3,4;5,6",
              "--method", "matroid", "--max-columns", "3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "[matroid] INCONCLUSIVE" in out
    assert "capped at 3" in out


def test_check_computes_the_minor_gcd_once(pendulum_file, monkeypatch, capsys):
    calls = []
    original = sccheck.checker.minors_gcd_in_s

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sccheck.checker, "minors_gcd_in_s", counted)
    assert run(["check", str(pendulum_file), "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_compose_matches_direct_composite(sigma_files, tmp_path, example1, capsys):
    p1, p2 = sigma_files
    out_path = tmp_path / "composite.json"
    rc = run(["compose", str(p1), str(p2), "-o", str(out_path)])
    assert rc == 0
    composite = load_system(out_path)
    assert composite.n == 5 and composite.m == 2
    assert composite.pencil() == example1.pencil()
    capsys.readouterr()


def test_compose_single_file_round_trips(sigma_files, tmp_path, sigma1, capsys):
    p1, _ = sigma_files
    out_path = tmp_path / "same.json"
    assert run(["compose", str(p1), "-o", str(out_path)]) == 0
    reloaded = load_system(out_path)
    assert reloaded.A == sigma1.A
    assert reloaded.B == sigma1.B
    assert reloaded.name == sigma1.name
    capsys.readouterr()


def test_compose_rejects_input_mismatch(sigma_files, tmp_path, capsys):
    p1, _ = sigma_files
    single = tmp_path / "single.json"
    single.write_text(json.dumps({
        "name": "single",
        "parameters": ["z1", "z2", "z3"],
        "A": [["z1"]],
        "B": [["1"]],
    }))
    rc = run(["compose", str(p1), str(single), "-o", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "m = 2" in err and "m = 1" in err


def test_verify_exported_certificate(pendulum_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    rc = run(["check", str(pendulum_file), "--method", "matroid",
              "--partition", "1,2;3,4;5,6", "--cert-out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    rc = run(["verify", str(pendulum_file), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certificate verified" in out
    assert "witness" in out


def test_verify_rejects_printed_bench_certificate(sigma_files, tmp_path, capsys):
    p1, p2 = sigma_files
    composite_path = tmp_path / "composite.json"
    run(["compose", str(p1), str(p2), "-o", str(composite_path)])
    capsys.readouterr()
    cert_path = tmp_path / "printed.json"
    cert_path.write_text(json.dumps({
        "system": "sigma1+sigma2",
        "blocks": [
            {"rows": [1, 2], "base": ["a2", "a6"], "witness": "-z3"},
            {"rows": [3, 4, 5], "base": ["a3", "a5", "a7"], "witness": "-s^2 + s"},
        ],
    }))
    rc = run(["verify", str(composite_path), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "-s^2 + s" in out
    assert "FAILED" in out
    assert "not free of" in out or "unimodular" in out


def test_verify_pins_base_size_mismatch_lines(sigma_files, tmp_path, capsys):
    p1, _ = sigma_files
    cert_path = tmp_path / "short.json"
    cert_path.write_text(json.dumps({
        "system": "sigma1",
        "blocks": [{"rows": [1, 2], "base": ["a3"], "witness": "1"}],
    }))
    rc = run(["verify", str(p1), str(cert_path)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "block rows 1,2: base {a3}, witness 1",
        "FAILED: base sizes sum to 1, expected n = 2",
        "FAILED: block 1: base of size 1 does not select a square submatrix of the 2-row block",
    ]


def test_verify_checks_the_certificate_system_name(pendulum_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["check", str(pendulum_file), "--method", "matroid",
                "--partition", "1,2;3,4;5,6", "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    doc = json.loads(cert_path.read_text())
    assert doc["system"] == "pendulum"
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**doc, "system": "other"}))
    assert run(["verify", str(pendulum_file), str(other)]) == 3
    assert "'other'" in capsys.readouterr().err
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps({"blocks": doc["blocks"]}))
    assert run(["verify", str(pendulum_file), str(unnamed)]) == 0
    assert "certificate verified" in capsys.readouterr().out


def test_verify_rejects_boolean_rows(tmp_path, capsys):
    system = tmp_path / "one.json"
    system.write_text(json.dumps({"name": "one", "parameters": ["z1"],
                                  "A": [["z1"]], "B": [["1"]]}))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "blocks": [{"rows": [True], "base": ["a2"], "witness": "1"}],
    }))
    assert run(["verify", str(system), str(cert_path)]) == 3
    assert "1-based integers" in capsys.readouterr().err


def test_verify_rejects_overlapping_labels(pendulum_file, tmp_path, capsys):
    cert_path = tmp_path / "overlap.json"
    cert_path.write_text(json.dumps({
        "blocks": [
            {"rows": [1, 2], "base": ["a4", "a5"], "witness": "1"},
            {"rows": [3, 4], "base": ["a6", "a7"], "witness": "-1"},
            {"rows": [5, 6], "base": ["a4", "a3"], "witness": "0"},
        ],
    }))
    rc = run(["verify", str(pendulum_file), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not disjoint" in out


def test_verify_shape_mismatch_exits_3(pendulum_file, tmp_path, capsys):
    cert_path = tmp_path / "short.json"
    cert_path.write_text(json.dumps({
        "blocks": [
            {"rows": [1, 2], "base": ["a4", "a5"], "witness": "1"},
        ],
    }))
    rc = run(["verify", str(pendulum_file), str(cert_path)])
    assert rc == 3
    capsys.readouterr()


def test_cert_out_without_certificate_is_an_input_error(duplicated_file, tmp_path, capsys):
    # pbh says NOT_CONTROLLABLE, and a failed export does not hide it.
    rc = run(["check", str(duplicated_file), "--method", "pbh",
              "--cert-out", str(tmp_path / "cert.json")])
    assert rc == 1
    assert "no certificate" in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()


def test_cert_out_without_certificate_keeps_the_report(tmp_path, capsys):
    system = tmp_path / "swap.json"
    system.write_text(json.dumps({"name": "swap", "parameters": [],
                                  "A": [["0", "1"], ["1", "0"]], "B": [["0"], ["0"]]}))
    cert_path = tmp_path / "cert.json"
    rc = run(["check", str(system), "--cert-out", str(cert_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert [line.split(" ", 2)[:2] for line in captured.out.splitlines()[1:4]] == [
        ["[pbh]", "NOT_CONTROLLABLE"],
        ["[kalman]", "NOT_CONTROLLABLE"],
        ["[matroid]", "INCONCLUSIVE"],
    ]
    assert captured.out.splitlines()[-1] == "exit status: 1"
    assert captured.err.startswith("error: no certificate found to export")
    assert not cert_path.exists()


def test_cert_out_without_certificate_exits_3_on_positive_verdicts(sigma_files, tmp_path,
                                                                   capsys):
    rc = run(["check", str(sigma_files[0]), "--method", "kalman", "--json",
              "--cert-out", str(tmp_path / "cert.json")])
    captured = capsys.readouterr()
    assert rc == 3
    report = json.loads(captured.out)
    assert [r["status"] for r in report["results"]] == ["CONTROLLABLE"]
    assert report["status"] == 3
    assert "no certificate" in captured.err


def test_verify_rejects_the_swap_certificate(tmp_path, capsys):
    # Every block-local clause holds, yet the system is not controllable.
    system = tmp_path / "swap.json"
    system.write_text(json.dumps({"name": "swap", "parameters": [],
                                  "A": [["0", "1"], ["1", "0"]], "B": [["0"], ["0"]]}))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"blocks": [
        {"rows": [1], "base": ["a2"], "witness": "-1"},
        {"rows": [2], "base": ["a1"], "witness": "-1"},
    ]}))
    rc = run(["verify", str(system), str(cert_path)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "block rows 1: base {a2}, witness -1",
        "block rows 2: base {a1}, witness -1",
        "FAILED: pencil minors share the s-dependent factor gcd = s^2 - 1",
    ]


def test_verify_past_the_column_cap_is_inconclusive(tmp_path, monkeypatch, capsys):
    # A 13-state cyclic shift with no input: each singleton block has a -1
    # witness, the point proof fails, and 14 pencil columns exceed the cap.
    n = 13
    A = [["1" if j == (i + 1) % n else "0" for j in range(n)] for i in range(n)]
    system = tmp_path / "cycle.json"
    system.write_text(json.dumps({"name": "cycle", "parameters": [],
                                  "A": A, "B": [["0"]] * n}))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"blocks": [
        {"rows": [i + 1], "base": [f"a{(i + 1) % n + 1}"], "witness": "-1"} for i in range(n)
    ]}))

    def no_gcd(*args, **kwargs):
        raise AssertionError("the minor gcd was computed past the column cap")

    monkeypatch.setattr(sccheck.checker, "minors_gcd_in_s", no_gcd)
    rc = run(["verify", str(system), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.splitlines()[-1].startswith("INCONCLUSIVE: ")
    assert "capped at 12" in out


def test_check_rejects_s_that_cancels(tmp_path, capsys):
    # A = s/s mentions s, so it is an input error, not a verdict.
    system = tmp_path / "ss.json"
    system.write_text(json.dumps({"name": "ss", "parameters": [],
                                  "A": [["s/s"]], "B": [["1"]]}))
    rc = run(["check", str(system), "--method", "all"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "pencil indeterminate 's'" in captured.err
    assert captured.out == ""


def test_verify_rejects_malformed_certificate_file(pendulum_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    rc = run(["verify", str(pendulum_file), str(bad)])
    assert rc == 3
    capsys.readouterr()


def test_exported_system_files_reload_exactly(tmp_path, pendulum, capsys):
    path = tmp_path / "out.json"
    save_system(pendulum, path)
    reloaded = load_system(path)
    assert reloaded.A == pendulum.A
    assert reloaded.B == pendulum.B
    assert reloaded.space == pendulum.space


def test_unwritable_cert_out_is_an_input_error(pendulum_file, tmp_path, capsys):
    target = tmp_path / "missing" / "c.json"
    rc = run(["check", str(pendulum_file), "--method", "matroid",
              "--partition", "1,2;3,4;5,6", "--cert-out", str(target)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: cannot write certificate")
    assert "Traceback" not in err


def test_unwritable_compose_output_is_an_input_error(sigma_files, tmp_path, capsys):
    p1, p2 = sigma_files
    rc = run(["compose", str(p1), str(p2), "-o", str(tmp_path / "missing" / "x.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: cannot write composite")
    assert "Traceback" not in err


def test_internal_error_has_its_own_status(pendulum_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(sccheck.cli, "kalman_check", broken)
    rc = run(["check", str(pendulum_file), "--method", "kalman"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "broken on purpose" in err
    assert "internal error" in err


NON_UTF8 = b'{"name": "caf\xe9"}'
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _int_digits_over_the_limit() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python does not limit integer string conversion")
    return limit + 1


def _entry_file(tmp_path, entry: str):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"name": "hostile", "parameters": ["z1"],
                                "A": [[entry]], "B": [["1"]]}))
    return path


def _deep_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    return path


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(NON_UTF8)
    return path


# Each case gives the argv, the file its error must name, and whether the
# error must also give a line:column inside an entry.
HOSTILE = {
    "directory-check": lambda t, pend: (["check", str(t)], t, False),
    "directory-compose": lambda t, pend: (["compose", str(t), str(pend), "-o",
                                           str(t / "x.json")], t, False),
    "non-utf8": lambda t, pend: (["check", str(_latin1_file(t))], t / "latin1.json", False),
    "deep-json-system": lambda t, pend: (["check", str(_deep_file(t))], t / "deep.json", False),
    "deep-json-certificate": lambda t, pend: (["verify", str(pend), str(_deep_file(t))],
                                              t / "deep.json", False),
    "nested-parentheses": lambda t, pend: (
        ["check", str(_entry_file(t, "(" * 400 + "z1" + ")" * 400))], t / "hostile.json", True),
    "unary-minuses": lambda t, pend: (
        ["check", str(_entry_file(t, "-" * 2000 + "z1"))], t / "hostile.json", True),
    "long-literal": lambda t, pend: (
        ["check", str(_entry_file(t, "1" * _int_digits_over_the_limit()))],
        t / "hostile.json", True),
    "long-exponent": lambda t, pend: (
        ["check", str(_entry_file(t, "z1^" + "1" * _int_digits_over_the_limit()))],
        t / "hostile.json", True),
    "power-1000": lambda t, pend: (
        ["check", str(_entry_file(t, "(z1+1)^1000"))], t / "hostile.json", True),
    "power-3000": lambda t, pend: (
        ["check", str(_entry_file(t, "(z1+1)^3000"))], t / "hostile.json", True),
}


@pytest.mark.parametrize("case", list(HOSTILE))
def test_hostile_input_is_an_input_error(case, tmp_path, pendulum_file, capsys):
    argv, named, at_entry = HOSTILE[case](tmp_path, pendulum_file)
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {named}:")
    if at_entry:
        assert re.match(rf"error: {re.escape(str(named))}:A\[1\]\[1\]:1:\d+: ", line)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


def _reported_statuses(rc, out, as_json):
    """The verdict statuses of a printed check report, or None if none was
    printed; the report's own status must be the exit status."""
    if not out:
        return None
    if as_json:
        report = json.loads(out)
        assert report["status"] == rc
        return {r["status"] for r in report["results"]}
    assert out.splitlines()[-1] == f"exit status: {rc}"
    return {m.group(1) for m in re.finditer(r"^\[\w+\] (\w+) - ", out, re.MULTILINE)}


def test_cli_contract_property(tmp_path):
    """Random files and flags through run(): the exit status contract holds."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    good = ["0", "1", "-1", "2/3", "z1", "z2", "z1 + 1", "z1*z2", "1/z1", "(z1 - z2)^2",
            "z1/(z2 + 1)", "-z2 + 3"]
    bad = ["s", "s/s", "z1*s", "bogus", "1/0", "z1/(z1 - z1)", "2z1", "(z1", "z1^-1", "",
           "²", "(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bad += ["1" * (limit + 1), "z1^" + "1" * (limit + 1)]

    @st.composite
    def system_docs(draw):
        n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        clean = draw(st.sampled_from([True, True, False]))
        entries = st.sampled_from(good if clean else good + bad)
        zero_b = clean and draw(st.sampled_from([True, False, False, False]))
        doc = {
            "name": draw(st.sampled_from(["p", "q"])),
            "parameters": ["z1", "z2"] if clean else draw(st.sampled_from(
                [[], ["z1"], ["z1", "z2"], ["z1", "z1"], ["s"], [1]])),
            "A": [[draw(entries) for _ in range(n)] for _ in range(n)],
            "B": [["0" if zero_b else draw(entries) for _ in range(m)] for _ in range(n)],
        }
        damage = "none" if clean else draw(st.sampled_from(
            ["none", "drop", "retype", "ragged", "number", "s_name"]))
        key = draw(st.sampled_from(["name", "parameters", "A", "B"]))
        if damage == "drop":
            del doc[key]
        elif damage == "retype":
            doc[key] = 7
        elif damage == "ragged":
            doc[key if key in "AB" else "A"][0].append("1")
        elif damage == "number":
            doc["B"][0][0] = 1
        elif damage == "s_name":
            doc["s"] = draw(st.sampled_from(["z1", "t", 3]))
        return doc

    certificate_docs = st.fixed_dictionaries({"blocks": st.lists(st.fixed_dictionaries({
        "rows": st.sampled_from([[1], [2], [1, 2], [2, 1], [1, 1], [3], [0], [True]]),
        "base": st.lists(st.sampled_from(["a1", "a2", "a3", "a4", "a9"]), max_size=2),
        "witness": st.sampled_from(good + bad[:6] + ["-1", "-s + z1", "s - z1"]),
    }), min_size=1, max_size=2)}, optional={"system": st.sampled_from(["p", "q"])})

    @st.composite
    def files(draw, docs):
        # Mostly a document, else one of the ways a path can fail to hold one.
        kind = draw(st.sampled_from(["doc"] * 15 + ["list", "not_json", "latin1", "deep",
                                                    "missing", "directory"]))
        return kind, draw(docs) if kind == "doc" else None

    outputs = st.sampled_from(["fresh", "directory", "missing_dir"])
    # Each flag is left out (None) about as often as one of its values is given.
    flags = st.fixed_dictionaries({
        "--method": st.sampled_from([None] * 4 + ["pbh", "kalman", "matroid", "all"]),
        "--partition": st.sampled_from([None] * 6 + ["1", "2", "1,2", "1;2", "2;1", "1,1", "x"]),
        "--json": st.sampled_from([None, True]),
        "--cert-out": st.sampled_from([None] * 3 + ["fresh"] * 4 + ["directory",
                                                                    "missing_dir"]),
        "--seed": st.sampled_from([None, "0", "7", "-3"]),
        "--max-bases": st.sampled_from([None] * 4 + ["0", "1", "2", "10000"]),
        "--max-columns": st.sampled_from([None] * 4 + ["0", "2", "12"]),
    }).map(lambda d: {k: v for k, v in d.items() if v is not None})

    @st.composite
    def commands(draw):
        name = draw(st.sampled_from(["check"] * 3 + ["verify", "compose"]))
        if name == "check":
            return name, [draw(files(system_docs()))], draw(flags)
        if name == "verify":
            return name, [draw(files(system_docs())), draw(files(certificate_docs))], None
        return name, draw(st.lists(files(system_docs()), min_size=1, max_size=3)), draw(outputs)

    counter = itertools.count()

    def write(where, kind, doc):
        path = where / f"f{next(counter)}.json"
        if kind == "doc":
            path.write_text(json.dumps(doc))
        elif kind == "list":
            path.write_text("[1, 2]")
        elif kind == "not_json":
            path.write_text("{\"name\": ")
        elif kind == "latin1":
            path.write_bytes(NON_UTF8)
        elif kind == "deep":
            path.write_text(DEEP_JSON)
        elif kind == "directory":
            path.mkdir()
        return str(path)

    def output(where, kind):
        return str({"fresh": where / "out.json", "directory": where,
                    "missing_dir": where / "missing" / "out.json"}[kind])

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(commands())
    def contract(command):
        name, file_specs, extra = command
        where = tmp_path / f"case{next(counter)}"
        where.mkdir()
        paths = [write(where, kind, doc) for kind, doc in file_specs]
        argv = [name, *paths]
        if name == "compose":
            argv += ["-o", output(where, extra)]
        elif name == "check":
            for flag, value in extra.items():
                if flag == "--cert-out":
                    value = output(where, value)
                argv += [flag] if value is True else [flag, value]
        rc, out, err = _run_captured(argv)
        assert rc in (0, 1, 2, 3), (argv, err)
        if rc == 3:
            assert "error:" in err
        if name != "check":
            return
        statuses = _reported_statuses(rc, out, "--json" in extra)
        if statuses is None:
            assert rc == 3
            return
        cert_out = extra.get("--cert-out")
        if "NOT_CONTROLLABLE" in statuses:
            expected = 1
        elif cert_out is not None and (cert_out != "fresh" or "CERTIFIED" not in statuses):
            expected = 3  # an unwritable path, or nothing to export
        else:
            expected = 0 if statuses & {"CONTROLLABLE", "CERTIFIED"} else 2
        assert rc == expected, (argv, out, err)
        written = where / "out.json"
        if cert_out == "fresh" and written.exists():
            assert "CERTIFIED" in statuses
            rc, out, err = _run_captured(["verify", paths[0], str(written)])
            assert rc == 0, (argv, out, err)

    contract()
