import json

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
