import json

import pytest

import sccheck.systemfile
from sccheck import load_certificate, load_system, save_certificate
from sccheck.cli import run
from sccheck.checker import RowPartition, certificate_search
from sccheck.systemfile import SystemFileError


def _write(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "name": "demo",
    "parameters": ["z1"],
    "A": [["z1"]],
    "B": [["1"]],
}


def test_load_minimal_system(tmp_path):
    sys_def = load_system(_write(tmp_path, BASE))
    assert sys_def.name == "demo"
    assert sys_def.n == 1 and sys_def.m == 1
    assert sys_def.space.params == ("z1",)
    assert sys_def.space.s_name == "s"


def test_custom_pencil_variable_name(tmp_path):
    doc = dict(BASE, s="lam", A=[["z1"]])
    sys_def = load_system(_write(tmp_path, doc))
    assert sys_def.space.s_name == "lam"
    assert sys_def.pencil().entries[0][0].num.s_degree() == 1


@pytest.mark.parametrize("mutation,fragment", [
    ({"A": [["z1", "0"]]}, "square"),
    ({"B": [["1"], ["0"]]}, "rows"),
    ({"B": [[]]}, "positive length"),
    ({"B": [["1"], ["0", "1"]]}, "B has 2 rows"),
    ({"parameters": ["z1", "z1"]}, "duplicate"),
    ({"parameters": ["s"]}, "clashes"),
    ({"A": [[5]]}, "expression string"),
    ({"name": 7}, "name"),
])
def test_malformed_documents_are_rejected(tmp_path, mutation, fragment):
    doc = dict(BASE)
    doc.update(mutation)
    with pytest.raises(SystemFileError) as err:
        load_system(_write(tmp_path, doc))
    assert fragment in str(err.value)


def test_missing_field_is_rejected(tmp_path):
    doc = dict(BASE)
    del doc["B"]
    with pytest.raises(SystemFileError):
        load_system(_write(tmp_path, doc))


def test_invalid_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemFileError):
        load_system(path)


def test_unreadable_file_is_rejected(tmp_path, monkeypatch, capsys):
    # Tests run as root, whom chmod does not stop, so open itself is patched.
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    path = _write(tmp_path, BASE)
    monkeypatch.setattr(sccheck.systemfile, "open", denied, raising=False)
    with pytest.raises(SystemFileError) as err:
        load_system(path)
    assert str(err.value) == f"{path}: cannot read: Permission denied"
    assert run(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: cannot read: Permission denied"]


def test_s_in_matrix_entries_is_rejected(tmp_path):
    # An entry that mentions s is rejected even when it reduces to an s-free value.
    for entry in ("s", "s/s", "z1*s/s"):
        doc = dict(BASE, A=[[entry]])
        with pytest.raises(SystemFileError, match="pencil indeterminate 's'"):
            load_system(_write(tmp_path, doc))


def test_certificate_save_load_round_trip(tmp_path, example1):
    v = certificate_search(example1, RowPartition.from_spec("1,2;3,4,5", 5))
    path = tmp_path / "cert.json"
    save_certificate(v.certificate, path, example1.name)
    reloaded = load_certificate(path, example1.space)
    assert reloaded.partition == v.certificate.partition
    assert tuple(b.labels for b in reloaded.bases) == tuple(
        b.labels for b in v.certificate.bases
    )
    for got, want in zip(reloaded.bases, v.certificate.bases):
        assert got.witness == want.witness


def test_certificate_with_bad_rows_is_rejected(tmp_path, example1):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "blocks": [{"rows": [0], "base": ["a1"], "witness": "1"}],
    }))
    with pytest.raises(SystemFileError):
        load_certificate(path, example1.space)


def test_certificate_with_overlapping_rows_is_rejected(tmp_path, example1):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "blocks": [
            {"rows": [1, 2], "base": ["a1", "a2"], "witness": "1"},
            {"rows": [2, 3], "base": ["a3", "a4"], "witness": "1"},
        ],
    }))
    with pytest.raises(SystemFileError):
        load_certificate(path, example1.space)
