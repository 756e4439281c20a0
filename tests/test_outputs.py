"""The fixture systems' command-line outputs, pinned byte for byte.

Every run below goes through ``cli.run``; its exit status, stdout, stderr and
each file it writes are appended to one transcript, with the temporary
directory masked as ``<tmp>``.  The transcript must equal
``tests/data/cli_outputs.txt``.  There is no switch that rewrites that file: a
change that alters an output on purpose edits it by hand and says why.
"""

import contextlib
import io
import json
from pathlib import Path

from sccheck import save_system
from sccheck.cli import run

from conftest import PENDULUM_DOC

EXPECTED = Path(__file__).parent / "data" / "cli_outputs.txt"

# The Example-1 certificate as the paper prints it; its second witness
# mentions s, so verify rejects it.
PRINTED_EXAMPLE1_CERT = {
    "system": "sigma1+sigma2",
    "blocks": [
        {"rows": [1, 2], "base": ["a2", "a6"], "witness": "-z3"},
        {"rows": [3, 4, 5], "base": ["a3", "a5", "a7"], "witness": "-s^2 + s"},
    ],
}
SWAP_DOC = {"name": "swap", "parameters": [], "A": [["0", "1"], ["1", "0"]], "B": [["0"], ["0"]]}
# Every block clause holds, yet the swap system is not controllable.
SWAP_CERT = {"blocks": [
    {"rows": [1], "base": ["a2"], "witness": "-1"},
    {"rows": [2], "base": ["a1"], "witness": "-1"},
]}
PARTITIONS = {"pendulum": "1,2;3,4;5,6", "example1": "1,2;3,4,5"}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _transcript(tmp_path, sigma1, sigma2, bridge, unit_system, duplicated_modes):
    log = []
    mask = str(tmp_path)

    def record(*argv):
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        log.append(f"$ sccheck {' '.join(argv)}\nexit {rc}\n--- stdout\n{out.getvalue()}"
                   f"--- stderr\n{err.getvalue()}")

    def record_file(path):
        if path.exists():
            log.append(f"--- file {path}\n{path.read_text()}")
        else:
            log.append(f"--- no file {path}\n")

    systems = {"pendulum": _write_json(tmp_path / "pendulum.json", PENDULUM_DOC)}
    for sys_def in (sigma1, sigma2, bridge, unit_system, duplicated_modes):
        systems[sys_def.name] = tmp_path / f"{sys_def.name}.json"
        save_system(sys_def, systems[sys_def.name])
    systems["swap"] = _write_json(tmp_path / "swap.json", SWAP_DOC)
    systems["example1"] = tmp_path / "example1.json"
    record("compose", systems["sigma1"], systems["sigma2"], "-o", systems["example1"])
    record_file(systems["example1"])

    certs = []
    for name, path in systems.items():
        runs = [(f"{name}.cert.json", [])]
        if name in PARTITIONS:
            runs.append((f"{name}.part.cert.json", ["--partition", PARTITIONS[name]]))
        for cert_name, extra in runs:
            cert = tmp_path / cert_name
            record("check", path, "--json", "--method", "all", *extra, "--cert-out", cert)
            record_file(cert)
            if cert.exists():
                certs.append((path, cert))
        record("check", path, "--max-columns", "5")

    certs.append((systems["example1"],
                  _write_json(tmp_path / "printed.cert.json", PRINTED_EXAMPLE1_CERT)))
    certs.append((systems["swap"], _write_json(tmp_path / "swap.cert.json", SWAP_CERT)))
    for system, cert in certs:
        record("verify", system, cert)
    return "".join(log).replace(mask, "<tmp>")


def test_fixture_outputs_are_pinned(tmp_path, sigma1, sigma2, bridge, unit_system,
                                    duplicated_modes):
    got = _transcript(tmp_path, sigma1, sigma2, bridge, unit_system, duplicated_modes)
    assert got == EXPECTED.read_text(encoding="utf-8")
