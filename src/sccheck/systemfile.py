"""JSON file formats: system definitions and exported certificates.

A system file is a single JSON document::

    {
      "name": "pendulum",
      "parameters": ["z1", "z2"],
      "s": "s",                      // optional, default "s"
      "A": [["0", "1"], ["z1", "0"]],
      "B": [["0"], ["z2"]]
    }

Matrix entries are strings in the expression grammar of sccheck.expr.  A
certificate file lists the row blocks (1-based) with each base's column
labels and its determinant witness, rendered in the same grammar; the
optional ``"system"`` name, when present, must match the system checked::

    {
      "system": "pendulum",
      "blocks": [
        {"rows": [1], "base": ["a2"], "witness": "1"},
        {"rows": [2], "base": ["a3"], "witness": "z2"}
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from .checker import Certificate, RowPartition, SystemDef
from .expr import ExprSource, parse_expr, render
from .field import ParamSpace
from .linalg import SymMatrix
from .matroid import UnimodularBase

__all__ = [
    "SystemFileError",
    "load_system",
    "save_system",
    "system_to_dict",
    "load_certificate",
    "save_certificate",
    "certificate_to_dict",
]


class SystemFileError(ValueError):
    """Malformed system or certificate document."""


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SystemFileError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SystemFileError(f"{where}: field {key!r} must be a {kind.__name__}")
    return value


def _string_grid(doc: dict, key: str, where: str) -> list[list[str]]:
    grid = _require(doc, key, list, where)
    if not grid or not all(isinstance(row, list) for row in grid):
        raise SystemFileError(f"{where}: {key!r} must be a non-empty array of arrays")
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise SystemFileError(
                    f"{where}: {key}[{i + 1}][{j + 1}] must be an expression string"
                )
    return grid


def _load_json(path: str | Path, where: str) -> dict:
    """Read one JSON object; every failure to open, decode or parse the file
    is a SystemFileError, so callers treat all of them as input errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SystemFileError(f"{where}: no such file: {path}") from None
    except OSError as e:
        raise SystemFileError(f"{where}: cannot read: {e.strerror or e}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or too deep
        raise SystemFileError(f"{where}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SystemFileError(f"{where}: top-level value must be an object")
    return doc


def load_system(path: str | Path) -> SystemDef:
    where = str(path)
    doc = _load_json(path, where)
    name = _require(doc, "name", str, where)
    params = _require(doc, "parameters", list, where)
    if not all(isinstance(p, str) for p in params):
        raise SystemFileError(f"{where}: parameters must be strings")
    s_name = doc.get("s", "s")
    if not isinstance(s_name, str):
        raise SystemFileError(f"{where}: field 's' must be a string")
    try:
        space = ParamSpace(params, s_name)
    except ValueError as e:
        raise SystemFileError(f"{where}: {e}") from None
    a_grid = _string_grid(doc, "A", where)
    b_grid = _string_grid(doc, "B", where)
    n = len(a_grid)
    if any(len(row) != n for row in a_grid):
        raise SystemFileError(f"{where}: A must be square, got rows of lengths "
                              f"{[len(r) for r in a_grid]}")
    if len(b_grid) != n:
        raise SystemFileError(f"{where}: B has {len(b_grid)} rows, A is {n}x{n}")
    m = len(b_grid[0])
    if m == 0 or any(len(row) != m for row in b_grid):
        raise SystemFileError(f"{where}: B rows must all have the same positive length")
    A = SymMatrix.parse(space, a_grid, origin=f"{where}:A")
    B = SymMatrix.parse(space, b_grid, origin=f"{where}:B")
    try:
        return SystemDef(name, space, A, B)
    except ValueError as e:
        raise SystemFileError(f"{where}: {e}") from None


def system_to_dict(sys: SystemDef) -> dict:
    return {
        "name": sys.name,
        "parameters": list(sys.space.params),
        "s": sys.space.s_name,
        "A": [[render(v) for v in row] for row in sys.A.entries],
        "B": [[render(v) for v in row] for row in sys.B.entries],
    }


def save_system(sys: SystemDef, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=2)
        fh.write("\n")


def certificate_to_dict(cert: Certificate, system_name: str = "") -> dict:
    blocks = []
    for block, base in zip(cert.partition.blocks, cert.bases):
        blocks.append({
            "rows": [i + 1 for i in block],
            "base": list(base.labels),
            "witness": render(base.witness),
        })
    doc = {"blocks": blocks}
    if system_name:
        doc = {"system": system_name, "blocks": blocks}
    return doc


def save_certificate(cert: Certificate, path: str | Path, system_name: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert, system_name), fh, indent=2)
        fh.write("\n")


def load_certificate(path: str | Path, space: ParamSpace,
                     system_name: str | None = None) -> Certificate:
    """Read a certificate; with ``system_name``, one naming another system is rejected."""
    where = str(path)
    doc = _load_json(path, where)
    if system_name is not None and doc.get("system", system_name) != system_name:
        raise SystemFileError(
            f"{where}: certificate is for system {doc['system']!r}, not {system_name!r}"
        )
    blocks_doc = _require(doc, "blocks", list, where)
    if not blocks_doc:
        raise SystemFileError(f"{where}: certificate has no blocks")
    partition_blocks = []
    bases = []
    for i, blk in enumerate(blocks_doc, start=1):
        if not isinstance(blk, dict):
            raise SystemFileError(f"{where}: block {i} must be an object")
        rows = _require(blk, "rows", list, f"{where}: block {i}")
        if not all(isinstance(r, int) and not isinstance(r, bool) and r >= 1 for r in rows):
            raise SystemFileError(f"{where}: block {i}: rows must be 1-based integers")
        base = _require(blk, "base", list, f"{where}: block {i}")
        if not all(isinstance(l, str) for l in base):
            raise SystemFileError(f"{where}: block {i}: base must be a list of labels")
        witness_text = _require(blk, "witness", str, f"{where}: block {i}")
        witness = parse_expr(
            ExprSource(witness_text, origin=f"{where}: block {i} witness"), space
        )
        partition_blocks.append(tuple(r - 1 for r in rows))
        bases.append(UnimodularBase(tuple(base), witness))
    try:
        partition = RowPartition(tuple(partition_blocks))
    except ValueError as e:
        raise SystemFileError(f"{where}: {e}") from None
    return Certificate(partition, tuple(bases))
