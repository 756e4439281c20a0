"""Spans around sccheck's public functions, installed from outside.

The tracer replaces each traced function on every name it is bound to: the
defining module, every module that imported it by name (``checker`` and
``cli`` do), the package namespace and the benchmark's own modules.  Methods
are replaced in their class, under every attribute that holds them
(``Polynomial.__rmul__`` is ``__mul__``).

Every call records its count and self time: its duration minus the time
its traced children cover.  Calls outside the ``field`` layer also keep a
span (name, start, end, parent span, system id) in memory; the hottest
``field`` functions keep only counts and times, so memory stays bounded.
Spans are written out once, when the run ends.

A traced name that no longer exists raises ``TraceError`` at install time,
and ``missing_calls`` names the expected ones that were never called, so a
refactor cannot silently empty a metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter

# (metric prefix, module, attribute path, keep spans)
TARGETS = [
    ("cli.run", "sccheck.cli", "run", True),
    ("systemfile.load_system", "sccheck.systemfile", "load_system", True),
    ("systemfile.load_certificate", "sccheck.systemfile", "load_certificate", True),
    ("systemfile.save_certificate", "sccheck.systemfile", "save_certificate", True),
    ("expr.parse_expr", "sccheck.expr", "parse_expr", True),
    ("checker.pbh_check", "sccheck.checker", "pbh_check", True),
    ("checker.kalman_check", "sccheck.checker", "kalman_check", True),
    ("checker.controllability_matrix", "sccheck.checker", "controllability_matrix", True),
    ("checker.certificate_search", "sccheck.checker", "certificate_search", True),
    ("checker.composite_certificate_check", "sccheck.checker",
     "composite_certificate_check", True),
    ("checker.certificate_failures", "sccheck.checker", "certificate_failures", True),
    ("checker.compose_parallel", "sccheck.checker", "compose_parallel", True),
    ("linalg.minors_gcd_in_s", "sccheck.linalg", "minors_gcd_in_s", True),
    ("linalg.det", "sccheck.linalg", "det", True),
    ("linalg.rank", "sccheck.linalg", "rank", True),
    ("linalg.det_cofactor", "sccheck.linalg", "det_cofactor", True),
    ("linalg.matmul", "sccheck.linalg", "SymMatrix.__matmul__", True),
    ("linalg.build_pencil", "sccheck.linalg", "build_pencil", True),
    ("matroid.enumerate_unimodular_bases", "sccheck.matroid",
     "VectorMatroid.enumerate_unimodular_bases", True),
    ("field.gcd_in_s", "sccheck.field", "gcd_in_s", False),
    ("field.poly_gcd", "sccheck.field", "poly_gcd", False),
    ("field.poly_divexact", "sccheck.field", "poly_divexact", False),
    ("field.poly_mul", "sccheck.field", "Polynomial.__mul__", False),
]

MAX_SPANS = 200_000  # about 30 MB of span tuples


class TraceError(RuntimeError):
    """A traced name is gone, or an expected one was never called."""


class Tracer:
    def __init__(self):
        # A frame is [name, span id or None, child time, nearest kept span id,
        # direct-child counts or None].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.next_span_id = 0
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.child_calls: Counter = Counter()
        self.top_level_s = 0.0
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.full_enumerations = 0
        self.bases_found = 0
        self.truncated = 0
        self.system_id = ""
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        stack = self.stack
        parent_kept = None
        if stack:
            parent = stack[-1]
            parent_kept = parent[1] if parent[1] is not None else parent[3]
        span_id = None
        if keep:
            span_id = self.next_span_id
            self.next_span_id += 1
        frame = [name, span_id, 0.0, parent_kept, None]
        stack.append(frame)
        self.depth[name] += 1
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        name = frame[0]
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.depth[name] -= 1
        if not self.depth[name]:
            self.total_s[name] += dur
        if stack:
            parent = stack[-1]
            parent[2] += dur
            kids = parent[4]
            if kids is None:
                kids = parent[4] = Counter()
            kids[name] += 1
            self.child_calls[(parent[0], name)] += 1
        else:
            self.top_level_s += dur
        if frame[1] is not None:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[1], name, start, end, frame[3], self.system_id))
            else:
                self.spans_dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own work (input making, oracles)."""
        frame = self._enter(name, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, keep)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, perf_counter())
            if probe is not None:
                probe(tracer, frame, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, keep in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                self.uninstall()
                raise TraceError(f"traced name {module_name}.{path} no longer exists") from None
            wrapper = self._wrap(name, original, keep)
            if len(parts) > 1:
                holders = [owner]
            else:
                holders = [m for m in list(sys.modules.values()) if m is not None]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def missing_calls(self, expected: list[str]) -> list[str]:
        return [name for name in expected if not self.calls[name]]

    # -- results -----------------------------------------------------------------

    def metrics(self, wall_s: float, overhead_s: float, systems: int) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, _, _, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        minors = self.child_calls[("linalg.minors_gcd_in_s", "linalg.det")]
        candidates = self.child_calls[("matroid.enumerate_unimodular_bases", "linalg.det")]
        out["linalg.minors_gcd_in_s.minors"] = (minors, "count")
        out["linalg.minors_gcd_in_s.full_enumerations"] = (self.full_enumerations, "count")
        enum = "matroid.enumerate_unimodular_bases"
        out[f"{enum}.candidates"] = (candidates, "count")
        out[f"{enum}.found"] = (self.bases_found, "count")
        out[f"{enum}.useful_ratio"] = (self.bases_found / candidates if candidates else 0.0,
                                       "ratio")
        out[f"{enum}.truncated"] = (self.truncated, "count")
        out["field.gcd_in_s.max_terms"] = (self.max_terms, "terms")
        out["field.gcd_in_s.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.top_level_share"] = (self.top_level_s / wall_s if wall_s else 0.0, "ratio")
        out["trace.systems"] = (systems, "count")
        out["trace.spans_dropped"] = (self.spans_dropped, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, system in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "system": system}) + "\n")


# -- probes: counts taken from a call's arguments or result ----------------------


def _probe_gcd_in_s(tracer: Tracer, frame, args, result) -> None:
    for p in args[:2]:
        tracer.max_terms = max(tracer.max_terms, len(p.terms))
        for c in p.terms.values():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > tracer.max_coeff_bits:
                tracer.max_coeff_bits = bits


def _probe_minors(tracer: Tracer, frame, args, result) -> None:
    matrix, k = args[0], args[1]
    kids = frame[4] or {}
    if kids.get("linalg.det", 0) == comb(matrix.rows, k) * comb(matrix.cols, k):
        tracer.full_enumerations += 1


def _probe_enumerate(tracer: Tracer, frame, args, result) -> None:
    tracer.bases_found += len(result.bases)
    tracer.truncated += bool(result.truncated)


_PROBES = {
    "field.gcd_in_s": _probe_gcd_in_s,
    "linalg.minors_gcd_in_s": _probe_minors,
    "matroid.enumerate_unimodular_bases": _probe_enumerate,
}
