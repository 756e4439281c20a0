"""The benchmark's three workloads.

Each workload is a closed loop driven by one caller: it sends one system,
waits for every verdict, checks them against the oracles, then sends the
next.  Work comes in rounds of a fixed make-up; ``prepare(r)`` makes the
inputs of round r from the seed and ``run_round(r)`` checks them.  Only the
calls into sccheck are timed, one pair of clock reads per call.  The clock is
the process's CPU time: the work is single-threaded and CPU-bound, and on a
shared machine wall time also counts the time the process waits for a core.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import process_time as clock

import sccheck.cli as cli
from sccheck import (
    ParamSpace,
    SymMatrix,
    SystemDef,
    certificate_failures,
    certificate_search,
    compose_parallel,
    composite_certificate_check,
    kalman_check,
    pbh_check,
)
from sccheck.systemfile import certificate_to_dict

import inputs
from oracles import (
    OracleError,
    TextSystem,
    certificate_problems,
    check_verdicts,
    compose_text,
    kalman_rank_at,
    evaluate_grid,
)


@dataclass
class Stats:
    """What one run measured, in milliseconds per call."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    # (time to all three verdicts, system id), one per system checked
    systems_ms: list[tuple[float, str]] = field(default_factory=list)
    pbh_ms: list[float] = field(default_factory=list)
    kalman_ms: list[float] = field(default_factory=list)
    matroid_ms: list[float] = field(default_factory=list)
    verify_ms: list[float] = field(default_factory=list)

    @property
    def systems(self) -> int:
        return len(self.systems_ms)

    @property
    def system_ms(self) -> list[float]:
        return [ms for ms, _ in self.systems_ms]


def _ms(start: float, end: float) -> float:
    return (end - start) * 1000.0


class Workload:
    """Common loop plumbing; subclasses define rounds."""

    name = ""
    # Traced names this workload must call; see tracer.Tracer.missing_calls.
    expected_calls: list[str] = []

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        self.work_dir = work_dir
        self.tracer = tracer
        self.gen_rng = random.Random(f"{self.name}:{seed}:inputs")
        self.oracle_rng = random.Random(f"{self.name}:{seed}:oracle")
        self.stats = Stats()
        self.rounds: dict[int, list] = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def system_id(self, sid: str) -> None:
        if self.tracer:
            self.tracer.system_id = sid

    def operation(self, sid: str, body) -> None:
        """Run one operation; a refuted output is wrong, an exception failed."""
        self.stats.attempted += 1
        self.system_id(sid)
        try:
            body()
        except OracleError as e:
            self.stats.wrong.append(f"{sid}: {e}")
            print(f"WRONG {sid}: {e}", file=sys.stderr)
        except Exception:
            self.stats.failed += 1
            print(f"FAILED {sid}:", file=sys.stderr)
            traceback.print_exc()

    def prepare(self, r: int) -> None:
        with self.span("bench.prepare"):
            self.rounds[r] = self.make_round(r)

    def run_round(self, r: int) -> None:
        for item in self.rounds.pop(r):
            self.check_one(r, item)

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def check_one(self, r: int, item) -> None:
        raise NotImplementedError

    def record_system(self, sid: str, pbh: float, kalman: float, matroid: float,
                      total: float) -> None:
        st = self.stats
        st.systems_ms.append((total, sid))
        st.pbh_ms.append(pbh)
        st.kalman_ms.append(kalman)
        st.matroid_ms.append(matroid)


# -- library workloads --------------------------------------------------------------


def _system_def(text: TextSystem, space: ParamSpace) -> SystemDef:
    return SystemDef(text.name, space, SymMatrix.parse(space, text.a),
                     SymMatrix.parse(space, text.b))


def _blocks(cert) -> list[dict]:
    return certificate_to_dict(cert)["blocks"]


class LibraryWorkload(Workload):
    """Verdicts from the library calls, certificates re-checked by
    ``certificate_failures`` and by the oracles."""

    space = ParamSpace(inputs.RANDOM_PARAMS)

    def check_system(self, sid: str, text: TextSystem, sys_def: SystemDef,
                     matroid_call, by_construction: bool = False) -> None:
        t0 = clock()
        pbh = pbh_check(sys_def)
        t1 = clock()
        kalman = kalman_check(sys_def)
        t2 = clock()
        matroid = matroid_call()
        t3 = clock()
        self.record_system(sid, _ms(t0, t1), _ms(t1, t2), _ms(t2, t3), _ms(t0, t3))
        cert = matroid.certificate
        failures = None
        if cert is not None:
            t4 = clock()
            failures = certificate_failures(sys_def, cert)
            self.stats.verify_ms.append(_ms(t4, clock()))
        with self.span("bench.check"):
            check_verdicts(text, pbh.status.value, kalman.status.value,
                           matroid.status.value, self.oracle_rng, by_construction)
            if cert is not None:
                problems = certificate_problems(text, _blocks(cert), self.oracle_rng)
                if problems:
                    raise OracleError(f"CERTIFIED with a refuted certificate: {problems}")
                if failures:
                    raise OracleError(f"certificate_failures rejects a sound "
                                      f"certificate: {failures}")


class RandomSweep(LibraryWorkload):
    """One system of each shape n <= 3, m <= 2 per round, in seeded order."""

    name = "random_sweep"
    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
    expected_calls = [
        "expr.parse_expr", "checker.pbh_check", "checker.kalman_check",
        "checker.controllability_matrix", "checker.certificate_search",
        "checker.certificate_failures", "linalg.minors_gcd_in_s", "linalg.det",
        "linalg.rank", "linalg.det_cofactor", "linalg.matmul", "linalg.build_pencil",
        "matroid.enumerate_unimodular_bases", "field.gcd_in_s", "field.poly_gcd",
        "field.poly_divexact", "field.poly_mul",
    ]

    def make_round(self, r: int) -> list:
        shapes = list(self.shapes)
        self.gen_rng.shuffle(shapes)
        out = []
        for i, (n, m) in enumerate(shapes):
            text = inputs.random_system(self.gen_rng, n, m, f"r{r}.{i}-{n}x{m}")
            out.append((text, _system_def(text, self.space)))
        return out

    def check_one(self, r: int, item) -> None:
        text, sys_def = item
        self.operation(text.name, lambda: self.check_system(
            text.name, text, sys_def, lambda: certificate_search(sys_def)))


class Composites(LibraryWorkload):
    """Per round, one pass in seeded order over a fixed corpus of 25
    composites of seeded controllable subsystems.  The corpus is
    CORPUS_BLOCKS blocks of five: for the subsystem shapes (2,2) and (1,1,2),
    one of distinct subsystems and one that repeats its first subsystem; and
    one more repeat, of a fresh (2,2) draw.

    The repeat makes the composite uncontrollable by construction: the
    difference of the two copies evolves on its own.  Three repeated
    composites against two distinct ones keep the uncontrollable share near
    half, with no fixed edge between two equal groups for a median to sit
    on.

    The corpus comes from one fixed generator seed, and the run seed orders
    each pass and seeds the oracles.  Composite costs spread widely (pbh
    from about 30 to 360 ms), so with about 130 composites a run, a fresh
    draw per seed moved the medians by 5-8 % from seed to seed on top of
    the machine's own drift.  Each pass builds new SystemDef objects from
    the corpus text, so no object outlives its pass.
    """

    name = "composites"
    CORPUS_SEED = "composites:corpus"
    CORPUS_BLOCKS = 5
    # (subsystem shape, the composites built from one draw of it: False for
    # the distinct subsystems, True for the repeat of the first)
    groups = [((2, 2), (False, True)), ((1, 1, 2), (False, True)), ((2, 2), (True,))]
    expected_calls = [
        "expr.parse_expr", "checker.pbh_check", "checker.kalman_check",
        "checker.controllability_matrix", "checker.certificate_search",
        "checker.composite_certificate_check", "checker.compose_parallel",
        "checker.certificate_failures", "linalg.minors_gcd_in_s", "linalg.det",
        "linalg.rank", "linalg.matmul", "linalg.build_pencil",
        "matroid.enumerate_unimodular_bases", "field.gcd_in_s", "field.poly_gcd",
        "field.poly_divexact", "field.poly_mul",
    ]

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        super().__init__(seed, work_dir, tracer)
        self.corpus: list[tuple[list[TextSystem], str, bool]] = []

    def make_corpus(self) -> None:
        rng = random.Random(self.CORPUS_SEED)
        for b in range(self.CORPUS_BLOCKS):
            for j, (shape, variants) in enumerate(self.groups):
                k = len(shape)
                texts = [inputs.composite_subsystem(rng, i, n, k, f"c{b}.{j}.{i}")
                         for i, n in enumerate(shape)]
                for repeated in variants:
                    chosen = [texts[0]] + texts[:-1] if repeated else texts
                    label = f"c{b}.{j}{'-dup' if repeated else ''}"
                    self.corpus.append((chosen, label, repeated))

    def make_round(self, r: int) -> list:
        if not self.corpus:
            self.make_corpus()
        out = []
        for chosen, label, repeated in self.corpus:
            subs = [_system_def(t, self.space) for t in chosen]
            composite = compose_parallel(subs)
            out.append((compose_text(chosen, f"r{r}.{label}"), subs, composite, repeated))
        self.gen_rng.shuffle(out)
        return out

    def check_one(self, r: int, item) -> None:
        text, subs, composite, repeated = item
        self.operation(text.name, lambda: self.check_system(
            text.name, text, composite, lambda: composite_certificate_check(subs),
            by_construction=repeated))


# -- the command line, in process --------------------------------------------------


class _MethodTimer:
    """Times the checker calls that sccheck.cli makes, where cli binds them."""

    NAMES = ("pbh_check", "kalman_check", "certificate_search")

    def __init__(self):
        self.ms: dict[str, list[float]] = {n: [] for n in self.NAMES}
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        for name in self.NAMES:
            original = getattr(cli, name)
            self.originals[name] = original
            times = self.ms[name]

            def timed(*args, _fn=original, _times=times, **kwargs):
                t0 = clock()
                result = _fn(*args, **kwargs)
                _times.append(_ms(t0, clock()))
                return result

            setattr(cli, name, timed)

    def uninstall(self) -> None:
        for name, original in self.originals.items():
            setattr(cli, name, original)
        self.originals.clear()

    def take(self, name: str) -> list[float]:
        out = self.ms[name][:]
        self.ms[name].clear()
        return out


def _statuses_exit(statuses: list[str]) -> int:
    """The exit status the README's table gives for a set of verdicts."""
    if "NOT_CONTROLLABLE" in statuses:
        return 1
    if "CONTROLLABLE" in statuses or "CERTIFIED" in statuses:
        return 0
    return 2


class PaperExamples(Workload):
    """The paper's systems as files, through ``sccheck.cli.run``.

    A round checks the pendulum once and then every other system
    LIGHT_REPEATS times, in seeded order: one pendulum check takes about as
    long as all the others together, and the medians need many samples of
    the rest.  With an odd number of other systems, each median falls inside
    one system's group of samples rather than on the edge between two.

    The pendulum opens every round because the checks after it run
    measurably slower than those before it (σ1 about 17-20 ms before, 25-29
    ms after, in one process).  At a seeded place in the round, the share of
    samples taken before it moved the medians by a quarter from seed to seed.
    """

    name = "paper_examples"
    LIGHT_REPEATS = 4
    expected_calls = [
        "cli.run", "systemfile.load_system", "systemfile.load_certificate",
        "systemfile.save_certificate", "expr.parse_expr", "checker.pbh_check",
        "checker.kalman_check", "checker.controllability_matrix",
        "checker.certificate_search", "checker.certificate_failures",
        "checker.compose_parallel", "linalg.minors_gcd_in_s", "linalg.det", "linalg.rank",
        "linalg.det_cofactor", "linalg.matmul", "linalg.build_pencil",
        "matroid.enumerate_unimodular_bases", "field.gcd_in_s", "field.poly_gcd",
        "field.poly_divexact", "field.poly_mul",
    ]

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        super().__init__(seed, work_dir, tracer)
        self.timer = _MethodTimer()
        self.written = False

    def path(self, name: str) -> str:
        return str(self.work_dir / name)

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = clock()
            code = cli.run(argv)
            t1 = clock()
        return code, out.getvalue(), _ms(t0, t1)

    def write_inputs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for text in (inputs.PENDULUM, inputs.SIGMA1, inputs.SIGMA2, inputs.BRIDGE, inputs.UNIT):
            with open(self.path(f"{text.name}.json"), "w", encoding="utf-8") as fh:
                json.dump(text.to_doc(), fh)
        with open(self.path("printed.cert.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs.PRINTED_EXAMPLE1_CERT, fh)
        for parts, target in ((["sigma1", "sigma2"], "example1"), (["unit", "unit"], "dup")):
            code, text, _ = self.cli(["compose", *[self.path(f"{p}.json") for p in parts],
                                      "-o", self.path(f"{target}.json")])
            if code != 0:
                raise RuntimeError(f"sccheck compose failed ({code}): {text}")

    def make_round(self, r: int) -> list:
        if not self.written:
            self.write_inputs()
            self.written = True
        heavy = [("pendulum", inputs.PENDULUM, inputs.PENDULUM_PARTITION, True)]
        light = [
            ("sigma1", inputs.SIGMA1, None, False),
            ("sigma2", inputs.SIGMA2, None, False),
            ("example1", inputs.EXAMPLE1, inputs.EXAMPLE1_PARTITION, True),
            ("bridge", inputs.BRIDGE, None, False),
            ("dup", inputs.DUP, None, False),
        ]
        groups = [(*g, k) for g in light for k in range(self.LIGHT_REPEATS)]
        self.gen_rng.shuffle(groups)
        return [(*g, 0) for g in heavy] + groups

    def run_round(self, r: int) -> None:
        self.timer.install()
        try:
            super().run_round(r)
        finally:
            self.timer.uninstall()

    def check_one(self, r: int, item) -> None:
        file, text, partition, export, k = item
        sid = f"p{r}.{file}.{k}"
        cert_path = self.path(f"{file}.cert.json")
        self.operation(sid, lambda: self.check_file(sid, file, text, partition, export))
        if export:
            self.operation(sid + ".verify", lambda: self.verify_file(
                file, text, cert_path, expect_ok=True))
        if file == "example1":
            self.operation(f"p{r}.printed.{k}.verify", lambda: self.verify_file(
                file, text, self.path("printed.cert.json"), expect_ok=False))
        if file == "dup" and k == 0:
            self.operation(f"p{r}.dup.{k}.matroid", lambda: self.matroid_only(text))

    def check_file(self, sid: str, file: str, text: TextSystem,
                   partition: str | None, export: bool) -> None:
        argv = ["check", self.path(f"{file}.json"), "--json"]
        if partition:
            argv += ["--partition", partition]
        if export:
            argv += ["--cert-out", self.path(f"{file}.cert.json")]
        code, out, total = self.cli(argv)
        pbh, kalman, matroid = (self.timer.take(n) for n in _MethodTimer.NAMES)
        if not (len(pbh) == len(kalman) == len(matroid) == 1):
            raise RuntimeError(f"{sid}: expected one call per method, got "
                               f"{len(pbh)}/{len(kalman)}/{len(matroid)}")
        self.record_system(sid, pbh[0], kalman[0], matroid[0], total)
        with self.span("bench.check"):
            report = json.loads(out)
            statuses = {r["method"]: r["status"] for r in report["results"]}
            if code != _statuses_exit(list(statuses.values())) or report["status"] != code:
                raise OracleError(f"exit status {code} does not match verdicts {statuses}")
            check_verdicts(text, statuses["pbh"], statuses["kalman"], statuses["matroid"],
                           self.oracle_rng, uncontrollable_by_construction=(file == "dup"))
            matroid = next(r for r in report["results"] if r["method"] == "matroid")
            blocks = matroid.get("certificate", {}).get("blocks")
            if blocks is not None:
                problems = certificate_problems(text, blocks, self.oracle_rng)
                if problems:
                    raise OracleError(f"CERTIFIED with a refuted certificate: {problems}")
            self.paper_facts(file, text, statuses, blocks)

    @staticmethod
    def paper_facts(file: str, text: TextSystem, statuses: dict, blocks) -> None:
        if file == "pendulum":
            bases = [b["base"] for b in blocks or []]
            if statuses["matroid"] != "CERTIFIED" or bases != inputs.PENDULUM_BASES:
                raise OracleError(f"pendulum: expected the paper's bases "
                                  f"{inputs.PENDULUM_BASES}, got {bases}")
        elif file == "example1":
            sizes = [len(b["base"]) for b in blocks or []]
            if statuses["matroid"] != "CERTIFIED" or sizes != inputs.EXAMPLE1_BLOCK_SIZES:
                raise OracleError(f"Example 1: expected CERTIFIED with sizes 2+3, got "
                                  f"{statuses['matroid']} with {sizes}")
        elif file == "bridge":
            balanced = {p: Fraction(1) for p in text.params}
            rank = kalman_rank_at(evaluate_grid(text.a, balanced), evaluate_grid(text.b, balanced))
            if statuses["kalman"] != "CONTROLLABLE" or rank != 1:
                raise OracleError(f"bridge: expected symbolic rank 2 and balanced rank 1, "
                                  f"got {statuses['kalman']} and {rank}")
        elif file == "dup" and statuses["pbh"] != "NOT_CONTROLLABLE":
            raise OracleError("duplicated integrators: expected NOT_CONTROLLABLE")

    def verify_file(self, file: str, text: TextSystem, cert_path: str, expect_ok: bool) -> None:
        code, out, ms = self.cli(["verify", self.path(f"{file}.json"), cert_path])
        self.stats.verify_ms.append(ms)
        with self.span("bench.check"):
            with open(cert_path, encoding="utf-8") as fh:
                blocks = json.load(fh)["blocks"]
            problems = certificate_problems(text, blocks, self.oracle_rng)
            if bool(problems) == expect_ok:
                raise OracleError(f"{cert_path}: oracle problems {problems}, "
                                  f"expected {'none' if expect_ok else 'some'}")
            if code != (1 if problems else 0):
                raise OracleError(f"verify exited {code} on {cert_path}; oracle problems "
                                  f"{problems}")
            if not expect_ok and "-s^2 + s" not in out:
                raise OracleError("verify did not report the witness -s^2 + s")

    def matroid_only(self, text: TextSystem) -> None:
        code, out, ms = self.cli(["check", self.path("dup.json"), "--method", "matroid",
                                  "--json"])
        self.timer.take("certificate_search")  # an exit-status check, not a sample
        with self.span("bench.check"):
            report = json.loads(out)
            status = report["results"][0]["status"]
            if status != "INCONCLUSIVE" or code != 2:
                raise OracleError(f"duplicated integrators, matroid only: expected "
                                  f"INCONCLUSIVE with exit 2, got {status} with {code}")


WORKLOADS = {w.name: w for w in (PaperExamples, RandomSweep, Composites)}
