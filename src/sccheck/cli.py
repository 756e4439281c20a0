"""Command-line front end.

    sccheck check SYSTEM.json [--method pbh|kalman|matroid|all] [--partition SPEC]
                              [--json] [--cert-out CERT.json]
                              [--seed N] [--max-bases N] [--max-columns N]
    sccheck compose SYS1.json SYS2.json ... -o OUT.json
    sccheck verify SYSTEM.json CERT.json [--seed N]

Exit status contract (shared by all subcommands):

    0  CONTROLLABLE or CERTIFIED (verify: every block-local clause holds)
    1  NOT_CONTROLLABLE (exact tests only; certificate search never says this)
    2  INCONCLUSIVE
    3  input error (bad file, bad expression, bad flags, shape mismatch,
       unwritable output file)
    4  internal error (an unexpected exception in sccheck itself)

Output is deterministic: fixed search orders, and every verdict names the
method that produced it, so a CERTIFIED (sufficient) answer is never
conflated with CONTROLLABLE (exact).  ``--seed`` is accepted and ignored:
there is no probabilistic fast path, the exact tests decide every verdict.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import traceback

from .checker import (
    Certificate,
    RowPartition,
    Status,
    Verdict,
    certificate_failures,
    certificate_search,
    compose_parallel,
    kalman_check,
    pbh_check,
)
from .expr import ParseError, render
from .linalg import DEFAULT_MAX_COLUMNS
from .matroid import DEFAULT_MAX_BASES
from .systemfile import (
    SystemFileError,
    certificate_to_dict,
    load_certificate,
    load_system,
    save_certificate,
    save_system,
)

EXIT_POSITIVE = 0
EXIT_NOT_CONTROLLABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sccheck",
        description="Exact structural-controllability checks for systems over F(z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run controllability checks on a system file")
    check.add_argument("path", help="system definition (JSON)")
    check.add_argument("--method", choices=["pbh", "kalman", "matroid", "all"],
                       default="all", help="which check(s) to run (default: all)")
    check.add_argument("--partition", metavar="SPEC", default=None,
                       help="row partition for the matroid certificate, 1-based, "
                            "e.g. \"1,2;3,4,5\" (default: singleton rows)")
    check.add_argument("--json", action="store_true", help="emit a JSON report")
    check.add_argument("--cert-out", metavar="PATH", default=None,
                       help="write the found certificate to this file")
    check.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored; the exact tests decide every "
                            "verdict (default: 0)")
    check.add_argument("--max-bases", type=_positive_int, default=DEFAULT_MAX_BASES,
                       help=f"cap on enumerated bases per matroid "
                            f"(default: {DEFAULT_MAX_BASES})")
    check.add_argument("--max-columns", type=_positive_int, default=DEFAULT_MAX_COLUMNS,
                       help=f"cap on pencil columns for full minor enumeration "
                            f"(default: {DEFAULT_MAX_COLUMNS})")

    compose = sub.add_parser("compose", help="write the parallel composite of system files")
    compose.add_argument("paths", nargs="+", help="subsystem definitions (JSON)")
    compose.add_argument("-o", "--output", required=True, help="output system file")

    verify = sub.add_parser("verify", help="verify an exported certificate against a system")
    verify.add_argument("system", help="system definition (JSON)")
    verify.add_argument("certificate", help="certificate file (JSON)")
    verify.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored (default: 0)")
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=_sys.stderr)
    return EXIT_INPUT_ERROR


def _overall_exit(verdicts: list[Verdict]) -> int:
    statuses = {v.status for v in verdicts}
    if Status.NOT_CONTROLLABLE in statuses:
        return EXIT_NOT_CONTROLLABLE
    if Status.CONTROLLABLE in statuses or Status.CERTIFIED in statuses:
        return EXIT_POSITIVE
    return EXIT_INCONCLUSIVE


def _verdict_to_dict(v: Verdict) -> dict:
    doc = {"method": v.method, "status": v.status.value, "evidence": v.evidence}
    if v.gcd is not None:
        doc["gcd"] = str(v.gcd)
    if v.certificate is not None:
        doc["certificate"] = certificate_to_dict(v.certificate)
    return doc


def _print_certificate(cert: Certificate, indent: str = "") -> None:
    for block, base in zip(cert.partition.blocks, cert.bases):
        rows = ",".join(str(i + 1) for i in block)
        labels = ", ".join(base.labels)
        print(f"{indent}block rows {rows}: base {{{labels}}}, witness {render(base.witness)}")


def cmd_check(args) -> int:
    try:
        system = load_system(args.path)
    except (SystemFileError, ParseError) as e:
        return _fail(str(e))

    partition = None
    if args.partition is not None:
        try:
            partition = RowPartition.from_spec(args.partition, system.n)
        except ValueError as e:
            return _fail(str(e))

    methods = ["pbh", "kalman", "matroid"] if args.method == "all" else [args.method]
    verdicts: list[Verdict] = []
    for method in methods:
        if method == "pbh":
            verdicts.append(pbh_check(system, max_columns=args.max_columns))
        elif method == "kalman":
            verdicts.append(kalman_check(system))
        else:
            verdicts.append(certificate_search(system, partition, max_bases=args.max_bases,
                                               max_columns=args.max_columns))

    status = _overall_exit(verdicts)

    cert_verdict = next((v for v in verdicts if v.certificate is not None), None)
    if args.cert_out:
        if cert_verdict is None:
            return _fail("no certificate found to export (matroid search did not certify)")
        try:
            save_certificate(cert_verdict.certificate, args.cert_out, system.name)
        except OSError as e:
            return _fail(f"cannot write certificate: {e}")

    if args.json:
        report = {
            "system": system.name,
            "n": system.n,
            "m": system.m,
            "results": [_verdict_to_dict(v) for v in verdicts],
            "status": status,
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"system: {system.name} (n={system.n}, m={system.m})")
        for v in verdicts:
            print(str(v))
            if v.certificate is not None:
                _print_certificate(v.certificate, "  ")
        if args.cert_out and cert_verdict is not None:
            print(f"certificate written to {args.cert_out}")
        print(f"exit status: {status}")
    return status


def cmd_compose(args) -> int:
    try:
        subs = [load_system(p) for p in args.paths]
    except (SystemFileError, ParseError) as e:
        return _fail(str(e))
    try:
        composite = compose_parallel(subs)
    except ValueError as e:
        return _fail(str(e))
    try:
        save_system(composite, args.output)
    except OSError as e:
        return _fail(f"cannot write composite: {e}")
    print(f"wrote composite {composite.name!r} (n={composite.n}, m={composite.m}) "
          f"to {args.output}")
    return EXIT_POSITIVE


def cmd_verify(args) -> int:
    """Re-check a certificate's block-local clauses; see certificate_failures.

    Exit 0 says every clause holds, not that the system is controllable:
    the exact confirmation that check runs before CERTIFIED is not repeated.
    """
    try:
        system = load_system(args.system)
        cert = load_certificate(args.certificate, system.space, system.name)
    except (SystemFileError, ParseError) as e:
        return _fail(str(e))

    try:
        failures = certificate_failures(system, cert)
    except ValueError as e:
        return _fail(str(e))

    _print_certificate(cert)
    if not failures:
        print(f"certificate verified against {system.name!r}: "
              f"all witnesses are nonzero, s-free and disjoint")
        return EXIT_POSITIVE
    for failure in failures:
        print(f"FAILED: {failure}")
    return EXIT_NOT_CONTROLLABLE


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; fold the latter
        # into the documented input-error status.
        return EXIT_POSITIVE if e.code == 0 else EXIT_INPUT_ERROR
    commands = {"check": cmd_check, "compose": cmd_compose, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except Exception:
        # A fault in sccheck itself must not read as a verdict.
        traceback.print_exc()
        print("error: internal error; please report it with the traceback above",
              file=_sys.stderr)
        return EXIT_INTERNAL_ERROR


def main(argv: list[str] | None = None) -> None:
    _sys.exit(run(argv))


if __name__ == "__main__":
    main()
