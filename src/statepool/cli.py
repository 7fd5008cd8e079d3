"""Command-line entry point.

Subcommands: compat-classical, compat-quantum, pool-classical,
pool-quantum, suffstat, scenario-run, scenario-batch, randgen.

Exit codes: 0 success, 1 domain error (incompatible states, non-Hermitian
pooling product, ...) with a machine-readable {"error": ...} payload, 2
malformed input, an out-of-range argument or a usage error (an unknown
flag, ...) with a {"error": "malformed_input"} payload.  Numeric output has
17 significant digits and no timestamps, so identical runs are byte-identical.
The argument parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys


from . import io
from .compatibility import classical_compatible, quantum_compatible
from .errors import (IncompatibleAssignmentsError, InvalidParameterError, MalformedInputError,
                     StatePoolError)
from .linalg import Tolerances
from .pooling import classical_pool, minimal_sufficient_statistic, quantum_pool
from .scenario import GENERATORS, batch_report, random_instance, run_scenario


def _read_json(path: str, decode):
    """``decode`` of the JSON at ``path`` (- for stdin), each large matrix read into its
    array (``io._read``), with every outcome ``decode(json.load(...))`` would have."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # not UTF-8
        raise MalformedInputError(f"{path}: {exc}") from exc
    return io._read(text, decode, functools.partial(_parse, path))


def _parse(path: str, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # not JSON, an int beyond the digit limit
        raise MalformedInputError(f"{path}: {exc}") from exc


def _write(payload, path: str) -> None:
    _write_text(io.dumps(payload), path)


def _write_text(text: str, path: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()  # a full or closed stdout fails here, not at interpreter exit
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


def _report(payload, code: int) -> int:
    """Print an error ``payload`` to stdout and return ``code``; if stdout cannot take
    it, return 2 with stdout pointed at the null device, so the exit flush cannot fail."""
    try:
        _write(payload, "-")
        return code
    except MalformedInputError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def _write_verdict(verdict, path: str) -> int:
    _write(io.verdict_to_json(verdict), path)
    return 0 if verdict.compatible else 1


def _read_all(decode, *paths):
    return [_read_json(p, decode) for p in paths]


def _cmd_compat_classical(args) -> int:
    q1, q2 = _read_all(io.distribution_from_json, args.q1, args.q2)
    return _write_verdict(classical_compatible(q1, q2), args.output)


def _cmd_compat_quantum(args) -> int:
    s1, s2 = _read_all(io.matrix_from_json, args.s1, args.s2)
    return _write_verdict(quantum_compatible(s1, s2, Tolerances(args.rank_tol)), args.output)


def _cmd_pool_classical(args) -> int:
    prior, q1, q2 = _read_all(io.distribution_from_json, args.prior, args.q1, args.q2)
    _write(io.pooling_report_to_json.tree(classical_pool(prior, q1, q2)), args.output)
    return 0


def _cmd_pool_quantum(args) -> int:
    prior, s1, s2 = _read_all(io.matrix_from_json, args.prior, args.s1, args.s2)
    report = quantum_pool(prior, s1, s2, Tolerances(args.rank_tol, args.herm_tol))
    _write(io.pooling_report_to_json.tree(report), args.output)
    return 0


def _cmd_suffstat(args) -> int:
    stat = minimal_sufficient_statistic(_read_json(args.table, io.conditional_from_json))
    _write({"classes": [sorted(c) for c in stat.classes]}, args.output)
    return 0


def _cmd_scenario_run(args) -> int:
    def decode(obj):
        if isinstance(obj, dict):  # override before the config is built and checked
            obj |= {k: v for k in ("rank_tol", "herm_tol") if (v := getattr(args, k)) is not None}
        return io.scenario_config_from_json(obj)

    res = run_scenario(_read_json(args.config, decode))
    _write(io.scenario_result_to_json.tree(res), args.output)
    return 0


def _cmd_scenario_batch(args) -> int:
    rows = batch_report(args.dim, args.count, args.noise, args.seed, args.generator)
    _write({"seed": args.seed, "generator": args.generator, "rows": rows}, args.output)
    return 0


def _cmd_randgen(args) -> int:
    cfg = random_instance(args.dim, args.seed, args.noise)
    _write(io.scenario_config_to_json.tree(cfg), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # in this parser and its subparsers: exit 2 with JSON
        raise MalformedInputError(message)

    def _print_message(self, message, file):  # argparse drops an OSError from this write
        if file is sys.stdout:
            _write_text(message, "-")
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="statepool",
        description="Compatibility and pooling of quantum state assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *files):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--output", default="-", help="output path, - for stdout")
        for f in files:  # input paths, - for stdin
            p.add_argument(f)
        return p

    add("compat-classical", _cmd_compat_classical,
        "decide compatibility of two classical distributions", "q1", "q2")
    p = add("compat-quantum", _cmd_compat_quantum,
            "decide compatibility of two density matrices", "s1", "s2")
    p.add_argument("--rank-tol", type=float, default=Tolerances.rank_tol)
    add("pool-classical", _cmd_pool_classical, "pool two classical posteriors",
        "prior", "q1", "q2")
    p = add("pool-quantum", _cmd_pool_quantum, "pool two quantum posteriors", "prior", "s1", "s2")
    p.add_argument("--rank-tol", type=float, default=Tolerances.rank_tol)
    p.add_argument("--herm-tol", type=float, default=Tolerances.herm_tol)
    add("suffstat", _cmd_suffstat, "minimal sufficient statistic of a conditional table P(X|Y)",
        "table")
    p = add("scenario-run", _cmd_scenario_run, "run a two-agent scenario config", "config")
    p.add_argument("--rank-tol", type=float)
    p.add_argument("--herm-tol", type=float)
    p = add("scenario-batch", _cmd_scenario_batch,
            "batch compatibility/pooling statistics over generated instances")
    p.add_argument("--dim", type=int, nargs="+", default=(2,))
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--noise", type=float, nargs="+", default=(0.5,))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generator", choices=GENERATORS, default="random")
    p = add("randgen", _cmd_randgen, "generate a random scenario config")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.5)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser, and every default is immutable
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help; a usage error is MalformedInputError
        return exc.code or 0
    except InvalidParameterError as exc:  # MalformedInputError too
        return _report({"error": "malformed_input", "message": str(exc)}, 2)
    except StatePoolError as exc:
        payload = exc.payload()
        if isinstance(exc, IncompatibleAssignmentsError):
            payload["compatible"] = False
        return _report(payload, 1)


if __name__ == "__main__":
    sys.exit(main())
