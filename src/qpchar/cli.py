"""Command-line front end.

Two commands: ``char`` emits one character's coefficient table (csv or json,
rows sorted lexicographically by q, y1, y2 exponents, coefficients printed
as decimal strings so no reader is forced through a float); ``verify`` runs
one of the cross-method checks and exits 0 on agreement, 1 on the first
mismatch, 2 on usage errors; either exits 141 if stdout's reader has gone.

Each decision of the command line is made in one table: `METHODS` maps
each --method name to its call, `PAIRS` names the two methods that each
cross-method check compares, and `VERIFY_FLAGS` the flags other than
--check and --qmax that a check takes (every other check takes none).
Every check returns (exit code, report text), and `_run_verify` prints the
report in one place.

Argparse refuses every bad command line.  A line the parser accepts but
the command cannot run (a flag the command does not take, a --qmax outside
[0, ceiling]) is refused by `_check` through that command's own parser, so
every refusal prints the command's usage line and then
``qpchar <command>: error: <msg>`` on stderr, and `main` returns 2.  The
ceiling, `QPCHAR_QMAX_CEILING`, is read only once --qmax is known to be >= 0.
"""

import argparse
import itertools
import os
import sys

from .fermionic import ModuleSpec, character_fermionic
from .partitions import (
    _partitions_of,
    conjugate,
    diag_energy_from_charges,
    diag_energy_from_dual,
    mixed_energy_from_charges,
    mixed_energy_from_dual,
)
from .pbw_oracle import pbw_enumerated, product_side
from .qp_enum import enumerate_basis
from .series import TruncatedSeries, validate_trunc

QMAX_CEILING_DEFAULT = 20
QMAX_CEILING_ENV = "QPCHAR_QMAX_CEILING"

# each --method: a call (spec, qmax) -> series.  Each lambda looks its
# function up on this module when called, where the benchmark's tracer
# patches it; the pbw methods compute the Verma module's character
METHODS = {
    "fermionic": lambda spec, qmax: character_fermionic(spec, qmax),
    "enumerate": lambda spec, qmax: enumerate_basis(spec, qmax),
    "pbw-product": lambda spec, qmax: product_side(qmax),
    "pbw-enumerate": lambda spec, qmax: pbw_enumerated(qmax),
}
# the two methods each cross-method check compares, reported in this order
PAIRS = {
    "identity": ("pbw-product", "fermionic"),
    "basis": ("enumerate", "fermionic"),
    "pbw": ("pbw-enumerate", "pbw-product"),
}
VERIFY_CHECKS = (*PAIRS, "conjugation", "stabilize")
# the flags other than --check and --qmax that a check takes; any other takes none
VERIFY_FLAGS = {"basis": ("space", "level")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpchar",
        description="Characters of affine-G2 principal subspaces, three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("char", help="emit one character's coefficient table")
    pc.add_argument("--space", choices=("L", "N"), required=True,
                    help="L = level-k standard module (needs --level), N = generalized Verma module")
    pc.add_argument("--level", type=int, help="level k >= 1 (L only)")
    pc.add_argument("--qmax", type=int, required=True, help="q-truncation order")
    pc.add_argument("--method", choices=METHODS, default="fermionic")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.set_defaults(parser=pc)

    pv = sub.add_parser("verify", help="run a cross-method verification")
    pv.add_argument("--check", choices=VERIFY_CHECKS, required=True)
    pv.add_argument("--space", choices=("L", "N"), help="basis check only")
    pv.add_argument("--level", type=int, help="basis check with --space L")
    pv.add_argument("--qmax", type=int, required=True)
    pv.set_defaults(parser=pv)
    return parser


def _qmax_ceiling(error) -> int:
    """The --qmax ceiling; `error` refuses a bad value and does not return."""
    raw = os.environ.get(QMAX_CEILING_ENV)
    if raw is None:
        return QMAX_CEILING_DEFAULT
    try:
        ceiling = int(raw)
    except ValueError:
        error(f"{QMAX_CEILING_ENV} must be an integer, got {raw!r}")
    if ceiling < 0:
        error(f"{QMAX_CEILING_ENV} must be >= 0, got {raw!r}")
    return ceiling


def _check(ns: argparse.Namespace) -> None:
    """Refuse, through the command's parser, a line it accepts but cannot run."""
    error = ns.parser.error  # prints the usage line and the message, exits 2
    takes = VERIFY_FLAGS.get(ns.check, ()) if ns.command == "verify" else ("space", "level")
    for flag in ("space", "level"):
        if getattr(ns, flag) is not None and flag not in takes:
            error(f"--{flag} is not valid with --check {ns.check}")
    if ns.qmax < 0:
        error("--qmax must be >= 0")
    ceiling = _qmax_ceiling(error)
    if ns.qmax > ceiling:
        error(f"--qmax {ns.qmax} exceeds the ceiling {ceiling}"
              f" (raise {QMAX_CEILING_ENV} to allow more)")
    if "space" not in takes:
        return
    if ns.space is None:
        error("--space is required")
    if ns.space == "L":
        if ns.level is None:
            error("--space L requires --level")
        if ns.level < 1:
            error("--level must be >= 1")
    elif ns.level is not None:
        error("--level is only valid with --space L")
    if ns.command == "char" and ns.method.startswith("pbw") and ns.space != "N":
        error(f"--method {ns.method} is only valid with --space N")


def _write_table(series: TruncatedSeries, fmt: str) -> None:
    # every character holds its constant term 1, so no table is empty
    if fmt == "csv":
        rows = [f"{q},{y1},{y2},{c}\n" for (q, y1, y2), c in series.sorted_terms()]
        sys.stdout.write("q,y1,y2,coeff\n" + "".join(rows))
    else:
        rows = [f'  [{q}, {y1}, {y2}, "{c}"]' for (q, y1, y2), c in series.sorted_terms()]
        sys.stdout.write("[\n" + ",\n".join(rows) + "\n]\n")


def _report_compare(name_a: str, a: TruncatedSeries, name_b: str, b: TruncatedSeries,
                    label: str) -> tuple[int, str]:
    miss = a.first_mismatch(b)
    if miss is None:
        return 0, f"{label}: ok (qmax={a.trunc}, {len(a)} coefficients)"
    (q, y1, y2), ca, cb = miss
    return 1, f"{label}: MISMATCH at q^{q} y1^{y1} y2^{y2}: {name_a}={ca}, {name_b}={cb}"


def verify_conjugation(qmax: int) -> tuple[int, str]:
    """Exhaustive check of the conjugation energy identities through size qmax.

    On every partition p with |p| <= qmax: conjugation is an involution
    preserving the part sum, and the same-color energies agree across it.
    On every pair (n1, n2) with |n1| + |n2| <= qmax: the cross-color
    energies agree.  Returns (exit_code, report), the report one line that
    names the first failing input: partitions are listed by size, each size
    in the order of `partitions._partitions_of` (which reads nothing that
    is checked here), and the pairs after them, by n1 and then n2.
    Raises as `series.validate_trunc` for a qmax that is not an int >= 0.
    """
    validate_trunc(qmax)
    by_size = [list(_partitions_of(n)) for n in range(qmax + 1)]
    duals = {}  # each partition's conjugate, in listing order
    for p in itertools.chain.from_iterable(by_size):
        dual = duals[p] = conjugate(p)
        if conjugate(dual) != p or sum(dual) != sum(p):
            return 1, f"conjugation failed on {p}"
        if diag_energy_from_charges(p) != diag_energy_from_dual(dual):
            return 1, f"same-color energy mismatch on {p}"
    pairs = 0
    for size1, group1 in enumerate(by_size):
        for n1 in group1:
            for group2 in by_size[:qmax - size1 + 1]:
                for n2 in group2:
                    if mixed_energy_from_charges(n1, n2) != mixed_energy_from_dual(duals[n1], duals[n2]):
                        return 1, f"cross-color energy mismatch on {n1} / {n2}"
                pairs += len(group2)
    return 0, f"conjugation: ok (qmax={qmax}, {len(duals)} partitions, {pairs} pairs)"


def _run_verify(ns: argparse.Namespace) -> int:
    if ns.check in PAIRS:
        # only basis takes --level; level None is the Verma module
        spec = ModuleSpec(ns.level)
        a, b = PAIRS[ns.check]
        label = f"basis[{spec.describe()}]" if ns.check == "basis" else ns.check
        code, report = _report_compare(a, METHODS[a](spec, ns.qmax), b, METHODS[b](spec, ns.qmax), label)
    elif ns.check == "stabilize":
        # at qmax the caps of level max(qmax, 1) no longer bind
        level, fermionic = max(ns.qmax, 1), METHODS["fermionic"]
        code, report = _report_compare(f"level-{level}", fermionic(ModuleSpec(level), ns.qmax),
                                       "verma", fermionic(ModuleSpec(), ns.qmax), "stabilize")
    else:
        code, report = verify_conjugation(ns.qmax)
    print(report)
    return code


def main(argv=None) -> int:
    try:
        try:
            ns = _build_parser().parse_args(argv)
            _check(ns)
        except SystemExit as exc:  # argparse has printed --help or a usage error
            code = int(exc.code or 0)
        else:
            if ns.command == "char":
                # _check allows --level only with --space L, and level None is the Verma module
                _write_table(METHODS[ns.method](ModuleSpec(ns.level), ns.qmax), ns.format)
                code = 0
            else:
                code = _run_verify(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`qpchar char ... | head`): fd 1 goes to devnull so
        # the flush at exit cannot fail again; 141 = 128 + SIGPIPE, as a shell reports
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
