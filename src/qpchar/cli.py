"""Command-line front end.

Two commands: ``char`` emits one character's coefficient table (csv or json,
rows sorted lexicographically by q, y1, y2 exponents, coefficients printed
as decimal strings so no reader is forced through a float); ``verify`` runs
one of the cross-method checks and exits 0 on agreement, 1 on the first
mismatch, 2 on usage errors.
"""

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass

from .fermionic import ModuleSpec, character_fermionic
from .partitions import (
    DualChargeType,
    conjugate,
    diag_energy_from_charges,
    diag_energy_from_dual,
    mixed_energy_from_charges,
    mixed_energy_from_dual,
)
from .pbw_oracle import pbw_enumerated, product_side
from .qp_enum import enumerate_basis
from .series import TruncatedSeries

QMAX_CEILING_DEFAULT = 20
QMAX_CEILING_ENV = "QPCHAR_QMAX_CEILING"

CHAR_METHODS = ("fermionic", "enumerate", "pbw-product", "pbw-enumerate")
VERIFY_CHECKS = ("identity", "basis", "pbw", "conjugation", "stabilize")


@dataclass(frozen=True)
class RunConfig:
    command: str
    space: str | None = None
    level: int | None = None
    qmax: int | None = None
    method: str = "fermionic"
    check: str | None = None
    format: str = "csv"
    trials: int = 1000
    seed: int = 0


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
    pc.add_argument("--method", choices=CHAR_METHODS, default="fermionic")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")

    pv = sub.add_parser("verify", help="run a cross-method verification")
    pv.add_argument("--check", choices=VERIFY_CHECKS, required=True)
    pv.add_argument("--space", choices=("L", "N"), help="basis check only")
    pv.add_argument("--level", type=int, help="basis check with --space L")
    pv.add_argument("--qmax", type=int)
    pv.add_argument("--trials", type=int, help="conjugation check only (default 1000)")
    pv.add_argument("--seed", type=int, help="conjugation check only (default 0)")
    return parser


def _fail_usage(msg: str) -> int:
    print(f"qpchar: error: {msg}", file=sys.stderr)
    return 2


def _qmax_ceiling() -> int:
    raw = os.environ.get(QMAX_CEILING_ENV)
    if raw is None:
        return QMAX_CEILING_DEFAULT
    try:
        ceiling = int(raw)
    except ValueError:
        raise SystemExit(_fail_usage(f"{QMAX_CEILING_ENV} must be an integer, got {raw!r}"))
    if ceiling < 0:
        raise SystemExit(_fail_usage(f"{QMAX_CEILING_ENV} must be >= 0, got {raw!r}"))
    return ceiling


def _spec_for(space: str, level: int | None) -> ModuleSpec:
    return ModuleSpec.standard(level) if space == "L" else ModuleSpec.verma()


def _write_csv(series: TruncatedSeries) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("q", "y1", "y2", "coeff"))
    for key, c in series.sorted_terms():
        writer.writerow((key.q_deg, key.y1_deg, key.y2_deg, str(c)))


def _write_json(series: TruncatedSeries) -> None:
    rows = [
        [key.q_deg, key.y1_deg, key.y2_deg, str(c)]
        for key, c in series.sorted_terms()
    ]
    if not rows:
        sys.stdout.write("[]\n")
        return
    body = ",\n".join("  " + json.dumps(row) for row in rows)
    sys.stdout.write("[\n" + body + "\n]\n")


def _report_compare(name_a: str, a: TruncatedSeries, name_b: str, b: TruncatedSeries,
                    label: str) -> int:
    miss = a.first_mismatch(b)
    if miss is None:
        print(f"{label}: ok (qmax={a.trunc}, {len(a)} coefficients)")
        return 0
    (q, y1, y2), ca, cb = miss
    print(f"{label}: MISMATCH at q^{q} y1^{y1} y2^{y2}: {name_a}={ca}, {name_b}={cb}")
    return 1


def _random_partition(rng: random.Random) -> tuple[int, ...]:
    length = rng.randint(0, 12)
    return tuple(sorted((rng.randint(1, 12) for _ in range(length)), reverse=True))


def verify_conjugation(trials: int, seed: int) -> tuple[int, list[str]]:
    """Seeded randomized check of the conjugation energy identities.

    Per trial: conjugation is an involution preserving the part sum, the
    same-color energies agree across conjugation, and the cross-color
    energies agree on an independent pair.  Returns (exit_code, report).
    `trials` must be an int (not a bool) >= 1, and `seed` an int (not a
    bool) in [0, 2**64), the range the command line accepts.
    """
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise TypeError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    rng = random.Random(seed)
    for t in range(trials):
        p = _random_partition(rng)
        dual = conjugate(p)
        if conjugate(dual) != p or sum(dual) != sum(p):
            return 1, [f"trial {t}: conjugation failed on {p}"]
        if diag_energy_from_charges(p) != diag_energy_from_dual(dual):
            return 1, [f"trial {t}: same-color energy mismatch on {p}"]
        n1 = _random_partition(rng)
        n2 = _random_partition(rng)
        d = DualChargeType(conjugate(n1), conjugate(n2))
        if mixed_energy_from_charges(n1, n2) != mixed_energy_from_dual(d):
            return 1, [f"trial {t}: cross-color energy mismatch on {n1} / {n2}"]
    return 0, [f"{trials}/{trials} ok"]


def _run_char(cfg: RunConfig) -> int:
    spec = _spec_for(cfg.space, cfg.level)
    if cfg.method == "fermionic":
        series = character_fermionic(spec, cfg.qmax)
    elif cfg.method == "enumerate":
        series = enumerate_basis(spec, cfg.qmax)
    elif cfg.method == "pbw-product":
        series = product_side(cfg.qmax)
    else:
        series = pbw_enumerated(cfg.qmax)
    if cfg.format == "csv":
        _write_csv(series)
    else:
        _write_json(series)
    return 0


def _run_verify(cfg: RunConfig) -> int:
    if cfg.check == "identity":
        return _report_compare(
            "product", product_side(cfg.qmax),
            "fermionic", character_fermionic(ModuleSpec.verma(), cfg.qmax),
            "identity",
        )
    if cfg.check == "basis":
        spec = _spec_for(cfg.space, cfg.level)
        return _report_compare(
            "enumerate", enumerate_basis(spec, cfg.qmax),
            "fermionic", character_fermionic(spec, cfg.qmax),
            f"basis[{spec.describe()}]",
        )
    if cfg.check == "pbw":
        return _report_compare(
            "pbw-enumerate", pbw_enumerated(cfg.qmax),
            "pbw-product", product_side(cfg.qmax),
            "pbw",
        )
    if cfg.check == "stabilize":
        # at qmax the caps of level max(qmax, 1) no longer bind
        level = max(cfg.qmax, 1)
        return _report_compare(
            f"level-{level}", character_fermionic(ModuleSpec.standard(level), cfg.qmax),
            "verma", character_fermionic(ModuleSpec.verma(), cfg.qmax),
            "stabilize",
        )
    code, report = verify_conjugation(cfg.trials, cfg.seed)
    for line in report:
        print(line)
    return code


def _validate(ns: argparse.Namespace) -> RunConfig | int:
    ceiling = _qmax_ceiling()

    def check_qmax(qmax):
        if qmax is None:
            return "--qmax is required"
        if qmax < 0:
            return "--qmax must be >= 0"
        if qmax > ceiling:
            return (f"--qmax {qmax} exceeds the ceiling {ceiling}"
                    f" (raise {QMAX_CEILING_ENV} to allow more)")
        return None

    def check_space_level(space, level):
        if space is None:
            return "--space is required"
        if space == "L":
            if level is None:
                return "--space L requires --level"
            if level < 1:
                return "--level must be >= 1"
        elif level is not None:
            return "--level is only valid with --space L"
        return None

    if ns.command == "char":
        msg = check_qmax(ns.qmax) or check_space_level(ns.space, ns.level)
        if msg is None and ns.method.startswith("pbw") and ns.space != "N":
            msg = f"--method {ns.method} is only valid with --space N"
        if msg:
            return _fail_usage(msg)
        return RunConfig(command="char", space=ns.space, level=ns.level,
                         qmax=ns.qmax, method=ns.method, format=ns.format)

    # verify
    if ns.check == "conjugation":
        for flag, value in (("--space", ns.space), ("--level", ns.level),
                            ("--qmax", ns.qmax)):
            if value is not None:
                return _fail_usage(f"{flag} is not valid with --check conjugation")
        trials = 1000 if ns.trials is None else ns.trials
        if trials < 1:
            return _fail_usage("--trials must be >= 1")
        seed = 0 if ns.seed is None else ns.seed
        if not 0 <= seed < 2 ** 64:
            return _fail_usage("--seed must fit in an unsigned 64-bit integer")
        return RunConfig(command="verify", check="conjugation",
                         trials=trials, seed=seed)

    if ns.trials is not None or ns.seed is not None:
        return _fail_usage("--trials/--seed are only valid with --check conjugation")
    msg = check_qmax(ns.qmax)
    if msg:
        return _fail_usage(msg)
    if ns.check == "basis":
        msg = check_space_level(ns.space, ns.level)
        if msg:
            return _fail_usage(msg)
        return RunConfig(command="verify", check="basis", space=ns.space,
                         level=ns.level, qmax=ns.qmax)
    if ns.space is not None or ns.level is not None:
        return _fail_usage(f"--space/--level are not valid with --check {ns.check}")
    return RunConfig(command="verify", check=ns.check, qmax=ns.qmax)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _validate(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    if isinstance(cfg, int):
        return cfg
    if cfg.command == "char":
        return _run_char(cfg)
    return _run_verify(cfg)


if __name__ == "__main__":
    sys.exit(main())
