"""Command-line front end.

Every subcommand is deterministic for a fixed seed and writes its whole
output once, so reruns are byte-identical. ``design``, ``compstat``,
``poisson`` and ``scan`` write a table as JSON or CSV (``--format``);
``hetero-eq``, ``approx`` and ``example-obj`` write a nested JSON report, and
have no ``--format``. Floats are emitted with 12 significant digits in both
JSON and CSV. Exit codes: 0 success, 1 invalid input, 2 numerical
non-convergence; nothing else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .compstat import asymptotic_scan, breakpoints, poisson_limit
from .contest import contest_from_dict
from .distributions import (
    EmpiricalTypes,
    Uniform,
    _finite_types,
    distribution_from_dict,
)
from .errors import NumericalError, PopulationTooLarge, ValidationError
from .heterogeneous import (
    equilibrium,
    example_obj,
    is_sub_equilibrium,
    wta_approx_experiment,
)
from .homogeneous import optimal_contest

__all__ = ["main"]

# most scales ``scan`` solves in one run: a row takes up to about 0.6 ms (at
# n near 10^6), and 10^4 rows at vc 300000..330000 took 2.0 s (2-core x86 host)
MAX_SCAN_STEPS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for numerical failures, so route usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _round_floats(obj, memo: dict):
    """``obj`` with every float rounded to 12 significant digits.

    ``memo`` maps each float already rounded to its rounding, so a contest's
    n prizes cost one ``format`` per distinct value. Zeros round to
    themselves and skip it: 0.0 and -0.0 are one dict key.
    """
    if isinstance(obj, float):
        if not obj:
            return float(obj)
        rounded = memo.get(obj)
        if rounded is None:
            rounded = memo[obj] = float(format(obj, ".12g"))
        return rounded
    if isinstance(obj, dict):
        return {key: _round_floats(value, memo) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value, memo) for value in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_round_floats(payload, {}), indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buffer.getvalue()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_distribution(path: str):
    return distribution_from_dict(_load_json(path))


def cmd_design(args) -> str:
    qd = Uniform(0.0, 1.0) if args.dist is None else _load_distribution(args.dist)
    result = optimal_contest(args.n, args.prize, args.cost, qd)
    eq = result.equilibrium
    payload = {
        "j_star": result.j_star,
        "prizes": list(result.contest.values),
        "p_star": eq.p,
        "lambda": eq.lam,
        "theta": eq.theta,
    }
    if args.format == "csv":
        header = ["j_star", "prize_top", "p_star", "lambda", "theta"]
        row = [result.j_star, result.contest.values[0], eq.p, eq.lam, eq.theta]
        return _csv_text(header, [row])
    return _json_text(payload)


def cmd_compstat(args) -> str:
    table = breakpoints(args.n, args.prize)
    rows: list[tuple] = [(1, None, table.budget)]
    rows.extend(table.entries)
    rows.append((args.n + 1, None, 0.0))
    if args.format == "json":
        payload = {
            "n": args.n,
            "budget": table.budget,
            "rows": [{"j": j, "p": p, "c": c} for j, p, c in rows],
        }
        return _json_text(payload)
    return _csv_text(["j", "p_j", "c_j"], rows)


def cmd_poisson(args) -> str:
    limit = poisson_limit(args.prize, args.cost)
    if args.format == "csv":
        return _csv_text(
            ["lambda_star", "j_star", "value"],
            [[limit.lambda_star, limit.j_star, limit.value]],
        )
    payload = {
        "lambda_star": limit.lambda_star,
        "j_star": limit.j_star,
        "value": limit.value,
    }
    return _json_text(payload)


def cmd_scan(args) -> str:
    if args.steps < 1:
        raise ValidationError(f"need steps >= 1, got {args.steps}")
    if args.steps > MAX_SCAN_STEPS:
        raise PopulationTooLarge(
            f"steps = {args.steps} exceeds the largest supported scan {MAX_SCAN_STEPS}"
        )
    if not args.vc_max >= args.vc_min > 0.0:
        raise ValidationError(
            f"need 0 < vc_min <= vc_max, got {args.vc_min} and {args.vc_max}"
        )
    if args.steps == 1:
        grid = [args.vc_min]
    else:
        ratio = (args.vc_max / args.vc_min) ** (1.0 / (args.steps - 1))
        grid = [args.vc_min * ratio**i for i in range(args.steps)]
    rows = asymptotic_scan(args.cost, grid, n_factor=args.n_factor)
    if args.format == "json":
        payload = {
            "cost": args.cost,
            "n_factor": args.n_factor,
            "rows": [
                {
                    "vc": row.vc,
                    "n": row.n,
                    "j_star": row.j_star,
                    "lambda_star": row.lambda_star,
                    "r_j": row.r_j,
                    "r_lambda": row.r_lambda,
                }
                for row in rows
            ],
        }
        return _json_text(payload)
    header = ["vc", "n", "j_star", "lambda_star", "r_j", "r_lambda"]
    return _csv_text(
        header,
        [[r.vc, r.n, r.j_star, r.lambda_star, r.r_j, r.r_lambda] for r in rows],
    )


def _profile_summary(types: EmpiricalTypes, profile) -> dict:
    mask = profile.mask
    return {
        "count": int(mask.sum()),
        "mass": float(np.sum(types.w[mask])),
        "indices": [int(i) for i in np.flatnonzero(mask)],
    }


def cmd_hetero_eq(args) -> str:
    jd = _load_distribution(args.dist)
    contest = contest_from_dict(_load_json(args.contest))
    if contest.n != args.n:
        raise ValidationError(f"contest has {contest.n} ranks but --n is {args.n}")
    types = _finite_types(jd, args.m, args.seed, args.n)
    eq = equilibrium(contest, types)
    payload = {
        "n": args.n,
        "support": types.support_size,
        "iterations": eq.iterations,
        "profile": _profile_summary(types, eq.profile),
        "is_sub_equilibrium": is_sub_equilibrium(contest, types, eq.profile),
    }
    return _json_text(payload)


def cmd_approx(args) -> str:
    jd = _load_distribution(args.dist)
    report = wta_approx_experiment(
        jd, args.n, args.prize, args.m, args.replicas, args.seed
    )
    return _json_text(report)


def cmd_example_obj(args) -> str:
    report = example_obj(
        args.prize, args.n, args.eps, args.seed, replicas=args.replicas
    )
    return _json_text(report)


def _add_output_flags(sub, default_format: str | None = None) -> None:
    """``--out`` on every subcommand; ``--format`` where both formats exist."""
    if default_format is not None:
        sub.add_argument("--format", choices=("json", "csv"), default=default_format)
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="contest-forge", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    design = commands.add_parser("design", help="optimal contest for homogeneous cost")
    design.add_argument("--n", type=int, required=True)
    design.add_argument("--prize", type=float, required=True)
    design.add_argument("--cost", type=float, required=True)
    design.add_argument("--dist", default=None, help="quality distribution JSON")
    _add_output_flags(design, "json")
    design.set_defaults(run=cmd_design)

    compstat = commands.add_parser("compstat", help="breakpoint table c_1 > ... > c_n")
    compstat.add_argument("--n", type=int, required=True)
    compstat.add_argument("--prize", type=float, default=1.0)
    _add_output_flags(compstat, "csv")
    compstat.set_defaults(run=cmd_compstat)

    poisson = commands.add_parser("poisson", help="large-population limit design")
    poisson.add_argument("--prize", type=float, default=1.0)
    poisson.add_argument("--cost", type=float, required=True)
    _add_output_flags(poisson, "json")
    poisson.set_defaults(run=cmd_poisson)

    scan = commands.add_parser("scan", help="asymptotic residual scan over V/c")
    scan.add_argument("--cost", type=float, default=1.0)
    scan.add_argument("--vc-min", type=float, required=True)
    scan.add_argument("--vc-max", type=float, required=True)
    scan.add_argument(
        "--steps", type=int, default=3, help=f"number of scales, 1..{MAX_SCAN_STEPS}"
    )
    scan.add_argument("--n-factor", type=float, default=3.0)
    _add_output_flags(scan, "csv")
    scan.set_defaults(run=cmd_scan)

    hetero = commands.add_parser(
        "hetero-eq", help="equilibrium for joint (quality, cost) types"
    )
    hetero.add_argument("--dist", required=True, help="type distribution JSON")
    hetero.add_argument("--contest", required=True, help="contest JSON")
    hetero.add_argument("--n", type=int, required=True)
    hetero.add_argument("--m", type=int, default=400, help="discretization size")
    hetero.add_argument("--seed", type=int, default=0)
    _add_output_flags(hetero)
    hetero.set_defaults(run=cmd_hetero_eq)

    approx = commands.add_parser(
        "approx", help="winner-take-all vs best simple contest experiment"
    )
    approx.add_argument("--dist", required=True, help="type distribution JSON")
    approx.add_argument("--n", type=int, required=True)
    approx.add_argument("--prize", type=float, required=True)
    approx.add_argument("--m", type=int, default=400, help="discretization size")
    approx.add_argument(
        "--replicas", type=int, default=2000,
        help="ignored; objectives are exact (kept for compatibility)",
    )
    approx.add_argument("--seed", type=int, default=0)
    _add_output_flags(approx)
    approx.set_defaults(run=cmd_approx)

    example = commands.add_parser(
        "example-obj", help="two-cluster max-vs-sum objective conflict"
    )
    example.add_argument("--prize", type=float, default=400.0)
    example.add_argument("--n", type=int, default=4000)
    example.add_argument("--eps", type=float, default=0.01)
    example.add_argument("--seed", type=int, default=0)
    example.add_argument(
        "--replicas", type=int, default=200,
        help="ignored; objectives are exact (kept for compatibility)",
    )
    _add_output_flags(example)
    example.set_defaults(run=cmd_example_obj)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"contest-forge: error: {exc}", file=sys.stderr)
        return 1
    try:
        text = args.run(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"contest-forge: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"contest-forge: numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
