"""Command-line front end: emits figure data as CSV/JSON and runs the selftest.

Commands: ghz-surface, werner-ghz, at-scan, discord, selftest.
Exit codes: 0 success, 1 usage, 2 I/O, 3 resource budget, 4 selftest failure.
Outputs are byte-identical across runs for fixed flags and seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import ashkin_teller as at
from . import correlations, selftest, states
from .core import SubsystemDims, reduced_from_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3
EXIT_SELFTEST = 4


class UsageError(Exception):
    pass


class BudgetError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(meta: dict, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    payload = {
        "meta": meta,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, meta: dict, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    text = (
        _render_json(meta, header, rows)
        if args.format == "json"
        else _render_csv(header, rows)
    )
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_summary(args, summary: dict) -> None:
    """One JSON summary line on stdout, wherever the JSON ``meta`` is not printed there."""
    if args.format == "csv" or args.out is not None:
        sys.stdout.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


def _cmd_ghz_surface(args) -> int:
    if args.resolution < 2:
        raise UsageError("resolution must be at least 2")
    if args.resolution > 1024:  # about 285 B a grid point: 1,024 peaks at 360 MB, 5,000 past 8 GB
        raise BudgetError("GHZ surfaces beyond 1024 points per axis are out of budget")
    t2, t3, values = states.ghz_surface(args.resolution)
    rows = [
        (float(a), float(b), float(values[i, j]))
        for i, a in enumerate(t2)
        for j, b in enumerate(t3)
    ]
    meta = {"command": "ghz-surface", "resolution": args.resolution}
    _emit(args, meta, ("theta2", "theta3", "gqd"), rows)
    return EXIT_OK


def _cmd_werner_ghz(args) -> int:
    if args.points < 2:
        raise UsageError("need at least 2 grid points")
    mus = np.linspace(0.0, 1.0, args.points)
    analytic = [states.werner_ghz_gqd_analytic(float(m)) for m in mus]
    header: tuple[str, ...] = ("mu", "gqd_analytic")
    columns: list[list[Any]] = [list(mus.astype(float)), analytic]

    meta: dict[str, Any] = {
        "command": "werner-ghz",
        "mode": args.mode,
        "points": len(mus),
        "seed": args.seed,
        "monotone_analytic": bool(np.all(np.diff(analytic) >= -1e-12)),
    }
    if args.mode == "both":
        results = [correlations.gqd(states.werner_ghz(float(m)), "minimize", seed=args.seed)
                   for m in mus]
        numeric = [r.value for r in results]
        diffs = [abs(a - b) for a, b in zip(analytic, numeric)]
        header = header + ("gqd_numeric", "abs_difference")
        columns += [numeric, diffs]
        meta["max_abs_difference"] = max(diffs)
        meta["all_converged"] = all(r.converged for r in results)
        meta["evaluations"] = sum(r.evaluations for r in results)

    rows = list(zip(*columns))
    _emit(args, meta, header, rows)
    _emit_summary(args, meta)
    return EXIT_OK


def _extremum(x: np.ndarray, d: np.ndarray, root: float) -> str:
    """Kind of extremum at a zero of the derivative d: "max" where d falls through it."""
    before, after = d[x < root], d[x > root]
    falls = (after[0] if after.size else 0.0) < (before[-1] if before.size else 0.0)
    return "max" if falls else "min"


def _check_site_budget(sites: int) -> None:
    if sites > at.SPARSE_MAX_SITES:
        raise BudgetError(f"chains beyond {at.SPARSE_MAX_SITES} sites are out of budget")


def _cmd_at_scan(args) -> int:
    _check_site_budget(args.sites)
    try:
        deltas = at.default_delta_grid(args.delta_min, args.delta_max, args.grid_step,
                                       args.fine_step)
        template = at.ChainSpec(sites=args.sites, beta=args.beta, delta=float(deltas[0]))
        group = at.SpinGroup(kind=args.group)
        result = at.gqd_scan(template, deltas, group, strategy=args.strategy)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    interior = result.deltas[1:-1]
    crossings = at.zero_crossings(interior, result.derivative)
    lo, hi = at.CRITICAL_WINDOW
    derivative_column: list[Any] = [None] + list(result.derivative) + [None]
    rows = [
        (float(d), float(g), dv if dv is None else float(dv))
        for d, g, dv in zip(result.deltas, result.values, derivative_column)
    ]
    summary = {
        "zero_crossings": [round(c, 9) for c in crossings],
        "window_crossings": [round(c, 9) for c in crossings if lo < c < hi],
        "extremum": [_extremum(interior, result.derivative, c) for c in crossings],
        "max_residual": result.max_residual,
        "min_amplitude": result.min_amplitude,
        "sector_dim": result.sector_dim,
    }
    meta = {
        "command": "at-scan",
        "sites": args.sites,
        "beta": args.beta,
        "group": args.group,
        "strategy": args.strategy,
        "summary": summary,
    }
    _emit(args, meta, ("delta", "gqd", "dgqd_ddelta"), rows)
    _emit_summary(args, summary)
    return EXIT_OK


def _parse_state(spec: str):
    """Parse a state spec into (label, DensityOperator)."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "bell":
            return "bell", states.bell()
        if name == "ghz":
            n = int(rest)
            if n > 10:  # dense 2^n x 2^n: ghz:10 takes a minute and 0.8 GB on 2 cores
                raise BudgetError("GHZ states beyond 10 qubits are out of budget")
            return spec, states.ghz(n)
        if name == "werner":
            return spec, states.werner(float(rest))
        if name == "werner-ghz":
            return spec, states.werner_ghz(float(rest))
        if name == "at-pair":
            fields = rest.split(",")
            if len(fields) != 3:
                raise ValueError("at-pair takes sites,delta,kind")
            sites, delta, kind = int(fields[0]), float(fields[1]), fields[2].strip()
            _check_site_budget(sites)
            keep = at.pair_qubits(kind)
            chain = at.ChainSpec(sites=sites, beta=1.0, delta=delta)
            vector = at._ground_vector(chain)
            rho = reduced_from_vector(vector, SubsystemDims.qubits(chain.n_spins), keep)
            return spec, rho
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad state spec {spec!r}: {exc}") from exc
    raise UsageError(
        f"unknown state {spec!r}; expected bell, ghz:N, werner:MU, werner-ghz:MU, "
        "or at-pair:SITES,DELTA,KIND"
    )


def _cmd_discord(args) -> int:
    label, rho = _parse_state(args.state)
    n = rho.n_subsystems

    info = correlations.mutual_information(rho, cut=range(n - 1))
    asym = correlations.discord_asymmetric(rho)
    rows: list[tuple[str, float]] = [
        ("mutual_information", info),
        ("classical_correlation", info - asym),
        ("discord_asymmetric", asym),
    ]
    result = correlations.gqd(rho, args.strategy, seed=args.seed)
    if n == 2:  # symmetric discord is gqd's two-qubit minimization: reuse it when it ran
        symmetric = (result.value if args.strategy == "minimize"
                     else correlations.symmetric_discord(rho))
        rows.append(("discord_symmetric", symmetric))
    rows.append((f"gqd_{args.strategy}", result.value))

    summary = {"gqd_converged": result.converged, "gqd_evaluations": result.evaluations}
    meta = {"command": "discord", "state": label, "strategy": args.strategy, "seed": args.seed,
            **summary}
    _emit(args, meta, ("measure", "value"), rows)
    _emit_summary(args, summary)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.count < 1:
        raise UsageError("count must be positive")
    report = selftest.run_selftest(seed=args.seed, count=args.count)
    text = report.render()
    sys.stdout.write(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if report.ok else EXIT_SELFTEST


def build_parser() -> _Parser:
    base = _Parser(add_help=False)  # flags every command reads
    base.add_argument("--out", default=None, help="output file (default: stdout)")
    table = _Parser(add_help=False, parents=[base])  # commands that write CSV or JSON
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = _Parser(prog="gqd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ghz-surface", parents=[table],
                       help="dephased-GHZ entropy surface over (theta2, theta3)")
    p.add_argument("--resolution", type=int, default=129, help="grid points per axis")
    p.set_defaults(func=_cmd_ghz_surface)

    p = sub.add_parser("werner-ghz", parents=[table],
                       help="global discord of the Werner-GHZ family over mu")
    p.add_argument("--mode", choices=("analytic", "both"), default="analytic")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_werner_ghz)

    p = sub.add_parser("at-scan", parents=[table],
                       help="Ashkin-Teller group discord scan across the coupling")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--group", choices=tuple(sorted(at.GROUP_SITES)), default="quartet")
    p.add_argument("--strategy", choices=at.SCAN_STRATEGIES, default="fixed-x")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--delta-min", type=float, default=0.2)
    p.add_argument("--delta-max", type=float, default=1.8)
    p.add_argument("--grid-step", type=float, default=0.05, help="coarse coupling-grid step")
    p.add_argument("--fine-step", type=float, default=0.01,
                   help="finer step inside the critical window (0 disables)")
    p.set_defaults(func=_cmd_at_scan)

    p = sub.add_parser("discord", parents=[table],
                       help="correlation measures of a named state")
    p.add_argument("state",
                   help="bell | ghz:N | werner:MU | werner-ghz:MU | at-pair:SITES,DELTA,KIND")
    p.add_argument("--strategy", choices=correlations.STRATEGIES, default="minimize")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("selftest", parents=[base], help="run the verification suites")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gqd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"gqd: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"gqd: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
