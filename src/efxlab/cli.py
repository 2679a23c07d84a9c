"""Command-line front end.

Exit codes: 0 on success, 1 when an attack run recovers nothing, 2 on config
or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bounds, classical, harness, plot_svg

EXIT_OK = 0
EXIT_ATTACK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _load_config(path: str, seed) -> harness.ExperimentConfig:
    cfg = harness.parse_config(Path(path).read_text())
    if seed is not None:
        cfg.seed = seed
    if errors := cfg.validate():
        raise ValueError("; ".join(errors))
    return cfg


def _emit(text: str, out) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_attack(args) -> int:
    cfg = _load_config(args.config, args.seed)
    report = harness.run_attack(cfg)
    _emit(harness.report_json(report), args.out)
    if cfg.trials > 0 and report["summary"]["successes"] == 0:
        return EXIT_ATTACK_FAILURE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    values = [float(v) for v in args.values]
    rows = harness.sweep(cfg, args.axis, values)
    _emit(harness.sweep_csv(rows), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    bounds.check_sizes(args.n, args.kappa)
    grid_d = args.grid_d if args.grid_d is not None else \
        [args.n * i / 4.0 for i in range(5)]
    grid_t = args.grid_t if args.grid_t is not None else \
        [(args.kappa + args.n) * i / 4.0 for i in range(5)]
    for log2 in grid_d + grid_t:
        if not (math.isfinite(log2) and log2 <= bounds.MAX_EXPONENT):
            raise ValueError(f"grid exponent {log2}: must be finite and at most "
                             f"{bounds.MAX_EXPONENT}")
    lines = ["log2D,log2T,bound_small_D,bound_any_D,quantum_bound"]
    for log2_d in grid_d:
        for log2_t in grid_t:
            b1, b2 = bounds.efx_classical_bound(args.n, args.kappa, D=2.0 ** log2_d,
                                                T=2.0 ** log2_t)
            qb = bounds.quantum_distinguish_bound(2.0 ** (log2_t / 2.0), args.kappa)
            lines.append(f"{log2_d},{log2_t},{b1:.8g},{b2:.8g},{qb:.8g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    bounds.check_sizes(args.n, args.kappa)
    grid = [i * args.n / 16.0 for i in range(17)]
    rows = []
    for attack in classical.CURVE_KINDS:
        rows += classical.tradeoff_curve(attack, args.n, args.kappa, grid)
    _emit(plot_svg.curve_rows_csv(rows), args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    rows = plot_svg.parse_curve_csv(Path(args.infile).read_text())
    Path(args.out).write_text(plot_svg.plot_curves(rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    ok, results = harness.verify(args.suite or None)
    sys.stdout.write(json.dumps({"passed": ok, "suites": results}, indent=2,
                                sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_ATTACK_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="efxlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run a configured attack experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="sweep one config axis, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="evaluate the security bounds on a grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--grid-d", type=float, nargs="+", default=None)
    p.add_argument("--grid-t", type=float, nargs="+", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("curves", help="emit the reference trade-off curves as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("plot", help="render a curve CSV as a standalone SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", action="append", choices=list(harness.VERIFY_SUITES))
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
