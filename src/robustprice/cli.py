"""Command-line front end.

Single-shot computations emit JSON on stdout; parameter sweeps emit CSV;
`verify` runs the oracle cross-check suite and reports a summary table.
Exit codes: 0 success, 1 flag error, 2 infeasible market, 3 unwritable
output path, 4 failed verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .ambiguity import MODE_EXACT, MODE_UPPER, MarketInfo, variance_market
from .bounds import tail_bounds
from .dispersion import DispersionMeasure, power_moment, variance_measure
from .errors import RobustPriceError
from .extremal import worst_case_distribution
from .optimizer import PriceSolution, _optimal, compare_prices
from .oracle import MIN_GRID_N
from .ratio import worst_case_cr, worst_case_cr_dispersion_ub
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_OUTPUT = 3
EXIT_VERIFY = 4

log = logging.getLogger("robustprice")


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for flag errors.

    Long options must be spelled in full: with prefix matching, ``--p``
    on a subcommand that has no ``--p`` would silently mean ``--phi``.
    Subparsers inherit this class and so this setting.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    name = os.environ.get("ROBUSTPRICE_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _num(x):
    """JSON-safe number at 12 significant digits; infinities as strings."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _beta_arg(text: str) -> float:
    """A number or 'inf'; nan is a flag error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def _finite_arg(text: str) -> float:
    """A finite number; nan and inf are flag errors."""
    value = _beta_arg(text)
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _at_least(minimum: int, kind=int):
    """An argparse type: a kind (int by default) no smaller than minimum."""
    def count(text: str):
        value = kind(text)  # argparse reports a ValueError as a flag error
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _values_arg(text: str) -> List[float]:
    """--values: comma-separated numbers, each one as --beta accepts it."""
    return [_beta_arg(v) for v in text.split(",")]


def _add_market_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=_finite_arg, required=True, help="mean valuation")
    spread = p.add_mutually_exclusive_group()
    spread.add_argument("--sigma", type=_finite_arg, default=None,
                        help="standard deviation (variance measure)")
    spread.add_argument("--s", type=_finite_arg, default=None,
                        help="dispersion statistic E[phi(X)] directly")
    p.add_argument("--beta", type=_beta_arg, required=True,
                   help="maximum valuation; 'inf' for unbounded")
    p.add_argument("--phi", type=_phi_arg, default="variance",
                   help="dispersion measure: 'variance' or 'power:q=<q>'")


def _phi_arg(text: str) -> DispersionMeasure:
    """--phi value: 'variance' or 'power:q=<q>'; a bad value is a flag error."""
    try:
        if text == "variance":
            return variance_measure()
        if text.startswith("power:q="):
            return power_moment(float(text.split("=", 1)[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown value {text!r}; use 'variance' or 'power:q=<q>'")


def _check_spread(parser: argparse.ArgumentParser, args) -> None:
    """Flag errors of the dispersion flags: a market needs --sigma or --s
    (a sweep may vary either instead, replacing the other one), and --sigma
    needs the variance measure, so a sweep over q takes --s."""
    vary = getattr(args, "vary", None)
    if args.sigma is None and args.s is None and vary not in ("sigma", "s"):
        parser.error("one of --sigma or --s is required")
    sigma = vary == "sigma" or (args.sigma is not None and vary != "s")
    if sigma and (vary == "q" or not args.phi.is_variance):
        parser.error("--sigma applies to the variance measure; use --s")


def _market(args, mode: str = MODE_EXACT) -> MarketInfo:
    if args.s is None:   # --sigma, which _check_spread allows for variance only
        return variance_market(args.mu, args.sigma, args.beta, mode)
    return MarketInfo(mu=args.mu, s=args.s, beta=args.beta, measure=args.phi, mode=mode)


def _emit(obj, out: Optional[str]) -> int:
    """Write obj (CSV text or a JSON object) to stdout or to the --out path;
    exit 3 if the path is unwritable."""
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "unwritable output path",
                                     "detail": str(exc)}) + "\n")
        return EXIT_OUTPUT
    return EXIT_OK


def _json(v):
    """A result dataclass as a JSON object, its fields in declaration order:
    strings and bools as they are, numbers by :func:`_num`, tuples as lists."""
    if dataclasses.is_dataclass(v):
        return {f.name: _json(getattr(v, f.name)) for f in dataclasses.fields(v)}
    if isinstance(v, (str, bool)):
        return v
    if isinstance(v, tuple):
        return [_json(x) for x in v]
    return _num(v)


def _solve_price(args, objective: str, with_threshold: bool = True) -> PriceSolution:
    """The optimizer on the market of the flags; --compat-printed-pl is for the ratio."""
    return _optimal(_market(args), objective, args.compat_printed_pl and objective == "cr",
                    with_threshold)


def cmd_price(args) -> int:
    if args.objective == "both":
        obj = {"cr": _json(_solve_price(args, "cr")),
               "rev": _json(_solve_price(args, "rev"))}
    else:
        obj = _json(_solve_price(args, args.objective))
    return _emit(obj, args.out)


def cmd_cr(args) -> int:
    market = _market(args, args.mode)
    if args.mode == MODE_UPPER:
        cr = worst_case_cr_dispersion_ub(market, args.p)
        return _emit({"p": _num(args.p), "cr": _num(cr), "mode": MODE_UPPER},
                     args.out)
    return _emit(_json(worst_case_cr(market, args.p)), args.out)


def cmd_bounds(args) -> int:
    return _emit(_json(tail_bounds(_market(args), args.p)), args.out)


def cmd_dist(args) -> int:
    market = _market(args)
    d = worst_case_distribution(market, args.p,
                                eps=args.eps or None)
    return _emit({
        "supports": [_num(x) for x in d.supports],
        "masses": [_num(w) for w in d.masses],
        "mean": _num(d.mean()),
        "dispersion": _num(d.dispersion(market.measure)),
    }, args.out)


def cmd_compare(args) -> int:
    return _emit(_json(compare_prices(args.mu, args.sigma, args.beta)), args.out)


def _sweep_solution(args, v: float, objective: str) -> PriceSolution:
    """The price with the varied flag set to v; sigma and s replace each other."""
    point = argparse.Namespace(**vars(args))
    if args.vary == "q":
        point.phi = power_moment(v)
    else:
        setattr(point, args.vary, v)
    if args.vary == "sigma":
        point.s = None
    elif args.vary == "s":
        point.sigma = None
    return _solve_price(point, objective, with_threshold=False)


def cmd_sweep(args) -> int:
    values = args.values
    if values is None:
        if args.start is None or args.stop is None or not args.start < args.stop:
            sys.stderr.write("robustprice sweep: error: needs --values, or --from below --to\n")
            return EXIT_USAGE
        values = list(np.linspace(args.start, args.stop, args.steps))
    both = args.objective == "both"
    header = "param,price,regime,value" + (",price_rev,value_rev" if both else "")
    lines = [header]
    for v in values:
        primary = "rev" if args.objective == "rev" else "cr"
        sol = _sweep_solution(args, v, primary)
        row = [f"{v:.6f}", f"{sol.price:.6f}", sol.label, f"{sol.value:.6f}"]
        if both:
            rsol = _sweep_solution(args, v, "rev")
            row += [f"{rsol.price:.6f}", f"{rsol.value:.6f}"]
        lines.append(",".join(row))
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_verify(args) -> int:
    lines = ["check,instances,max_deviation,tolerance,pass"]
    all_ok = True
    for name, n, dev, tol, ok in run_checks(args.trials, args.grid, args.seed,
                                            args.compat_printed_pl):
        all_ok = all_ok and ok
        lines.append(f"{name},{n},{dev:.3e},{tol:.1e},{'pass' if ok else 'FAIL'}")
        log.info("verify %s: dev=%.3e ok=%s", name, dev, ok)
    code = _emit("\n".join(lines) + "\n", args.out)
    return code if code != EXIT_OK or all_ok else EXIT_VERIFY


def build_parser() -> _Parser:
    ap = _Parser(prog="robustprice",
                 description="Robust pricing under mean/dispersion/maximum knowledge")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="optimal robust price")
    _add_market_args(p)
    p.add_argument("--objective", choices=["cr", "rev", "both"], default="cr")
    p.add_argument("--compat-printed-pl", action="store_true", dest="compat_printed_pl")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("cr", help="worst-case competitive ratio at a price")
    _add_market_args(p)
    p.add_argument("--p", type=_finite_arg, required=True)
    p.add_argument("--mode", choices=[MODE_EXACT, MODE_UPPER], default=MODE_EXACT,
                   help="treat the statistic as exact or as an upper bound")
    p.set_defaults(func=cmd_cr)

    p = sub.add_parser("bounds", help="tail-probability bounds at a price")
    _add_market_args(p)
    p.add_argument("--p", type=_finite_arg, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("dist", help="worst-case distribution at a price")
    _add_market_args(p)
    p.add_argument("--p", type=_finite_arg, required=True)
    p.add_argument("--eps", type=_at_least(0, _finite_arg), default=0.0,
                   help="left-limit offset; 0 selects the default")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    _add_market_args(p)
    p.add_argument("--vary", choices=["sigma", "beta", "q", "s"], required=True)
    p.add_argument("--from", dest="start", type=_finite_arg, default=None)
    p.add_argument("--to", dest="stop", type=_finite_arg, default=None)
    p.add_argument("--steps", type=_at_least(2), default=11)
    p.add_argument("--values", type=_values_arg, default=None,
                   help="explicit comma-separated values (overrides from/to)")
    p.add_argument("--objective", choices=["cr", "rev", "both"], default="cr")
    p.add_argument("--compat-printed-pl", action="store_true", dest="compat_printed_pl")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--trials", type=_at_least(1), default=50)
    p.add_argument("--grid", type=_at_least(MIN_GRID_N), default=201)
    p.add_argument("--seed", type=_at_least(0), default=7)
    p.add_argument("--compat-printed-pl", action="store_true", dest="compat_printed_pl")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="ratio vs revenue price orderings")
    p.add_argument("--mu", type=_finite_arg, required=True)
    p.add_argument("--sigma", type=_finite_arg, required=True)
    p.add_argument("--beta", type=_beta_arg, required=True)
    p.set_defaults(func=cmd_compare)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
        p.set_defaults(parser=p)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "phi"):  # a subcommand built by _add_market_args
        _check_spread(args.parser, args)
    try:
        return args.func(args)
    except RobustPriceError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "detail": str(exc)}) + "\n")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
