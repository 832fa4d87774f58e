"""Seeded op schedules, the ops themselves, and their independent checks.

Each workload is an endless sequence of *cycles*.  A cycle holds the
workload's mix in exact proportions, so a run that stops on a cycle
boundary has the stated mix whatever the seed.  Market parameters are drawn
by Latin hypercube sampling inside each cycle: every market is still drawn
uniformly (its scale log-uniform over [1e-6, 1e6]), but each cycle covers
every stratum of every parameter, so the share of cheap and costly markets
does not swing from run to run.

An op returns its raw outputs; ``check_*`` turns them into a list of failed
check names (empty when the op is correct).  Checks use reference values
carried here and tolerances stated by the paper or by ``robustprice verify``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import List

import numpy as np

import robustprice as rp
from robustprice import cli as rp_cli

LOG10_K_RANGE = (-6.0, 6.0)

# Paper Table 1 (mu = 0.5, beta = 1): sigma -> (optimal price, optimal ratio).
TABLE1 = {
    0.00: (0.5000, 1.0000), 0.05: (0.4076, 0.7734), 0.10: (0.3672, 0.6382),
    0.15: (0.3404, 0.5310), 0.20: (0.3213, 0.4439), 0.25: (0.3073, 0.3728),
    0.30: (0.2967, 0.3147), 0.35: (0.3725, 0.3524), 0.40: (0.4763, 0.4763),
    0.45: (0.6406, 0.6406), 0.50: (1.0000, 1.0000),
}
TABLE1_TOL = 5e-4
QUOTE_RTOL = 1e-9
CLI_RTOL = 1e-12

# quote: 80% variance, 16% power, 4% custom markets, interleaved.
QUOTE_CYCLE = ((("variance",) * 4 + ("power",)) * 4 + ("variance",) * 4 + ("custom",)) * 2
VERIFY_GRIDS = (61, 121, 201)
VERIFY_BLOCKS = 9               # a cycle is 9 blocks, each one op per grid size
FOUR_POINT_EVERY = 5            # every fifth op adds the four-point control
CLI_INVOCATIONS = ("price", "price_power", "cr", "bounds", "dist", "compare",
                   "sweep", "verify")
CLI_PASSES = 2                  # a cycle runs every invocation twice


def _latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)**dims, one in each of n equal strata per coordinate."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.uniform(size=(n, dims))) / n


def _base_market(x):
    """Unit-scale (mu, beta, u) from three uniforms; u in (0.1, 0.9) is the
    dispersion relative to its feasible range."""
    mu = 0.3 + 1.2 * float(x[0])
    return mu, mu * (1.3 + 2.2 * float(x[1])), 0.1 + 0.8 * float(x[2])


# --------------------------------------------------------------------------
# quote


@dataclass(frozen=True)
class QuoteSpec:
    kind: str      # "variance", "power" or "custom"
    mu: float
    beta: float
    s: float       # dispersion statistic E[phi(X)] at this scale
    q: float       # power exponent (2 for variance, nan for custom)
    log10_k: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.s - self.mu * self.mu)


def exp_measure(mu: float) -> rp.DispersionMeasure:
    """phi(x) = exp(x / mu): a strictly convex custom measure, scale-free."""
    def value(x):
        with np.errstate(over="ignore"):
            y = np.exp(np.asarray(x, dtype=float) / mu)
        return float(y) if y.ndim == 0 else y

    def deriv(x):
        with np.errstate(over="ignore"):
            y = np.exp(np.asarray(x, dtype=float) / mu) / mu
        return float(y) if y.ndim == 0 else y

    return rp.custom_measure(value, deriv)


def _quote_spec(kind: str, x) -> QuoteSpec:
    """A market from five uniforms: scale, mu, beta/mu, dispersion, q."""
    lo, hi = LOG10_K_RANGE
    log10_k = lo + (hi - lo) * float(x[0])
    mu0, beta0, u = _base_market(x[1:4])
    k = 10.0 ** log10_k
    if kind == "variance":
        sigma0 = u * math.sqrt(mu0 * (beta0 - mu0))
        return QuoteSpec(kind, mu0 * k, beta0 * k,
                         (mu0 * k) ** 2 + (sigma0 * k) ** 2, 2.0, log10_k)
    if kind == "power":
        q = 4.0 - 3.0 * float(x[4])                     # q in (1, 4]
        lo, hi = mu0 ** q, mu0 * beta0 ** (q - 1.0)     # point mass .. {0, beta}
        return QuoteSpec(kind, mu0 * k, beta0 * k, (lo + u * (hi - lo)) * k ** q,
                         q, log10_k)
    lo = math.e                                          # exp(mu/mu)
    hi = (1.0 - mu0 / beta0) + (mu0 / beta0) * math.exp(beta0 / mu0)
    return QuoteSpec(kind, mu0 * k, beta0 * k, lo + u * (hi - lo), math.nan, log10_k)


def quote_cycle(seed: int, cycle: int) -> List[QuoteSpec]:
    rng = np.random.default_rng([seed, cycle])
    points = {kind: list(_latin_hypercube(rng, QUOTE_CYCLE.count(kind), 5))
              for kind in ("variance", "power", "custom")}
    return [_quote_spec(kind, points[kind].pop()) for kind in QUOTE_CYCLE]


def quote_warmup(seed: int) -> QuoteSpec:
    """A unit-scale variance market."""
    x = np.random.default_rng([seed, 0xa11]).uniform(size=5)
    x[0] = 0.5
    return _quote_spec("variance", x)


def quote_market(spec: QuoteSpec) -> rp.MarketInfo:
    if spec.kind == "variance":
        return rp.variance_market(spec.mu, spec.sigma, spec.beta)
    if spec.kind == "power":
        return rp.power_market(spec.mu, spec.s, spec.q, spec.beta)
    return rp.MarketInfo(spec.mu, spec.s, spec.beta, exp_measure(spec.mu))


def run_quote(spec: QuoteSpec) -> dict:
    """Price one market, then read its ratio, tail bounds and worst case."""
    market = quote_market(spec)
    out = {"market": market}
    if spec.kind == "variance":
        out["sol"] = rp.optimal_price_variance(spec.mu, spec.sigma, spec.beta)
        out["rev"] = rp.optimal_price_revenue_variance(spec.mu, spec.sigma, spec.beta)
    elif spec.kind == "power":
        out["sol"] = rp.optimal_price_power(spec.mu, spec.s, spec.q, spec.beta)
    else:
        out["sol"] = rp.optimal_price_general(market)
    p = out["sol"].price
    out["cr"] = rp.worst_case_cr(market, p)
    out["tb"] = rp.tail_bounds(market, p)
    out["dist"] = rp.worst_case_distribution(market, p)
    return out


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_quote(spec: QuoteSpec, out: dict) -> List[str]:
    fails = []
    market, sol, cr, tb, d = (out[k] for k in ("market", "sol", "cr", "tb", "dist"))
    if not 0.0 <= cr.cr <= 1.0:
        fails.append("cr_range")
    if not tb.inf_tail <= tb.sup_tail:
        fails.append("tail_order")
    if not _rel_close(sol.value, cr.cr, QUOTE_RTOL):
        fails.append("value_vs_worst_case_cr")
    if "rev" in out and not _rel_close(
            out["rev"].value, rp.worst_case_revenue(market, out["rev"].price), QUOTE_RTOL):
        fails.append("rev_value_vs_worst_case_revenue")
    masses = np.asarray(d.masses, dtype=float)
    if np.any(masses < 0):
        fails.append("witness_mass_sign")
    if not _rel_close(float(masses.sum()), 1.0, QUOTE_RTOL):
        fails.append("witness_mass_sum")
    if not _rel_close(d.mean(), market.mu, QUOTE_RTOL):
        fails.append("witness_mean")
    if not _rel_close(d.dispersion(market.measure), market.s, QUOTE_RTOL):
        fails.append("witness_dispersion")
    return fails


def table1_precheck() -> float:
    """Largest deviation from the paper's Table 1 (mu=0.5, beta=1)."""
    dev = 0.0
    for sigma, (p_ref, v_ref) in TABLE1.items():
        sol = rp.optimal_price_variance(0.5, sigma, 1.0, with_threshold=False)
        dev = max(dev, abs(sol.price - p_ref), abs(sol.value - v_ref))
    return dev


# --------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifySpec:
    market: rp.MarketInfo
    p: float
    grid: int
    four_point: bool
    control_seed: tuple


def verify_cycle(seed: int, cycle: int) -> List[VerifySpec]:
    rng = np.random.default_rng([seed, cycle])
    grids = np.concatenate([rng.permutation(VERIFY_GRIDS) for _ in range(VERIFY_BLOCKS)])
    out = []
    for i, grid in enumerate(grids):
        market, p = rp.random_feasible_instance(rng)
        out.append(VerifySpec(market, p, int(grid),
                              i % FOUR_POINT_EVERY == FOUR_POINT_EVERY - 1,
                              (seed, cycle, i)))
    return out


def verify_warmup(seed: int) -> VerifySpec:
    market, p = rp.random_feasible_instance(np.random.default_rng([seed, 0xa11]))
    return VerifySpec(market, p, VERIFY_GRIDS[0], False, (seed, 0xa11))


def _support_distance(a, b) -> float:
    """Hausdorff distance between two finite support sets."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def run_verify(spec: VerifySpec) -> dict:
    """The ``robustprice verify`` check mix on one instance.

    Mirrors the subcommand call for call, including the enumerations it
    repeats, so that work saved inside the library shows here.
    """
    market, p, n = spec.market, spec.p, spec.grid
    closed = rp.worst_case_cr(market, p).cr
    o, _ = rp.oracle_worst_case_cr(market, p, n)
    out = {"sandwich_hi": o - closed, "sandwich_lo": closed - o}

    res = 1.5 * market.beta / n
    cr_min, cw = rp.oracle_worst_case_cr(market, p, n)
    rev_min, rw = rp.oracle_worst_case_rev(market, p, n)
    wit = (rw.ratio(p) - cr_min) / 0.02
    b = rp.worst_case_cr(market, p)
    if b.cr > 0 and b.tail_ratio < b.price_over_y - 0.05:
        wit = max(wit, (p * cw.tail(p) - rev_min) / (0.02 * market.mu))
        cs = cw.supports[cw.masses > 0.02]
        rs = rw.supports[rw.masses > 0.02]
        wit = max(wit, _support_distance(cs, rs) / res)
    out["witness"] = wit

    t1, t2 = rp.left_threshold(market), rp.right_threshold(market)
    reports = [rp.verify_dual_certificate(market, q, target)
               for q in (0.5 * t1, 0.5 * (t1 + t2), min(1.05 * t2, market.beta))
               if 0 < q <= market.beta for target in ("sup_tail", "inf_tail")]
    out["certificates_ok"] = all(r.passed for r in reports)

    ps = np.linspace(1e-6 * t2, t2, 2000)
    g = np.array([rp.best_case_revenue(market, x) for x in ps])
    out["monotone"] = float(np.max(np.maximum(-np.diff(g), 0.0)))

    if spec.four_point:
        o4, _ = rp.oracle_worst_case_cr(market, p, n)
        crng = np.random.default_rng(list(spec.control_seed))
        controls = [rp.random_four_point(market, crng).ratio(p) for _ in range(100)]
        out["four_point"] = o4 - min(controls)
    return out


def check_verify(spec: VerifySpec, out: dict) -> List[str]:
    fails = []
    if out["sandwich_lo"] > 1e-9:
        fails.append("sandwich_closed_above_oracle")
    if out["sandwich_hi"] > 0.02:
        fails.append("sandwich_gap")
    if out["witness"] > 1.0:
        fails.append("witness_agreement")
    if not out["certificates_ok"]:
        fails.append("dual_certificates")
    if out["monotone"] > 1e-12:
        fails.append("best_case_rev_monotone")
    if out.get("four_point", 0.0) > 1e-9:
        fails.append("four_point_control")
    return fails


# --------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliSpec:
    sub: str
    argv: tuple
    mu: float
    sigma: float = math.nan
    beta: float = math.nan
    s: float = math.nan
    q: float = math.nan
    p: float = math.nan
    stop: float = math.nan      # sweep: last sigma


def _cli_spec(sub: str, rng: np.random.Generator) -> CliSpec:
    mu, beta, u = _base_market(rng.uniform(size=3))
    smax = math.sqrt(mu * (beta - mu))
    sigma = u * smax
    t2 = mu + sigma * sigma / mu
    p = float(rng.uniform(0.08, 0.98) * min(t2, beta))
    base = ["--mu", repr(mu), "--beta", repr(beta)]
    var = base + ["--sigma", repr(sigma)]
    if sub == "price":
        return CliSpec(sub, ("price", *var), mu, sigma, beta)
    if sub == "price_power":
        q = 4.0 - 3.0 * float(rng.uniform())
        lo, hi = mu ** q, mu * beta ** (q - 1.0)
        s = lo + u * (hi - lo)
        return CliSpec(sub, ("price", *base, "--s", repr(s), "--phi", f"power:q={q!r}"),
                       mu, beta=beta, s=s, q=q)
    if sub in ("cr", "bounds", "dist"):
        return CliSpec(sub, (sub, *var, "--p", repr(p)), mu, sigma, beta, p=p)
    if sub == "compare":
        return CliSpec(sub, ("compare", *var), mu, sigma, beta)
    if sub == "sweep":
        stop = 0.95 * smax
        return CliSpec(sub, ("sweep", *base, "--sigma", "0", "--vary", "sigma",
                             "--from", "0", "--to", repr(stop), "--steps", "11"),
                       mu, 0.0, beta, stop=stop)
    vseed = str(int(rng.integers(0, 2 ** 31)))
    return CliSpec(sub, ("verify", "--trials", "3", "--grid", "41", "--seed", vseed), mu)


def cli_cycle(seed: int, cycle: int) -> List[CliSpec]:
    rng = np.random.default_rng([seed, cycle])
    return [_cli_spec(sub, rng) for sub in CLI_INVOCATIONS * CLI_PASSES]


def _as_cli_number(x) -> float:
    """A value as the CLI prints it: 12 significant digits, inf as text."""
    x = float(x)
    return x if math.isinf(x) or math.isnan(x) else float(f"{x:.12g}")


def _sol_fields(sol) -> dict:
    return {"price": sol.price, "value": sol.value, "threshold": sol.threshold,
            "candidates": [v for _, _, v in sol.candidates]}


def cli_reference(spec: CliSpec):
    """The numbers a CLI op must print, computed in this process."""
    if spec.sub == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rp_cli.main(list(spec.argv))
        return {"code": code, "text": buf.getvalue()}
    if spec.sub == "price":
        return _sol_fields(rp.optimal_price_variance(spec.mu, spec.sigma, spec.beta))
    if spec.sub == "price_power":
        return _sol_fields(rp.optimal_price_power(spec.mu, spec.s, spec.q, spec.beta))
    if spec.sub == "cr":
        b = rp.worst_case_cr_variance(spec.mu, spec.sigma, spec.beta, spec.p)
        return {"p": b.p, "cr": b.cr, "tail_ratio": b.tail_ratio,
                "price_over_y": b.price_over_y}
    market = rp.variance_market(spec.mu, spec.sigma, spec.beta)
    if spec.sub == "bounds":
        tb = rp.tail_bounds(market, spec.p)
        return {"p": tb.p, "inf_tail": tb.inf_tail, "sup_tail": tb.sup_tail,
                "sup_cond_exp": tb.sup_cond_exp, "best_case_rev": tb.best_case_rev}
    if spec.sub == "dist":
        d = rp.worst_case_distribution(market, spec.p)
        return {"supports": list(d.supports), "masses": list(d.masses),
                "mean": d.mean(), "dispersion": d.dispersion(market.measure)}
    if spec.sub == "compare":
        r = rp.compare_prices(spec.mu, spec.sigma, spec.beta)
        return {k: getattr(r, k) for k in ("pi_l", "p_l", "pi_h", "p_h", "sigma",
                                           "sigma_star", "delta_star")}
    if spec.sub == "sweep":
        rows = []
        for v in np.linspace(0.0, spec.stop, 11):
            sol = rp.optimal_price_variance(spec.mu, v, spec.beta, with_threshold=False)
            rows.append([f"{v:.6f}", f"{sol.price:.6f}", sol.label, f"{sol.value:.6f}"])
        return rows
    raise ValueError(f"unknown CLI op {spec.sub!r}")


def _numbers_match(got, ref) -> bool:
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            _numbers_match(g, r) for g, r in zip(got, ref))
    if ref is None or got is None:
        return got is ref
    want, have = _as_cli_number(ref), float(got)    # "inf" is printed as text
    if math.isinf(want) or math.isinf(have):
        return want == have
    return _rel_close(have, want, CLI_RTOL)


def check_cli(spec: CliSpec, stdout: str, ref) -> List[str]:
    """Failed checks of a CLI op that exited 0."""
    if spec.sub == "sweep":
        lines = stdout.strip().splitlines()
        if lines[:1] != ["param,price,regime,value"]:
            return ["unparsable"]
        rows = [line.split(",") for line in lines[1:]]
        ok = len(rows) == len(ref) and all(
            r[2] == f[2] and all(_numbers_match(r[i], float(f[i])) for i in (0, 1, 3))
            for r, f in zip(rows, ref))
        return [] if ok else ["sweep_mismatch"]
    if spec.sub == "verify":
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        if not rows or any(len(r) != 5 for r in rows):
            return ["unparsable"]
        fails = [f"verify_{r[0]}" for r in rows if r[4] != "pass"]
        if ref["code"] != 0 or stdout != ref["text"]:
            fails.append("verify_mismatch")
        return fails
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return ["unparsable"]
    if spec.sub in ("price", "price_power"):
        got = dict(got, candidates=[c[2] for c in got["candidates"]])
    return [f"mismatch_{k}" for k, v in ref.items() if not _numbers_match(got.get(k), v)]


# --------------------------------------------------------------------------

CYCLES = {"quote": quote_cycle, "verify": verify_cycle, "cli": cli_cycle}


def describe(spec) -> str:
    """A stable one-line identity of an op, for reproducibility checks."""
    if isinstance(spec, QuoteSpec):
        return f"{spec.kind}:{spec.mu!r}:{spec.beta!r}:{spec.s!r}:{spec.q!r}"
    if isinstance(spec, VerifySpec):
        m = spec.market
        return f"grid{spec.grid}:{m.mu!r}:{m.s!r}:{m.beta!r}:{spec.p!r}:{spec.four_point}"
    return " ".join(spec.argv)


def first_ops(workload: str, seed: int, n: int) -> List:
    ops, cycle = [], 0
    while len(ops) < n:
        ops.extend(CYCLES[workload](seed, cycle))
        cycle += 1
    return ops[:n]


