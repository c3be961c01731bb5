"""Command-line frontend, and the one module that turns the library's
result records into text.

Exit codes: 0 center (or successful verification), 1 focus (or failed
verification), 2 degenerate or non-elliptic equilibrium, 64 usage
error, 65 numeric or domain error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import re
import sys
from enum import Enum

from .classifier import CASE_CONSTRAINTS, CenterCase, CenterClassification, Verdict, classify
from .conserved import (
    FirstIntegral,
    IntegralCase,
    TermKind,
    build_integral,
    invariance_residual,
)
from .dynamics import (
    STEP_BUDGET_DEFAULT,
    LimitCycleReport,
    Trajectory,
    _linspace,
    bautin_scenario,
    detect_limit_cycles,
    integrate,
    poincare_return,
)
from .errors import LotkaError
from .focal import FocalBranch, FocalValues
from .model import CanonicalParams, RawLotkaParams, canonicalize
from .symmetry import r1_residual, r2_residual

EXIT_CENTER = 0
EXIT_FOCUS = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 65

_CANONICAL_FLAGS = ("a1", "b1", "a3", "b3", "K")
_RAW_FLAGS = (
    "k1",
    "k2",
    "k3",
    "k4",
    "alpha1",
    "beta1",
    "alpha2",
    "beta2",
    "alpha3",
    "beta3",
)

#: --case names: each center family in lower case, and the shared subfamily
_CASE_BY_NAME = {case.value.lower(): case for case in CenterCase} | {"r1r2": IntegralCase.R1_CAP_R2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse alone reads "-1e-3" as an unknown option; no option of
        # this CLI starts with a digit, so any "-<digit>" or "-.<digit>" is
        # a negative number
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "system parameters",
        "either the canonical exponents --a1 --b1 --a3 --b3 --K, or the raw "
        "rates --k1..--k4 with exponents --alpha1..--beta3",
    )
    for name in _CANONICAL_FLAGS:
        g.add_argument(f"--{name}", type=float, default=None, metavar="X")
    for name in _RAW_FLAGS:
        g.add_argument(f"--{name}", type=float, default=None, metavar="X")


def _params(args: argparse.Namespace) -> CanonicalParams:
    canon = [getattr(args, n) for n in _CANONICAL_FLAGS]
    raw = [getattr(args, n) for n in _RAW_FLAGS]
    have_canon = [v is not None for v in canon]
    have_raw = [v is not None for v in raw]
    if any(have_canon) and any(have_raw):
        raise _UsageError("give either canonical exponents or raw rates, not both")
    if all(have_canon):
        return CanonicalParams(*canon)
    if all(have_raw):
        c, _ = canonicalize(RawLotkaParams(*raw))
        return c
    if any(have_canon):
        missing = ", ".join(
            f"--{n}" for n, h in zip(_CANONICAL_FLAGS, have_canon) if not h
        )
        raise _UsageError(f"missing canonical flags: {missing}")
    if any(have_raw):
        missing = ", ".join(f"--{n}" for n, h in zip(_RAW_FLAGS, have_raw) if not h)
        raise _UsageError(f"missing raw-rate flags: {missing}")
    raise _UsageError(
        "system parameters required: --a1 --b1 --a3 --b3 --K (or the raw form)"
    )


def _sample_points(n: int, seed: int) -> list[tuple[float, float]]:
    if n < 1:
        raise _UsageError(f"--points must be at least 1, got {n}")
    if seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {seed}")
    rng, lo, hi = random.Random(seed), math.log(0.25), math.log(4.0)
    return [(math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))) for _ in range(n)]


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Text rendering of the library's result records


def _text(value) -> str:
    """One value as every text output prints it."""
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _render(pairs, sep: str = "=", join: str = "\n") -> str:
    """Key/value pairs as ``key<sep>value`` items joined by ``join``."""
    return join.join(f"{key}{sep}{_text(value)}" for key, value in pairs)


def _focal_pairs(fv: FocalValues) -> list[tuple[str, object]]:
    return [("L1", fv.L1), ("L2", fv.L2)]


def _witness(result: CenterClassification) -> str:
    """Why the verdict holds: the failed linear test, the focal value that
    does not vanish, or the vanishing L2 factor of each matched family."""
    fv = result.focal
    if fv is None:
        if result.verdict is Verdict.DEGENERATE_DET_ZERO:
            return "det = 0"
        return "trace != 0 or det < 0"
    if fv.L2 is None:
        return "L1 != 0"
    c2 = fv.branch is FocalBranch.CASE_C2
    if result.verdict is not Verdict.CENTER:
        if c2:
            return "b3 = 1, K = 1: none of the factors a3, 1+a3, 1+b1, a3-b1 vanishes"
        return "L1 = 0: none of the factors 1+a3-b3*K, 1-b3*K, 1-K, 1+a3+K-b3*K vanishes"
    if fv.branch is FocalBranch.CASE_A_B3_ZERO:
        return "b3 = 0"
    if fv.branch is FocalBranch.CASE_C1:
        return "b3 = 1, a3 = -1"
    matched = [fam for case, fam in CASE_CONSTRAINTS.items() if case in result.cases]
    factors = [fam.c2_factor if c2 else fam.generic_factor for fam in matched]
    tokens = [factor for factor in factors if factor]
    return "; ".join(["b3 = 1, K = 1", *tokens] if c2 else tokens)


def _classification_text(result: CenterClassification) -> str:
    pairs = [
        ("verdict", result.verdict),
        ("cases", ",".join(sorted(case.value for case in result.cases)) or None),
        ("witness", _witness(result)),
    ]
    if result.focal is not None:
        pairs += _focal_pairs(result.focal)
    return _render(pairs)


def _focal_text(fv: FocalValues) -> str:
    return _render([*_focal_pairs(fv), ("D", fv.d_value), ("branch", fv.branch)])


def _cycle_report_text(report: LimitCycleReport) -> str:
    lines = [_render([("cycles", len(report.cycles))], " = ")]
    for i, cyc in enumerate(report.cycles):
        pairs = [
            ("radius", cyc.radius),
            ("section_x", 1.0 + cyc.radius),
            ("residual", cyc.displacement),
            ("stability", cyc.stability),
        ]
        lines.append(f"cycle[{i}]: " + _render(pairs, " = ", "  "))
    signs = "".join(
        "?" if not math.isfinite(d) else ("+" if d > 0 else "-" if d < 0 else "0")
        for d in report.scan_displacements
    )
    lines.append(f"scan sign pattern over {len(report.scan_radii)} radii: {signs}")
    return "\n".join(lines)


def _trajectory_text(tr: Trajectory) -> str:
    rows = (
        "\t".join(map(_text, (t, x, y)))
        for t, (x, y) in zip(tr.times, tr.points)
    )
    return "\n".join(["t\tx\ty", *rows])


#: each first-integral term kind with its exponents in place
_TERM_BODY = {
    TermKind.POWER_X: "x^{x:g}",
    TermKind.POWER_Y: "y^{y:g}",
    TermKind.LOG_X: "ln(x)",
    TermKind.LOG_Y: "ln(y)",
    TermKind.MIXED_POWER: "x^{x:g} y^{y:g}",
    TermKind.SUM_RECIP_POWER: "(1/x + 1/y)^{x:g}",
    TermKind.SUM_POWER: "(x + y)^{x:g}",
}


def _integral_text(fi: FirstIntegral) -> str:
    parts = []
    for t in fi.terms:
        s = _TERM_BODY[t.kind].format(x=t.x_exp, y=t.y_exp)
        if t.coeff == -1.0:
            s = f"-{s}"
        elif t.coeff != 1.0:
            s = f"{t.coeff:g}*{s}"
        if parts:
            s = f"- {s[1:]}" if s.startswith("-") else f"+ {s}"
        parts.append(s)
    f = fi.factor
    if f.kind is TermKind.MIXED_POWER and f.x_exp == f.y_exp == 0.0:
        h = "1"
    else:
        h = _TERM_BODY[f.kind].format(x=f.x_exp, y=f.y_exp)
    return f"V(x, y) = {' '.join(parts)}   [integrating factor h = {h}]"


def _print_verification(what: str, n_points: int, residual: float, tol: float) -> int:
    """The residual line and the verdict line of both verify commands."""
    print(f"max scaled {what} residual over {n_points} points = {residual:.3e}")
    ok = residual <= tol
    print("PASS" if ok else f"FAIL (tolerance {tol:g})")
    return 0 if ok else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    c = _params(args)
    result = classify(c)
    print(_classification_text(result))
    if result.verdict is Verdict.CENTER:
        return EXIT_CENTER
    if result.verdict in (Verdict.FOCUS_STABLE, Verdict.FOCUS_UNSTABLE):
        return EXIT_FOCUS
    return EXIT_DEGENERATE


def _sweep_node(a1: float, b1: float, a3: float, K: float) -> dict:
    b3 = a1 / K
    rec: dict = {"a1": a1, "b1": b1, "a3": a3, "b3": b3}
    try:
        result = classify(CanonicalParams(a1, b1, a3, b3, K))
    except (LotkaError, ValueError) as exc:
        rec.update(verdict="Error", cases=[], L1=None, L2=None, error=str(exc))
        return rec
    fv = result.focal
    l1 = None if fv is None or not math.isfinite(fv.L1) else fv.L1
    l2 = None if fv is None or fv.L2 is None or not math.isfinite(fv.L2) else fv.L2
    rec.update(
        verdict=result.verdict.value,
        cases=sorted(case.value for case in result.cases),
        L1=l1,
        L2=l2,
    )
    return rec


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.K <= 0.0 or not math.isfinite(args.K):
        raise _UsageError(f"--K must be a positive finite number, got {args.K}")
    grids = []
    for name in ("a1", "b1", "a3"):
        lo, hi = getattr(args, f"{name}_range")
        steps = getattr(args, f"{name}_steps")
        if steps < 2:
            raise _UsageError(f"--{name}-steps must be at least 2, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise _UsageError(f"--{name}-range must be a finite increasing pair")
        if not math.isfinite(hi - lo):
            raise _UsageError(f"--{name}-range {lo!r} {hi!r} spans more than a float holds")
        grids.append(_linspace(lo, hi, steps))
    # |a1| is largest at the ends of its axis, and so is |b3| = |a1|/K
    for a1 in (grids[0][0], grids[0][-1]):
        if not math.isfinite(a1 / args.K):
            raise _UsageError(f"--K {args.K!r} makes b3 = a1/K infinite at a1 = {a1!r}")

    out = sys.stdout if args.out == "-" else _open_out(args.out)
    n = 0
    try:
        for a1, b1, a3 in itertools.product(*grids):
            rec = _sweep_node(a1, b1, a3, args.K)
            out.write(json.dumps(rec, allow_nan=False) + "\n")
            n += 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"{n} records", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    c = _params(args)
    tr = integrate(
        c,
        (args.x0, args.y0),
        args.t_max,
        args.rel_tol,
        step_budget=args.max_steps,
    )
    text = _trajectory_text(tr)
    if args.out == "-":
        print(text)
    else:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
    summary = [
        ("termination", tr.termination),
        ("accepted", tr.n_accepted),
        ("rejected", tr.n_rejected),
    ]
    print(_render(summary, " = ", "  "), file=sys.stderr)
    return 0


def _cmd_poincare(args: argparse.Namespace) -> int:
    c = _params(args)
    rec = poincare_return(c, args.x0, args.rel_tol)
    print(_render(rec._asdict().items(), " = "))
    return 0


def _cmd_cycles(args: argparse.Namespace) -> int:
    c = _params(args)
    report = detect_limit_cycles(c, args.r_min, args.r_max, args.n_scan)
    print(_cycle_report_text(report))
    return 0


def _cmd_verify_integral(args: argparse.Namespace) -> int:
    c = _params(args)
    pts = _sample_points(args.points, args.seed)
    fi = build_integral(_CASE_BY_NAME[args.case], c)
    residual = invariance_residual(fi, c, pts)
    print(_integral_text(fi))
    return _print_verification("gradient", args.points, residual, args.tol)


def _cmd_verify_reversible(args: argparse.Namespace) -> int:
    c = _params(args)
    pts = _sample_points(args.points, args.seed)
    residual_fn = r1_residual if args.family == "r1" else r2_residual
    residual = residual_fn(c, pts)
    return _print_verification(args.family, args.points, residual, args.tol)


def _cmd_bautin(args: argparse.Namespace) -> int:
    result = bautin_scenario(args.b1, args.a3, args.dK)
    print("# base (trace = 0, first focal value = 0)")
    print(_focal_text(result.base_focal))
    print("# stage 1: K perturbed, trace still 0")
    print(_focal_text(result.stage1_focal))
    print(_cycle_report_text(result.stage1_report))
    print(f"# stage 2: a1 = K - eps, eps = {_text(result.stage2_eps)}")
    print(_cycle_report_text(result.stage2_report))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lotkacenter",
        description="Center-focus analysis of planar power-law predator-prey systems.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("classify", help="verdict, matched center families, focal values")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "sweep",
        help="classify a 3-D grid over (a1, b1, a3) at fixed K with b3 = a1/K",
    )
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--a1-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--b1-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--a3-range", type=float, nargs=2, default=(-3.0, 3.0), metavar=("LO", "HI"))
    p.add_argument("--a1-steps", type=int, default=50)
    p.add_argument("--b1-steps", type=int, default=50)
    p.add_argument("--a3-steps", type=int, default=50)
    p.add_argument("--out", default="-", help="output path for JSON lines, - for stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="integrate one trajectory, emit t, x, y columns")
    _add_param_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--max-steps", type=int, default=STEP_BUDGET_DEFAULT)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("poincare", help="one return-map evaluation on the section")
    _add_param_flags(p)
    p.add_argument("--x0", type=float, required=True, help="in-section coordinate, > 1")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("cycles", help="scan for limit cycles by displacement sign change")
    _add_param_flags(p)
    p.add_argument("--r-min", type=float, default=0.02)
    p.add_argument("--r-max", type=float, default=1.5)
    p.add_argument("--n-scan", type=int, default=30)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser(
        "verify-integral", help="check a first integral's gradient residual"
    )
    _add_param_flags(p)
    p.add_argument("--case", required=True, choices=sorted(_CASE_BY_NAME))
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_verify_integral)

    p = sub.add_parser(
        "verify-reversible", help="check a reflection-reversibility identity"
    )
    _add_param_flags(p)
    p.add_argument("--family", required=True, choices=["r1", "r2"])
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_verify_reversible)

    p = sub.add_parser(
        "bautin", help="two-stage construction of coexisting limit cycles"
    )
    p.add_argument("--b1", type=float, required=True)
    p.add_argument("--a3", type=float, required=True)
    p.add_argument("--dK", type=float, required=True)
    p.set_defaults(func=_cmd_bautin)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if not hasattr(args, "func"):
        _PARSER.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LotkaError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
