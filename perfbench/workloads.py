"""The atlas, cycles and certify workloads.

Each workload has an input builder (seed only) and a runner.  Runners
call the package through module attributes looked up at call time
(``lc.classify``, ``lc.cli.main``), so that the tracer's rebinding of
those attributes sees every call the benchmark makes.

Untraced runs repeat rounds of fixed work until the next round would end
after ``seconds``, with at least MIN_ROUNDS rounds.  Every operation is
timed once per round, and its wall time is adjusted for the host's speed
at that moment (``Meter``); each operation keeps the median of its
adjusted times, and the reported figures are medians, high percentiles
and sums of these per-operation medians.  Traced runs do
one round untraced, one traced and one untraced again, which gives the
trace overhead; the layer metrics a workload does not exercise come from
a small census of every traced function (``census``).
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import lotkacenter as lc
import lotkacenter.cli  # noqa: F401  (lc.cli)

import checks
import inputs
from tracing import Tracer

MIN_ROUNDS = 2
#: the reference loop of ``Meter``: its length, how often it runs, and
#: the time it takes on the host speed that adjusted times refer to
#: (about its fastest time on a 2-vCPU Xeon sandbox)
REF_ITERS = 1_250
REF_EVERY_NS = 50_000_000
REF_NOMINAL_NS = 2_000_000
#: near-locus passes before and after each sweep of an atlas round
NEAR_LOCUS_PASSES = 3
SWEEP_K = 1.0
SCAN_R_MIN, SCAN_R_MAX, SCAN_N = 0.02, 1.5, 30
#: the scan tail: the highest percentile with ten of the 40 systems beyond it
SCAN_TAIL_Q = 75
CERTIFY_TOLS = (1e-8, 1e-9, 1e-11)
LYAPUNOV_ORDERS = (1, 2, 4)
TAYLOR_DEGREE = 2 * max(LYAPUNOV_ORDERS) + 1
RESIDUAL_POINTS = 100
#: input size of the census, as a share of each workload's own
CENSUS_SCALE = 0.02
CENTER_INTEGRAL_ROWS = ("I", "II", "III", "IV")

_NS = time.perf_counter_ns
#: the ledger's mark for an operation whose outcome changed on a repeat
_CHANGED = object()


class Ledger:
    """Operations attempted and failed.  A failure is either a raise
    (the program refused to answer) or a wrong answer caught by a
    check; only wrong answers make the run incorrect.

    An operation that carries a ``key`` is counted once however often a
    run repeats it, so ``attempted`` and ``failed`` depend on the inputs
    and not on how many rounds fit in the time.  A repeat whose outcome
    differs from the first is a wrong answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.examples: list[str] = []
        self._first: dict = {}

    def _fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures[label] += 1
        if len(self.examples) < 8:
            self.examples.append(f"{label}: {reason}")

    def _repeat(self, key, group: str, outcome: str | None) -> bool:
        """True when ``key`` was recorded before; flags a changed outcome."""
        if key is None:
            return False
        if key not in self._first:
            self._first[key] = outcome
            return False
        first = self._first[key]
        if first != outcome and first is not _CHANGED:
            self._first[key] = _CHANGED
            self.wrong += 1
            if first is None:
                self._fail(f"{group}: changed", f"first ok, then {outcome}")
            else:
                self.failures[f"{group}: changed"] += 1
        return True

    def check(self, group: str, reason: str | None, key=None) -> None:
        if self._repeat(key, group, reason):
            return
        self.attempted += 1
        if reason is not None:
            self.wrong += 1
            self._fail(f"{group}: wrong", reason)

    def raised(self, group: str, exc: BaseException | str, key=None) -> None:
        name = exc if isinstance(exc, str) else type(exc).__name__
        if self._repeat(key, group, f"raised {name}"):
            return
        self.attempted += 1
        self._fail(f"{group}: {name}", str(exc))

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "failures": dict(self.failures),
            "examples": self.examples,
        }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


_REF_START = np.linspace(0.1, 2.0, 6)


def reference_ns(clock=_NS) -> int:
    """Time of a fixed loop of small numpy operations on ``clock``, in ns."""
    t0 = clock()
    y = _REF_START
    for _ in range(REF_ITERS):
        y = np.sqrt(y * 1.0001 + 0.5)
    return clock() - t0


class Meter:
    """Wall times adjusted for the speed of a shared host.

    Other tenants of a shared host slow the same code by up to 1.6 times
    from one moment to the next, and the slowdown drifts over minutes, so
    raw wall times of one run differ from the next run's by 20% or more,
    even the fastest of several repetitions.  The slowdown hits the
    program and a loop of small numpy operations alike.  So the meter
    runs that loop as a reference whenever REF_EVERY_NS of workload time
    have passed since the last run (``tick``, called between
    operations), and scales each operation's wall time by REF_NOMINAL_NS
    over the mean of the reference times around it: the runs just before
    and just after it and, since none runs inside an operation, every
    run within half the operation's duration of its start or end.  The
    result is the time the operation takes on a host that runs the
    reference loop in REF_NOMINAL_NS.  An operation that runs threads of
    its own (the sweep) runs inside ``sampling``, which adds reference
    runs during it.  The reference is the benchmark's own code, so a
    change to the program moves adjusted times as much as raw ones."""

    def __init__(self) -> None:
        self.ref_end: list[int] = []
        self.ref_ns: list[int] = []

    def ref(self) -> None:
        self.ref_ns.append(reference_ns())
        self.ref_end.append(_NS())

    def tick(self) -> None:
        if not self.ref_end or _NS() - self.ref_end[-1] >= REF_EVERY_NS:
            self.ref()

    @contextmanager
    def sampling(self):
        """Reference runs on a second thread, one every REF_EVERY_NS
        while the body runs.  Each is timed by the thread's CPU time,
        which leaves out its waits for the interpreter lock; it holds
        the lock while it runs, so the body loses about 5% of the lock."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(REF_EVERY_NS / 1e9):
                self.ref_ns.append(reference_ns(time.thread_time_ns))
                self.ref_end.append(_NS())

        thread = threading.Thread(target=sample, name="reference")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def adjust(self, spans) -> np.ndarray:
        """Adjusted durations in ns of (start, end) pairs, given in an
        array of any shape whose last axis holds the pair."""
        s = np.asarray(spans, dtype=np.int64)
        start, end = s[..., 0], s[..., 1]
        half = (end - start) // 2
        ends = np.asarray(self.ref_end, dtype=np.int64)
        total = np.concatenate([[0.0], np.cumsum(np.asarray(self.ref_ns, dtype=float))])
        last = len(ends) - 1
        before = np.clip(np.searchsorted(ends, start, "right") - 1, 0, last)
        after = np.clip(np.searchsorted(ends, end, "left"), 0, last)
        lo = np.minimum(np.searchsorted(ends, start - half, "left"), before)
        hi = np.maximum(np.searchsorted(ends, end + half, "right"), after + 1)
        slowdown = (total[hi] - total[lo]) / (hi - lo) / REF_NOMINAL_NS
        return (end - start) / slowdown

    def per_op(self, rounds: list[array]) -> tuple[np.ndarray, np.ndarray]:
        """Each operation's median adjusted and median raw time in ns;
        ``rounds`` holds one flat array of start, end, start, end, ...
        per round, the operations in the same order in every round (flat
        machine integers, so that a run's memory does not grow with the
        rounds it fits)."""
        s = np.asarray(rounds, dtype=np.int64).reshape(len(rounds), -1, 2)
        raw = (s[..., 1] - s[..., 0]).astype(float)
        return np.median(self.adjust(s), axis=0), np.median(raw, axis=0)

    def as_dict(self) -> dict:
        refs = np.asarray(self.ref_ns, dtype=float) / 1e6
        return {
            "runs": len(refs),
            "median_ms": float(np.median(refs)),
            "fastest_ms": float(refs.min()),
            "slowest_ms": float(refs.max()),
        }


def overhead_ratio(untraced, traced) -> tuple[float, float]:
    """Run ``untraced``, ``traced`` and ``untraced`` again, each
    returning its wall time; the traced time over the mean untraced
    time, so a drift in machine speed during the three mostly cancels.
    Returns (ratio, mean untraced time)."""
    before = untraced()
    during = traced()
    plain = 0.5 * (before + untraced())
    return during / plain, plain


def repeat_rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` until the next call would end after
    ``seconds``, and at least MIN_ROUNDS times."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        one_round()
        rounds += 1
        last = time.perf_counter() - r0


def _params(p: tuple):
    return lc.CanonicalParams(*p)


def _fields(c) -> tuple:
    return (c.a1, c.b1, c.a3, c.b3, c.K)


# ---------------------------------------------------------------------------
# atlas


def atlas_inputs(seed: int, scale: float = 1.0) -> dict:
    """The near-locus set is the same for every seed, so the known
    raises on it are the same count in every run; the seed draws the
    kinetic rates of its raw-form slice."""
    near = inputs.near_locus_set(inputs.NEAR_LOCUS_SEED, max(2, round(300 * scale)))
    raw_idx = list(range(0, len(near), 8))
    raw = inputs.raw_form(seed, [near[i]["params"] for i in raw_idx])
    steps = max(3, round(50 * scale ** (1.0 / 3.0)))
    return {"near": near, "raw": list(zip(raw_idx, raw)), "steps": steps}


def near_locus_pass(
    near: list[dict], ledger: Ledger, meter: Meter | None = None, spans: array | None = None, tag: str = "near"
) -> None:
    """One ``classify`` call per near-locus draw, each timed into
    ``spans`` as start, end when a meter is given."""
    classify = lc.classify
    for i, d in enumerate(near):
        p = d["params"]
        c = _params(p)
        group = f"near-locus s={d['scale']:g}"
        if meter is not None:
            meter.tick()
        t0 = _NS()
        try:
            result = classify(c)
        except Exception as exc:  # the program's refusal is a counted failure
            t1 = _NS()
            ledger.raised(group, exc, key=(tag, i))
        else:
            t1 = _NS()
            row = d["group"] if d["scale"] == 0.0 and d["group"] in inputs.ROWS else None
            ledger.check(group, checks.check_classification(p, result, row), key=(tag, i))
        if spans is not None:
            spans.extend((t0, t1))


def raw_pass(data: dict, ledger: Ledger, tag: str = "raw") -> None:
    near = data["near"]
    for i, raw in data["raw"]:
        try:
            c, _eq = lc.canonicalize(lc.RawLotkaParams(*raw))
            result = lc.classify(c)
        except Exception as exc:
            ledger.raised("raw-form", exc, key=(tag, i))
            continue
        reason = checks.check_raw_reduction(raw, c, near[i]["params"])
        ledger.check("raw-form", reason or checks.check_classification(_fields(c), result), key=(tag, i))


def run_sweep(path: Path, steps: int, ledger: Ledger) -> tuple[int, int]:
    """The sweep subcommand at K = 1 with its default grid (or ``steps``
    points per axis); returns its (start, end) in ns."""
    argv = ["sweep", "--K", "1", "--out", str(path)]
    if steps != 50:
        for axis in ("a1", "b1", "a3"):
            argv += [f"--{axis}-steps", str(steps)]
    t0 = _NS()
    rc = lc.cli.main(argv)
    t1 = _NS()
    if rc != 0:
        ledger.raised("sweep", f"exit code {rc}", key=("sweep", str(path)))
    return t0, t1


def _seconds(span: tuple[int, int]) -> float:
    return (span[1] - span[0]) / 1e9


def check_sweep(path: Path, steps: int, ledger: Ledger) -> None:
    n = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            n += 1
            problem = checks.check_sweep_line(line, SWEEP_K)
            if problem is None:
                ledger.check("sweep", None)
            elif problem[0] == "raised":
                ledger.raised("sweep", f"Error record: {problem[1]}")
            else:
                ledger.check("sweep", problem[1])
    if n != steps**3:
        ledger.check("sweep", f"sweep wrote {n} records, expected {steps ** 3}")


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def checked_sweep(
    path: Path, steps: int, ledger: Ledger, first: list[str], meter: Meter | None = None
) -> tuple[int, int]:
    """One sweep, with the meter sampling during it when one is given;
    the first sweep of a run has every record checked, a later one must
    write the same bytes.  Returns the sweep's (start, end)."""
    if meter is None:
        span = run_sweep(path, steps, ledger)
    else:
        meter.ref()
        with meter.sampling():
            span = run_sweep(path, steps, ledger)
        meter.ref()
    digest = file_digest(path)
    if not first:
        first.append(digest)
        check_sweep(path, steps, ledger)
    elif digest != first[0]:
        ledger.check("sweep", "a repeated sweep wrote other records than the first")
    return span


def classify_loop(steps: int) -> float:
    """Single-thread classify over the sweep's grid: the part of the
    sweep's wall time that classification alone needs."""
    grid = inputs.sweep_grid(steps)
    classify, params = lc.classify, lc.CanonicalParams
    t0 = time.perf_counter()
    for a1 in grid:
        b3 = a1 / SWEEP_K
        for b1 in grid:
            for a3 in grid:
                try:
                    classify(params(a1, b1, a3, b3, SWEEP_K))
                except Exception:  # counted by the sweep's own records
                    pass
    return time.perf_counter() - t0


def atlas(data: dict, seconds: float, outdir: Path, ledger: Ledger, trace: bool) -> dict:
    path = outdir / "atlas-sweep.jsonl"
    steps = data["steps"]
    if trace:
        return _atlas_traced(data, path, ledger)
    meter = Meter()
    passes: list[array] = []
    sweeps: list[array] = []
    first: list[str] = []

    def near_passes() -> None:
        for _ in range(NEAR_LOCUS_PASSES):
            passes.append(array("q"))
            near_locus_pass(data["near"], ledger, meter, passes[-1])

    def one_round() -> None:
        near_passes()
        raw_pass(data, ledger)
        sweeps.append(array("q", checked_sweep(path, steps, ledger, first, meter)))
        near_passes()

    repeat_rounds(seconds, one_round)
    meter.ref()
    call_us, call_raw_us = (v / 1e3 for v in meter.per_op(passes))
    sweep_s, sweep_raw_s = (float(v[0]) / 1e9 for v in meter.per_op(sweeps))
    p50_us, p99_us = percentile(call_us, 50), percentile(call_us, 99)
    per_call = f"{len(call_us)} calls, median of {len(passes)}"
    return {
        "e2e": {"batch_s": sweep_s, "op_p50_ms": p50_us / 1e3, "op_tail_ms": p99_us / 1e3},
        "detail": {
            "sweep_points_per_s": (steps**3 / sweep_s, "1/s", f"median of {len(sweeps)} sweeps"),
            "classify_p50_us": (p50_us, "us", per_call),
            "classify_p99_us": (p99_us, "us", per_call),
            "raw.sweep_s": (sweep_raw_s, "s", f"median of {len(sweeps)} sweeps"),
            "raw.classify_p50_us": (percentile(call_raw_us, 50), "us", per_call),
            "raw.classify_p99_us": (percentile(call_raw_us, 99), "us", per_call),
        },
        "meter": meter.as_dict(),
    }


def _atlas_traced(data: dict, path: Path, ledger: Ledger) -> dict:
    """The sweep runs untraced only: its thread pool would put waits for
    the interpreter lock into every span.  The layer costs come from the
    same grid classified in one thread, traced inside a ``grid`` span."""
    steps = data["steps"]
    untraced = _seconds(checked_sweep(path, steps, ledger, []))
    tracer = Tracer()

    def traced_loop() -> float:
        with tracer.installed(), tracer.span("grid"):
            return classify_loop(steps)

    ratio, loop = overhead_ratio(lambda: classify_loop(steps), traced_loop)
    with tracer.installed():
        near_locus_pass(data["near"], ledger)
        raw_pass(data, ledger)
    extra = {"sweep_overhead_s": untraced - loop, "overhead_ratio": ratio}
    return {"tracer": tracer, "extra": extra}


# ---------------------------------------------------------------------------
# cycles


def cycles_inputs(seed: int, scale: float = 1.0) -> dict:
    return {"bases": inputs.BAUTIN_BASES, "systems": inputs.scan_systems(seed, max(3, round(40 * scale)))}


def bautin_call(base: tuple, ledger: Ledger, key=None) -> int:
    """One checked Bautin construction; returns the cycles its two
    stages report (0 when it raised)."""
    try:
        result = lc.bautin_scenario(*base)
    except Exception as exc:
        ledger.raised("bautin", exc, key)
        return 0
    ledger.check("bautin", checks.check_bautin(result), key)
    return len(result.stage1_report.cycles) + len(result.stage2_report.cycles)


def scan_call(system: dict, ledger: Ledger, key=None) -> None:
    try:
        report = lc.detect_limit_cycles(_params(system["params"]), SCAN_R_MIN, SCAN_R_MAX, SCAN_N)
    except Exception as exc:
        ledger.raised("scan", exc, key)
        return
    ledger.check("scan", checks.check_scan(report, SCAN_R_MIN, SCAN_R_MAX), key)


def cycles_round(
    data: dict, ledger: Ledger, meter: Meter | None = None, bautins: array | None = None, scans: array | None = None
) -> int:
    """Each Bautin base followed by the scans of its share of the
    systems (so the long Bautin calls never run back to back and the
    meter has reference runs on both sides of each), every call timed
    into its array as start, end when a meter is given.  Returns the
    cycles the Bautin results report."""
    found = 0
    systems = data["systems"]
    share = -(-len(systems) // len(data["bases"]))
    for b, base in enumerate(data["bases"]):
        if meter is not None:
            meter.tick()
        t0 = _NS()
        found += bautin_call(base, ledger, ("bautin", b))
        if bautins is not None:
            bautins.extend((t0, _NS()))
        for i in range(b * share, min(len(systems), (b + 1) * share)):
            if meter is not None:
                meter.tick()
            t0 = _NS()
            scan_call(systems[i], ledger, ("scan", i))
            if scans is not None:
                scans.extend((t0, _NS()))
    return found


def cycles(data: dict, seconds: float, outdir: Path, ledger: Ledger, trace: bool) -> dict:
    if trace:
        return _cycles_traced(data, ledger)
    meter = Meter()
    bautin_rounds: list[array] = []
    scan_rounds: list[array] = []

    def one_round() -> None:
        bautin_rounds.append(array("q"))
        scan_rounds.append(array("q"))
        cycles_round(data, ledger, meter, bautin_rounds[-1], scan_rounds[-1])

    repeat_rounds(seconds, one_round)
    meter.ref()
    bautin_s, bautin_raw_s = (v / 1e9 for v in meter.per_op(bautin_rounds))
    scan_ms, scan_raw_ms = (v / 1e6 for v in meter.per_op(scan_rounds))
    n = f"{len(scan_ms)} systems, median of {len(scan_rounds)}"
    m = f"median of {len(bautin_rounds)}"
    tail = f"scan_p{SCAN_TAIL_Q}_ms"
    round_s = float(bautin_s.sum() + scan_ms.sum() / 1e3)
    detail = {"round_s": (round_s, "s", m)}
    detail.update({f"bautin_s.base{i + 1}": (float(v), "s", m) for i, v in enumerate(bautin_s)})
    detail["scan_p50_ms"] = (percentile(scan_ms, 50), "ms", n)
    detail[tail] = (percentile(scan_ms, SCAN_TAIL_Q), "ms", n)
    detail["raw.round_s"] = (float(bautin_raw_s.sum() + scan_raw_ms.sum() / 1e3), "s", m)
    detail["raw.bautin_s"] = (float(bautin_raw_s.sum()), "s", m)
    detail["raw.scan_p50_ms"] = (percentile(scan_raw_ms, 50), "ms", n)
    detail[f"raw.{tail}"] = (percentile(scan_raw_ms, SCAN_TAIL_Q), "ms", n)
    return {
        "e2e": {
            "batch_s": round_s,
            "op_p50_ms": percentile(scan_ms, 50),
            "op_tail_ms": percentile(scan_ms, SCAN_TAIL_Q),
        },
        "detail": detail,
        "meter": meter.as_dict(),
    }


def integrate_probe(params: list[tuple], ledger: Ledger) -> int:
    """One linear period of ``integrate`` from (1.2, 1) per system, for
    the cost per accepted step.  Returns the accepted steps."""
    steps = 0
    for p in params:
        period = 2.0 * math.pi / math.sqrt(inputs.det(p))
        try:
            tr = lc.integrate(_params(p), (inputs.CERTIFY_X0, 1.0), period, 1e-9)
        except Exception as exc:
            ledger.raised("integrate", exc)
            continue
        ledger.check("integrate", None if tr.n_accepted > 0 else "no accepted step")
        steps += tr.n_accepted
    return steps


def _cycles_traced(data: dict, ledger: Ledger) -> dict:
    tracer = Tracer()
    found = []

    def one_round() -> float:
        t0 = time.perf_counter()
        found.append(cycles_round(data, ledger))
        return time.perf_counter() - t0

    def traced_round() -> float:
        with tracer.installed():
            return one_round()

    ratio, _ = overhead_ratio(one_round, traced_round)
    with tracer.installed():
        steps = integrate_probe([s["params"] for s in data["systems"]], ledger)
    extra = {"overhead_ratio": ratio, "bautin_cycles": found[1], "integrate_steps": steps}
    return {"tracer": tracer, "extra": extra}


# ---------------------------------------------------------------------------
# certify


def certify_inputs(seed: int, scale: float = 1.0) -> dict:
    mix = inputs.certify_mix(
        seed, max(1, round(10 * scale)), max(1, round(15 * scale)), max(1, round(30 * scale))
    )
    return {"mix": mix, "points": inputs.quadrant_points(seed, RESIDUAL_POINTS)}


def evidence_bundle(item: dict, pts: list, ledger: Ledger, key=None) -> None:
    """Every piece of evidence for one system; one operation, failed if
    any piece raises or fails its check."""
    kind, p = item["kind"], item["params"]
    c = _params(p)
    problems: list[str | None] = []
    raised: list[BaseException] = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raised.append(exc)
            return None

    result = attempt(lc.classify, c)
    tf = attempt(lc.taylor_expand, c, TAYLOR_DEGREE)
    ells = [attempt(lc.lyapunov_numeric, tf, o) for o in LYAPUNOV_ORDERS] if tf is not None else []
    recs = [attempt(lc.poincare_return, c, inputs.CERTIFY_X0, tol) for tol in CERTIFY_TOLS]
    residual = None
    if kind in CENTER_INTEGRAL_ROWS:
        fi = attempt(lc.build_integral, lc.CenterCase(kind), c)
        if fi is not None:
            residual = attempt(lc.invariance_residual, fi, c, pts)
        bound = checks.INTEGRAL_RESIDUAL_MAX
    elif kind in ("R1", "R2"):
        residual = attempt(lc.r1_residual if kind == "R1" else lc.r2_residual, c, pts)
        bound = checks.REVERSIBLE_RESIDUAL_MAX

    if result is not None:
        row = kind if kind in inputs.ROWS else None
        problems.append(checks.check_classification(p, result, row))
        if result.focal is not None and ells and ells[0] is not None:
            problems.append(checks.check_l1_sign(result.focal.L1, ells[0].ell[0]))
    if kind in inputs.ROWS:
        displacements = {tol: rec.displacement for tol, rec in zip(CERTIFY_TOLS, recs) if rec is not None}
        problems.append(checks.check_center_returns(displacements, inputs.CERTIFY_X0))
        if residual is not None:
            problems.append(checks.check_residual(residual, bound, f"row {kind}"))
    problems = [x for x in problems if x is not None]
    if raised:
        ledger.raised(f"bundle {kind}", raised[0], key)
    else:
        ledger.check(f"bundle {kind}", problems[0] if problems else None, key)


def certify_pass(
    data: dict,
    ledger: Ledger,
    meter: Meter | None = None,
    spans: array | None = None,
    tracer: Tracer | None = None,
    tag: str = "bundle",
) -> None:
    """One evidence bundle per system, each timed into ``spans`` as
    start, end when a meter is given."""
    for i, item in enumerate(data["mix"]):
        if meter is not None:
            meter.tick()
        t0 = _NS()
        if tracer is None:
            evidence_bundle(item, data["points"], ledger, (tag, i))
        else:
            with tracer.span("bundle"):
                evidence_bundle(item, data["points"], ledger, (tag, i))
        if spans is not None:
            spans.extend((t0, _NS()))


def certify(data: dict, seconds: float, outdir: Path, ledger: Ledger, trace: bool) -> dict:
    if trace:
        return _certify_traced(data, ledger)
    meter = Meter()
    rounds: list[array] = []

    def one_round() -> None:
        rounds.append(array("q"))
        certify_pass(data, ledger, meter, rounds[-1])

    repeat_rounds(seconds, one_round)
    meter.ref()
    bundle_ms, raw_ms = (v / 1e6 for v in meter.per_op(rounds))
    p50, p90 = percentile(bundle_ms, 50), percentile(bundle_ms, 90)
    n = f"{len(bundle_ms)} bundles, median of {len(rounds)}"
    return {
        "e2e": {"batch_s": float(bundle_ms.sum()) / 1e3, "op_p50_ms": p50, "op_tail_ms": p90},
        "detail": {
            "evidence_p50_ms": (p50, "ms", n),
            "evidence_p90_ms": (p90, "ms", n),
            "raw.evidence_batch_s": (float(raw_ms.sum()) / 1e3, "s", n),
            "raw.evidence_p50_ms": (percentile(raw_ms, 50), "ms", n),
            "raw.evidence_p90_ms": (percentile(raw_ms, 90), "ms", n),
        },
        "meter": meter.as_dict(),
    }


def _certify_traced(data: dict, ledger: Ledger) -> dict:
    tracer = Tracer()

    def one_round(with_tracer: Tracer | None = None) -> float:
        t0 = time.perf_counter()
        certify_pass(data, ledger, tracer=with_tracer)
        return time.perf_counter() - t0

    def traced_round() -> float:
        with tracer.installed():
            return one_round(tracer)

    ratio, _ = overhead_ratio(one_round, traced_round)
    with tracer.installed():
        steps = integrate_probe([m["params"] for m in data["mix"]], ledger)
    extra = {"overhead_ratio": ratio, "integrate_steps": steps}
    return {"tracer": tracer, "extra": extra}


# ---------------------------------------------------------------------------
# census


def census(seed: int, outdir: Path, ledger: Ledger) -> dict:
    """A few traced calls of every traced function, on the inputs of
    all three workloads at CENSUS_SCALE: the sweep (untraced) and its
    grid, the near-locus set and its raw forms, one evidence bundle per
    system kind, a return map at rel_tol 1e-10, an ``integrate`` probe
    and the first Bautin base.  It supplies the layer metrics a workload
    does not exercise."""
    atlas_data = atlas_inputs(seed, CENSUS_SCALE)
    certify_data = certify_inputs(seed, CENSUS_SCALE)
    steps = atlas_data["steps"]
    path = outdir / "census-sweep.jsonl"
    untraced = _seconds(run_sweep(path, steps, ledger))
    check_sweep(path, steps, ledger)
    loop = classify_loop(steps)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("grid"):
            classify_loop(steps)
        near_locus_pass(atlas_data["near"], ledger, tag="census near")
        raw_pass(atlas_data, ledger, tag="census raw")
        certify_pass(certify_data, ledger, tracer=tracer, tag="census bundle")
        first = certify_data["mix"][0]["params"]
        try:
            lc.poincare_return(_params(first), inputs.CERTIFY_X0, 1e-10)
            ledger.check("census return map", None)
        except Exception as exc:
            ledger.raised("census return map", exc)
        steps_taken = integrate_probe([m["params"] for m in certify_data["mix"]], ledger)
        found = bautin_call(inputs.BAUTIN_BASES[0], ledger)
    extra = {
        "sweep_overhead_s": untraced - loop,
        "bautin_cycles": found,
        "integrate_steps": steps_taken,
    }
    return {"tracer": tracer, "extra": extra}


WORKLOADS = {
    "atlas": (atlas_inputs, atlas),
    "cycles": (cycles_inputs, cycles),
    "certify": (certify_inputs, certify),
}
