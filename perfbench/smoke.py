"""Small-size smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at a tiny input size and checks
that the last output line has exactly the contract's keys and every
metric of BENCHMARK.json with its unit; that the metric lists here match
BENCHMARK.json; that one seed always yields the same input digest; and
that a deliberately wrong verdict fed to the checkers is counted as a
failure; and that the ledger counts a repeated operation once.  Exits 0
when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def check_metric_lists() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(e2e == list(run.END_TO_END), "end-to-end metrics match BENCHMARK.json")
    expect(layers == list(tracing.LAYER_METRICS), "per-layer metrics match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads match BENCHMARK.json")
    return {"0": dict(e2e), "1": dict(layers)}


def check_runs(units: dict) -> None:
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--scale", repr(SCALE)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (got {proc.returncode}: {proc.stderr[-300:]})")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(last["correct"] is True and last["attempted"] >= 1, f"{label}: correct, attempted >= 1")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == units[trace], f"{label}: every metric present with its unit")
            finite = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in last["metrics"].values()
            )
            expect(finite, f"{label}: every value is a finite number")


def check_digests() -> None:
    for workload, (make, _run) in workloads.WORKLOADS.items():
        a = inputs.digest(make(3, SCALE))
        b = inputs.digest(make(3, SCALE))
        c = inputs.digest(make(4, SCALE))
        expect(a == b != c, f"{workload}: one seed, one input digest; another seed, another")


def check_wrong_answers_count() -> None:
    ledger = workloads.Ledger()
    row_i = inputs.center_row_draws(5, "I", 1)[0]
    ledger.check("smoke", checks.check_verdict(row_i, "FocusStable", [], 0.0, -1.0, row="I"))
    expect(ledger.failed == 1 and ledger.wrong == 1, "a wrong verdict on a row draw counts as a failure")

    # det = K (a3 b1 - a1 b3) = 1.75 > 0 at zero trace: elliptic
    elliptic = {"a1": 0.5, "b1": 2.0, "a3": 1.0, "b3": 0.5, "verdict": "NotElliptic",
                "cases": [], "L1": None, "L2": None}
    problem = checks.check_sweep_line(json.dumps(elliptic), 1.0)
    expect(problem is not None and problem[0] == "wrong", "a NotElliptic record at det > 0 is wrong")

    focus = {"a1": 0.5, "b1": 2.0, "a3": 1.0, "b3": 0.5, "verdict": "FocusStable",
             "cases": [], "L1": 0.25, "L2": None}
    problem = checks.check_sweep_line(json.dumps(focus), 1.0)
    expect(problem is not None and problem[0] == "wrong", "a stable focus with L1 > 0 is wrong")
    expect(checks.check_sweep_line("{not json", 1.0)[0] == "wrong", "a line that is not JSON is wrong")
    moved = {1e-8: 2e-7, 1e-9: 3e-8, checks.CRITERION_4_REL_TOL: 1e-6}
    expect(
        checks.check_center_returns(moved, 1.2) is not None,
        "a center map that moves x0 = 1.2 by 1e-6 at rel_tol 1e-11 is wrong",
    )
    moved = {1e-8: 3e-5, 1e-9: 3e-8, checks.CRITERION_4_REL_TOL: 1e-13}
    expect(
        checks.check_center_returns(moved, 1.2) is not None,
        "a map at rel_tol 1e-8 that moves x0 by 3e-5 more than at 1e-11 is wrong",
    )

    ledger = workloads.Ledger()
    for _ in range(3):
        ledger.raised("smoke", "InternalInconsistency", key=("op", 1))
        ledger.check("smoke", None, key=("op", 2))
    expect((ledger.attempted, ledger.failed, ledger.wrong) == (2, 1, 0), "a repeated operation counts once")
    ledger.check("smoke", "another verdict", key=("op", 2))
    expect((ledger.failed, ledger.wrong) == (2, 1), "a repeat with another outcome is a wrong answer")


def main() -> int:
    units = check_metric_lists()
    check_digests()
    check_wrong_answers_count()
    check_runs(units)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
