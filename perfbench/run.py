"""Benchmark entry point for lotkacenter.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Workloads: atlas (classification throughput), cycles (cycle search) and
certify (evidence for one system at a time); README.md in this directory
says why each was chosen.  Run it from the root of a checkout: the
package is imported from ``src`` there and nowhere else.

Each run starts SETUP_SAMPLES fresh interpreters one after another, all
building the same inputs.  All but the last stop once set up; the time
from start to set up of each gives ``setup_s`` (the median), and their
input digests must agree.  The last one runs the workload.  With
``--trace 1`` one more interpreter reports import times
(``python -X importtime``), and the metrics are the per-layer ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Above it come the metrics under
the names of the rationale document, then a JSON record of the run's
environment and ledger, which is also written to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_runs"
WORKLOADS = ("atlas", "cycles", "certify")
SETUP_SAMPLES = 5
#: the whole run, every interpreter included, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("batch_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


#: a fixed hash seed, so string hashing does not vary from one worker
#: interpreter to the next
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class RunFailed(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("deadline passed")
    return left


def _spawn_ready(cmd: list[str], log, deadline: float):
    """Start one worker and wait for its ``ready`` line.  Returns
    (process, seconds from start to ready, input digest)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True, env=WORKER_ENV)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        digest = proc.stdout.readline().split()
        if line.strip() != "ready" or len(digest) != 2 or digest[0] != "digest":
            raise RunFailed(f"worker did not set up (got {line.strip()!r})")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed, digest[1]


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def import_times(deadline: float) -> dict[str, float]:
    """Import cost of numpy, scipy and lotkacenter's own modules in a
    fresh interpreter, from ``-X importtime``.  Each module's self time
    goes to the nearest enclosing numpy or scipy import, else to
    lotkacenter when it was imported on lotkacenter's behalf."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import lotkacenter.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise RunFailed(f"import of lotkacenter failed: {proc.stderr[-500:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cum, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append([depth, name.strip(), int(self_us), None])
    # importtime prints children before their parent, one level deeper
    stack: list[list] = []
    for row in reversed(rows):
        while stack and stack[-1][0] >= row[0]:
            stack.pop()
        row[3] = stack[-1] if stack else None
        stack.append(row)
    totals = {"numpy": 0, "scipy": 0, "lotkacenter": 0}
    for row in rows:
        owner = None
        node = row
        while node is not None:
            top = node[1].split(".")[0]
            if top in ("numpy", "scipy"):
                owner = top
                break
            if top == "lotkacenter" and owner is None:
                owner = "lotkacenter"
            node = node[3]
        if owner is not None:
            totals[owner] += row[2]
    return {f"setup.import_{k}_s": v / 1e6 for k, v in totals.items()}


def environment(args) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "LOTKA_THREADS": os.environ.get("LOTKA_THREADS"),
        "LOTKA_THREADS_set": "LOTKA_THREADS" in os.environ,
        "PYTHONHASHSEED": WORKER_ENV["PYTHONHASHSEED"],
    }


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUTDIR.mkdir(exist_ok=True)
    base = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", repr(args.scale),
        "--outdir", str(OUTDIR),
    ]
    setups: list[float] = []
    digests: list[str] = []
    with open(OUTDIR / f"{args.workload}-worker.log", "w", encoding="utf-8") as log:
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed, digest = _spawn_ready(base + ["--setup-only"], log, deadline)
            try:
                proc.wait(timeout=_remaining(deadline))
            finally:
                _stop(proc)
            setups.append(elapsed)
            digests.append(digest)
        proc, elapsed, digest = _spawn_ready(base, log, deadline)
        try:
            out, _ = proc.communicate(timeout=_remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed("workload did not finish before the deadline") from exc
        finally:
            _stop(proc)
        setups.append(elapsed)
        digests.append(digest)
    if proc.returncode != 0 or not out.strip():
        tail = (OUTDIR / f"{args.workload}-worker.log").read_text(encoding="utf-8")[-2000:]
        raise RunFailed(f"worker exited with code {proc.returncode}\n{tail}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    result["digests"] = digests
    if args.trace:
        result["layers"].update(import_times(deadline))
    else:
        result["e2e"]["setup_s"] = statistics.median(setups)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor; below 1 for smoke checks")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lotkacenter" / "__init__.py").is_file():
        print(f"no lotkacenter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RunFailed, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    ledger = result["ledger"]
    digests_agree = len(set(result["digests"])) == 1
    if args.trace:
        names, values = LAYER_METRICS, result["layers"]
    else:
        names, values = END_TO_END, result["e2e"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    print(f"# lotkacenter benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in names:
        note = " (census)" if name in result.get("from_census", ()) else ""
        print(f"{name:34s} {values[name]!r:>24} {unit}{note}")
    for name, (value, unit, n) in result.get("detail", {}).items():
        print(f"{name:34s} {value!r:>24} {unit} (n={n})")
    print(f"{'failed_ratio':34s} {ledger['failed'] / max(1, ledger['attempted'])!r:>24} ratio "
          f"({ledger['failed']} of {ledger['attempted']} operations)")
    for label, count in sorted(ledger["failures"].items()):
        print(f"  failed: {label}: {count}")
    record = {
        "env": environment(args),
        "setup_samples_s": result["setup_samples_s"],
        "input_digests": result["digests"],
        "ledger": ledger,
        "reference_loop": result.get("meter"),
        "spans": result.get("spans"),
    }
    (OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics, detail=result.get("detail")), indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": ledger["wrong"] == 0 and digests_agree,
        "attempted": ledger["attempted"] + len(result["digests"]),
        "failed": ledger["failed"] + (0 if digests_agree else 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
