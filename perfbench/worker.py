"""One fresh interpreter of a benchmark run.

It imports lotkacenter from the checkout's ``src``, builds the
workload's inputs from the seed and prints ``ready``; the parent times
the interpreter from its start to that line.  The next line carries the
digest of the inputs, which must be the same in every interpreter.  With
``--setup-only`` it stops there.  Otherwise it runs the workload and
prints one JSON line with the measurements and the ledger of operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import lotkacenter

    where = Path(lotkacenter.__file__).resolve().parent
    if where != (SRC / "lotkacenter").resolve():
        print(f"lotkacenter imported from {where}, not from {SRC}", file=sys.stderr)
        return 3
    import lotkacenter.cli  # noqa: F401

    import inputs
    import workloads
    from tracing import layer_metrics

    make_inputs, run = workloads.WORKLOADS[args.workload]
    data = make_inputs(args.seed, args.scale)
    print("ready", flush=True)
    print("digest", inputs.digest(data), flush=True)
    if args.setup_only:
        return 0
    # the inputs live for the whole run; keep them out of the collector's way
    gc.collect()
    gc.freeze()

    outdir = Path(args.outdir)
    ledger = workloads.Ledger()
    res = run(data, args.seconds, outdir, ledger, bool(args.trace))
    out: dict = {}
    if args.trace:
        layers = layer_metrics(res["tracer"].summary(), res["extra"], workloads.RESIDUAL_POINTS)
        layers["trace.overhead_ratio"] = res["extra"]["overhead_ratio"]
        spans = {"workload": res["tracer"].write(outdir / f"{args.workload}-spans.tsv")}
        missing = sorted(k for k, v in layers.items() if v is None)
        if missing:
            cen = workloads.census(args.seed, outdir, ledger)
            from_census = layer_metrics(cen["tracer"].summary(), cen["extra"], workloads.RESIDUAL_POINTS)
            for k in missing:
                layers[k] = from_census[k]
            spans["census"] = cen["tracer"].write(outdir / f"{args.workload}-census-spans.tsv")
        out.update(layers=layers, from_census=missing, spans=spans)
    else:
        out["e2e"] = dict(res["e2e"], peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        out["detail"] = res["detail"]
        out["meter"] = res["meter"]
    out["ledger"] = ledger.as_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
