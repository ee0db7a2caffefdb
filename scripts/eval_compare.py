#!/usr/bin/env python3
"""Compare a hybrid-evaluator collection against its exact reference.

Reads the two runs' JSONL run journals (dsegen -runlog; records defined
in internal/obs/runlog.go), matches config records by index, and reports the
evaluator seam's quality numbers as JSON on stdout:

  - escalation rate: fraction of configs the hybrid router escalated to
    exact simulation (including the warmup prefix);
  - predicted-row MAPE: mean absolute percentage error of the hybrid's
    predicted per-app cycle counts against the exact run's — a held-out
    measure, since predicted configs were never simulated;
  - escalated-row mismatches: escalated rows must be byte-identical to the
    exact run's (same simulator, same inputs), so any difference is a
    correctness bug, not an accuracy trade-off.

Exits non-zero if any escalated row's cycles differ from the exact run's —
the CI gate on the escalation contract.

Usage:
  eval_compare.py exact.runlog.jsonl hybrid.runlog.jsonl \
      [--exact-ms N] [--hybrid-ms N] [--max-mape PCT]
"""

import argparse
import json
import sys


def load_configs(path):
    """Return {index: record} for the journal's non-failed config records."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") != "config" or rec.get("failed"):
                continue
            out[rec["index"]] = rec
    return out


def app_cycles(rec):
    return {a["app"]: a["cycles"] for a in rec.get("apps", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("exact", help="exact run's runlog JSONL")
    ap.add_argument("hybrid", help="hybrid run's runlog JSONL")
    ap.add_argument("--exact-ms", type=float, default=None,
                    help="exact sweep wall time (ms), folded into the report")
    ap.add_argument("--hybrid-ms", type=float, default=None,
                    help="hybrid sweep wall time (ms), folded into the report")
    ap.add_argument("--max-mape", type=float, default=None,
                    help="fail if predicted-row MAPE exceeds this percentage")
    ap.add_argument("--escalate-threshold", type=float, default=None,
                    help="hybrid escalation threshold used, echoed into the report")
    args = ap.parse_args()

    exact = load_configs(args.exact)
    hybrid = load_configs(args.hybrid)
    if not hybrid:
        print("eval_compare: no config records in", args.hybrid, file=sys.stderr)
        return 1

    escalated = predicted = 0
    mismatches = []
    ape_sum, ape_n = 0.0, 0
    per_app = {}
    for idx, hrec in sorted(hybrid.items()):
        erec = exact.get(idx)
        if erec is None:
            print(f"eval_compare: index {idx} missing from exact run", file=sys.stderr)
            return 1
        ec, hc = app_cycles(erec), app_cycles(hrec)
        kind = hrec.get("eval")
        if kind == "predicted":
            predicted += 1
            for app, cycles in hc.items():
                truth = ec.get(app)
                if not truth:
                    continue
                ape = abs(cycles - truth) / truth * 100.0
                ape_sum += ape
                ape_n += 1
                s = per_app.setdefault(app, [0.0, 0])
                s[0] += ape
                s[1] += 1
        else:
            # Escalated (or pre-seam exact) rows ran the same simulator on
            # the same inputs: cycles must match exactly.
            escalated += 1
            if ec != hc:
                mismatches.append(idx)

    report = {
        "configs": len(hybrid),
        "escalated": escalated,
        "predicted": predicted,
        "escalation_rate": round(escalated / len(hybrid), 4),
        "predicted_mape_pct": round(ape_sum / ape_n, 3) if ape_n else None,
        "per_app_mape_pct": {
            app: round(s / n, 3) for app, (s, n) in sorted(per_app.items())
        },
        "escalated_mismatches": len(mismatches),
    }
    if args.escalate_threshold is not None:
        report["escalate_threshold"] = args.escalate_threshold
    if args.exact_ms is not None and args.hybrid_ms is not None and args.hybrid_ms > 0:
        report["exact_ms"] = round(args.exact_ms, 1)
        report["hybrid_ms"] = round(args.hybrid_ms, 1)
        report["speedup"] = round(args.exact_ms / args.hybrid_ms, 2)
    print(json.dumps(report, indent=2))

    if mismatches:
        print(f"eval_compare: {len(mismatches)} escalated rows differ from the "
              f"exact run (first: index {mismatches[0]})", file=sys.stderr)
        return 1
    if args.max_mape is not None and ape_n and ape_sum / ape_n > args.max_mape:
        print(f"eval_compare: predicted MAPE {ape_sum / ape_n:.2f}% exceeds "
              f"--max-mape {args.max_mape}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
