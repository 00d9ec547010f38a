"""The repository benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload census --seed 1 --seconds 36 --trace 0

Each run starts fresh interpreters one at a time (bench/worker.py), so no
two measurements share a process or overlap.  Several of them only set up,
for the median set-up time; one measures.  With `--trace 0` the last line is
the end-to-end metrics; with `--trace 1` the time is split between an
untraced worker, whose end-to-end figures are printed, and a traced worker
on the same inputs, and the last line is the per-layer metrics with the
tracing overhead.  Workloads, metrics and the
layer each metric belongs to are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REFERENCE_S
from layers import PER_LAYER
from quantiles import percentile, tail

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("census", "certify", "ground-truth")
SETUP_ONLY_RUNS = 5
CHILD_GRACE_S = 120


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    durations = sorted(res["durations_ms"])
    if not durations:
        raise WorkerFailed("no operation completed correctly")
    q, value, _ = tail(durations)
    return {
        "ops_per_s": (len(durations) / res["op_s"], "1/s"),
        "op_p50_ms": (percentile(durations, 50), "ms"),
        "op_tail_ms": (value, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def report(args, res: dict, setups: list[dict]) -> None:
    failed = sum(res["failures"].values()) + res["wrong_ops"]
    raw = sorted(res["raw_durations_ms"])
    q, raw_tail, beyond = tail(raw)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(res['round_op_s'])}  "
          f"ops {res['attempted']}  measured {res['raw_op_s']:.2f} s  "
          f"reference() {1e6 * res['reference_s']:.0f} us (normalized to {1e6 * REFERENCE_S:.0f} us)")
    raw_values = {
        "ops_per_s": len(raw) / res["raw_op_s"],
        "op_p50_ms": percentile(raw, 50),
        "op_tail_ms": raw_tail,
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
    }
    notes = {
        "op_tail_ms": f"p{q:g} of {len(raw)} correct ops, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    print(f"  {'metric':<12} {'normalized':>12} {'raw':>12}")
    for name, (value, unit) in end_to_end(res, [s["setup_s"] for s in setups]).items():
        raw_value = f"{raw_values[name]:12.4f}" if name in raw_values else " " * 12
        print(f"  {name:<12} {value:12.4f} {raw_value} {unit:<4} {notes.get(name, '')}")
    print(f"  {'fail_rate':<12} {failed / res['attempted']:12.4f} {'':12}      "
          f"{failed} of {res['attempted']} ops failed or wrong")
    for reason, count in sorted(res["failures"].items()):
        print(f"    failed {count:5d}  {reason}")
    for reason in res["wrong"][:20]:
        print(f"    WRONG  {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        setups = [spawn(args.workload, args.seed, 0, "--setup-only") for _ in range(SETUP_ONLY_RUNS)]
        if not args.trace:
            res = spawn(args.workload, args.seed, args.seconds)
            setups.append(res)
            report(args, res, setups)
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in end_to_end(res, [s["setup_s"] for s in setups]).items()}
        else:
            half = args.seconds / 2
            base = spawn(args.workload, args.seed, half)
            setups.append(base)
            report(args, base, setups)
            spans = ROOT / "bench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            res = spawn(args.workload, args.seed, half, "--trace", "--spans", str(spans))
            res["wrong"] += base["wrong"]
            common = min(len(base["round_op_s"]), len(res["round_op_s"]))
            overhead = 100 * (sum(res["round_op_s"][:common]) / sum(base["round_op_s"][:common]) - 1)
            print(f"traced run: tracing overhead {overhead:.1f} % over {common} rounds; "
                  f"{res['spans']} spans in {spans.relative_to(ROOT)}")
            metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            metrics["trace.spans"] = {"value": res["spans"], "unit": "count"}
            for name, metric in metrics.items():
                print(f"  {name:<36} {metric['value']:14.4f} {metric['unit']}")
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(res["failures"].values()) + res["wrong_ops"]
    print(json.dumps({"correct": not res["wrong"], "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
