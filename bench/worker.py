"""One measured run of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload census --seed 1 --seconds 36 --t0 <perf_counter>

`--t0` is the parent's `time.perf_counter()` just before it started this
interpreter (the clock is system-wide), so `setup_s` covers interpreter
start, package import and input generation.  The worker runs whole rounds
while the next one is expected to end inside `--seconds`, times each
operation alone, checks each output outside the timing, and prints one JSON
object.  Times are reported raw and normalized by bench/clock.py.  With `--setup-only` it stops after set-up; with `--trace` it records
spans at the layer boundaries and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import accordions

    if Path(accordions.__file__).resolve().parent != ROOT / "src" / "accordions":
        print(f"accordions imported from {accordions.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import layers
    import workloads
    from clock import Calibration

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    raw_setup_s = time.perf_counter() - args.t0
    calibration = Calibration()
    for _ in range(8):
        calibration.sample()
        time.sleep(0.01)
    setup_s = raw_setup_s * calibration.scale(calibration.starts[0], calibration.ends[-1])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    timed: list[tuple[int, float, float, bool]] = []  # (round, start, end, correct)
    op_kinds: list[str] = []
    failures: Counter = Counter()
    wrong: list[str] = []
    wrong_ops = 0
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    rounds = 0
    calibration.start()
    for r in range(workload.max_rounds):
        began = time.perf_counter()
        if r and began + longest > deadline:
            break
        for op in workload.round(r):
            inp = op.prepare()
            if workload.collect_between_ops:
                gc.collect()
            if tracer is not None:
                tracer.op = len(op_kinds)
            op_kinds.append(op.kind)
            t = time.perf_counter()
            try:
                result = op.run(inp)
                error = None
            except Exception as exc:  # a failed op is counted with its reason; the run goes on
                error = exc
            end = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            if error is not None:
                detail = f" ({error})" if isinstance(error, workloads.Refused) else ""
                failures[f"{op.kind}: {type(error).__name__}{detail}"] += 1
                timed.append((r, t, end, False))
                continue
            reason = op.check(inp, result)
            timed.append((r, t, end, reason is None))
            if reason is not None:
                wrong_ops += 1
                wrong.append(reason)
        reason = workload.end_round(r)
        if reason is not None:
            wrong.append(reason)
        rounds += 1
        longest = max(longest, time.perf_counter() - began)
    calibration.stop()
    wrong.extend(workload.finish())

    round_op_s = [0.0] * rounds
    raw_op_s = 0.0
    normalized_ms = []
    raw_ms = []
    for r, start, end, ok in timed:
        raw = end - start - calibration.spent(start, end)
        dt = raw * calibration.scale(start, end)
        round_op_s[r] += dt
        raw_op_s += raw
        if ok:
            normalized_ms.append(1000 * dt)
            raw_ms.append(1000 * raw)
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": len(op_kinds),
        "durations_ms": normalized_ms,
        "raw_durations_ms": raw_ms,
        "op_s": sum(round_op_s),
        "raw_op_s": raw_op_s,
        "round_op_s": round_op_s,
        "reference_s": statistics.median(calibration.samples),
        "failures": dict(failures),
        "wrong_ops": wrong_ops,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer.spans, op_kinds)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans, op_kinds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
