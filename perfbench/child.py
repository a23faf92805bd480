"""One `radar run`, in a fresh process, timed from outside the program.

    python3 perfbench/child.py --config C --cases F --out D [--trace]

Calls `radar.runner.load_run_config` and `run_cases`, the functions behind
`radar run`, and writes D/bench.json with the set-up time (config load until
the first case enters `run_radar`), the `run_cases` time after set-up, each
case's `run_radar` duration, the failures `run_cases` reported and the
process's peak RSS. Only the case boundaries are timed unless --trace
installs the per-layer spans, which are then written to D/spans.jsonl.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    Not ru_maxrss: across exec, Linux carries the spawning process's peak
    into it, so a child of a large harness would report the harness's size.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--cases", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import radar.runner as runner

    if args.trace:
        import tracing

        tracing.install()
    run_radar = runner.run_radar
    spans: list[tuple[float, float]] = []  # (start, end) of each case

    def timed_run_radar(*a, **kw):
        start = time.perf_counter()
        try:
            return run_radar(*a, **kw)
        finally:
            spans.append((start, time.perf_counter()))

    runner.run_radar = timed_run_radar
    begin = time.perf_counter()
    cfg = runner.load_run_config(args.config)
    failures = runner.run_cases(cfg, args.cases, args.out).failures
    finished = time.perf_counter()

    first = min(s for s, _ in spans)
    result = {
        "setup_s": first - begin,
        "run_s": finished - first,
        "total_s": finished - begin,
        "output_ms": (finished - max(e for _, e in spans)) * 1000.0,
        "case_ms": [(e - s) * 1000.0 for s, e in spans],
        "failures": [list(f) for f in failures],
        "peak_rss_mb": peak_rss_mb(),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracing.dump(out / "spans.jsonl")
    (out / "bench.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
