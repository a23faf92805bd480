"""Benchmark of `radar run`: end-to-end metrics per workload, or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from the
seed (perfbench/workload.py), then for about S seconds runs `run_cases` in
fresh child processes (perfbench/child.py), each on a fresh copy of the
pre-built store and a fresh output directory, and checks every run's
reports.jsonl byte for byte and its Top-1/Top-5 through `evaluate_run`.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups), cases per second, per-case p50/p90 and peak RSS of the child.
--trace 1 alternates untraced and traced children and prints the per-layer
metrics of perfbench/tracing.py plus the tracing overhead. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"

MIN_CASE_SAMPLES = 100  # so that at least ten case durations lie beyond the p90
CHILD_TIMEOUT_S = 150
CALIBRATION_CALLS = 30
CALIBRATION_LIMIT_MS = 5.0  # median of a zero-delay call to the stand-in backend


def _child_env() -> dict[str, str]:
    # The stand-in backend is on loopback; no proxy may sit in between.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), *HERE.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _remove_stale_run_dirs() -> None:
    for d in CACHE.glob("run-*"):
        pid = int(d.name.split("-", 1)[1])
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except PermissionError:
            pass


# ---------------------------------------------------------------------------
# Stand-in model backend
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def model_backend(workload, data: Path):
    """Yield the chat URL of a running stand-in backend, or None if unused."""
    if workload.provider != "http":
        yield None
        return
    import requests

    proc = subprocess.Popen(
        [sys.executable, str(HERE / "backend.py"), "--replies", str(data / "backend.json"),
         "--delay-ms", str(workload.delay_ms)],
        stdout=subprocess.PIPE, env=_child_env(),
    )
    try:
        base = f"http://127.0.0.1:{int(proc.stdout.readline())}"
        with requests.Session() as session:
            session.trust_env = False
            latencies = []
            for _ in range(CALIBRATION_CALLS):
                start = time.perf_counter()
                session.post(base + "/calibrate", json={}, timeout=5).raise_for_status()
                latencies.append((time.perf_counter() - start) * 1000.0)
        calibration = statistics.median(latencies[5:])
        if calibration > CALIBRATION_LIMIT_MS:
            raise RuntimeError(
                f"stand-in backend answers a zero-delay call in {calibration:.2f} ms "
                f"(median), above the {CALIBRATION_LIMIT_MS} ms calibration limit"
            )
        print(f"backend calibration: zero-delay median {calibration:.2f} ms", file=sys.stderr)
        yield base + "/chat"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# Child runs
# ---------------------------------------------------------------------------


def run_config(workload, seed: int, data: Path, chat_url: str | None) -> dict:
    """The `radar run` config of one child; `store_dir` is filled in per child."""
    from workload import CHUNK_CHARS, DIM, N_QUERIES, OVERLAP_CHARS

    provider = {"kind": workload.provider, "embedder_kind": "hashing", "dim": DIM}
    if chat_url:
        provider["chat"] = {"url": chat_url}
    else:
        provider["script_path"] = str(data / "script.json")
    return {
        "topology": "radar",
        "provider": provider,
        "kb": {
            "chunk_chars": CHUNK_CHARS,
            "overlap_chars": OVERLAP_CHARS,
            "source": {"kind": "fixture", "corpus_dir": str(data / "corpus")},
            "store_dir": None,
        },
        "agents": {"n_queries": N_QUERIES},
        "eval": {"normalizer_kind": "dictionary", "synonym_table": str(data / "synonyms.json")},
        "seed": seed,
        "workers": workload.workers,
    }


def run_child(work: Path, data: Path, config: dict, *, trace=False) -> dict:
    """One `run_cases` in a fresh process on a fresh store copy and output dir."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shutil.copytree(data / "store", work / "store")
    config = {**config, "kb": {**config["kb"], "store_dir": str(work / "store")}}
    (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(work / "config.json"),
           "--cases", str(data / "cases.jsonl"), "--out", str(work / "out")]
    cmd += ["--trace"] * trace
    proc = subprocess.Popen(cmd, env=_child_env())
    try:
        returncode = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child run exceeded {CHILD_TIMEOUT_S} s") from None
    if returncode != 0:
        raise RuntimeError(f"child run exited with code {returncode}")
    return json.loads((work / "out" / "bench.json").read_text(encoding="utf-8"))


def check_run(out: Path, data: Path, result: dict) -> tuple[int, bool]:
    """(cases failed, whole run correct) for one full child run.

    A case fails when it aborted, is missing, or its report line differs from
    the expected one. The run is correct only if reports.jsonl is byte-equal
    to the expected file and `evaluate_run` reproduces the expected scores.
    """
    from radar.domain import DiagnosisReport
    from radar.evaluation import DictionaryNormalizer, evaluate_run, load_synonyms, load_truths

    expected_bytes = (data / "expected_reports.jsonl").read_bytes()
    actual_bytes = (out / "reports.jsonl").read_bytes()
    expected = {json.loads(l)["case_id"]: l for l in expected_bytes.decode().splitlines()}
    actual = {json.loads(l)["case_id"]: l for l in actual_bytes.decode().splitlines()}
    aborted = {case_id for case_id, _ in result["failures"]}
    failed = sum(1 for cid, line in expected.items() if cid in aborted or actual.get(cid) != line)
    correct = failed == 0 and actual_bytes == expected_bytes
    if correct:
        scores = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        reports = [(cid, DiagnosisReport.from_dict(json.loads(l))) for cid, l in actual.items()]
        normalizer = DictionaryNormalizer(load_synonyms(data / "synonyms.json"))
        evaluation = evaluate_run(reports, load_truths(data / "truth.jsonl"), normalizer)
        correct = (evaluation.top1, evaluation.top5) == (scores["top1"], scores["top5"])
    return failed, correct


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: int, trace: bool, data: Path, chat_url) -> dict:
    """Run whole child runs for about `seconds`, and at least enough of them
    for MIN_CASE_SAMPLES case durations. With `trace`, each untraced child is
    followed by a traced one."""
    import tracing

    config = run_config(workload, seed, data, chat_url)
    work = data.parent / "work"
    deadline = time.monotonic() + seconds
    min_rounds = math.ceil(MIN_CASE_SAMPLES / workload.cases)
    plain: list[dict] = []
    layers: list[dict] = []
    attempted = failed = 0
    correct = True

    def run_checked(with_trace: bool) -> dict:
        nonlocal attempted, failed, correct
        result = run_child(work, data, config, trace=with_trace)
        n_failed, ok = check_run(work / "out", data, result)
        attempted += workload.cases
        failed += n_failed
        correct = correct and ok
        return result

    while True:
        started = time.monotonic()
        plain.append(run_checked(False))
        if trace:
            traced = run_checked(True)
            overhead = traced["total_s"] / plain[-1]["total_s"] - 1.0
            layers.append(tracing.layer_metrics(
                work / "out" / "spans.jsonl", traced["output_ms"], overhead
            ))
        # Another round must end within a quarter round of the deadline.
        if len(plain) >= min_rounds and time.monotonic() + 0.75 * (time.monotonic() - started) > deadline:
            break
    shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        }
    else:
        case_ms = [ms for r in plain for ms in r["case_ms"]]
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "cases_per_s": {
                "value": statistics.median(
                    (workload.cases - len(r["failures"])) / r["run_s"] for r in plain
                ),
                "unit": "cases/s",
            },
            "case_p50_ms": {"value": statistics.median(case_ms), "unit": "ms"},
            "case_p90_ms": {
                "value": statistics.quantiles(case_ms, n=10, method="inclusive")[-1],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    from workload import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "radar" / "__init__.py").is_file():
        print(f"no radar sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workload import generate

    workload = WORKLOADS[args.workload]
    CACHE.mkdir(exist_ok=True)
    _remove_stale_run_dirs()
    run_dir = CACHE / f"run-{os.getpid()}"
    sim_cache = CACHE / "sim" / f"{workload.name}-{args.seed}-{_source_digest()}"
    try:
        data = run_dir / "data"
        started = time.monotonic()
        sizes = generate(workload, args.seed, data, sim_cache)
        print(f"workload {workload.name} seed {args.seed}: {json.dumps(sizes)}, "
              f"generated in {time.monotonic() - started:.1f} s", file=sys.stderr)
        with model_backend(workload, data) as chat_url:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), data, chat_url)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:12.4f} {metric['unit']}")
    print(f"cases_attempted {result['attempted']}  cases_failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
