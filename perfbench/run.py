"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs timed passes of the workload, each in a fresh process, until the next
pass would end after S seconds (at least one pass; with --trace 1 at least
one traced and one untraced). Then, with --trace 0, it starts set-up-only
processes until it has SETUP_SAMPLES set-up times, and in both modes runs
the frontier probe in a process of its own, after every timed pass has
ended and its memory has been read.

The last line of stdout is one JSON object: whether every output passed
its check, descriptors attempted and failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1), each a median over
passes. Exits non-zero without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import metric_units  # noqa: E402
from perfbench.workloads import FRONTIER_NMAX, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 120
# the probe takes about 0.6 s today, when n = 9 fails at once; a probe that
# runs out of time is an error, not a smaller frontier_n
FRONTIER_TIMEOUT_S = 100
OUT_DIR = ROOT / "perfbench" / "out"


class WorkerFailed(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, index: int = 0, trace: bool = False,
           spans=None, timeout: float = PASS_TIMEOUT_S) -> list[str]:
    """Run one worker process to completion; returns its stdout lines.

    The k-th process of a kind gets string hash seed k, so every run
    averages over the same dict and set layouts instead of random ones.
    """
    cmd = [sys.executable, "-m", "perfbench.worker", "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(monotonic())]
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{mode} worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return out.splitlines()


def timed_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    passes: list[dict] = []
    walls: list[float] = []
    start = monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        spans = None
        if traced and not any(p["traced"] for p in passes):
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
        began = monotonic()
        result = json.loads(worker("pass", workload, seed, len(passes), traced, spans)[-1])
        walls.append(monotonic() - began)
        result["traced"] = traced
        passes.append(result)
        if trace and len(passes) < 2:
            continue
        if monotonic() - start + statistics.median(walls) > seconds:
            return passes


def frontier_probe(workload: str, seed: int) -> tuple[int, int]:
    """Largest n <= FRONTIER_NMAX whose sizes 1..n all verify, and the
    word searches that hit their size cap on the way."""
    step = json.loads(worker("frontier", workload, seed, timeout=FRONTIER_TIMEOUT_S)[-1])
    return step["frontier_n"], step["bound_exceeded"]


def end_to_end(passes: list[dict], setup: list[float], frontier_n: int) -> dict:
    pooled = sorted(x for p in passes for x in p["latencies"])
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    attempted = sum(p["attempted"] for p in passes)
    passed = attempted - sum(len(p["failed"]) for p in passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "descriptors_per_s": (passed / sum(p["timed_s"] for p in passes), "1/s"),
        "descriptor_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "descriptor_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "pass_rate": (passed / attempted, "ratio"),
        "frontier_n": (frontier_n, "size"),
    }


def per_layer(passes: list[dict], bound_exceeded: int) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    units = metric_units()
    # median_low: a value some traced pass had, so counts stay whole
    values = {
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name in units
        if name in traced[0]["layers"]
    }
    values["rs.find_word_for_tableau.bound_exceeded"] += bound_exceeded
    values["trace.traced_s"] = statistics.median(p["timed_s"] for p in traced)
    values["trace.untraced_s"] = statistics.median(p["timed_s"] for p in untraced)
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbital" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        passes = timed_passes(args.workload, args.seed, args.seconds, trace)
        setup = [p["setup_s"] for p in passes]
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(
                json.loads(worker("setup", args.workload, args.seed, len(setup))[-1])["setup_s"]
            )
        frontier_n, bound_exceeded = frontier_probe(args.workload, args.seed)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems:
        print(f"perfbench: output check: {msg}", file=sys.stderr)
    for p in passes:
        for did in p["failed"]:
            print(f"perfbench: output check failed for {did}", file=sys.stderr)
    if trace:
        metrics = per_layer(passes, bound_exceeded)
    else:
        metrics = end_to_end(passes, setup, frontier_n)
    samples = sum(len(p["latencies"]) for p in passes)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} descriptors, "
        f"{samples} latency samples, {len(setup)} set-up samples, frontier n = {frontier_n} "
        f"(probed up to {FRONTIER_NMAX})"
    )
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
