"""One benchmark process, started fresh so every cache of the program is
empty, as it is for a command-line user.

    python3 -m perfbench.worker --mode pass|setup|frontier --workload W
        --seed N --spawned T [--trace] [--spans PATH]

`--spawned` is the time.monotonic() reading taken by the parent just
before it started this process; set-up time runs from there to the first
timed call. Times are reported at nominal speed (see speed.py). The
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import monotonic, perf_counter

from .layers import ROOT_SPAN, instrument, pass_metrics
from .speed import SpeedLog
from .tracer import Tracer, span_stats, write_spans
from .workloads import (
    FRONTIER_NMAX,
    FRONTIER_SAMPLE,
    FRONTIER_TRIALS,
    WORKLOADS,
    Workload,
    load_golden,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# reference samples taken right after set-up to scale its time
SETUP_REFS = 5


def import_program():
    """Import `orbital` from the checkout's src/, never from elsewhere."""
    if not (SRC / "orbital" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbital
    import orbital.cli  # noqa: F401  (generator-sweep calls its payload builder)

    if Path(orbital.__file__).resolve().parent != SRC / "orbital":
        raise SystemExit(f"perfbench: imported orbital from {orbital.__file__}")
    return orbital


def run_pass(orbital, w: Workload, seed: int, descriptors, golden, tracer=None) -> dict:
    """Call the workload once per descriptor, timing and checking each.

    Latencies and timed_s are at nominal speed (see speed.py).
    """
    call = w.call
    if tracer is not None:
        call = tracer.wrap(ROOT_SPAN, call)
    speed = SpeedLog()
    timings: list[tuple[float, float, bool]] = []
    failed: list[str] = []
    tally = 0
    for k, d in enumerate(descriptors):
        if tracer is not None:
            tracer.descriptor = k
        speed.maybe_sample()
        start = perf_counter()
        try:
            out = call(orbital, d, seed)
        except Exception:
            elapsed = perf_counter() - start
            traceback.print_exc()
            ok = False
        else:
            elapsed = perf_counter() - start
            ok = w.check(d, out, golden)
            if ok:
                tally += w.tally(out)
        timings.append((start, elapsed, ok))
        if not ok:
            failed.append(d.descriptor_id)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample()
    scaled = [(elapsed * speed.scale_at(start), ok) for start, elapsed, ok in timings]
    return {
        "attempted": len(descriptors),
        "failed": failed,
        "problems": w.pass_check(descriptors, tally, golden),
        "timed_s": sum(t for t, _ in scaled),
        "latencies": [t for t, ok in scaled if ok],
        "peak_rss_mb": peak_rss_mb,
    }


def frontier(orbital, seed: int, tracer: Tracer) -> tuple[int, int]:
    """Probe sizes 1..FRONTIER_NMAX in order until one fails. Returns the
    largest n whose sizes 1..n all verified, and the word searches that
    hit their size cap on the way."""
    by_size = defaultdict(list)
    for d in orbital.iter_descriptors(FRONTIER_NMAX):
        by_size[d.n].append(d)
    reached = 0
    for n in range(1, FRONTIER_NMAX + 1):
        group = by_size[n]
        rng = random.Random(f"frontier:{seed}:{n}")
        ok = True
        for d in rng.sample(group, min(FRONTIER_SAMPLE, len(group))):
            try:
                rep = orbital.verify_conjecture(d, trials=FRONTIER_TRIALS, seed=seed)
                ok = ok and rep.necessity_ok
            except orbital.OrbitalError:
                ok = False
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            break
        reached = n
    st = span_stats(tracer.spans).get("rs.find_word_for_tableau")
    return reached, st.errors["BoundExceeded"] if st else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--mode", choices=("pass", "setup", "frontier"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the pass's spans to this file")
    args = ap.parse_args(argv)

    orbital = import_program()
    tracer = None
    if args.trace or args.mode == "frontier":
        tracer = Tracer()
        instrument(tracer)

    if args.mode == "frontier":
        reached, bound_exceeded = frontier(orbital, args.seed, tracer)
        print(json.dumps({"frontier_n": reached, "bound_exceeded": bound_exceeded}))
        return 0

    w = WORKLOADS[args.workload]
    golden = load_golden(w)
    descriptors = w.inputs(orbital, args.seed)
    setup_s = monotonic() - args.spawned
    speed = SpeedLog()
    for _ in range(SETUP_REFS):
        speed.sample()
    setup_s *= speed.scale_at(perf_counter())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = run_pass(orbital, w, args.seed, descriptors, golden, tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["layers"] = pass_metrics(tracer)
        if args.spans:
            write_spans(args.spans, tracer.spans, [d.descriptor_id for d in descriptors])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
