"""Tests of the benchmark itself: self time, output checks, determinism.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, run  # noqa: E402
from perfbench.speed import NOMINAL_S, SpeedLog  # noqa: E402
from perfbench.tracer import Span, Tracer, install, span_stats  # noqa: E402
from perfbench.worker import import_program, run_pass  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    cli_payload,
    generator_digest,
    load_golden,
)

orbital = import_program()


def _clear_program_caches() -> None:
    """Empty every lru_cache in the program, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name == "orbital" or name.startswith("orbital."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _traced_pass(w, seed, descriptors) -> Tracer:
    """One traced pass in this process, starting from empty caches."""
    _clear_program_caches()
    tracer = Tracer()
    undo = layers.instrument(tracer)
    try:
        run_pass(orbital, w, seed, descriptors, None, tracer)
    finally:
        for restore in reversed(undo):
            restore()
    return tracer


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e [10, 12] is a second root with the same name as b
    spans = [
        Span("a", 0.0, 10.0, -1, 0, ""),
        Span("b", 1.0, 4.0, 0, 0, ""),
        Span("c", 2.0, 3.0, 1, 0, "BoundExceeded"),
        Span("d", 5.0, 9.0, 0, 0, ""),
        Span("b", 10.0, 12.0, -1, 1, ""),
    ]
    stats = span_stats(spans)
    assert stats["a"].self_s == pytest.approx(3.0)
    assert stats["b"].self_s == pytest.approx(2.0 + 2.0)
    assert stats["b"].calls == 2
    assert stats["c"].self_s == pytest.approx(1.0)
    assert stats["c"].errors["BoundExceeded"] == 1
    assert stats["d"].self_s == pytest.approx(4.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0 + 2.0)


def test_scale_uses_reference_times_nearest_the_call():
    speed = SpeedLog()
    speed.times = [float(k) for k in range(10)]
    speed.refs = [NOMINAL_S] * 5 + [2 * NOMINAL_S] * 5
    assert speed.scale_at(1.5) == pytest.approx(1.0)  # refs 0..3
    assert speed.scale_at(8.5) == pytest.approx(0.5)  # refs 6..9
    speed.sample()
    assert len(speed.refs) == 11 and speed.refs[-1] > 0


def _cpu_load():
    s = 0
    for i in range(150_000):
        s += i * i % 11
    return s


def _alloc_load():
    return len({(i, i % 7): (str(i), i) for i in range(25_000)})


def _nominal_cost(load, samples=40) -> float:
    """Median time of one load() call, scaled the way a pass scales calls."""
    speed = SpeedLog()
    timings = []
    for _ in range(samples):
        speed.sample()
        start = perf_counter()
        load()
        timings.append((start, perf_counter() - start))
    speed.sample()
    return statistics.median(elapsed * speed.scale_at(start) for start, elapsed in timings)


@pytest.mark.parametrize("load", [_cpu_load, _alloc_load])
def test_injected_cost_is_reported_at_its_size(monkeypatch, load):
    # A fixed extra cost in the program must raise the scaled pass time by
    # that cost, also when the program's heap has grown: the reference
    # timed between calls must not absorb part of a real slowdown.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "descriptors_per_s")
    w = WORKLOADS["verify-sweep"]
    descriptors = [d for d in w.inputs(orbital, 1) if d.n <= 7]

    def timed_s() -> float:
        _clear_program_caches()
        return run_pass(orbital, w, 1, descriptors, None)["timed_s"]

    real = orbital.verify_conjecture

    def slower(*args, **kwargs):
        load()
        return real(*args, **kwargs)

    # base time and load cost are measured before and after the slowed
    # pass, so a drift of the host's speed between them cancels
    before, cost_before = timed_s(), _nominal_cost(load)
    ballast = [(i, str(i)) for i in range(300_000)]  # a larger working set
    monkeypatch.setattr(orbital, "verify_conjecture", slower)
    slowed = timed_s()
    monkeypatch.setattr(orbital, "verify_conjecture", real)
    del ballast
    after, cost_after = timed_s(), _nominal_cost(load)
    base = (before + after) / 2
    added = len(descriptors) * (cost_before + cost_after) / 2
    expected = base + added
    assert added > 0.4 * base
    # descriptors_per_s with the load, reported over expected
    assert expected / slowed == pytest.approx(1, abs=bound)


def test_wrapped_calls_nest_and_record_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("inner", inner, distinct=True)

    def outer(x):
        inner_t(x)
        inner_t(x)
        return x

    outer_t = tracer.wrap("outer", outer)
    outer_t(1)
    with pytest.raises(ValueError):
        inner_t(-1)
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0, -1]
    assert spans[3].error == "ValueError"
    assert len(tracer.distinct["inner"]) == 2  # 1 and -1, over 3 calls


def test_install_patches_callers_and_restores():
    orig = orbital.verify.check_power_rank
    tracer = Tracer()
    restore = install(
        "orbital", "orbital.verify", "check_power_rank",
        lambda fn: tracer.wrap("verify.check_power_rank", fn),
    )
    assert orbital.verify.check_power_rank is not orig
    assert orbital.check_power_rank is orbital.verify.check_power_rank
    restore()
    assert orbital.verify.check_power_rank is orig
    assert orbital.check_power_rank is orig


def _small_generator_golden(descriptors):
    digests = {d.descriptor_id: generator_digest(cli_payload(orbital, d, 0)) for d in descriptors}
    return {"digests": digests, "f_terms": 0}


def test_wrong_f_digest_counts_as_failure():
    w = WORKLOADS["generator-sweep"]
    descriptors = [d for d in orbital.iter_descriptors(7) if d.n == 7][:6]
    golden = _small_generator_golden(descriptors)
    assert run_pass(orbital, w, 0, descriptors, golden)["failed"] == []
    victim = descriptors[2].descriptor_id
    golden["digests"][victim] = "0" * 16
    result = run_pass(orbital, w, 0, descriptors, golden)
    assert result["failed"] == [victim]
    assert len(result["latencies"]) == len(descriptors) - 1

    payload = cli_payload(orbital, descriptors[0], 0)
    payload["generator"]["f"] = payload["generator"]["f"][1:]
    assert not w.check(descriptors[0], payload, _small_generator_golden(descriptors[:1]))


def test_injected_exception_counts_as_failure(monkeypatch):
    w = WORKLOADS["remark-survey"]
    golden = load_golden(w)
    descriptors = w.inputs(orbital, 0)[:12]
    victim = descriptors[5].descriptor_id
    real = orbital.remark_check

    def flaky(d, **kwargs):
        if d.descriptor_id == victim:
            raise RuntimeError("injected")
        return real(d, **kwargs)

    monkeypatch.setattr(orbital, "remark_check", flaky)
    result = run_pass(orbital, w, 0, descriptors, golden)
    assert result["failed"] == [victim]
    assert result["attempted"] == 12


def test_verify_outputs_pass_their_check():
    w = WORKLOADS["verify-sweep"]
    descriptors = w.inputs(orbital, 3)
    assert len(descriptors) == 198
    result = run_pass(orbital, w, 3, descriptors[:10], None)
    assert result["failed"] == []
    assert result["problems"] == ["10 descriptors with n <= 8, expected 198"]


def _counts(tracer: Tracer) -> dict:
    units = layers.metric_units()
    return {k: v for k, v in layers.pass_metrics(tracer).items() if units[k] == "count"}


def test_same_seed_same_counts_and_other_seed_other_inputs(monkeypatch):
    w = WORKLOADS["verify-sweep"]
    points = []
    real = orbital.verify.sample_variety_point

    def recording(*args, **kwargs):
        pt = real(*args, **kwargs)
        points.append(pt.rows)
        return pt

    monkeypatch.setattr(orbital.verify, "sample_variety_point", recording)
    runs = []
    for seed in (1, 1, 2):
        points.clear()
        descriptors = [d for d in w.inputs(orbital, seed) if d.n <= 6]
        runs.append((_counts(_traced_pass(w, seed, descriptors)), list(points)))
    (counts_a, points_a), (counts_b, points_b), (_, points_c) = runs
    assert counts_a == counts_b
    assert counts_a["verify.check_power_rank.calls"] > 0
    assert points_a == points_b
    assert points_a != points_c

    gen = WORKLOADS["generator-sweep"]
    order = lambda seed: [d.descriptor_id for d in gen.inputs(orbital, seed)]  # noqa: E731
    assert order(1) == order(1)
    assert order(1) != order(2)
    assert sorted(order(1)) == sorted(order(2))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    e2e = run.end_to_end(
        [{"latencies": [0.1, 0.2, 0.3], "attempted": 3, "failed": [], "timed_s": 0.6,
          "peak_rss_mb": 20.0}],
        [0.5],
        8,
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_value, unit) in e2e.items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
