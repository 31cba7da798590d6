"""The three workloads: inputs made from the seed, the call made for each
descriptor, and the check of its output.

Each workload is a closed loop with one caller: the next descriptor is
sent when the previous call has returned. The checks test mathematical
content (necessity, golden digests of f, wt(f) and p_V, golden remark
outcomes), never sampled values, so a change to the sample stream still
passes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

VERIFY_NMAX = 8
VERIFY_TRIALS = 10
VERIFY_COUNT = 198
# criterion 5 of the acceptance gate: generic probes hold on >= 90% of trials
GENERIC_FLOOR = math.ceil(0.9 * VERIFY_TRIALS)
GENERATOR_N = 11
REMARK_N = 10
# the frontier probe: sizes up to FRONTIER_NMAX, a seeded sample of
# FRONTIER_SAMPLE descriptors at each, FRONTIER_TRIALS trials apiece
FRONTIER_NMAX = 10
FRONTIER_SAMPLE = 3
FRONTIER_TRIALS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (orbital, seed) -> list of descriptors
    call: Callable  # (orbital, descriptor, seed) -> output
    check: Callable  # (descriptor, output, golden) -> bool
    # problems with the pass as a whole:
    # (descriptors, sum of tally over the outputs, golden) -> [str]
    pass_check: Callable
    tally: Callable = lambda output: 0
    golden_file: str | None = None


def _sized(orbital, n: int) -> list:
    return [d for d in orbital.iter_descriptors(n) if d.n == n]


# -- verify-sweep -------------------------------------------------------------


def verify_inputs(orbital, seed: int) -> list:
    return list(orbital.iter_descriptors(VERIFY_NMAX))


def verify_call(orbital, d, seed: int):
    return orbital.verify_conjecture(d, trials=VERIFY_TRIALS, seed=seed)


def verify_check(d, rep, golden) -> bool:
    return (
        rep.descriptor_id == d.descriptor_id
        and rep.necessity_ok
        and rep.f_vanishes_on_v == VERIFY_TRIALS
        and min(rep.f_nonzero_on_richardson, rep.jordan_match, rep.power_rank_ok)
        >= GENERIC_FLOOR
    )


def verify_pass_check(descriptors, tally, golden) -> list[str]:
    if len(descriptors) != VERIFY_COUNT:
        return [
            f"{len(descriptors)} descriptors with n <= {VERIFY_NMAX}, expected {VERIFY_COUNT}"
        ]
    return []


# -- generator-sweep ----------------------------------------------------------


def generator_inputs(orbital, seed: int) -> list:
    ds = _sized(orbital, GENERATOR_N)
    random.Random(f"generator-sweep:{seed}").shuffle(ds)
    return ds


def cli_payload(orbital, d, seed: int) -> dict:
    """What `orbital hypersurfaces --generator --json` builds and prints
    for one descriptor."""
    payload = orbital.cli._descriptor_json(d, True)
    json.dumps(payload, indent=2)
    return payload


def generator_digest(payload: dict) -> str:
    """Digest of f, wt(f) and p_V, independent of term and factor order."""
    content = {
        "f": sorted(json.dumps(t, sort_keys=True) for t in payload["generator"]["f"]),
        "wt": payload["generator"]["weight"],
        "p_V": sorted(payload["char_poly"]),
    }
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:16]


def generator_check(d, payload, golden) -> bool:
    return golden["digests"].get(d.descriptor_id) == generator_digest(payload)


def f_terms(payload: dict) -> int:
    return len(payload["generator"]["f"])


def generator_pass_check(descriptors, terms, golden) -> list[str]:
    problems = []
    ids = {d.descriptor_id for d in descriptors}
    if ids != set(golden["digests"]):
        problems.append(
            f"{len(ids)} descriptors at n = {GENERATOR_N}, golden has {len(golden['digests'])}"
        )
    if terms != golden["f_terms"]:
        problems.append(f"f has {terms} terms in total, golden {golden['f_terms']}")
    return problems


# -- remark-survey ------------------------------------------------------------


def remark_inputs(orbital, seed: int) -> list:
    return _sized(orbital, REMARK_N)


def remark_call(orbital, d, seed: int):
    return orbital.remark_check(d, seed=seed)


def remark_outcome(res) -> list[bool]:
    return [bool(res.detm_equals_f), bool(res.chain_condition)]


def remark_check(d, res, golden) -> bool:
    return golden["outcomes"].get(d.descriptor_id) == remark_outcome(res)


def remark_pass_check(descriptors, tally, golden) -> list[str]:
    ids = {d.descriptor_id for d in descriptors}
    if ids != set(golden["outcomes"]):
        return [
            f"{len(ids)} descriptors at n = {REMARK_N}, golden has {len(golden['outcomes'])}"
        ]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-sweep",
            verify_inputs,
            verify_call,
            verify_check,
            verify_pass_check,
        ),
        Workload(
            "generator-sweep",
            generator_inputs,
            cli_payload,
            generator_check,
            generator_pass_check,
            tally=f_terms,
            golden_file="generator-sweep.json",
        ),
        Workload(
            "remark-survey",
            remark_inputs,
            remark_call,
            remark_check,
            remark_pass_check,
            golden_file="remark-survey.json",
        ),
    )
}


def load_golden(w: Workload):
    if w.golden_file is None:
        return None
    with open(GOLDEN_DIR / w.golden_file, encoding="utf-8") as fh:
        return json.load(fh)
