"""Record the golden outputs the workloads are checked against.

    python3 -m perfbench.make_golden

Writes golden/generator-sweep.json (a digest of f, wt(f) and p_V per
descriptor at n = 11, and the total number of terms of f) and
golden/remark-survey.json ((detm_equals_f, chain_condition) per
descriptor at n = 10). Run it only on a commit whose outputs are trusted:
the files in the repository were recorded from the commit that added the
benchmark, where the acceptance gate passes.
"""

from __future__ import annotations

import json

from .worker import import_program
from .workloads import (
    GOLDEN_DIR,
    WORKLOADS,
    cli_payload,
    f_terms,
    generator_digest,
    remark_outcome,
)


def main() -> None:
    orbital = import_program()
    digests = {}
    terms = 0
    for d in WORKLOADS["generator-sweep"].inputs(orbital, 0):
        payload = cli_payload(orbital, d, 0)
        digests[d.descriptor_id] = generator_digest(payload)
        terms += f_terms(payload)
    outcomes = {}
    for d in WORKLOADS["remark-survey"].inputs(orbital, 0):
        outcomes[d.descriptor_id] = remark_outcome(orbital.remark_check(d, seed=0))
    for name, data in (
        ("generator-sweep.json", {"f_terms": terms, "digests": digests}),
        ("remark-survey.json", {"outcomes": outcomes}),
    ):
        with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
