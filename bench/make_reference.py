"""Regenerate ``reference_bound_long.json``: the `best_bound` value of every
bound_long item, for seeds 0-31 and the held-out seed, together with a
digest of the item's inputs.  The benchmark compares each run against the
entry of its seed, when there is one.

    python3 bench/make_reference.py        (from the root of a checkout)
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.import_library()
    from tracing import NullTracer
    from workloads import REFERENCE_FILE, BoundLong

    null = NullTracer()
    seeds = {}
    for seed in [*range(32), run.HELD_OUT_SEED]:
        w = BoundLong(seed, 1)
        entries = []
        for item in w.items:
            out, _ = w.run(item, null)
            entries.append({"inputs": w.input_digest(item), "best": out["value"]})
        seeds[str(seed)] = entries
    data = {"made_at_commit": run.git_commit(), "seeds": seeds}
    REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
