"""Regenerate ``reference.json``: the reference interpreter's trace
digests for every input the benchmark's workloads can draw.

Run from the repository root (takes a few minutes)::

    python3 e2ebench/make_reference.py

Each entry is keyed by a hash of the design's source at that cycle
budget, so a changed design simply misses and ``run.py`` computes its
reference on demand, outside the timed phase.
"""

import json
import sys

import run


def main():
    p = run.import_program()
    inputs = {run.WARMUP}
    for spec in run.WORKLOADS.values():
        for name in p.ALL_DESIGNS:
            for shift in run.JITTER:
                inputs.update(
                    (name, cycles)
                    for cycles in run.budgets(p, name, spec["scale"], shift))
    entries, live_sets = {}, []
    for name, cycles in sorted(inputs):
        entry = run.reference_entry(p, name, cycles)
        live = entry.pop("live_signals")
        if live not in live_sets:
            live_sets.append(live)
        entry["live_set"] = live_sets.index(live)
        entries[run.input_key(p, name, cycles)] = entry
        print(f"{name}@{cycles}", file=sys.stderr, flush=True)
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump({"inputs": entries, "live_sets": live_sets}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
