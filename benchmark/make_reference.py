#!/usr/bin/env python3
"""Capture reference.json: the library's output for every pool entry.

    python3 benchmark/make_reference.py

Run from the root of a checkout.  The Philox stream and the point-index
contract are frozen, so these outputs are fixed; a run whose output
differs from the reference counts the item as failed.  Recapture only
when a change is meant to alter outputs, and say so.
"""

import json
import os
import sys
import time

import run
import workloads


def main():
    lib = run.load_library()
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        values = {}
        for _, key, call in cls(lib, 0).pool_items():
            values[key] = call()[1]
        reference[name] = values
        print(f"{name}: {len(values)} entries in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
