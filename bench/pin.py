#!/usr/bin/env python3
"""Pin the input and output digests of every case a seed can pick.

    python3 bench/pin.py [--workload NAME]

Runs every (slot, variant) case of the workload once, requires its output
checks to pass, and writes bench/pinned/<workload>.json mapping the case
key to [sha16(input), sha16(output)].  A case that raises (the known
``1/0`` defect of the CLI) is pinned with the output a correct program
gives, so that a fix passes every check; until then every run counts it
failed.  Re-pin only in a change that alters the benchmark, never in one
that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as bench
from workloads import WORKLOADS


def pin(name):
    w = WORKLOADS[name]
    bench.setup(w, 0)
    expected_output = getattr(w, "expected_output", lambda case: None)
    table, bad = {}, []
    for slot in w.slots():
        for variant in range(w.slot_variants(slot)):
            case = w.make(slot, variant)
            if case.key in table:
                continue
            try:
                out = w.run(case)
            except Exception as err:  # a known defect; runs count it failed
                print(f"{case.key}: raised {type(err).__name__}", file=sys.stderr)
                text = expected_output(case)
                if text is None:
                    bad.append(f"{case.key}: raised {type(err).__name__}: {err}")
                else:
                    table[case.key] = [bench.sha16(w.input_text(case)), bench.sha16(text)]
                continue
            reason = w.verdict(case, out) or w.deep_check(case, out)
            if reason:
                bad.append(f"{case.key}: {reason}")
            table[case.key] = [bench.sha16(w.input_text(case)),
                               bench.sha16(w.digest(case, out))]
    if bad:
        raise SystemExit("refusing to pin failing outputs:\n" + "\n".join(bad))
    path = os.path.join(bench.HERE, "pinned", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: pinned {len(table)} cases", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    sys.path.insert(0, bench.SRC)
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        pin(name)


if __name__ == "__main__":
    main()
