#!/usr/bin/env python3
"""Record the report digest of every workload for a range of seeds.

Run from the repository root:

    python3 perfbench/record_digests.py [--seeds FIRST-LAST]

Writes perfbench/digests.json, which run.py checks every operation against. Run it
again only when a change to the simulator is meant to change its reports; a change
that claims a speed-up must leave the recorded digests matching.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    first, last = (int(x) for x in ap.parse_args().seeds.split("-"))
    binary = run.build()
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = {}
        for seed in range(first, last + 1):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.001", "--trace", "0"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: the operation failed its checks")
            table[workload][str(seed)] = json.loads(lines[-2])["digest"]
            print(workload, seed, table[workload][str(seed)], flush=True)
    with open(os.path.join(run.HERE, "digests.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
