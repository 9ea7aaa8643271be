#!/usr/bin/env python3
"""Build the ssmcast benchmark and measure one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build). Standard output gets one provenance line (host, toolchain,
source revision, seed), then the benchmark's own lines; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Each operation's reports are hashed and compared with the digest recorded for the
workload and seed in perfbench/digests.json, when there is one (see
record_digests.py). With --trace 1 the spans of the traced operations are written to
perfbench/out/<workload>-seed<n>.spans.jsonl, after a provenance line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The last two are not in BENCHMARK.json: their times are not steady on a shared host.
WORKLOADS = ["flood_n2k", "ss_spst_e_faults", "fig14_campaign", "flood_n10k",
             "flood_n10k_shards2"]


def build():
    """Build the benchmark binary and return its path; exit non-zero on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Hash of the sources the benchmark builds, for checkouts that are not git repos."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("src", "crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml"))]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_sha256(),
    }


def recorded_digest(workload, seed):
    try:
        with open(os.path.join(HERE, "digests.json")) as f:
            table = json.load(f)
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    binary = build()
    prov = provenance(args)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    digest = recorded_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    prov["digest_recorded"] = digest is not None
    spans = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.jsonl")
        cmd += ["--spans-out", spans]
    print(json.dumps({"provenance": prov}), flush=True)

    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if spans and result.returncode == 0:
        with open(spans) as f:
            body = f.read()
        with open(spans, "w") as f:
            f.write(json.dumps({"provenance": prov}) + "\n" + body)
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
