#!/usr/bin/env python3
"""End-to-end benchmark of the monitor -> collector path (see README.md).

Run from the root of a checkout:

    python3 perfledger/run.py --workload caida-aio --seed 1 --seconds 30 --trace 0

Steps: build the harness against the repo's own library targets (CMake,
under .bench_build/), generate the workload's inputs from the seed, run the
measured process, check its outputs, and print one JSON result object as
the last line of stdout.  --trace 1 reports the per-layer metrics instead
of the end-to-end ones.  Everything is read and written inside the
checkout; the exit code is non-zero when the harness cannot build or run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfledger")

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    """Workload names, their `why`, and metric names and units all come
    from BENCHMARK.json, so they are written down once."""
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"perfledger: cannot read BENCHMARK.json: {e}")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, **kw):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, **kw)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise SystemExit(f"perfledger: command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def build():
    """Configure once, then an incremental build of the two binaries."""
    if not os.path.exists(os.path.join(BIN, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BIN, "-DCMAKE_BUILD_TYPE=Release"],
                    timeout=600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BIN, "-j", jobs, "--target", "ledger", "ledger_gen"],
                timeout=840)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def generate(workload, seed, why):
    """Inputs for (workload, seed), reused while the seed and the generator
    stay the same.

    Only the newest seed's inputs are kept per workload, so disk use stays
    at one set of files per workload.
    """
    base = os.path.join(BUILD, "inputs")
    out = os.path.join(base, f"{workload}-{seed}")
    done = os.path.join(out, "done")
    generator = file_digest(os.path.join(BIN, "ledger_gen"))
    fresh = os.path.exists(done) and open(done).read() == generator
    if not fresh:
        os.makedirs(base, exist_ok=True)
        for name in os.listdir(base):
            if name.startswith(workload + "-") and name != os.path.basename(out):
                shutil.rmtree(os.path.join(base, name), ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        run_checked([os.path.join(BIN, "ledger_gen"), "--workload", workload,
                     "--seed", str(seed), "--out", out], timeout=120)
        with open(done, "w") as f:
            f.write(generator)
    # The generator records the workload's properties; why it was chosen
    # is kept in BENCHMARK.json and added to that record here.
    record = os.path.join(out, "workload.json")
    with open(record) as f:
        props = json.load(f)
    if props.get("why") != why:
        props["why"] = why
        with open(record, "w") as f:
            json.dump(props, f, sort_keys=True)
    return out, props


def source_digest():
    """Provenance that survives a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfledger"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def accuracy_repeats(workload, seed, source, result):
    """Accuracy must repeat exactly on every run of one seed and source."""
    path = os.path.join(BUILD, "accuracy", f"{workload}-{seed}-{source}.json")
    mine = {"digest": result["accuracy_digest"], **result["accuracy"]}
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f) == mine
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(mine, f)
    return True


def main():
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfledger: run from a checkout of the repository "
                         "(src/ not found next to perfledger/)")
    build()
    inputs, props = generate(args.workload, args.seed, why[args.workload])
    work = os.path.join(".bench_build", "work", args.workload)
    cmd = [os.path.join(BIN, "ledger"), "--workload", args.workload,
           "--input", os.path.join(inputs, "input." + props["format"]),
           "--truth", os.path.join(inputs, "truth.txt"),
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        # The traced run's spans stay on disk, one CSV row per epoch.
        spans = os.path.join(".bench_build", "traces", f"{args.workload}-{args.seed}.csv")
        os.makedirs(os.path.join(ROOT, os.path.dirname(spans)), exist_ok=True)
        cmd += ["--dump", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfledger: measured process timed out")
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"perfledger: measured process failed ({proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    correct = bool(result["correct"])
    failed = int(result["failed"])
    checks = dict(result["checks"])
    for name, ok in checks.items():
        if not ok:
            log(f"perfledger: check failed: {name}")
    source = source_digest()
    checks["accuracy_repeats_across_runs"] = accuracy_repeats(args.workload, args.seed,
                                                              source, result)
    if not checks["accuracy_repeats_across_runs"]:
        log("perfledger: accuracy differs from an earlier run of this seed")
        correct = False
        failed += 1

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            raise SystemExit(f"perfledger: metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("perfledger: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source,
        "inputs": props, "checks": checks, "diag": result["diag"], "spans_csv": spans,
    }, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]) + 1,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
