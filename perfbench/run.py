#!/usr/bin/env python3
"""Build the keyed-store benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

The benchmark is built with dune into .bench_build/ (release profile);
the traced run writes its spans as Chrome trace JSON into
.perfbench_out/.  The last line of standard output is the result object
of the run; the line before it stamps the run.  The exit code is 0 only
when the run completed and every response checked out.

--self-test checks determinism: for every workload, two traced runs of
one seed report identical per-layer counts, two untraced runs of one
seed report an identical retained heap, and another seed gives another
op stream.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".perfbench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["store-hot-batched", "store-uniform-rw", "store-sim-contended"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# per-layer metrics in these units are times or ratios of times; every
# other per-layer metric is a count and must repeat exactly for a seed
TIMED_UNITS = {"s", "ratio"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("dune-project and lib/ not found: run from the root of a full checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def source_id():
    """The git commit when this is a git checkout, else a digest of the sources."""
    if os.path.exists(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run(workload, seed, seconds, trace, capture=False):
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    # the runtime's event ring is a file; keep it inside the checkout
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env["PERFBENCH_COMMIT"] = source_id()
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run did not complete: %s" % e)
    return r


def result_of(r):
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        fail("run failed with exit code %d" % r.returncode)
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def self_test(seed):
    ok = True
    for w in WORKLOADS:
        stamp_a, a = result_of(run(w, seed, 1, 1, capture=True))
        stamp_b, b = result_of(run(w, seed, 1, 1, capture=True))
        stamp_c, _ = result_of(run(w, seed + 1, 1, 1, capture=True))
        counts = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                  for k in a["metrics"]
                  if a["metrics"][k]["unit"] not in TIMED_UNITS}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        _, e0 = result_of(run(w, seed, 1, 0, capture=True))
        _, e1 = result_of(run(w, seed, 1, 0, capture=True))
        heap = (e0["metrics"]["heap_retained_mb"]["value"],
                e1["metrics"]["heap_retained_mb"]["value"])
        checks = [
            ("%d per-layer counts repeat" % len(counts), not differ),
            ("retained heap repeats", heap[0] == heap[1]),
            ("seed %d streams the same ops" % seed,
             stamp_a["stream_digest"] == stamp_b["stream_digest"]),
            ("seed %d streams other ops" % (seed + 1),
             stamp_a["stream_digest"] != stamp_c["stream_digest"]),
        ]
        for name, passed in checks:
            print("%-22s %-4s %s" % (w, "ok" if passed else "FAIL", name))
            ok = ok and passed
        for k, v in sorted(differ.items()):
            print("%-22s      %s: %r != %r" % (w, k, v[0], v[1]))
        if heap[0] != heap[1]:
            print("%-22s      heap_retained_mb: %r != %r" % (w, heap[0], heap[1]))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(self_test(args.seed))
    sys.stdout.flush()
    r = run(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
