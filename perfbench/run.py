#!/usr/bin/env python3
"""Measured time-to-energy benchmark of the DMRG solver.

    python3 perfbench/run.py --workload spins-list --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark binary into .bench_build/ (Release); later runs
rebuild incrementally. The workload's thread budget, linalg backend and
tracing/fault variables are pinned in the binary's environment here, outside
the program. Seed 0 starts from the paper's product state; any other seed
from a random MPS drawn from that seed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(names and units in BENCHMARK.json, meanings in perfbench/README.md). The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Exits non-zero without a result when the build or the binary fails.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_dmrg")
BUILD_TYPE = "Release"
BINARY_TIMEOUT_S = 170

# The decorator's classes plus the rest of the sweep must add up to the
# traced solve time.
BREAKDOWN = ["dmrg.matvec_s", "dmrg.env_s", "dmrg.theta_s", "dmrg.svd_s", "dmrg.other_s"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the binary (incremental, quiet on success)."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_dmrg",
               "-j", str(os.cpu_count() or 1)])


def run_quiet(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise RuntimeError(f"command failed ({p.returncode}): {' '.join(cmd)}")


def source_revision():
    """git revision when the checkout is a repository, else a digest of the sources."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def binary_env(w):
    """Pinned, hygienic environment: thread budget, builtin backend, no tracing/faults."""
    env = dict(os.environ)
    for var in ("TT_TRACE", "TT_FAULTS", "TT_SCHED_MODE"):
        env.pop(var, None)
    env["TT_THREADS"] = str(w["threads"])
    env["OMP_NUM_THREADS"] = str(w["threads"])
    env["TT_BACKEND"] = "builtin"
    return env


def binary_args(name, w, pins, seed, seconds, trace):
    args = [BINARY, "--workload", name, "--model", w["model"], "--lx", str(w["lx"]),
            "--ly", str(w["ly"]), "--coupling", repr(w["coupling"]), "--engine", w["engine"],
            "--ranks", str(w["ranks"]), "--threads", str(w["threads"]),
            "--schedule", w["schedule"], "--davidson", w["davidson"],
            "--init-m", str(w["init_m"]), "--e-ref", repr(w["e_ref"]), "--tol", repr(w["tol"]),
            "--window", ",".join(repr(e) for e in w["window"]),
            "--rounds", str(w["rounds"]), "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace)]
    if str(seed) in pins:
        args += ["--e-pinned", ",".join(repr(e) for e in pins[str(seed)])]
    return args


def check_layers(m):
    """The per-layer identities the README promises; returns a list of problems."""
    problems = []
    total = sum(m[k] for k in BREAKDOWN)
    if not math.isclose(total, m["dmrg.traced_solve_s"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"breakdown sums to {total}, traced solve_s is {m['dmrg.traced_solve_s']}")
    if m["dmrg.other_s"] < 0:
        problems.append(f"dmrg.other_s is negative ({m['dmrg.other_s']})")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in workloads:
        ap.error(f"unknown workload {a.workload!r} (one of {', '.join(workloads)})")
    w = workloads[a.workload]
    # A workload pinned to another's energies checks parity with it.
    pins = workloads[w.get("pinned_from", a.workload)]["pinned"]

    try:
        build()
    except RuntimeError as e:
        log(f"perfbench: build failed: {e}")
        return 1

    try:
        p = subprocess.run(binary_args(a.workload, w, pins, a.seed, a.seconds, a.trace),
                           cwd=ROOT, env=binary_env(w), stdout=subprocess.PIPE, text=True,
                           timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: binary exceeded {BINARY_TIMEOUT_S} s")
        return 1
    lines = [l for l in p.stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if p.returncode != 0 or not lines:
        log(f"perfbench: binary failed (exit {p.returncode})")
        return 1
    res = json.loads(lines[-1][len("PERFBENCH_RESULT "):])
    raw = res["metrics"]

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    problems = [f"binary reported no {m['name']}" for m in wanted if m["name"] not in raw]
    if a.trace and not problems:
        problems += check_layers(raw)
    for msg in problems:
        log(f"perfbench: {msg}")

    fingerprint = dict(res["fingerprint"], nproc=os.cpu_count(), revision=source_revision(),
                       workload=a.workload, seed=a.seed, trace=a.trace)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    metrics = {}
    for m in wanted:
        if m["name"] in raw:
            metrics[m["name"]] = {"value": raw[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<32} {raw[m['name']]:>16.6g} {m['unit']}")
    correct = res["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
