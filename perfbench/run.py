#!/usr/bin/env python3
"""End-to-end benchmark of the ShareStreams endsystem drivers.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout.  Builds the libraries and the benchmark
binary from source (Release) into $CARGO_TARGET_DIR (default .bench_build),
then runs the workload in its own process, pinned to one core, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Exit status is 0 only when every output check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
CHILD_TIMEOUT_S = 170
# A second seed, never used while the benchmark or a change is tuned, on
# which every performance claim must also hold.
HELD_OUT_SEED = 20030422


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "core" / "endsystem.hpp").is_file():
        fail(f"ShareStreams sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                        "--target", "ss_perfbench"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "ss_perfbench"


def bench_core():
    """The core every run is pinned to (the last one allowed).  Both
    drivers run on one core: on a shared virtual machine the speed of the
    threaded driver's cross-core handoff follows where the host places the
    two virtual CPUs, and varied eightfold between repetitions."""
    return {max(os.sched_getaffinity(0))}


def run_child(binary, args):
    """Run the benchmark binary; returns (exit status, stdout, peak RSS KiB)."""
    core = bench_core()
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            cwd=ROOT,
                            preexec_fn=lambda: os.sched_setaffinity(0, core))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        # Read before reaping: wait4 reports this child's own peak RSS.
        stdout = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, stdout, usage.ru_maxrss


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans-out", str(spans / f"{workload}.spans")]
    status, stdout, rss_kib = run_child(binary, args)
    res = last_json(stdout)
    if res is None:
        fail(f"{workload}: no result (exit status {status})")
    metrics = res["metrics"]
    if not trace:
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
        order = [m["name"] for m in spec()["end_to_end"]]
        metrics = {k: metrics[k] for k in order if k in metrics}
    for check in res.get("checks", []):
        print(f"check failed: {check}", file=sys.stderr)
    out = {"correct": bool(res["correct"]) and status == 0,
           "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def selfcheck(binary):
    """Replica against Endsystem::run on small inputs, then every named
    metric of every workload printed with its unit."""
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    status, stdout, _ = run_child(binary, ["--selfcheck"] + names)
    res = last_json(stdout)
    if status != 0 or res is None or not res["correct"]:
        problems += (res or {}).get("checks", [f"exit status {status}"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        if trace == 0:
            want.pop("peak_rss_mb")  # added by this script from wait4()
        for name in names:
            args = ["--workload", name, "--seed", "1", "--seconds", "0.2",
                    "--trace", str(trace), "--small"]
            status, stdout, _ = run_child(binary, args)
            res = last_json(stdout)
            if status != 0 or res is None:
                problems.append(f"{name} --trace {trace}: exit status {status}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} --trace {trace}: metrics {got} != {want}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print(json.dumps({"selfcheck": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if a.selfcheck:
        return selfcheck(binary)
    return measure(binary, a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
