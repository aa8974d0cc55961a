#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run, check, report.

    benchmark/run.sh [--workload W] [--seed S|A-B] [--seconds T]
                     [--trace [0|1]] [--runs N] [--out FILE]
    benchmark/run.sh --smoke
    benchmark/run.sh --update-golden

Builds benchmark/ (its own CMake project over ../src) into build-bench/,
then runs each workload in its own dsmem_e2e process. Every metric is
printed with its unit. With --workload the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics untraced, the per-layer metrics with --trace 1. The exit code is
non-zero when any cell's result differs from benchmark/golden.json (or,
for a stream_sweep seed without a golden digest, from the flat-path
oracle dsmem_e2e computes during set-up).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig3_cold", "fig3_warm", "fig3_svc", "stream_sweep"]
FIGURE3 = {"fig3_cold", "fig3_warm", "fig3_svc"}
# A run must end within 180 s of its start (a first build aside); the
# build check of an already-built tree takes about a second.
RUN_DEADLINE_S = 170
SMOKE_ITERS = 3


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build(build_dir):
    """Configure once, then (re)build dsmem_e2e; exit 1 on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "dsmem_e2e",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=log)
            except OSError as e:
                rc = 127
                log.write("%s: %s\n" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read().splitlines()[-25:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.stderr.write("benchmark: build failed (%s)\n" % log_path)
                sys.exit(1)
    return os.path.join(build_dir, "dsmem_e2e")


def run_e2e(exe, build_dir, args, deadline):
    """Run one dsmem_e2e process; return its parsed last stdout line.

    Its scratch directory lives under build-bench/tmp and is removed
    afterwards even if the process died; the whole process group is
    killed on timeout, so no service worker outlives it.
    """
    tmp = os.path.join(build_dir, "tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("benchmark: %s timed out\n" % " ".join(args))
        sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write("benchmark: dsmem_e2e %s exited %d\n"
                         % (" ".join(args), proc.returncode))
        sys.exit(proc.returncode or 1)
    return json.loads(lines[-1])


def e2e_args(workload, seed, opts, golden, build_dir, iters=0,
                record=False):
    """dsmem_e2e flags; iters > 0 runs that many iterations, one set-up."""
    args = ["--workload", workload, "--seed", str(seed)]
    if iters:
        args += ["--iters", str(iters), "--setup-reps", "1"]
    else:
        args += ["--seconds", str(opts.seconds)]
    if opts.smoke:
        args.append("--smoke")
    if opts.trace:
        args += ["--trace", "--spans",
                 os.path.join(build_dir, "spans_%s.json" % workload)]
    if record:
        args.append("--record")
    else:
        suffix = "_smoke" if opts.smoke else ""
        args += ["--golden-fig3", golden["figure3" + suffix]]
        stream = golden.get("stream_sweep%s_seed%d" % (suffix, seed))
        if stream:
            args += ["--golden-stream", stream]
    return args


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def print_table(results):
    print("%-13s %-26s %18s  %s" % ("workload", "metric", "value", "unit"))
    for r in results:
        for name, m in r["metrics"].items():
            print("%-13s %-26s %18.6f  %s" % (r["workload"], name,
                                              m["value"], m["unit"]))


def update_golden(exe, build_dir, opts):
    """Rewrite golden.json from checked runs; only this file changes."""
    golden = {}
    for smoke in (False, True):
        opts.smoke = smoke
        suffix = "_smoke" if smoke else ""
        seen = set()
        for workload in sorted(FIGURE3):
            for seed in (1, 2):
                r = run_e2e(exe, build_dir,
                               e2e_args(workload, seed, opts, {},
                                           build_dir, iters=1,
                                           record=True),
                               time.time() + RUN_DEADLINE_S)
                if r["failed"]:
                    sys.exit("benchmark: %s failed cells" % workload)
                seen.add(r["digest"])
        if len(seen) != 1:
            sys.exit("benchmark: figure3 digests disagree: %s"
                     % sorted(seen))
        golden["figure3" + suffix] = seen.pop()
        # Checked against the flat-path oracle: no golden passed.
        args = e2e_args("stream_sweep", 1, opts,
                           {"figure3" + suffix: golden["figure3" + suffix]},
                           build_dir, iters=1)
        r = run_e2e(exe, build_dir, args, time.time() + RUN_DEADLINE_S)
        if not r["correct"] or r["reference"] != "oracle":
            sys.exit("benchmark: stream_sweep disagrees with its oracle")
        golden["stream_sweep%s_seed1" % suffix] = r["digest"]
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print("benchmark: wrote benchmark/golden.json")


def main():
    bench = spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", default="1",
                   help="seed, or an inclusive range A-B")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--runs", type=int, default=1,
                   help="runs per (workload, seed)")
    p.add_argument("--out", help="write every run's result to this file")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, %d iterations, every workload "
                        "plus one traced run" % SMOKE_ITERS)
    p.add_argument("--update-golden", action="store_true")
    p.add_argument("--build-dir", default=os.path.join(ROOT, "build-bench"))
    opts = p.parse_args()
    opts.trace = opts.trace == "1"
    build_dir = os.path.abspath(opts.build_dir)

    exe = build(build_dir)
    if opts.update_golden:
        update_golden(exe, build_dir, opts)
        return 0

    golden = load_json(os.path.join(HERE, "golden.json"))
    workloads = [opts.workload] if opts.workload else WORKLOADS
    plan = [(w, s, opts.trace) for w in workloads
            for s in parse_seeds(opts.seed) for _ in range(opts.runs)]
    if opts.smoke:
        # One traced run covers every layer; it stays under 10 s total.
        plan.append(("stream_sweep", plan[0][1], True))
    results = []
    for workload, seed, trace in plan:
        opts.trace = trace
        r = run_e2e(exe, build_dir,
                       e2e_args(workload, seed, opts, golden, build_dir,
                                   iters=SMOKE_ITERS if opts.smoke else 0),
                       time.time() + RUN_DEADLINE_S)
        results.append(r)

    if opts.out:
        host = json.loads(subprocess.check_output([exe, "--host"], text=True))
        with open(opts.out, "w") as f:
            json.dump({"host": host, "seconds": opts.seconds,
                       "runs": results}, f, indent=1)
            f.write("\n")

    ok = all(r["correct"] for r in results)
    if len(results) == 1:
        r = results[0]
        section = "per_layer" if r["trace"] else "end_to_end"
        names = [m["name"] for m in bench[section]]
        missing = [n for n in names if n not in r["metrics"]]
        if missing:
            sys.exit("benchmark: dsmem_e2e did not report %s" % missing)
        print(json.dumps({"correct": r["correct"],
                          "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": {n: r["metrics"][n] for n in names}}))
    else:
        print_table(results)
        print("benchmark: %d runs, %s" % (len(results),
              "all correct" if ok else "DIGEST MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
