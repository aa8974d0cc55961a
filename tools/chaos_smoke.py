#!/usr/bin/env python3
"""Multi-process chaos smoke: kill -9 the service, expect identical bits.

Usage:
    chaos_smoke.py --svc BUILD/src/svc/dsmem_svc \\
                   --bench BUILD/bench/bench_figure3 \\
                   --workdir DIR [--workers 2] [--campaign figure3]

Drives the sharded campaign service the way an unlucky operator
experiences it, asserting the at-least-once dispatch contract from
the outside (no test hooks, only public binaries and signals):

  1. reference   -- the in-process bench (`--jobs N --stable-json`)
                    produces the golden JSON export.
  2. clean shard -- `dsmem_svc run` with real worker processes must
                    reproduce the reference byte-for-byte, accept
                    one result per cell, lease fused groups
                    (--stats-json: assigns < dispatched), and run
                    max(1, cpus // workers) leases per worker
                    (--stats-json: worker_threads).
  3. worker kill -- re-run with phase-2 slowed by a failpoint delay,
                    SIGKILL worker pids parsed live from the
                    coordinator's "svc: worker N pid P" lines; the
                    run must still exit 0 with identical bytes and
                    report worker_deaths > 0 in --stats-json.
  4. coord kill  -- arm `svc.coord.recv:kill` so the *coordinator*
                    dies mid-campaign (workers never evaluate that
                    site), then `--resume` against the same journal
                    must finish with identical bytes.
  5. store gc    -- `dsmem_svc gc` on the shared trace cache must
                    exit 0 with `errors 0` and keep every bundle: a
                    rerun reads every trace from disk, and the clean
                    sharded run still matches the reference.

Every phase shares one trace cache, so phase-2 timing is recomputed
from the same immutable bundles everywhere and "identical" means
identical, not "statistically close".

Exit codes: 0 ok, 1 contract violation (wrong exit code or byte
diff), 2 usage/setup error.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time


def fail(msg):
    print(f"chaos_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def usage_error(msg):
    print(f"chaos_smoke: {msg}", file=sys.stderr)
    sys.exit(2)


def note(msg):
    print(f"chaos_smoke: {msg}", flush=True)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


WORKER_LINE = re.compile(rb"svc: worker (\d+) pid (\d+)")


def run_logged(cmd, env=None, tag=""):
    """Run to completion, returning (exit_code, stdout, stderr)."""
    note(f"[{tag}] {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def kill_workers_live(cmd, env, max_kills, tag):
    """Run @cmd, SIGKILL-ing up to @max_kills distinct worker pids as
    the coordinator announces them. Returns (exit_code, kills_sent)."""
    note(f"[{tag}] {' '.join(cmd)}")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    kills = []
    lock = threading.Lock()

    def assassin(pid):
        # Let the worker get a lease first so a re-dispatch actually
        # happens, instead of killing a process that never ran a cell.
        time.sleep(0.4)
        try:
            os.kill(pid, signal.SIGKILL)
            with lock:
                kills.append(pid)
            note(f"[{tag}] sent SIGKILL to worker pid {pid}")
        except ProcessLookupError:
            pass  # Finished before we got to it; the run stays clean.

    seen = set()
    for line in proc.stdout:
        m = WORKER_LINE.search(line)
        if not m:
            continue
        pid = int(m.group(2))
        if pid in seen or len(seen) >= max_kills:
            continue
        seen.add(pid)
        threading.Thread(target=assassin, args=(pid,),
                         daemon=True).start()
    proc.stdout.close()
    code = proc.wait()
    return code, len(kills)


def main():
    ap = argparse.ArgumentParser(
        description="multi-process chaos smoke for dsmem_svc")
    ap.add_argument("--svc", required=True,
                    help="path to the dsmem_svc binary")
    ap.add_argument("--bench", required=True,
                    help="path to the bench_figure3 binary")
    ap.add_argument("--workdir", required=True,
                    help="scratch directory (created if missing)")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--campaign", default="figure3")
    args = ap.parse_args()

    for exe in (args.svc, args.bench):
        if not os.access(exe, os.X_OK):
            usage_error(f"not an executable: {exe}")
    os.makedirs(args.workdir, exist_ok=True)
    cache = os.path.join(args.workdir, "cache")

    base_env = {k: v for k, v in os.environ.items()
                if k != "DSMEM_FAILPOINTS"}

    def path(name):
        return os.path.join(args.workdir, name)

    # -- 1. reference: in-process bench, golden stable-json bytes. ----
    ref = path("ref.json")
    code, _, err = run_logged(
        [args.bench, "--small", "--jobs", str(args.workers),
         "--trace-dir", cache, "--stable-json", "--json", ref],
        env=base_env, tag="reference")
    if code != 0:
        fail(f"reference bench exited {code}:\n{err.decode()}")
    golden = read_bytes(ref)
    note(f"reference export: {len(golden)} bytes")

    def svc_run(tag, json_name, journal_name, extra=(), env=None,
                live_kills=0, stable=True):
        cmd = [args.svc, "run", "--campaign", args.campaign,
               "--small", "--workers", str(args.workers),
               "--trace-dir", cache,
               "--json", path(json_name),
               "--journal", path(journal_name)] + list(extra)
        if stable:
            cmd.append("--stable-json")
        if live_kills:
            return kill_workers_live(cmd, env or base_env,
                                     live_kills, tag)
        code, _, err = run_logged(cmd, env=env or base_env, tag=tag)
        return code, err

    def expect_golden(json_name, tag):
        got = read_bytes(path(json_name))
        if got != golden:
            fail(f"{tag}: export differs from reference "
                 f"({len(got)} vs {len(golden)} bytes)")
        note(f"[{tag}] export is byte-identical to the reference")

    # -- 2. clean sharded run must match the reference exactly. -------
    # Every cell is accepted once, and the leases are planned groups:
    # fewer ASSIGN frames than leased rows means fused multi-row
    # leases really ran.
    clean_stats = path("stats_clean.json")
    code, err = svc_run("clean-shard", "svc_clean.json", "j_clean",
                        extra=["--stats-json", clean_stats])
    if code != 0:
        fail(f"clean sharded run exited {code}:\n{err.decode()}")
    expect_golden("svc_clean.json", "clean-shard")
    doc = json.loads(read_bytes(clean_stats))
    cells = len(json.loads(golden)["runs"])
    if doc["results"] != cells:
        fail(f"clean-shard: results={doc['results']}, "
             f"expected one per cell ({cells})")
    if not doc["assigns"] < doc["dispatched"]:
        fail(f"clean-shard: assigns={doc['assigns']} not below "
             f"dispatched={doc['dispatched']}; no multi-row lease ran")
    # Each worker process runs its share of this process's CPUs (the
    # affinity mask the service inherits) as concurrent leases.
    threads = max(1, len(os.sched_getaffinity(0)) // args.workers)
    if doc["worker_threads"] != threads:
        fail(f"clean-shard: worker_threads={doc['worker_threads']}, "
             f"expected {threads} for {args.workers} workers")
    note(f"[clean-shard] {doc['results']} cells in "
         f"{doc['assigns']} leases, {threads} per worker at once")

    # -- 3. SIGKILL live workers; dispatch must absorb the deaths. ----
    # The delay failpoint stretches each phase-2 cell so the kills
    # land mid-campaign; workers inherit it via the environment.
    # --stable-json zeroes wall-clock fields, so bytes are unaffected.
    chaos_env = dict(base_env)
    chaos_env["DSMEM_FAILPOINTS"] = "campaign.phase2:delay:100"
    stats = path("stats_kill.json")
    code, kills = svc_run("worker-kill", "svc_kill.json", "j_kill",
                          extra=["--stats-json", stats],
                          env=chaos_env, live_kills=args.workers)
    if code != 0:
        fail(f"worker-kill run exited {code}")
    expect_golden("svc_kill.json", "worker-kill")
    stats_doc = read_bytes(stats).decode()
    m = re.search(r'"worker_deaths":\s*(\d+)', stats_doc)
    deaths = int(m.group(1)) if m else 0
    if kills > 0 and deaths < 1:
        fail(f"sent {kills} SIGKILLs but stats report "
             f"worker_deaths={deaths}:\n{stats_doc}")
    note(f"[worker-kill] {kills} kill(s) sent, "
         f"{deaths} death(s) absorbed")

    # -- 4. SIGKILL the coordinator itself, then --resume. ------------
    coord_env = dict(base_env)
    coord_env["DSMEM_FAILPOINTS"] = "svc.coord.recv:kill:5"
    code, _ = svc_run("coord-kill", "svc_resume.json", "j_resume",
                      env=coord_env)
    if code == 0:
        # The campaign finished before the 5th coordinator receive --
        # possible only if the run degenerated; treat as a miss.
        fail("coordinator survived svc.coord.recv:kill:5; "
             "the kill failpoint never fired")
    note(f"[coord-kill] coordinator died as scheduled (exit {code})")
    code, err = svc_run("coord-resume", "svc_resume.json", "j_resume",
                        extra=["--resume"])
    if code != 0:
        fail(f"resume after coordinator kill exited {code}:\n"
             f"{err.decode()}")
    expect_golden("svc_resume.json", "coord-resume")

    # -- 5. GC the shared store; it must keep every valid bundle. -----
    # --stable-json blanks trace origins, so one rerun without it
    # checks that GC removed nothing live, and a stable rerun checks
    # the bytes.
    code, out, err = run_logged([args.svc, "gc", "--trace-dir", cache],
                                env=base_env, tag="store-gc")
    if code != 0 or b"errors 0" not in out:
        fail(f"store gc exited {code}:\n{out.decode()}{err.decode()}")
    note(f"[store-gc] {out.decode().strip()}")
    code, err = svc_run("gc-origin", "svc_gc_origin.json", "j_gc_origin",
                        stable=False)
    if code != 0:
        fail(f"post-gc run exited {code}:\n{err.decode()}")
    traces = json.loads(read_bytes(path("svc_gc_origin.json")))["traces"]
    origins = sorted({t["origin"] for t in traces})
    if not traces or origins != ["disk"]:
        fail(f"post-gc run: trace origins {origins}, expected all "
             f"'disk'; gc removed a live bundle")
    note(f"[gc-origin] all {len(traces)} traces read from disk")
    code, err = svc_run("gc-clean", "svc_gc.json", "j_gc")
    if code != 0:
        fail(f"post-gc clean run exited {code}:\n{err.decode()}")
    expect_golden("svc_gc.json", "gc-clean")

    note("OK: all chaos phases reproduced the reference bit-exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
