#!/usr/bin/env python3
"""Build and run Canon's end-to-end benchmark.

Run from the root of a checkout:

    python3 _perfbench/run.py --workload read-hier --seed 1 --seconds 45 --trace 0

The script builds the perfbench command from the checkout's own source into
.bench_build/ (with the Go build cache there too), then runs it with the
given arguments plus a run record (commit and source digest). Everything it
writes stays under .bench_build/. The last line of standard output is the
benchmark's JSON result. See _perfbench/LEDGER.md for what is measured.

While the benchmark runs, one spinner process per CPU at the SCHED_IDLE
policy keeps idle CPUs out of the halt state, the effect of booting with
idle=poll. On a virtual machine an idle vCPU is descheduled by the host,
and waking it waits on the host's scheduler; request latency then tracks
the host's load instead of the code. SCHED_IDLE threads run only when no
other thread wants the CPU, so the spinners take no time from the benchmark.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def source_digest():
    """SHA-256 over every Go source and go.mod of the checkout."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name == "go.mod":
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


SPINNER = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    raise SystemExit(0)
while True:
    pass
"""


def start_spinners():
    return [subprocess.Popen([sys.executable, "-c", SPINNER], cwd=ROOT)
            for _ in range(os.cpu_count() or 1)]


def stop_spinners(procs):
    for p in procs:
        p.kill()
    for p in procs:
        p.wait()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s: the benchmark needs the Canon source tree" % ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    # A run killed part-way leaves its cluster's data behind.
    shutil.rmtree(os.path.join(BUILD, "data"), ignore_errors=True)
    cmd = [BINARY] + argv + ["--out", BUILD, "--commit", commit(),
                             "--source-digest", source_digest()]
    sys.stdout.flush()
    spinners = start_spinners()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        stop_spinners(spinners)


if __name__ == "__main__":
    # On SIGTERM, unwind so the benchmark and the spinners are killed and
    # waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
