#!/usr/bin/env python3
"""Build and run the AIM-II benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload oltp_read --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune inside the checkout's _build, with
dune's shared cache off so that nothing is written outside the checkout,
then runs it with the same arguments; bench.exe checks them.  The
benchmark's last line of standard output is its JSON result.  The exit
code is the benchmark's, or non-zero when the build fails or a time limit
passes.
"""

import ctypes
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
PR_SET_CHILD_SUBREAPER = 36

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # The benchmark runs its parts in child processes.  Its own process
    # group lets a timeout stop them all, and as their subreaper this
    # script can wait for the ones whose parent died first.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
        sys.exit("run.py: benchmark timed out")


if __name__ == "__main__":
    main()
