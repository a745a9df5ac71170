#!/usr/bin/env python3
"""Build the Marion benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload compile|simulate|rebuild \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/perfbench.ml) is built with dune inside
the tree and run there; its standard output is passed through, ending in
one JSON line with the metrics. The exit status is non-zero when the
build or the run fails, and no result is printed then.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys


def find_dune():
    """dune from PATH, else from the active or an installed opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    return None


def call(argv, **kwargs):
    """Run argv to completion. A SIGTERM or SIGINT to this script is passed
    on to it; the script waits for it to end, then exits."""
    child = subprocess.Popen(argv, **kwargs)
    received = []

    def forward(signum, _frame):
        # the interrupted wait below resumes and reaps the child; waiting
        # here instead would deadlock on Popen's wait lock
        received.append(signum)
        child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    code = child.wait()
    if received:
        sys.exit(128 + received[0])
    return code


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["compile", "simulate", "rebuild"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the Marion source tree "
                 "(dune-project and lib/ not found)")
    dune = find_dune()
    if dune is None:
        sys.exit("perfbench: dune not found")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    built = call([dune, "build", "--root", ".", "--cache=disabled",
                  "./perfbench/perfbench.exe"], stdout=sys.stderr, env=env)
    if built != 0:
        sys.exit("perfbench: build failed")
    sys.exit(call(
        [os.path.join("_build", "default", "perfbench", "perfbench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace]))


if __name__ == "__main__":
    main()
