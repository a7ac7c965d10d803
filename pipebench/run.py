#!/usr/bin/env python3
"""Build the paper-pipeline benchmark with the release profile and run it.

    python3 pipebench/run.py --workload {paper,soundness,corpus,replay} \
        --seed N --seconds S --trace {0,1} [--domains D]
    python3 pipebench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/ and the
traces, stores and tables the benchmark writes go to _pipebench/, both
inside the checkout. The last line of stdout is the result object; see
pipebench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
EXE = os.path.join(ROOT, BUILD, "default", "pipebench", "main.exe")
SOURCES = ("dune-project", "lib", "pipebench")


def fail(msg):
    print("pipebench: " + msg, file=sys.stderr)
    return 2


def run(cmd, env, stdout=None):
    """Run cmd to completion; a signal to this process stops it too."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, h in old.items():
            signal.signal(s, h)


def revision(env):
    """The git revision, or a digest of the sources when there is no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "lib", "pipebench"],
                               env=env, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    h = hashlib.sha1()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    stray = sorted(k for k in os.environ if k.startswith("MCM_"))
    if stray:
        return fail("refusing to run with %s set: the workloads pin every configuration"
                    % ", ".join(stray))
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        return fail("no %s here: run from the root of a checkout" % ", ".join(missing))
    # No shared dune cache (it lives outside the checkout) and no GC
    # settings from the caller's environment.
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("OCAMLRUNPARAM", None)
    built = run(["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD,
                 "./pipebench/main.exe"], env, stdout=sys.stderr)
    if built != 0:
        return fail("build failed (exit %d)" % built)
    if args != ["--selftest"]:
        args = args + ["--rev", revision(env)]
    return run([EXE] + args, env)


if __name__ == "__main__":
    sys.exit(main())
