#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark command (perfbench/, its own Go module) and the guest
program (perfbench/testdata/guest) for wasip1 and for this host, reusing
earlier builds of identical sources, then runs the benchmark and relays its
output. The last line of standard output is the benchmark's JSON result.
Everything the build and the run write stays under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the current
directory. Exits non-zero without a result when anything fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
GUEST_PKG = "./testdata/guest"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root, build_dir):
    """Digest of every Go source and module file the build reads."""
    h = hashlib.sha256()
    skip = {os.path.abspath(build_dir)}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and os.path.abspath(os.path.join(dirpath, d)) not in skip
        )
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def go_env(build_dir):
    """Environment that keeps the Go toolchain's caches and config inside
    the build directory and never fetches anything."""
    env = dict(os.environ)
    home = os.path.join(build_dir, "home")
    for d in ("home", "gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "TMPDIR": os.path.join(build_dir, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOTELEMETRY": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    for k in ("GOOS", "GOARCH", "GOROOT_FINAL", "GOEXPERIMENT"):
        env.pop(k, None)
    return env


def go_build(env, out, pkg, extra_env=None):
    """go build pkg (relative to perfbench/) into out, atomically."""
    tmp = out + ".tmp"
    e = dict(env)
    e.update(extra_env or {})
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", tmp, pkg],
        cwd=BENCH_DIR, env=e, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=800,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("go build %s failed" % pkg)
    os.replace(tmp, out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("go.mod") or not os.path.isfile(os.path.join(BENCH_DIR, "go.mod")):
        fail("run from the repository root (go.mod and %s/go.mod not found)" % BENCH_DIR)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    env = go_env(build_dir)

    go_version = subprocess.run(["go", "env", "GOVERSION"], env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, timeout=60).stdout.decode().strip()
    digest = source_digest(".", build_dir)
    key = hashlib.sha256((digest + go_version).encode()).hexdigest()[:20]
    bin_dir = os.path.join(build_dir, "bin", key)
    os.makedirs(bin_dir, exist_ok=True)

    bench = os.path.join(bin_dir, "perfbench")
    if not os.path.isfile(bench):
        go_build(env, bench, ".")
    guest_wasm = os.path.join(bin_dir, "guest.wasm")
    guest_native = os.path.join(bin_dir, "guest-native")
    toolchain_s = -1.0
    if not (os.path.isfile(guest_wasm) and os.path.isfile(guest_native)):
        t0 = time.monotonic()
        go_build(env, guest_wasm, GUEST_PKG, {"GOOS": "wasip1", "GOARCH": "wasm"})
        go_build(env, guest_native, GUEST_PKG)
        toolchain_s = time.monotonic() - t0

    commit = "unknown"
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=30)
        if r.returncode == 0:
            commit = r.stdout.decode().strip()

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        bench,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-guest-wasm", guest_wasm,
        "-guest-native", guest_native,
        "-work-dir", work_dir,
        "-toolchain-build-s", repr(toolchain_s),
        "-source", digest,
        "-commit", commit,
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        fail("stopped by signal %d" % signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace"))
        fail("benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
