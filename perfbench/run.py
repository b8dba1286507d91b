#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload tree-cold --seed 1 --seconds 10 --trace 0

The script compiles the Go benchmark in perfbench/ (a module of its own
that builds the library from the checkout's source through a replace
directive) into the build directory, runs it once with the given
arguments, and passes its output through. The last line of standard
output is the benchmark's JSON result.

Everything the build and the run write stays inside the checkout: the
binary, the Go build cache and, for --trace 1, the span file all go under
$CARGO_TARGET_DIR (default .bench_build), relative to the checkout root.

Exit codes: 0 for a correct run, 1 when a session or an oracle check
failed (the result is still printed), and 2 or 3 when no result could be
produced (missing sources, a failed build, a crash or a timeout).
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for need in ("go.mod", os.path.join("internal", "core")):
        if not os.path.exists(os.path.join(root, need)):
            fail("library source %s not found in %s" % (need, root))

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isabs(build):
        build = os.path.abspath(build)
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": home,
        "XDG_CACHE_HOME": home,
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    out = r.stdout.decode(errors="replace")
    if r.returncode not in (0, 1):
        # No result: pass the report through but not a result line.
        sys.stdout.write("\n".join(l for l in out.splitlines() if not l.startswith("{")) + "\n")
        fail("benchmark exited with code %d" % r.returncode, 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
