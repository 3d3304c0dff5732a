#!/usr/bin/env python3
"""Build and run SCI's benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fanout-mem --seed 1 --seconds 20 --trace 0

The Go program in this directory is built against the checkout's own
sources (its go.mod replaces module `sci` with the parent directory), with
every build artefact, cache and trace kept under .bench_build/ in the
checkout. The program's last output line is the JSON result; a build
failure or a failed correctness check exits non-zero.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Commit of the checkout, or a digest of its Go sources outside git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no SCI sources next to the benchmark (go.mod missing)", file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    home = os.path.join(build_dir, "home")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=900)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env["PERFBENCH_COMMIT"] = source_digest()
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
