#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The host's core count, rustc
version and commit are passed on for the report. The exit code is the
benchmark's: non-zero when the build fails or a correctness check fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit():
    """The git commit, or a digest of the sources when not in a git checkout."""
    head = output_of(["git", "rev-parse", "HEAD"])
    if head:
        return head
    h = hashlib.sha256()
    for base in ["Cargo.toml", "Cargo.lock", "crates", "vendor"]:
        path = ROOT / base
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml", ".lock"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    host = [
        "--host-nproc", str(len(os.sched_getaffinity(0))),
        "--host-rustc", output_of(["rustc", "--version"]) or "unknown",
        "--host-commit", commit(),
    ]
    exe = target / "release" / "perfbench"
    return subprocess.run([str(exe), *sys.argv[1:], *host], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
