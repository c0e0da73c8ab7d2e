#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are resolved against the repository root.  The
first run configures and builds the measuring program from source into
.bench_build/perfbench (about a minute on 4 cores); later runs only let the
build tool confirm it is up to date.  The last line of standard output is
the result object; the line before it is the report (provenance, work
counts, tail populations, flags).  With --trace 1 the spans are written to
.bench_build/perfbench-traces/<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("fig10", "multi_pattern", "serve_durable")
# The measured tree: what the program is built from.
SOURCE_DIRS = ("src", "perfbench")
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def git_blob(data):
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def git_tree(path):
    """The git object id of the directory's tree, computed from the files
    themselves (the benchmark may run in a checkout without .git); equal to
    `git rev-parse HEAD:<dir>` for an unmodified checkout."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if name in (".git", "__pycache__"):
            continue
        if os.path.islink(full):
            entries.append((name, b"120000",
                            git_blob(os.readlink(full).encode()), False))
        elif os.path.isdir(full):
            sub = git_tree(full)
            if sub is not None:
                entries.append((name, b"40000", sub, True))
        else:
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            with open(full, "rb") as handle:
                entries.append((name, mode, git_blob(handle.read()), False))
    if not entries:
        return None
    entries.sort(key=lambda e: e[0] + ("/" if e[3] else ""))
    body = b"".join(mode + b" " + name.encode() + b"\0" + bytes.fromhex(sha)
                    for name, mode, sha, _ in entries)
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def source_ids():
    ids = {d: git_tree(os.path.join(ROOT, d)) for d in SOURCE_DIRS}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    ids["git_commit"] = commit
    return ids


def build():
    """Configures once, then builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to perfbench/; nothing to build")
        return None
    configured = any(os.path.isfile(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        command = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                       "ocep_perfbench"], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "ocep_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    work_dir = os.path.join(BUILD_ROOT, "perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--source", json.dumps(source_ids(), sort_keys=True)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("the measuring program failed (exit %d)" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
