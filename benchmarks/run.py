"""Benchmark entry point: generate one workload's inputs from a seed, measure
them in a separate process, and print the result.

    python3 benchmarks/run.py --workload annotate --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance (Python version, git SHA, nproc, seed, input sizes,
sample counts and the digest of all outputs).  Workloads and metrics are
described in ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "aranlp"

# Each run must end within 180 s; the measuring process gets what the
# generator left of that.
RUN_LIMIT_S = 170


def git_sha(root: Path) -> str:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256(package: Path) -> str:
    """Digest of the library's files, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aranlp benchmark")
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no library at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the measuring process and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        sizes = gen.GENERATORS[args.workload](args.seed, work)
        command = [
            sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
            "--inputs", str(work), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        try:
            child = subprocess.run(
                command, capture_output=True, text=True,
                timeout=RUN_LIMIT_S - (time.monotonic() - started),
            )
        except subprocess.TimeoutExpired:
            print("benchmark: measuring process timed out", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only if no other run uses it
            work.parent.rmdir()
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"benchmark: measuring process exited with {child.returncode}",
              file=sys.stderr)
        return 1
    measured = json.loads(child.stdout.strip().splitlines()[-1])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(PACKAGE),
        "input_sizes": sizes,
        "ops_per_pass": measured["ops_per_pass"],
        "setup_repeats": measured["setup_repeats"],
        "samples": measured["samples"],
        "output_digest": measured["output_digest"],
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    values = measured["metrics"]
    if {m["name"] for m in declared} != set(values):
        print("benchmark: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
