"""pstirling benchmark: the command that runs one workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) that imports pstirling from the checkout's
``src/`` only; one op runs at a time (closed loop, one client).

``--trace 0`` reports the end-to-end metrics.  Set-up is measured in
SETUP_SAMPLES fresh processes (the middle one also runs the timed phase)
and reported as the median.  Half of the set-up-only processes run
before the timed phase and half after it, so the samples span the run:
the speed of the 2-core reference machine shifts by up to 1.6x for
seconds at a time, and samples taken back to back would all see one
state.

``--trace 1`` reports the per-layer metrics.  It runs the same op set
twice in two fresh processes, untraced then traced; the traced one
wraps each layer's public functions.  ``trace.overhead_ratio`` is the
traced wall time over the untraced one, and the two exact-output
digests must match.

The full run record (provenance, digest, tail percentile, load) is
printed on the line before the result and written under
``perfbench/out/``.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def as_metrics(kind, values):
    """The metrics BENCHMARK.json names under ``kind``, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec()[kind]}


def worker(args, *extra):
    """Start worker.py in a fresh process; return its record (last stdout line)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    spawned_at = time.monotonic()
    done = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() or None


def source_sha256():
    """Digest of the package sources, which identifies the code under test
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pstirling").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_untraced(args, record):
    half = (SETUP_SAMPLES - 1) // 2
    setups = [worker(args, "--setup-only")["setup_s"] for _ in range(half)]
    main = worker(args)
    setups.append(main["setup_s"])
    setups += [worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - half)]
    record.update(main)
    record["setup_samples_s"] = setups
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": main["wall_s"],
        "op_p50_ms": main["op_p50_ms"],
        "op_tail_ms": main["op_tail_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": 1.0 - main["fail_ratio"],
    }
    return main["attempted"], main["failed"], main["failed"] == 0, as_metrics("end_to_end", values)


def run_traced(args, record):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    base = worker(args)
    traced = worker(args, "--trace", "--trace-out", str(spans_path))
    record.update(traced)
    record["untraced_wall_s"] = base["wall_s"]
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    same = base["digest"] == traced["digest"]
    record["digests_match"] = same
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return attempted, failed, failed == 0 and same, as_metrics("per_layer", layers)


def main(argv=None):
    parser = argparse.ArgumentParser(description="pstirling benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pstirling" / "__init__.py").is_file():
        print(f"perfbench: no pstirling package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    run = run_traced if args.trace else run_untraced
    attempted, failed, correct, metrics = run(args, record)
    record["loadavg_after"] = os.getloadavg()

    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
