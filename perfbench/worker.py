"""Run one workload in this (fresh) process and print its record as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--trace] [--setup-only] [--spawned-at MONOTONIC]

``run.py`` starts this script; it is not meant to be run by hand.  The
record is the last line of stdout.  ``--spawned-at`` is the
``time.monotonic()`` reading taken just before this process was started,
so set-up time counts interpreter start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10
PYTHON_START_PROBES = 5
CLI_PROBES = 7
PSTIRLING_MODULES = ("powerseries", "randomvars", "stirling", "moments",
                     "levy", "edgeworth", "oracle", "cli")


def import_pstirling():
    """Import pstirling from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import pstirling

    where = Path(pstirling.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: pstirling resolves to {where}, outside {SRC}")
    return pstirling


def tail(latencies):
    """(percentile, value, ops beyond it) at the highest percentile that
    leaves TAIL_BEYOND ops above it: the (TAIL_BEYOND+1)-th largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return 100.0 * (idx + 1) / n, ordered[idx], n - 1 - idx


def execute(workload, tracer=None):
    """Run every op of the workload once, closed loop, one at a time.

    Only ``op.run()`` is timed; the check and the digest come after it.
    An op that raises or fails its check is counted and the run goes on.
    """
    from pstirling import stirling

    cached = getattr(stirling, "psn_egf_cached", None)
    cache_info = getattr(cached, "cache_info", None)
    hits = misses = 0
    latencies = []
    kinds = []
    failures = []
    digest = hashlib.sha256()
    op_id = 0
    if tracer is not None:
        tracer.install()
    try:
        for r, ops in enumerate(workload.rounds):
            for op in ops:
                if cache_info is not None:
                    before = cache_info()
                span = tracer.begin_op(op_id, op.kind) if tracer is not None else None
                error = None
                start = perf_counter()
                try:
                    value = op.run()
                except Exception as exc:  # an op failure is a result, not a crash
                    error = exc
                end = perf_counter()
                if span is not None:
                    tracer.end_op(span)
                if cache_info is not None:
                    after = cache_info()
                    hits += after.hits - before.hits
                    misses += after.misses - before.misses
                latencies.append(end - start)
                kinds.append(op.kind)
                if error is None:
                    try:
                        ok = bool(op.check(value))
                        text = op.text(value)
                    except Exception as exc:
                        ok, text, error = False, "", exc
                else:
                    ok, text = False, ""
                if not ok:
                    failures.append({"op": op_id, "round": r, "kind": op.kind,
                                     "error": repr(error) if error else "check failed"})
                digest.update(f"{op_id}:{op.kind}:{'ok' if ok else 'FAIL'}:{text}\n".encode())
                op_id += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "latencies": latencies,
        "kinds": kinds,
        "failures": failures,
        "digest": digest.hexdigest(),
        "cache": {"hits": hits, "misses": misses},
    }


def peak_rss_mb(workload):
    """Peak RSS of this process or, if the workload starts children (the CLI
    commands and the set-up child that captures their expected output), of
    the largest of them, whichever is larger."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.spawns_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def summarize(workload, result):
    lat = result["latencies"]
    attempted = len(lat)
    pct, tail_s, beyond = tail(lat)
    return {
        "wall_s": sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": pct,
        "tail_ops_beyond": beyond,
        "attempted": attempted,
        "failed": len(result["failures"]),
        "fail_ratio": len(result["failures"]) / attempted,
        "peak_rss_mb": peak_rss_mb(workload),
        "rounds": len(workload.rounds),
    }


def _child_ms(argv, env):
    start = perf_counter()
    done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=True)
    return (perf_counter() - start) * 1e3, done.stderr.decode("utf-8", "replace")


def python_start_ms(env, probes=PYTHON_START_PROBES):
    """Median wall time of a bare ``python -c pass`` child (site imports included)."""
    return statistics.median(_child_ms([sys.executable, "-c", "pass"], env)[0]
                             for _ in range(probes))


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_profile(env):
    """Self and cumulative import times (ms) of pstirling's modules, from -X importtime."""
    _, err = _child_ms([sys.executable, "-X", "importtime", "-c", "import pstirling.cli"], env)
    out = {}
    for self_us, cum_us, name in _IMPORTTIME.findall(err):
        out[name] = (int(self_us) / 1e3, int(cum_us) / 1e3)
    return out


def cli_layers(result, env, probes=CLI_PROBES):
    """cli.* per-layer numbers from probe children, beside the command times."""
    commands = [t for t, kind in zip(result["latencies"], result["kinds"])
                if kind.startswith("cli.")]
    starts, imports, modules = [], [], {m: [] for m in PSTIRLING_MODULES}
    for _ in range(probes):
        starts.append(python_start_ms(env, probes=1))
        prof = import_profile(env)
        imports.append(prof.get("pstirling.cli", (0.0, 0.0))[1])
        for m in PSTIRLING_MODULES:
            modules[m].append(prof.get("pstirling." + m, (0.0, 0.0))[0])
    start_ms = statistics.median(starts)
    import_ms = statistics.median(imports)
    out = {
        "cli.python_start_ms": start_ms,
        "cli.import_ms": import_ms,
        "cli.command_ms": statistics.median(commands) * 1e3 - start_ms - import_ms,
    }
    for m in PSTIRLING_MODULES:
        out[f"cli.import.{m}_ms"] = statistics.median(modules[m])
    return out


def layer_metrics(workload, result, tracer, env):
    """Per-layer numbers of a traced run, keyed by metric name."""
    s = tracer.stat
    mul = s("powerseries.egf_mul")
    draw = s("randomvars.sample_sum")
    cache = result["cache"]
    lookups = cache["hits"] + cache["misses"]
    out = {
        "powerseries.egf_mul.calls": mul.calls,
        "powerseries.egf_mul.self_s": mul.self_s,
        "powerseries.egf_mul.coeff_products": mul.work,
        "powerseries.egf_mul.ns_per_product": mul.self_s / mul.work * 1e9 if mul.work else 0.0,
        "powerseries.egf_pow.calls": s("powerseries.egf_pow").calls,
        "powerseries.egf_log.self_s": s("powerseries.egf_log").self_s,
        "moments.sum_moment.self_s": s("moments.sum_moment").self_s,
        "moments.sum_moment_recursion.self_s": s("moments.sum_moment_recursion").self_s,
        "moments.cumulants_from_sum_moments.self_s": s("moments.cumulants_from_sum_moments").self_s,
        "moments.sum_moment_egf.calls": s("moments.sum_moment_egf").calls,
        "stirling.psn_egf.calls": s("stirling.psn_egf").calls,
        "stirling.psn_egf.self_s": s("stirling.psn_egf").self_s,
        "stirling.psn_direct.self_s": s("stirling.psn_direct").self_s,
        "stirling.psn_via_classical.self_s": s("stirling.psn_via_classical").self_s,
        "stirling.psn_gr_rep.self_s": s("stirling.psn_gr_rep").self_s,
        "stirling.weighted_sum_moment.self_s": s("stirling.weighted_sum_moment").self_s,
        "stirling.psn_egf_cached.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "stirling.psn_egf_cached.lookups": lookups,
        "stirling.table.max_bits": workload.max_bits,
        "levy.cm_coefficients.self_s": s("levy.cm_coefficients").self_s,
        "levy.subordinator_moment_h.self_s": s("levy.subordinator_moment_h").self_s,
        "randomvars.moments_of.self_s": s("randomvars.moments_of").self_s,
        "randomvars.hat_transform.self_s": s("randomvars.hat_transform").self_s,
        "randomvars.sample_sum.calls": draw.calls,
        "randomvars.sample_sum.self_s": draw.self_s,
        "randomvars.sample_sum.ns_per_draw": (draw.self_s / workload.draws * 1e9
                                              if workload.draws else 0.0),
        "edgeworth.edgeworth_model.self_s": s("edgeworth.edgeworth_model").self_s,
        "edgeworth.edgeworth_cdf.self_s": s("edgeworth.edgeworth_cdf").self_s,
        "oracle.uniform_fn_exact.calls": s("oracle.uniform_fn_exact").calls,
        "oracle.uniform_fn_exact.self_s": s("oracle.uniform_fn_exact").self_s,
        "oracle.mc_sum_moment.self_s": s("oracle.mc_sum_moment").self_s,
        "oracle.mc_empirical_cdf.self_s": s("oracle.mc_empirical_cdf").self_s,
    }
    if workload.spawns_children:
        out.update(cli_layers(result, env))
    else:
        out["cli.python_start_ms"] = out["cli.import_ms"] = out["cli.command_ms"] = 0.0
        for m in PSTIRLING_MODULES:
            out[f"cli.import.{m}_ms"] = 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", default=None, help="file for the raw spans")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    pstirling = import_pstirling()
    import workloads

    workload = workloads.build(args.workload, args.seed,
                               workloads.rounds_for(args.workload, args.seconds), str(ROOT))
    workload.warmup()
    setup_s = time.monotonic() - spawned_at
    record = {"setup_s": setup_s, "pstirling_file": pstirling.__file__}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
    result = execute(workload, tracer)
    record.update(summarize(workload, result))
    record["digest"] = result["digest"]
    record["failures"] = result["failures"][:20]
    env = workloads.cli_env(str(ROOT))
    if tracer is not None:
        record["layers"] = layer_metrics(workload, result, tracer, env)
        record["absent"] = tracer.absent
        record["stats"] = {name: {"calls": st.calls, "self_s": st.self_s, "work": st.work}
                           for name, st in sorted(tracer.stats.items())}
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    elif workload.spawns_children:
        record["cli_python_start_ms"] = python_start_ms(env)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
