"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The end-to-end tests run every workload for one round (``--seconds 1``) in
fresh processes, so the suite takes a minute or two on 2 cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_pstirling()

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

@pytest.fixture
def tiny(monkeypatch):
    """Shrink the workloads' sizes; ``tiny(name, seed, n_rounds=2)`` builds one."""
    monkeypatch.setattr(workloads, "TABLE_ORDERS", (6, 8))
    monkeypatch.setattr(workloads, "TABLES_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "CROSS_ORDER", 5)
    monkeypatch.setattr(workloads, "ORACLE_PER_ROUND", 1)
    monkeypatch.setattr(workloads, "EDGEWORTH_POINTS", {8: 1, 16: 1})
    monkeypatch.setattr(workloads, "MC_MOMENTS", tuple(
        (spec, n, j, max(2, samples // 20)) for spec, n, j, samples in workloads.MC_MOMENTS))
    monkeypatch.setattr(workloads, "MC_CDFS", tuple(
        (spec, n, max(2, samples // 20)) for spec, n, samples in workloads.MC_CDFS))
    return lambda name, seed, n_rounds=2: workloads.build(name, seed, n_rounds, str(ROOT))


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_named_metric(name, trace, kind):
    done = run_bench(name, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(name, tiny):
    wl = tiny(name, 1)
    wl.warmup()
    summary = worker.summarize(wl, worker.execute(wl))
    assert summary["fail_ratio"] == 0
    assert summary["attempted"] == sum(len(ops) for ops in wl.rounds)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_digest_repeats_for_a_seed(name, tiny):
    first = worker.execute(tiny(name, 5))["digest"]
    assert worker.execute(tiny(name, 5))["digest"] == first
    assert worker.execute(tiny(name, 6))["digest"] != first


def _record_args(monkeypatch, module, name):
    seen = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def test_no_input_repeats_within_a_run(monkeypatch, tiny):
    from pstirling import oracle, stirling

    wl = tiny("exact", 2, n_rounds=6)
    calls = _record_args(monkeypatch, stirling, "psn_egf")
    worker.execute(wl)
    tables = [args for args in calls if args[0].order in workloads.TABLE_ORDERS]
    assert len(tables) == 12 and len(set(tables)) == 12

    monkeypatch.setattr(workloads, "EDGEWORTH_POINTS", {8: 2, 16: 1})
    wl = tiny("float_cli", 2, n_rounds=6)
    points = _record_args(monkeypatch, oracle, "uniform_fn_exact")
    streams = _record_args(monkeypatch, oracle, "mc_sum_moment")
    worker.execute(wl)
    assert len(points) == 18 and len(set(points)) == 18
    assert len({args[4] for args in streams}) == len(streams) == 6 * len(workloads.MC_MOMENTS)


def test_wrong_value_is_counted_as_failure(monkeypatch, tiny):
    from pstirling import stirling

    real = stirling.psn_direct
    monkeypatch.setattr(stirling, "psn_direct", lambda *a, **k: real(*a, **k) + 1)
    wl = tiny("exact", 1)
    result = worker.execute(wl)
    summary = worker.summarize(wl, result)
    assert summary["fail_ratio"] > 0
    assert {f["kind"] for f in result["failures"]} == {"psn_direct"}
    assert summary["attempted"] == sum(len(ops) for ops in wl.rounds)


def test_raising_op_is_counted_and_run_goes_on(monkeypatch, tiny):
    from pstirling import oracle

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    wl = tiny("float_cli", 1)
    monkeypatch.setattr(oracle, "uniform_fn_exact", broken)
    summary = worker.summarize(wl, worker.execute(wl))
    assert 0 < summary["failed"] < summary["attempted"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_fit_in_wall_time(name, tiny):
    wl = tiny(name, 1)
    tracer = Tracer()
    result = worker.execute(wl, tracer)
    summary = worker.summarize(wl, result)
    assert summary["fail_ratio"] == 0
    layer_self = sum(st.self_s for n, st in tracer.stats.items() if not n.startswith("op."))
    assert 0 < layer_self <= summary["wall_s"]
    # the package is restored after the traced run
    from pstirling import powerseries, stirling
    assert stirling.egf_mul is powerseries.egf_mul
    assert not tracer._undo


def test_tracer_sees_calls_inside_the_package():
    from pstirling import randomvars, stirling

    tracer = Tracer()
    tracer.install()
    try:
        m = randomvars.moments_of(randomvars.rademacher(), 6)
        span = tracer.begin_op(0, "probe")
        stirling.psn_direct(m, 4, 2)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert tracer.stat("stirling.psn_direct").calls == 1
    # psn_direct reaches egf_mul through the name bound in stirling's namespace
    assert tracer.stat("powerseries.egf_mul").calls == 2
    assert [span[0] for span in tracer.spans] == ["op.probe", "stirling.psn_direct"]


def test_missing_function_is_reported_absent(monkeypatch):
    from pstirling import levy

    monkeypatch.delattr(levy, "cm_coefficients")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "levy.cm_coefficients" in tracer.absent


def test_tail_uses_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 41)]
    assert worker.tail(lat) == (75.0, 30.0, 10)
    assert worker.tail([float(i) for i in range(2000, 0, -1)]) == (99.5, 1990.0, 10)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("exact", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
