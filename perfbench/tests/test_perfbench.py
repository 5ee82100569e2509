"""Tests of the benchmark itself, at tiny scale.

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SECONDS = 1.0
COUNTS = ("isa.generate.calls", "core.golden.calls",
          "sim.cycles_simulated", "sim.instrs_committed")


def _measure(workload, trace, out, reference=None, seconds=SECONDS):
    return run.measure(workload, 0, seconds, trace, scale=workloads.TINY,
                       reference=reference or {}, out=out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plain_and_traced_runs_agree(workload, tmp_path):
    plain, plain_digests = _measure(workload, False, tmp_path)
    assert plain["correct"] and plain["failed"] == 0, plain
    assert set(plain["metrics"]) == set(run.declared_metrics("end_to_end"))
    assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
    traced, traced_digests = _measure(workload, True, tmp_path)
    assert traced["correct"] and traced["failed"] == 0, traced
    assert set(traced["metrics"]) == set(run.declared_metrics("per_layer"))
    common = set(plain_digests) & set(traced_digests)
    assert common
    assert all(plain_digests[i] == traced_digests[i] for i in common)
    assert (run.stable_digest(plain_digests)
            == run.stable_digest(traced_digests))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_counts_as_failed_operations(workload, tmp_path):
    _, digests = _measure(workload, False, tmp_path)
    identity = sorted(digests)[0]
    corrupted = dict(digests, **{identity: "0" * 64})
    result, _ = _measure(workload, False, tmp_path, reference=corrupted)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_campaign_self_times_add_up_to_each_task(tmp_path):
    ctx = workloads.Context(seed=0, seconds=SECONDS, scale=workloads.TINY,
                            workdir=tmp_path, reference={},
                            tracer=Tracer())
    report = workloads.run_campaign_inject(ctx)
    spans = ctx.tracer.spans
    tasks = [s for s in spans if s.name == "campaign.task"]
    assert tasks
    for task in tasks:
        subtree = [s for s in spans if _under(s, task)]
        assert {"core.build", "core.run", "core.classify"} <= {
            s.name for s in subtree}
        assert sum(s.self_s for s in subtree) == pytest.approx(
            task.duration, rel=1e-9, abs=1e-12)
    split = layers.phase_split(spans)
    parts = sum(split[p] for p in layers.PHASE_NAMES) + split["unattributed"]
    assert parts == pytest.approx(split["total"], rel=1e-9)
    # Every chunk regenerates its programs: more calls than programs.
    assert 0 < report.layers["isa.generate.useful_ratio"] < 1


def _under(span, ancestor):
    while span is not None:
        if span is ancestor:
            return True
        span = span.parent
    return False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload, tmp_path):
    # Different lengths: the counts must not follow how much ran.
    first, _ = _measure(workload, True, tmp_path)
    second, _ = _measure(workload, True, tmp_path, seconds=2.5 * SECONDS)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["sim.cycles_simulated"]["value"] > 0


def test_exits_non_zero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-core",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
