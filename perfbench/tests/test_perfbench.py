"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once at the ``tiny`` input size, untraced and traced,
in a subprocess exactly as the benchmark command is run.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command runs; BENCHMARK.json lists those measured.
WORKLOADS = list(run.WORKLOADS)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Result line and record of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("out")
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_bench(["--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny", "--out", str(out)])
            assert done.returncode == 0, done.stderr[-3000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads(
                (out / f"{workload}-seed3-trace{trace}.json").read_text())
            runs[workload, trace] = (result, record)
    return runs


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    measured = [w["name"] for w in BENCHMARK["workloads"]]
    assert 2 <= len(measured) <= 8 and set(measured) <= set(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += measured
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_completes_with_the_declared_metrics(tiny_runs, workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]),
                            (1, BENCHMARK["per_layer"])):
        result, record = tiny_runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, record["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in declared})
        assert all(isinstance(entry["value"], (int, float))
                   for entry in result["metrics"].values())
        meta = record["meta"]
        for key in ("commit", "dirty", "python", "numpy", "blas",
                    "blas_threads", "nproc", "config_digest", "seed",
                    "traced", "seconds"):
            assert key in meta
        assert meta["blas_threads"] == 1 and meta["traced"] == bool(trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_are_within_their_parents(tiny_runs, workload):
    records = tiny_runs[workload, 1][1]["spans"]
    assert records
    for span in records:
        duration = span["end_ms"] - span["start_ms"]
        assert -1e-6 <= span["self_ms"] <= duration + 1e-6
        if span["parent"] >= 0:
            parent = records[span["parent"]]
            assert parent["thread"] == span["thread"]
            assert parent["start_ms"] <= span["start_ms"]
            assert span["end_ms"] <= parent["end_ms"]
            assert span["self_ms"] <= parent["end_ms"] - parent["start_ms"]


def test_self_time_subtracts_child_coverage():
    tracer = spans.Tracer()
    outer_index = tracer.begin("outer")
    time.sleep(0.01)
    inner_index = tracer.begin("inner")
    time.sleep(0.02)
    tracer.end(tracer.begin("leaf"))
    time.sleep(0.01)
    tracer.end(inner_index)
    tracer.end(outer_index)
    outer, inner, leaf = tracer.spans
    assert (outer.parent, inner.parent, leaf.parent) == (-1, 0, 1)
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert own[0] == pytest.approx((outer.end - outer.start)
                                   - (inner.end - inner.start))
    assert own[1] == pytest.approx((inner.end - inner.start)
                                   - (leaf.end - leaf.start))
    assert sum(own) == pytest.approx(outer.end - outer.start)


def test_instrumentation_is_removed_afterwards():
    from repro.core.decoupled_grid import DecoupledGridEncoder
    from repro.training import trainer

    before = (DecoupledGridEncoder.encode_density, trainer.mse_loss)
    with spans.instrument(spans.Tracer()):
        assert DecoupledGridEncoder.encode_density is not before[0]
    assert (DecoupledGridEncoder.encode_density, trainer.mse_loss) == before


def test_serve_plan_is_fixed_work_from_the_seed():
    import workloads

    size = workloads.SIZES["paper"]
    scenes, rounds = workloads.serve_plan(5, 20, size)
    again = workloads.serve_plan(5, 20, size)[1]
    other = workloads.serve_plan(6, 20, size)[1]
    assert rounds == again and rounds != other
    n_train, n_render = workloads.SERVE_ROUND
    assert len(rounds) == len(other) == round(20 / size.nominal_round_s)
    for plan in (rounds, other):
        assert all(len(r) == n_train + n_render for r in plan)
        renders = [q.scene for r in plan for q in r if q.kind == "render"]
        assert [renders.count(s) for s in scenes] == workloads._apportion(
            len(renders), list(workloads.SERVE_SCENES.values()))


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile = report.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0
    assert report.tail(list(range(15))) == (7.0, 50.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(["--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                     timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
