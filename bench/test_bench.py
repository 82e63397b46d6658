"""Toy-size tests of the benchmark itself: ``python3 -m pytest bench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on the path)
from cdcop.benchmarks import BenchSpec  # noqa: E402

TOY_SOLVE = run.Workload(
    name="toy_solve", families=(BenchSpec("er", n=5, p=0.6),),
    num_particles=8, t_max=15, variants=("pcd",), experiment=False, ref_units=2)
TOY_ENSEMBLE = run.Workload(
    name="toy_ensemble",
    families=(BenchSpec("tree", n=4), BenchSpec("sensor", rows=2, cols=2)),
    num_particles=6, t_max=10, variants=("pcd", "pcd_crossover"),
    experiment=True, pool=2, repeats=1, ref_units=2)


def _non_monotone(trace):
    rows = trace.rows
    rows[-1] = dataclasses.replace(rows[-1], best_internal=rows[-2].best_internal + 1.0)


def _extra_value_message(trace):
    trace.rows[-1].stats.value_count += 1


def _wrong_best_cost(trace):
    trace.best_internal *= 1.5


CORRUPTIONS = {"non_monotone_best": _non_monotone, "message_count": _extra_value_message,
               "best_cost": _wrong_best_cost}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    (tmp_path / "out").mkdir()
    return tmp_path


def test_clean_runs_pass(out_dir):
    for wl in (TOY_SOLVE, TOY_ENSEMBLE):
        tally, metrics, extra = run.measure(wl, 4, 0.0, out_dir)
        assert tally.failed == 0 and tally.attempted == wl.ref_units * (
            len(wl.families) * wl.repeats * len(wl.variants) if wl.experiment else 1)
        assert extra["failed_frac"][0] == 0.0
        assert set(metrics) == {m["name"] for m in json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("wl", [TOY_SOLVE, TOY_ENSEMBLE], ids=lambda w: w.name)
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_trace_counts_as_failure(out_dir, monkeypatch, wl, kind):
    plain = run.solve

    def corrupting_solve(*args, **kwargs):
        trace = plain(*args, **kwargs)
        CORRUPTIONS[kind](trace)
        return trace

    monkeypatch.setattr(run, "solve", corrupting_solve)
    tally, _, extra = run.measure(wl, 4, 0.0, out_dir)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted
    assert extra["failed_frac"][0] == 1.0


def test_seed_reproduces_final_cost_mean(out_dir):
    first = run.measure(TOY_SOLVE, 9, 0.0, out_dir)[2]["final_cost_mean"][0]
    longer = run.measure(TOY_SOLVE, 9, 0.5, out_dir)[2]["final_cost_mean"][0]
    other = run.measure(TOY_SOLVE, 10, 0.0, out_dir)[2]["final_cost_mean"][0]
    assert first == longer
    assert first != other


@pytest.mark.parametrize("wl", [TOY_SOLVE, TOY_ENSEMBLE], ids=lambda w: w.name)
def test_traced_run_matches_solve_and_counts_exactly(out_dir, wl):
    tally, metrics, extra = run.measure_traced(wl, 6, 0.0, out_dir)
    assert tally.failed == 0
    assert extra["mismatched_units"][0] == 0
    plain = run.measure(wl, 6, 0.0, out_dir)[2]
    assert metrics["final_cost_mean"][0] == plain["final_cost_mean"][0]
    assert set(metrics) == {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}

    prepared, _ = run.setup(wl, 6, out_dir)
    used = [fam[u % wl.pool] for u in range(wl.ref_units) for fam in prepared]
    runs_each = wl.repeats * len(wl.variants) if wl.experiment else 1
    edges = sum(p.inst.num_edges for p in used) / len(used)
    agents = sum(p.inst.num_agents for p in used) / len(used)
    assert metrics["expressions.eval_calls_per_cycle"][0] == pytest.approx(2 * edges)
    assert metrics["expressions.compile_calls"][0] == pytest.approx(2 * edges)
    assert metrics["runtime.messages_per_cycle"][0] == pytest.approx(2 * edges + 2 * (agents - 1))
    assert 0.0 < metrics["swarm.pbest_improved_frac"][0] <= 1.0
    assert 0.0 < metrics["swarm.gbest_success_frac"][0] <= 1.0
    assert (metrics["swarm.crossover_s"][0] > 0.0) == ("pcd_crossover" in wl.variants)
    assert (metrics["experiment.trace_bytes"][0] > 0.0) == wl.experiment
    assert tally.attempted == 2 * wl.ref_units * runs_each * (
        len(wl.families) if wl.experiment else 1)
    assert (out_dir / "out" / f"spans-{wl.name}.npz").is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "er50", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
