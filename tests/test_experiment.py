import filecmp
import json
import re
from dataclasses import replace

import pytest

from cdcop import build_bfs, experiment
from cdcop.benchmarks import BenchSpec, generate
from cdcop.experiment import (
    TRACE_HEADER,
    ExperimentConfig,
    derive_instance_seed,
    derive_run_seed,
    emit_anytime_table,
    read_trace_csv,
    run_experiment,
    trace_filename,
    verify_trace,
    write_trace_csv,
)
from cdcop.oracle import check_anytime
from cdcop.runtime import Traffic
from cdcop.swarm import SwarmConfig, solve

from conftest import make_instance
from test_engine_equivalence import reference_solve


def _tiny_config(out_dir, **kw):
    defaults = dict(
        swarm=SwarmConfig(num_particles=8, t_max=15),
        variants=["pcd", "pcd_crossover"],
        bench=BenchSpec("er", n=5, p=0.7),
        num_instances=2,
        repeats=2,
        master_seed=5,
        out_dir=out_dir,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_seed_derivation_is_stable_and_distinct():
    s1 = derive_run_seed(0, 1, 2, "pcd")
    assert s1 == derive_run_seed(0, 1, 2, "pcd")
    assert s1 != derive_run_seed(0, 1, 2, "pcd_crossover")
    assert s1 != derive_run_seed(0, 1, 3, "pcd")
    assert s1 != derive_run_seed(1, 1, 2, "pcd")
    assert derive_instance_seed(0, 1) != derive_run_seed(0, 1, 0, "pcd")


def test_experiment_outputs(tmp_path):
    out = tmp_path / "runs"
    summary = run_experiment(_tiny_config(out))
    traces = sorted(out.glob("inst*_rep*_*.csv"))
    assert len(traces) == 2 * 2 * 2
    assert (out / "summary.json").exists()
    assert summary["all_checks_passed"]
    assert summary["runs"] == 8
    for v in ("pcd", "pcd_crossover"):
        assert len(summary["variants"][v]["per_cycle_mean_cost"]) == 15
    assert set(summary["win_rate"]) == {"pcd_vs_pcd_crossover", "pcd_crossover_vs_pcd"}


def test_experiment_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(_tiny_config(a))
    run_experiment(_tiny_config(b))
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_variant_subset_keeps_seeds(tmp_path):
    """Dropping a variant must not disturb the runs of the remaining one."""
    both, only = tmp_path / "both", tmp_path / "only"
    run_experiment(_tiny_config(both))
    run_experiment(_tiny_config(only, variants=["pcd"]))
    for f in sorted(only.glob("*_pcd.csv")):
        assert filecmp.cmp(f, both / f.name, shallow=False), f.name


def test_trace_round_trip(tmp_path, kite_instance):
    trace = solve(kite_instance, SwarmConfig(num_particles=6, t_max=20, seed=4))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    cols = read_trace_csv(path)
    assert cols["cycle"] == list(range(1, 21))
    assert cols["g_best_cost"] == trace.display_series()
    assert cols["hops"] == [t * 3 for t in range(1, 21)]
    assert set(cols["messages_value"]) == {8}
    assert check_anytime(cols["g_best_cost"]) is None


@pytest.mark.parametrize("text, error", [("", "empty trace file"), ("\n \n", "empty trace file"),
                                         ("cycle,hops\n1,3\n", "unexpected trace header")])
def test_read_trace_csv_rejects_a_file_without_its_header(tmp_path, text, error):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
        read_trace_csv(path)


def test_max_instance_trace_positive_and_rising(tmp_path):
    cfg = _tiny_config(tmp_path / "sensor",
                       bench=BenchSpec("sensor", rows=2, cols=2),
                       num_instances=1, repeats=1, variants=["pcd"])
    run_experiment(cfg)
    cols = read_trace_csv(tmp_path / "sensor" / trace_filename(0, 0, "pcd"))
    assert all(c > 0 for c in cols["g_best_cost"])
    assert check_anytime([-c for c in cols["g_best_cost"]]) is None


def test_rerun_leaves_only_its_own_outputs(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_tiny_config(out, num_instances=1, repeats=3))
    (out / "notes.txt").write_text("kept")
    summary = run_experiment(_tiny_config(out, num_instances=1, repeats=2, variants=["pcd"]))
    assert sorted(path.name for path in out.iterdir()) == [
        trace_filename(0, 0, "pcd"), trace_filename(0, 1, "pcd"), "notes.txt", "summary.json"]
    assert json.loads((out / "summary.json").read_text()) == summary


def test_instance_file_source(tmp_path, kite_instance):
    from cdcop import save_instance
    inst_path = tmp_path / "kite.json"
    save_instance(kite_instance, inst_path)
    cfg = _tiny_config(tmp_path / "runs", bench=None, instance_file=inst_path,
                       num_instances=1, repeats=2)
    summary = run_experiment(cfg)
    assert summary["num_instances"] == 1
    assert summary["runs"] == 4


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="variant"):
        run_experiment(_tiny_config(tmp_path, variants=["hcms"]))
    with pytest.raises(ValueError, match="variant 'pcd' is named twice"):
        run_experiment(_tiny_config(tmp_path, variants=["pcd", "pcd"]))
    with pytest.raises(ValueError, match="repeats"):
        run_experiment(_tiny_config(tmp_path, repeats=0))
    with pytest.raises(ValueError, match="exactly one"):
        run_experiment(_tiny_config(tmp_path, bench=None))
    with pytest.raises(ValueError, match="num_instances"):
        run_experiment(_tiny_config(tmp_path, num_instances=0))
    with pytest.raises(ValueError, match="^master_seed must be a non-negative integer, got -1$"):
        run_experiment(_tiny_config(tmp_path / "runs", master_seed=-1))
    assert not (tmp_path / "runs").exists()


def test_emit_anytime_table(tmp_path):
    summary = run_experiment(_tiny_config(tmp_path / "runs"))
    table = emit_anytime_table(summary)
    lines = table.splitlines()
    assert "variant" in lines[0] and "mean_final_cost" in lines[0]
    assert any(line.startswith("pcd ") or line.startswith("pcd  ") for line in lines)
    assert any("improvement" in line and line.rstrip().endswith("%") for line in lines)
    with pytest.raises(KeyError, match="unknown variant"):
        emit_anytime_table(summary, ["nonexistent"])


def test_emit_table_improvement_recomputes(tmp_path):
    summary = run_experiment(_tiny_config(tmp_path / "runs"))
    base = summary["variants"]["pcd"]["mean_final_internal"]
    improved = summary["variants"]["pcd_crossover"]["mean_final_internal"]
    expected = 100.0 * (base - improved) / abs(base)
    line = [l for l in emit_anytime_table(summary).splitlines() if "improvement" in l][0]
    assert float(line.split()[-1].rstrip("%")) == pytest.approx(expected, abs=5e-3)


def test_summary_json_parses(tmp_path):
    out = tmp_path / "runs"
    run_experiment(_tiny_config(out))
    doc = json.loads((out / "summary.json").read_text())
    assert doc["checks"] == {"anytime": True, "message_law": True, "payload_bound": True}


@pytest.mark.parametrize("extra", [True, False])
def test_summary_names_every_check_verify_trace_makes(tmp_path, monkeypatch, extra):
    """A check ``verify_trace`` gains is in the summary whether it passes or
    fails, and a failing one names its runs."""
    real = experiment.verify_trace
    monkeypatch.setattr(experiment, "verify_trace", lambda *args: {**real(*args), "extra": extra})
    summary = run_experiment(_tiny_config(tmp_path / "runs", num_instances=1, repeats=1))
    assert summary["checks"] == {"anytime": True, "message_law": True, "payload_bound": True,
                                 "extra": extra}
    assert summary["all_checks_passed"] is extra
    failed = [run["checks"] for run in summary.get("failed_runs", [])]
    assert failed == ([] if extra else [["extra"], ["extra"]])


def _corrupt_counts(trace, k):
    trace.rows[k].stats.value_count += 1


def _lengthen_best(stats, best_len):
    """``stats`` with a BEST payload of ``best_len`` scalars on each BEST link,
    its scalar total kept to the message law."""
    extra = (best_len - stats.best_len) * stats.best_count
    return replace(stats, best_len=best_len, payload_scalars=stats.payload_scalars + extra)


VERDICT_K = 8


def _corrupt_payload(trace, k):
    trace.rows[k].stats = _lengthen_best(trace.rows[k].stats, VERDICT_K + 3)


def _corrupt_scalars(trace, k):
    trace.rows[k].stats.payload_scalars += 1


def _corrupt_best(trace, k):
    trace.rows[k].best_internal = trace.rows[k - 1].best_internal + 1.0


@pytest.mark.parametrize("source", ["solve", "reference"])
@pytest.mark.parametrize("corrupt, check", [(None, None), (_corrupt_counts, "message_law"),
                                            (_corrupt_scalars, "message_law"),
                                            (_corrupt_payload, "payload_bound"),
                                            (_corrupt_best, "anytime")],
                         ids=["intact", "message_law", "scalars", "payload_bound", "anytime"])
def test_verify_trace_verdicts(source, corrupt, check):
    """Each corruption of one cycle turns exactly its own check False, on a
    ``solve`` trace and on a ``SyncRuntime`` reference trace."""
    inst = generate(BenchSpec("er", n=6, p=0.5, seed=3))
    tree = build_bfs(inst, 0)
    cfg = SwarmConfig(num_particles=VERDICT_K, t_max=30, crossover=True, seed=4)
    trace = solve(inst, cfg, tree=tree) if source == "solve" else reference_solve(inst, cfg)
    if corrupt is not None:
        corrupt(trace, 15)
    want = {"anytime": True, "message_law": True, "payload_bound": True}
    if check is not None:
        want[check] = False
    assert verify_trace(trace, tree, cfg.num_particles) == want


@pytest.mark.parametrize("source", ["solve", "reference"])
def test_broom_meets_its_payload_bound_exactly(source):
    """Agent 1 of a broom has 33 children. Cycle 1 sends it the largest BEST
    payload, K + 2 scalars, on each child link: that meets its bound, and a
    payload one scalar longer breaks it."""
    inst = make_instance(35, [((0, 1), "(* x0 x1)")]
                         + [((1, leaf), "(* x0 x1)") for leaf in range(2, 35)])
    tree = build_bfs(inst, 0)
    assert len(tree.children[1]) == 33
    K = 4
    cfg = SwarmConfig(num_particles=K, t_max=3)
    trace = solve(inst, cfg, tree=tree) if source == "solve" else reference_solve(inst, cfg)
    assert verify_trace(trace, tree, K) == {"anytime": True, "message_law": True,
                                            "payload_bound": True}
    row = trace.rows[0]
    assert row.stats.best_len == K + 2
    assert Traffic(tree, K).sent_scalars(row.stats.best_len)[1] == K * (34 + 1) + 33 * (K + 2)
    row.stats = _lengthen_best(row.stats, K + 3)
    assert verify_trace(trace, tree, K) == {"anytime": True, "message_law": True,
                                            "payload_bound": False}


def test_trace_csv_matches_the_per_row_format(tmp_path):
    """Shared best-cost floats and count triples only save work: the file is
    the per-row format's, also where rows stop sharing."""
    inst = generate(BenchSpec("er", n=6, p=0.5, seed=3))
    trace = solve(inst, SwarmConfig(num_particles=8, t_max=30, seed=4))
    trace.rows[5].stats.value_count += 1
    trace.rows[6].best_cost = float(repr(trace.rows[6].best_cost))  # equal, not shared
    trace.rows[7].best_cost = -0.0
    trace.rows[8].best_cost = float("nan")
    hops = trace.hops_per_cycle
    want = "".join(
        [TRACE_HEADER + "\n"]
        + [f"{row.cycle},0.0,{row.cycle * hops},{row.best_cost!r},{row.stats.value_count},"
           f"{row.stats.cost_count},{row.stats.best_count}\n" for row in trace.rows])
    write_trace_csv(tmp_path / "t.csv", trace)
    assert (tmp_path / "t.csv").read_text() == want
