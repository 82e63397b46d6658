import errno
import json
import os
import re
from pathlib import Path

import pytest

from cdcop import Domain, build_bfs, cli, experiment
from cdcop.benchmarks import BenchSpec
from cdcop.cli import config_from_json, config_to_json, main
from cdcop.experiment import ExperimentConfig, derive_run_seed
from cdcop.expressions import format_expr
from cdcop.model import load_instance, save_instance
from cdcop.swarm import (AdaptiveInertia, ConfigError, ConstrictionInertia, FixedInertia,
                         SwarmConfig, solve, validate_config)

from conftest import make_instance, neg_pow_chain, sum_chain


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "er.json"
    rc = main(["gen", "--family", "er", "--n", "10", "--p", "0.5", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    inst = load_instance(out)
    assert inst.num_agents == 10
    assert "10 agents" in capsys.readouterr().out


def test_gen_sensor(tmp_path):
    out = tmp_path / "sensor.json"
    assert main(["gen", "--family", "sensor", "--rows", "3", "--cols", "3",
                 "--out", str(out)]) == 0
    assert load_instance(out).objective == "max"


def test_solve_end_to_end(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "tree", "--n", "6", "--seed", "1", "--out", str(inst_path)])
    trace_path = tmp_path / "trace.csv"
    log_path = tmp_path / "messages.csv"
    rc = main(["solve", str(inst_path), "-K", "10", "--cycles", "20", "--seed", "7",
               "--trace", str(trace_path), "--dump-tree", "--log-messages", str(log_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best cost:" in out
    assert "tree" in out  # the dumped edge list
    assert trace_path.read_text().startswith("cycle,elapsed_ms,hops,g_best_cost")
    assert log_path.read_text().startswith("cycle,kind,from,to,payload_len")


def test_solve_crossover_variant(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "5", "--p", "0.8", "--out", str(inst_path)])
    assert main(["solve", str(inst_path), "--variant", "pcd_crossover",
                 "-K", "8", "--cycles", "10"]) == 0


def test_solve_print_defaults(capsys):
    assert main(["solve", "--print-defaults"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_particles"] == 200
    assert doc["c1"] == 1.49
    assert doc["inertia"] == {"kind": "adaptive", "w_max": 1.4, "w_min": 0.4,
                              "literal_increasing": False}
    assert doc["max_sc"] == 15 and doc["max_fc"] == 5


def test_solve_requires_instance(capsys):
    assert main(["solve"]) == 2


def test_config_json_round_trip():
    for cfg in (SwarmConfig(),
                SwarmConfig(inertia=ConstrictionInertia(4.1), c1=2.05, c2=2.05),
                SwarmConfig(num_particles=12, crossover=True, seed=9),
                SwarmConfig(inertia=FixedInertia(0.72), t_max=7),
                SwarmConfig(inertia=AdaptiveInertia(1.2, 0.3, literal_increasing=True))):
        assert config_from_json(config_to_json(cfg)) == cfg


def test_oracle_command(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "3", "--p", "1.0", "--seed", "2",
          "--out", str(inst_path)])
    rc = main(["oracle", str(inst_path), "--points-per-dim", "11"])
    assert rc == 0
    assert "lattice optimum cost:" in capsys.readouterr().out


def test_oracle_guard_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "12", "--p", "0.5", "--out", str(inst_path)])
    assert main(["oracle", str(inst_path), "--max-dims", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_experiment_command(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = main(["experiment", "--family", "er", "--n", "5", "--p", "0.7",
               "-K", "8", "--cycles", "10", "--seed", "1",
               "--num-instances", "2", "--repeats", "1", "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(list(out_dir.glob("*.csv"))) == 4
    out = capsys.readouterr().out
    assert "checks passed: True" in out
    assert "mean_final_cost" in out


def test_experiment_single_variant(tmp_path):
    out_dir = tmp_path / "runs"
    rc = main(["experiment", "--family", "tree", "--n", "4", "--variants", "pcd",
               "-K", "6", "--cycles", "8", "--num-instances", "1", "--repeats", "2",
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(list(out_dir.glob("*.csv"))) == 2


def test_constriction_flags(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "4", "--p", "1.0", "--out", str(inst_path)])
    assert main(["solve", str(inst_path), "--inertia", "constriction", "--phi", "4.1",
                 "-K", "6", "--cycles", "10"]) == 0
    # phi <= 4 must be rejected with a config error
    assert main(["solve", str(inst_path), "--inertia", "constriction", "--phi", "3.9",
                 "-K", "6", "--cycles", "10"]) == 2


def test_missing_instance_file_is_io_error(capsys):
    assert main(["solve", "/nonexistent/path.json", "-K", "4", "--cycles", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error, want", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), "error: No space left on device\n"),
    (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), "error: Broken pipe\n"),
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "out.csv"),
     "error: out.csv: No space left on device\n"),
], ids=["enospc", "epipe", "with_filename"])
def test_os_error_is_one_error_line(monkeypatch, capsys, error, want):
    """An OSError that names no file, as a full disk or a closed pipe raises,
    prints its text alone; one that names a file prints the file first."""
    def fail(cfg):
        raise error
    monkeypatch.setattr(cli, "config_to_json", fail)
    assert main(["solve", "--print-defaults"]) == 2
    assert capsys.readouterr().err == want


def test_invalid_instance_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "num_agents": 2,
        "domains": [[0.0, 0.0], [0.0, 1.0]],
        "objective": "min",
        "functions": [{"id": 0, "scope": [0, 1], "expr": "(* x0 x1)"}],
    }))
    assert main(["solve", str(bad), "-K", "4", "--cycles", "2"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_deeply_nested_expression_solves(tmp_path, capsys):
    for chain in (sum_chain(5000), neg_pow_chain(5000)):
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({
            "num_agents": 2,
            "domains": [[0.0, 1.0], [0.0, 1.0]],
            "objective": "min",
            "functions": [{"id": 7, "scope": [0, 1], "expr": format_expr(chain)}],
        }))
        assert main(["solve", str(deep), "-K", "4", "--cycles", "2"]) == 0
        assert "best cost:" in capsys.readouterr().out


_INSTANCE = {
    "num_agents": 2,
    "domains": [[0.0, 1.0], [0.0, 1.0]],
    "objective": "min",
    "functions": [{"id": 7, "scope": [0, 1], "expr": "(* x0 x1)"}],
}


@pytest.mark.parametrize("change, message", [
    ({"domains": 7}, "'domains' must be"),
    ({"domains": [[0.0, 1.0], [0.0, "1"]]}, "'domains' must be"),
    ({"domains": [[0.0, 1.0], [0.0, 10 ** 400]]}, "'domains' holds a bound too large"),
    ({"num_agents": "2"}, "'num_agents' must be"),
    ({"functions": {"id": 7}}, "'functions' must be"),
    ({"functions": [5]}, "functions[0] must be an object"),
    ({"functions": [{"id": "7", "scope": [0, 1], "expr": "(* x0 x1)"}]}, "functions[0]: 'id'"),
    ({"functions": [{"id": 7, "scope": [0], "expr": "(* x0 x1)"}]}, "function 7: 'scope'"),
    ({"functions": [{"id": 7, "scope": [0, 1], "expr": 5}]}, "function 7: 'expr' must be"),
    ({"functions": [{"id": 7, "scope": [0, 1]}]}, "function 7: missing key 'expr'"),
    ({"functions": [{"id": 7, "scope": [0, 1], "expr": "(* x0 x2)"}]}, "function 7: bad atom"),
], ids=["domains", "bound", "huge_bound", "num_agents", "functions", "entry", "id", "scope", "expr",
        "no_expr", "atom"])
def test_malformed_instance_is_usage_error(tmp_path, capsys, change, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_INSTANCE, **change}))
    assert main(["solve", str(bad), "-K", "4", "--cycles", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("doc, field", [
    ({"seed": "s"}, "seed"),
    ({"max_sc": [1]}, "max_sc"),
    ({"num_particles": 2.5}, "num_particles"),
    ({"max_fc": True}, "max_fc"),
    ({"c1": "1.5"}, "c1"),
    ({"c2": float("nan")}, "c2"),
    ({"crossover": "yes"}, "crossover"),
    ({"inertia": {"kind": "fixed", "w": "x"}}, "w"),
    ({"inertia": {"kind": "adaptive", "w_max": None}}, "w_max"),
    ({"inertia": {"kind": "adaptive", "literal_increasing": 1}}, "literal_increasing"),
    ({"inertia": {"kind": "constriction", "phi": [4.1]}}, "phi"),
    ({"seed": -2}, "seed"),
], ids=["seed", "max_sc", "num_particles", "max_fc", "c1", "c2", "crossover",
        "w", "w_max", "literal_increasing", "phi", "negative_seed"])
def test_malformed_config_is_usage_error(tmp_path, capsys, doc, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        validate_config(config_from_json(json.dumps(doc)))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_INSTANCE))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["solve", str(inst_path), "--config", str(cfg_path), "--cycles", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "4", "--p", "1.0", "--out", str(inst_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"num_particles": 6, "particles": 6}))
    assert main(["solve", str(inst_path), "--config", str(cfg_path), "--cycles", "2"]) == 2
    assert "'particles'" in capsys.readouterr().err


def test_inertia_without_kind_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "4", "--p", "1.0", "--out", str(inst_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inertia": {"w": 0.7}}))
    assert main(["solve", str(inst_path), "--config", str(cfg_path), "--cycles", "2"]) == 2
    assert "'kind'" in capsys.readouterr().err


def test_instance_without_domains_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "num_agents": 2,
        "objective": "min",
        "functions": [{"id": 0, "scope": [0, 1], "expr": "(* x0 x1)"}],
    }))
    assert main(["solve", str(bad), "-K", "4", "--cycles", "2"]) == 2
    assert "'domains'" in capsys.readouterr().err


def test_zero_denominator_is_one_error_line(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance(2, [((0, 1), "(/ 1 (- x0 x1))")], domain=(-1.0, 1.0)), inst_path)
    flags = ["-K", "10", "--cycles", "200", "--seed", "1"]
    assert main(["solve", str(inst_path), *flags]) == 2
    assert capsys.readouterr().err == (
        "error: cycle 9: zero denominator in function 0, scope (0, 1)\n")
    assert main(["experiment", "--instance", str(inst_path), *flags, "--repeats", "2",
                 "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    run = re.fullmatch(r"error: instance 0, repeat (\d), variant (\w+), run seed (\d+): "
                       r"(cycle \d+: zero denominator in function 0, scope \(0, 1\))\n", err)
    assert run, err
    # the named run fails alone with the same error
    repeat, variant, seed, cause = run.groups()
    assert repeat == "0" and variant == "pcd"  # the first run the ensemble starts
    assert main(["solve", str(inst_path), *flags, "--seed", seed, "--variant", variant]) == 2
    assert capsys.readouterr().err == f"error: {cause}\n"
    # the lattice meets it too (at x0 == x1), and names the same function
    assert main(["oracle", str(inst_path), "--points-per-dim", "5"]) == 2
    assert capsys.readouterr().err == "error: zero denominator in function 0, scope (0, 1)\n"


def test_constant_zero_denominator_is_rejected_at_load(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance(2, [((0, 1), "(+ (* x0 x1) (/ 1 0))")]), inst_path)
    flags = ["-K", "4", "--cycles", "3"]
    assert main(["solve", str(inst_path), *flags]) == 2
    assert capsys.readouterr().err == "error: function 0 divides by a constant zero\n"
    runs = tmp_path / "runs"
    assert main(["experiment", "--instance", str(inst_path), *flags, "--repeats", "1",
                 "--variants", "pcd", "--out-dir", str(runs)]) == 2
    assert capsys.readouterr().err == "error: function 0 divides by a constant zero\n"
    assert not runs.exists()


def test_exponent_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({**_INSTANCE, "functions": [
        {"id": 7, "scope": [0, 1], "expr": f"(+ x1 (^ x0 1{'0' * 400}))"}]}))
    assert main(["solve", str(inst_path), "-K", "4", "--cycles", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: function 7: '^' needs an integer exponent >= 0 that fits a float, "
        "got a 401-character token\n")


def test_solve_names_each_failed_check(tmp_path, monkeypatch, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance(3, [((0, 1), "(* x0 x1)"), ((1, 2), "(* x0 x1)")]), inst_path)

    def corrupted(*args, **kwargs):
        trace = solve(*args, **kwargs)
        trace.rows[1].stats.value_count += 1
        trace.rows[1].best_internal = trace.rows[0].best_internal + 1.0
        return trace

    monkeypatch.setattr(cli, "solve", corrupted)
    assert main(["solve", str(inst_path), "-K", "4", "--cycles", "3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("cycles: 3, wall: ")
    assert err[1:] == ["check failed: anytime", "check failed: message_law"]


def test_experiment_names_each_failed_run(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "runs"

    def corrupted(inst, cfg, **kwargs):
        trace = solve(inst, cfg, **kwargs)
        if cfg.crossover:
            trace.rows[1].stats.value_count += 1
        return trace

    monkeypatch.setattr(experiment, "solve", corrupted)
    assert main(["experiment", "--family", "er", "--n", "5", "--p", "0.7", "-K", "4",
                 "--cycles", "3", "--seed", "2", "--num-instances", "1", "--repeats", "1",
                 "--out-dir", str(out_dir)]) == 1
    seed = derive_run_seed(2, 0, 0, "pcd_crossover")
    captured = capsys.readouterr()
    assert "checks passed: False" in captured.out
    assert captured.err.splitlines() == [
        f"check failed: message_law (instance 0, repeat 0, variant pcd_crossover, run seed {seed})"]
    assert json.loads((out_dir / "summary.json").read_text())["failed_runs"] == [
        {"instance": 0, "repeat": 0, "variant": "pcd_crossover", "run_seed": seed,
         "checks": ["message_law"]}]


@pytest.mark.parametrize("argv, seed", [
    (["solve", "{inst}", "-K", "4", "--cycles", "3", "--seed", "-1"], -1),
    (["gen", "--family", "er", "--n", "4", "--p", "0.9", "--seed", "-3", "--out", "{out}"], -3),
    (["experiment", "--instance", "{inst}", "-K", "4", "--cycles", "3", "--seed", "-1",
      "--out-dir", "{out}"], -1),
], ids=["solve", "gen", "experiment"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, argv, seed):
    inst_path, out = tmp_path / "inst.json", tmp_path / "out"
    inst_path.write_text(json.dumps(_INSTANCE))
    assert main([arg.format(inst=inst_path, out=out) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, bad", [
    (["solve", "{inst}", "--config", "{cfg}", "-K", "4", "--cycles", "2"], "inst"),
    (["solve", "{inst}", "--config", "{cfg}", "-K", "4", "--cycles", "2"], "cfg"),
    (["experiment", "--instance", "{inst}", "-K", "4", "--cycles", "2", "--out-dir", "{out}"],
     "inst"),
], ids=["solve_instance", "solve_config", "experiment_instance"])
def test_malformed_json_names_its_file(tmp_path, capsys, argv, bad):
    paths = {"inst": tmp_path / "inst.json", "cfg": tmp_path / "cfg.json", "out": tmp_path / "out"}
    paths["inst"].write_text(json.dumps(_INSTANCE))
    paths["cfg"].write_text("{}")
    paths[bad].write_text("{\n")
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == (f"error: {paths[bad]}: Expecting property name enclosed "
                                       "in double quotes: line 2 column 1 (char 2)\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize("content, error", [
    ("[" * 990 + "]" * 990, "maximum recursion depth exceeded while decoding a JSON array from a "
                            "unicode string"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["deep", "not_utf8"])
@pytest.mark.parametrize("argv, bad", [
    (["solve", "{inst}", "-K", "4", "--cycles", "2"], "inst"),
    (["oracle", "{inst}"], "inst"),
    (["experiment", "--instance", "{inst}", "-K", "4", "--cycles", "2", "--out-dir", "{out}"],
     "inst"),
    (["solve", "{inst}", "--config", "{cfg}", "-K", "4", "--cycles", "2"], "cfg"),
], ids=["solve", "oracle", "experiment", "solve_config"])
def test_unreadable_json_names_its_file(tmp_path, capsys, argv, bad, content, error):
    """A file nested deeper than json decodes, or not UTF-8, is one error line naming it."""
    paths = {"inst": tmp_path / "inst.json", "cfg": tmp_path / "cfg.json", "out": tmp_path / "out"}
    paths["inst"].write_text(json.dumps(_INSTANCE))
    paths["cfg"].write_text("{}")
    if isinstance(content, bytes):
        paths[bad].write_bytes(content)
    else:
        paths[bad].write_text(content)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {paths[bad]}: {error}\n"
    assert not paths["out"].exists()


def test_experiment_bad_root_keeps_earlier_outputs(tmp_path, capsys):
    """A bad root makes no out dir, and leaves an earlier run's outputs as they were."""
    out_dir = tmp_path / "runs"
    argv = ["experiment", "--family", "er", "--n", "4", "--p", "0.9", "-K", "4", "--cycles", "3",
            "--num-instances", "1", "--repeats", "1", "--out-dir", str(out_dir)]
    assert main([*argv, "--root", "99"]) == 2
    assert capsys.readouterr().err == "error: root 99 out of range for 4 agents\n"
    assert not out_dir.exists()
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert "failed_runs" not in json.loads(before["summary.json"])
    assert len(before) == 3
    capsys.readouterr()
    assert main([*argv, "--root", "99"]) == 2
    assert capsys.readouterr().err == "error: root 99 out of range for 4 agents\n"
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_zero_denominator_in_a_run_leaves_the_out_dir_as_it_was(tmp_path, capsys):
    """An ensemble that stops at a zero denominator writes its outputs nowhere:
    into a fresh path it makes no out dir nor any parent of one, and an out
    dir that holds an earlier run's outputs keeps them as they were."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    save_instance(make_instance(2, [((0, 1), "(/ 1 (- x0 x1))")], domain=(-1.0, 1.0)), bad)
    save_instance(make_instance(2, [((0, 1), "(* x0 x1)")], domain=(-1.0, 1.0)), good)
    flags = ["-K", "10", "--cycles", "200", "--seed", "1", "--repeats", "1"]
    error = re.compile(r"error: instance 0, repeat 0, variant pcd, run seed \d+: "
                       r"cycle \d+: zero denominator in function 0, scope \(0, 1\)\n")
    fresh = tmp_path / "new" / "runs"
    assert main(["experiment", "--instance", str(bad), *flags, "--out-dir", str(fresh)]) == 2
    assert error.fullmatch(capsys.readouterr().err)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "good.json"]

    out_dir = tmp_path / "runs"
    assert main(["experiment", "--instance", str(good), *flags, "--out-dir", str(out_dir)]) == 0
    (out_dir / "notes.txt").write_text("not an output\n")
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert len(before) == 4  # two traces, the summary and the note
    capsys.readouterr()
    assert main(["experiment", "--instance", str(bad), *flags, "--out-dir", str(out_dir)]) == 2
    assert error.fullmatch(capsys.readouterr().err)
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "good.json", "runs"]


def test_er200_hub_passes_its_payload_bound(tmp_path):
    """Agent 3 of this instance has 36 BFS children; cycle 1 sends each the
    largest BEST payload."""
    inst_path = tmp_path / "er200.json"
    assert main(["gen", "--family", "er", "--n", "200", "--p", "0.2", "--seed", "0",
                 "--out", str(inst_path)]) == 0
    assert len(build_bfs(load_instance(inst_path), 0).children[3]) == 36
    assert main(["solve", str(inst_path), "-K", "20", "--cycles", "2"]) == 0


def test_fixed_inertia_config_without_w_matches_the_flag(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.json"
    save_instance(make_instance(2, [((0, 1), "(* x0 x1)")]), inst_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"inertia": {"kind": "fixed"}}')
    seen = []
    monkeypatch.setattr(cli, "solve",
                        lambda inst, cfg, **kw: seen.append(cfg) or solve(inst, cfg, **kw))
    flags = ["-K", "4", "--cycles", "3"]
    assert main(["solve", str(inst_path), "--config", str(cfg_path), *flags]) == 0
    assert main(["solve", str(inst_path), "--inertia", "fixed", *flags]) == 0
    assert config_to_json(seen[0]) == config_to_json(seen[1])
    assert seen[0].inertia == FixedInertia(0.72)


_ADAPTIVE = {"inertia": {"kind": "adaptive", "w_max": 1.0, "w_min": 0.3}}
_CONSTRICTION = {"c1": 2.1, "c2": 2.1, "inertia": {"kind": "constriction", "phi": 4.2}}
_UNDER_ADAPTIVE = ("error: unknown adaptive inertia key {!r}; "
                   "expected one of w_max, w_min, literal_increasing\n")


@pytest.mark.parametrize("doc, flags, want", [
    (None, ["--w-max", "1.2"], SwarmConfig(inertia=AdaptiveInertia(1.2, 0.4))),
    (None, ["--literal-increasing"], SwarmConfig(inertia=AdaptiveInertia(literal_increasing=True))),
    (_ADAPTIVE, ["--w-min", "0.2"], SwarmConfig(inertia=AdaptiveInertia(1.0, 0.2))),
    (_ADAPTIVE, ["--inertia", "adaptive"], SwarmConfig(inertia=AdaptiveInertia(1.0, 0.3))),
    (_CONSTRICTION, ["--inertia", "constriction"],
     SwarmConfig(c1=2.1, c2=2.1, inertia=ConstrictionInertia(4.2))),
    ({"inertia": {"kind": "constriction"}}, [],
     SwarmConfig(c1=2.05, c2=2.05, inertia=ConstrictionInertia(4.1))),
    (None, ["--inertia", "constriction"],
     SwarmConfig(c1=2.05, c2=2.05, inertia=ConstrictionInertia(4.1))),
    ({"crossover": True}, [], SwarmConfig(crossover=True)),
    (None, ["--phi", "4.2"], _UNDER_ADAPTIVE.format("phi")),
    (None, ["--w", "0.5"], _UNDER_ADAPTIVE.format("w")),
    ({"num_particles": 33, "t_max": 44}, ["-K", "10"], SwarmConfig(num_particles=10, t_max=44)),
    ({"inertia": {"kind": []}}, [], "error: 'inertia' needs a 'kind' of fixed, adaptive, "
                                    "constriction, got {'kind': []}\n"),
], ids=["w_max", "literal_increasing", "file_then_w_min", "file_then_same_kind",
        "file_constriction_then_kind", "file_constriction_kind_only", "constriction",
        "file_crossover", "phi_under_adaptive", "w_under_adaptive", "file_then_K",
        "file_kind_not_a_name"])
def test_config_file_then_flags(tmp_path, monkeypatch, capsys, doc, flags, want):
    """Defaults < file < flags for every field; a flag no field takes is one error line."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_INSTANCE))
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        flags = ["--config", str(tmp_path / "cfg.json"), *flags]
    seen = []
    monkeypatch.setattr(cli, "solve",
                        lambda inst, cfg, **kw: seen.append(cfg) or solve(inst, cfg, **kw))
    rc = main(["solve", str(inst_path), *flags])
    if isinstance(want, str):
        assert (rc, seen, capsys.readouterr().err) == (2, [], want)
    else:
        assert (rc, seen) == (0, [want])


_ER = ["--family", "er", "--n", "5", "--p", "0.5"]
_RUN = ["-K", "4", "--cycles", "2", "--repeats", "1", "--variants", "pcd"]


@pytest.mark.parametrize("argv, error", [
    (["gen", "--family", "sensor", "--rows", "2", "--cols", "2", "--n", "5", "--p", "0.9"],
     "the sensor family takes no n or p override"),
    (["gen", "--family", "tree", "--n", "4", "--p", "0.9", "--m", "3"],
     "the tree family takes no p or m override"),
    (["gen", "--family", "er", "--n", "4", "--p", "0.8", "--rows", "3"],
     "the er family takes no rows override"),
    (["experiment", "--instance", "e.json", "--num-instances", "5", *_RUN],
     "--instance takes no num_instances override"),
    (["experiment", "--instance", "e.json", "--n", "40", *_RUN], "--instance takes no n override"),
    (["experiment", "--instance", "e.json", "--domain", "-1", "1", *_RUN],
     "--instance takes no domain override"),
    (["experiment", "--family", "sensor", "--rows", "2", "--cols", "2", "--n", "9",
      "--num-instances", "1", *_RUN], "the sensor family takes no n override"),
    (["gen", *_ER, "--domain", "1", "-1"],
     "domain must be finite with low < high, got (1.0, -1.0)\n"),
    (["gen", *_ER, "--domain", "nan", "1"],
     "domain must be finite with low < high, got (nan, 1.0)\n"),
    (["gen", *_ER, "--coeff", "3", "-3"],
     "coeff_range must be finite with low <= high, got (3.0, -3.0)"),
], ids=["gen_sensor_n_p", "gen_tree_p_m", "gen_er_rows", "instance_num_instances", "instance_n",
        "instance_domain", "experiment_sensor_n", "gen_domain_reversed", "gen_domain_nan",
        "gen_coeff_reversed"])
def test_unread_or_bad_family_value_is_one_error_line(tmp_path, monkeypatch, capsys, argv, error):
    """A value the family or ``--instance`` does not read, or cannot use, exits 2 before
    anything is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--family", "er", "--n", "4", "--p", "0.8", "--out", "e.json"]) == 0
    capsys.readouterr()
    rc = main([*argv, *(["--out", "x.json"] if argv[0] == "gen" else [])])
    err = capsys.readouterr().err
    assert (rc, err.count("\n"), err.startswith(f"error: {error}")) == (2, 1, True), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


@pytest.mark.parametrize("argv, error", [
    (["solve", "{wide}", "-K", "4", "--cycles", "2", "--trace", "{out}"],
     "domain 0 is wider than the largest float: [-1e+308, 1e+308]\n"),
    (["experiment", *_ER, "--domain", "-1e308", "1e308", "--num-instances", "1", *_RUN,
      "--out-dir", "{out}"], "domain is wider than the largest float, got (-1e+308, 1e+308)\n"),
    (["gen", *_ER, "--coeff", "-1e308", "1e308", "--out", "{out}"],
     "coeff_range is wider than the largest float, got (-1e+308, 1e+308)\n"),
    (["gen", *_ER, "--domain", "-1e308", "1e308", "--out", "{out}"],
     "domain is wider than the largest float, got (-1e+308, 1e+308)\n"),
], ids=["solve", "experiment", "gen", "gen_domain"])
def test_range_wider_than_a_float_is_one_error_line(tmp_path, capsys, argv, error):
    """A domain or coefficient range whose width overflows a float is rejected
    before a value is drawn from it, and nothing is written."""
    wide, out = tmp_path / "wide.json", tmp_path / "out"
    wide.write_text(json.dumps({**_INSTANCE, "domains": [[-1e308, 1e308], [0.0, 1.0]]}))
    assert main([arg.format(wide=wide, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert (err.startswith(f"error: {error}"), err.count("\n")) == (True, 1), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "experiment"])
@pytest.mark.parametrize("flag, field", [("--domain", "domain"), ("--coeff", "coeff_range")])
def test_exponent_form_negative_bound_is_a_value(monkeypatch, command, flag, field):
    """A negative bound in exponent form is read as a number, not as an option."""
    def capture(built):
        raise _Built(built)
    monkeypatch.setattr(cli, "generate", capture)
    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Built) as built:
        main([command, *_ER, flag, "-1.5E+2", "1e3", "--out" if command == "gen" else "--out-dir",
              "x"])
    spec = built.value.args[0]
    assert getattr(getattr(spec, "bench", spec), field) == (-150.0, 1000.0)


def test_gen_writes_an_exponent_form_negative_domain(tmp_path):
    out = tmp_path / "x.json"
    assert main(["gen", "--family", "er", "--n", "4", "--p", "0.9", "--domain", "-1e3", "1e3",
                 "--out", str(out)]) == 0
    assert set(load_instance(out).domains) == {Domain(-1000.0, 1000.0)}


class _Built(Exception):
    """Carries what the CLI built, in place of running it."""


@pytest.mark.parametrize("argv, want", [
    (["gen", "--family", "sensor", "--rows", "3", "--cols", "2", "--out", "x.json"],
     BenchSpec("sensor", rows=3, cols=2)),
    (["gen", "--family", "ba", "--n", "9", "--m", "2", "--coeff", "-1", "1", "--out", "x.json"],
     BenchSpec("ba", n=9, m=2, coeff_range=(-1.0, 1.0))),
    (["experiment", "--instance", "e.json", "--repeats", "3"],
     ExperimentConfig(SwarmConfig(), bench=None, instance_file=Path("e.json"), num_instances=25,
                      repeats=3, out_dir=Path("runs"))),
], ids=["gen_sensor", "gen_ba_coeff", "experiment_instance"])
def test_given_family_values_build_the_spec(monkeypatch, argv, want):
    def capture(built):
        raise _Built(built)
    monkeypatch.setattr(cli, "generate", capture)
    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Built) as built:
        main(argv)
    assert built.value.args == (want,)
