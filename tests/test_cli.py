import json

import pytest

from cdcop.cli import config_from_json, config_to_json, main
from cdcop.expressions import format_expr
from cdcop.model import load_instance, save_instance
from cdcop.swarm import (AdaptiveInertia, ConfigError, ConstrictionInertia, FixedInertia,
                         SwarmConfig, validate_config)

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


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(SwarmConfig(num_particles=33, t_max=44)))
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "er", "--n", "4", "--p", "1.0", "--out", str(inst_path)])
    # flag overrides file: 10 particles, file keeps t_max=44
    assert main(["solve", str(inst_path), "--config", str(cfg_path), "-K", "10",
                 "--cycles", "5"]) == 0


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
], ids=["seed", "max_sc", "num_particles", "max_fc", "c1", "c2", "crossover",
        "w", "w_max", "literal_increasing", "phi"])
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
    assert err.startswith("error: cycle ") and err.count("\n") == 1
    assert err.endswith(": zero denominator in function 0, scope (0, 1)\n")
