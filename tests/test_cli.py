import json
import re

import pytest

from cdcop import cli
from cdcop.cli import config_from_json, config_to_json, main
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
    assert err.count("\n") == 1
    run = re.fullmatch(r"error: instance 0, repeat (\d), variant (\w+), run seed (\d+): "
                       r"(cycle \d+: zero denominator in function 0, scope \(0, 1\))\n", err)
    assert run, err
    # the named run fails alone with the same error
    repeat, variant, seed, cause = run.groups()
    assert repeat == "0" and variant == "pcd"  # the first run the ensemble starts
    assert main(["solve", str(inst_path), *flags, "--seed", seed, "--variant", variant]) == 2
    assert capsys.readouterr().err == f"error: {cause}\n"


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
