"""The input contract of ``cdcop gen``, ``solve``, ``oracle`` and ``experiment``,
on generated inputs.

Hypothesis starts from a valid instance document, config document and argv
list, and applies one or two mutations: it drops, adds or repeats a key or a
flag, puts a value of another JSON type or an extreme number (±0.0,
subnormals, ±1e308, ``NaN`` and ``Infinity`` tokens, integers of 2^63 and
more) where a value goes, writes a long or deeply nested expression or a scope
out of range, or gives a flag a negative or exponent-form value. Whatever it
draws, ``cli.main`` either

- exits 0, or 1 with one ``check failed:`` line per failed check, and the
  files it wrote verify, or
- exits 2 with exactly one ``error:`` line on stderr, and writes no file.

Draws keep n <= 6, K <= 8, T <= 5, at most 2 repeats and 2 instances, and a
lattice of at most 4^6 points or one above the oracle's guard: the sizes are
always given as flags, and no mutation puts a large integer where a size goes.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from cdcop.cli import main
from cdcop.experiment import TRACE_HEADER, read_trace_csv, trace_filename
from cdcop.expressions import format_expr
from cdcop.model import global_cost, load_instance

from conftest import neg_pow_chain, sum_chain


class Obj(list):
    """A JSON object as a list of (key, value) pairs, so a key can repeat."""


def _dump(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return json.dumps(node)  # a non-finite float becomes a NaN or Infinity token


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.nan, math.inf, -math.inf,
            2**63, -2**63, 2**64 + 1]
OTHER_TYPES = [True, False, None, "x", "1.0", [], Obj(), [1, 2], 1, 2.5, -1]
SIZES = {"num_particles", "t_max", "-K", "--cycles", "--n", "--m", "--rows", "--cols", "--repeats",
         "--num-instances"}
# flags no mutation drops: their defaults are large sizes
KEPT = {"-K", "--cycles", "--repeats", "--num-instances", "--points-per-dim"}
KEYS = ["num_agents", "domains", "objective", "functions", "id", "scope", "expr",
        "num_particles", "t_max", "c1", "c2", "seed", "crossover", "inertia", "kind", "w",
        "phi", "w_max", "w_min", "max_sc", "max_fc", "extra"]
EXPRS = ["(* x0 x1)", "(+ (^ x0 2) x1)", "(- x0 (* 0.5 x1))", "(/ x0 (+ 2 (^ x1 2)))"]
# values a flag is given in place of its own; a size takes none above 2
TOKENS = ["-1", "-0", "0", "1", "2", "-1e3", "-1.5E+2", "1e-3", "2.5", "-inf", "nan", "1e308",
          "-1e308", "5e-324"]
BIG = str(2**63)
# flags that keep their own values
PATHS = {"--out", "--trace", "--log-messages", "--config", "--instance", "--out-dir"}
# flags a command is given on top of its own
EXTRA_FLAGS = {"gen": [["--m", "1"], ["--rows", "2"], ["--p", "0.5"], ["--domain", "-1", "1"],
                       ["--coeff", "-1e3", "5"]],
               "solve": [["--c1", "2.0"], ["--seed", "3"], ["--inertia", "fixed"], ["--w", "0.5"],
                         ["--phi", "4.1"], ["--root", "1"]],
               "oracle": [["--points-per-dim", "2"], ["--max-dims", "2"], ["--max-dims", "8"]],
               # ``main`` runs in the directory that holds inst.json
               "experiment": [["--c1", "2.0"], ["--seed", "3"], ["--inertia", "fixed"],
                              ["--w", "0.5"], ["--root", "1"], ["--variants", "pcd"],
                              ["--instance", "inst.json"], ["--n", "3"], ["--max-sc", "1"]]}


def _value(data, key):
    """A replacement value for ``key``: another JSON type or an extreme number.

    A list or object is a fresh copy: a later mutation may edit it in place,
    and an edit to the shared one would change what later examples draw.
    """
    value = copy.deepcopy(data.draw(st.sampled_from(EXTREMES + OTHER_TYPES)))
    return 0 if key in SIZES and type(value) is int and value > 2 else value


def _slots(node):
    """Each (container, index, key) where a value sits in ``node``; key None in a list."""
    items = list(node) if isinstance(node, Obj) else list(enumerate(node))
    for i, item in enumerate(items):
        key, value = item if isinstance(node, Obj) else (None, item[1])
        yield node, i, key
        if isinstance(value, list):
            yield from _slots(value)


def _set(container, i, key, value):
    container[i] = (key, value) if isinstance(container, Obj) else value


def _mutate_doc(data, doc: Obj, num_agents: int) -> None:
    slots = list(_slots(doc))
    objects = [doc] + [c[i][1] for c, i, k in slots
                       if isinstance(c, Obj) and isinstance(c[i][1], Obj)]
    op = data.draw(st.sampled_from(["drop", "add", "repeat", "type", "expr", "scope"]))
    if op == "add":
        key = data.draw(st.sampled_from(KEYS))
        data.draw(st.sampled_from(objects)).append((key, _value(data, key)))
        return
    if op in ("expr", "scope"):
        slots = [s for s in slots if s[2] == op] or slots
    container, i, key = data.draw(st.sampled_from(slots))
    if op == "drop":
        del container[i]
    elif op == "repeat" and isinstance(container, Obj):
        container.insert(i + 1, (key, _value(data, key)))
    elif op == "expr" and key == "expr":
        depth = data.draw(st.sampled_from([50, 400, 1500]))
        chain = sum_chain(depth) if data.draw(st.booleans()) else neg_pow_chain(depth)
        _set(container, i, key, format_expr(chain))
    elif op == "scope" and key == "scope":
        bad = data.draw(st.sampled_from([[0, num_agents], [-1, 0], [0, 2**63], [1, 1], [0]]))
        _set(container, i, key, bad)
    else:
        _set(container, i, key, _value(data, key))


@st.composite
def _instance_doc(draw):
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.integers(0, 3)) == 0}
    domains = [[-10.0, 10.0] if draw(st.booleans()) else [0.0, 2.0] for _ in range(n)]
    functions = [Obj([("id", i), ("scope", list(e)), ("expr", draw(st.sampled_from(EXPRS)))])
                 for i, e in enumerate(sorted(edges))]
    return Obj([("num_agents", n), ("domains", domains),
                ("objective", draw(st.sampled_from(["min", "max"]))), ("functions", functions)])


@st.composite
def _config_doc(draw):
    kind = draw(st.sampled_from(["adaptive", "fixed", "constriction"]))
    inertia = Obj([("kind", kind)])
    if kind == "fixed":
        inertia.append(("w", 0.7))
    return Obj([("num_particles", draw(st.integers(2, 8))), ("t_max", draw(st.integers(1, 5))),
                ("c1", 2.05), ("c2", 2.05), ("seed", draw(st.integers(0, 9))),
                ("crossover", draw(st.booleans())), ("inertia", inertia)])


def _mutate_argv(data, command: str, groups: list[list[str]]) -> None:
    """Change ``groups``, each a flag and its values, at one flag."""
    op = data.draw(st.sampled_from(["value", "drop", "add", "repeat"]))
    group = data.draw(st.sampled_from(groups))
    flag = group[0]
    # an experiment runs its family's instances, whose default sizes are large
    kept = KEPT | ({"--n", "--rows", "--cols"} if command == "experiment" else set())
    if op == "drop" and flag not in kept:
        groups.remove(group)
    elif op == "add":
        groups.append(list(data.draw(st.sampled_from(EXTRA_FLAGS[command]))))
    elif op == "repeat":
        groups.append(list(group))
    elif len(group) > 1 and flag not in PATHS:
        tokens = TOKENS if flag in SIZES else TOKENS + [BIG]
        group[data.draw(st.integers(1, len(group) - 1))] = data.draw(st.sampled_from(tokens))


def _family_groups(draw) -> list[list[str]]:
    family = draw(st.sampled_from(["er", "tree", "ba", "sensor"]))
    groups = [["--family", family]]
    if family == "sensor":
        groups += [["--rows", "2"], ["--cols", draw(st.sampled_from(["2", "3"]))]]
    else:
        groups.append(["--n", str(draw(st.integers(3, 6)))])
    if family == "er":
        groups.append(["--p", draw(st.sampled_from(["0.4", "1.0"]))])
    if family == "ba":
        groups.append(["--m", draw(st.sampled_from(["1", "2"]))])
    if family != "sensor" and draw(st.booleans()):
        groups.append(["--domain", "-5", "5"])
    if family != "sensor" and draw(st.booleans()):
        groups.append(["--coeff", "-1", "1"])
    return groups


def _gen_groups(draw, paths: dict) -> list[list[str]]:
    return _family_groups(draw) + [["--seed", str(draw(st.integers(0, 9)))],
                                   ["--out", str(paths["out"])]]


def _solve_groups(draw, paths: dict) -> list[list[str]]:
    groups = [[str(paths["inst"])], ["-K", str(draw(st.integers(2, 8)))],
              ["--cycles", str(draw(st.integers(1, 5)))],
              ["--trace", str(paths["trace"])], ["--log-messages", str(paths["log"])]]
    if draw(st.booleans()):
        groups.append(["--config", str(paths["cfg"])])
    if draw(st.booleans()):
        groups.append(["--variant", draw(st.sampled_from(["pcd", "pcd_crossover"]))])
    if draw(st.booleans()):
        groups.append(["--root", str(draw(st.integers(0, 1)))])
    return groups


def _oracle_groups(draw, paths: dict) -> list[list[str]]:
    groups = [[str(paths["inst"])], ["--points-per-dim", str(draw(st.integers(2, 4)))]]
    if draw(st.booleans()):
        groups.append(["--max-dims", str(draw(st.integers(5, 8)))])
    return groups


def _experiment_groups(draw, paths: dict) -> list[list[str]]:
    if draw(st.booleans()):
        groups = [["--instance", str(paths["inst"])]]
    else:
        groups = _family_groups(draw) + [["--num-instances", str(draw(st.integers(1, 2)))]]
    groups += [["-K", str(draw(st.integers(2, 8)))], ["--cycles", str(draw(st.integers(1, 5)))],
               ["--repeats", str(draw(st.integers(1, 2)))], ["--out-dir", str(paths["runs"])]]
    if draw(st.booleans()):
        groups.append(["--config", str(paths["cfg"])])
    if draw(st.booleans()):
        groups.append(["--variants", draw(st.sampled_from(["pcd", "pcd_crossover",
                                                           "pcd_crossover,pcd"]))])
    if draw(st.booleans()):
        groups.append(["--seed", str(draw(st.integers(0, 9)))])
    return groups


GROUPS = {"gen": _gen_groups, "solve": _solve_groups, "oracle": _oracle_groups,
          "experiment": _experiment_groups}


def _run(argv, root: Path) -> tuple[int, str, str]:
    """``main(argv)`` run in ``root``: its exit code, stdout and stderr. No
    Python warning may be raised."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(root)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            rc = main(argv)
        assert not caught, [f"{w.category.__name__} at {Path(w.filename).name}:{w.lineno}: "
                            f"{w.message}" for w in caught]
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


def _check_usage_error(rc, out, err, before, after):
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], err
    if len(lines) > 1:  # argparse's usage text, then its one error line
        assert lines[0].startswith("usage: cdcop") and lines[-1].startswith("cdcop"), err
    else:
        assert lines[0].startswith("error: "), err
    assert after == before, f"wrote {sorted(after - before)}"


def _check_solve_outputs(rc, out, err, paths, flags):
    """The stderr lines and exit code agree, and each file written holds the run."""
    inst = load_instance(paths["inst"])
    first, *rest = err.splitlines()
    assert first.startswith("cycles: ") and all(line.startswith("check failed: ")
                                                for line in rest), err
    failed = [line.removeprefix("check failed: ") for line in rest]
    assert rc == (1 if failed else 0)
    cycles = int(first.split(",")[0].removeprefix("cycles: "))
    law = (2 * inst.num_edges, inst.num_agents - 1, inst.num_agents - 1)
    assert paths["trace"].exists() == ("--trace" in flags)
    assert paths["log"].exists() == ("--log-messages" in flags)
    if "--trace" in flags:
        text = paths["trace"].read_text()
        trace = read_trace_csv(paths["trace"])
        assert text.startswith(TRACE_HEADER + "\n")
        assert trace["cycle"] == list(range(1, cycles + 1))
        counts = zip(trace["messages_value"], trace["messages_cost"], trace["messages_best"])
        assert set(counts) <= {law} or "message_law" in failed
        assert out.splitlines()[0] == "best cost: " + text.splitlines()[-1].split(",")[3]
        internal = [inst.sign * c for c in trace["g_best_cost"]]
        assert all(b <= a for a, b in zip(internal, internal[1:])) or "anytime" in failed
    if "--log-messages" in flags:
        assert len(paths["log"].read_text().splitlines()) == 1 + cycles * sum(law)


def _check_oracle_outputs(out, err, paths, groups):
    """Stdout names a point of the lattice and the display cost there."""
    assert err == ""
    inst = load_instance(paths["inst"])
    points = int([g for g in groups if g[0] == "--points-per-dim"][-1][1])  # the last one counts
    cost_line, assignment_line = out.splitlines()
    point = np.array([float(v) for v in assignment_line.removeprefix("assignment: ").split()])
    axes = [np.linspace(d.lb, d.ub, points) for d in inst.domains]
    assert len(point) == inst.num_agents and all(p in axis for p, axis in zip(point, axes))
    # a cost that overflows is a value here too, as in the command: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.fmin(global_cost(inst, point[:, None]), np.inf)  # a NaN cost counts as +inf
    assert cost_line == f"lattice optimum cost: {inst.to_display(float(np.squeeze(cost)))!r}"


def _check_experiment_outputs(rc, out, err, paths, groups):
    """The exit code, stderr and stdout agree with the summary, and the out dir
    holds it and one trace per run, each of which keeps the checks the summary
    says it keeps."""
    summary = json.loads((paths["runs"] / "summary.json").read_text())
    failed = {trace_filename(run["instance"], run["repeat"], run["variant"]): run["checks"]
              for run in summary.get("failed_runs", [])}
    lines = err.splitlines()
    assert all(line.startswith("check failed: ") for line in lines), err
    assert len(lines) == sum(map(len, failed.values()))
    assert rc == (1 if failed else 0) and summary["all_checks_passed"] == (rc == 0)
    assert out.endswith(f", checks passed: {rc == 0}\n"), out
    names = {trace_filename(i, r, v) for i in range(summary["num_instances"])
             for r in range(summary["repeats"]) for v in summary["variants"]}
    assert {path.name for path in paths["runs"].iterdir()} == names | {"summary.json"}
    assert summary["runs"] == len(names)
    if any(group[0] == "--instance" for group in groups):
        sign = load_instance(paths["inst"]).sign
    else:
        sign = -1 if ["--family", "sensor"] in groups else 1  # the sensor family maximizes
    for name in names:
        trace = read_trace_csv(paths["runs"] / name)
        assert trace["cycle"] == list(range(1, summary["t_max"] + 1))
        counts = set(zip(trace["messages_value"], trace["messages_cost"], trace["messages_best"]))
        # one count triple a run, with as many BEST as COST messages
        assert (len(counts) == 1 and all(c == b for _, c, b in counts)
                or "message_law" in failed.get(name, []))
        internal = [sign * c for c in trace["g_best_cost"]]
        assert (all(b <= a for a, b in zip(internal, internal[1:]))
                or "anytime" in failed.get(name, []))


def _contract(data, root: Path, commands: list[str]):
    paths = {"inst": root / "inst.json", "cfg": root / "cfg.json", "trace": root / "trace.csv",
             "log": root / "log.csv", "out": root / "out.json", "runs": root / "runs"}
    command = data.draw(st.sampled_from(commands))
    inst, cfg = data.draw(_instance_doc()), data.draw(_config_doc())
    groups = GROUPS[command](data.draw, paths)
    num_agents = len(inst[1][1])
    targets = {"gen": ["argv"], "oracle": ["argv", "inst"]}.get(command, ["argv", "inst", "cfg"])
    for _ in range(data.draw(st.integers(1, 2))):
        target = data.draw(st.sampled_from(targets))
        if target == "argv":
            _mutate_argv(data, command, groups)
        else:
            _mutate_doc(data, inst if target == "inst" else cfg, num_agents)
    paths["inst"].write_text(_dump(inst))
    paths["cfg"].write_text(_dump(cfg))
    before = set(root.iterdir())
    rc, out, err = _run([command] + [token for group in groups for token in group], root)
    after = set(root.iterdir())
    event(f"{command} exits {rc}")
    if rc == 2:
        _check_usage_error(rc, out, err, before, after)
    elif command == "gen":
        assert (rc, err) == (0, ""), err
        written = load_instance(paths["out"])
        assert out == (f"wrote {paths['out']}: {written.num_agents} agents, "
                       f"{written.num_edges} functions, objective {written.objective}\n")
    elif command == "solve":
        _check_solve_outputs(rc, out, err, paths, {group[0] for group in groups})
    elif command == "oracle":
        assert rc == 0
        _check_oracle_outputs(out, err, paths, groups)
    else:
        _check_experiment_outputs(rc, out, err, paths, groups)


_CONTRACT = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(_CONTRACT, max_examples=100)
@given(st.data())
def test_gen_and_solve_keep_the_input_contract(data):
    with tempfile.TemporaryDirectory() as root:
        _contract(data, Path(root), ["gen", "solve"])


@settings(_CONTRACT, max_examples=100)
@given(st.data())
def test_oracle_and_experiment_keep_the_input_contract(data):
    with tempfile.TemporaryDirectory() as root:
        _contract(data, Path(root), ["oracle", "experiment"])


@pytest.mark.slow
@settings(_CONTRACT, max_examples=1500)
@given(st.data())
def test_many_inputs_keep_the_contract(data):
    with tempfile.TemporaryDirectory() as root:
        _contract(data, Path(root), list(GROUPS))
