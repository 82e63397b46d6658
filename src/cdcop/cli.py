"""Command-line harness: gen / solve / experiment / oracle subcommands."""

import argparse
import json
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .benchmarks import FAMILIES, BenchSpec, GenerationFailed, check_reads, generate
from .experiment import (
    VARIANTS,
    ExperimentConfig,
    emit_anytime_table,
    run_experiment,
    verify_trace,
    write_trace_csv,
)
from .expressions import DivisionByZero
from .model import load_instance, save_instance
from .oracle import GridSearchSpec, grid_optimum
from .pseudotree import build_bfs, tree_edge_dump
from .runtime import write_message_log_csv
from .swarm import (
    AdaptiveInertia,
    ConfigError,
    ConstrictionInertia,
    FixedInertia,
    SwarmConfig,
    check_field_types,
    solve,
    validate_config,
)

__all__ = ["main", "config_to_json", "config_from_json"]


_INERTIA_KINDS = {"fixed": FixedInertia, "adaptive": AdaptiveInertia,
                  "constriction": ConstrictionInertia}
_INERTIA_NAMES = {cls: kind for kind, cls in _INERTIA_KINDS.items()}


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, such as ``-1.5E+2``, as a value
    and not as an option; subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def config_to_json(cfg: SwarmConfig) -> str:
    doc = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    doc["inertia"] = {"kind": _INERTIA_NAMES[type(cfg.inertia)],
                      **{f.name: getattr(cfg.inertia, f.name) for f in fields(cfg.inertia)}}
    return json.dumps(doc, indent=2, sort_keys=True)


def _from_keys(cls, doc, what: str):
    """``cls(**doc)``; a key ``cls`` does not have is a ConfigError that names it."""
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; expected one of {', '.join(known)}")
    return cls(**doc)


def _schedule(entry) -> dict:
    """A document's ``inertia`` entry, checked to name a known kind; if absent, the default's."""
    if entry is not None and (not isinstance(entry, dict)
                              or entry.get("kind") not in _INERTIA_NAMES.values()):
        raise ConfigError(f"'inertia' needs a 'kind' of {', '.join(_INERTIA_KINDS)}, got {entry!r}")
    return entry or {"kind": _INERTIA_NAMES[type(SwarmConfig.inertia)]}


def _load_config(doc) -> SwarmConfig:
    """The validated SwarmConfig of a config document; absent keys keep their defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("a config file must hold a JSON object")
    schedule = _schedule(doc.pop("inertia", None))
    kind = schedule.pop("kind")
    cfg = replace(_from_keys(SwarmConfig, doc, "config"),
                  inertia=_from_keys(_INERTIA_KINDS[kind], schedule, f"{kind} inertia"))
    check_field_types(cfg.inertia)  # phi must be a number before it is halved
    if kind == "constriction" and "c1" not in doc and "c2" not in doc:  # c1 + c2 = phi
        cfg = replace(cfg, c1=cfg.inertia.phi / 2.0, c2=cfg.inertia.phi / 2.0)
    validate_config(cfg)
    return cfg


def config_from_json(text: str) -> SwarmConfig:
    return _load_config(json.loads(text))


def _add_swarm_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("swarm configuration")
    g.add_argument("--config", type=Path, help="JSON file with SwarmConfig keys; flags override")
    d = SwarmConfig
    g.add_argument("--particles", "-K", dest="num_particles", metavar="PARTICLES", type=int,
                   help=f"particle count (default {d.num_particles})")
    g.add_argument("--c1", type=float, help=f"cognitive constant (default {d.c1})")
    g.add_argument("--c2", type=float, help=f"social constant (default {d.c2})")
    g.add_argument("--max-sc", type=int, help=f"success-streak threshold (default {d.max_sc})")
    g.add_argument("--max-fc", type=int, help=f"failure-streak threshold (default {d.max_fc})")
    g.add_argument("--cycles", "-t", dest="t_max", metavar="CYCLES", type=int,
                   help=f"cycle budget t_max (default {d.t_max})")
    g.add_argument("--seed", type=int, help=f"run seed (default {d.seed})")
    g.add_argument("--inertia", dest="kind", choices=["adaptive", "constriction", "fixed"],
                   help=f"inertia schedule (default {_INERTIA_NAMES[type(d.inertia)]})")
    g.add_argument("--w-max", type=float, help="adaptive schedule start weight")
    g.add_argument("--w-min", type=float, help="adaptive schedule end weight")
    g.add_argument("--literal-increasing", action="store_const", const=True,
                   help="use the increasing adaptive ramp instead of the decreasing one")
    g.add_argument("--phi", type=float, help="constriction phi = c1 + c2 > 4")
    g.add_argument("--w", type=float, help="fixed inertia weight")


def _given(args, *classes) -> dict:
    return {f.name: getattr(args, f.name) for cls in classes for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _build_config(args) -> SwarmConfig:
    """Load the config file's document, or an empty one, with the given flags written over it."""
    try:
        doc = json.loads(args.config.read_text()) if args.config else {}
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{args.config}: {e}") from None
    if isinstance(doc, dict):  # else the loader rejects it
        doc.update(_given(args, SwarmConfig))
        if getattr(args, "variant", None):
            doc["crossover"] = VARIANTS[args.variant]
        schedule = _schedule(doc.get("inertia"))
        kind = args.kind or schedule["kind"]
        doc["inertia"] = {**(schedule if schedule["kind"] == kind else {"kind": kind}),
                          **_given(args, *_INERTIA_KINDS.values())}
    return _load_config(doc)


def _add_bench_flags(p: argparse.ArgumentParser, required: bool) -> None:
    g = p.add_argument_group("benchmark family")
    g.add_argument("--family", choices=FAMILIES, required=required,
                   help="er | tree | ba | sensor")
    g.add_argument("--n", type=int, help="number of agents (er/tree/ba)")
    g.add_argument("--p", type=float, help="edge probability (er)")
    g.add_argument("--m", type=int, help="attachments per new node (ba)")
    g.add_argument("--rows", type=int, help="sensor grid rows")
    g.add_argument("--cols", type=int, help="sensor grid cols")
    g.add_argument("--domain", type=float, nargs=2, metavar=("LB", "UB"),
                   help="variable bounds override")
    g.add_argument("--coeff", dest="coeff_range", type=float, nargs=2, metavar=("LO", "HI"),
                   help="quadratic coefficient range override")


def _family_fields(args) -> dict:
    """The given BenchSpec fields that depend on the family, argparse's lists as tuples."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in _given(args, BenchSpec).items()
            if k not in ("family", "seed")}


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _cmd_gen(args) -> int:
    given = _family_fields(args)
    check_reads(args.family, given)
    inst = generate(BenchSpec(args.family, seed=args.seed, **given))
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.num_agents} agents, {inst.num_edges} functions, "
          f"objective {inst.objective}")
    return 0


def _cmd_solve(args) -> int:
    if args.print_defaults:
        print(config_to_json(SwarmConfig()))
        return 0
    if args.instance is None:
        print("error: an instance file is required (or use --print-defaults)", file=sys.stderr)
        return 2
    cfg = _build_config(args)
    inst = load_instance(args.instance)
    tree = build_bfs(inst, args.root)
    if args.dump_tree:
        for u, v, tag in tree_edge_dump(tree, inst):
            print(f"{u} -- {v}  {tag}")
    trace = solve(inst, cfg, tree=tree)
    if args.trace:
        write_trace_csv(args.trace, trace)
    if args.log_messages:
        write_message_log_csv(trace.messages, args.log_messages)
    wall = sum(row.stats.duration_s for row in trace.rows)
    print(f"best cost: {trace.best_cost!r}")
    print("assignment: " + " ".join(repr(float(x)) for x in trace.best_assignment))
    print(f"cycles: {cfg.t_max}, wall: {wall:.3f}s", file=sys.stderr)
    failed = [name for name, ok in verify_trace(trace, tree, cfg.num_particles).items() if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    spec = GridSearchSpec(points_per_dim=args.points_per_dim, max_dims=args.max_dims)
    assignment, internal = grid_optimum(inst, spec)
    print(f"lattice optimum cost: {inst.to_display(internal)!r}")
    print("assignment: " + " ".join(repr(float(x)) for x in assignment))
    return 0


def _cmd_experiment(args) -> int:
    bench, given = _family_fields(args), _given(args, ExperimentConfig)
    if args.family:
        check_reads(args.family, bench)
    elif args.instance:  # an instance file reads no family field, nor a count of instances
        check_reads(None, [*bench, *given.keys() & {"num_instances"}])
    cfg = ExperimentConfig(
        swarm=_build_config(args),
        bench=BenchSpec(args.family, **bench) if args.family else None,
        instance_file=args.instance,
        **given,
        **({} if args.seed is None else {"master_seed": args.seed}),
    )
    summary = run_experiment(cfg)
    print(emit_anytime_table(summary, cfg.variants))
    print(f"traces in {cfg.out_dir}, checks passed: {summary['all_checks_passed']}")
    for run in summary.get("failed_runs", []):
        for name in run["checks"]:
            print(f"check failed: {name} (instance {run['instance']}, repeat {run['repeat']}, "
                  f"variant {run['variant']}, run seed {run['run_seed']})", file=sys.stderr)
    return 0 if summary["all_checks_passed"] else 1


def main(argv=None) -> int:
    parser = _Parser(prog="cdcop", description="Continuous DCOP swarm-solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance file")
    _add_bench_flags(p_gen, required=True)
    p_gen.add_argument("--seed", type=int, default=BenchSpec.seed)
    p_gen.add_argument("--out", type=Path, required=True, help="instance JSON output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", nargs="?", type=Path, help="instance JSON file")
    _add_swarm_flags(p_solve)
    p_solve.add_argument("--variant", choices=sorted(VARIANTS))
    p_solve.add_argument("--root", type=int, default=ExperimentConfig.root,
                         help="pseudo-tree root agent")
    p_solve.add_argument("--trace", type=Path, help="write the anytime trace CSV here")
    p_solve.add_argument("--dump-tree", action="store_true", help="print tagged edge list")
    p_solve.add_argument("--log-messages", type=Path, help="write per-message CSV log here")
    p_solve.add_argument("--print-defaults", action="store_true",
                         help="print the default configuration as JSON and exit")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive lattice optimum of a small instance")
    p_oracle.add_argument("instance", type=Path)
    p_oracle.add_argument("--points-per-dim", type=int, default=GridSearchSpec.points_per_dim)
    p_oracle.add_argument("--max-dims", type=int, default=GridSearchSpec.max_dims)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exp = sub.add_parser("experiment", help="run a seed ensemble and emit traces + summary")
    group = p_exp.add_argument_group("instance source")
    group.add_argument("--instance", type=Path, help="use one instance file instead of a family")
    _add_bench_flags(p_exp, required=False)
    _add_swarm_flags(p_exp)
    p_exp.add_argument("--variants", type=_names, help="comma-separated list (default both)")
    p_exp.add_argument("--num-instances", type=int)
    p_exp.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    p_exp.add_argument("--root", type=int, default=ExperimentConfig.root)
    # argparse passes a string default through ``type``, so this is Path("runs")
    p_exp.add_argument("--out-dir", type=Path, default=ExperimentConfig.out_dir)
    p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        # a cost that overflows, or is NaN, is a value of the run, not an error:
        # numpy's warnings about it would add lines to stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, GenerationFailed, DivisionByZero) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        where = "" if e.filename is None else f"{e.filename}: "  # ENOSPC, EPIPE name no file
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
