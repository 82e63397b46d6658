"""Command-line harness: gen / solve / experiment / oracle subcommands."""

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .benchmarks import FAMILIES, BenchSpec, GenerationFailed, generate
from .experiment import (
    VARIANTS,
    ExperimentConfig,
    emit_anytime_table,
    run_experiment,
    verify_trace,
    write_trace_csv,
)
from .expressions import DivisionByZero
from .model import InvalidInstanceError, load_instance, save_instance
from .oracle import GridSearchSpec, GridTooLargeError, grid_optimum
from .pseudotree import build_bfs, tree_edge_dump
from .runtime import write_message_log_csv
from .swarm import (
    AdaptiveInertia,
    ConfigError,
    ConstrictionInertia,
    FixedInertia,
    SwarmConfig,
    solve,
    validate_config,
)

__all__ = ["main", "config_to_json", "config_from_json"]


_INERTIA_KINDS = {"fixed": FixedInertia, "adaptive": AdaptiveInertia,
                  "constriction": ConstrictionInertia}
_INERTIA_NAMES = {cls: kind for kind, cls in _INERTIA_KINDS.items()}


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


def config_from_json(text: str) -> SwarmConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ConfigError("a config file must hold a JSON object")
    inertia_doc = doc.pop("inertia", None)
    cfg = _from_keys(SwarmConfig, doc, "config")
    if inertia_doc is not None:
        if not isinstance(inertia_doc, dict) or "kind" not in inertia_doc:
            raise ConfigError("config key 'inertia' needs a 'kind' key: "
                              + ", ".join(_INERTIA_KINDS))
        kind = inertia_doc.pop("kind")
        if kind not in _INERTIA_KINDS:
            raise ConfigError(f"unknown inertia kind {kind!r}")
        cfg = replace(cfg, inertia=_from_keys(_INERTIA_KINDS[kind], inertia_doc, f"{kind} inertia"))
    return cfg


def _add_swarm_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("swarm configuration")
    g.add_argument("--config", type=Path, help="JSON file with SwarmConfig keys; flags override")
    g.add_argument("--particles", "-K", type=int, help="particle count (default 200)")
    g.add_argument("--c1", type=float, help="cognitive constant (default 1.49)")
    g.add_argument("--c2", type=float, help="social constant (default 1.49)")
    g.add_argument("--max-sc", type=int, help="success-streak threshold (default 15)")
    g.add_argument("--max-fc", type=int, help="failure-streak threshold (default 5)")
    g.add_argument("--cycles", "-t", type=int, help="cycle budget t_max (default 500)")
    g.add_argument("--seed", type=int, help="run seed (default 0)")
    g.add_argument("--inertia", choices=["adaptive", "constriction", "fixed"],
                   help="inertia schedule (default adaptive)")
    g.add_argument("--w-max", type=float, default=1.4, help="adaptive schedule start weight")
    g.add_argument("--w-min", type=float, default=0.4, help="adaptive schedule end weight")
    g.add_argument("--literal-increasing", action="store_true",
                   help="use the increasing adaptive ramp instead of the decreasing one")
    g.add_argument("--phi", type=float, default=4.1, help="constriction phi = c1 + c2 > 4")
    g.add_argument("--w", type=float, default=0.72, help="fixed inertia weight")


def _build_config(args) -> SwarmConfig:
    if getattr(args, "config", None):
        cfg = config_from_json(Path(args.config).read_text())
    else:
        cfg = SwarmConfig()
    if args.inertia == "adaptive":
        cfg = replace(cfg, inertia=AdaptiveInertia(args.w_max, args.w_min, args.literal_increasing))
    elif args.inertia == "constriction":
        cfg = replace(cfg, inertia=ConstrictionInertia(args.phi))
        if args.c1 is None and args.c2 is None:
            cfg = replace(cfg, c1=args.phi / 2.0, c2=args.phi / 2.0)
    elif args.inertia == "fixed":
        cfg = replace(cfg, inertia=FixedInertia(args.w))
    overrides = {
        "num_particles": args.particles,
        "c1": args.c1,
        "c2": args.c2,
        "max_sc": args.max_sc,
        "max_fc": args.max_fc,
        "t_max": args.cycles,
        "seed": args.seed,
    }
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)
    return cfg


def _add_bench_flags(p: argparse.ArgumentParser, required: bool) -> None:
    g = p.add_argument_group("benchmark family")
    g.add_argument("--family", choices=FAMILIES, required=required,
                   help="er | tree | ba | sensor")
    g.add_argument("--n", type=int, default=50, help="number of agents (er/tree/ba)")
    g.add_argument("--p", type=float, default=0.2, help="edge probability (er)")
    g.add_argument("--m", type=int, default=3, help="attachments per new node (ba)")
    g.add_argument("--rows", type=int, default=8, help="sensor grid rows")
    g.add_argument("--cols", type=int, default=8, help="sensor grid cols")
    g.add_argument("--domain", type=float, nargs=2, metavar=("LB", "UB"),
                   help="variable bounds override")
    g.add_argument("--coeff", type=float, nargs=2, metavar=("LO", "HI"),
                   help="quadratic coefficient range override")


def _bench_spec(args, seed: int) -> BenchSpec:
    return BenchSpec(
        family=args.family,
        n=args.n, p=args.p, m=args.m, rows=args.rows, cols=args.cols,
        domain=tuple(args.domain) if args.domain else None,
        coeff_range=tuple(args.coeff) if args.coeff else None,
        seed=seed,
    )


def _cmd_gen(args) -> int:
    spec = _bench_spec(args, args.seed if args.seed is not None else 0)
    inst = generate(spec)
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
    cfg = replace(cfg, crossover=VARIANTS[args.variant])
    inst = load_instance(args.instance)
    tree = build_bfs(inst, args.root)
    if args.dump_tree:
        for u, v, tag in tree_edge_dump(tree, inst):
            print(f"{u} -- {v}  {tag}")
    trace = solve(inst, cfg, tree=tree, log_messages=args.log_messages is not None)
    if args.trace:
        write_trace_csv(args.trace, trace)
    if args.log_messages:
        write_message_log_csv(trace.messages, args.log_messages)
    wall = sum(row.stats.duration_s for row in trace.rows)
    print(f"best cost: {trace.best_cost!r}")
    print("assignment: " + " ".join(repr(float(x)) for x in trace.best_assignment))
    print(f"cycles: {cfg.t_max}, wall: {wall:.3f}s", file=sys.stderr)
    return 0 if all(verify_trace(trace, tree, cfg.num_particles).values()) else 1


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    spec = GridSearchSpec(points_per_dim=args.points_per_dim, max_dims=args.max_dims)
    assignment, internal = grid_optimum(inst, spec)
    print(f"lattice optimum cost: {inst.to_display(internal)!r}")
    print("assignment: " + " ".join(repr(float(x)) for x in assignment))
    return 0


def _cmd_experiment(args) -> int:
    swarm = _build_config(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    cfg = ExperimentConfig(
        swarm=swarm,
        variants=variants,
        bench=_bench_spec(args, 0) if args.family else None,
        instance_file=args.instance,
        num_instances=args.num_instances,
        repeats=args.repeats,
        master_seed=args.seed if args.seed is not None else 0,
        root=args.root,
        out_dir=args.out_dir,
    )
    summary = run_experiment(cfg)
    print(emit_anytime_table(summary, variants))
    print(f"traces in {args.out_dir}, checks passed: {summary['all_checks_passed']}")
    return 0 if summary["all_checks_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cdcop",
                                     description="Continuous DCOP swarm-solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance file")
    _add_bench_flags(p_gen, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, required=True, help="instance JSON output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", nargs="?", type=Path, help="instance JSON file")
    _add_swarm_flags(p_solve)
    p_solve.add_argument("--variant", choices=sorted(VARIANTS), default="pcd")
    p_solve.add_argument("--root", type=int, default=0, help="pseudo-tree root agent")
    p_solve.add_argument("--trace", type=Path, help="write the anytime trace CSV here")
    p_solve.add_argument("--dump-tree", action="store_true", help="print tagged edge list")
    p_solve.add_argument("--log-messages", type=Path, help="write per-message CSV log here")
    p_solve.add_argument("--print-defaults", action="store_true",
                         help="print the default configuration as JSON and exit")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive lattice optimum of a small instance")
    p_oracle.add_argument("instance", type=Path)
    p_oracle.add_argument("--points-per-dim", type=int, default=21)
    p_oracle.add_argument("--max-dims", type=int, default=8)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exp = sub.add_parser("experiment", help="run a seed ensemble and emit traces + summary")
    group = p_exp.add_argument_group("instance source")
    group.add_argument("--instance", type=Path, help="use one instance file instead of a family")
    _add_bench_flags(p_exp, required=False)
    _add_swarm_flags(p_exp)
    p_exp.add_argument("--variants", default="pcd,pcd_crossover",
                       help="comma-separated list (default both)")
    p_exp.add_argument("--num-instances", type=int, default=25)
    p_exp.add_argument("--repeats", type=int, default=20)
    p_exp.add_argument("--root", type=int, default=0)
    p_exp.add_argument("--out-dir", type=Path, default=Path("runs"))
    p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstanceError, ConfigError, GenerationFailed, GridTooLargeError, ValueError,
            DivisionByZero) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {getattr(e, 'filename', '')}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
