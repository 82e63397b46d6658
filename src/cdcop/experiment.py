"""Experiment driver: seed ensembles, trace files, and summary statistics.

Run seeds derive from (master seed, instance index, repeat index, variant),
so adding or removing a variant never shifts the other variants' seeds and
reruns are byte-identical. Trace files are plain CSV with one row per cycle;
wall-clock time is deliberately excluded from files (it lives on the in-memory
cycle stats) to keep outputs reproducible.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .benchmarks import BenchSpec, generate
from .expressions import DivisionByZero
from .model import CdcopInstance, load_instance
from .oracle import check_anytime
from .pseudotree import PseudoTree, build_bfs
from .runtime import message_stats
from .swarm import RunTrace, SwarmConfig, solve

__all__ = [
    "ExperimentConfig",
    "VARIANTS",
    "derive_run_seed",
    "derive_instance_seed",
    "run_experiment",
    "verify_trace",
    "emit_anytime_table",
    "write_trace_csv",
    "read_trace_csv",
]

TRACE_HEADER = "cycle,elapsed_ms,hops,g_best_cost,messages_value,messages_cost,messages_best"

VARIANTS = {"pcd": False, "pcd_crossover": True}  # name -> crossover enabled
_VARIANT_CODE = {"pcd": 0, "pcd_crossover": 1}


@dataclass
class ExperimentConfig:
    swarm: SwarmConfig
    variants: list[str] = field(default_factory=lambda: ["pcd", "pcd_crossover"])
    bench: BenchSpec | None = None
    instance_file: str | Path | None = None
    num_instances: int = 25
    repeats: int = 20
    master_seed: int = 0
    root: int = 0
    out_dir: str | Path = "runs"

    def validate(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not self.variants:
            raise ValueError("variant list is empty")
        for i, v in enumerate(self.variants):
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}; choose from {sorted(VARIANTS)}")
            if v in self.variants[:i]:
                raise ValueError(f"variant {v!r} is named twice")
        if (self.bench is None) == (self.instance_file is None):
            raise ValueError("exactly one of bench spec or instance file must be given")
        if self.bench is not None and self.num_instances < 1:
            raise ValueError(f"num_instances must be >= 1, got {self.num_instances}")


def _mix(master: int, key: tuple[int, ...]) -> int:
    state = np.random.SeedSequence(master, spawn_key=key).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


def derive_instance_seed(master_seed: int, instance_idx: int) -> int:
    return _mix(master_seed, (0, instance_idx))


def derive_run_seed(master_seed: int, instance_idx: int, repeat_idx: int, variant: str) -> int:
    return _mix(master_seed, (1, instance_idx, repeat_idx, _VARIANT_CODE[variant]))


def trace_filename(instance_idx: int, repeat_idx: int, variant: str) -> str:
    return f"inst{instance_idx:03d}_rep{repeat_idx:02d}_{variant}.csv"


def write_trace_csv(path, trace: RunTrace) -> None:
    """Write ``trace`` as CSV, one line per cycle.

    A ``solve`` trace's rows share one best-cost float until the best moves
    and repeat one count triple, so ``repr`` runs once per best-cost object
    and each ``,value,cost,best`` tail is built once per distinct triple.
    Sharing only saves work: rows that share nothing give the same bytes.
    """
    hops = trace.hops_per_cycle
    cost = text = None
    tails: dict[tuple[int, int, int], str] = {}
    lines = [TRACE_HEADER, "\n"]
    for row in trace.rows:
        if row.best_cost is not cost:
            cost = row.best_cost
            text = repr(cost)
        st = row.stats
        counts = (st.value_count, st.cost_count, st.best_count)
        tail = tails.get(counts)
        if tail is None:
            tail = tails[counts] = f",{st.value_count},{st.cost_count},{st.best_count}\n"
        lines.append(f"{row.cycle},0.0,{row.cycle * hops},{text}{tail}")
    Path(path).write_text("".join(lines))


def read_trace_csv(path) -> dict[str, list]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header != TRACE_HEADER.split(","):
        raise ValueError(f"{path}: unexpected trace header {header}")
    cols: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        parts = line.split(",")
        cols["cycle"].append(int(parts[0]))
        cols["elapsed_ms"].append(float(parts[1]))
        cols["hops"].append(int(parts[2]))
        cols["g_best_cost"].append(float(parts[3]))
        cols["messages_value"].append(int(parts[4]))
        cols["messages_cost"].append(int(parts[5]))
        cols["messages_best"].append(int(parts[6]))
    return cols


def verify_trace(trace: RunTrace, tree: PseudoTree, num_particles: int) -> dict[str, bool]:
    """The per-run invariants, each True when the run keeps it.

    ``anytime``: the best internal cost never rises from one cycle to the
    next. ``message_law``: every cycle moved exactly 2|E| VALUE, |A|-1 COST
    and |A|-1 BEST messages. ``payload_bound``: no agent sent more scalars
    in a cycle than ``message_stats`` allows.

    The message law is checked on the set of distinct count triples and the
    payload bound once per distinct ``sent_scalars_by_agent`` object, which
    a ``solve`` trace shares between the rows of one BEST length. Sharing
    only saves work: on rows that share nothing every row is checked.
    """
    expect = (2 * trace.num_edges, trace.num_agents - 1, trace.num_agents - 1)
    stats = [row.stats for row in trace.rows]
    counts = {(st.value_count, st.cost_count, st.best_count) for st in stats}
    # one row per sent map; ``stats`` keeps every map alive, so no id repeats
    distinct = {id(st.sent_scalars_by_agent): st for st in stats}
    return {
        "anytime": check_anytime(trace.internal_series()) is None,
        "message_law": counts <= {expect},
        "payload_bound": not message_stats(list(distinct.values()), tree,
                                           num_particles)["violations"],
    }


def _load_instances(cfg: ExperimentConfig) -> list[CdcopInstance]:
    if cfg.instance_file is not None:
        return [load_instance(cfg.instance_file)]
    return [generate(replace(cfg.bench, seed=derive_instance_seed(cfg.master_seed, i)))
            for i in range(cfg.num_instances)]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full ensemble, write traces plus summary.json, return the summary.

    The summary's ``all_checks_passed`` flag covers the anytime property of
    every trace, the exact per-cycle message-count law, and the per-agent
    payload bound; the CLI exit code mirrors it.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    instances = _load_instances(cfg)
    final_internal: dict[str, list[list[float]]] = {v: [] for v in cfg.variants}
    curve_sums: dict[str, np.ndarray] = {v: np.zeros(cfg.swarm.t_max) for v in cfg.variants}
    run_count = 0
    checks = {"anytime": True, "message_law": True, "payload_bound": True}

    for idx, inst in enumerate(instances):
        tree = build_bfs(inst, cfg.root)
        per_variant_finals: dict[str, list[float]] = {v: [] for v in cfg.variants}
        for rep in range(cfg.repeats):
            for variant in cfg.variants:
                run_cfg = replace(cfg.swarm,
                                  seed=derive_run_seed(cfg.master_seed, idx, rep, variant),
                                  crossover=VARIANTS[variant])
                try:
                    trace = solve(inst, run_cfg, tree=tree)
                except DivisionByZero as exc:  # name the run, so it can be rerun alone
                    raise DivisionByZero(f"instance {idx}, repeat {rep}, variant {variant}, "
                                         f"run seed {run_cfg.seed}: {exc}") from None
                write_trace_csv(out_dir / trace_filename(idx, rep, variant), trace)
                run_count += 1

                for name, ok in verify_trace(trace, tree, run_cfg.num_particles).items():
                    checks[name] = checks[name] and ok

                per_variant_finals[variant].append(trace.best_internal)
                curve_sums[variant] += np.array(trace.display_series())
        for variant in cfg.variants:
            final_internal[variant].append(per_variant_finals[variant])

    runs_per_variant = len(instances) * cfg.repeats
    summary = {
        "num_instances": len(instances),
        "repeats": cfg.repeats,
        "master_seed": cfg.master_seed,
        "t_max": cfg.swarm.t_max,
        "num_particles": cfg.swarm.num_particles,
        "runs": run_count,
        "variants": {},
        "win_rate": {},
        "checks": checks,
        "all_checks_passed": all(checks.values()),
    }
    mean_final: dict[str, list[float]] = {}
    for variant in cfg.variants:
        per_instance = [float(np.mean(finals)) for finals in final_internal[variant]]
        mean_final[variant] = per_instance
        summary["variants"][variant] = {
            "mean_final_internal": float(np.mean(per_instance)),
            "per_instance_mean_final_internal": per_instance,
            "per_cycle_mean_cost": [float(x) for x in curve_sums[variant] / runs_per_variant],
        }
    for a in cfg.variants:
        for b in cfg.variants:
            if a != b:
                wins = sum(x <= y for x, y in zip(mean_final[a], mean_final[b]))
                summary["win_rate"][f"{a}_vs_{b}"] = wins / len(instances)

    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def emit_anytime_table(summary: dict, variants: list[str] | None = None) -> str:
    """Mean final cost per variant as a small text table.

    When both stock variants are present, appends the relative improvement
    of the crossover variant, (base - improved) / |base|.
    """
    available = summary["variants"]
    names = variants if variants is not None else sorted(available)
    for name in names:
        if name not in available:
            raise KeyError(f"unknown variant {name!r}")
    width = max(len(n) for n in names)
    lines = [f"{'variant'.ljust(width)}  mean_final_cost"]
    for name in names:
        lines.append(f"{name.ljust(width)}  {available[name]['mean_final_internal']:.6g}")
    if "pcd" in names and "pcd_crossover" in names:
        base = available["pcd"]["mean_final_internal"]
        improved = available["pcd_crossover"]["mean_final_internal"]
        if base != 0:
            pct = 100.0 * (base - improved) / abs(base)
            lines.append(f"{'improvement'.ljust(width)}  {pct:.2f}%")
    return "\n".join(lines)
