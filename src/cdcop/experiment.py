"""Experiment driver: seed ensembles, trace files, and summary statistics.

Run seeds derive from (master seed, instance index, repeat index, variant),
so adding or removing a variant never shifts the other variants' seeds and
reruns are byte-identical. Trace files are plain CSV with one row per cycle;
wall-clock time is deliberately excluded from files (it lives on the in-memory
cycle stats) to keep outputs reproducible.
"""

import contextlib
import json
import re
import shutil
import tempfile
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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed}")


def _mix(master: int, key: tuple[int, ...]) -> int:
    state = np.random.SeedSequence(master, spawn_key=key).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


def derive_instance_seed(master_seed: int, instance_idx: int) -> int:
    return _mix(master_seed, (0, instance_idx))


def derive_run_seed(master_seed: int, instance_idx: int, repeat_idx: int, variant: str) -> int:
    return _mix(master_seed, (1, instance_idx, repeat_idx, _VARIANT_CODE[variant]))


def trace_filename(instance_idx: int, repeat_idx: int, variant: str) -> str:
    return f"inst{instance_idx:03d}_rep{repeat_idx:02d}_{variant}.csv"


# every name ``trace_filename`` gives
_TRACE_NAME = re.compile(rf"inst\d{{3,}}_rep\d{{2,}}_({'|'.join(VARIANTS)})\.csv")


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
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = lines[0].split(",")
    if header != TRACE_HEADER.split(","):
        raise ValueError(f"{path}: unexpected trace header {header}")
    cols: dict[str, list] = {name: [] for name in header}
    kinds = (int, float, int, float, int, int, int)  # each column's type, in header order
    for line in lines[1:]:
        for name, kind, part in zip(header, kinds, line.split(","), strict=True):
            cols[name].append(kind(part))
    return cols


def verify_trace(trace: RunTrace, tree: PseudoTree, num_particles: int) -> dict[str, bool]:
    """The per-run invariants, each True when the run keeps it.

    ``anytime``: the best internal cost never rises from one cycle to the
    next. ``message_law``: every cycle moved exactly 2|E| VALUE, |A|-1 COST
    and |A|-1 BEST messages, carrying K*(2|E| + |A|-1) + L*(|A|-1) scalars
    for its BEST payload length L. ``payload_bound``: no agent sent more
    scalars in a cycle than ``message_stats`` allows, which holds exactly
    when L <= K + 2. Every row is checked.
    """
    links = trace.num_agents - 1
    expect = (2 * trace.num_edges, links, links)
    fixed = num_particles * (2 * trace.num_edges + links)
    stats = [row.stats for row in trace.rows]
    return {
        "anytime": check_anytime(trace.internal_series()) is None,
        "message_law": all((st.value_count, st.cost_count, st.best_count) == expect
                           and st.payload_scalars == fixed + st.best_len * links
                           for st in stats),
        "payload_bound": not message_stats(stats, tree, num_particles)["violations"],
    }


def _load_instances(cfg: ExperimentConfig) -> list[CdcopInstance]:
    if cfg.instance_file is not None:
        return [load_instance(cfg.instance_file)]
    return [generate(replace(cfg.bench, seed=derive_instance_seed(cfg.master_seed, i)))
            for i in range(cfg.num_instances)]


@contextlib.contextmanager
def _staged(out_dir: Path):
    """A new directory beside ``out_dir`` to write the outputs into.

    ``out_dir`` is made first, if need be, so a path that cannot be a
    directory fails before any run. When the block ends, the trace files and
    summary an earlier run left in ``out_dir`` are removed and the staged
    files moved in. When it raises, the staging directory and every
    directory made for ``out_dir`` are removed, so ``out_dir`` is as it was.
    """
    made = [path for path in (*reversed(out_dir.parents), out_dir) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        yield staging
        for path in out_dir.iterdir():
            if path.name == "summary.json" or _TRACE_NAME.fullmatch(path.name):
                path.unlink()
        for path in staging.iterdir():
            path.replace(out_dir / path.name)
        staging.rmdir()
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for path in reversed(made):
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full ensemble, write traces plus summary.json, return the summary.

    The summary's ``checks`` name every check of ``verify_trace``, each True
    when every run keeps it, and its ``all_checks_passed`` flag covers them
    all; the CLI exit code mirrors it. When a run fails a check,
    ``failed_runs`` lists each such run: its instance, repeat, variant, run
    seed and the names of the checks it failed; a clean summary has no
    such key. The outputs are written into a staging directory beside
    ``out_dir`` and moved into it, in place of the trace files and summary an
    earlier run left there, only once every run has finished; so ``out_dir``
    holds this call's outputs only, and a call that raises leaves it absent
    or as it was.
    """
    cfg.validate()
    instances = _load_instances(cfg)
    trees = [build_bfs(inst, cfg.root) for inst in instances]
    with _staged(Path(cfg.out_dir)) as staging:
        return _run_ensemble(cfg, instances, trees, staging)


def _run_ensemble(cfg: ExperimentConfig, instances: list[CdcopInstance],
                  trees: list[PseudoTree], out_dir: Path) -> dict:
    """``run_experiment``'s runs, with its outputs written into ``out_dir``."""
    finals = {v: np.empty((len(instances), cfg.repeats)) for v in cfg.variants}
    curve_sums: dict[str, np.ndarray] = {v: np.zeros(cfg.swarm.t_max) for v in cfg.variants}
    checks: dict[str, bool] = {}  # each of verify_trace's checks: kept by every run so far
    failed_runs = []

    for idx, (inst, tree) in enumerate(zip(instances, trees)):
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

                verdicts = verify_trace(trace, tree, run_cfg.num_particles)
                checks = {name: checks.get(name, True) and ok for name, ok in verdicts.items()}
                failed = [name for name, ok in verdicts.items() if not ok]
                if failed:
                    failed_runs.append({"instance": idx, "repeat": rep, "variant": variant,
                                        "run_seed": run_cfg.seed, "checks": failed})

                finals[variant][idx, rep] = trace.best_internal
                curve_sums[variant] += np.array(trace.display_series())

    runs_per_variant = len(instances) * cfg.repeats
    summary = {
        "num_instances": len(instances),
        "repeats": cfg.repeats,
        "master_seed": cfg.master_seed,
        "t_max": cfg.swarm.t_max,
        "num_particles": cfg.swarm.num_particles,
        "runs": runs_per_variant * len(cfg.variants),
        "variants": {},
        "win_rate": {},
        "checks": checks,
        "all_checks_passed": all(checks.values()),
    }
    if failed_runs:
        summary["failed_runs"] = failed_runs
    means = {v: finals[v].mean(axis=1) for v in cfg.variants}  # per instance
    for variant in cfg.variants:
        summary["variants"][variant] = {
            "mean_final_internal": float(np.mean(means[variant])),
            "per_instance_mean_final_internal": means[variant].tolist(),
            "per_cycle_mean_cost": [float(x) for x in curve_sums[variant] / runs_per_variant],
        }
    for a in cfg.variants:
        for b in cfg.variants:
            if a != b:
                summary["win_rate"][f"{a}_vs_{b}"] = float(np.mean(means[a] <= means[b]))

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
