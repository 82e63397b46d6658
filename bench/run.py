"""cdcop benchmark: seeded workloads, end-to-end metrics, and a traced run per layer.

    python3 bench/run.py --workload er50 --seed 1 --seconds 40 --trace 0

Builds every instance and run seed from ``--seed``, drives the library only
through its public calls, checks every run's output, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` runs each unit of work twice, untraced and then through the
timing proxies in ``tracing.py``, and reports the per-layer metrics. Spans are
written to ``.bench_out/spans-<workload>.npz`` when the run ends.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# cycle_ms_p50 averages the medians of windows of this many consecutive cycles:
# machine speed on a shared host flips between a fast and a slow state, and a
# median over a whole run would jump with whichever state held half its cycles
P50_WINDOW = 50
# setup_s, runs_per_s and cycle_ms_p50 are divided by the host's speed factor:
# the time of a fixed reference loop, taken around each unit, over this, its
# time on a quiet core of the 2-core x86_64 host that measured the baseline.
# Shared hosts run 1.5x slower for minutes at a time; the factor takes that
# out. The cycle-time tail (cycle_ms_p99) is printed as measured but is not an
# end-to-end metric: host stalls in the tail do not scale with the factor, and
# its spread over seeds came close to, and once past, a 0.25 bound.
REFERENCE_S = 2.0e-3


def _import_program():
    """Import cdcop from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cdcop" / "__init__.py").is_file():
        print(f"error: no cdcop sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import cdcop
    if Path(cdcop.__file__).resolve().parent != (src / "cdcop").resolve():
        print(f"error: imported cdcop from {cdcop.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402

from cdcop import experiment  # noqa: E402
from cdcop.benchmarks import BenchSpec, generate  # noqa: E402
from cdcop.experiment import ExperimentConfig, run_experiment  # noqa: E402
from cdcop.model import global_cost, load_instance, save_instance  # noqa: E402
from cdcop.oracle import check_anytime  # noqa: E402
from cdcop.pseudotree import build_bfs  # noqa: E402
from cdcop.runtime import message_stats  # noqa: E402
from cdcop.swarm import SwarmConfig, solve  # noqa: E402

import tracing  # noqa: E402


# --- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A fixed load shape; instances and run seeds come from the workload seed.

    The measured phase repeats *units* of work until ``--seconds`` runs out.
    With ``experiment=False`` a unit solves every pool instance once; with
    ``experiment=True`` it calls ``run_experiment`` once per family, on pool
    instance ``u % pool``, over ``repeats`` seeds and ``variants``. The
    first ``ref_units`` units always run; exact metrics are taken over them
    only, so they do not depend on machine speed. Why each workload was
    chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    families: tuple[BenchSpec, ...]
    num_particles: int
    t_max: int
    variants: tuple[str, ...]
    experiment: bool
    pool: int = 1        # instances per family
    repeats: int = 1     # seeds per variant in one run_experiment call
    ref_units: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ensemble_small",
            families=(BenchSpec("er", n=6, p=0.4), BenchSpec("tree", n=6),
                      BenchSpec("ba", n=6, m=2), BenchSpec("sensor", rows=2, cols=2)),
            num_particles=50, t_max=200, variants=("pcd", "pcd_crossover"),
            experiment=True, pool=3, repeats=2, ref_units=3),
        Workload(
            name="er50",
            families=(BenchSpec("er", n=50, p=0.2),),
            num_particles=200, t_max=500, variants=("pcd",),
            experiment=False, pool=2),
        Workload(
            name="sensor_crossover",
            families=(BenchSpec("sensor", rows=8, cols=8),),
            num_particles=200, t_max=500, variants=("pcd_crossover",),
            experiment=False, pool=2),
    )
}


def derive_seed(seed: int, *key: int) -> int:
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


def swarm_config(wl: Workload, variant: str, seed: int) -> SwarmConfig:
    return SwarmConfig(num_particles=wl.num_particles, t_max=wl.t_max,
                       crossover=experiment.VARIANTS[variant], seed=seed)


# --- set-up ----------------------------------------------------------------------

@dataclass
class Prepared:
    """One workload instance after the JSON round trip, with its tree and file."""

    inst: object
    tree: object
    path: Path


def setup(wl: Workload, seed: int, work_dir: Path) -> tuple[list[list[Prepared]], dict]:
    """Generate, save, reload and build the tree of every pool instance.

    Returns the prepared instances per family and the seconds spent in each
    layer. A reloaded instance that differs from the generated one raises.
    """
    times = {"generate": 0.0, "io": 0.0, "build": 0.0}
    prepared = []
    for f, base in enumerate(wl.families):
        per_family = []
        for i in range(wl.pool):
            t0 = time.perf_counter()
            inst = generate(replace(base, seed=derive_seed(seed, 0, f, i)))
            t1 = time.perf_counter()
            path = work_dir / f"{wl.name}-f{f}-i{i}.json"
            save_instance(inst, path)
            loaded = load_instance(path)
            t2 = time.perf_counter()
            tree = build_bfs(loaded, 0)
            t3 = time.perf_counter()
            if loaded != inst:
                raise RuntimeError(f"{path.name}: instance changed in the JSON round trip")
            times["generate"] += t1 - t0
            times["io"] += t2 - t1
            times["build"] += t3 - t2
            per_family.append(Prepared(loaded, tree, path))
        prepared.append(per_family)
    return prepared, times


# --- verification ------------------------------------------------------------------

def verify_run(inst, tree, num_particles: int, t_max: int, trace) -> list[str]:
    """Every check one run's trace must pass; returns the failures (empty = ok)."""
    problems = []
    if len(trace.rows) != t_max:
        problems.append(f"{len(trace.rows)} trace rows, expected {t_max}")
    bad = check_anytime(trace.internal_series())
    if bad is not None:
        problems.append(f"best cost degrades at cycle {trace.rows[bad].cycle}")
    expect = (2 * inst.num_edges, inst.num_agents - 1, inst.num_agents - 1)
    for row in trace.rows:
        st = row.stats
        if (st.value_count, st.cost_count, st.best_count) != expect:
            problems.append(f"cycle {row.cycle} message counts "
                            f"{(st.value_count, st.cost_count, st.best_count)} != {expect}")
            break
    if message_stats([row.stats for row in trace.rows], tree, num_particles)["violations"]:
        problems.append("per-agent payload bound exceeded")
    central = global_cost(inst, trace.best_assignment)
    if not math.isclose(trace.best_internal, central, rel_tol=1e-9):
        problems.append(f"best cost {trace.best_internal!r} != centralized cost {central!r}")
    return problems


@dataclass
class Run:
    """What the benchmark keeps of one run after verifying it."""

    unit: int
    best_internal: float
    best_assignment: np.ndarray
    problems: list[str]


class Tally:
    """Runs attempted and failed, with what the reference units found."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.runs: list[Run] = []

    def add(self, unit: int, captured, summary_ok: bool = True) -> list[Run]:
        wl = self.wl
        added = []
        for inst, tree, trace in captured:
            problems = verify_run(inst, tree, wl.num_particles, wl.t_max, trace)
            if not summary_ok:
                problems.append("run_experiment reported a failed check")
            added.append(Run(unit, trace.best_internal, trace.best_assignment, problems))
        self.runs.extend(added)
        return added

    def fail_unit(self, unit: int, expected_runs: int, error: str) -> None:
        for _ in range(expected_runs):
            self.runs.append(Run(unit, math.nan, np.empty(0), [error]))

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)

    def final_cost_mean(self, runs=None) -> float:
        """Mean best cost of the reference units' runs (by default, every run)."""
        runs = self.runs if runs is None else runs
        return float(np.mean([r.best_internal for r in runs if r.unit < self.wl.ref_units]))


# --- units of work -------------------------------------------------------------------

@contextmanager
def patched(module, **names):
    """Temporarily rebind module-level names (how run_experiment is observed)."""
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


class UnitRunner:
    """Runs unit ``u`` of a workload through ``solve_fn`` and times it."""

    def __init__(self, wl: Workload, seed: int, prepared, work_dir: Path):
        self.wl = wl
        self.seed = seed
        self.prepared = prepared
        self.work_dir = work_dir

    def runs_per_unit(self) -> int:
        wl = self.wl
        return len(wl.families) * wl.repeats * len(wl.variants) if wl.experiment else wl.pool

    def run_unit(self, u: int, solve_fn, experiment_hooks=None) -> tuple[float, list, bool]:
        """Returns (wall seconds, [(inst, tree, trace)], experiment checks passed)."""
        if self.wl.experiment:
            return self._experiment_unit(u, solve_fn, experiment_hooks or {})
        wl = self.wl
        captured = []
        wall = 0.0
        for i, p in enumerate(self.prepared[0]):
            cfg = swarm_config(wl, wl.variants[0], derive_seed(self.seed, 1, u, i))
            t0 = time.perf_counter()
            trace = solve_fn(p.inst, cfg, tree=p.tree)
            wall += time.perf_counter() - t0
            captured.append((p.inst, p.tree, trace))
        return wall, captured, True

    def _experiment_unit(self, u: int, solve_fn, hooks) -> tuple[float, list, bool]:
        wl = self.wl
        captured = []

        def capturing_solve(inst, cfg, tree=None, **kwargs):
            trace = solve_fn(inst, cfg, tree=tree, **kwargs)
            captured.append((inst, tree, trace))
            return trace

        all_ok = True
        wall = 0.0
        out = self.work_dir / "experiment"
        with patched(experiment, solve=capturing_solve, **hooks):
            for f, per_family in enumerate(self.prepared):
                p = per_family[u % wl.pool]
                cfg = ExperimentConfig(
                    swarm=SwarmConfig(num_particles=wl.num_particles, t_max=wl.t_max),
                    variants=list(wl.variants), instance_file=p.path,
                    repeats=wl.repeats, master_seed=derive_seed(self.seed, 1, u, f),
                    out_dir=out)
                t0 = time.perf_counter()
                summary = run_experiment(cfg)
                wall += time.perf_counter() - t0
                all_ok = all_ok and summary["all_checks_passed"]
        return wall, captured, all_ok

    def warm_up(self) -> None:
        """Compile every pool instance's cost expressions before timing."""
        wl = self.wl
        for per_family in self.prepared:
            for p in per_family:
                cfg = replace(swarm_config(wl, wl.variants[-1], 0), t_max=2)
                solve(p.inst, cfg, tree=p.tree)


def run_units(wl: Workload, seconds: float, step) -> None:
    """Call ``step(u)`` for u = 0, 1, ... while time remains.

    The first ``ref_units`` units always run; another unit starts only if
    the mean unit so far would still finish inside ``seconds``.
    """
    start = time.perf_counter()
    u = 0
    while u < wl.ref_units or (time.perf_counter() - start) * (u + 1) / u <= seconds:
        step(u)
        u += 1


class MeasurementFailed(Exception):
    """Not one unit of work completed, so there is nothing to report."""


def guarded(runner: UnitRunner, tally: Tally, u: int, solve_fn, hooks=None):
    """Run one unit; an exception from the program fails the unit's runs."""
    try:
        return runner.run_unit(u, solve_fn, hooks)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        traceback.print_exc()
        tally.fail_unit(u, runner.runs_per_unit(), f"{type(exc).__name__}: {exc}")
        return None


# --- measurement modes -----------------------------------------------------------------

def prepare(wl: Workload, seed: int, work_dir: Path) -> tuple[UnitRunner, list[dict]]:
    """Set up and warm up; returns the runner and the set-up's times per layer."""
    prepared, times = setup(wl, seed, work_dir)
    runner = UnitRunner(wl, seed, prepared, work_dir)
    runner.warm_up()
    return runner, [times]


def _reference_work() -> float:
    """Fixed interpreter and small-array work that does not touch cdcop."""
    x = np.linspace(0.0, 1.0, 200)
    acc = 0.0
    for _ in range(300):
        acc += float(((x * 1.5 + 0.25) ** 2 - x * x).sum()) + sum(range(30))
    return acc


def speed_factor() -> float:
    """How much slower the host runs now than the quiet baseline host (1.0 there)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def measure(wl: Workload, seed: int, seconds: float, work_dir: Path):
    """Untraced run: end-to-end metrics, in seconds of the quiet baseline host."""
    runner, _ = prepare(wl, seed, work_dir)
    tally = Tally(wl)
    setup_s = []  # each set-up's seconds over the speed factor taken just before it
    per_unit = []  # (runs, wall s, window medians ms, cycle ms p99, cycles, speed factor)

    def step(u):
        before = speed_factor()
        setup_s.append(sum(setup(wl, seed, work_dir)[1].values()) / before)
        result = guarded(runner, tally, u, solve)
        if result is not None:
            wall, captured, ok = result
            tally.add(u, captured, ok)
            factor = (before + speed_factor()) / 2
            per_run = [1e3 * np.array([row.stats.duration_s for row in trace.rows])
                       for _, _, trace in captured]
            medians = [float(np.median(ms[i:i + P50_WINDOW]))
                       for ms in per_run for i in range(0, len(ms), P50_WINDOW)]
            cycle_ms = np.concatenate(per_run)
            per_unit.append((len(captured), wall, medians, np.percentile(cycle_ms, 99),
                             len(cycle_ms), factor))

    run_units(wl, seconds, step)
    if not per_unit:
        raise MeasurementFailed(f"no unit of {wl.name} completed")
    for u, (runs, wall, medians, p99, cycles, factor) in enumerate(per_unit):
        print(f"{wl.name:<17} unit {u:<3} runs {runs} wall_s {wall:.6g} "
              f"cycle_ms_p50 {statistics.fmean(medians):.6g} cycle_ms_p99 {p99:.6g} "
              f"cycles {cycles} speed_factor {factor:.4g} (as measured)")
    runs, wall, medians, p99, cycles, factor = zip(*per_unit)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "runs_per_s": (sum(runs) / sum(w / f for w, f in zip(wall, factor)), "1/s"),
        "cycle_ms_p50": (statistics.fmean(m / f for unit, f in zip(medians, factor)
                                          for m in unit), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "cycle_ms_p99": (statistics.median(p99), "ms"),
        "final_cost_mean": (tally.final_cost_mean(), "cost"),
        "failed_frac": (tally.failed / tally.attempted, "frac"),
        "units": (len(per_unit), "count"),
        "cycles_per_unit": (min(cycles), "count"),
        "speed_factor_median": (statistics.median(factor), "x"),
        "measured_runs_per_s": (sum(runs) / sum(wall), "1/s"),
        "measured_cycle_ms_p50": (statistics.fmean(m for unit in medians for m in unit), "ms"),
    }
    return tally, metrics, extra


def measure_traced(wl: Workload, seed: int, seconds: float, work_dir: Path):
    """Traced run: each unit untraced, then traced; per-layer metrics and overhead."""
    runner, setup_times = prepare(wl, seed, work_dir)
    tally = Tally(wl)
    tracer = tracing.Tracer()
    traced_solve = tracing.traced_solver(tracer)
    hooks = tracing.experiment_hooks(tracer) if wl.experiment else None
    walls = {"plain": 0.0, "traced": 0.0}
    plain_runs = []
    mismatches = []

    def step(u):
        setup_times.append(setup(wl, seed, work_dir)[1])
        plain = guarded(runner, tally, u, solve)
        tracer.unit = u
        traced = guarded(runner, tally, u, traced_solve, hooks)
        if plain is None or traced is None:
            return
        walls["plain"] += plain[0]
        walls["traced"] += traced[0]
        reference = tally.add(u, plain[1], plain[2])
        observed = tally.add(u, traced[1], traced[2])
        plain_runs.extend(reference)
        for ref, got in zip(reference, observed, strict=True):
            if ref.best_internal != got.best_internal or not np.array_equal(
                    ref.best_assignment, got.best_assignment):
                got.problems.append("traced run differs from solve()")
                mismatches.append(u)

    run_units(wl, seconds, step)
    if not walls["plain"]:
        raise MeasurementFailed(f"no unit of {wl.name} completed")
    metrics = tracing.layer_metrics(tracer, wl.ref_units)
    for layer, key in (("benchmarks.generate_s", "generate"), ("model.io_s", "io"),
                       ("pseudotree.build_s", "build")):
        metrics[layer] = (statistics.median(t[key] for t in setup_times), "s/setup")
    heights = [p.tree.height for fam in runner.prepared for p in fam]
    metrics["pseudotree.height"] = (float(np.mean(heights)), "count")
    metrics["trace.overhead_frac"] = (walls["traced"] / walls["plain"] - 1.0, "frac")
    metrics["final_cost_mean"] = (tally.final_cost_mean(plain_runs), "cost")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "frac")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.npz")
    return tally, metrics, {"mismatched_units": (len(set(mismatches)), "count")}


# --- command line ----------------------------------------------------------------------

def report(wl: Workload, tally: Tally, metrics: dict, extra: dict) -> dict:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name:<17} {name:<36} {float(value)!r:>24} {unit}")
    for run in tally.runs:
        for problem in run.problems:
            print(f"FAILED unit {run.unit}: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        run = measure_traced if args.trace else measure
        result = report(wl, *run(wl, args.seed, args.seconds, work_dir))
    except MeasurementFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
