"""Trace digests of a fixed matrix of ``solve`` runs, and the script that rewrites them.

    PYTHONPATH=src python tests/golden/regen.py

Each run records probes, and is reduced to SHA-256 digests of its trace
rows (without timings), its probes, its trace CSV and the CSV of the
message log that every ``solve`` trace carries. A tiny ``run_experiment`` ensemble is reduced to the
digest of every file it writes: each trace CSV and ``summary.json``.
``tests/test_trace_digests.py`` recomputes them and compares them with
``trace_digests.json``, so a change to any bit of a trace or a summary
shows up across commits, which the in-commit equivalence test cannot see
when both of its sides change together. The file also records the Python
and numpy versions it was made with. The script compares first, and
rewrites the file only when a digest or a version differs, so running it
to confirm that nothing moved leaves the file as it is. A change that
rewrites it says why and lists the digests that changed, which the script
prints.
"""

import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent.parent
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

from cdcop import build_bfs  # noqa: E402
from cdcop.benchmarks import BenchSpec, generate  # noqa: E402
from cdcop.experiment import ExperimentConfig, run_experiment, write_trace_csv  # noqa: E402
from cdcop.runtime import Traffic, write_message_log_csv  # noqa: E402
from cdcop.swarm import SwarmConfig, solve  # noqa: E402

from conftest import make_instance  # noqa: E402
from test_engine_equivalence import SCHEDULES, SPECIAL  # noqa: E402

GOLDEN = Path(__file__).with_name("trace_digests.json")

SMALL = {
    "er": BenchSpec("er", n=6, p=0.4, seed=21),
    "tree": BenchSpec("tree", n=6, seed=22),
    "ba": BenchSpec("ba", n=6, m=2, seed=23),
    "sensor": BenchSpec("sensor", rows=2, cols=3, seed=24),  # maximize
}
VARIANTS = {"pcd": False, "pcd_crossover": True}
# +inf and -inf terms meet at agent 1: its local fitness holds inf and NaN
NON_FINITE = make_instance(3, [((0, 1), "(* inf (* x0 x1))"), ((1, 2), "(* -inf (* x0 x1))")],
                           domain=(-1.0, 1.0))
# zero cost on a clamped upper bound: with two particles some crossover rows
# put all their weight on one particle, so ``b`` is uniform over the others
FLAT = make_instance(3, [((0, 1), "(* (- x0 1.0) (- x1 1.0))"),
                         ((1, 2), "(* (- x0 1.0) (- x1 1.0))")], domain=(0.0, 1.0))


def runs():
    """``(name, instance, config)`` for every run in the matrix."""
    for family, spec in SMALL.items():
        inst = generate(spec)
        for schedule, (inertia, c) in SCHEDULES.items():
            for variant, crossover in VARIANTS.items():
                for seed in (1, 2):
                    yield (f"{family}/{schedule}/{variant}/seed{seed}", inst,
                           SwarmConfig(num_particles=50, t_max=200, c1=c, c2=c, inertia=inertia,
                                       crossover=crossover, seed=seed))
    yield ("er50/pcd", generate(BenchSpec("er", n=50, p=0.2, seed=25)),
           SwarmConfig(num_particles=200, t_max=500, seed=1))
    yield ("sensor8x8/pcd_crossover", generate(BenchSpec("sensor", rows=8, cols=8, seed=26)),
           SwarmConfig(num_particles=200, t_max=500, crossover=True, seed=1))
    for name, inst in {**SPECIAL, "non_finite": NON_FINITE}.items():
        for variant, crossover in VARIANTS.items():
            yield (f"special/{name}/{variant}", inst,
                   SwarmConfig(num_particles=10, t_max=40, crossover=crossover, seed=3))
    for seed in (1, 4):
        yield (f"special/flat/pcd_crossover/seed{seed}", FLAT,
               SwarmConfig(num_particles=2, t_max=40, crossover=True, seed=seed))


# 2 instances x 2 repeats x both variants at the criterion-2 family shape
EXPERIMENT = ExperimentConfig(swarm=SwarmConfig(num_particles=8, t_max=15),
                              bench=BenchSpec("er", n=6, p=0.4), num_instances=2, repeats=2,
                              master_seed=27)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def digest_run(inst, cfg, work_dir: Path) -> dict[str, str]:
    with np.errstate(all="ignore"):
        trace = solve(inst, cfg, record_probes=True)
    traffic = Traffic(build_bfs(inst), cfg.num_particles)
    rows = []
    for row in trace.rows:
        st = row.stats
        rows.append((row.cycle, row.best_cost.hex(), row.best_internal.hex(),
                     [float(x).hex() for x in row.assignment], st.cycle, st.value_count,
                     st.cost_count, st.best_count, st.payload_scalars,
                     sorted(traffic.sent_scalars(st.best_len).items())))
    rows.append((trace.best_cost.hex(), trace.best_internal.hex(),
                 [float(x).hex() for x in trace.best_assignment]))
    trace_csv, log_csv = work_dir / "trace.csv", work_dir / "messages.csv"
    write_trace_csv(trace_csv, trace)
    write_message_log_csv(trace.messages, log_csv)
    return {
        "rows": _sha256(repr(rows).encode()),
        "probes": _sha256(*(a.tobytes() for x, fit in trace.probes for a in (x, fit))),
        "trace_csv": _sha256(trace_csv.read_bytes()),
        "messages_csv": _sha256(log_csv.read_bytes()),
    }


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: digest_run(inst, cfg, Path(tmp)) for name, inst, cfg in runs()}


def compute_experiment() -> dict[str, str]:
    """The digest of every file ``EXPERIMENT`` writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(replace(EXPERIMENT, out_dir=tmp))
        return {path.name: _sha256(path.read_bytes()) for path in sorted(Path(tmp).iterdir())}


def _differing(old: dict, new: dict) -> list[str]:
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def changes(old: dict, new: dict) -> list[str]:
    """What differs between two digest files: ``run: kinds`` for each run
    (a run in one file only lists every kind), then ``experiment: files``,
    then ``key: old -> new`` for each version."""
    runs = old["runs"], new["runs"]
    lines = [f"{name}: {' '.join(_differing(*(r.get(name, {}) for r in runs)))}"
             for name in _differing(*runs)]
    files = _differing(old["experiment"], new["experiment"])
    lines += [f"experiment: {' '.join(files)}"] if files else []
    return lines + [f"{key}: {old.get(key)} -> {new[key]}" for key in ("python", "numpy")
                    if old.get(key) != new[key]]


def main() -> None:
    doc = {**versions(), "runs": compute(), "experiment": compute_experiment()}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"runs": {}, "experiment": {}}
    changed = changes(old, doc)
    print(f"{len(changed)} changed against {GOLDEN}" + "".join(
        f"\n  {line}" for line in changed))
    if changed:
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(doc['runs'])} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
