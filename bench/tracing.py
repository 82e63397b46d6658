"""Timing proxies and span analysis for the benchmark's traced run.

Nothing under ``src/`` is touched: the traced solve drives the same public
pieces that ``cdcop.swarm.solve`` uses (``SwarmAgent`` and
``SyncRuntime.run_cycle``) and puts a proxy around each handler, each compiled
term in ``agent.terms`` and the crossover step. On the experiment path it also
rebinds the names ``run_experiment`` calls. Every proxied call records a span
(name, start, end, parent, run id) in flat arrays, written out when the run
ends; layer times are computed from the spans afterwards.
"""

import os
import time
from array import array

import numpy as np

import cdcop.swarm as swarm_module
from cdcop import experiment
from cdcop.runtime import SyncRuntime
from cdcop.swarm import RunTrace, SwarmAgent, TraceRow, validate_config

HANDLERS = ("value_payload", "handle_values", "handle_costs", "cost_payload",
            "best_payload", "handle_best", "end_cycle")


class Tracer:
    """Spans in flat arrays: name code, start, end, parent span (-1 for none), run id."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._open: list[int] = []
        self.run_id = -1
        self.run_units: list[int] = []  # unit of work each run id belongs to
        self.unit = 0
        # exact counts per run id
        self.counts = {key: array("q") for key in (
            "pbest_improved", "gbest_success", "particle_cycles", "messages",
            "payload_scalars", "trace_bytes")}

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def new_run(self) -> None:
        self.run_id += 1
        self.run_units.append(self.unit)
        for values in self.counts.values():
            values.append(0)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        code = self.code(name)
        names, starts, ends, parents, runs, open_ = (
            self.name, self.start, self.end, self.parent, self.run, self._open)
        clock = time.perf_counter

        def proxy(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(open_[-1] if open_ else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return proxy

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int32), "start": np.array(self.start),
                "end": np.array(self.end), "parent": np.array(self.parent, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), run_units=np.array(self.run_units, dtype=np.int32),
                 **self.arrays())


class TracedAgent:
    """Stands in for one SwarmAgent in ``SyncRuntime.run_cycle``; times each handler."""

    def __init__(self, agent: SwarmAgent, tracer: Tracer, best_payload=None):
        for handler in HANDLERS:
            fn = getattr(agent, handler)
            if handler == "best_payload" and best_payload is not None:
                fn = best_payload
            setattr(self, handler, tracer.wrap(f"swarm.{handler}", fn))


def traced_solver(tracer: Tracer):
    """A drop-in for ``solve(inst, cfg, tree=...)`` that records spans as it runs."""

    def build_agents(inst, tree, cfg):
        plain = swarm_module.compile_expr
        swarm_module.compile_expr = tracer.wrap("expressions.compile", plain)
        try:
            return [SwarmAgent(i, inst, tree, cfg) for i in range(inst.num_agents)]
        finally:
            swarm_module.compile_expr = plain

    build_agents = tracer.wrap("swarm.agent_init", build_agents)

    def run(inst, cfg, tree):
        validate_config(cfg)
        agents = build_agents(inst, tree, cfg)
        for agent in agents:
            agent.terms = [(tracer.wrap("expressions.eval", fn),) + tuple(rest)
                           for fn, *rest in agent.terms]
            if cfg.crossover:
                agent._apply_crossover = tracer.wrap("swarm.crossover", agent._apply_crossover)
        root = agents[tree.root]
        run_id = tracer.run_id
        pbest, gbest = tracer.counts["pbest_improved"], tracer.counts["gbest_success"]

        def counted_best_payload():
            payload = root.best_payload()
            pbest[run_id] += len(payload.improved)
            gbest[run_id] += payload.best_index is not None
            return payload

        proxies = [TracedAgent(a, tracer, counted_best_payload if a is root else None)
                   for a in agents]
        run_cycle = tracer.wrap("runtime.run_cycle", SyncRuntime(tree).run_cycle)
        rows = []
        for t in range(1, cfg.t_max + 1):
            stats = run_cycle(proxies, t)
            internal = root.g_best_fit
            rows.append(TraceRow(t, inst.to_display(internal), internal,
                                 tuple(a.g_best_x for a in agents), stats))
        counts = tracer.counts
        counts["particle_cycles"][run_id] += cfg.num_particles * cfg.t_max
        counts["messages"][run_id] += sum(row.stats.total_messages for row in rows)
        counts["payload_scalars"][run_id] += sum(row.stats.payload_scalars for row in rows)
        return RunTrace(
            objective=inst.objective,
            num_agents=inst.num_agents,
            num_edges=inst.num_edges,
            tree_height=tree.height,
            rows=rows,
            best_assignment=np.array([a.g_best_x for a in agents]),
            best_cost=inst.to_display(root.g_best_fit),
            best_internal=root.g_best_fit,
            messages=None,
        )

    run = tracer.wrap("swarm.solve", run)

    def traced_solve(inst, cfg, tree):
        tracer.new_run()
        return run(inst, cfg, tree)

    return traced_solve


def experiment_hooks(tracer: Tracer) -> dict:
    """Replacements for the names ``run_experiment`` calls after each solve."""
    write = tracer.wrap("experiment.write_trace_csv", experiment.write_trace_csv)
    trace_bytes = tracer.counts["trace_bytes"]

    def write_trace_csv(path, trace):
        write(path, trace)
        trace_bytes[tracer.run_id] += os.path.getsize(path)

    return {
        "write_trace_csv": write_trace_csv,
        "check_anytime": tracer.wrap("experiment.check_anytime", experiment.check_anytime),
        "message_stats": tracer.wrap("experiment.message_stats", experiment.message_stats),
    }


def layer_metrics(tracer: Tracer, ref_units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans.

    Times are means over every traced cycle or run. Counts and ratios are
    exact and taken over the runs of the first ``ref_units`` units only.
    """
    a = tracer.arrays()
    name, start, end, parent = a["name"], a["start"], a["end"], a["parent"]
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    def mask(*names):
        codes = [tracer.code(n) for n in names]
        return np.isin(name, codes)

    def total(*names, own=False):
        return float((self_time if own else dur)[mask(*names)].sum())

    cycles = np.flatnonzero(mask("runtime.run_cycle"))
    num_cycles = len(cycles)
    num_runs = tracer.run_id + 1

    # phase walls: each phase ends when its last handler span in the cycle ends
    slot = np.full(len(name), -1)
    slot[cycles] = np.arange(num_cycles)
    under_cycle = has_parent & (slot[np.where(has_parent, parent, 0)] >= 0)

    def phase_end(*names):
        out = start[cycles].copy()
        rows = np.flatnonzero(under_cycle & mask(*names))
        np.maximum.at(out, slot[parent[rows]], end[rows])
        return out

    value_end = phase_end("swarm.value_payload", "swarm.handle_values")
    cost_end = np.maximum(value_end, phase_end("swarm.handle_costs", "swarm.cost_payload"))
    best_end = np.maximum(cost_end, phase_end("swarm.best_payload", "swarm.handle_best"))

    ref_runs = np.array([u < ref_units for u in tracer.run_units], dtype=bool)
    ref_span = ref_runs[a["run"]]
    ref_cycles = int((ref_span & mask("runtime.run_cycle")).sum())

    def ref_sum(key) -> float:
        return float(np.frombuffer(tracer.counts[key], dtype=np.int64)[ref_runs].sum())

    def per_cycle(seconds):
        return seconds / num_cycles, "s/cycle"

    def per_run(seconds):
        return seconds / num_runs, "s/run"

    return {
        "expressions.eval_calls_per_cycle": (
            float((ref_span & mask("expressions.eval")).sum()) / ref_cycles, "count/cycle"),
        "expressions.eval_s": per_cycle(total("expressions.eval")),
        "expressions.compile_calls": (
            float((ref_span & mask("expressions.compile")).sum()) / ref_runs.sum(), "count/run"),
        "swarm.agent_init_s": per_run(total("swarm.agent_init")),
        "swarm.evaluate_s": per_cycle(total("swarm.value_payload")
                                      + total("swarm.handle_values", own=True)),
        "swarm.aggregate_s": per_cycle(total("swarm.handle_costs", "swarm.cost_payload")),
        "swarm.best_s": per_cycle(total("swarm.best_payload", "swarm.handle_best")),
        "swarm.crossover_s": per_cycle(total("swarm.crossover")),
        "swarm.update_s": per_cycle(total("swarm.end_cycle", own=True)),
        "swarm.pbest_improved_frac": (
            ref_sum("pbest_improved") / ref_sum("particle_cycles"), "frac"),
        "swarm.gbest_success_frac": (ref_sum("gbest_success") / ref_cycles, "frac"),
        "runtime.value_phase_s": per_cycle(float((value_end - start[cycles]).sum())),
        "runtime.cost_phase_s": per_cycle(float((cost_end - value_end).sum())),
        "runtime.best_phase_s": per_cycle(float((best_end - cost_end).sum())),
        "runtime.update_phase_s": per_cycle(float((end[cycles] - best_end).sum())),
        "runtime.self_s": per_cycle(float(self_time[cycles].sum())),
        "runtime.messages_per_cycle": (ref_sum("messages") / ref_cycles, "count/cycle"),
        "runtime.payload_scalars_per_cycle": (
            ref_sum("payload_scalars") / ref_cycles, "count/cycle"),
        "experiment.trace_write_s": per_run(total("experiment.write_trace_csv")),
        "experiment.check_s": per_run(total("experiment.check_anytime", "experiment.message_stats")),
        "experiment.trace_bytes": (ref_sum("trace_bytes") / ref_runs.sum(), "bytes/run"),
    }
