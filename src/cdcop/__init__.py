"""Continuous DCOP toolkit.

A library for modeling continuous distributed constraint optimization
problems and solving them with a decentralized particle swarm (the PCD
algorithm and its crossover variant), plus benchmark generators, a
centralized verification oracle, and an experiment harness.
"""

from .expressions import (
    DivisionByZero,
    Expression,
    compile_expr,
    eval_expr,
    format_expr,
    parse_expr,
)
from .model import (
    CdcopInstance,
    CostFunction,
    Domain,
    InvalidInstanceError,
    constraint_cost,
    global_cost,
    incident_functions,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate_instance,
)
from .pseudotree import (
    DisconnectedGraphError,
    PseudoTree,
    build_bfs,
    tree_edge_dump,
    validate_pseudo_tree,
)
from .runtime import (
    BestPayload,
    CycleStats,
    DeadlockDetected,
    Message,
    SyncRuntime,
    message_stats,
)
from .swarm import (
    AdaptiveInertia,
    ConfigError,
    ConstrictionInertia,
    FixedInertia,
    GcpsoControl,
    MissingMessage,
    RunTrace,
    SwarmAgent,
    SwarmConfig,
    TraceRow,
    inertia_weight,
    solve,
    update_control,
    validate_config,
)
from .benchmarks import (
    BenchSpec,
    GenerationFailed,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_random_tree,
    gen_sensor_grid,
    generate,
)
from .oracle import (
    GridSearchSpec,
    GridTooLargeError,
    check_anytime,
    grid_optimum,
)
from .experiment import (
    ExperimentConfig,
    emit_anytime_table,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)

__version__ = "0.1.0"
