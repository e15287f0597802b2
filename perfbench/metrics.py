"""Names of the workloads, and names and units of the metrics, as
BENCHMARK.json lists them."""

WORKLOADS = ("structure", "feasibility", "capacity", "examples")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)

LAYERS = (
    "algebras",
    "correction",
    "channels",
    "numlin",
    "decoherence",
    "kernels",
    "capacity",
    "catalog",
    "serialize",
    "cli",
)


# (name, unit, better)
PER_LAYER = (
    [
        ("algebras.commutant.calls", "count", "lower"),
        ("algebras.commutant.self_s", "s", "lower"),
        ("algebras.commutant.rows_max", "rows", "lower"),
        ("algebras.commutant.u_bytes", "B_computed", "lower"),
        ("algebras.intersect.calls", "count", "lower"),
        ("algebras.intersect.self_s", "s", "lower"),
        ("algebras.intersect.u_bytes", "B_computed", "lower"),
        ("algebras.center.self_s", "s", "lower"),
        ("algebras.structure_decompose.calls", "count", "lower"),
        ("algebras.structure_decompose.self_s", "s", "lower"),
        ("algebras.structure_decompose.errors", "count", "lower"),
        ("algebras.span_of.calls", "count", "lower"),
        ("algebras.span_of.self_s", "s", "lower"),
    ]
    + [
        (f"correction.{f}.self_s", "s", "lower")
        for f in ("interaction_span", "preserved_algebra", "correction_channel", "kl_check", "oqec_check")
    ]
    + [
        ("channels.complement.self_s", "s", "lower"),
        ("channels.apply_dual.calls", "count", "lower"),
        ("channels.apply_dual.self_s", "s", "lower"),
        ("channels.povm_probabilities.calls", "count", "lower"),
        ("channels.povm_probabilities.self_s", "s", "lower"),
        ("numlin.op_norm.calls", "count", "lower"),
        ("numlin.op_norm.self_s", "s", "lower"),
    ]
    + [
        (f"decoherence.{f}.self_s", "s", "lower")
        for f in ("pointer_algebra", "broadcast_pointer", "full_decoherence_check", "effect_region_sample")
    ]
    + [
        ("decoherence.coarse_grain_solve.calls", "count", "lower"),
        ("decoherence.coarse_grain_solve.self_s", "s", "lower"),
        ("decoherence.coarse_grain_solve.infeasible", "count", "lower"),
        ("kernels.feasibility.calls", "count", "lower"),
        ("kernels.feasibility.self_s", "s", "lower"),
        ("kernels.feasibility.problems", "count", "lower"),
        ("kernels.feasibility.feasible_ratio", "ratio", "higher"),
        ("kernels.feasibility.ms_per_problem", "ms", "lower"),
        ("kernels.ba.calls", "count", "lower"),
        ("kernels.ba.self_s", "s", "lower"),
        ("kernels.ba.iterations", "count", "lower"),
        ("kernels.ba.iterations_p50", "count", "lower"),
        ("kernels.ba.capped", "count", "lower"),
        ("capacity.observable_capacity.calls", "count", "lower"),
        ("capacity.observable_capacity.self_s", "s", "lower"),
        ("capacity.shannon_capacity.calls", "count", "lower"),
        ("capacity.shannon_capacity.self_s", "s", "lower"),
        ("catalog.analyze_example.self_s", "s", "lower"),
        ("serialize.dumps_canonical.self_s", "s", "lower"),
        ("serialize.write_channel_file.self_s", "s", "lower"),
        ("serialize.parse_channel_file.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("uncovered.self_s", "s", "lower"),
        ("trace.overhead_rps", "1/s", "higher"),
    ]
)
