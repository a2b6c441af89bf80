"""The traced functions of each layer, their size buckets, and the per-layer
metric names derived from them."""

from __future__ import annotations

SPREAD_BUCKETS = ((4, "spread_0-4"), (8, "spread_5-8"), (16, "spread_9-16"), (None, "spread_17-up"))
SIZE_BUCKETS = ((8, "size_1-8"), (32, "size_9-32"), (96, "size_33-96"), (None, "size_97-up"))


def _label(value: int, buckets) -> str:
    for limit, label in buckets:
        if limit is None or value <= limit:
            return label
    raise AssertionError("the last bucket is unbounded")


def exponent_spread(g) -> int:
    """Highest minus lowest power of t over the entries of a loop matrix."""
    terms = [p for row in g.entries for p in row if not p.is_zero()]
    return max(p.degree() for p in terms) - min(p.valuation() for p in terms)


def spread_bucket(g, *_, **__) -> str:
    return _label(exponent_spread(g), SPREAD_BUCKETS)


def slice_bucket(spec, elements, *_, **__) -> str:
    return _label(len(elements), SIZE_BUCKETS)


# (module, function, bucket) for every traced function of the package
TARGETS = (
    ("loopmatrix", "determinant", None),
    ("loopmatrix", "mat_inverse", None),
    ("loopmatrix", "mat_mul", None),
    ("loopmatrix", "stratum_invariant", None),
    ("loopmatrix", "k_orbit_invariant", None),
    ("loopmatrix", "splitting_type", spread_bucket),
    ("loopmatrix", "r_orbit_invariant", None),
    ("orbitposet", "component_count", slice_bucket),
    ("orbitposet", "primitive_relations", slice_bucket),
    ("orbitposet", "enumerate_orbits", None),
    ("orbitposet", "k_leq", None),
    ("orbitposet", "r_leq", None),
    ("orbitposet", "real_step_leq", None),
    ("orbitposet", "build_poset_slice", None),
    ("orbitposet", "matsuki_dual", None),
    ("orbitposet", "core_data", None),
    ("rootdata", "dominance_leq", None),
    ("fundgroup", "in_image_semigroup", None),
    ("fundgroup", "pi1_model", None),
    ("realform", "catalog", None),
    ("realform", "validate_involution", None),
    ("textio", "parse_matrix", None),
    ("textio", "parse_involution", None),
    ("textio", "format_involution", None),
)
# only the command-line child processes call this one
CLI_TARGETS = TARGETS + (("cli", "main", None),)

TRACE_METRICS = (
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("cli.import_s", "s"),
)


def _layer_metrics():
    """(name, unit, tracer key, field) for every metric read from a tracer."""
    for module, function, bucket in CLI_TARGETS:
        key = f"{module}.{function}"
        yield f"{key}.calls", "count", key, "calls"
        yield f"{key}.self_s", "s", key, "self_s"
        if bucket is not None:
            for _, label in SPREAD_BUCKETS if bucket is spread_bucket else SIZE_BUCKETS:
                yield f"{key}.calls.{label}", "count", f"{key}|{label}", "calls"
                yield f"{key}.self_s.{label}", "s", f"{key}|{label}", "self_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, unit, _, _ in _layer_metrics()}
    units.update(TRACE_METRICS)
    return units


def metric_values(tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from a tracer's totals plus the ``TRACE_METRICS`` in ``extra``."""
    values = {
        name: tracer.calls(key) if field == "calls" else tracer.self_s(key)
        for name, _, key, field in _layer_metrics()
    }
    values.update((name, extra[name]) for name, _ in TRACE_METRICS)
    return values
