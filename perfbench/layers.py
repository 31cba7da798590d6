"""What the traced run wraps in the program, and the per-layer metrics.

Each layer is one module of the `orbital` package. A traced function is
wrapped where its callers look it up (see tracer.install); metric names are
`<module>.<function>.<stat>`. The `cli` module's own work is argument
parsing and printing; `cli._descriptor_json` builds the JSON payload it
prints per descriptor.

The program has no queue or lock, so no layer ever waits: there is no
waiting-time metric.
"""

from __future__ import annotations

from .tracer import Tracer, install, self_times, span_stats

PACKAGE = "orbital"
LAYERS = (
    "tableaux",
    "rs",
    "projections",
    "hypersurface",
    "polyalg",
    "generator",
    "verify",
    "cli",
)
# the span around each descriptor's call; its self time is benchmark glue
ROOT_SPAN = "bench.descriptor"


def _violations(tracer: Tracer, result, fresh: bool) -> None:
    tracer.tallies["verify.check_power_rank.violations"] += len(result)


def _f_terms(tracer: Tracer, result, fresh: bool) -> None:
    if fresh:
        tracer.tallies["generator.f_terms"] += len(result.f.terms)


def _eager(fn):
    """iter_descriptors is a generator: time its whole enumeration."""

    def eager(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return eager


# (span name, module, attribute, stats, options); "calls" and "self_s" are
# always reported, the listed stats in addition
SPANS = (
    ("verify.verify_conjecture", "orbital.verify", "verify_conjecture", (), {}),
    ("verify.check_power_rank", "orbital.verify", "check_power_rank",
     ("violations",), {"tally": _violations}),
    ("verify.jordan_type", "orbital.verify", "jordan_type", (), {}),
    ("verify.sample_variety_point", "orbital.verify", "sample_variety_point", (), {}),
    ("verify.sample_hypersurface_point", "orbital.verify", "sample_hypersurface_point",
     ("degenerate",), {}),
    ("verify.remark_check", "orbital.verify", "remark_check", (), {}),
    ("projections.projected_shape", "orbital.projections", "projected_shape",
     ("hit_ratio",), {"distinct": True}),
    # only direct calls: the calls from projected_shape are its self time
    ("projections.project", "orbital.projections", "project",
     ("hit_ratio",), {"distinct": True, "callers": ("orbital.verify", "orbital.cli")}),
    ("rs.find_word_for_tableau", "orbital.rs", "find_word_for_tableau",
     ("hit_ratio", "bound_exceeded"), {"distinct": True}),
    ("polyalg.determinant", "orbital.polyalg", "determinant", (), {}),
    ("polyalg.t_coefficient", "orbital.polyalg", "t_coefficient", (), {}),
    ("polyalg.poly_eval", "orbital.polyalg", "poly_eval", (), {}),
    ("polyalg.PolyMatrix.power", "orbital.polyalg", "PolyMatrix.power", (), {}),
    ("generator.generator_report", "orbital.generator", "generator_report",
     ("hit_ratio",), {"distinct": True, "tally": _f_terms}),
    ("generator.to_json", "orbital.generator", "GeneratorReport.to_json", (), {}),
    ("generator.char_poly", "orbital.generator", "char_poly", (), {}),
    ("hypersurface.classify_hypersurface", "orbital.hypersurface",
     "classify_hypersurface", (), {}),
    ("hypersurface.iter_descriptors", "orbital.hypersurface", "iter_descriptors",
     (), {"eager": True}),
    ("cli._descriptor_json", "orbital.cli", "_descriptor_json", (), {}),
)
# called about 10^5 times per run: a count, no span
COUNTS = (
    ("tableaux.validate_syt", "orbital.tableaux", "validate_syt"),
    ("tableaux.tau_invariant", "orbital.tableaux", "tau_invariant"),
)
TALLIES = ("generator.f_terms",)
# stats that count calls ending in an exception of the program
RAISED = {"degenerate": "DegenerateSample", "bound_exceeded": "BoundExceeded"}
TRACE_STATS = ("traced_s", "untraced_s", "overhead_s", "spans", "layer_share")


def instrument(tracer: Tracer) -> list:
    """Wrap every traced function; returns the functions that undo it."""
    undo = []
    for name, module, attr, _stats, opts in SPANS:
        def wrapper_for(fn, name=name, opts=opts):
            if opts.get("eager"):
                fn = _eager(fn)
            return tracer.wrap(
                name, fn, distinct=opts.get("distinct", False), tally=opts.get("tally")
            )

        undo.append(install(PACKAGE, module, attr, wrapper_for, opts.get("callers")))
    for name, module, attr in COUNTS:
        undo.append(
            install(PACKAGE, module, attr, lambda fn, name=name: tracer.count(name, fn))
        )
    return undo


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name, _module, _attr, stats, _opts in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for stat in stats:
            units[f"{name}.{stat}"] = "ratio" if stat == "hit_ratio" else "count"
    for name, _module, _attr in COUNTS:
        units[f"{name}.calls"] = "count"
    for name in TALLIES:
        units[name] = "count"
    for layer in LAYERS:
        if layer != "tableaux":  # counted only, so it has no self time of its own
            units[f"{layer}.self_s"] = "s"
    units["bench.self_s"] = "s"
    for stat in TRACE_STATS:
        units[f"trace.{stat}"] = (
            "count" if stat == "spans" else "ratio" if stat == "layer_share" else "s"
        )
    return units


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the trace.*_s timings,
    which run.py fills in."""
    spans = tracer.spans
    stats = span_stats(spans)
    out: dict[str, float] = {}
    for name, _module, _attr, extra, _opts in SPANS:
        st = stats.get(name)
        calls = st.calls if st else 0
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = st.self_s if st else 0.0
        for stat in extra:
            if stat == "hit_ratio":
                distinct = len(tracer.distinct[name])
                out[f"{name}.hit_ratio"] = 1 - distinct / calls if calls else 0.0
            elif stat in RAISED:
                out[f"{name}.{stat}"] = st.errors[RAISED[stat]] if st else 0
            else:
                out[f"{name}.{stat}"] = tracer.tallies[f"{name}.{stat}"]
    for name, _module, _attr in COUNTS:
        out[f"{name}.calls"] = tracer.counts[name]
    for name in TALLIES:
        out[name] = tracer.tallies[name]
    # module totals cover the timed phase only, so with bench.self_s they
    # add up to the pass's summed call time (in wall time, not scaled)
    module_self = {layer: 0.0 for layer in LAYERS if layer != "tableaux"}
    module_self["bench"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        if s.descriptor >= 0:
            module_self[s.name.split(".")[0]] += own
    for layer, s in module_self.items():
        out[f"{layer}.self_s"] = s
    root = stats.get(ROOT_SPAN)
    out["trace.spans"] = len(spans)
    out["trace.layer_share"] = 1 - root.self_s / root.total_s if root else 0.0
    return out
