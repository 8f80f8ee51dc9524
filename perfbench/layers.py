"""Layers of ncfact as the traced run sees them, and how spans become metrics.

`SPAN_TARGETS` names each function the tracer wraps and the layer its span
belongs to.  `COUNT_TARGETS` are wrapped for a call count only.  A span is
`[layer, start, end, parent_index, counters]`, with perf_counter times (one
monotonic clock for every process on the host).

A layer's time (`<layer>.s`) is the self time of its spans: each span's
duration minus the durations of its direct child spans.  Two metrics are
inclusive instead: `verify.run_verify.s`, the denominator of every layer
share, and `process.import.s`, from spawning the CLI process to the end of
`import ncfact.cli`.  `cli.cache.s` is the self time of `cli.main`: argument
parsing and the result cache's load, lookup and store, once the `cmd_*` and
`render` spans are taken out.  Every metric is a sum over the runs of a pass.
Layers a workload never enters read 0 there, e.g. rootdata on `cli`.

`LAYER_MAP` records, for every per-layer metric, the end-to-end metric it
should move and the workloads it should move it on, so later changes can
cite a prediction by name.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

# (module, attribute or Class.method, layer)
SPAN_TARGETS = (
    ("ncfact.rootdata", "build_root_system", "rootdata.build_root_system"),
    ("ncfact.groups", "_carrier_a", "groups.carrier"),
    ("ncfact.groups", "_carrier_monomial", "groups.carrier"),
    ("ncfact.groups", "_carrier_root", "groups.carrier"),
    ("ncfact.groups", "Group.length_table", "groups.length_table"),
    ("ncfact.groups", "Group.conjugacy_class_id", "groups.conjugacy_class_id"),
    ("ncfact.groups", "Group.parabolic_degrees", "groups.parabolic_degrees"),
    ("ncfact.ncp", "build_nc", "ncp.build_nc"),
    ("ncfact.kernels", "leq_rows", "kernels.leq_rows"),
    ("ncfact.ncp", "count_multichains", "ncp.count_multichains"),
    ("ncfact.facto", "count_reduced", "facto.dp"),
    ("ncfact.facto", "count_fact_k", "facto.dp"),
    ("ncfact.facto", "count_fact_by_composition", "facto.dp"),
    ("ncfact.facto", "submaximal_by_class", "facto.submaximal_by_class"),
    ("ncfact.facto", "r_lambda", "facto.r_lambda"),
    ("ncfact.facto", "enumerate_reduced", "facto.enumerate"),
    ("ncfact.facto", "enumerate_by_composition", "facto.enumerate"),
    ("ncfact.facto", "concatenation_fibers", "facto.enumerate"),
    ("ncfact.facto", "hurwitz_orbit", "facto.hurwitz_orbit"),
    ("ncfact.ncp", "fuss_catalan", "closedform"),
    ("ncfact.closedform", "ll_number", "closedform"),
    ("ncfact.closedform", "submax_total", "closedform"),
    ("ncfact.closedform", "deg_discriminant", "closedform"),
    ("ncfact.closedform", "deg_jacobian", "closedform"),
    ("ncfact.closedform", "sum_derived_degrees", "closedform"),
    ("ncfact.closedform", "prefactor_of", "closedform"),
    ("ncfact.closedform", "expected_ll_data", "closedform"),
    ("ncfact.closedform", "table_records", "closedform"),
    ("ncfact.verify", "run_verify", "verify.run_verify"),
    ("ncfact.cli", "main", "cli.main"),
    ("ncfact.cli", "cmd_info", "cli.cmd"),
    ("ncfact.cli", "cmd_count", "cli.cmd"),
    ("ncfact.cli", "cmd_verify", "cli.cmd"),
    ("ncfact.cli", "cmd_table", "cli.cmd"),
    ("ncfact.cli", "render", "cli.render"),
)

COUNT_TARGETS = (
    ("ncfact.kernels", "conj_orbit", "kernels.conj_orbit.calls"),
)

# Where in the workloads a layer should show; the verify groups are listed
# by kind in workloads.VERIFY_GROUPS.
REAL = "verify: H3 F4 H4 E6 A7 D6"
COMPLEX = "verify: G(3,1,5) G(4,4,5) G(4,1,4) G(5,5,4)"
WIDE = "verify: I2(150)"

# per-layer metric -> (unit, better, end-to-end metric it should move,
# workloads it should move it on)
LAYER_MAP = {
    "rootdata.build_root_system.s": ("s", "lower", "wall_s", REAL),
    "rootdata.roots": ("count", "lower", "wall_s", REAL),
    "groups.carrier.s": ("s", "lower", "wall_s", REAL),
    "groups.length_table.s": ("s", "lower", "wall_s", "verify"),
    "groups.length_table.elements": ("count", "lower", "peak_rss_mb",
                                     "verify"),
    "ncp.build_nc.s": ("s", "lower", "wall_s", REAL),
    "ncp.size": ("count", "lower", "wall_s", REAL),
    "ncp.membership_yield": ("ratio", "higher", "wall_s", REAL),
    "kernels.leq_rows.s": ("s", "lower", "wall_s", REAL),
    "ncp.leq_pairs_tested": ("count", "lower", "wall_s", REAL),
    "ncp.leq_yield": ("ratio", "higher", "wall_s", REAL),
    "groups.conjugacy_class_id.s": ("s", "lower", "wall_s", REAL),
    "groups.conjugacy_class_id.calls": ("count", "lower", "wall_s", REAL),
    "kernels.conj_orbit.calls": ("count", "lower", "wall_s", REAL),
    "ncp.class_id_yield": ("ratio", "higher", "wall_s", REAL),
    "ncp.count_multichains.s": ("s", "lower", "wall_s", REAL),
    "facto.dp.s": ("s", "lower", "wall_s", REAL),
    "facto.submaximal_by_class.s": ("s", "lower", "wall_s", WIDE),
    "facto.r_lambda.s": ("s", "lower", "wall_s", WIDE),
    "groups.parabolic_degrees.s": ("s", "lower", "wall_s", WIDE),
    "facto.enumerate.s": ("s", "lower", "wall_s", COMPLEX),
    "facto.hurwitz_orbit.s": ("s", "lower", "wall_s", COMPLEX),
    "facto.tuples_enumerated": ("count", "lower", "wall_s", COMPLEX),
    "closedform.s": ("s", "lower", "wall_s", "cli"),
    "cli.render.s": ("s", "lower", "wall_s", "cli"),
    "cli.cache.s": ("s", "lower", "wall_s", "cli"),
    "cli.cache_hit_ratio": ("ratio", "higher", "wall_s", "cli"),
    "verify.run_verify.s": ("s", "lower", "wall_s", "verify"),
    "process.import.s": ("s", "lower", "setup_s", "cli verify"),
    "trace.overhead_s": ("s", "lower", "wall_s", "verify cli"),
}


def run_totals(spans: Sequence[list], counts: Dict[str, int],
               cached: bool) -> Dict[str, float]:
    """Self time, total time and call count per layer, plus the counters,
    of one traced CLI run."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = dict(counts)

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for k, (layer, start, end, _, counters) in enumerate(spans):
        add(layer + ".self", end - start - child_time[k])
        add(layer + ".total", end - start)
        add(layer + ".calls", 1)
        for name, value in counters.items():
            add(name, value)
    out["runs.cached"] = float(cached)
    out["runs.cache_hit"] = float(cached and "cli.cmd.calls" not in out)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(totals: List[Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric except trace.overhead_s, for one traced pass,
    from its runs' totals."""
    s: Dict[str, float] = {}
    for run in totals:
        for key, value in run.items():
            s[key] = s.get(key, 0.0) + value

    def g(key: str) -> float:
        return s.get(key, 0.0)

    derived = {
        "ncp.membership_yield": _ratio(g("ncp.size"), g("ncp.group_order")),
        "ncp.leq_yield": _ratio(g("ncp.leq_pairs_related"),
                                g("ncp.leq_pairs_tested")),
        "ncp.class_id_yield": _ratio(g("ncp.rank2"),
                                     g("groups.conjugacy_class_id.calls")),
        "cli.cache.s": g("cli.main.self"),
        "cli.cache_hit_ratio": _ratio(g("runs.cache_hit"), g("runs.cached")),
        "verify.run_verify.s": g("verify.run_verify.total"),
        "process.import.s": g("process.import.total"),
    }
    metrics = {}
    for metric, (unit, _, _, _) in LAYER_MAP.items():
        if metric in derived:
            metrics[metric] = derived[metric]
        elif metric.endswith(".s"):
            metrics[metric] = g(metric[:-2] + ".self")
        elif unit == "count":
            metrics[metric] = g(metric)
    return metrics
