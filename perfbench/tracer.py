"""Run the ncfact CLI once, with span recorders around its layers.

    PERFBENCH_SPANS=spans.json PERFBENCH_SPAWN=<perf_counter at spawn> \\
        python3 perfbench/tracer.py verify H3 --format json

behaves like `python3 -m ncfact.cli verify H3 --format json`: same stdout,
stderr and exit code.  Before calling `ncfact.cli.main` it replaces every
function named in `layers.SPAN_TARGETS` with a recorder, in each module
that binds the name (modules import each other's functions by name, so
patching the defining module alone would miss most calls).  Spans stay in
memory and are written to PERFBENCH_SPANS as JSON when the run ends.
"""

import os
import sys
import time

import ncfact.cli

IMPORTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402

from layers import COUNT_TARGETS, SPAN_TARGETS  # noqa: E402

SPANS = [["process.import", float(os.environ["PERFBENCH_SPAWN"]), IMPORTED,
          -1, {}]]
COUNTS = {}
_STACK = []


def _leq_counters(rows, perms, ranks, *_):
    by_rank = {}
    for r in ranks:
        by_rank[r] = by_rank.get(r, 0) + 1
    tested = sum(a * b for ra, a in by_rank.items()
                 for rb, b in by_rank.items() if rb > ra)
    related = sum(row.bit_count() for row in rows) - len(rows)
    return {"ncp.leq_pairs_tested": tested, "ncp.leq_pairs_related": related}


def _nc_counters(nc, *_):
    return {"ncp.size": nc.size, "ncp.group_order": len(nc.group._lengths),
            "ncp.rank2": sum(1 for r in nc.ranks if r == 2)}


# counters read from a call's result and arguments, after its span closes
_COUNTERS = {
    "build_root_system": lambda rs, *_: {"rootdata.roots": len(rs.roots)},
    "Group.length_table": lambda table, *_: {
        "groups.length_table.elements": len(table)},
    "build_nc": _nc_counters,
    "leq_rows": _leq_counters,
    "enumerate_by_composition": lambda out, *_, **__: {
        "facto.tuples_enumerated": len(out)},
}

# record a span only when the call does the work, not when it hits a cache
_RECORD_IF = {
    "Group.length_table": lambda group: group._lengths is None,
}


def _span(layer, fn, counters, record_if):
    @functools.wraps(fn)
    def recorder(*args, **kwargs):
        if record_if is not None and not record_if(*args, **kwargs):
            return fn(*args, **kwargs)
        index = len(SPANS)
        span = [layer, time.perf_counter(), None,
                _STACK[-1] if _STACK else -1, {}]
        SPANS.append(span)
        _STACK.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _STACK.pop()
            span[2] = time.perf_counter()
        if counters is not None:
            span[4] = counters(result, *args, **kwargs)
        return result
    return recorder


def _counter(name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        COUNTS[name] = COUNTS.get(name, 0) + 1
        return fn(*args, **kwargs)
    return counted


def _replace(module_name, attr, make):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "ncfact" or name.startswith("ncfact."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install():
    for module_name, attr, layer in SPAN_TARGETS:
        _replace(module_name, attr, lambda fn, layer=layer, attr=attr: _span(
            layer, fn, _COUNTERS.get(attr), _RECORD_IF.get(attr)))
    for module_name, attr, name in COUNT_TARGETS:
        _replace(module_name, attr, lambda fn, name=name: _counter(name, fn))


def main():
    install()
    try:
        code = ncfact.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
