"""Per-layer spans recorded from outside qhs.

The benchmark wraps the public functions and methods of each qhs module and
records one span per call: name, start, end, parent span and request id.
Modules import each other's functions by name (weingarten and relations
call ``invert`` and ``fix_basis`` through their own bindings), so a wrapper
replaces the function at every binding site in every loaded qhs module, not
only where it is defined.  Nothing under src/ changes.

Self time is a span's duration minus the time of its direct child spans.
Aggregates are kept for every span; every raw span is kept in memory and
written out when the traced process ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

GRAM = "weingarten.gram_weingarten"


def _partition_vector(tr, frame, args, result):
    tr.count("partitions.partition_vector.entries", len(result.entries))


def _select_basis(tr, frame, args, result):
    tr.count("partitions.select_basis.members", len(result.members))
    tr.count("partitions.select_basis.kept", len(result.independent))


def _fix_basis(tr, frame, args, result):
    tr.mark_open(GRAM)


def _gram(tr, frame, args, result):
    if frame[4]:
        tr.count("weingarten.gram_weingarten.misses", 1)
        tr.count("weingarten.gram.dim_sum", result.basis.dimension)


def _projection(tr, frame, args, result):
    # The cache keeps every built matrix alive, so an unseen id is a build.
    if id(result) not in tr.built:
        tr.built.add(id(result))
        tr.count("weingarten.projection_P.entries", result.rows * result.cols)


def _invert(tr, frame, args, result):
    tr.count("exact.invert.ops", result.rows**3)


def _mul(tr, frame, args, result):
    left, right = args[0], args[1]
    if hasattr(right, "cols") and hasattr(result, "cols"):
        tr.count("exact.ExactMatrix.mul.ops", left.rows * left.cols * right.cols)


def _nullspace(tr, frame, args, result):
    tr.count("exact.rank_nullspace.cells", args[0].rows * args[0].cols)


def _parse_oracle(tr, frame, args, result):
    tr.count("oracle.group_order_sum", len(result))


def _relations(tr, frame, args, result):
    tr.count("relations.generated", len(result.relations))


def _verify(tr, frame, args, result):
    tr.count("relations.verified", len(result["relations"]))


def _fxi(tr, frame, args, result):
    real, k_word, l_word = args[0], args[1], args[2]
    tr.count("opspaces.fxi_space.unknowns", real.N ** (len(k_word) + len(l_word)))


# (span name, module, attribute or Class.method, hook run on the result).
# weingarten.gram_weingarten wraps the cached builder _gram_data: integrate_G,
# integrate_X and the projection reach the Gram data through it without
# calling the public gram_weingarten, which also goes through it.  Likewise
# weingarten.projection_P wraps the cached builder _projection, which both
# projection_P and ergodicity_check call.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.render", "cli", "render", None),
    ("partitions.enumerate_category", "partitions", "enumerate_category", None),
    ("partitions.partition_vector", "partitions", "partition_vector", _partition_vector),
    ("partitions.select_basis", "partitions", "select_basis", _select_basis),
    ("partitions.fix_basis", "partitions", "fix_basis", _fix_basis),
    (GRAM, "weingarten", "_gram_data", _gram),
    ("weingarten.K_vector", "weingarten", "K_vector", None),
    ("weingarten.integrate_G", "weingarten", "integrate_G", None),
    ("weingarten.integrate_X", "weingarten", "integrate_X", None),
    ("weingarten.projection_P", "weingarten", "_projection", _projection),
    ("weingarten.ergodicity_check", "weingarten", "ergodicity_check", None),
    ("exact.invert", "exact", "invert", _invert),
    ("exact.ExactMatrix.mul", "exact", "ExactMatrix.__mul__", _mul),
    ("exact.rank_nullspace", "exact", "rank_nullspace", _nullspace),
    ("exact.rank", "exact", "rank", None),
    ("exact.ExactMatrix.kron", "exact", "ExactMatrix.kron", None),
    ("frobenius.frobenius_to_hom", "frobenius", "frobenius_to_hom", None),
    ("frobenius.frobenius_to_fix", "frobenius", "frobenius_to_fix", None),
    ("oracle.parse_oracle", "oracle", "parse_oracle", _parse_oracle),
    ("oracle.fixed_space", "oracle", "fixed_space", None),
    ("oracle.OracleGroup.moment_table", "oracle", "OracleGroup.moment_table", None),
    ("oracle.OracleGroup.coordinate_table", "oracle", "OracleGroup.coordinate_table", None),
    ("relations.relations_med", "relations", "relations_med", _relations),
    ("relations.relations_max", "relations", "relations_max", _relations),
    ("relations.relations_hom", "relations", "relations_hom", _relations),
    ("relations.verify_relations", "relations", "verify_relations", _verify),
    ("opspaces.fxi_space", "opspaces", "fxi_space", _fxi),
    ("opspaces.hom_operator_space", "opspaces", "hom_operator_space", None),
    ("opspaces.OperatorSpace.contains", "opspaces", "OperatorSpace.contains", None),
    ("opspaces.axiom_report", "opspaces", "axiom_report", None),
    ("opspaces.saturation_report", "opspaces", "saturation_report", None),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.output_bytes", "B")]
    + [(f"{name}.{what}", unit) for name, *_ in TARGETS
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("partitions.partition_vector.entries", "count"),
        ("partitions.select_basis.kept_ratio", "1"),
        ("weingarten.gram_weingarten.miss_ratio", "1"),
        ("weingarten.gram.dim_sum", "count"),
        ("weingarten.projection_P.entries", "count"),
        ("exact.invert.ops", "count"),
        ("exact.ExactMatrix.mul.ops", "count"),
        ("exact.rank_nullspace.cells", "count"),
        ("oracle.group_order_sum", "count"),
        ("relations.generated", "count"),
        ("relations.verified", "count"),
        ("opspaces.fxi_space.unknowns", "count"),
        ("trace.overhead_ratio", "1"),
        ("trace.wall_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.spans", "count"),
    ]
)


class Tracer:
    """Span recorder; install() wraps every target, uninstall() restores."""

    def __init__(self):
        self.stack = []  # open frames: [span id, name, start, child time, reached flag]
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.raw = []
        self.built = set()  # ids of projection matrices already counted
        self.spans = 0
        self.request = 0
        self._restore = []

    def count(self, name: str, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def mark_open(self, name: str):
        """Flag the innermost open span called name (used for Gram misses)."""
        for frame in reversed(self.stack):
            if frame[1] == name:
                frame[4] = True
                return

    def wrap(self, name: str, fn, hook):
        stack = self.stack

        def traced(*args, **kwargs):
            self.spans += 1
            parent = stack[-1][0] if stack else 0
            frame = [self.spans, name, perf_counter(), 0.0, False]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[3]
                self.raw.append((frame[0], parent, name, frame[2], end, self.request))
            if hook is not None:
                hook(self, frame, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "qhs" or key.startswith("qhs.")]
        for name, module, attr, hook in TARGETS:
            owner = importlib.import_module(f"qhs.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counters": self.counters,
                "spans": self.spans}

def write_spans(path: str, raw):
    """Append raw spans (id, parent, name, start, end, request) as JSON lines."""
    with open(path, "a", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, request in raw:
            handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "request": request}) + "\n")


def merge(summaries) -> dict:
    """Sum tracer summaries from several processes."""
    total = {"calls": {}, "self_s": {}, "counters": {}, "spans": 0}
    for summary in summaries:
        for part in ("calls", "self_s", "counters"):
            for key, value in summary[part].items():
                total[part][key] = total[part].get(key, 0) + value
        total["spans"] += summary["spans"]
    return total


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from a merged summary plus run-level values
    (cli.import_s, cli.output_bytes and the trace.* metrics)."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    values = {}
    for name, *_ in TARGETS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key, value in counters.items():
        values[key] = value
    members = counters.get("partitions.select_basis.members", 0)
    values["partitions.select_basis.kept_ratio"] = (
        counters.get("partitions.select_basis.kept", 0) / members if members else 0.0
    )
    gram_calls = calls.get(GRAM, 0)
    values["weingarten.gram_weingarten.miss_ratio"] = (
        counters.get("weingarten.gram_weingarten.misses", 0) / gram_calls if gram_calls else 0.0
    )
    values["trace.self_sum_s"] = sum(self_s.values())
    values["trace.spans"] = summary["spans"]
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
