"""Per-layer spans for the traced benchmark run.

install() runs inside the child interpreter (see launch.py).  It wraps the
public functions and methods of each repfn module, and rebinds every
module-level name that refers to one of them, so a call made through an
importing module (repfn.bounds.rep_profile, repfn.cli.singer_set, ...) is
recorded too.  Each call becomes a span [name, start, end, parent, info]
kept in memory and written out as JSON when the command ends.  info holds
counts read at the boundary from arguments and results: |A|, |B| and the
group orders give pairs and packed slots, SearchOutcome gives nodes.

layer_metrics() runs in the benchmark process and turns the spans of one
round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from math import prod
from time import perf_counter

LAYERS = ("cli", "groups", "profiles", "singer", "constructions", "bounds", "search")

# Group's methods run once per element (decode, neg, check_element, ...); a
# span each would swamp the run, so they stay unwrapped and their time counts
# toward the caller.  field_mul runs once per field product: it is counted,
# not timed.
_UNWRAPPED_CLASSES = {"groups.Group"}
_COUNTED = {"singer.field_mul"}


def _pair_info(args, kwargs, result):
    a = args[0]
    b = args[1] if len(args) > 1 else kwargs.get("b")
    b = a if b is None else b
    return {"pairs": a.card * b.card, "slots": prod(2 * m - 1 for m in a.group.orders)}


def _exact_info(args, kwargs, out):
    return {"nodes": out.nodes, "status": out.status.value, "prunes": dict(out.prunes)}


def _heuristic_info(args, kwargs, out):
    return {"moves": out.nodes, "cap": out.certificate.claimed_r}


_HOOKS = {
    "profiles.rep_profile_naive": _pair_info,
    "profiles.rep_profile_fast": _pair_info,
    "singer.singer_set": lambda args, kwargs, out: {"p": out.p},
    "search.exists_basis": _exact_info,
    "search.heuristic_upper_bound": _heuristic_info,
    "bounds.run_verification_suite": lambda args, kwargs, out: {
        "reports": sum(len(case.reports) for case in out.cases)
    },
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self.stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install() -> Recorder:
    rec = Recorder()
    replaced: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"repfn.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                wrapper = rec.count(name, obj) if name in _COUNTED else rec.wrap(name, obj)
                replaced[id(obj)] = (obj, wrapper)
            elif inspect.isclass(obj) and name not in _UNWRAPPED_CLASSES:
                for mattr, member in list(vars(obj).items()):
                    qual = f"{name}.{mattr}"
                    if mattr.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, mattr, rec.wrap(qual, member))
                    elif isinstance(member, classmethod):
                        setattr(obj, mattr, classmethod(rec.wrap(qual, member.__func__)))
    for modname, mod in list(sys.modules.items()):
        if modname == "repfn" or modname.startswith("repfn."):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
    return rec


# -- aggregation in the benchmark process ------------------------------------

PER_LAYER = (
    "cli.self_s", "cli.output_mib",
    "groups.self_s", "groups.elements_calls",
    "profiles.self_s",
    "profiles.naive.calls", "profiles.naive.pairs", "profiles.naive.self_s",
    "profiles.fast.calls", "profiles.fast.slots", "profiles.fast.self_s",
    "profiles.fast.slots_per_pair",
    "singer.calls", "singer.distinct_p", "singer.builds",
    "singer.field_ctx_s", "singer.walk_s", "singer.field_mul_calls",
    "constructions.self_s", "constructions.scan_profiles",
    "bounds.reports", "bounds.self_s", "bounds.reports_per_s", "bounds.random_s",
    "search.exact.nodes", "search.exact.unsat_nodes", "search.exact.probes",
    "search.exact.nodes_per_s", "search.exact.self_s",
    "search.exact.prunes.max_rep", "search.exact.prunes.coverage",
    "search.exact.prunes.reflection",
    "search.heuristic.moves", "search.heuristic.moves_per_s", "search.heuristic.self_s",
    "search.heuristic.profile_s", "search.heuristic.cap",
    "search.certify_s",
    "trace.overhead_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round; traces holds one span dump per command."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["cli.output_mib"] = output_bytes / 2**20
    fast_pairs = 0
    suite_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        selves = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                selves[s[3]] -= s[2] - s[1]
        ps = set()
        for (name, t0, t1, parent, info), own in zip(spans, selves):
            key = name.split(".", 1)[0] + ".self_s"
            m[key] = m.get(key, 0.0) + own
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "groups.GroupSubset.elements":
                m["groups.elements_calls"] += 1
            elif name == "profiles.rep_profile_naive":
                m["profiles.naive.calls"] += 1
                m["profiles.naive.pairs"] += info["pairs"]
                m["profiles.naive.self_s"] += own
                if parent_name == "search.heuristic_upper_bound":
                    m["search.heuristic.profile_s"] += t1 - t0
            elif name == "profiles.rep_profile_fast":
                m["profiles.fast.calls"] += 1
                m["profiles.fast.slots"] += info["slots"]
                m["profiles.fast.self_s"] += own
                fast_pairs += info["pairs"]
            elif name == "profiles.rep_profile" and parent_name == "constructions.shift_family_report":
                m["constructions.scan_profiles"] += 1
            elif name == "singer.singer_set":
                m["singer.calls"] += 1
                m["singer.walk_s"] += own
                ps.add(info["p"])
            elif name == "singer.field_ctx_build":
                m["singer.builds"] += 1
                m["singer.field_ctx_s"] += t1 - t0
            elif name == "bounds.run_verification_suite":
                m["bounds.reports"] += info["reports"]
                suite_s += t1 - t0
            elif name in ("bounds.random_subset", "bounds.random_group"):
                m["bounds.random_s"] += t1 - t0
            elif name == "search.exists_basis":
                m["search.exact.probes"] += 1
                m["search.exact.nodes"] += info["nodes"]
                if info["status"] == "UNSAT":
                    m["search.exact.unsat_nodes"] += info["nodes"]
                m["search.exact.self_s"] += own
                for kind, n in info["prunes"].items():
                    m[f"search.exact.prunes.{kind}"] = m.get(f"search.exact.prunes.{kind}", 0) + n
            elif name == "search.heuristic_upper_bound":
                m["search.heuristic.moves"] += info["moves"]
                m["search.heuristic.cap"] += info["cap"]
                m["search.heuristic.self_s"] += own
            elif name == "search.make_certificate":
                m["search.certify_s"] += t1 - t0
        m["singer.distinct_p"] += len(ps)
        m["singer.field_mul_calls"] += trace["counts"].get("singer.field_mul", 0)
    m["profiles.fast.slots_per_pair"] = _ratio(m["profiles.fast.slots"], fast_pairs)
    m["bounds.reports_per_s"] = _ratio(m["bounds.reports"], suite_s)
    m["search.exact.nodes_per_s"] = _ratio(m["search.exact.nodes"], m["search.exact.self_s"])
    m["search.heuristic.moves_per_s"] = _ratio(
        m["search.heuristic.moves"], m["search.heuristic.self_s"]
    )
    return {k: m[k] for k in PER_LAYER}
