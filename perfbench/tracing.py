"""Outside-in layer tracing for the benchmark.

``Tracer.install()`` replaces public functions of the ``districtmatch``
modules with timing wrappers and ``Tracer.uninstall()`` puts the originals
back.  A function imported by name into several modules (``run_spda`` lives
in ``spda``, ``cli``, ``oracle`` and the package root) is found by identity
and patched in every module that binds it.

Two kinds of wrapper:

* span: one record per call ``[name, start, end, parent, session]``, kept in
  memory and written out by ``dump``;
* leaf: hot calls (``rules.choose``, the TTC permissibility test,
  ``Chooser.choose_mask``, ``with_preferences``) aggregated per
  (parent span, name) into a call count, total time and a success count, so
  the trace stays bounded at millions of calls.

A leaf call made inside another leaf call (``choose`` under ``choose_mask``)
is counted but its time is not subtracted twice from the parent's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) -> span name, or a callable naming the span from args
SPANS = {
    ("cli", "main"): lambda args, kwargs: "cli." + _subcommand(args, kwargs),
    ("instances", "load_instance"): "instances.load",
    ("model", "validate_problem"): "model.validate",
    ("rules", "check_property"): "rules.check_property",
    ("spda", "run_spda"): "spda.run",
    ("spda", "is_stable"): "spda.is_stable",
    ("spda", "check_individual_rationality"): "spda.verdicts",
    ("spda", "check_balanced_exchange"): "spda.verdicts",
    ("spda", "alpha_diversity_gap"): "spda.verdicts",
    ("ttc", "run_ttc"): "ttc.run",
    ("policy", "policy_members"): "policy.members",
    ("policy", "is_mconvex"): "policy.is_mconvex",
    ("policy", "implied_bounds"): "policy.implied_bounds",
    ("oracle", "audit_strategy_proofness"): "oracle.audit",
    ("oracle", "constrained_efficient_ir_matchings"): "oracle.efficient_ir",
    ("oracle", "enumerate_ir_matchings"): "oracle.ir_matchings",
    ("oracle", "search_rule_nonexistence"): "oracle.nonexistence",
}

# leaf wrappers: (module, attribute, owner class, binding module, name).  With
# no binding module every binding of the function is patched, otherwise only
# the one in that module: the permissibility test is
# ``satisfies_with_feasibility`` as TTC calls it, and ``with_preferences`` as
# the audits call it.
LEAVES = (
    ("rules", "choose", None, None, "rules.choose"),
    ("policy", "satisfies_with_feasibility", None, "ttc", "ttc.permissibility"),
    ("rules", "choose_mask", "Chooser", None, "rules.choose_mask"),
    ("model", "with_preferences", None, "oracle", "oracle.with_preferences"),
)


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0].replace("-", "_") if argv else "none"


PACKAGE = "districtmatch"


class Tracer:
    """Spans, leaf aggregates and counters of the calls made while
    installed; ``session`` tags the spans opened from then on."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, session]
        self.stack = []  # indices of open spans
        self.leaves = {}  # (parent, name) -> [calls, seconds, passed, nested_s]
        self.counters = Counter()
        self.session = None
        self._leaf_depth = 0
        self._patches = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch_everywhere(self, original, wrapper, only=None):
        for module in self._modules():
            if only is not None and module.__name__ != only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for (mod, attr), name in SPANS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            self._patch_everywhere(original, self._span(name, original))
        for mod, attr, cls, binding, name in LEAVES:
            module = sys.modules[f"{PACKAGE}.{mod}"]
            if cls is not None:
                owner = getattr(module, cls)
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._leaf(name, original))
            else:
                original = getattr(module, attr)
                only = binding and f"{PACKAGE}.{binding}"
                self._patch_everywhere(original, self._leaf(name, original), only)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.session]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            count = _COUNT.get(label)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self
        stack, leaves = self.stack, self.leaves
        kind_of = name == "rules.choose"
        mask_cache = name == "rules.choose_mask"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0].kind.value}" if kind_of else name
            passed = args[1] in args[0]._cache if mask_cache else False
            nested = tracer._leaf_depth > 0
            tracer._leaf_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._leaf_depth -= 1
            key = (stack[-1] if stack else -1, label)
            agg = leaves.get(key)
            if agg is None:
                agg = leaves[key] = [0, 0.0, 0, 0.0]
            agg[0] += 1
            agg[1] += dt
            if passed or (result is True):
                agg[2] += 1
            if nested:
                agg[3] += dt
            return result

        return wrapper

    # -- output -----------------------------------------------------------------

    def self_times(self):
        """Per span index: duration minus direct child spans and leaf time."""
        own = [end - start for _, start, end, _, _ in self.spans]
        out = list(own)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        for (parent, _), (_, seconds, _, nested) in self.leaves.items():
            if parent >= 0:
                out[parent] -= seconds - nested
        return own, out

    def dump(self, path):
        doc = {
            "spans": self.spans,
            "leaves": [
                [parent, name, calls, seconds, passed]
                for (parent, name), (calls, seconds, passed, _) in sorted(
                    self.leaves.items()
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _count_spda(counters, args, trace):
    counters["spda.steps"] += len(trace.steps)
    for step in trace.steps:
        counters["spda.proposals"] += sum(len(p) for _, p in step.proposals)
        counters["spda.rejections"] += len(step.rejected)


def _count_ttc(counters, args, trace):
    counters["ttc.steps"] += len(trace.steps)
    counters["ttc.cycles"] += sum(len(step.cycles) for step in trace.steps)


def _count_members(counters, args, members):
    counters["policy.members.count"] += len(members)


def _count_mconvex(counters, args, verdict):
    members = list(args[0])
    k = len(members[0].flat()) if members else 0
    counters["policy.is_mconvex.pair_coords"] += len(members) ** 2 * k


def _count_audit(counters, args, report):
    counters["oracle.audit.runs"] += report.runs
    counters["oracle.audit.findings"] += len(report.findings)


def _count_ir(counters, args, matchings):
    counters["oracle.ir_matchings.count"] += len(matchings)


def _count_nonexistence(counters, args, result):
    counters["oracle.nonexistence.nodes"] += result.nodes


# span name -> counter update from the call's arguments and result
_COUNT = {
    "spda.run": _count_spda,
    "ttc.run": _count_ttc,
    "policy.members": _count_members,
    "policy.is_mconvex": _count_mconvex,
    "oracle.audit": _count_audit,
    "oracle.ir_matchings": _count_ir,
    "oracle.nonexistence": _count_nonexistence,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    own, self_s = tracer.self_times()
    inclusive, exclusive, calls = {}, {}, {}
    for i, rec in enumerate(tracer.spans):
        name = rec[0]
        inclusive[name] = inclusive.get(name, 0.0) + own[i]
        exclusive[name] = exclusive.get(name, 0.0) + self_s[i]
        calls[name] = calls.get(name, 0) + 1

    leaf_calls, leaf_s, leaf_passed = {}, {}, {}
    stable_choose = 0
    for (parent, name), (n, seconds, passed, _) in tracer.leaves.items():
        leaf_calls[name] = leaf_calls.get(name, 0) + n
        leaf_s[name] = leaf_s.get(name, 0.0) + seconds
        leaf_passed[name] = leaf_passed.get(name, 0) + passed
        if (
            name.startswith("rules.choose.")
            and parent >= 0
            and tracer.spans[parent][0] == "spda.is_stable"
        ):
            stable_choose += n

    counters = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    choose_kinds = [k for k in leaf_calls if k.startswith("rules.choose.")]
    choose_calls = sum(leaf_calls[k] for k in choose_kinds)
    choose_s = sum(leaf_s[k] for k in choose_kinds)

    s, c, r = "s", "count", "ratio"
    out = {
        "cli.run.s": (inclusive.get("cli.run", 0.0), s),
        "cli.run.self_s": (exclusive.get("cli.run", 0.0), s),
        "cli.audit.s": (inclusive.get("cli.audit", 0.0), s),
        "cli.audit.self_s": (exclusive.get("cli.audit", 0.0), s),
        "cli.check_rule.s": (inclusive.get("cli.check_rule", 0.0), s),
        "cli.policy_check.s": (inclusive.get("cli.policy_check", 0.0), s),
        "cli.bounds.s": (inclusive.get("cli.bounds", 0.0), s),
        "cli.nonexistence.s": (inclusive.get("cli.nonexistence", 0.0), s),
        "instances.load.calls": (calls.get("instances.load", 0), c),
        "instances.load.s": (inclusive.get("instances.load", 0.0), s),
        "model.validate.s": (inclusive.get("model.validate", 0.0), s),
        "rules.choose.calls": (choose_calls, c),
        "rules.choose.s": (choose_s, s),
    }
    for kind in (
        "sequential_responsive",
        "initial_respecting",
        "rationed_sequential",
        "reserves_and_ceilings",
    ):
        out[f"rules.choose.{kind}.s"] = (leaf_s.get(f"rules.choose.{kind}", 0.0), s)
    out.update(
        {
            "rules.check_property.s": (inclusive.get("rules.check_property", 0.0), s),
            "rules.choose_mask.calls": (leaf_calls.get("rules.choose_mask", 0), c),
            "rules.choose_mask.hit_ratio": (
                ratio(
                    leaf_passed.get("rules.choose_mask", 0),
                    leaf_calls.get("rules.choose_mask", 0),
                ),
                r,
            ),
            "spda.run.calls": (calls.get("spda.run", 0), c),
            "spda.run.self_s": (exclusive.get("spda.run", 0.0), s),
            "spda.steps": (counters["spda.steps"], c),
            "spda.proposals": (counters["spda.proposals"], c),
            "spda.rejections_per_proposal": (
                ratio(counters["spda.rejections"], counters["spda.proposals"]),
                r,
            ),
            "spda.is_stable.s": (inclusive.get("spda.is_stable", 0.0), s),
            "spda.is_stable.choose_calls": (stable_choose, c),
            "spda.verdicts.s": (inclusive.get("spda.verdicts", 0.0), s),
            "ttc.run.calls": (calls.get("ttc.run", 0), c),
            "ttc.run.self_s": (exclusive.get("ttc.run", 0.0), s),
            "ttc.steps": (counters["ttc.steps"], c),
            "ttc.cycles": (counters["ttc.cycles"], c),
            "ttc.permissibility.tests": (leaf_calls.get("ttc.permissibility", 0), c),
            "ttc.permissibility.s": (leaf_s.get("ttc.permissibility", 0.0), s),
            "ttc.permissible_ratio": (
                ratio(
                    leaf_passed.get("ttc.permissibility", 0),
                    leaf_calls.get("ttc.permissibility", 0),
                ),
                r,
            ),
            "policy.members.s": (inclusive.get("policy.members", 0.0), s),
            "policy.members.count": (counters["policy.members.count"], c),
            "policy.is_mconvex.s": (inclusive.get("policy.is_mconvex", 0.0), s),
            "policy.is_mconvex.pair_coords": (
                counters["policy.is_mconvex.pair_coords"],
                c,
            ),
            "policy.implied_bounds.s": (inclusive.get("policy.implied_bounds", 0.0), s),
            "oracle.audit.runs": (counters["oracle.audit.runs"], c),
            "oracle.audit.findings": (counters["oracle.audit.findings"], c),
            "oracle.with_preferences.s": (leaf_s.get("oracle.with_preferences", 0.0), s),
            "oracle.efficient_ir.s": (inclusive.get("oracle.efficient_ir", 0.0), s),
            "oracle.ir_matchings.count": (counters["oracle.ir_matchings.count"], c),
            "oracle.nonexistence.s": (inclusive.get("oracle.nonexistence", 0.0), s),
            "oracle.nonexistence.nodes": (counters["oracle.nonexistence.nodes"], c),
        }
    )
    return out
