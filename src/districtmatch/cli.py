"""Command-line interface: run mechanisms, check rules, compute bounds, audit.

Exit codes are part of the stable interface:
  0 success, 2 validation error, 3 mechanism error (stuck rule, infeasible
  constraints), 4 a requested property fails, 5 the diversity condition
  fails at the given bound, 6 an audit found a profitable misreport.

Reports are deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    DistrictMatchError,
    InfeasibleConstraints,
    PolicyViolatedAtStart,
    RuleViolation,
    Stuck,
    ValidationError,
)
from .instances import load_instance, master_order, parse_fraction
from .model import distribution_of, sort_matching
from .oracle import audit_strategy_proofness, search_rule_nonexistence
from .policy import (
    GoalForm,
    contains,
    diversity_condition,
    implied_bounds,
    is_mconvex,
    policy_members,
)
from .rules import RuleProperty, check_property
from .spda import (
    alpha_diversity_gap,
    check_balanced_exchange,
    check_individual_rationality,
    run_intradistrict_spda,
    run_spda,
)
from .ttc import run_ttc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MECHANISM = 3
EXIT_PROPERTY = 4
EXIT_CONDITION = 5
EXIT_FINDING = 6


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inst = load_instance(args.instance)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(inst, args)
    except (Stuck, RuleViolation, PolicyViolatedAtStart, InfeasibleConstraints) as exc:
        print(f"mechanism error: {exc}", file=sys.stderr)
        return EXIT_MECHANISM
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DistrictMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MECHANISM


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="districtmatch",
        description="Interdistrict school assignment mechanisms and audits",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("run", help="run a mechanism on an instance")
    p.add_argument("instance")
    p.add_argument(
        "--mechanism", required=True, choices=["spda", "spda-intra", "ttc"]
    )
    p.add_argument("--trace", help="write a JSON step trace to this path")
    p.add_argument("--master", nargs="*", help="override the master priority list")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check-rule", help="check properties of a district's rule")
    p.add_argument("instance")
    p.add_argument("--district", required=True)
    p.add_argument(
        "--properties",
        required=True,
        nargs="+",
        choices=sorted(v.value for v in RuleProperty),
    )
    p.set_defaults(func=cmd_check_rule)

    p = sub.add_parser("bounds", help="implied floors/ceilings and ratio gaps")
    p.add_argument("instance")
    p.add_argument("--alpha", help="tolerated ratio gap, as p/q")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("audit", help="strategy-proofness and oracle agreement")
    p.add_argument("instance")
    p.add_argument(
        "--mechanism", required=True, choices=["spda", "ttc", "efficient-selector"]
    )
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("policy-check", help="goal membership and exchange property")
    p.add_argument("instance")
    p.set_defaults(func=cmd_policy_check)

    p = sub.add_parser("nonexistence", help="search for an admissible district rule")
    p.add_argument("instance")
    p.add_argument("--district", required=True)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--budget", type=int, default=2 * 10**6)
    p.set_defaults(func=cmd_nonexistence)
    return parser


def _district_index(inst, name):
    try:
        return inst.problem.district_ids.index(name)
    except ValueError:
        raise ValidationError([("DanglingReference", f"unknown district {name!r}")])


def _print_outcome(problem, outcome):
    print("student,school,district")
    for x in sort_matching(outcome):
        print(
            f"{problem.student_ids[x.student]},"
            f"{problem.school_ids[x.school]},"
            f"{problem.district_ids[x.district]}"
        )


def _verdict(v):
    return "holds" if v else "fails"


def _require_inputs(inst, mechanism):
    """The instance must have the section the mechanism reads: a rule for
    every district for deferred acceptance, a policy goal otherwise."""
    if mechanism.startswith("spda"):
        if not inst.rules or len(inst.rules) < inst.problem.num_districts:
            raise ValidationError(
                [("DanglingReference", f"{mechanism} needs a rule for every district")]
            )
    elif inst.policy is None:
        raise ValidationError(
            [("DanglingReference", f"{mechanism} needs a policy section")]
        )


def cmd_run(inst, args):
    problem = inst.problem
    mechanism = args.mechanism
    if mechanism == "spda-intra" and args.trace:
        print("error: --mechanism spda-intra keeps no step trace; drop --trace", file=sys.stderr)
        return EXIT_VALIDATION
    master = master_order(args.master, problem, "--master") if args.master else inst.master
    _require_inputs(inst, mechanism)

    trace = None
    if mechanism == "spda-intra":
        outcome = run_intradistrict_spda(problem, inst.rules)
    else:
        if mechanism == "spda":
            run, run_args, render = run_spda, (problem, inst.rules), _spda_trace_doc
        else:
            run, run_args, render = run_ttc, (problem, inst.policy, master), _ttc_trace_doc
        try:
            trace = run(*run_args)
        except (Stuck, RuleViolation) as exc:
            # a failed run leaves the steps it took behind
            if args.trace and exc.trace is not None:
                _write_trace(args.trace, render(problem, exc.trace))
            raise
        outcome = trace.outcome

    _print_outcome(problem, outcome)
    print("metric,value")
    print(f"individual_rationality,{_verdict(check_individual_rationality(outcome, problem))}")
    print(f"balanced_exchange,{_verdict(check_balanced_exchange(outcome, problem))}")
    gap = alpha_diversity_gap(outcome, problem)
    print(f"alpha_gap,{gap.numerator}/{gap.denominator}")
    if inst.policy is not None:
        xi = distribution_of(outcome, problem)
        print(
            "policy_goal,"
            + ("satisfied" if contains(inst.policy, xi, problem) else "violated")
        )
    else:
        print("policy_goal,n/a")
    if trace is not None:
        print(f"steps,{trace.num_steps}")
        if args.trace:
            _write_trace(args.trace, render(problem, trace))
            print(f"trace,{args.trace}")
    return EXIT_OK


def _write_trace(path, doc):
    parts = []
    _render_json(doc, "\n", parts)
    parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def _render_json(value, nl, out):
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to ``out``,
    with ``nl`` the newline and indent of the enclosing level.

    The standard encoder is pure Python once ``indent`` is set; this one
    renders lists of strings and of (id, id) pairs, which make up most of
    a trace, with one join each.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(v) is str for v in value):
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + nl + "]")
            return
        if all(
            type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str
            for v in value
        ):
            deeper = inner + "  "
            pair = "[" + deeper + "%s," + deeper + "%s" + inner + "]"
            items = [pair % (_quote(a), _quote(b)) for a, b in value]
            out.append("[" + inner + ("," + inner).join(items) + nl + "]")
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _render_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            # json writes non-string keys as their JSON text, quoted
            out.append(_quote(key if isinstance(key, str) else json.dumps(key)))
            out.append(": ")
            _render_json(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(value))


def _spda_trace_doc(problem, trace):
    pair_of = {}  # contract -> its [student id, school id], built once per trace

    def pairs(X):
        out = []
        for x in sort_matching(X):
            pair = pair_of.get(x)
            if pair is None:
                pair = [problem.student_ids[x.student], problem.school_ids[x.school]]
                pair_of[x] = pair
            out.append(pair)
        return out

    return {
        "mechanism": "spda",
        "steps": [
            {
                "proposals": {
                    problem.district_ids[d]: pairs(p) for d, p in step.proposals
                },
                "tentative": pairs(step.tentative),
                "rejected": pairs(step.rejected),
            }
            for step in trace.steps
        ],
        "outcome": pairs(trace.outcome),
    }


def _ttc_trace_doc(problem, trace):
    def slot(p):
        return [problem.school_ids[p[0]], problem.type_ids[p[1]]]

    return {
        "mechanism": "ttc",
        "steps": [
            {
                "active": [slot(p) for p in step.active],
                "slot_pointer": [
                    [slot(p), problem.student_ids[s]] for p, s in step.slot_pointer
                ],
                "student_pointer": [
                    [problem.student_ids[s], slot(p)] for s, p in step.student_pointer
                ],
                "cycles": [
                    [[problem.student_ids[s], slot(p)] for s, p in cycle]
                    for cycle in step.cycles
                ],
                "removed": [slot(p) for p in step.removed],
            }
            for step in trace.steps
        ],
        "outcome": [
            [problem.student_ids[x.student], problem.school_ids[x.school]]
            for x in sort_matching(trace.outcome)
        ],
    }


def cmd_check_rule(inst, args):
    problem = inst.problem
    d = _district_index(inst, args.district)
    if d not in inst.rules:
        raise ValidationError(
            [("DanglingReference", f"no rule declared for district {args.district}")]
        )
    if RuleProperty.IS_COMPLETION_OF.value in args.properties:
        raise ValidationError(
            [
                (
                    "DanglingReference",
                    "is_completion_of compares against a base rule, "
                    "which an instance file cannot name",
                )
            ]
        )
    rule = inst.rules[d]
    any_failed = False
    print("property,verdict,witness")
    for name in args.properties:
        prop = RuleProperty(name)
        if prop is RuleProperty.ACCOMMODATES_UNMATCHED:
            verdict = check_property(None, prop, problem, rules=inst.rules)
        else:
            verdict = check_property(rule, prop, problem)
        witness = ""
        if not verdict.holds:
            any_failed = True
            parts = []
            for X in verdict.witness_sets:
                parts.append(
                    "{"
                    + " ".join(
                        f"({problem.student_ids[x.student]},{problem.school_ids[x.school]})"
                        for x in sort_matching(X)
                    )
                    + "}"
                )
            if verdict.witness_contract is not None:
                x = verdict.witness_contract
                parts.append(
                    f"contract ({problem.student_ids[x.student]},{problem.school_ids[x.school]})"
                )
            witness = "; ".join(parts)
        print(f"{name},{_verdict(verdict)},{witness}")
    return EXIT_PROPERTY if any_failed else EXIT_OK


def _policy_ceilings(inst):
    if inst.policy is None or inst.policy.form not in (
        GoalForm.SCHOOL_DIVERSITY,
        GoalForm.COMBINATION,
    ):
        raise ValidationError(
            [("DanglingReference", "bounds needs a school-level ceilings policy")]
        )
    return dict(inst.policy.ceilings)


def cmd_bounds(inst, args):
    problem = inst.problem
    ceilings = _policy_ceilings(inst)
    bounds = implied_bounds(problem, ceilings)
    print("district,type,implied_floor,implied_ceiling")
    for d in range(problem.num_districts):
        for t in range(problem.num_types):
            lo, hi = bounds[(d, t)]
            print(
                f"{problem.district_ids[d]},{problem.type_ids[t]},{lo},{hi}"
            )
    alpha = parse_fraction(args.alpha) if args.alpha else inst.alpha
    if alpha is None:
        alpha = Fraction(1)
    report = diversity_condition(problem, ceilings, alpha)
    print("type,district,other,delta")
    for (t, d, d2), delta in report.deltas:
        print(
            f"{problem.type_ids[t]},{problem.district_ids[d]},"
            f"{problem.district_ids[d2]},{delta.numerator}/{delta.denominator}"
        )
    print(
        f"max_delta,{report.max_delta.numerator}/{report.max_delta.denominator}"
    )
    print(f"alpha,{alpha.numerator}/{alpha.denominator}")
    print(f"condition,{'satisfied' if report.satisfied else 'violated'}")
    return EXIT_OK if report.satisfied else EXIT_CONDITION


def cmd_audit(inst, args):
    problem = inst.problem
    _require_inputs(inst, args.mechanism)
    report = audit_strategy_proofness(
        args.mechanism,
        problem,
        rules=inst.rules or None,
        goal=inst.policy,
        master=inst.master,
        budget=args.budget,
    )
    print(f"mechanism,{report.mechanism}")
    print(f"runs,{report.runs}")
    print(f"exhaustive,{str(report.exhaustive).lower()}")
    agreement = _oracle_agreement(inst, args.mechanism, report.honest)
    if agreement is not None:
        print(f"oracle_agreement,{str(agreement).lower()}")
    print("student,misreport,honest_school,deviant_school")
    for f in report.findings:
        order = ">".join(problem.school_ids[c] for c in f.misreport)
        honest = problem.school_ids[f.honest_school] if f.honest_school is not None else "-"
        deviant = (
            problem.school_ids[f.deviant_school] if f.deviant_school is not None else "-"
        )
        print(f"{problem.student_ids[f.student]},{order},{honest},{deviant}")
    failed = bool(report.findings) or agreement is False
    return EXIT_FINDING if failed else EXIT_OK


def _oracle_agreement(inst, mechanism, outcome):
    """Cross-check the honest outcome against the brute-force ground truth:
    stability for deferred acceptance, membership in the constrained
    efficient set for trading."""
    from .oracle import constrained_efficient_ir_matchings
    from .spda import is_stable

    problem = inst.problem
    if mechanism == "spda" and inst.rules:
        return bool(is_stable(outcome, problem, inst.rules))
    if mechanism == "ttc" and inst.policy is not None:
        return outcome in constrained_efficient_ir_matchings(problem, inst.policy)
    return None


def cmd_policy_check(inst, args):
    problem = inst.problem
    if inst.policy is None:
        raise ValidationError([("DanglingReference", "instance has no policy section")])
    xi = distribution_of(problem.initial_matching(), problem)
    print(
        "initial_matching_in_goal,"
        + ("true" if contains(inst.policy, xi, problem) else "false")
    )
    members = policy_members(inst.policy, problem)
    print(f"goal_members_within_capacity,{len(members)}")
    verdict = is_mconvex(members)
    print(f"exchange_property,{'holds' if verdict.holds else 'fails'}")
    if not verdict.holds:
        _, _, (c, t) = verdict.witness
        print(f"witness_coordinate,{problem.school_ids[c]},{problem.type_ids[t]}")
    return EXIT_OK


def cmd_nonexistence(inst, args):
    problem = inst.problem
    d = _district_index(inst, args.district)
    if inst.policy is None or inst.policy.form is not GoalForm.DISTRICT_CEILINGS:
        raise ValidationError(
            [("DanglingReference", "nonexistence needs a district-ceilings policy")]
        )
    ceilings = {
        t: q for (dd, t), q in inst.policy.district_ceilings if dd == d
    }
    result = search_rule_nonexistence(
        problem,
        d,
        ceilings,
        symmetry=not args.no_symmetry,
        budget=args.budget,
    )
    print(f"satisfiable,{str(result.satisfiable).lower()}")
    print(f"nodes,{result.nodes}")
    if result.satisfiable:
        print(f"witness_table_entries,{len(result.witness.table)}")
    else:
        print("branch,outcome")
        for value, reason in result.conflict_log:
            label = " ".join(
                f"({problem.student_ids[x.student]},{problem.school_ids[x.school]})"
                for x in sort_matching(value)
            )
            print(f"{{{label}}},{reason}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
