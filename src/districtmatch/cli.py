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
import sys
from bisect import bisect_left
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
from .instances import format_fraction, load_instance, master_order, parse_fraction
from .model import distribution_of, sort_matching
from .oracle import (
    audit_strategy_proofness,
    constrained_efficient_ir_matchings,
    search_rule_nonexistence,
)
from .policy import (
    GoalForm,
    contains,
    diversity_condition,
    is_mconvex,
    policy_members,
)
from .rules import RuleProperty, check_property
from .spda import (
    alpha_diversity_gap,
    check_balanced_exchange,
    check_individual_rationality,
    is_stable,
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
    p.add_argument("--budget", type=_budget, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("policy-check", help="goal membership and exchange property")
    p.add_argument("instance")
    p.set_defaults(func=cmd_policy_check)

    p = sub.add_parser("nonexistence", help="search for an admissible district rule")
    p.add_argument("instance")
    p.add_argument("--district", required=True)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--budget", type=_budget, default=2 * 10**6)
    p.set_defaults(func=cmd_nonexistence)
    return parser


def _budget(text):
    """A ``--budget`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


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


def _pair(problem, x):
    return f"({problem.student_ids[x.student]},{problem.school_ids[x.school]})"


def _contract_set(problem, X):
    """``X`` as ``{(student,school) ...}`` in (student, school) order."""
    return "{" + " ".join(_pair(problem, x) for x in sort_matching(X)) + "}"


def _verdict(v):
    return "holds" if v else "fails"


def _require_rules(inst, reader):
    """The instance must have a rule for every district, which ``reader``
    needs."""
    if not inst.rules or len(inst.rules) < inst.problem.num_districts:
        raise ValidationError(
            [("DanglingReference", f"{reader} needs a rule for every district")]
        )


def _require_inputs(inst, mechanism):
    """The instance must have the section the mechanism reads: a rule for
    every district for deferred acceptance, a policy goal otherwise."""
    if mechanism.startswith("spda"):
        _require_rules(inst, mechanism)
    elif inst.policy is None:
        raise ValidationError(
            [("DanglingReference", f"{mechanism} needs a policy section")]
        )


def cmd_run(inst, args):
    problem = inst.problem
    mechanism = args.mechanism
    if mechanism == "spda-intra" and args.trace is not None:
        print("error: --mechanism spda-intra keeps no step trace; drop --trace", file=sys.stderr)
        return EXIT_VALIDATION
    master = inst.master if args.master is None else master_order(args.master, problem, "--master")
    _require_inputs(inst, mechanism)

    trace = None
    if mechanism == "spda-intra":
        outcome = run_intradistrict_spda(problem, inst.rules)
    else:
        if mechanism == "spda":
            run, run_args, write = run_spda, (problem, inst.rules), _write_spda_trace
        else:
            run, run_args, write = run_ttc, (problem, inst.policy, master), _write_ttc_trace
        try:
            trace = run(*run_args)
        except (Stuck, RuleViolation) as exc:
            # a failed run leaves the steps it took behind
            if args.trace is not None and exc.trace is not None:
                _write_trace(args.trace, write, problem, exc.trace)
            raise
        outcome = trace.outcome

    _print_outcome(problem, outcome)
    print("metric,value")
    print(f"individual_rationality,{_verdict(check_individual_rationality(outcome, problem))}")
    print(f"balanced_exchange,{_verdict(check_balanced_exchange(outcome, problem))}")
    gap = alpha_diversity_gap(outcome, problem)
    print(f"alpha_gap,{format_fraction(gap)}")
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
        if args.trace is not None:
            if not _write_trace(args.trace, write, problem, trace):
                return EXIT_VALIDATION
            print(f"trace,{args.trace}")
    return EXIT_OK


def _write_trace(path, write, problem, trace):
    """Write ``trace`` to ``path`` with ``write``; on failure, one stderr line and False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh, problem, trace)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return False
    return True


# The writers below emit ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for a trace
# document step by step, rendering each repeated piece once per nesting depth.
_NL = tuple("\n" + "  " * depth for depth in range(8))
_SEP = tuple("," + nl for nl in _NL)


def _block(items, depth, brackets="[]"):
    """A JSON list (or object) of rendered ``items``, each ``depth`` deep."""
    if not items:
        return brackets
    return brackets[0] + _NL[depth] + _SEP[depth].join(items) + _NL[depth - 1] + brackets[1]


class _Texts(dict):
    """The text of each key, rendered by ``render(key)`` on first lookup."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _write_doc(fh, mechanism, outcome, steps):
    """The document around the rendered ``outcome`` and each of ``steps``."""
    fh.write(f'{{\n  "mechanism": "{mechanism}",\n  "outcome": {outcome},\n  "steps": ')
    sep = "["
    for step in steps:
        fh.write(sep + _NL[2] + step)
        sep = ","
    fh.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")


def _pair_keys(X, C):
    """The contracts of ``X`` as sorted ``student * C + school`` keys, which
    is (student, school) order for ``C`` schools."""
    return sorted([x.student * C + x.school for x in X])


def _contract_lists(students, schools):
    """A function rendering sorted ``_pair_keys``, items ``depth`` deep, as
    their [student, school] id pairs; ``students`` and ``schools`` are the
    quoted ids."""
    C = len(schools)
    by_depth = {}  # depth -> {student * C + school: the pair's text}

    def render(keys, depth):
        pairs = by_depth.get(depth)
        if pairs is None:
            head, sep, tail = "[" + _NL[depth + 1], _SEP[depth + 1], _NL[depth] + "]"
            pairs = by_depth[depth] = _Texts(
                lambda k: head + students[k // C] + sep + schools[k % C] + tail
            )
        return _block(list(map(pairs.__getitem__, keys)), depth)

    return render


def _write_spda_trace(fh, problem, trace):
    C = problem.num_schools
    contracts = _contract_lists(
        list(map(_quote, problem.student_ids)), list(map(_quote, problem.school_ids))
    )
    names = [_quote(v) + ": " for v in problem.district_ids]

    def by_id(proposal):
        return problem.district_ids[proposal[0]]

    def steps():
        # the tentative keys, carried from step to step; a step outside
        # ``SpdaStep``'s contract is refused
        held = []
        for i, (proposals, rejected) in enumerate(trace.pairs):
            rejected = sorted([s * C + c for s, c in rejected])
            held += [s * C + c for _, P in proposals for s, c in P]
            held.sort()
            for k in rejected:
                j = bisect_left(held, k)
                if j == len(held) or held[j] != k:
                    raise ValueError(
                        f"SPDA step {i} rejects a contract neither held nor proposed"
                    )
                del held[j]
            yield _block([
                # proposals are new: re-indenting their depth-4 block reuses kept texts
                '"proposals": ' + _block([
                    names[d] + contracts(sorted([s * C + c for s, c in P]), 4).replace("\n", _NL[1])
                    for d, P in sorted(proposals, key=by_id)
                ], 4, "{}"),
                '"rejected": ' + contracts(rejected, 4),
                '"tentative": ' + contracts(held, 4),
            ], 3, "{}")

    _write_doc(fh, "spda", contracts(_pair_keys(trace.outcome, C), 2), steps())


def _write_ttc_trace(fh, problem, trace):
    students = list(map(_quote, problem.student_ids))
    schools = list(map(_quote, problem.school_ids))
    types = list(map(_quote, problem.type_ids))
    slot4, slot5, slot6 = (
        {
            (c, t): _block([school, type_], depth + 1)
            for c, school in enumerate(schools)
            for t, type_ in enumerate(types)
        }
        for depth in (4, 5, 6)
    )
    by_slot = _Texts(lambda e: _block([slot5[e[0]], students[e[1]]], 5))
    by_student = _Texts(lambda e: _block([students[e[0]], slot5[e[1]]], 5))
    outcome = _pair_keys(trace.outcome, len(schools))
    _write_doc(fh, "ttc", _contract_lists(students, schools)(outcome, 2), (
        _block([
            '"active": ' + _block(list(map(slot4.__getitem__, step.active)), 4),
            '"cycles": ' + _block([
                _block([_block([students[s], slot6[p]], 6) for s, p in cycle], 5)
                for cycle in step.cycles
            ], 4),
            '"removed": ' + _block(list(map(slot4.__getitem__, step.removed)), 4),
            '"slot_pointer": ' + _block(list(map(by_slot.__getitem__, step.slot_pointer)), 4),
            '"student_pointer": '
            + _block(list(map(by_student.__getitem__, step.student_pointer)), 4),
        ], 3, "{}")
        for step in trace.steps
    ))


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
    if RuleProperty.ACCOMMODATES_UNMATCHED.value in args.properties:
        _require_rules(inst, RuleProperty.ACCOMMODATES_UNMATCHED.value)
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
            parts = [_contract_set(problem, X) for X in verdict.witness_sets]
            if verdict.witness_contract is not None:
                parts.append("contract " + _pair(problem, verdict.witness_contract))
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
    alpha = inst.alpha if args.alpha is None else parse_fraction(args.alpha)
    report = diversity_condition(problem, ceilings, Fraction(1) if alpha is None else alpha)
    print("district,type,implied_floor,implied_ceiling")
    for d in range(problem.num_districts):
        for t in range(problem.num_types):
            lo, hi = report.bounds[(d, t)]
            print(
                f"{problem.district_ids[d]},{problem.type_ids[t]},{lo},{hi}"
            )
    print("type,district,other,delta")
    for (t, d, d2), delta in report.deltas:
        print(
            f"{problem.type_ids[t]},{problem.district_ids[d]},"
            f"{problem.district_ids[d2]},{format_fraction(delta)}"
        )
    print(f"max_delta,{format_fraction(report.max_delta)}")
    print(f"alpha,{format_fraction(report.alpha)}")
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
            print(f"{_contract_set(problem, value)},{reason}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
