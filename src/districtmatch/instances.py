"""Instance file schema: JSON in, validated objects out, and back.

Rationals are "p/q" strings; the schema contains no floats.  Serialization
is deterministic (sorted keys, fixed field order) so reports built from a
round-tripped instance are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .model import Distribution, Problem, ProblemSpec, validate_problem
from .policy import GoalForm, PolicyFunction, PolicyGoal
from .rules import RuleKind, RuleSpec, make_rule


@dataclass(frozen=True)
class Instance:
    problem: Problem
    rules: dict  # district index -> RuleSpec
    policy: Optional[PolicyGoal]
    master: Optional[tuple]
    alpha: Optional[Fraction]
    meta: dict


def parse_fraction(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or "." in text:
        raise ValidationError([("DanglingReference", f"rationals are p/q strings: {text!r}")])
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError([("DanglingReference", f"bad rational {text!r}: {exc}")])


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                [("DanglingReference", f"malformed JSON at line {exc.lineno}: {exc.msg}")]
            )
    return instance_from_dict(doc)


def _pair_map(section, cidx, tidx):
    """A school -> type -> count section as a (school, type) -> int dict."""
    out = {}
    for school, per_type in (section or {}).items():
        for type_, value in per_type.items():
            out[(cidx[school], tidx[type_])] = int(value)
    return out


def _rule_issues(i, r, sidx, schools_of, capacity, tidx):
    """Why a rule section cannot be evaluated: it is not an object; it names
    an unknown district, kind, student, school or type; a count in it is not
    an integer; its school order or a priority list does not fit its district
    and the students; or its reserves exceed a school's capacity or a ceiling."""
    if not isinstance(r, dict):
        return [("InvalidRule", f"rule {i + 1} is not an object")]
    where = f"rule for district {r.get('district')}"
    priorities = r.get("priorities", {})
    issues = [
        ("DanglingReference", f"{where}: priority at school {c} names unknown student {s!r}")
        for c, order in priorities.items()
        for s in order
        if s not in sidx
    ]
    kinds = [k.value for k in RuleKind]
    if r.get("kind") not in kinds:
        issues.append(("InvalidRule", f"{where} has unknown kind {r.get('kind')!r}"))
    cap = r.get("district_cap")
    if cap is not None and type(cap) is not int:
        issues.append(("InvalidRule", f"{where} has non-integer district_cap {cap!r}"))
    counts = {name: r.get(name) or {} for name in ("reserves", "ceilings")}
    malformed = [
        ("InvalidRule", f"{where}: {name} at {c!r} need a known school and integer type counts")
        for name, section in counts.items()
        for c, per_type in section.items()
        if c not in capacity or not isinstance(per_type, dict)
        or not all(t in tidx and type(v) is int for t, v in per_type.items())
    ]
    issues += malformed
    if r.get("kind") == RuleKind.RESERVES_AND_CEILINGS.value and not malformed:
        for c, per_type in counts["reserves"].items():
            if sum(per_type.values()) > capacity[c]:
                issues.append(("InvalidRule", f"{where}: reserves at school {c} exceed capacity"))
            ceiling = counts["ceilings"].get(c, {})
            issues += [
                ("InvalidRule", f"{where}: reserve for type {t} exceeds its ceiling at school {c}")
                for t, v in per_type.items()
                if v > ceiling.get(t, v)
            ]
    if r.get("district") not in schools_of:
        issues.append(("DanglingReference", f"{where}: unknown district"))
    elif r.get("kind") in kinds and r["kind"] != RuleKind.EXPLICIT_TABLE.value:
        order = r.get("school_order", [])
        if sorted(order) != schools_of[r["district"]]:
            issues.append(
                ("InvalidRule", f"{where}: school_order must cover exactly its district's schools")
            )
        issues += [
            ("InvalidRule", f"{where}: no priority list for school {c}")
            for c in order
            if c not in priorities
        ]
        for c, ranked in priorities.items():
            names = set(ranked)
            if names <= sidx.keys() and not len(ranked) == len(names) == len(sidx):
                message = f"{where}: priority at school {c} does not rank every student once"
                issues.append(("InvalidRule", message))
    return issues


def instance_from_dict(doc: dict) -> Instance:
    for section in ("types", "districts", "schools", "students", "initial_matching"):
        if section not in doc:
            raise ValidationError(
                [("DanglingReference", f"missing section {section!r}")]
            )
    given = [(c.get("id"), c.get("capacity")) for c in doc["schools"]]
    issues = [
        ("DanglingReference", f"school {c} has non-integer capacity {q!r}")
        for c, q in given
        if type(q) is not int
    ]
    if not isinstance(doc["initial_matching"], dict):
        issues.append(("InfeasibleInitialMatching", "initial_matching is not an object"))
    if issues:
        raise ValidationError(issues)
    spec = ProblemSpec(
        types=tuple(doc["types"]),
        districts=tuple(doc["districts"]),
        schools=tuple(
            (c["id"], c["district"], int(c["capacity"])) for c in doc["schools"]
        ),
        students=tuple(
            (s["id"], s["district"], s["type"], tuple(s["preferences"]))
            for s in doc["students"]
        ),
        initial_matching=dict(doc["initial_matching"]),
    )
    problem = validate_problem(spec)

    sidx = {v: i for i, v in enumerate(problem.student_ids)}
    cidx = {v: i for i, v in enumerate(problem.school_ids)}
    didx = {v: i for i, v in enumerate(problem.district_ids)}
    tidx = {v: i for i, v in enumerate(problem.type_ids)}

    capacity = dict(zip(problem.school_ids, problem.capacities))
    schools_of = {
        d: sorted(problem.school_ids[c] for c in problem.district_schools[i])
        for i, d in enumerate(problem.district_ids)
    }
    issues = [
        issue
        for i, r in enumerate(doc.get("rules", []))
        for issue in _rule_issues(i, r, sidx, schools_of, capacity, tidx)
    ]
    if issues:
        raise ValidationError(issues)
    rules = {}
    for r in doc.get("rules", []):
        d = didx[r["district"]]
        kind = RuleKind(r["kind"])
        table = []
        for entry in r.get("table", []):
            key = frozenset(
                problem.contract(sidx[s], cidx[c]) for s, c in entry["set"]
            )
            value = frozenset(
                problem.contract(sidx[s], cidx[c]) for s, c in entry["chosen"]
            )
            table.append((key, value))
        rules[d] = make_rule(
            district=d,
            kind=kind,
            school_order=tuple(cidx[c] for c in r.get("school_order", [])),
            priorities={
                cidx[c]: tuple(sidx[s] for s in order)
                for c, order in r.get("priorities", {}).items()
            },
            reserves=_pair_map(r.get("reserves"), cidx, tidx),
            ceilings=_pair_map(r.get("ceilings"), cidx, tidx),
            type_order=tuple(tidx[t] for t in r.get("type_order", [])),
            district_cap=r.get("district_cap"),
            table=tuple(table),
            district_ceilings={
                tidx[t]: int(q) for t, q in r.get("district_ceilings", {}).items()
            },
            problem=problem,
        )

    policy = None
    if "policy" in doc and doc["policy"] is not None:
        policy = _policy_from_dict(doc["policy"], problem, cidx, tidx, didx)

    master = None
    if doc.get("master_list"):
        master = tuple(sidx[s] for s in doc["master_list"])

    alpha = parse_fraction(doc["alpha"]) if doc.get("alpha") else None

    return Instance(
        problem=problem,
        rules=rules,
        policy=policy,
        master=master,
        alpha=alpha,
        meta=dict(doc.get("meta", {})),
    )


def _policy_from_dict(doc, problem, cidx, tidx, didx) -> PolicyGoal:
    form = GoalForm(doc["form"])

    if form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
        return PolicyGoal(
            form=form,
            floors=tuple(sorted(_pair_map(doc.get("floors"), cidx, tidx).items())),
            ceilings=tuple(sorted(_pair_map(doc.get("ceilings"), cidx, tidx).items())),
            intersect_xi0=bool(doc.get("intersect_xi0", False)),
        )
    if form is GoalForm.BALANCED_EXCHANGE:
        return PolicyGoal(form=form, intersect_xi0=bool(doc.get("intersect_xi0", False)))
    if form is GoalForm.DISTRICT_CEILINGS:
        out = {}
        for district, per_type in (doc.get("ceilings") or {}).items():
            for type_, value in per_type.items():
                out[(didx[district], tidx[type_])] = int(value)
        return PolicyGoal(
            form=form,
            district_ceilings=tuple(sorted(out.items())),
            intersect_xi0=bool(doc.get("intersect_xi0", False)),
        )
    if form is GoalForm.EXPLICIT_SET:
        members = []
        for entry in doc.get("distributions", []):
            rows = [[0] * problem.num_types for _ in range(problem.num_schools)]
            for school, per_type in entry.items():
                for type_, value in per_type.items():
                    rows[cidx[school]][tidx[type_]] = int(value)
            members.append(Distribution(tuple(tuple(r) for r in rows)))
        return PolicyGoal(
            form=form,
            explicit=frozenset(members),
            intersect_xi0=bool(doc.get("intersect_xi0", False)),
        )
    if form is GoalForm.F_LAMBDA:
        fdoc = doc["f"]
        if fdoc["kind"] == "manhattan_ideal":
            rows = [[0] * problem.num_types for _ in range(problem.num_schools)]
            for school, per_type in fdoc["ideal"].items():
                for type_, value in per_type.items():
                    rows[cidx[school]][tidx[type_]] = int(value)
            fn = PolicyFunction(
                kind="manhattan_ideal",
                ideal=Distribution(tuple(tuple(r) for r in rows)),
            )
        else:
            raise ValidationError(
                [("DanglingReference", f"unsupported policy function {fdoc['kind']!r}")]
            )
        return PolicyGoal(
            form=form,
            fn=fn,
            threshold=parse_fraction(doc["lambda"]),
            intersect_xi0=bool(doc.get("intersect_xi0", False)),
        )
    raise ValidationError([("DanglingReference", f"unknown policy form {doc['form']!r}")])


def instance_to_dict(inst: Instance) -> dict:
    problem = inst.problem
    doc = {
        "meta": dict(inst.meta),
        "types": list(problem.type_ids),
        "districts": list(problem.district_ids),
        "schools": [
            {
                "id": problem.school_ids[c],
                "district": problem.district_ids[problem.school_district[c]],
                "capacity": problem.capacities[c],
            }
            for c in range(problem.num_schools)
        ],
        "students": [
            {
                "id": problem.student_ids[s],
                "district": problem.district_ids[problem.student_district[s]],
                "type": problem.type_ids[problem.student_type[s]],
                "preferences": [problem.school_ids[c] for c in problem.preferences[s]],
            }
            for s in range(problem.num_students)
        ],
        "initial_matching": {
            problem.student_ids[s]: problem.school_ids[problem.initial_school[s]]
            for s in range(problem.num_students)
        },
    }
    if inst.rules:
        doc["rules"] = [
            _rule_to_dict(inst.rules[d], problem) for d in sorted(inst.rules)
        ]
    if inst.policy is not None:
        doc["policy"] = _policy_to_dict(inst.policy, problem)
    if inst.master is not None:
        doc["master_list"] = [problem.student_ids[s] for s in inst.master]
    if inst.alpha is not None:
        doc["alpha"] = format_fraction(inst.alpha)
    return doc


def _rule_to_dict(rule: RuleSpec, problem: Problem) -> dict:
    def pair_section(pairs):
        out = {}
        for (c, t), v in pairs:
            out.setdefault(problem.school_ids[c], {})[problem.type_ids[t]] = v
        return out

    doc = {
        "district": problem.district_ids[rule.district],
        "kind": rule.kind.value,
    }
    if rule.school_order:
        doc["school_order"] = [problem.school_ids[c] for c in rule.school_order]
    if rule.priorities:
        doc["priorities"] = {
            problem.school_ids[c]: [problem.student_ids[s] for s in order]
            for c, order in rule.priorities
        }
    if rule.reserves:
        doc["reserves"] = pair_section(rule.reserves)
    if rule.ceilings:
        doc["ceilings"] = pair_section(rule.ceilings)
    if rule.type_order:
        doc["type_order"] = [problem.type_ids[t] for t in rule.type_order]
    if rule.district_cap is not None:
        doc["district_cap"] = rule.district_cap
    if rule.table:
        doc["table"] = [
            {
                "set": [
                    [problem.student_ids[x.student], problem.school_ids[x.school]]
                    for x in sorted(key)
                ],
                "chosen": [
                    [problem.student_ids[x.student], problem.school_ids[x.school]]
                    for x in sorted(value)
                ],
            }
            for key, value in rule.table
        ]
    if rule.district_ceilings:
        doc["district_ceilings"] = {
            problem.type_ids[t]: q for t, q in rule.district_ceilings
        }
    return doc


def _policy_to_dict(goal: PolicyGoal, problem: Problem) -> dict:
    doc = {"form": goal.form.value}
    if goal.intersect_xi0:
        doc["intersect_xi0"] = True

    def pair_section(pairs):
        out = {}
        for (c, t), v in pairs:
            out.setdefault(problem.school_ids[c], {})[problem.type_ids[t]] = v
        return out

    if goal.form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
        if goal.floors:
            doc["floors"] = pair_section(goal.floors)
        if goal.ceilings:
            doc["ceilings"] = pair_section(goal.ceilings)
    elif goal.form is GoalForm.DISTRICT_CEILINGS:
        out = {}
        for (d, t), v in goal.district_ceilings:
            out.setdefault(problem.district_ids[d], {})[problem.type_ids[t]] = v
        doc["ceilings"] = out
    elif goal.form is GoalForm.EXPLICIT_SET:
        doc["distributions"] = [
            {
                problem.school_ids[c]: {
                    problem.type_ids[t]: xi.counts[c][t]
                    for t in range(problem.num_types)
                    if xi.counts[c][t]
                }
                for c in range(problem.num_schools)
                if any(xi.counts[c])
            }
            for xi in sorted(goal.explicit, key=lambda x: x.flat())
        ]
    elif goal.form is GoalForm.F_LAMBDA:
        ideal = goal.fn.ideal
        doc["f"] = {
            "kind": "manhattan_ideal",
            "ideal": {
                problem.school_ids[c]: {
                    problem.type_ids[t]: ideal.counts[c][t]
                    for t in range(problem.num_types)
                    if ideal.counts[c][t]
                }
                for c in range(problem.num_schools)
                if any(ideal.counts[c])
            },
        }
        doc["lambda"] = format_fraction(goal.threshold)
    return doc


def dump_instance(inst: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def distribution_csv(xi: Distribution, problem: Problem) -> str:
    """School-by-type count matrix as CSV, one row per school."""
    header = "school," + ",".join(problem.type_ids)
    rows = [
        problem.school_ids[c] + "," + ",".join(str(v) for v in xi.counts[c])
        for c in range(problem.num_schools)
    ]
    return "\n".join([header] + rows) + "\n"
