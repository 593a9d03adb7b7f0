"""Instance file schema: JSON in, validated objects out.

Rationals are "p/q" strings; the schema contains no floats.  Loading checks
every section in one pass and raises one ValidationError listing every
issue found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .model import Distribution, Problem, ProblemSpec, validate_problem
from .policy import GoalForm, PolicyFunction, PolicyGoal, misordered_floors
from .rules import RuleKind, RuleSpec, make_rule, rule_issues


@dataclass(frozen=True)
class Instance:
    problem: Problem
    rules: dict  # district index -> RuleSpec
    policy: Optional[PolicyGoal]
    master: Optional[tuple]
    alpha: Optional[Fraction]
    meta: dict


def parse_fraction(text) -> Fraction:
    if type(text) is int:
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
            issue = f"malformed JSON at line {exc.lineno}: {exc.msg}"
        except UnicodeDecodeError as exc:
            issue = f"instance is not UTF-8: {exc.reason} at byte {exc.start}"
        except RecursionError:
            issue = "malformed JSON: nested too deeply"
        else:
            return instance_from_dict(doc)
    raise ValidationError([("DanglingReference", issue)])


class _Reader:
    """Reads the sections of an instance document, noting every issue it
    meets instead of stopping at the first.  ``index`` maps each kind of id
    (type, district, school, student) to its {id: position} in file order."""

    JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}
    # the keys each object allows, by section (a list's objects by the list's
    # field); ``meta`` is free-form and id-keyed sections are checked by id
    KEYS = {
        "instance": {
            "types", "districts", "schools", "students", "initial_matching",
            "rules", "policy", "master_list", "alpha", "meta",
        },
        "schools": {"id", "district", "capacity"},
        "students": {"id", "district", "type", "preferences"},
        "rules": {
            "district", "kind", "priorities", "table", "school_order", "reserves",
            "ceilings", "type_order", "district_cap", "district_ceilings",
        },
        "table": {"set", "chosen"},
        "policy": {"form", "intersect_xi0", "floors", "ceilings", "distributions", "f", "lambda"},
        "f": {"kind", "ideal"},
    }

    def __init__(self, index, code="DanglingReference"):
        self.index = index
        self.code = code
        self.issues = []

    def note(self, message, code=None):
        self.issues.append((code or self.code, message))

    def keys(self, doc, section, owner):
        """Notes each key of the object ``doc`` that ``section`` does not allow."""
        for key in doc:
            if key not in self.KEYS[section]:
                self.note(f"{owner} has unknown key {key!r}", "UnknownKey")

    def get(self, doc, field, kind, owner, default=None):
        """``doc[field]`` if it has the JSON type ``kind`` (booleans are not
        integers), else ``default``; an absent or null field is no issue."""
        value = doc.get(field)
        if value is None:
            return default
        if type(value) is kind or kind not in (int, bool) and isinstance(value, kind):
            return value
        self.note(f"{owner} has non-{self.JSON_TYPES[kind]} {field} {value!r}")
        return default

    def need(self, doc, field, kind, owner):
        """``get`` for a field that must be present."""
        if doc.get(field) is None:
            self.note(f"{owner} has no {field}")
        return self.get(doc, field, kind, owner)

    def strings(self, doc, fields, owner):
        """The string fields ``fields`` of ``doc``, each of which must be present."""
        values = tuple(map(doc.get, fields))
        if set(map(type, values)) <= {str}:
            return values
        return tuple(self.need(doc, field, str, owner) for field in fields)

    def names(self, doc, field, owner):
        """The list of strings ``doc[field]`` as a tuple, None for any other entry."""
        values = tuple(self.get(doc, field, list, owner, ()))
        if not set(map(type, values)) <= {str}:
            bad = next(v for v in values if type(v) is not str)
            self.note(f"{owner} has non-string {field} entry {bad!r}")
            values = tuple(v if type(v) is str else None for v in values)
        return values

    def objects(self, doc, field, owner, label):
        """The object entries of the list ``doc[field]``, each named by ``label``
        and its id or else its position; any other entry is an issue."""
        for i, entry in enumerate(self.get(doc, field, list, owner, [])):
            if isinstance(entry, dict):
                name = entry.get("id")
                name = f"{label} {name if isinstance(name, str) else i + 1}"
                self.keys(entry, field, name)
                yield name, entry
            else:
                self.note(f"{label} {i + 1} is not an object")

    def find(self, what, key):
        return self.index[what].get(key) if isinstance(key, str) else None

    def ref(self, what, key, where):
        return self.ids((key,), what, where)[0]

    def ids(self, values, what, where):
        """The positions of the ``what`` ids ``values``; None, and an issue,
        for each id the file does not define."""
        try:
            positions = tuple(map(self.index[what].get, values))
        except TypeError:  # an unhashable value
            positions = tuple(self.find(what, v) for v in values)
        if None in positions:
            for v, position in zip(values, positions):
                if position is None:
                    self.note(f"{where} names unknown {what} {v!r}", "DanglingReference")
        return positions

    def master(self, names, where):
        """The student positions of a master list, which must order every
        student exactly once."""
        order = self.ids(names, "student", where)
        if None not in order and sorted(order) != sorted(self.index["student"].values()):
            self.note(f"{where} must order every student exactly once")
        return order

    def id_list(self, doc, field, what, owner):
        """The positions of the ``what`` ids in the list ``doc[field]``."""
        return self.ids(self.get(doc, field, list, owner, []), what, f"{owner}: {field}")

    def counts(self, section, rows, where):
        """A ``rows`` id -> type id -> integer section as a {(row, type):
        count} dict; each row that does not resolve is one issue."""
        if section is not None and not isinstance(section, dict):
            self.note(f"{where} is not an object")
        out = {}
        for row, per_type in (section if isinstance(section, dict) else {}).items():
            r, ok = self.find(rows, row), isinstance(per_type, dict)
            got = {(r, self.find("type", t)): v for t, v in per_type.items()} if ok else {}
            if not ok or r is None or any(None in k or type(v) is not int for k, v in got.items()):
                self.note(f"{where} at {row!r} need a known {rows} and integer type counts")
            else:
                out.update(got)
        return out

    def distribution(self, section, where):
        counts = self.counts(section, "school", where)
        schools, types = (range(len(self.index[k])) for k in ("school", "type"))
        return Distribution(tuple(tuple(counts.get((c, t), 0) for t in types) for c in schools))

    def fraction(self, value, where):
        try:
            return parse_fraction(value)
        except ValidationError as exc:
            self.issues += [(code, f"{where}: {message}") for code, message in exc.issues]


def master_order(names, problem: Problem, where: str) -> tuple:
    """The student indices of a master list of student ids; a ValidationError
    names each unknown student, or a list that does not order every student
    exactly once, as for the instance's ``master_list``."""
    read = _Reader({"student": {v: i for i, v in enumerate(problem.student_ids)}})
    order = read.master(names, where)
    if read.issues:
        raise ValidationError(read.issues)
    return order


def instance_from_dict(doc: dict) -> Instance:
    """Check every section of ``doc`` and build the instance.  The problem's
    own structure is ``validate_problem``'s to check, a rule's invariants
    ``rule_issues``'s; one ValidationError lists every issue found."""
    if not isinstance(doc, dict):
        raise ValidationError([("DanglingReference", "an instance is a JSON object")])
    read = _Reader({})
    read.keys(doc, "instance", "instance")
    for section in ("types", "districts", "schools", "students", "initial_matching"):
        if section not in doc:
            read.note(f"missing section {section!r}")
    types = read.names(doc, "types", "instance")
    districts = read.names(doc, "districts", "instance")
    schools = tuple(
        (*read.strings(c, ("id", "district"), owner), c.get("capacity"))
        for owner, c in read.objects(doc, "schools", "instance", "school")
    )
    students = tuple(
        (*read.strings(s, ("id", "district", "type"), owner), read.names(s, "preferences", owner))
        for owner, s in read.objects(doc, "students", "instance", "student")
    )
    read.index = {  # a malformed id reads as None, which is no key
        "type": {t: i for i, t in enumerate(types) if t is not None},
        "district": {d: i for i, d in enumerate(districts) if d is not None},
        "school": {c[0]: i for i, c in enumerate(schools) if c[0] is not None},
        "student": {s[0]: i for i, s in enumerate(students) if s[0] is not None},
    }
    problem = None
    if not read.issues:
        spec = ProblemSpec(types, districts, schools, students, doc["initial_matching"])
        try:
            problem = validate_problem(spec)
        except ValidationError as exc:
            read.issues += exc.issues

    rules, ruled = {}, set()
    for _, r in read.objects(doc, "rules", "instance", "rule"):
        rule = _rule_from_dict(read, r, ruled, problem)
        if rule is not None:
            rules[rule.district] = rule
    policy = read.get(doc, "policy", dict, "instance")
    if policy is not None:
        policy = _policy_from_dict(read, policy)
    master = read.get(doc, "master_list", list, "instance")
    master = read.master(master, "master_list") if master else None
    alpha = None if doc.get("alpha") in (None, 0) else read.fraction(doc["alpha"], "alpha")
    meta = read.get(doc, "meta", dict, "instance", {})
    if read.issues:
        raise ValidationError(read.issues)
    return Instance(problem, rules, policy, master, alpha, dict(meta))


def _rule_from_dict(read, r, ruled, problem) -> Optional[RuleSpec]:
    """The rule of one rules entry, checked against the problem if the entry
    reads without issue; None if anything is amiss.  ``ruled`` holds the
    districts of the entries read so far: a second rule for one is an issue."""
    where = f"rule for district {r.get('district')}"
    sub = _Reader(read.index, "InvalidRule")
    district = sub.find("district", r.get("district"))
    if district is None:
        sub.note(f"{where}: unknown district", "DanglingReference")
    elif district in ruled:
        sub.note(f"{where}: the district already has a rule")
    ruled.add(district)
    kind = next((k for k in RuleKind if k.value == r.get("kind")), None)
    if kind is None:
        sub.note(f"{where} has unknown kind {r.get('kind')!r}")
    priorities = {}
    for c, order in sub.get(r, "priorities", dict, where, {}).items():
        owner = f"{where}: priority at school {c}"
        if isinstance(order, list):
            priorities[sub.ref("school", c, owner)] = sub.ids(order, "student", owner)
        else:
            sub.note(f"{owner} is not a list")
    table = []  # a malformed pair is noted and stands as None: the rule is then dropped
    for owner, entry in sub.objects(r, "table", where, f"{where}: table entry"):
        table.append([
            [
                (sub.ref("student", p[0], owner), sub.ref("school", p[1], owner))
                if isinstance(p, list) and len(p) == 2
                else sub.note(f"{owner} has {side} entry {p!r}, not a [student, school] pair")
                for p in sub.need(entry, side, list, owner) or ()
            ]
            for side in ("set", "chosen")
        ])
    ceilings = sub.get(r, "district_ceilings", dict, where, {})
    owner = f"{where}: district_ceilings"
    fields = dict(
        school_order=sub.id_list(r, "school_order", "school", where),
        reserves=sub.counts(r.get("reserves"), "school", f"{where}: reserves"),
        ceilings=sub.counts(r.get("ceilings"), "school", f"{where}: ceilings"),
        type_order=sub.id_list(r, "type_order", "type", where),
        district_cap=sub.get(r, "district_cap", int, where),
        district_ceilings={
            sub.ref("type", t, owner): sub.need(ceilings, t, int, owner) for t in ceilings
        },
    )
    read.issues += sub.issues
    if sub.issues or problem is None:
        return None
    table = [
        tuple(frozenset(problem.contract(s, c) for s, c in pairs) for pairs in entry)
        for entry in table
    ]
    rule = make_rule(district, kind, priorities=priorities, table=table, **fields)
    read.issues += rule_issues(rule, problem)
    return rule


def _policy_from_dict(read, doc) -> Optional[PolicyGoal]:
    read.keys(doc, "policy", "policy")
    form = next((f for f in GoalForm if f.value == doc.get("form")), None)
    if form is None:
        read.note(f"policy has unknown form {doc.get('form')!r}")
        return None
    goal = {"intersect_xi0": read.get(doc, "intersect_xi0", bool, "policy", False)}
    if form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
        for field in ("floors", "ceilings"):
            counts = read.counts(doc.get(field), "school", f"policy: {field}")
            goal[field] = tuple(sorted(counts.items()))
        _note_misordered(read, "school", goal["floors"], goal["ceilings"])
    elif form is GoalForm.DISTRICT_CEILINGS:
        counts = read.counts(doc.get("ceilings"), "district", "policy: ceilings")
        goal["district_ceilings"] = tuple(sorted(counts.items()))
        _note_misordered(read, "district", (), goal["district_ceilings"])
    elif form is GoalForm.EXPLICIT_SET:
        goal["explicit"] = frozenset(
            read.distribution(entry, f"policy: distribution {i + 1}")
            for i, entry in enumerate(read.get(doc, "distributions", list, "policy", []))
        )
    elif form is GoalForm.F_LAMBDA:
        fdoc = read.need(doc, "f", dict, "policy") or {"kind": "manhattan_ideal", "ideal": {}}
        read.keys(fdoc, "f", "policy f")
        if fdoc.get("kind") != "manhattan_ideal":
            read.note(f"unsupported policy function {fdoc.get('kind')!r}")
        ideal = read.distribution(read.need(fdoc, "ideal", dict, "policy f"), "policy f: ideal")
        goal["fn"] = PolicyFunction(kind="manhattan_ideal", ideal=ideal)
        goal["threshold"] = read.fraction(doc.get("lambda"), "policy lambda")
    return PolicyGoal(form=form, **goal)


def _note_misordered(read, rows, floors, ceilings):
    """Notes each floor that is negative or above its ceiling, and each
    negative ceiling, of the ((row, type), count) pairs, by their ids."""
    ids = {k: {i: v for v, i in read.index[k].items()} for k in (rows, "type")}
    misordered = misordered_floors(floors, ceilings)
    bad = [("floor", k, "is negative or above its ceiling") for k in misordered]
    bad += [("ceiling", k, "is negative") for k in misordered_floors(ceilings, ())]
    for what, (r, t), why in bad:
        read.note(f"policy: {what} at {rows} {ids[rows][r]!r}, type {ids['type'][t]!r} {why}")
