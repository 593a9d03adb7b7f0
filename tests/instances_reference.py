"""The earlier loader, kept as the reference ``districtmatch.instances``
and ``districtmatch.model.validate_problem`` are tested against.

Here the id -> position maps are built twice per load.
``instance_from_dict`` builds the four {id: position} dicts the rules, the
policy and the master list read, and ``validate_problem`` builds its own
``district_index``, ``type_index``, ``school_index`` and ``student_index``,
after a separate ``seen``-set loop for duplicate ids.  A school whose
district is unknown is left out of ``school_index``, so every student who
ranks it is reported as ranking an unknown school.
"""

from __future__ import annotations

from collections.abc import Hashable

from districtmatch.errors import ValidationError
from districtmatch.instances import Instance, _policy_from_dict, _Reader, _rule_from_dict
from districtmatch.model import Problem, ProblemSpec, order_positions


def validate_problem(raw: ProblemSpec) -> Problem:
    issues = []

    for label, ids in (
        ("district", raw.districts),
        ("type", raw.types),
        ("school", [c[0] for c in raw.schools]),
        ("student", [s[0] for s in raw.students]),
    ):
        seen = set()
        for i in ids:
            if i in seen:
                issues.append(("DanglingReference", f"duplicate {label} id {i!r}"))
            seen.add(i)
    if issues:
        raise ValidationError(issues)

    district_index = {d: i for i, d in enumerate(raw.districts)}
    type_index = {t: i for i, t in enumerate(raw.types)}
    school_index = {}
    school_district = []
    capacities = []
    for sid, did, cap in raw.schools:
        if did not in district_index:
            issues.append(
                ("DanglingReference", f"school {sid} references unknown district {did}")
            )
            continue
        if type(cap) is not int:
            issues.append(("DanglingReference", f"school {sid} has non-integer capacity {cap!r}"))
        school_index[sid] = len(school_index)
        school_district.append(district_index[did])
        capacities.append(cap)

    if len(raw.districts) < 2:
        issues.append(("MissingDistrict", "need at least two districts with schools"))
    issues += [
        ("MissingDistrict", f"district {d} has no schools")
        for i, d in enumerate(raw.districts)
        if i not in school_district
    ]

    student_index = {}
    student_district = []
    student_type = []
    preferences = []
    for stid, did, tid, prefs in raw.students:
        if did not in district_index:
            issues.append(
                ("DanglingReference", f"student {stid} references unknown district {did}")
            )
            continue
        if tid not in type_index:
            issues.append(
                ("DanglingReference", f"student {stid} references unknown type {tid}")
            )
            continue
        unknown = [cid for cid in prefs if cid not in school_index]
        if unknown:
            issues.append(
                ("DanglingReference", f"student {stid} ranks unknown school {unknown[0]}")
            )
            continue
        pref_idx = tuple(map(school_index.__getitem__, prefs))
        if order_positions(pref_idx, len(school_index)) is None:
            issues.append(
                (
                    "IncompletePreference",
                    f"student {stid} must rank every school exactly once",
                )
            )
            continue
        student_index[stid] = len(student_index)
        student_district.append(district_index[did])
        student_type.append(type_index[tid])
        preferences.append(pref_idx)

    structural = bool(issues)
    k_district = [0] * len(raw.districts)
    for d in student_district:
        k_district[d] += 1

    issues += [
        ("CapacityShortfall", f"school {sid} has capacity {cap} < 1")
        for sid, cap in zip(school_index, capacities)
        if type(cap) is int and cap < 1
    ]

    if not structural:
        cap_by_district = [0] * len(raw.districts)
        for c, d in enumerate(school_district):
            cap_by_district[d] += capacities[c]
        for i, did in enumerate(raw.districts):
            if k_district[i] > cap_by_district[i]:
                issues.append(
                    (
                        "CapacityShortfall",
                        f"district {did} has {k_district[i]} students but "
                        f"total school capacity {cap_by_district[i]}",
                    )
                )

    initial_school = [None] * len(student_index)
    if not isinstance(raw.initial_matching, dict):
        issues.append(("InfeasibleInitialMatching", "initial_matching is not an object"))
    elif not structural:
        load = [0] * len(school_index)
        for stid, cid in raw.initial_matching.items():
            if stid not in student_index:
                issues.append(
                    ("DanglingReference", f"initial matching names unknown student {stid}")
                )
                continue
            if not isinstance(cid, Hashable) or cid not in school_index:
                issues.append(
                    ("DanglingReference", f"initial matching names unknown school {cid}")
                )
                continue
            initial_school[student_index[stid]] = school_index[cid]
            load[school_index[cid]] += 1
        for stid, idx in student_index.items():
            if initial_school[idx] is None:
                issues.append(
                    ("InfeasibleInitialMatching", f"student {stid} has no initial school")
                )
        for cid, idx in school_index.items():
            if load[idx] > capacities[idx]:
                issues.append(
                    (
                        "InfeasibleInitialMatching",
                        f"school {cid} holds {load[idx]} students initially, "
                        f"capacity {capacities[idx]}",
                    )
                )

    if issues:
        raise ValidationError(issues)

    k_type = [0] * len(raw.types)
    for t in student_type:
        k_type[t] += 1
    district_schools = tuple(
        tuple(c for c, d in enumerate(school_district) if d == i)
        for i in range(len(raw.districts))
    )
    return Problem(
        student_ids=tuple(student_index),
        district_ids=tuple(raw.districts),
        school_ids=tuple(school_index),
        type_ids=tuple(raw.types),
        student_district=tuple(student_district),
        student_type=tuple(student_type),
        preferences=tuple(preferences),
        school_district=tuple(school_district),
        capacities=tuple(capacities),
        initial_school=tuple(initial_school),
        k_district=tuple(k_district),
        k_type=tuple(k_type),
        district_schools=district_schools,
    )


def instance_from_dict(doc: dict) -> Instance:
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
    read.index = {
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
    master = None if master is None else read.master(master, "master_list")
    alpha = None if doc.get("alpha") is None else read.fraction(doc["alpha"], "alpha")
    meta = read.get(doc, "meta", dict, "instance", {})
    if read.issues:
        raise ValidationError(read.issues)
    return Instance(problem, rules, policy, master, alpha, dict(meta))
