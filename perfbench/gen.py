"""Seeded market generator for the benchmark.

A scaled-up version of the test suite's ``random_problem``: any number of
students, districts, schools and types, correlated preferences, a capacity
slack knob, and optional admissions rules, a school-level ceilings policy and
a master list.  Markets are written as instance JSON; the program under test
only ever sees those files.

Every market is a pure function of ``(seed, name, index)``.  The city (school
qualities and each district's type mix) depends on the name only: a workload
is one school system, and the seed draws its cohorts of students (homes,
types, preferences, priorities, master list).  Fixing the city keeps the
per-market cost steadier across seeds, so seed-to-seed spread stays inside
the benchmark's bounds.  City, structure, preferences and priorities draw
from independent streams, each seeded from a string (``random.Random``
hashes strings with SHA-512, not ``hash()``), so the output does not depend
on ``PYTHONHASHSEED`` and adding draws to one stream does not shift the
others.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

HOME_BONUS = 0.8  # utility bonus for schools in the student's home district

RULE_KINDS = (
    "sequential_responsive",
    "initial_respecting",
    "rationed_sequential",
    "reserves_and_ceilings",
)


@dataclass(frozen=True)
class MarketParams:
    students: int
    districts: int
    schools: int
    types: int
    correlation: float = 0.6  # weight of shared school quality in utilities
    slack: float = 0.05  # total capacity above enrolment, as a share
    rule_kinds: tuple = ()  # one rule kind per district, cycled; () = no rules
    ceilings_policy: bool = False  # school-type ceilings = initial count + 1
    master: str = "none"  # "none", "file" (file order) or "random"


def streams(seed: int, name: str, index: int) -> dict:
    """Independent RNG streams for one market; the city's depends on the
    name only."""
    out = {
        part: random.Random(f"{seed}/{name}/{index}/{part}")
        for part in ("structure", "preferences", "priorities")
    }
    out["city"] = random.Random(f"{name}/city")
    return out


def generate(params: MarketParams, seed: int, name: str, index: int) -> dict:
    """One market as an instance document."""
    rng = streams(seed, name, index)
    struct, prefs_rng, prio_rng, city = (
        rng["structure"],
        rng["preferences"],
        rng["priorities"],
        rng["city"],
    )
    p = params
    districts = [f"d{i + 1}" for i in range(p.districts)]
    types = [f"t{i + 1}" for i in range(p.types)]
    school_ids = [f"c{i + 1}" for i in range(p.schools)]
    school_district = [districts[i % p.districts] for i in range(p.schools)]

    # home districts spread evenly; each district has its own type mix
    home = [districts[i % p.districts] for i in range(p.students)]
    struct.shuffle(home)
    mix = {d: [city.random() + 0.2 for _ in types] for d in districts}
    student_type = [struct.choices(types, weights=mix[d])[0] for d in home]

    # per-district capacity covers its own students, plus the slack overall
    caps = [0] * p.schools
    extra = math.ceil(p.slack * p.students)
    for d in districts:
        idxs = [i for i, a in enumerate(school_district) if a == d]
        need = home.count(d) + extra // p.districts
        for k in range(need):
            caps[idxs[k % len(idxs)]] += 1
    for i in range(p.schools):
        caps[i] = max(caps[i], 1)

    # utilities: shared quality + own taste + home-district bonus
    quality = [city.gauss(0, 1) for _ in school_ids]
    preferences = []
    for s in range(p.students):
        util = [
            p.correlation * quality[c]
            + (1 - p.correlation) * prefs_rng.gauss(0, 1)
            + (HOME_BONUS if school_district[c] == home[s] else 0.0)
            for c in range(p.schools)
        ]
        preferences.append(sorted(range(p.schools), key=lambda c: -util[c]))

    # initial matching: students in random order take their most preferred
    # home school with room
    load = [0] * p.schools
    initial = [None] * p.students
    order = list(range(p.students))
    struct.shuffle(order)
    for s in order:
        for c in preferences[s]:
            if school_district[c] == home[s] and load[c] < caps[c]:
                initial[s] = c
                load[c] += 1
                break

    student_ids = [f"s{i + 1}" for i in range(p.students)]
    doc = {
        "meta": {"name": f"{name}-{seed}-{index}", "generator": "perfbench"},
        "types": types,
        "districts": districts,
        "schools": [
            {"id": school_ids[c], "district": school_district[c], "capacity": caps[c]}
            for c in range(p.schools)
        ],
        "students": [
            {
                "id": student_ids[s],
                "district": home[s],
                "type": student_type[s],
                "preferences": [school_ids[c] for c in preferences[s]],
            }
            for s in range(p.students)
        ],
        "initial_matching": {
            student_ids[s]: school_ids[initial[s]] for s in range(p.students)
        },
    }

    if p.rule_kinds:
        # school priorities: shared merit plus noise, own-district students
        # slightly ahead
        merit = [prio_rng.gauss(0, 1) for _ in range(p.students)]
        rules = []
        for di, d in enumerate(districts):
            kind = p.rule_kinds[di % len(p.rule_kinds)]
            own = [c for c in range(p.schools) if school_district[c] == d]
            prio_rng.shuffle(own)
            priorities = {}
            for c in own:
                score = [
                    merit[s] + prio_rng.gauss(0, 1) + (0.5 if home[s] == d else 0.0)
                    for s in range(p.students)
                ]
                ranked = sorted(range(p.students), key=lambda s: -score[s])
                priorities[school_ids[c]] = [student_ids[s] for s in ranked]
            rule = {
                "district": d,
                "kind": kind,
                "school_order": [school_ids[c] for c in own],
                "priorities": priorities,
            }
            if kind == "reserves_and_ceilings":
                share = _type_shares(home, student_type, d, types)
                reserves, ceilings = {}, {}
                for c in own:
                    r = {t: int(caps[c] * share[t] * 0.5) for t in types}
                    q = {t: max(r[t], math.ceil(caps[c] * min(1.0, share[t] * 1.5))) for t in types}
                    reserves[school_ids[c]] = {t: v for t, v in r.items() if v}
                    ceilings[school_ids[c]] = q
                rule["type_order"] = list(types)
                rule["reserves"] = {c: v for c, v in reserves.items() if v}
                rule["ceilings"] = ceilings
            rules.append(rule)
        doc["rules"] = rules

    if p.ceilings_policy:
        counts = {}
        for s in range(p.students):
            key = (school_ids[initial[s]], student_type[s])
            counts[key] = counts.get(key, 0) + 1
        doc["policy"] = {
            "form": "school_diversity",
            "ceilings": {
                c: {t: counts.get((c, t), 0) + 1 for t in types} for c in school_ids
            },
        }

    if p.master == "file":
        doc["master_list"] = list(student_ids)
    elif p.master == "random":
        master = list(student_ids)
        prio_rng.shuffle(master)
        doc["master_list"] = master
    return doc


def district_ceilings_variant(doc: dict, district: str) -> dict:
    """The same market under district-level type ceilings on one district:
    each type capped at its count among the district's own students."""
    variant = {k: v for k, v in doc.items() if k not in ("policy", "rules")}
    variant["meta"] = dict(doc["meta"], variant="district_ceilings")
    counts = {t: 0 for t in doc["types"]}
    for s in doc["students"]:
        if s["district"] == district:
            counts[s["type"]] += 1
    variant["policy"] = {
        "form": "district_ceilings",
        "ceilings": {district: {t: max(1, n) for t, n in counts.items()}},
    }
    return variant


def _type_shares(home, student_type, district, types):
    mine = [t for h, t in zip(home, student_type) if h == district]
    return {t: (mine.count(t) / len(mine) if mine else 0.0) for t in types}


def dumps(doc: dict) -> str:
    """Canonical bytes of an instance document."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write(doc: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
