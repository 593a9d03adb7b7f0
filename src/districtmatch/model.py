"""Core market model: problems, contracts, matchings, and distributions.

All identifiers coming from instance files are opaque strings.  Validation
assigns each entity an index in file order, and every algorithm in the
package works on those indices, so runs are byte-reproducible.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from .errors import ValidationError


class Contract(NamedTuple):
    """A (student, district, school) triple; the district is d(school)."""

    student: int
    district: int
    school: int


Matching = frozenset  # of Contract


@dataclass(frozen=True)
class ProblemSpec:
    """Raw, id-based description of a market, as read from an instance file."""

    types: tuple
    districts: tuple
    schools: tuple  # of (school_id, district_id, capacity)
    students: tuple  # of (student_id, district_id, type_id, preference list)
    initial_matching: dict  # student_id -> school_id


@dataclass(frozen=True)
class Problem:
    """A validated, immutable market instance.

    Index-based fields are aligned with the id tuples; ``k_district`` and
    ``k_type`` are the per-home-district and per-type student counts, cached
    here because nearly every policy check needs them.
    """

    student_ids: tuple
    district_ids: tuple
    school_ids: tuple
    type_ids: tuple
    student_district: tuple  # home district index per student
    student_type: tuple  # type index per student
    preferences: tuple  # per student: tuple of school indices, best first
    school_district: tuple  # district index per school
    capacities: tuple  # per school
    initial_school: tuple  # per student
    k_district: tuple = field(default=())
    k_type: tuple = field(default=())
    district_schools: tuple = field(default=())
    rank: tuple = field(default=())  # rank[s][c] = position of c in s's list

    # -- convenience accessors -------------------------------------------------

    @property
    def num_students(self):
        return len(self.student_ids)

    @property
    def num_schools(self):
        return len(self.school_ids)

    @property
    def num_districts(self):
        return len(self.district_ids)

    @property
    def num_types(self):
        return len(self.type_ids)

    def contract(self, student: int, school: int) -> Contract:
        return Contract(student, self.school_district[school], school)

    def district_contracts(self, district: int):
        """Contracts associated with one district, student-major order."""
        return [
            self.contract(s, c)
            for s in range(self.num_students)
            for c in self.district_schools[district]
        ]

    def initial_matching(self) -> Matching:
        return frozenset(
            self.contract(s, self.initial_school[s]) for s in range(self.num_students)
        )

    def outcome_school(self, X: Matching, student: int) -> Optional[int]:
        """The school of ``student`` in ``X``, or None if unmatched."""
        for x in X:
            if x.student == student:
                return x.school
        return None

    def rank_of(self, student: int, school: Optional[int]) -> int:
        """Preference rank, 0 = best; being unmatched ranks strictly last."""
        if school is None:
            return self.num_schools
        return self.rank[student][school]

    def prefers(self, student: int, a: Optional[int], b: Optional[int]) -> bool:
        """Strict preference of school ``a`` over ``b`` for ``student``."""
        return self.rank_of(student, a) < self.rank_of(student, b)


def built_once(spec, problem: Problem, build):
    """``build(spec, problem)``, kept on the frozen ``spec`` and built again
    only when the spec meets a problem with another ``build.basis_of``."""
    basis = build.basis_of(problem)
    got = spec.__dict__.get("_built")
    if got is None or got.basis != basis:
        got = build(spec, problem)
        got.basis = basis
        object.__setattr__(spec, "_built", got)
    return got


@dataclass(frozen=True)
class Distribution:
    """School-by-type head counts; district counts are always derived."""

    counts: tuple  # counts[school][type]

    def school_type(self, school: int, type_: int) -> int:
        return self.counts[school][type_]

    def school_total(self, school: int) -> int:
        return sum(self.counts[school])

    def district_type(self, problem: Problem, district: int, type_: int) -> int:
        return sum(
            self.counts[c][type_] for c in problem.district_schools[district]
        )

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def add(self, school: int, type_: int, delta: int) -> "Distribution":
        rows = [list(row) for row in self.counts]
        rows[school][type_] += delta
        return Distribution(tuple(tuple(row) for row in rows))

    def flat(self):
        return tuple(chain.from_iterable(self.counts))


@dataclass(frozen=True)
class Verdict:
    """Whether a property holds, with a witness when it fails."""

    holds: bool
    witness: tuple = ()

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class FeasibilityReport:
    feasible_for_students: bool
    within_capacity: bool
    duplicate_students: tuple = ()
    over_capacity_schools: tuple = ()


# -- validation ------------------------------------------------------------------


def validate_problem(raw: ProblemSpec) -> Problem:
    """Check every structural invariant of ``raw`` and index it.

    Raises ValidationError listing all violations; the error codes are
    MissingDistrict, CapacityShortfall, InfeasibleInitialMatching,
    IncompletePreference and DanglingReference.  Capacities must be integers
    (booleans are not) and the initial matching a dict.
    """
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
        pref_idx = [school_index[cid] for cid in prefs]
        if sorted(pref_idx) != list(range(len(school_index))):
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
        preferences.append(tuple(pref_idx))

    structural = bool(issues)
    k_district = [0] * len(raw.districts)
    for d in student_district:
        k_district[d] += 1

    issues += [
        ("CapacityShortfall", f"school {sid} has capacity {cap} < 1")
        for sid, cap in zip(school_index, capacities)
        if type(cap) is int and cap < 1
    ]

    # per-district capacity must cover the district's own students
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

    # initial matching: every student exactly one school, capacities respected
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
    rank = tuple(map(_positions, preferences))

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
        rank=rank,
    )


def _positions(order) -> tuple:
    """The position of each school in ``order``, a permutation of the
    schools: the permutation inverted."""
    rank = [0] * len(order)
    for i, c in enumerate(order):
        rank[c] = i
    return tuple(rank)


def with_preferences(problem: Problem, student: int, prefs) -> Problem:
    """A copy of ``problem`` where one student reports a different order."""
    preferences, rank = list(problem.preferences), list(problem.rank)
    preferences[student] = tuple(prefs)
    rank[student] = _positions(preferences[student])
    return replace(problem, preferences=tuple(preferences), rank=tuple(rank))


# -- operations on matchings ------------------------------------------------------


def enumerate_matchings(problem: Problem, options) -> Iterator[Matching]:
    """Every matching that gives each student ``s`` one entry of
    ``options[s]`` (a school, or None for unmatched) within school
    capacities, exactly once, in lexicographic order of those entries."""
    load = [0] * problem.num_schools
    picked = []  # the contracts of the students before ``s``

    def walk(s):
        if s == len(options):
            yield frozenset(picked)
            return
        for c in options[s]:
            if c is None:
                yield from walk(s + 1)
            elif load[c] < problem.capacities[c]:
                load[c] += 1
                picked.append(problem.contract(s, c))
                yield from walk(s + 1)
                picked.pop()
                load[c] -= 1

    return walk(0)


def distribution_of(X: Matching, problem: Problem) -> Distribution:
    """The school-by-type head count of ``X``.

    Requires X to be feasible for students; a duplicated student would
    silently double-count, so it raises instead.
    """
    seen = set()
    rows = [[0] * problem.num_types for _ in range(problem.num_schools)]
    for x in X:
        if x.student in seen:
            raise ValidationError(
                [("DuplicateStudent", f"student index {x.student} holds two contracts")]
            )
        seen.add(x.student)
        rows[x.school][problem.student_type[x.student]] += 1
    return Distribution(tuple(tuple(row) for row in rows))


def is_feasible(X: Matching, problem: Problem) -> FeasibilityReport:
    """Report the two feasibility flags separately."""
    per_student = {}
    load = [0] * problem.num_schools
    for x in X:
        per_student[x.student] = per_student.get(x.student, 0) + 1
        load[x.school] += 1
    dups = tuple(sorted(s for s, n in per_student.items() if n > 1))
    over = tuple(
        sorted(c for c in range(problem.num_schools) if load[c] > problem.capacities[c])
    )
    return FeasibilityReport(
        feasible_for_students=not dups,
        within_capacity=not over,
        duplicate_students=dups,
        over_capacity_schools=over,
    )


def outcome_schools(X: Matching) -> dict:
    """Student -> school in ``X``.  A student listed twice keeps the first
    school in iteration order, the one ``Problem.outcome_school`` reports."""
    school_of = {}
    for x in X:
        school_of.setdefault(x.student, x.school)
    return school_of


def pareto_dominates(X: Matching, Y: Matching, problem: Problem) -> bool:
    """True iff every student weakly prefers X and someone strictly does."""
    strict = False
    in_x, in_y = outcome_schools(X), outcome_schools(Y)
    for s in range(problem.num_students):
        rx = problem.rank_of(s, in_x.get(s))
        ry = problem.rank_of(s, in_y.get(s))
        if rx > ry:
            return False
        if rx < ry:
            strict = True
    return strict


def sort_matching(X: Matching):
    """Canonical listing of a matching: by (student, school) index."""
    return sorted(X, key=lambda x: (x.student, x.school))
