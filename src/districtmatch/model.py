"""Core market model: problems, contracts, matchings, and distributions.

All identifiers coming from instance files are opaque strings.  Each
entity's index is its position in file order, kept once per instance in
``ProblemSpec.index``: validation and the instance reader both resolve ids
through it.  Every algorithm in the package works on those indices, so runs
are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
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
    """Raw, id-based description of a market, as read from an instance file.

    ``index`` maps each kind of id (type, district, school, student) to its
    {id: position} in file order, built once per spec; ``validate_problem``
    and the instance reader both resolve ids through it.
    """

    types: tuple
    districts: tuple
    schools: tuple  # of (school_id, district_id, capacity)
    students: tuple  # of (student_id, district_id, type_id, preference list)
    initial_matching: dict  # student_id -> school_id

    @cached_property
    def index(self) -> dict:
        """A repeated id keeps its first position; a malformed id (None, or
        an unhashable value) is no key."""
        index = {}
        for kind, ids in (
            ("type", self.types),
            ("district", self.districts),
            ("school", (c[0] for c in self.schools)),
            ("student", (s[0] for s in self.students)),
        ):
            positions = index[kind] = {}
            for i, v in enumerate(ids):
                try:
                    positions.setdefault(v, i)
                except TypeError:  # an unhashable id
                    pass
            positions.pop(None, None)
        return index


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
    k_district: tuple
    k_type: tuple
    district_schools: tuple

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
        """The school of ``student`` in ``X`` (``outcome_schools``), or None
        if unmatched."""
        return outcome_schools(X).get(student)

    def rank_of(self, student: int, school: Optional[int]) -> int:
        """Position in the student's list, 0 = best; being unmatched ranks
        strictly last."""
        if school is None:
            return self.num_schools
        return self.preferences[student].index(school)

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


@dataclass(frozen=True)
class Trace:
    """A mechanism run: its step records (``spda.SpdaStep`` or
    ``ttc.TtcStep``), its outcome, and ``read``, per student how many entries
    of her school list the run consulted (a report sharing that prefix
    reruns the same).  A run that fails leaves its steps and no outcome."""

    steps: tuple
    outcome: Matching
    read: tuple = field(default=(), compare=False)

    @property
    def num_steps(self):
        return len(self.steps)


# -- validation ------------------------------------------------------------------


def validate_problem(raw: ProblemSpec) -> Problem:
    """Check every structural invariant of ``raw`` and index it by ``raw.index``.

    Raises ValidationError listing all violations; the error codes are
    MissingDistrict, CapacityShortfall, InfeasibleInitialMatching,
    IncompletePreference and DanglingReference.  Capacities must be integers
    (booleans are not) and the initial matching a dict.
    """
    districts, types, schools, students = map(
        raw.index.get, ("district", "type", "school", "student")
    )
    school_ids = tuple(c[0] for c in raw.schools)
    student_ids = tuple(s[0] for s in raw.students)
    # an id is a repeat wherever the index holds an earlier position for it
    issues = [
        ("DanglingReference", f"duplicate {label} id {v!r}")
        for label, ids, index in (
            ("district", raw.districts, districts),
            ("type", raw.types, types),
            ("school", school_ids, schools),
            ("student", student_ids, students),
        )
        for i, (v, j) in enumerate(zip(ids, _positions(index, ids)))
        if j not in (None, i)
    ]
    if issues:
        raise ValidationError(issues)

    school_district = _positions(districts, [c[1] for c in raw.schools])
    capacities = tuple(c[2] for c in raw.schools)
    for (sid, did, cap), d in zip(raw.schools, school_district):
        if d is None:
            issues.append(("DanglingReference", f"school {sid} references unknown district {did}"))
        elif type(cap) is not int:
            issues.append(("DanglingReference", f"school {sid} has non-integer capacity {cap!r}"))
    district_schools = tuple(
        tuple(c for c, d in enumerate(school_district) if d == i) for i in range(len(raw.districts))
    )

    if len(raw.districts) < 2:
        issues.append(("MissingDistrict", "need at least two districts with schools"))
    issues += [
        ("MissingDistrict", f"district {d} has no schools")
        for d, own in zip(raw.districts, district_schools)
        if not own
    ]

    student_district, student_type, preferences = [], [], []
    C = len(raw.schools)
    for (stid, did, tid, prefs), d, t in zip(
        raw.students,
        _positions(districts, [s[1] for s in raw.students]),
        _positions(types, [s[2] for s in raw.students]),
    ):
        pref_idx = _positions(schools, prefs)
        if d is None:
            issues.append(
                ("DanglingReference", f"student {stid} references unknown district {did}")
            )
        elif t is None:
            issues.append(("DanglingReference", f"student {stid} references unknown type {tid}"))
        elif None in pref_idx:
            unknown = prefs[pref_idx.index(None)]
            issues.append(("DanglingReference", f"student {stid} ranks unknown school {unknown}"))
        elif len(pref_idx) != C or len(set(pref_idx)) != C:  # school positions, no None
            issues.append(
                ("IncompletePreference", f"student {stid} must rank every school exactly once")
            )
        else:
            student_district.append(d)
            student_type.append(t)
            preferences.append(pref_idx)

    structural = bool(issues)
    k_district = tuple(map(student_district.count, range(len(raw.districts))))

    # a school of an unknown district has no capacity to fall short of
    issues += [
        ("CapacityShortfall", f"school {sid} has capacity {cap} < 1")
        for (sid, _, cap), d in zip(raw.schools, school_district)
        if d is not None and type(cap) is int and cap < 1
    ]

    # per-district capacity must cover the district's own students
    if not structural:
        for did, k, own in zip(raw.districts, k_district, district_schools):
            cap = sum(capacities[c] for c in own)
            if k > cap:
                issues.append((
                    "CapacityShortfall",
                    f"district {did} has {k} students but total school capacity {cap}",
                ))

    # initial matching: every student exactly one school, capacities respected
    initial_school = [None] * len(student_ids)
    if not isinstance(raw.initial_matching, dict):
        issues.append(("InfeasibleInitialMatching", "initial_matching is not an object"))
    elif not structural:
        load = [0] * len(school_ids)
        for stid, cid in raw.initial_matching.items():
            s = students.get(stid)
            c = schools.get(cid) if isinstance(cid, str) else None  # ids are strings
            if s is None:
                issues.append(
                    ("DanglingReference", f"initial matching names unknown student {stid}")
                )
            elif c is None:
                issues.append(("DanglingReference", f"initial matching names unknown school {cid}"))
            else:
                initial_school[s] = c
                load[c] += 1
        for stid, c in zip(student_ids, initial_school):
            if c is None:
                issues.append(
                    ("InfeasibleInitialMatching", f"student {stid} has no initial school")
                )
        for cid, n, cap in zip(school_ids, load, capacities):
            if n > cap:
                issues.append((
                    "InfeasibleInitialMatching",
                    f"school {cid} holds {n} students initially, capacity {cap}",
                ))

    if issues:
        raise ValidationError(issues)
    return Problem(
        student_ids=student_ids,
        district_ids=tuple(raw.districts),
        school_ids=school_ids,
        type_ids=tuple(raw.types),
        student_district=tuple(student_district),
        student_type=tuple(student_type),
        preferences=tuple(preferences),
        school_district=school_district,
        capacities=capacities,
        initial_school=tuple(initial_school),
        k_district=k_district,
        k_type=tuple(map(student_type.count, range(len(raw.types)))),
        district_schools=district_schools,
    )


def _positions(index: dict, ids) -> tuple:
    """The position ``index`` holds for each of ``ids``; None for an id it
    does not hold, an unhashable one included."""
    try:
        return tuple(map(index.get, ids))
    except TypeError:  # an unhashable id: look each up alone
        return (None,) if len(ids) == 1 else tuple(_positions(index, (v,))[0] for v in ids)


def order_positions(order, n: int) -> Optional[tuple]:
    """The position of each of 0..n-1 in ``order``: the permutation
    inverted.  None unless ``order`` lists each of them exactly once; an
    entry that is not an int (a bool is not) never does."""
    if len(order) != n:
        return None
    positions = [None] * n
    for i, v in enumerate(order):
        if type(v) is not int or not 0 <= v < n or positions[v] is not None:
            return None
        positions[v] = i
    return tuple(positions)


def with_preferences(problem: Problem, student: int, prefs) -> Problem:
    """A copy of ``problem`` where one student reports a different order,
    which must rank every school exactly once."""
    preferences = list(problem.preferences)
    preferences[student] = tuple(prefs)
    if order_positions(preferences[student], problem.num_schools) is None:
        raise ValidationError([(
            "IncompletePreference",
            f"student {problem.student_ids[student]} must rank every school exactly once",
        )])
    return replace(problem, preferences=tuple(preferences))


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
    school in iteration order."""
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
