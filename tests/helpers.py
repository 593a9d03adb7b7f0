"""Shared test helpers: readable ids, matchings from id pairs, the seeded
random market, rule and goal generators, SPDA steps in contract form, the
tentative assignment, and the SPDA step bound.

They live outside ``conftest.py`` because the benchmark's tests have a
``conftest`` module of their own, and one test session imports only one
module of that name.
"""

from __future__ import annotations

import random
from collections import Counter

from districtmatch.model import ProblemSpec, distribution_of, validate_problem
from districtmatch.policy import (
    GoalForm,
    PolicyGoal,
    balanced_exchange_goal,
    combination_goal,
    district_ceilings_goal,
    enumerate_xi0,
    explicit_goal,
    f_lambda_goal,
    indicator_of,
    manhattan_ideal,
    school_diversity_goal,
)
from districtmatch.rules import RuleKind, make_rule
from districtmatch.spda import SpdaStep


def ids_of(problem, X):
    """Readable (student, school) id pairs, sorted."""
    return sorted(
        (problem.student_ids[x.student], problem.school_ids[x.school]) for x in X
    )


def all_contracts(problem):
    """The full contract universe, student-major then school order."""
    return [
        problem.contract(s, c)
        for s in range(problem.num_students)
        for c in range(problem.num_schools)
    ]


def initial_contract(problem, student):
    """The student's contract with her initial school."""
    return problem.contract(student, problem.initial_school[student])


def matching_of(problem, pairs):
    """Build a matching from (student id, school id) pairs."""
    sidx = {v: i for i, v in enumerate(problem.student_ids)}
    cidx = {v: i for i, v in enumerate(problem.school_ids)}
    return frozenset(problem.contract(sidx[s], cidx[c]) for s, c in pairs)


def count_calls(monkeypatch, module, *names):
    """Patches each function ``names`` of ``module`` to log its calls into
    the returned list."""
    calls = []
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def contract_steps(problem, trace):
    """The steps of an SPDA ``trace`` in contract form, as the set loops of
    ``spda_reference`` record them: per district the frozenset of contracts
    proposed to it, and the frozenset of contracts turned down."""

    def contracts(pairs):
        return frozenset([problem.contract(s, c) for s, c in pairs])

    return tuple(
        SpdaStep(tuple((d, contracts(P)) for d, P in step.proposals), contracts(step.rejected))
        for step in trace.steps
    )


def tentative(problem, trace):
    """Yield what the districts hold after each step of an SPDA ``trace``,
    in one pass: the paper's tentative assignment."""
    held = set()
    for step in contract_steps(problem, trace):
        for _, X in step.proposals:
            held |= X
        held -= step.rejected
        yield frozenset(held)


def assert_spda_step_bound(trace, lists):
    """The step bound of a deferred-acceptance trace, finished or partial,
    in which student ``s`` proposes down ``lists[s]``.  A student has one
    contract out, so each rejection moves one pointer on by one and never
    past the end of her list, and every step but the last rejects some
    contract: ``num_steps <= 1 + Σ|rejected| <= 1 + Σ len(lists)``."""
    rejected = Counter(s for step in trace.steps for s, _ in step.rejected)
    assert all(rejected[s] <= len(order) for s, order in enumerate(lists))
    assert all(step.rejected for step in trace.steps[:-1])
    assert trace.num_steps <= 1 + rejected.total() <= 1 + sum(map(len, lists))


def random_problem(rng: random.Random, *, num_types=None, slack=None, students=(2, 4)):
    """A small random market: 2 districts, 2-4 students (or the inclusive
    range ``students``), <=4 schools, <=2 types, home-district initial
    matching, per-district capacity cover.

    Preference and structure draws use independent streams derived from the
    caller's rng so adding draws to one part does not shift the other.
    """
    struct = random.Random(rng.randrange(2**60))
    prefs_rng = random.Random(rng.randrange(2**60))

    num_students = struct.randint(*students)
    num_schools = struct.randint(2, 4)
    nt = num_types if num_types is not None else struct.randint(1, 2)
    districts = ("d1", "d2")
    school_district = ["d1", "d2"] + [
        struct.choice(districts) for _ in range(num_schools - 2)
    ]
    student_district = [struct.choice(districts) for _ in range(num_students)]
    types = tuple(f"t{i + 1}" for i in range(nt))

    caps = [1] * num_schools
    for d in districts:
        idxs = [i for i, a in enumerate(school_district) if a == d]
        need = student_district.count(d)
        while sum(caps[i] for i in idxs) < need:
            caps[struct.choice(idxs)] += 1
    extra = slack if slack is not None else struct.randint(0, 2)
    for _ in range(extra):
        caps[struct.randrange(num_schools)] += 1

    school_ids = [f"c{i + 1}" for i in range(num_schools)]
    schools = tuple(
        (school_ids[i], school_district[i], caps[i]) for i in range(num_schools)
    )
    students = []
    for i in range(num_students):
        order = school_ids[:]
        prefs_rng.shuffle(order)
        students.append(
            (f"s{i + 1}", student_district[i], struct.choice(types), tuple(order))
        )

    load = {c: 0 for c in school_ids}
    initial = {}
    for sid, d, _, _ in students:
        for cid, cd, cap in schools:
            if cd == d and load[cid] < cap:
                initial[sid] = cid
                load[cid] += 1
                break

    spec = ProblemSpec(
        types=types,
        districts=districts,
        schools=schools,
        students=tuple(students),
        initial_matching=initial,
    )
    return validate_problem(spec)


def random_priorities(rng: random.Random, problem):
    """Independent random strict priority per school over all students."""
    out = {}
    for c in range(problem.num_schools):
        order = list(range(problem.num_students))
        rng.shuffle(order)
        out[c] = tuple(order)
    return out


def sequential_rules(rng: random.Random, problem, kind=RuleKind.SEQUENTIAL_RESPONSIVE):
    """One school-order rule per district with random priorities."""
    prios = random_priorities(rng, problem)
    rules = {}
    for d in range(problem.num_districts):
        schools = list(problem.district_schools[d])
        rng.shuffle(schools)
        rules[d] = make_rule(
            district=d,
            kind=kind,
            school_order=tuple(schools),
            priorities={c: prios[c] for c in schools},
            district_cap=(
                problem.k_district[d] if kind is RuleKind.RATIONED_SEQUENTIAL else None
            ),
            problem=problem,
        )
    return rules


def _near(rng, value):
    return max(0, value + rng.randint(-1, 2))


def random_goal(rng: random.Random, problem, form: GoalForm) -> PolicyGoal:
    """A goal of ``form`` drawn around the initial distribution, so that it
    usually, but not always, holds at the start."""
    xi = distribution_of(problem.initial_matching(), problem)
    coords = [
        (c, t) for c in range(problem.num_schools) for t in range(problem.num_types)
    ]
    if form is GoalForm.BALANCED_EXCHANGE:
        return balanced_exchange_goal()
    if form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
        ceilings, floors = {}, {}
        for c, t in coords:
            v = xi.counts[c][t]
            if rng.random() < 0.5:
                ceilings[(c, t)] = _near(rng, v)
            if rng.random() < 0.3:
                floors[(c, t)] = min(
                    max(0, v - rng.randint(0, 2)), ceilings.get((c, t), v)
                )
        make = school_diversity_goal if form is GoalForm.SCHOOL_DIVERSITY else combination_goal
        return make(floors, ceilings)
    if form is GoalForm.DISTRICT_CEILINGS:
        return district_ceilings_goal(
            {
                (d, t): _near(rng, xi.district_type(problem, d, t))
                for d in range(problem.num_districts)
                for t in range(problem.num_types)
                if rng.random() < 0.6
            }
        )
    members = enumerate_xi0(problem)
    chosen = [m for m in members if rng.random() < 0.4]
    if rng.random() < 0.9:
        chosen.append(xi)
    if form is GoalForm.EXPLICIT_SET:
        return explicit_goal(chosen)
    if rng.random() < 0.5:
        return f_lambda_goal(indicator_of(chosen, problem), 1)
    return f_lambda_goal(manhattan_ideal(rng.choice(members), problem), -rng.randint(0, 4))
