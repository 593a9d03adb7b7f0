"""The compiled ``choose``, the incremental ``run_spda`` and the indexed
``is_stable`` against the direct implementations they replace."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import DistrictMatchError
from districtmatch.model import Contract, outcome_schools, with_preferences
from districtmatch.rules import (
    RuleKind,
    choose,
    compiled,
    completion_of,
    favor_own_students,
    make_rule,
)
from districtmatch.spda import check_individual_rationality, is_stable, run_spda

from conftest import random_problem
from spda_reference import choose_reference, is_stable_reference, run_spda_reference

SPEC_KINDS = [k for k in RuleKind if k is not RuleKind.EXPLICIT_TABLE]


def random_rule(rng: random.Random, problem, district, kind):
    """A spec rule of ``kind`` with random priorities, tables and cap.  It is
    built without the invariant check, so reserves may exceed capacity, and
    now and then a priority or the type order names an entry twice."""
    schools = list(problem.district_schools[district])
    rng.shuffle(schools)
    priorities = {}
    for c in schools:
        order = list(range(problem.num_students))
        rng.shuffle(order)
        if rng.random() < 0.1:
            order.insert(rng.randrange(len(order) + 1), rng.choice(order))
        priorities[c] = order
    coords = [(c, t) for c in schools for t in range(problem.num_types)]
    reserves = {k: rng.randint(0, 2) for k in coords if rng.random() < 0.5}
    ceilings = {k: rng.randint(0, 3) for k in coords if rng.random() < 0.4}
    type_order = list(range(problem.num_types))
    rng.shuffle(type_order)
    if rng.random() < 0.1:
        type_order.append(rng.choice(type_order))
    return make_rule(
        district=district,
        kind=kind,
        school_order=schools,
        priorities=priorities,
        reserves=reserves if kind is RuleKind.RESERVES_AND_CEILINGS else None,
        ceilings=ceilings if kind is RuleKind.RESERVES_AND_CEILINGS else None,
        type_order=type_order if rng.random() < 0.5 else (),
        district_cap=(
            rng.randint(0, problem.k_district[district] + 1) if rng.random() < 0.4 else None
        ),
    )


def random_table_rule(rng: random.Random, problem, district):
    """An explicit table over every set feasible for students; now and then
    an entry chooses a contract outside its set."""
    universe = problem.district_contracts(district)
    per_student = {}
    for x in universe:
        per_student.setdefault(x.student, []).append(x)
    table = []
    for combo in itertools.product(*[[None] + xs for xs in per_student.values()]):
        key = frozenset(x for x in combo if x is not None)
        value = {x for x in key if rng.random() < 0.6}
        if rng.random() < 0.02:
            value.add(rng.choice(universe))
        table.append((key, frozenset(value)))
    return make_rule(district=district, kind=RuleKind.EXPLICIT_TABLE, table=table)


def variant(rng: random.Random, rule, problem):
    """The rule itself, its completion or its own-student-favoring form."""
    pick = rng.random()
    if pick < 0.2:
        return completion_of(rule)
    if pick < 0.35:
        return favor_own_students(rule, problem)
    return rule


def random_rules(rng: random.Random, problem, tables=0.0):
    rules = {}
    for d in range(problem.num_districts):
        if rng.random() < tables:
            rules[d] = random_table_rule(rng, problem, d)
        else:
            rule = random_rule(rng, problem, d, rng.choice(SPEC_KINDS))
            rules[d] = variant(rng, rule, problem)
    return rules


def random_sets(rng: random.Random, problem, count):
    """Random contract sets: arbitrary subsets, sets feasible for students,
    and now and then one with a malformed contract."""
    contracts = problem.all_contracts()
    for _ in range(count):
        if rng.random() < 0.5:
            X = {x for x in contracts if rng.random() < 0.4}
        else:
            X = set()
            for s in range(problem.num_students):
                c = rng.randrange(problem.num_schools + 1)
                if c < problem.num_schools:
                    X.add(problem.contract(s, c))
        if rng.random() < 0.05:
            X.add(Contract(problem.num_students, 0, 0))
        if rng.random() < 0.05:
            c = rng.randrange(problem.num_schools)
            X.add(Contract(0, 1 - problem.school_district[c], c))
        yield frozenset(X)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except DistrictMatchError as exc:
        return (type(exc), str(exc), getattr(exc, "trace", None))


def assert_same(problem, rules, sets):
    for rule in rules.values():
        for X in sets:
            assert _outcome(choose, rule, X, problem) == _outcome(
                choose_reference, rule, X, problem
            )
    run = _outcome(run_spda, problem, rules)
    assert run == _outcome(run_spda_reference, problem, rules)
    matchings = list(sets) + [problem.initial_matching(), frozenset()]
    if run[0] == "ok":
        matchings.append(run[1].outcome)
    for X in matchings:
        if any(x.student >= problem.num_students for x in X):
            continue
        assert _outcome(is_stable, X, problem, rules) == _outcome(
            is_stable_reference, X, problem, rules
        )


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spec_rules_match_reference_on_random_markets(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    rules = random_rules(rng, problem)
    assert_same(problem, rules, list(random_sets(rng, problem, 12)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_explicit_tables_match_reference_on_random_markets(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    rules = random_rules(rng, problem, tables=0.7)
    assert_same(problem, rules, list(random_sets(rng, problem, 6)))


@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_fixtures_match_reference(name):
    inst = dm.load_fixture(name)
    problem = inst.problem
    rng = random.Random(name)
    profiles = [inst.rules] if inst.rules else []
    profiles += [random_rules(rng, problem) for _ in range(8)]
    for rules in profiles:
        assert_same(problem, rules, list(random_sets(rng, problem, 8)))


def test_choose_every_kind_on_every_subset():
    rng = random.Random(7)
    for _ in range(6):
        problem = random_problem(rng)
        while problem.num_students * problem.num_schools > 12:
            problem = random_problem(rng)
        for kind in SPEC_KINDS:
            for d in range(problem.num_districts):
                rule = random_rule(rng, problem, d, kind)
                for r in (rule, completion_of(rule), favor_own_students(rule, problem)):
                    universe = problem.district_contracts(d)
                    for n in range(len(universe) + 1):
                        for X in itertools.combinations(universe, n):
                            X = frozenset(X)
                            assert choose(r, X, problem) == choose_reference(r, X, problem)


def test_compiled_rule_follows_the_problem_structure():
    rng = random.Random(3)
    problem = random_problem(rng)
    while problem.num_students < 3:
        problem = random_problem(rng)
    rule = random_rule(rng, problem, 0, RuleKind.INITIAL_RESPECTING)
    X = frozenset(problem.district_contracts(0))
    assert choose(rule, X, problem) == choose_reference(rule, X, problem)
    first = compiled(rule, problem)
    # a misreport changes preferences only and keeps the compiled rule
    deviated = with_preferences(problem, 0, tuple(reversed(problem.preferences[0])))
    assert compiled(rule, deviated) is first
    # new initial schools change the lift, so the rule compiles again
    for initial in itertools.product(problem.district_schools[0], repeat=problem.num_students):
        moved = replace(problem, initial_school=tuple(initial))
        assert choose(rule, X, moved) == choose_reference(rule, X, moved)
    assert compiled(rule, problem) is not first
    assert choose(rule, X, problem) == choose_reference(rule, X, problem)


def test_choose_rejects_malformed_and_unranked_contracts(basic):
    p = basic.problem
    rule = basic.rules[0]
    for bad in (Contract(99, 0, 0), Contract(0, 1, 0), Contract(0, 0, 99)):
        with pytest.raises(dm.UnknownContract):
            choose(rule, {bad, p.contract(0, 0)}, p)
    partial = replace(rule, priorities=tuple((c, order[1:]) for c, order in rule.priorities))
    with pytest.raises(dm.UnknownContract, match="outside the rule's priorities"):
        choose(partial, frozenset(p.district_contracts(0)), p)


def test_skipped_districts_do_not_change_the_step_record(basic, monkeypatch):
    # the incremental run re-chooses only districts with new proposals
    import districtmatch.spda as spda_module

    calls = []

    def counting(rule, X, problem):
        calls.append(rule.district)
        return choose(rule, X, problem)

    monkeypatch.setattr(spda_module, "choose", counting)
    trace = run_spda(basic.problem, basic.rules)
    assert trace == run_spda_reference(basic.problem, basic.rules)
    assert len(calls) < trace.num_steps * basic.problem.num_districts


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_indexed_welfare_checks_match_scans(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    X, Y = list(random_sets(rng, problem, 2))
    X = frozenset(x for x in X if x.student < problem.num_students)
    Y = frozenset(y for y in Y if y.student < problem.num_students)
    for M in (X, Y):
        assert outcome_schools(M) == {
            s: problem.outcome_school(M, s)
            for s in range(problem.num_students)
            if problem.outcome_school(M, s) is not None
        }
    drops = [
        problem.rank_of(s, problem.outcome_school(X, s))
        - problem.rank_of(s, problem.initial_school[s])
        for s in range(problem.num_students)
    ]
    worst = max(range(problem.num_students), key=lambda s: (drops[s], -s))
    verdict = check_individual_rationality(X, problem)
    assert verdict.holds == (drops[worst] <= 0)
    if not verdict.holds:
        assert verdict.witness == (worst,)
    ranks = [
        tuple(problem.rank_of(s, problem.outcome_school(M, s)) for M in (X, Y))
        for s in range(problem.num_students)
    ]
    dominates = all(a <= b for a, b in ranks) and any(a < b for a, b in ranks)
    assert dm.pareto_dominates(X, Y, problem) == dominates
