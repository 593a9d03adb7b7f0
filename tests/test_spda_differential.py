"""The compiled ``choose``, the incremental ``run_spda``, the cut-off
``is_stable`` and the intradistrict run on home-district lists against the
direct implementations they replace."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
import districtmatch.rules as rules_module
import districtmatch.spda as spda_module
import spda_reference
from districtmatch.errors import DistrictMatchError, RuleViolation
from districtmatch.model import (
    Contract,
    ProblemSpec,
    outcome_schools,
    validate_problem,
    with_preferences,
)
from districtmatch.rules import (
    Cutoffs,
    RuleKind,
    choose,
    compiled,
    completion_of,
    favor_own_students,
    make_rule,
)
from districtmatch.spda import (
    check_individual_rationality,
    is_stable,
    run_intradistrict_spda,
    run_spda,
)

from helpers import all_contracts, random_problem
from spda_reference import (
    choose_reference,
    is_stable_reference,
    run_spda_reference,
    single_district_da_reference,
)

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
    contracts = all_contracts(problem)
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


def test_favored_reserves_rule_reads_no_reserves(reserves_diversity, monkeypatch):
    # favor_own_students makes a sequential rule but keeps the reserves and
    # ceilings in its spec, where neither choose nor the cut-offs may read them
    with_choose(monkeypatch)
    problem = reserves_diversity.problem
    rules = {d: favor_own_students(r, problem) for d, r in reserves_diversity.rules.items()}
    for d, rule in rules.items():
        assert rule.kind is RuleKind.SEQUENTIAL_RESPONSIVE and rule.reserves and rule.ceilings
        universe = problem.district_contracts(d)
        for n in range(len(universe) + 1):
            for X in itertools.combinations(universe, n):
                X = frozenset(X)
                assert choose(rule, X, problem) == choose_reference(rule, X, problem)
    for profile in (reserves_diversity.rules, rules):
        outcome = run_spda(problem, profile).outcome
        for d, rule in rules.items():  # so every cut-off answer is checked
            assert Cutoffs(rule, frozenset(x for x in outcome if x.district == d), problem).holds
        assert_cutoffs_exact(problem, rules, outcome)


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
    calls = []

    def counting(rule, X, problem):
        calls.append(rule.district)
        return choose(rule, X, problem)

    monkeypatch.setattr(spda_module, "choose", counting)
    trace = run_spda(basic.problem, basic.rules)
    assert trace == run_spda_reference(basic.problem, basic.rules)
    assert len(calls) < trace.num_steps * basic.problem.num_districts


def assert_intradistrict_matches_reference(problem, rules):
    """The intradistrict run gives the union of the per-district reference
    runs; when some district's run fails, it fails with one of their errors."""
    runs = [
        _outcome(single_district_da_reference, problem, d, rules[d])
        for d in range(problem.num_districts)
    ]
    got = _outcome(run_intradistrict_spda, problem, rules)
    if all(run[0] == "ok" for run in runs):
        assert got == ("ok", frozenset().union(*(run[1] for run in runs)))
    else:
        assert got[0] in {run[0] for run in runs}
    return got


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_intradistrict_run_matches_per_district_reference(seed):
    # every spec kind, completions, own-favoring variants and tables
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    assert_intradistrict_matches_reference(problem, random_rules(rng, problem, tables=0.5))


@pytest.mark.parametrize("seed", [12, 125, 154, 170])
def test_intradistrict_table_choosing_outside_its_input_raises(seed):
    # the per-district loop once returned these outcomes with a student
    # holding two schools
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    got = assert_intradistrict_matches_reference(
        problem, random_rules(rng, problem, tables=0.5)
    )
    assert got[0] is RuleViolation and "chose outside its input" in got[1]


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


# -- the cut-off stability check ----------------------------------------------------


def omitting(rng: random.Random, rule):
    """Now and then the rule with a priority list that omits a student."""
    if rule.kind is RuleKind.EXPLICIT_TABLE or rng.random() >= 0.1:
        return rule
    c, order = rule.priorities[0]
    return replace(rule, priorities=((c, order[1:]),) + rule.priorities[1:])


def cutoff_profile(rng: random.Random, problem, kind=None):
    """A rule per district, of ``kind`` or a random spec kind, in a random
    variant, now and then omitting a student from a priority list."""
    rules = {}
    for d in range(problem.num_districts):
        rule = random_rule(rng, problem, d, kind or rng.choice(SPEC_KINDS))
        rules[d] = omitting(rng, variant(rng, rule, problem))
    return rules


def with_choose(monkeypatch):
    """Make the reference stability check use today's ``choose``, whose
    ``UnknownContract`` for an unranked contract is the one to keep."""
    monkeypatch.setattr(spda_reference, "choose_reference", choose)


def assert_cutoffs_exact(problem, rules, X):
    """Same verdict as the reference; for every district that holds its
    part of ``X``, the cut-off answer for every other contract of the
    district is whether ``choose`` takes it from the part plus it."""
    assert _outcome(is_stable, X, problem, rules) == _outcome(
        is_stable_reference, X, problem, rules
    )
    for d, rule in rules.items():
        X_d = frozenset(x for x in X if x.district == d)
        state = _outcome(Cutoffs, rule, X_d, problem)
        assert state[0] == "ok" or state == _outcome(choose, rule, X_d, problem)
        if state[0] != "ok":
            continue
        state = state[1]
        assert state.holds == (_outcome(choose, rule, X_d, problem) == ("ok", X_d))
        if not state.holds:
            continue
        for x in problem.district_contracts(d):
            if x not in X_d:
                expected = _outcome(lambda: x in choose(rule, X_d | {x}, problem))
                assert _outcome(state.chooses, x) == expected


def perturbed(problem, X):
    """``X`` with one matched student moved to another school of the
    district that serves them, for every such move."""
    for x in X:
        for c in problem.district_schools[x.district]:
            if c != x.school:
                yield X - {x} | {problem.contract(x.student, c)}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cutoffs_match_choose_on_outcomes_and_moves(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    rules = cutoff_profile(rng, problem)
    with pytest.MonkeyPatch.context() as mp:
        with_choose(mp)
        run = _outcome(run_spda, problem, rules)
        matchings = [problem.initial_matching(), frozenset()]
        if run[0] == "ok":
            matchings += [run[1].outcome, *perturbed(problem, run[1].outcome)]
        for X in matchings:
            assert_cutoffs_exact(problem, rules, X)


def test_cutoffs_match_choose_on_every_matching_of_small_markets(monkeypatch):
    # every set with at most one contract per student: stable, shrinking and
    # blocked alike, for every spec kind
    with_choose(monkeypatch)
    rng = random.Random(11)
    for _ in range(12):
        problem = random_problem(rng)
        while (problem.num_schools + 1) ** problem.num_students > 400:
            problem = random_problem(rng)
        for kind in SPEC_KINDS:
            rules = cutoff_profile(rng, problem, kind)
            for combo in itertools.product(
                [None, *range(problem.num_schools)], repeat=problem.num_students
            ):
                X = frozenset(
                    problem.contract(s, c) for s, c in enumerate(combo) if c is not None
                )
                assert_cutoffs_exact(problem, rules, X)


@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_cutoffs_match_choose_on_fixtures(name, monkeypatch):
    with_choose(monkeypatch)
    inst = dm.load_fixture(name)
    problem = inst.problem
    rng = random.Random(name)
    profiles = [inst.rules] if inst.rules else []
    profiles += [cutoff_profile(rng, problem) for _ in range(8)]
    for rules in profiles:
        run = _outcome(run_spda, problem, rules)
        matchings = [problem.initial_matching(), frozenset()]
        if run[0] == "ok":
            matchings += [run[1].outcome, *perturbed(problem, run[1].outcome)]
        for X in matchings:
            assert_cutoffs_exact(problem, rules, X)


def large_market(rng: random.Random, students=300, schools=12, types=2):
    """A market with one district per spec kind, sized like the benchmark's:
    preferences from a shared school quality, own taste and a home-district
    bonus, capacities with a little slack, reserves and ceilings in the
    reserves district."""
    districts = len(SPEC_KINDS)
    district_of = [i % districts for i in range(schools)]
    home = [s % districts for s in range(students)]
    cap = students // schools + 1
    quality = [rng.random() for _ in range(schools)]
    prefs = [
        sorted(
            range(schools),
            key=lambda c: -quality[c] - rng.random() - 0.5 * (district_of[c] == home[s]),
        )
        for s in range(students)
    ]
    load = [0] * schools
    initial = {}
    for s in range(students):
        c = next(c for c in prefs[s] if district_of[c] == home[s] and load[c] < cap)
        initial[f"s{s}"] = f"c{c}"
        load[c] += 1
    problem = validate_problem(
        ProblemSpec(
            types=tuple(f"t{t}" for t in range(types)),
            districts=tuple(f"d{d}" for d in range(districts)),
            schools=tuple((f"c{c}", f"d{district_of[c]}", cap) for c in range(schools)),
            students=tuple(
                (f"s{s}", f"d{home[s]}", f"t{rng.randrange(types)}", tuple(f"c{c}" for c in order))
                for s, order in enumerate(prefs)
            ),
            initial_matching=initial,
        )
    )
    rules = {}
    for d, kind in enumerate(SPEC_KINDS):
        own = list(problem.district_schools[d])
        rng.shuffle(own)
        coords = [(c, t) for c in own for t in range(types)]
        two_phase = kind is RuleKind.RESERVES_AND_CEILINGS
        rules[d] = make_rule(
            district=d,
            kind=kind,
            school_order=own,
            priorities={c: rng.sample(range(students), students) for c in own},
            reserves={k: 3 for k in coords} if two_phase else None,
            ceilings={k: cap // 2 + 2 for k in coords} if two_phase else None,
            problem=problem,
        )
    return problem, rules


def test_is_stable_chooses_at_most_once_per_district(monkeypatch):
    rng = random.Random(2024)
    problem, rules = large_market(rng)
    calls = []

    def counting(rule, X, problem):
        calls.append(rule.district)
        return choose(rule, X, problem)

    outcome = run_spda(problem, rules).outcome
    monkeypatch.setattr(rules_module, "choose", counting)
    monkeypatch.setattr(spda_module, "choose", counting)
    verdict = is_stable(outcome, problem, rules)
    assert verdict.holds
    assert len(calls) <= problem.num_districts
    monkeypatch.undo()
    assert verdict == is_stable_reference(outcome, problem, rules)
    # a blocked matching: the same witness as the reference
    moved = next(X for X in perturbed(problem, outcome) if not is_stable(X, problem, rules))
    assert is_stable(moved, problem, rules) == is_stable_reference(moved, problem, rules)


def test_reserve_named_twice_keeps_its_first_cutoff():
    # the type's second turn finds the school full; the first turn's cut-off
    # still admits a student ranked above its last pick
    problem = validate_problem(
        ProblemSpec(
            types=("t1",),
            districts=("d1", "d2"),
            schools=(("c1", "d1", 3), ("c2", "d2", 1)),
            students=tuple((f"s{i}", "d1", "t1", ("c1", "c2")) for i in (1, 2, 3))
            + (("s4", "d2", "t1", ("c2", "c1")),),
            initial_matching={"s1": "c1", "s2": "c1", "s3": "c1", "s4": "c2"},
        )
    )
    rule = make_rule(
        district=0,
        kind=RuleKind.RESERVES_AND_CEILINGS,
        school_order=(0,),
        priorities={0: (3, 0, 1, 2)},
        reserves={(0, 0): 3},
        type_order=(0, 0),
    )
    X = frozenset(problem.contract(s, 0) for s in (0, 1, 2))
    state = Cutoffs(rule, X, problem)
    x = problem.contract(3, 0)
    assert state.holds and state.chooses(x)
    assert x in choose(rule, X | {x}, problem)


def test_completion_chooses_a_student_who_holds_an_earlier_seat():
    # a completion takes out no other contract of a chosen student: x is
    # chosen even when its student's contract y at an earlier school holds a
    # reserve seat or an open seat, where the rule itself refuses x
    rng = random.Random(1)
    seen = set()
    for _ in range(60):
        problem = random_problem(rng)
        for kind in SPEC_KINDS:
            d = rng.randrange(problem.num_districts)
            rule = random_rule(rng, problem, d, kind)
            completed = completion_of(rule)
            comp = compiled(completed, problem)
            universe = problem.district_contracts(d)
            X = choose(completed, frozenset(x for x in universe if rng.random() < 0.6), problem)
            state = Cutoffs(completed, X, problem)
            if not state.holds:
                continue
            for x in set(universe) - X:
                chosen = x in choose(completed, X | {x}, problem)
                assert state.chooses(x) == chosen
                if not chosen or x in choose(rule, X | {x}, problem):
                    continue
                pos = comp.key_of[x] // comp.stride
                for y in X:
                    key = comp.key_of[y]
                    if y.student == x.student and key // comp.stride < pos:
                        seen.add((kind, "reserve" if key in state.reserved else "open"))
    assert seen >= {(kind, "open") for kind in SPEC_KINDS}
    assert (RuleKind.RESERVES_AND_CEILINGS, "reserve") in seen
