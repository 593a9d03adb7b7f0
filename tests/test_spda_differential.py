"""The compiled ``choose``, the incremental ``run_spda``, the deferred
acceptance loop on per-school held seats, the cut-off ``is_stable`` and the
intradistrict run on home-district lists against the direct implementations
they replace."""

import io
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
from districtmatch import cli
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
    HeldSeats,
    RuleKind,
    choose,
    compiled,
    completion_of,
    favor_own_students,
    make_rule,
)
from districtmatch.spda import (
    SpdaTrace,
    check_individual_rationality,
    is_stable,
    run_intradistrict_spda,
    run_spda,
)

from helpers import all_contracts, assert_spda_step_bound, count_calls, random_problem
from spda_reference import (
    choose_reference,
    deferred_acceptance_reference,
    is_stable_reference,
    run_spda_reference,
    single_district_da_reference,
)
from trace_reference import _spda_trace_doc, trace_text

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


def assert_run_matches_reference(got, reference, *args):
    """``got``, the ``_outcome`` of a run, is that of the set loop
    ``reference`` on ``args``: the same trace or error.  Its trace, finished
    or partial, holds after each step what the set loop's districts chose
    (``SpdaTrace.tentative``).  Returns the set loop's outcome."""
    try:
        trace, held_after = reference(*args)
        want = ("ok", trace)
    except DistrictMatchError as exc:
        want = (type(exc), str(exc), getattr(exc, "trace", None))
        held_after = getattr(exc, "tentative", None)
    assert got == want
    trace = got[1] if got[0] == "ok" else got[2]
    if trace is not None:
        assert list(trace.tentative()) == held_after
    return want


def assert_same(problem, rules, sets):
    for rule in rules.values():
        for X in sets:
            assert _outcome(choose, rule, X, problem) == _outcome(
                choose_reference, rule, X, problem
            )
    run = _outcome(run_spda, problem, rules)
    assert_run_matches_reference(run, run_spda_reference, problem, rules)
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
    assert_run_matches_reference(("ok", trace), run_spda_reference, basic.problem, basic.rules)
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


def _deferred_acceptance_runs(problem, rules):
    """``(trace, lists)`` of the loop under ``run_spda`` and under
    ``run_intradistrict_spda``; a failed run gives its partial trace."""
    runs = []
    loop = spda_module._deferred_acceptance

    def recorded(problem, rules, lists):
        try:
            trace = loop(problem, rules, lists)
        except RuleViolation as exc:
            runs.append((exc.trace, lists))
            raise
        runs.append((trace, lists))
        return trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spda_module, "_deferred_acceptance", recorded)
        for run in (run_spda, run_intradistrict_spda):
            try:
                run(problem, rules)
            except RuleViolation:
                pass
    return runs


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_steps_stay_within_the_rejections_on_random_markets(seed):
    # spec rules, tables that re-reject what they hold, and now and then a
    # table that chooses nothing at all, as in test_nontermination_guard
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    rules = random_rules(rng, problem, tables=0.5)
    for d, rule in rules.items():
        if rule.kind is RuleKind.EXPLICIT_TABLE and rng.random() < 0.3:
            rules[d] = replace(rule, table=tuple((key, frozenset()) for key, _ in rule.table))
    runs = _deferred_acceptance_runs(problem, rules)
    assert len(runs) == 2
    for trace, lists in runs:
        assert_spda_step_bound(trace, lists)


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
                assert _outcome(state.chooses, x.student, x.school) == expected


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
    assert state.holds and state.chooses(x.student, x.school)
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
                assert state.chooses(x.student, x.school) == chosen
                if not chosen or x in choose(rule, X | {x}, problem):
                    continue
                pos = comp.key(x) // comp.stride
                for y in X:
                    key = comp.key(y)
                    if y.student == x.student and key // comp.stride < pos:
                        seen.add((kind, "reserve" if key in state.reserved else "open"))
    assert seen >= {(kind, "open") for kind in SPEC_KINDS}
    assert (RuleKind.RESERVES_AND_CEILINGS, "reserve") in seen


# -- the loop on key lists against the loop on sets ------------------------------


def unvalidated(rng: random.Random, rule):
    """Now and then the rule as ``make_rule`` leaves it without a problem to
    check it against: missing one school's priority list, or with lists
    that omit some students, so that a pool may hold several contracts the
    rule does not rank."""
    if rule.kind is RuleKind.EXPLICIT_TABLE or rng.random() >= 0.2:
        return rule
    if rng.random() < 0.3:
        return replace(rule, priorities=rule.priorities[1:])
    return replace(
        rule,
        priorities=tuple(
            (c, tuple(s for s in order if rng.random() >= 0.3)) for c, order in rule.priorities
        ),
    )


def home_lists(problem):
    """Each student's list cut to her home district's schools."""
    home, district = problem.student_district, problem.school_district
    return [
        tuple(c for c in order if district[c] == home[s])
        for s, order in enumerate(problem.preferences)
    ]


def spda_bytes(problem, trace):
    fh = io.StringIO()
    cli._write_spda_trace(fh, problem, trace)
    return fh.getvalue()


def assert_loop_matches_reference(problem, rules):
    """The loop against the set loop it replaced, on full and on
    home-district lists: the same trace (steps, outcome and ``read``) and
    held sets, or the same error with the same partial trace; and the trace
    bytes of the reference document.  Returns the two outcomes."""
    runs = []
    for lists in (problem.preferences, home_lists(problem)):
        got = _outcome(spda_module._deferred_acceptance, problem, rules, lists)
        want = assert_run_matches_reference(
            got, deferred_acceptance_reference, problem, rules, lists
        )
        ok = got[0] == "ok"
        if ok:
            assert got[1].read == want[1].read
        trace = got[1] if ok else got[2]
        if trace is not None:
            # the writer carries the tentative keys from step to step; the
            # document renders ``trace.tentative()``, checked above
            assert spda_bytes(problem, trace) == trace_text(_spda_trace_doc(problem, trace))
        runs.append(got)
    return runs


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_key_loop_matches_set_loop_on_random_markets(seed):
    # every spec kind, completions, own-favoring variants and tables
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    rules = random_rules(rng, problem, tables=0.3)
    assert_loop_matches_reference(problem, {d: unvalidated(rng, r) for d, r in rules.items()})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_key_loop_matches_set_loop_on_larger_markets(seed):
    rng = random.Random(seed)
    problem = random_problem(rng, students=(30, 45))
    rules = random_rules(rng, problem)
    assert_loop_matches_reference(problem, {d: unvalidated(rng, r) for d, r in rules.items()})


def test_key_loop_matches_set_loop_on_a_large_market():
    assert_loop_matches_reference(*large_market(random.Random(2024)))


@pytest.mark.parametrize("seed", [12, 125, 154, 170])
def test_key_loop_raises_the_set_loops_rule_violation(seed):
    # a table that chooses outside its input, as in the intradistrict runs
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    runs = assert_loop_matches_reference(problem, random_rules(rng, problem, tables=0.5))
    assert any(run[0] is RuleViolation and "chose outside its input" in run[1] for run in runs)


@pytest.mark.parametrize("name", ["spda_basic", "spda_respecting", "spda_rationed"])
def test_key_loop_raises_the_set_loops_unknown_contract(name):
    # spec rules built without a problem: missing a school's priority list
    # fails at the district's first choice, a list that omits a student
    # when that student's contract reaches the district
    inst = dm.load_fixture(name)
    raised = set()
    for d, rule in inst.rules.items():
        c, order = rule.priorities[0]
        for i in range(-1, len(order)):
            if i < 0:
                broken = replace(rule, priorities=rule.priorities[1:])
            else:
                omitted = (c, order[:i] + order[i + 1 :])
                broken = replace(rule, priorities=(omitted,) + rule.priorities[1:])
            for run in assert_loop_matches_reference(inst.problem, {**inst.rules, d: broken}):
                if run[0] is dm.UnknownContract:
                    raised.add(run[1].split()[0])
    assert raised == {"no", "contract"}  # both messages


@pytest.mark.parametrize("name", ["spda_basic", "spda_respecting", "spda_rationed"])
def test_key_loop_names_the_least_unranked_proposal(name):
    # a rule that ranks nobody: every first-step proposal to its district is
    # unranked, and both loops name the least of them
    inst = dm.load_fixture(name)
    problem, several = inst.problem, 0
    for d, rule in inst.rules.items():
        blank = replace(rule, priorities=tuple((c, ()) for c, _ in rule.priorities))
        first = {problem.contract(s, order[0]) for s, order in enumerate(problem.preferences)}
        unranked = sorted(x for x in first if x.district == d)
        got = assert_loop_matches_reference(problem, {**inst.rules, d: blank})[0]
        assert got[:2] == (
            dm.UnknownContract,
            f"contract {unranked[0]} is outside the rule's priorities",
        )
        several += len(unranked) > 1
    assert several


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_key_loop_matches_set_loop_under_another_districts_rule(seed):
    # a rule filed under another district's index ranks none of the
    # contracts proposed there and rejects them, as ``choose`` on the set did
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 8))
    rules = random_rules(rng, problem)
    moved = {d: rules[(d + 1) % problem.num_districts] for d in rules}
    assert_loop_matches_reference(problem, {d: unvalidated(rng, r) for d, r in moved.items()})


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), moved=st.booleans())
def test_pair_log_matches_the_set_loop(seed, moved):
    # every spec kind, completions, own-favoring variants, tables, and now
    # and then each rule filed under the next district's index: the step
    # records built from the pair log, and the bytes written from it, are
    # the set loop's
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 6))
    rules = random_rules(rng, problem, tables=0.3)
    if moved:
        rules = {d: rules[(d + 1) % problem.num_districts] for d in rules}
    rules = {d: unvalidated(rng, r) for d, r in rules.items()}
    for lists in (problem.preferences, home_lists(problem)):
        with pytest.MonkeyPatch.context() as m:
            built = count_calls(m, spda_module, "SpdaStep")
            got = _outcome(spda_module._deferred_acceptance, problem, rules, lists)
            trace = got[1] if got[0] == "ok" else got[2]
            if trace is None:
                continue
            num_steps, text = trace.num_steps, spda_bytes(problem, trace)
            assert built == []
            steps = trace.steps
            assert len(built) == num_steps == len(steps)
        want = assert_run_matches_reference(
            got, deferred_acceptance_reference, problem, rules, lists
        )
        reference = want[1] if want[0] == "ok" else want[2]
        assert (trace.steps, trace.outcome, trace.read) == (
            reference.steps, reference.outcome, reference.read
        )
        assert text == spda_bytes(problem, SpdaTrace(trace.steps, trace.outcome))
        assert text == trace_text(_spda_trace_doc(problem, trace))


def test_choose_reads_a_list_of_contracts_as_a_set():
    # a list or tuple of contracts is chosen from as the set of them
    rng = random.Random(11)
    for _ in range(20):
        problem = random_problem(rng, students=(2, 4))
        for rules in (random_rules(rng, problem), random_rules(rng, problem, tables=1.0)):
            for rule in rules.values():
                for X in [frozenset(), *random_sets(rng, problem, 6)]:
                    want = _outcome(choose, rule, X, problem)
                    assert _outcome(choose, rule, list(X), problem) == want
                    assert _outcome(choose, rule, tuple(X), problem) == want


def test_steps_cannot_be_assigned(basic):
    step = run_spda(basic.problem, basic.rules).steps[0]
    fields = (step.proposals, step.rejected)
    for name in ("proposals", "rejected"):
        with pytest.raises(AttributeError):  # FrozenInstanceError
            setattr(step, name, None)
        with pytest.raises(AttributeError):
            delattr(step, name)
    assert (step.proposals, step.rejected) == fields


def test_traces_compare_by_proposals_and_rejections(basic):
    # what the districts hold after each step follows from the steps, so
    # traces are equal when their proposals and rejections are
    trace = run_spda(basic.problem, basic.rules)
    assert trace == run_spda(basic.problem, basic.rules)
    i = next(i for i, step in enumerate(trace.steps) if step.rejected)
    x = min(trace.steps[i].rejected)
    changed = replace(trace.steps[i], rejected=trace.steps[i].rejected - {x})
    steps = trace.steps[:i] + (changed,) + trace.steps[i + 1 :]
    assert replace(trace, steps=steps) != trace


def choose_calls(monkeypatch, module, run, problem, rules, lists):
    """The district of each ``choose`` call ``run`` makes through ``module``,
    and the trace."""
    calls = []

    def counting(rule, X, problem):
        calls.append(rule.district)
        return choose(rule, X, problem)

    with monkeypatch.context() as m:
        m.setattr(module, "choose", counting)
        trace = run(problem, rules, lists)
    return calls, trace


def test_key_loop_calls_choose_as_the_set_loop_did(monkeypatch):
    # once per step and district with proposals, and once per step for each
    # table, so the tracer's ``rules.choose.calls`` keeps its meaning
    rng = random.Random(5)
    for i in range(40):
        problem = random_problem(rng, students=(2, 5) if i % 2 else (30, 40))
        rules = random_rules(rng, problem, tables=0.3 if i % 2 else 0.0)
        tables = {d for d, r in rules.items() if r.kind is RuleKind.EXPLICIT_TABLE}
        for lists in (problem.preferences, home_lists(problem)):
            try:
                got, trace = choose_calls(
                    monkeypatch, spda_module, spda_module._deferred_acceptance,
                    problem, rules, lists,
                )
            except RuleViolation:
                continue
            want, _ = choose_calls(
                monkeypatch, spda_reference, deferred_acceptance_reference,
                problem, rules, lists,
            )
            assert got == want == [
                d for step in trace.steps for d, X in step.proposals if X or d in tables
            ]


# -- the per-school held seats against the whole-pool walk ------------------------


def held_keys(seats):
    """Every key a district's ``HeldSeats`` holds, sorted."""
    return sorted(k for picks in (seats.reserved, seats.eligible) for pool in picks for k in pool)


def checked_choose(rule, X, problem, checked):
    """``choose``; on a district's ``HeldSeats``, also the checks that what
    it keeps is ``_chosen_keys`` of the pool it chose from, that it keeps
    the proposed contract of each key it holds, that the pairs it turns
    down are the rest of the pool and the proposals the rule does not rank,
    and that its per-school state is what a fresh walk on what it keeps
    computes."""
    if not isinstance(X, HeldSeats):
        return choose(rule, X, problem)
    comp = X.comp
    new = [problem.contract(s, c) for s, c in X.new]
    keys = list(map(comp.key, new))
    proposed = {k: x for k, x in zip(keys, new) if k is not None}
    unranked = [x for k, x in zip(keys, new) if k is None]
    before = {comp.key(x): x for x in X.chosen()}
    held = {**before, **proposed}
    pool = sorted(held_keys(X) + list(proposed))
    assert sorted(before) == held_keys(X)
    students = [comp.student_at[k] for k in pool]
    assert len(set(students)) == len(students)  # one key per student
    rejected = choose(rule, X, problem)
    kept = held_keys(X)
    assert kept == sorted(rules_module._chosen_keys(rule, comp, pool))
    after = {comp.key(x): x for x in X.chosen()}
    assert sorted(after) == kept
    assert after == {k: held[k] for k in kept}
    turned_down = [problem.contract(s, c) for s, c in rejected]
    keys = list(map(comp.key, turned_down))
    assert sorted(k for k in keys if k is not None) == sorted(set(pool) - set(kept))
    assert [x for x, k in zip(turned_down, keys) if k is None] == unranked
    fresh = HeldSeats(rule, problem)
    fresh.new = [(held[k].student, held[k].school) for k in kept]
    assert choose(rule, fresh, problem) == []
    assert (fresh.reserved, fresh.eligible) == (X.reserved, X.eligible)
    checked.append(len(pool))
    return rejected


def assert_seats_match_walk(problem, rules):
    """Run the loop on full and on home-district lists with every choice on
    held seats checked; returns the pool sizes checked."""
    checked = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            spda_module, "choose", lambda rule, X, p: checked_choose(rule, X, p, checked)
        )
        for lists in (problem.preferences, home_lists(problem)):
            _outcome(spda_module._deferred_acceptance, problem, rules, lists)
    return checked


def capped(rng: random.Random, rules, problem):
    """Now and then a district cap on a spec rule that has none, so that the
    cap binds at later schools."""
    return {
        d: replace(rule, district_cap=rng.randint(1, problem.k_district[d] + 1))
        if rule.kind is not RuleKind.EXPLICIT_TABLE and rng.random() < 0.3
        else rule
        for d, rule in rules.items()
    }


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from(["small", "large", "wide"]))
def test_held_seats_match_the_walk_after_every_step(seed, size):
    # every spec kind, completions, own-favoring variants, caps, and tables
    # mixed in on small markets; 30 or more students on the larger ones
    rng = random.Random(seed)
    if size == "wide":
        # four districts of two schools, one per spec kind
        problem, rules = large_market(rng, students=rng.randint(40, 80), schools=8)
        rules = {d: variant(rng, rule, problem) for d, rule in rules.items()}
    else:
        problem = random_problem(rng, students=(2, 5) if size == "small" else (30, 45))
        rules = random_rules(rng, problem, tables=0.3 if size == "small" else 0.0)
    rules = capped(rng, rules, problem)
    if size != "wide":
        rules = {d: unvalidated(rng, r) for d, r in rules.items()}
    assert_seats_match_walk(problem, rules)


def test_held_seats_checks_reach_large_pools():
    # the hypothesis test above checks pools past the first few keys
    rng = random.Random(3)
    sizes = []
    for _ in range(5):
        problem, rules = large_market(rng, students=40, schools=8)
        sizes += assert_seats_match_walk(problem, capped(rng, rules, problem))
    assert max(sizes) >= 20


def test_rule_violation_keeps_the_steps_taken():
    # a table that chooses outside its input stops the run with the steps it
    # took before: those of the run under the same table with each entry cut
    # to its set, up to the step that consulted the bad entry
    longest = 0
    for seed in (12, 125, 154, 170, 70, 84, 180, 265):
        rng = random.Random(seed)
        problem = random_problem(rng, students=(2, 5))
        rules = random_rules(rng, problem, tables=0.5)
        repaired = {
            d: replace(rule, table=tuple((key, value & key) for key, value in rule.table))
            for d, rule in rules.items()
        }
        for lists in (problem.preferences, home_lists(problem)):
            try:
                spda_module._deferred_acceptance(problem, rules, lists)
                continue
            except RuleViolation as exc:
                if "chose outside its input" not in str(exc):
                    continue
                partial = exc.trace
            assert partial.outcome == frozenset()
            try:
                steps = spda_module._deferred_acceptance(problem, repaired, lists).steps
            except RuleViolation as exc:  # the repaired table may not converge
                steps = exc.trace.steps
            assert len(steps) > len(partial.steps)
            assert steps[: len(partial.steps)] == partial.steps
            longest = max(longest, len(partial.steps))
    assert longest >= 4
