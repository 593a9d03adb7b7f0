"""Trading over school-type slots: market construction, permissibility, runs."""

import pytest

import districtmatch as dm
from districtmatch.errors import PolicyViolatedAtStart, Stuck, TypeMismatch
from districtmatch.model import distribution_of
from districtmatch.policy import (
    balanced_exchange_goal,
    is_mconvex,
    policy_members,
    satisfies_with_feasibility,
)
from districtmatch.ttc import _find_cycles, build_hypothetical, is_permissible, run_ttc

from helpers import ids_of, initial_contract, matching_of
from ttc_reference import priority_key

GOLDEN_TTC = [
    ("s1", "c3"),
    ("s2", "c1"),
    ("s3", "c4"),
    ("s4", "c2"),
    ("s5", "c1"),
    ("s6", "c3"),
    ("s7", "c2"),
]


def test_lifted_preferences(ttc_diversity):
    p = ttc_diversity.problem
    market = build_hypothetical(p, ttc_diversity.master)
    # own-type slots in school-preference order, then other types
    assert market.student_prefs[0][:4] == ((1, 0), (2, 0), (0, 0), (3, 0))
    assert all(slot[1] == 0 for slot in market.student_prefs[0][:4])
    initial = market.initial_slot[0]
    own = market.student_prefs[0][:4]
    other = market.student_prefs[0][4:]
    assert own.index(initial) < 4
    assert all(slot[1] != 0 for slot in other)


def test_single_slot_market():
    from districtmatch.model import ProblemSpec, validate_problem

    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(("s1", "d1", "t1", ("c1", "c2")),),
        initial_matching={"s1": "c1"},
    )
    p = validate_problem(spec)
    market = build_hypothetical(p)
    assert market.pairs == ((0, 0), (1, 0))
    assert market.initial_slot == ((0, 0),)


def test_slot_priority_classes(ttc_diversity):
    p = ttc_diversity.problem
    market = build_hypothetical(p, ttc_diversity.master)
    # both initial occupants of (c1, t1) precede everyone else, master order
    key = lambda s: priority_key(market, (0, 0), s)
    assert key(0) < key(1) < key(2)
    assert key(1)[0] == 0 and key(2)[0] == 1


def test_permissibility_worked_cases(ttc_diversity):
    p = ttc_diversity.problem
    goal = ttc_diversity.policy
    X = p.initial_matching()
    # a student holding a type-t1 seat at a full school frees it for a
    # type-t2 one: the off-type slot of her own school admits her
    assert is_permissible(0, (0, 1), X, goal, p, audit=True)
    # her own initial slot is always permissible while the goal holds
    assert is_permissible(0, (0, 0), X, goal, p)
    # nobody fits a full single-seat school
    market = build_hypothetical(p, ttc_diversity.master)
    after_step1 = matching_of(p, [("s7", "c2"), ("s3", "c4")])
    X2 = after_step1 | frozenset(
        initial_contract(p, s) for s in (0, 1, 3, 4, 5)
    )
    for s in (0, 1, 3, 4, 5):
        assert not is_permissible(
            s, (3, p.student_type[s]), X2, goal, p, audit=True
        )


def test_permissibility_type_guard(ttc_diversity):
    p = ttc_diversity.problem
    with pytest.raises(TypeMismatch):
        is_permissible(0, (0, 1), p.initial_matching(), ttc_diversity.policy, p)


def test_golden_run(ttc_diversity):
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    assert ids_of(p, trace.outcome) == GOLDEN_TTC
    assert trace.num_steps == 5
    step1 = {(s, slot) for cycle in trace.steps[0].cycles for s, slot in cycle}
    assert step1 == {(6, (1, 1)), (2, (3, 0))}  # s7->(c2,t2), s3->(c4,t1)
    step2 = {(s, slot) for cycle in trace.steps[1].cycles for s, slot in cycle}
    assert step2 == {(3, (1, 0))}  # s4->(c2,t1)


def test_policy_preserved_each_step(ttc_diversity):
    p = ttc_diversity.problem
    goal = ttc_diversity.policy
    trace = run_ttc(p, goal, ttc_diversity.master)
    assignment = {s: (p.initial_school[s], p.student_type[s]) for s in range(7)}
    for step in trace.steps:
        X = frozenset(p.contract(s, slot[0]) for s, slot in assignment.items())
        assert satisfies_with_feasibility(goal, distribution_of(X, p), p)
        for cycle in step.cycles:
            for s, slot in cycle:
                assignment[s] = slot
    assert satisfies_with_feasibility(
        goal, distribution_of(trace.outcome, p), p
    )


def test_individual_rationality(ttc_diversity):
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    assert dm.check_individual_rationality(trace.outcome, p).holds


def test_self_cycles_when_everyone_loves_home(ttc_diversity):
    p = ttc_diversity.problem
    for s in range(p.num_students):
        home_first = (p.initial_school[s],) + tuple(
            c for c in p.preferences[s] if c != p.initial_school[s]
        )
        p = dm.with_preferences(p, s, home_first)
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    assert trace.outcome == p.initial_matching()
    # every executed trade is a self-loop; a slot shared by several initial
    # occupants releases them one per step, master-list first
    for step in trace.steps:
        for cycle in step.cycles:
            assert len(cycle) == 1
            (s, slot), = cycle
            assert slot == (p.initial_school[s], p.student_type[s])


def test_fail_fast_when_initial_violates_goal(ttc_diversity):
    p = ttc_diversity.problem
    tight = dm.school_diversity_goal(ceilings={(0, 0): 1})  # c1 already has 2 t1
    with pytest.raises(PolicyViolatedAtStart):
        run_ttc(p, tight, ttc_diversity.master)


def test_stuck_fixture(ttc_stuck):
    p = ttc_stuck.problem
    with pytest.raises(Stuck) as err:
        run_ttc(p, ttc_stuck.policy, ttc_stuck.master)
    trace = err.value.trace
    # two individually fine same-step trades jointly overfill school c2,
    # stranding the remaining student once every slot dies
    step1 = trace.steps[0]
    executed = {s for cycle in step1.cycles for s, _ in cycle}
    assert executed == {0, 1}
    assert not is_mconvex(policy_members(ttc_stuck.policy, p)).holds


def test_no_stuck_under_exchange_closed_goals(ttc_diversity, reserves_diversity):
    for inst in (ttc_diversity, reserves_diversity):
        p = inst.problem
        goal = balanced_exchange_goal()
        assert is_mconvex(policy_members(goal, p)).holds
        trace = run_ttc(p, goal, inst.master)
        assert len(trace.outcome) == p.num_students


def test_trace_slots_never_reappear(ttc_diversity):
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    gone = set()
    for step in trace.steps:
        assert not (set(step.active) & gone)
        gone |= set(step.removed)


def test_outcome_in_oracle_efficient_set(ttc_diversity):
    # mechanism/oracle agreement under an exchange-closed goal
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    efficient = dm.constrained_efficient_ir_matchings(p, ttc_diversity.policy)
    assert trace.outcome in efficient


def test_outcome_in_original_contract_terms(ttc_diversity):
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    for x in trace.outcome:
        assert x.district == p.school_district[x.school]
    assert len({x.student for x in trace.outcome}) == p.num_students


def test_cycle_starts_where_the_first_walk_enters_it():
    # the walk from student 1 enters the cycle 5 -> B -> 3 -> C -> 5 at 5, so
    # the cycle starts there, not at its least student 3; traces keep this order
    students = {1: "A", 5: "B", 3: "C"}
    slots = {"A": 5, "B": 3, "C": 5}
    assert _find_cycles(students, slots) == [((5, "B"), (3, "C"))]
