"""The incremental trading run, its cycle walk and its goal tally against
the direct implementations they replace."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import DistrictMatchError
from districtmatch.model import ProblemSpec, distribution_of, validate_problem
from districtmatch.policy import (
    GoalForm,
    GoalTally,
    balanced_exchange_goal,
    combination_goal,
    district_ceilings_goal,
    enumerate_xi0,
    school_diversity_goal,
)
from districtmatch.ttc import _find_cycles, run_ttc

from helpers import random_goal, random_problem, slot
from policy_reference import satisfies_with_feasibility
from ttc_reference import _find_cycles as find_cycles_reference
from ttc_reference import run_ttc_per_pair, run_ttc_reference


def _outcome(run, problem, goal, master):
    try:
        return ("trace", run(problem, goal, master))
    except DistrictMatchError as exc:
        return (type(exc), str(exc), getattr(exc, "trace", None))


def _full_outcome(run, problem, goal, master):
    """``_outcome`` with the trace's ``read``, which ``==`` leaves out."""
    got = _outcome(run, problem, goal, master)
    trace = got[-1]
    return got, trace and trace.read


def assert_same_run(problem, goal, master):
    got = _outcome(run_ttc, problem, goal, master)
    want = _outcome(run_ttc_reference, problem, goal, master)
    assert got == want
    return got


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(list(GoalForm)),
)
def test_run_matches_reference_on_random_markets(seed, form):
    rng = random.Random(seed)
    problem = random_problem(rng)
    master = list(range(problem.num_students))
    rng.shuffle(master)
    assert_same_run(problem, random_goal(rng, problem, form), master)


@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_run_matches_reference_on_fixtures(name):
    inst = dm.load_fixture(name)
    problem = inst.problem
    goals = [balanced_exchange_goal()]
    if inst.policy is not None:
        goals.append(inst.policy)
    rng = random.Random(name)
    for form in GoalForm:
        goals.append(random_goal(rng, problem, form))
    for goal in goals:
        assert_same_run(problem, goal, inst.master)


def test_stuck_fixture_matches_reference(ttc_stuck):
    kind, *_ = assert_same_run(ttc_stuck.problem, ttc_stuck.policy, ttc_stuck.master)
    assert kind is dm.Stuck


# -- the per-pair step loop ----------------------------------------------------------


def _truncated(rng, problem):
    """``problem`` with some school lists cut short, often leaving out the
    initial school, so that pointers run past a student's own-type slots."""
    prefs = [
        tuple(c for c in order if rng.random() < 0.6) if rng.random() < 0.4 else order
        for order in problem.preferences
    ]
    return dataclasses.replace(problem, preferences=tuple(prefs))


def _random_run(seed, form):
    """A seeded market, goal and shuffled master, its lists cut short half
    the time.  Linear goals get three types now and then, so that the
    other-type slots of a list span two types; the other forms enumerate
    every distribution, which three types make slow.  Half the box goals
    cap slots at their initial counts, so slots left empty go in the first
    step and pointers run on into the other-type slots."""
    rng = random.Random(seed)
    linear = form not in (GoalForm.EXPLICIT_SET, GoalForm.F_LAMBDA)
    num_types = 3 if linear and rng.random() < 0.5 else None
    problem = random_problem(rng, num_types=num_types, students=(2, 6))
    if form is GoalForm.SCHOOL_DIVERSITY and rng.random() < 0.5:
        xi = distribution_of(problem.initial_matching(), problem)
        goal = school_diversity_goal(ceilings={
            (c, t): xi.counts[c][t]
            for c in range(problem.num_schools)
            for t in range(problem.num_types)
            if rng.random() < 0.8
        })
    else:
        goal = random_goal(rng, problem, form)
    if rng.random() < 0.5:
        problem = _truncated(rng, problem)
    master = list(range(problem.num_students))
    rng.shuffle(master)
    return problem, goal, master


def assert_same_as_per_pair(problem, goal, master):
    got = _full_outcome(run_ttc, problem, goal, master)
    assert got == _full_outcome(run_ttc_per_pair, problem, goal, master)
    return got[0]


def test_pointer_runs_on_into_other_types_in_list_order():
    # s1 (type t1) ranks only c1 and c2, whose t1 slots, like (c1, t2), are
    # capped at 0 and go in the first step; her other-type slots follow her
    # list school by school, so she points to (c1, t3) before (c2, t2)
    spec = ProblemSpec(
        types=("t1", "t2", "t3"),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 2), ("c3", "d1", 1)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2", "c3")),
            ("s2", "d2", "t2", ("c2", "c1", "c3")),
        ),
        initial_matching={"s1": "c3", "s2": "c2"},
    )
    problem = validate_problem(spec)
    problem = dataclasses.replace(problem, preferences=((0, 1), problem.preferences[1]))
    goal = school_diversity_goal(ceilings={(0, 0): 0, (1, 0): 0, (0, 1): 0})
    kind, trace = assert_same_as_per_pair(problem, goal, None)
    assert kind == "trace"
    first = trace.steps[0]
    assert first.removed == (slot(problem, 0, 0), slot(problem, 0, 1), slot(problem, 1, 0))
    assert first.student_pointer == ((0, slot(problem, 0, 2)), (1, slot(problem, 1, 1)))
    assert first.cycles == (((0, slot(problem, 0, 2)),), ((1, slot(problem, 1, 1)),))
    assert trace.read == (3, 1)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(list(GoalForm)),
)
def test_run_matches_per_pair_loop_on_random_markets(seed, form):
    assert_same_as_per_pair(*_random_run(seed, form))


def assert_step_bound(problem, goal, master):
    """Each step of a run that does not raise removes a slot or executes a
    cycle.  Slots never come back and a cycle assigns its students, so a
    finished run takes at most n + P steps (n students, P slots); a
    ``Stuck`` trace has one more step, which removes nothing and trades
    nothing.  Returns whether the run was stuck, or None when it took no
    step."""
    try:
        trace, stuck = run_ttc(problem, goal, master), False
    except dm.Stuck as exc:
        trace, stuck = exc.trace, True
    except dm.PolicyViolatedAtStart:
        return None
    n, P = problem.num_students, problem.num_schools * problem.num_types
    idle = [i for i, step in enumerate(trace.steps) if not (step.removed or step.cycles)]
    assert idle == ([trace.num_steps - 1] if stuck else [])
    assert sum(len(step.removed) for step in trace.steps) <= P
    assert sum(len(cycle) for step in trace.steps for cycle in step.cycles) <= n
    assert trace.num_steps <= n + P + stuck
    return stuck


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(list(GoalForm)),
)
@example(seed=1, form=GoalForm.BALANCED_EXCHANGE)  # stuck at its fifth step
def test_run_takes_at_most_n_plus_p_steps_on_random_markets(seed, form):
    assert_step_bound(*_random_run(seed, form))


def test_stuck_fixture_meets_the_step_bound(ttc_stuck):
    assert assert_step_bound(ttc_stuck.problem, ttc_stuck.policy, ttc_stuck.master)


def test_per_pair_sweep_reaches_every_branch(monkeypatch):
    # a fixed sweep: pointers past the own-type slots (the lazily built
    # other-type slots), per-pair tests after a linear goal's tally stops
    # holding, and each kind of error
    per_pair = []
    permits = GoalTally.permits

    def counted(self, origin, target):
        per_pair.append(self._member is None)
        return permits(self, origin, target)

    monkeypatch.setattr(GoalTally, "permits", counted)
    seen = set()
    forms = list(GoalForm)
    for seed in range(600):
        problem, goal, master = _random_run(seed, forms[seed % len(forms)])
        per_pair.clear()
        got = _full_outcome(run_ttc, problem, goal, master)
        if any(per_pair):
            seen.add("linear per pair")
        assert got == _full_outcome(run_ttc_per_pair, problem, goal, master)
        kind, *rest = got[0]
        trace = rest[-1]
        seen.add(kind)
        for step in trace.steps if trace else ():
            for s, k in step.student_pointer:
                t = problem.student_type[s]
                if k % problem.num_types != t:
                    # her other-type slots start at her first school's
                    first = slot(problem, problem.preferences[s][0], int(t == 0))
                    seen.add("other type" if k == first else "later other type")
    assert {
        "trace", "other type", "later other type", "linear per pair",
        dm.Stuck, dm.PolicyViolatedAtStart,
    } <= seen


# -- the cycle walk ------------------------------------------------------------------


@st.composite
def pointer_graphs(draw):
    """A student -> slot -> student pointing graph: a few cycles, then the
    other students either without a pointer or pointing on to any student,
    which runs chains into cycles and into walks started earlier; student
    ids are sparse and both dicts are filled in shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 16))
    students = rng.sample(range(3 * n), n)
    successor = {}
    i = 0
    while i < n and rng.random() < 0.8:
        cycle = students[i : i + rng.randint(1, 4)]
        successor.update(zip(cycle, cycle[1:] + cycle[:1]))
        i += len(cycle)
    for s in students[i:]:
        if rng.random() < 0.7:
            successor[s] = rng.choice(students)
    # one to three slots point to each student; a pointer picks one of them
    slots_of = {s: [(s, k) for k in range(rng.randint(1, 3))] for s in students}
    slot_pointer = [(slot, s) for s, slots in slots_of.items() for slot in slots]
    student_pointer = [(s, rng.choice(slots_of[t])) for s, t in successor.items()]
    rng.shuffle(slot_pointer)
    rng.shuffle(student_pointer)
    return dict(student_pointer), dict(slot_pointer)


@settings(max_examples=500, deadline=None)
@given(graph=pointer_graphs())
def test_cycle_walk_matches_reference(graph):
    student_pointer, slot_pointer = graph
    assert _find_cycles(student_pointer, slot_pointer) == find_cycles_reference(
        student_pointer, slot_pointer
    )


@settings(max_examples=500, deadline=None)
@given(graph=pointer_graphs(), drop=st.randoms(use_true_random=False))
def test_walks_from_least_pointers_and_targets_find_every_cycle(graph, drop):
    # run_ttc walks only from the least student pointing at each slot and
    # from the students the slots point to; slots no student points at may
    # go, so some students are no slot's target
    student_pointer, slot_pointer = graph
    used = set(student_pointer.values())
    slot_pointer = {
        slot: s for slot, s in slot_pointer.items() if slot in used or drop.random() < 0.3
    }
    least = {}
    for s, slot in student_pointer.items():
        least[slot] = min(s, least.get(slot, s))
    starts = set(least.values()) | set(slot_pointer.values())
    restricted = {s: student_pointer[s] for s in starts if s in student_pointer}
    assert _find_cycles(restricted, slot_pointer) == _find_cycles(
        student_pointer, slot_pointer
    )


# -- the goal tally ------------------------------------------------------------------


def _moved(xi, origin, target):
    return xi.add(*origin, -1).add(*target, +1)


def assert_masks_match_permits(tally, k0, num_slots, rng):
    """``target_masks()`` from ``k0`` gives the coordinates ``permits``
    allows, out of every coordinate and out of a random subset."""
    allowed = sum(1 << k1 for k1 in range(num_slots) if tally.permits(k0, k1))
    targets = tally.target_masks()
    subset = rng.getrandbits(num_slots)
    assert targets(k0, (1 << num_slots) - 1) == allowed
    assert targets(k0, subset) == allowed & subset


def assert_tally_exact(goal, problem, xi):
    """``permits``, ``target_masks`` and ``move`` agree with brute-force
    membership for every move from every occupied slot of ``xi``, and the
    masks agree with ``permits`` before and after each move."""
    slots = [
        (c, t) for c in range(problem.num_schools) for t in range(problem.num_types)
    ]
    rng = random.Random(len(slots))
    want_here = satisfies_with_feasibility(goal, xi, problem)
    for (k0, origin), (k1, target) in itertools.product(enumerate(slots), repeat=2):
        if xi.counts[origin[0]][origin[1]] == 0:
            continue
        tally = GoalTally(goal, problem, xi)
        assert tally.holds() == want_here
        moved = _moved(xi, origin, target)
        want = satisfies_with_feasibility(goal, moved, problem)
        assert tally.permits(k0, k1) == want, (xi, origin, target)
        assert_masks_match_permits(tally, k0, len(slots), rng)
        tally.move(k0, k1)
        assert tally.counts == list(moved.flat())
        assert tally.holds() == want, (xi, origin, target)
        assert_masks_match_permits(tally, k1, len(slots), rng)


@pytest.mark.parametrize(
    "goal",
    [
        balanced_exchange_goal(),
        school_diversity_goal({(0, 0): 1}, {(0, 1): 1, (1, 0): 1}),
        combination_goal({(1, 1): 1}, {(0, 0): 1, (2, 1): 1}),
        district_ceilings_goal({(0, 0): 1, (0, 1): 2, (1, 1): 1}),
    ],
    ids=["balanced", "school", "combination", "district_ceilings"],
)
def test_tally_moves_within_a_school_and_a_district(ttc_diversity, goal):
    # every distribution of the market, in and out of the goal: moves between
    # the two types of one school, and between two schools of one district,
    # leave the shared school or district entry unchanged
    problem = ttc_diversity.problem
    assert problem.district_schools[0][:2] == (0, 1)
    assert problem.num_types == 2
    members = enumerate_xi0(problem)
    for xi in members[:: max(1, len(members) // 150)]:
        assert_tally_exact(goal, problem, xi)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(list(GoalForm)),
)
def test_tally_matches_membership_on_random_markets(seed, form):
    rng = random.Random(seed)
    problem = random_problem(rng)
    goal = random_goal(rng, problem, form)
    members = enumerate_xi0(problem)
    assert_tally_exact(goal, problem, rng.choice(members))


def test_tally_counts_every_violation(ttc_diversity):
    # two violated ceilings: repairing one leaves the goal violated, and only
    # a move repairing the other as well is permitted
    problem = ttc_diversity.problem
    xi = distribution_of(problem.initial_matching(), problem)
    assert (xi.counts[0][0], xi.counts[1][0]) == (2, 2)
    goal = school_diversity_goal(ceilings={(0, 0): 1, (1, 0): 1})
    tally = GoalTally(goal, problem, xi)
    T = problem.num_types
    assert not tally.holds()
    assert not tally.permits(1 * T + 0, 0 * T + 1)
    tally.move(1 * T + 0, 0 * T + 1)
    assert not tally.holds()
    assert not tally.permits(0 * T + 0, 1 * T + 0)
    assert tally.permits(0 * T + 0, 0 * T + 1)
