"""The incremental trading run and its goal tally against the direct
implementations they replace."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import DistrictMatchError
from districtmatch.model import distribution_of
from districtmatch.policy import (
    GoalForm,
    GoalTally,
    balanced_exchange_goal,
    combination_goal,
    district_ceilings_goal,
    enumerate_xi0,
    school_diversity_goal,
)
from districtmatch.ttc import run_ttc

from helpers import random_goal, random_problem
from policy_reference import satisfies_with_feasibility
from ttc_reference import run_ttc_reference


def _outcome(run, problem, goal, master):
    try:
        return ("trace", run(problem, goal, master))
    except DistrictMatchError as exc:
        return (type(exc), str(exc), getattr(exc, "trace", None))


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


# -- the goal tally ------------------------------------------------------------------


def _moved(xi, origin, target):
    return xi.add(*origin, -1).add(*target, +1)


def assert_tally_exact(goal, problem, xi):
    """``permits`` and ``move`` agree with brute-force membership for every
    move from every occupied slot of ``xi``."""
    slots = [
        (c, t) for c in range(problem.num_schools) for t in range(problem.num_types)
    ]
    want_here = satisfies_with_feasibility(goal, xi, problem)
    for origin, target in itertools.product(slots, slots):
        if xi.school_type(*origin) == 0:
            continue
        tally = GoalTally(goal, problem, xi)
        assert tally.holds() == want_here
        moved = _moved(xi, origin, target)
        want = satisfies_with_feasibility(goal, moved, problem)
        assert tally.permits(origin, target) == want, (xi, origin, target)
        tally.move(origin, target)
        assert tally.distribution() == moved
        assert tally.holds() == want, (xi, origin, target)


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
    assert (xi.school_type(0, 0), xi.school_type(1, 0)) == (2, 2)
    goal = school_diversity_goal(ceilings={(0, 0): 1, (1, 0): 1})
    tally = GoalTally(goal, problem, xi)
    assert not tally.holds()
    assert not tally.permits((1, 0), (0, 1))
    tally.move((1, 0), (0, 1))
    assert not tally.holds()
    assert not tally.permits((0, 0), (1, 0))
    assert tally.permits((0, 0), (0, 1))
