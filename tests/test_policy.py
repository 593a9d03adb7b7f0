"""Policy goals, exchange-property checkers, flow bounds."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
import districtmatch.policy as policy_module
from districtmatch.cli import main
from districtmatch.errors import InfeasibleConstraints, UniverseTooLarge
from districtmatch.fixtures import fixture_path
from districtmatch.model import Distribution, distribution_of
from districtmatch.policy import (
    GoalForm,
    GoalTally,
    PolicyGoal,
    balanced_exchange_goal,
    combination_goal,
    contains,
    diversity_condition,
    enumerate_xi0,
    explicit_goal,
    f_lambda_goal,
    find_exchange_violation,
    implied_bounds,
    in_xi0,
    indicator_of,
    is_mconvex,
    is_pseudo_mconcave,
    manhattan_ideal,
    policy_members,
    satisfies_with_feasibility,
    school_diversity_goal,
    upper_contour,
)

import policy_reference
from helpers import matching_of, random_goal, random_problem
from policy_reference import is_mconvex_numpy, is_mconvex_reference, legitimate_distributions


# -- enumerate_xi0 -----------------------------------------------------------------


def test_xi0_forced_singleton():
    from districtmatch.model import ProblemSpec, validate_problem

    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 1)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2")),
            ("s2", "d1", "t1", ("c1", "c2")),
            ("s3", "d2", "t1", ("c2", "c1")),
        ),
        initial_matching={"s1": "c1", "s2": "c1", "s3": "c2"},
    )
    p = validate_problem(spec)
    assert enumerate_xi0(p) == [Distribution(((2,), (1,)))]


def test_xi0_basic_instance(basic):
    got = enumerate_xi0(basic.problem)
    flats = [tuple(v for row in xi.counts for v in row) for xi in got]
    assert flats == [(0, 2, 2), (1, 1, 2), (1, 2, 1)]


def test_xi0_impossibility_instance(impossibility):
    got = enumerate_xi0(impossibility.problem)
    assert len(got) == 3**6
    for xi in got:
        assert xi.total() == 6
        for c in range(6):
            assert xi.school_total(c) == 1
            assert all(v in (0, 1) for v in xi.counts[c])
    # independent recursive count: every school picks exactly one type
    assert len(got) == 3**6
    # lexicographic order
    flats = [xi.flat() for xi in got]
    assert flats == sorted(flats)


def test_xi0_budget():
    inst = dm.load_fixture("ttc_diversity")
    with pytest.raises(UniverseTooLarge):
        enumerate_xi0(inst.problem, budget=10)


# -- contains ----------------------------------------------------------------------


def test_contains_impossibility_members(impossibility):
    p = impossibility.problem
    goal = impossibility.policy
    X = matching_of(
        p, [("s1", "c6"), ("s2", "c2"), ("s3", "c4"), ("s4", "c3"), ("s5", "c5"), ("s6", "c1")]
    )
    Xp = matching_of(
        p, [("s1", "c1"), ("s2", "c6"), ("s3", "c5"), ("s4", "c4"), ("s5", "c3"), ("s6", "c2")]
    )
    assert contains(goal, distribution_of(X, p), p)
    assert contains(goal, distribution_of(Xp, p), p)
    # swapping c3's slot from t1 to t2 breaks d1's type ceiling
    xi = distribution_of(X, p).add(2, 0, -1).add(2, 1, +1)
    assert not contains(goal, xi, p)


def test_contains_balanced_initial(basic):
    p = basic.problem
    xi = distribution_of(p.initial_matching(), p)
    assert contains(balanced_exchange_goal(), xi, p)


def _with_repeats(rng, pairs):
    """``pairs`` with a second pair, of another count, for each of its keys,
    inserted before or after the first."""
    out = list(pairs)
    for key, v in pairs:
        out.insert(rng.randint(0, len(out)), (key, max(0, v + rng.choice((-2, -1, 1, 2)))))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(list(GoalForm)),
    intersect_xi0=st.booleans(),
    repeat=st.booleans(),
)
def test_contains_matches_reference(seed, form, intersect_xi0, repeat):
    # membership, and the tally's membership in goal ∩ Ξ₀, on members of Ξ₀,
    # on the same distributions with a student unmatched, and with a school
    # over capacity; a repeated floor or ceiling key counts its first pair, a
    # repeated district ceiling every pair
    rng = random.Random(seed)
    problem = random_problem(rng)
    goal = replace(random_goal(rng, problem, form), intersect_xi0=intersect_xi0)
    if repeat:
        goal = replace(
            goal,
            floors=_with_repeats(rng, goal.floors),
            ceilings=_with_repeats(rng, goal.ceilings),
            district_ceilings=_with_repeats(rng, goal.district_ceilings),
        )
    members = enumerate_xi0(problem)
    for xi in members[:: max(1, len(members) // 40)]:
        c, t = rng.choice([divmod(k, problem.num_types) for k, v in enumerate(xi.flat()) if v])
        over = problem.capacities[c] - xi.school_total(c) + 1
        for got in (xi, xi.add(c, t, -1), xi.add(c, t, over)):
            assert contains(goal, got, problem) == policy_reference.contains(goal, got, problem)
            want = policy_reference.satisfies_with_feasibility(goal, got, problem)
            assert GoalTally(goal, problem, got).holds() == want


@pytest.mark.parametrize(
    "goal",
    [
        PolicyGoal(
            GoalForm.SCHOOL_DIVERSITY,
            floors=(((0, 1), 1), ((0, 1), 0), ((2, 0), 0), ((2, 0), 1)),
            ceilings=(((0, 0), 1), ((0, 0), 2), ((1, 0), 2), ((1, 0), 1)),
        ),
        PolicyGoal(
            GoalForm.COMBINATION,
            floors=(((3, 0), 0), ((3, 0), 1)),
            ceilings=(((1, 1), 2), ((1, 1), 0)),
        ),
        PolicyGoal(
            GoalForm.DISTRICT_CEILINGS,
            district_ceilings=(((0, 0), 3), ((0, 0), 2), ((1, 0), 1), ((1, 0), 2)),
        ),
    ],
    ids=["school", "combination", "district_ceilings"],
)
def test_repeated_keys_match_reference(ttc_diversity, goal):
    # a repeated floor or ceiling key counts its first pair, a repeated
    # district ceiling every pair, in membership and in the tally alike
    p = ttc_diversity.problem
    for xi in enumerate_xi0(p):
        assert contains(goal, xi, p) == policy_reference.contains(goal, xi, p)
        want = policy_reference.satisfies_with_feasibility(goal, xi, p)
        assert GoalTally(goal, p, xi).holds() == want


def assert_membership_matches_reference(goal, p):
    # contains, membership with Ξ₀, and the tally's holds and permits on
    # every member of Ξ₀ and every move out of it, against the reference
    slots = list(itertools.product(range(p.num_schools), range(p.num_types)))
    for xi in enumerate_xi0(p):
        assert contains(goal, xi, p) == policy_reference.contains(goal, xi, p)
        want = policy_reference.satisfies_with_feasibility(goal, xi, p)
        assert satisfies_with_feasibility(goal, xi, p) == want
        tally = GoalTally(goal, p, xi)
        assert tally.holds() == want
        for (k0, origin), (k1, target) in itertools.product(enumerate(slots), repeat=2):
            if xi.counts[origin[0]][origin[1]]:
                moved = xi.add(*origin, -1).add(*target, +1)
                want = policy_reference.satisfies_with_feasibility(goal, moved, p)
                assert tally.permits(k0, k1) == want, (xi, origin, target)


def test_plain_callable_score_goal_matches_reference(ttc_diversity):
    # a score that is not a PolicyFunction is read through the Distribution
    # its flat vector stands for, as upper_contour reads it
    p = ttc_diversity.problem

    def balance(xi):
        return -abs(xi.counts[0][0] - xi.counts[1][1]) - xi.school_total(3)

    goal = f_lambda_goal(balance, -2)
    assert_membership_matches_reference(goal, p)
    want = [xi for xi in enumerate_xi0(p) if balance(xi) >= -2]
    assert 0 < len(want) < len(enumerate_xi0(p))
    assert upper_contour(balance, -2, p) == want


@pytest.mark.parametrize("intersect_xi0", [False, True])
def test_explicit_goal_ignores_members_of_another_shape(ttc_diversity, intersect_xi0):
    # a 2-by-4 distribution whose flat vector equals a 4-by-2 member of Ξ₀
    # is not that member
    p = ttc_diversity.problem
    xi = distribution_of(p.initial_matching(), p)
    flat = xi.flat()
    reshaped = Distribution((flat[:4], flat[4:]))
    assert reshaped.flat() == flat and reshaped != xi
    goal = replace(explicit_goal([reshaped]), intersect_xi0=intersect_xi0)
    assert not contains(goal, xi, p)
    assert not GoalTally(goal, p, xi).holds()
    assert_membership_matches_reference(goal, p)


def test_indicator_ideal_and_xi0_reject_another_shape(ttc_diversity):
    # an 8-by-1 copy of the 4-by-2 initial distribution is not in Ξ₀, so an
    # indicator drops it, an ideal refuses it and Ξ₀-intersected goals miss it
    p = ttc_diversity.problem
    xi = distribution_of(p.initial_matching(), p)
    tall = Distribution(tuple((v,) for v in xi.flat()))
    assert tall.flat() == xi.flat() and not in_xi0(tall, p) and in_xi0(xi, p)
    assert indicator_of([tall], p).members == frozenset()
    assert not contains(f_lambda_goal(indicator_of([tall], p), 1), xi, p)
    assert indicator_of([xi], p).members == {xi}
    assert contains(f_lambda_goal(indicator_of([xi], p), 1), xi, p)
    with pytest.raises(ValueError):
        manhattan_ideal(tall, p)
    assert manhattan_ideal(xi, p)(xi) == 0
    goal = replace(balanced_exchange_goal(), intersect_xi0=True)
    assert not contains(goal, tall, p) and contains(goal, xi, p)


def test_goal_bounds_are_built_once_per_problem_shape(capsys, monkeypatch):
    # the audit runs every misreport, which changes preferences only
    builds = []
    build = policy_module.GoalBounds.__init__

    def counted(self, goal, problem):
        builds.append(problem)
        build(self, goal, problem)

    monkeypatch.setattr(policy_module.GoalBounds, "__init__", counted)
    assert main(["audit", str(fixture_path("ttc_diversity")), "--mechanism", "ttc"]) == 0
    assert "runs" in capsys.readouterr().out
    assert len(builds) == 1
    inst = dm.load_fixture("ttc_diversity")
    problem = inst.problem
    xi = distribution_of(problem.initial_matching(), problem)
    wider = replace(problem, capacities=tuple(q + 1 for q in problem.capacities))
    for p, total in ((problem, 2), (problem, 2), (wider, 3), (problem, 4)):
        contains(inst.policy, xi, p)
        assert len(builds) == total


# -- M-convexity -------------------------------------------------------------------


def test_impossibility_goal_not_mconvex(impossibility):
    p = impossibility.problem
    members = policy_members(impossibility.policy, p)
    v = is_mconvex(members)
    assert not v.holds


def test_printed_pair_witness_coordinate(impossibility):
    p = impossibility.problem
    members = policy_members(impossibility.policy, p)
    eff = dm.constrained_efficient_ir_matchings(p, impossibility.policy)
    eff.sort(key=lambda X: tuple(sorted(X)))
    xi_prime, xi = (distribution_of(X, p) for X in eff)
    coord = find_exchange_violation(members, xi, xi_prime)
    assert coord == (2, 0)  # school c3, type t1


def test_singleton_set_mconvex():
    assert is_mconvex([Distribution(((1, 0), (0, 1)))]).holds


def test_balanced_goal_mconvex_on_fixtures(impossibility, ttc_diversity, reserves_diversity):
    for inst in (impossibility, ttc_diversity, reserves_diversity):
        p = inst.problem
        assert is_mconvex(policy_members(balanced_exchange_goal(), p)).holds


def test_fast_checker_agrees_with_reference():
    rng = random.Random(11)
    for _ in range(30):
        p = random_problem(rng)
        members = enumerate_xi0(p)
        if len(members) > 60:
            members = members[:60]
        sample = [xi for xi in members if rng.random() < 0.7]
        fast = is_mconvex(sample)
        ref = is_mconvex_reference(sample)
        assert fast.holds == ref.holds
        if not fast.holds:
            a, b, (c, t) = fast.witness
            # the reported witness must itself be a genuine violation
            assert a in sample and b in sample
            assert a.counts[c][t] > b.counts[c][t]
            assert find_exchange_violation(sample, a, b) is not None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), keep=st.floats(0.05, 1.0))
def test_verdict_matches_numpy_copy_on_random_sets(seed, keep):
    # the whole verdict, witness included: policy-check prints its coordinate
    pytest.importorskip("numpy")
    rng = random.Random(seed)
    sample = [xi for xi in enumerate_xi0(random_problem(rng)) if rng.random() < keep]
    assert is_mconvex(sample) == is_mconvex_numpy(sample)


@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_verdict_matches_numpy_copy_on_fixture_goals(name):
    pytest.importorskip("numpy")
    inst = dm.load_fixture(name)
    p = inst.problem
    goals = [balanced_exchange_goal()]
    if inst.policy is not None:
        goals.append(inst.policy)
    sets = [policy_members(goal, p) for goal in goals]
    rng = random.Random(name)
    xi0 = enumerate_xi0(p)
    sets += [[xi for xi in xi0 if rng.random() < 0.9] for _ in range(5)]
    for members in sets:
        assert is_mconvex(members) == is_mconvex_numpy(members)


def test_mconvex_budget():
    members = [Distribution(((i, 0), (3 - i, 0))) for i in range(4)]
    with pytest.raises(UniverseTooLarge):
        is_mconvex(members, pair_budget=3)


# -- pseudo M-concavity ------------------------------------------------------------


def test_constant_function_pseudo_mconcave(basic):
    v = is_pseudo_mconcave(lambda xi: Fraction(0), basic.problem)
    assert v.holds


def test_manhattan_pseudo_mconcave_toy():
    from districtmatch.model import ProblemSpec, validate_problem

    spec = ProblemSpec(
        types=("t1", "t2"),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 2)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2")),
            ("s2", "d1", "t2", ("c2", "c1")),
            ("s3", "d2", "t1", ("c1", "c2")),
        ),
        initial_matching={"s1": "c1", "s2": "c1", "s3": "c2"},
    )
    p = validate_problem(spec)
    ideal = distribution_of(p.initial_matching(), p)
    assert is_pseudo_mconcave(manhattan_ideal(ideal, p), p).holds


def test_indicator_of_nonconvex_set_not_pseudo_mconcave(impossibility):
    p = impossibility.problem
    members = policy_members(impossibility.policy, p)
    f = indicator_of(members, p)
    v = is_pseudo_mconcave(f, p)
    assert not v.holds


def test_manhattan_requires_feasible_ideal(ttc_diversity):
    p = ttc_diversity.problem
    bad = Distribution(tuple((9,) * p.num_types for _ in range(p.num_schools)))
    with pytest.raises(ValueError):
        manhattan_ideal(bad, p)


# -- upper contours and the equivalence boundary ------------------------------------


def test_upper_contour_trivial_cut(basic):
    p = basic.problem
    f = lambda xi: Fraction(0)
    assert upper_contour(f, Fraction(-1), p) == enumerate_xi0(p)
    assert upper_contour(f, Fraction(1), p) == []


def test_upper_contour_contains_ideal(ttc_diversity):
    p = ttc_diversity.problem
    ideal = distribution_of(p.initial_matching(), p)
    f = manhattan_ideal(ideal, p)
    assert ideal in upper_contour(f, f(ideal), p)


def test_indicator_of_full_set_is_constant_one(basic):
    p = basic.problem
    xi0 = enumerate_xi0(p)
    f = indicator_of(xi0, p)
    assert all(f(xi) == 1 for xi in xi0)


def test_indicator_round_trip(ttc_diversity):
    # an exchange-closed set comes back exactly from its 0/1 score at level 1
    p = ttc_diversity.problem
    S = policy_members(balanced_exchange_goal(), p)
    assert is_mconvex(S).holds
    f = indicator_of(S, p)
    assert is_pseudo_mconcave(f, p).holds
    assert upper_contour(f, Fraction(1), p) == S


def test_indicator_equivalence_both_directions(impossibility, ttc_diversity):
    # for 0/1 scores the concavity verdict must match the set verdict exactly
    for inst, goal in (
        (impossibility, impossibility.policy),
        (ttc_diversity, balanced_exchange_goal()),
        (ttc_diversity, ttc_diversity.policy),
    ):
        p = inst.problem
        S = policy_members(goal, p)
        f = indicator_of(S, p)
        assert is_pseudo_mconcave(f, p).holds == is_mconvex(S).holds


def test_manhattan_contour_capacity_boundary(ttc_diversity):
    """Frozen counterexample: a concave-by-exchange score whose capacity-
    constrained level set is not exchange-closed.

    The score's promised exchange can overfill a school, so concavity of
    the score does not transfer to its level sets.  See the decisions
    ledger for the full analysis.
    """
    p = ttc_diversity.problem
    ideal = distribution_of(p.initial_matching(), p)
    f = manhattan_ideal(ideal, p)
    assert is_pseudo_mconcave(f, p).holds
    S = upper_contour(f, Fraction(-12), p)
    assert len(S) == 182
    v = is_mconvex(S)
    assert not v.holds
    # the specific witness, verified both by the fast checker and directly
    a = Distribution(((0, 2), (0, 2), (0, 2), (0, 1)))
    b = Distribution(((1, 1), (0, 2), (2, 0), (1, 0)))
    assert a in S and b in S
    assert find_exchange_violation(S, a, b) == (0, 1)


# -- flow bounds -------------------------------------------------------------------


def test_implied_bounds_golden(reserves_diversity):
    p = reserves_diversity.problem
    bounds = implied_bounds(p, dict(reserves_diversity.policy.ceilings))
    assert bounds == {
        (0, 0): (1, 2),
        (0, 1): (2, 3),
        (1, 0): (2, 3),
        (1, 1): (0, 1),
    }


def test_implied_bounds_match_enumeration(reserves_diversity):
    p = reserves_diversity.problem
    ceilings = dict(reserves_diversity.policy.ceilings)
    bounds = implied_bounds(p, ceilings)
    legit = legitimate_distributions(p, ceilings)
    for (d, t), (lo, hi) in bounds.items():
        vals = [xi.district_type(p, d, t) for xi in legit]
        assert (min(vals), max(vals)) == (lo, hi)


def test_implied_bounds_forced():
    from districtmatch.model import ProblemSpec, validate_problem

    spec = ProblemSpec(
        types=("t1", "t2"),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2")),
            ("s2", "d2", "t2", ("c2", "c1")),
        ),
        initial_matching={"s1": "c1", "s2": "c2"},
    )
    p = validate_problem(spec)
    # single seat per school, cross slots closed: everything pinned
    forced = implied_bounds(p, {(0, 1): 0, (1, 0): 0})
    assert forced == {(0, 0): (1, 1), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 1)}
    # without the ceilings the two students may swap districts
    free = implied_bounds(p, {})
    assert free == {(0, 0): (0, 1), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 1)}


def test_implied_bounds_infeasible(reserves_diversity):
    p = reserves_diversity.problem
    zeroed = {(c, t): 0 for c in range(p.num_schools) for t in range(p.num_types)}
    with pytest.raises(InfeasibleConstraints):
        implied_bounds(p, zeroed)


def test_diversity_condition_golden(reserves_diversity):
    p = reserves_diversity.problem
    ceilings = dict(reserves_diversity.policy.ceilings)
    report = diversity_condition(p, ceilings, Fraction(3, 4))
    deltas = dict(report.deltas)
    assert deltas[(0, 0, 1)] == Fraction(-1, 6)
    assert deltas[(0, 1, 0)] == Fraction(3, 4)
    assert deltas[(1, 0, 1)] == Fraction(3, 4)
    assert deltas[(1, 1, 0)] == Fraction(-1, 6)
    assert report.satisfied
    assert not diversity_condition(p, ceilings, Fraction(7, 10)).satisfied
    assert diversity_condition(p, ceilings, Fraction(1)).satisfied


def test_legitimate_distributions_footnote_scenarios(reserves_diversity):
    p = reserves_diversity.problem
    legit = legitimate_distributions(p, dict(reserves_diversity.policy.ceilings))
    combos = {
        (xi.district_type(p, 0, 0), xi.district_type(p, 0, 1)) for xi in legit
    }
    assert (1, 3) in combos
    assert (2, 2) in combos


def test_legitimate_distributions_empty_when_ceilings_zero(reserves_diversity):
    p = reserves_diversity.problem
    zeroed = {(c, t): 0 for c in range(p.num_schools) for t in range(p.num_types)}
    assert legitimate_distributions(p, zeroed) == []


def test_joint_attainability(reserves_diversity):
    # one legitimate matching can reach a ceiling in one district and a
    # floor in another simultaneously
    p = reserves_diversity.problem
    ceilings = dict(reserves_diversity.policy.ceilings)
    bounds = implied_bounds(p, ceilings)
    legit = legitimate_distributions(p, ceilings)
    for t in range(p.num_types):
        for d in range(p.num_districts):
            for d2 in range(p.num_districts):
                if d == d2:
                    continue
                hi = bounds[(d, t)][1]
                lo = bounds[(d2, t)][0]
                assert any(
                    xi.district_type(p, d, t) == hi
                    and xi.district_type(p, d2, t) == lo
                    for xi in legit
                )


def test_flow_bounds_match_enumeration_on_random_instances():
    # flow solutions and exhaustive legitimate-distribution scans must agree
    # on every (district, type) floor and ceiling, feasible or not
    rng = random.Random(23)
    for _ in range(40):
        p = random_problem(rng)
        base = dm.distribution_of(p.initial_matching(), p)
        ceilings = {}
        for c in range(p.num_schools):
            for t in range(p.num_types):
                slack = rng.randint(0, 2)
                if rng.random() < 0.25:
                    ceilings[(c, t)] = max(0, base.counts[c][t] - 1)
                else:
                    ceilings[(c, t)] = base.counts[c][t] + slack
        legit = legitimate_distributions(p, ceilings)
        if not legit:
            with pytest.raises(InfeasibleConstraints):
                implied_bounds(p, ceilings)
            continue
        bounds = implied_bounds(p, ceilings)
        for (d, t), (lo, hi) in bounds.items():
            vals = [xi.district_type(p, d, t) for xi in legit]
            assert (min(vals), max(vals)) == (lo, hi)
        # a single legitimate matching attains each cross-district
        # ceiling/floor pair simultaneously
        for t in range(p.num_types):
            for d in range(p.num_districts):
                for d2 in range(p.num_districts):
                    if d == d2:
                        continue
                    assert any(
                        xi.district_type(p, d, t) == bounds[(d, t)][1]
                        and xi.district_type(p, d2, t) == bounds[(d2, t)][0]
                        for xi in legit
                    )


def _random_school_ceilings(rng, problem):
    """Per (school, type): absent, 0, negative (admits no one, as 0 does),
    up to the school's capacity, or above it (binds nothing)."""
    out = {}
    for c, q_c in enumerate(problem.capacities):
        for t in range(problem.num_types):
            r = rng.random()
            if r < 0.2:
                continue
            out[(c, t)] = (
                0 if r < 0.3
                else rng.randint(-2, -1) if r < 0.4
                else rng.randint(q_c + 1, q_c + 2) if r < 0.5
                else rng.randint(1, q_c)
            )
    return out


def _bounds_or_message(bounds, problem, ceilings):
    try:
        return bounds(problem, ceilings)
    except InfeasibleConstraints as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_implied_bounds_match_min_cost_flow_reference(seed):
    # the max-flow bounds against the two min-cost flows per (district, type)
    # they replaced: the same dict, or the same infeasibility message
    rng = random.Random(seed)
    p = random_problem(rng, num_types=rng.randint(1, 3), students=(2, 8))
    ceilings = _random_school_ceilings(rng, p)
    assert _bounds_or_message(implied_bounds, p, ceilings) == _bounds_or_message(
        policy_reference.implied_bounds_reference, p, ceilings
    )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_implied_bounds_match_enumeration_on_random_problems(seed):
    # (lo, hi) are the extremes of each (district, type) count over the
    # legitimate distributions, and InfeasibleConstraints means there are
    # none; a negative ceiling admits no one, as 0 does
    rng = random.Random(seed)
    p = random_problem(rng, students=(2, 5))
    ceilings = _random_school_ceilings(rng, p)
    legit = legitimate_distributions(p, {k: max(q, 0) for k, q in ceilings.items()})
    if not legit:
        with pytest.raises(InfeasibleConstraints):
            implied_bounds(p, ceilings)
        return
    assert implied_bounds(p, ceilings) == {
        (d, t): (min(vals), max(vals))
        for d in range(p.num_districts)
        for t in range(p.num_types)
        for vals in [[xi.district_type(p, d, t) for xi in legit]]
    }


def test_flow_network_integrality_and_conservation():
    net = policy_reference.FlowNetwork(4)
    a = net.add_arc(0, 1, 3, 1)
    b = net.add_arc(0, 2, 2, 0)
    c = net.add_arc(1, 3, 2, 0)
    d = net.add_arc(2, 3, 3, 2)
    flow, cost = net.min_cost_max_flow(0, 3)
    assert flow == 4
    assert isinstance(cost, int)
    flows = {arc: net.arc_flow(arc) for arc in (a, b, c, d)}
    assert all(isinstance(v, int) and v >= 0 for v in flows.values())
    assert flows[a] == flows[c]
    assert flows[b] == flows[d]
    assert flows[a] + flows[b] == 4
    # cheapest split: 2 units through each side
    assert cost == flows[a] * 1 + flows[d] * 2


def test_combination_goal_membership(reserves_diversity):
    p = reserves_diversity.problem
    ceilings = dict(reserves_diversity.policy.ceilings)
    goal = combination_goal(ceilings=ceilings)
    outcome = dm.run_spda(p, reserves_diversity.rules).outcome
    assert contains(goal, distribution_of(outcome, p), p)
    # the combination set relaxes the type-total condition, so it contains
    # every legitimate distribution; restoring that condition recovers them
    members = policy_members(goal, p)
    legit = legitimate_distributions(p, ceilings)
    assert set(legit) <= set(members)
    typed = [
        xi
        for xi in members
        if all(
            sum(xi.counts[c][t] for c in range(p.num_schools)) == p.k_type[t]
            for t in range(p.num_types)
        )
    ]
    assert typed == legit


@pytest.mark.parametrize("make", [school_diversity_goal, combination_goal])
def test_goal_rejects_a_floor_above_its_ceiling(make):
    with pytest.raises(ValueError, match="floor/ceiling order violated at school 0, type 1"):
        make(floors={(0, 1): 2}, ceilings={(0, 1): 1})
