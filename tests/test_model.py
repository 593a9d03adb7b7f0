"""Model validation, distributions, feasibility, and dominance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import ValidationError
from districtmatch.model import (
    ProblemSpec,
    distribution_of,
    is_feasible,
    pareto_dominates,
    validate_problem,
)

from helpers import matching_of


def test_basic_fixture_validates(basic):
    p = basic.problem
    assert p.num_students == 4
    assert p.k_district == (2, 2)
    assert p.k_type == (4,)
    assert p.district_schools == ((0, 1), (2,))


def test_single_district_rejected(basic):
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1",),
        schools=(("c1", "d1", 2),),
        students=(("s1", "d1", "t1", ("c1",)),),
        initial_matching={"s1": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert "MissingDistrict" in err.value.codes()


def test_capacity_shortfall_reported():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d1", 1), ("c3", "d2", 2)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2", "c3")),
            ("s2", "d1", "t1", ("c3", "c1", "c2")),
            ("s3", "d2", "t1", ("c1", "c2", "c3")),
            ("s4", "d2", "t1", ("c2", "c1", "c3")),
        ),
        initial_matching={"s1": "c1", "s2": "c2", "s3": "c3", "s4": "c3"},
    )
    validate_problem(spec)  # capacities exactly cover both districts

    short = ProblemSpec(
        types=spec.types,
        districts=spec.districts,
        schools=(("c1", "d1", 1), ("c2", "d1", 1), ("c3", "d2", 1)),
        students=spec.students,
        initial_matching={"s1": "c1", "s2": "c2", "s3": "c3", "s4": "c3"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(short)
    codes = err.value.codes()
    assert "CapacityShortfall" in codes
    assert "InfeasibleInitialMatching" in codes


def test_zero_capacity_reported(basic):
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 0), ("c2", "d1", 0), ("c3", "d2", 2)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2", "c3")),
            ("s2", "d1", "t1", ("c3", "c1", "c2")),
            ("s3", "d2", "t1", ("c1", "c2", "c3")),
            ("s4", "d2", "t1", ("c2", "c1", "c3")),
        ),
        initial_matching={"s1": "c1", "s2": "c2", "s3": "c3", "s4": "c3"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    codes = err.value.codes()
    assert codes.count("CapacityShortfall") >= 3  # two schools plus district d1


def test_incomplete_preferences_rejected():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 2)),
        students=(
            ("s1", "d1", "t1", ("c1",)),
            ("s2", "d2", "t1", ("c1", "c2")),
        ),
        initial_matching={"s1": "c1", "s2": "c2"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert "IncompletePreference" in err.value.codes()


def test_duplicate_ids_rejected():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c1", "d2", 2)),
        students=(("s1", "d1", "t1", ("c1",)),),
        initial_matching={"s1": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert any("duplicate" in msg for _, msg in err.value.issues)


def test_empty_district_has_no_share_in_gap():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 1)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2")),
            ("s2", "d1", "t1", ("c2", "c1")),
        ),
        initial_matching={"s1": "c1", "s2": "c1"},
    )
    p = validate_problem(spec)
    gap = dm.alpha_diversity_gap(p.initial_matching(), p)
    assert gap == 0  # only one populated district; no pair to compare


def test_dangling_references_rejected():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d9", 2)),
        students=(("s1", "d1", "t1", ("c1",)),),
        initial_matching={"s1": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert "DanglingReference" in err.value.codes()


# -- distribution_of ---------------------------------------------------------------


def test_distribution_of_basic_outcome(basic):
    p = basic.problem
    outcome = matching_of(p, [("s1", "c2"), ("s2", "c3"), ("s3", "c1"), ("s4", "c2")])
    xi = distribution_of(outcome, p)
    assert [xi.school_total(c) for c in range(3)] == [1, 2, 1]


def test_distribution_of_empty(basic):
    xi = distribution_of(frozenset(), basic.problem)
    assert xi.total() == 0


def test_distribution_of_reserves_outcome(reserves_diversity):
    p = reserves_diversity.problem
    outcome = dm.run_spda(p, reserves_diversity.rules).outcome
    xi = distribution_of(outcome, p)
    got = {
        (p.district_ids[d], p.type_ids[t]): xi.district_type(p, d, t)
        for d in range(2)
        for t in range(2)
    }
    assert got == {
        ("d1", "t1"): 2,
        ("d1", "t2"): 2,
        ("d2", "t1"): 2,
        ("d2", "t2"): 1,
    }


def test_distribution_of_rejects_duplicate_student(basic):
    p = basic.problem
    X = frozenset([p.contract(0, 0), p.contract(0, 1)])
    with pytest.raises(ValidationError):
        distribution_of(X, p)


def test_distribution_additive_on_disjoint_students(basic):
    p = basic.problem
    X = frozenset([p.contract(0, 0), p.contract(1, 2)])
    Y = frozenset([p.contract(2, 1), p.contract(3, 2)])
    xi = distribution_of(X | Y, p)
    xa, xb = distribution_of(X, p), distribution_of(Y, p)
    assert all(
        xi.counts[c][t] == xa.counts[c][t] + xb.counts[c][t]
        for c in range(3)
        for t in range(1)
    )


def test_distribution_total_counts_matched_students(basic):
    p = basic.problem
    X = p.initial_matching()
    assert distribution_of(X, p).total() == 4


# -- is_feasible -------------------------------------------------------------------


def test_initial_matching_feasible(basic):
    rep = is_feasible(basic.problem.initial_matching(), basic.problem)
    assert rep.feasible_for_students and rep.within_capacity


def test_duplicate_student_infeasible(basic):
    p = basic.problem
    rep = is_feasible(frozenset([p.contract(0, 0), p.contract(0, 1)]), p)
    assert not rep.feasible_for_students
    assert rep.duplicate_students == (0,)
    assert rep.within_capacity


def test_over_capacity_flagged(basic):
    p = basic.problem
    X = frozenset([p.contract(0, 0), p.contract(1, 0), p.contract(2, 0)])
    rep = is_feasible(X, p)
    assert rep.feasible_for_students
    assert not rep.within_capacity
    assert rep.over_capacity_schools == (0,)


# -- pareto_dominates --------------------------------------------------------------


def test_mutually_undominated_efficient_pair(impossibility):
    p = impossibility.problem
    X = matching_of(
        p, [("s1", "c6"), ("s2", "c2"), ("s3", "c4"), ("s4", "c3"), ("s5", "c5"), ("s6", "c1")]
    )
    Xp = matching_of(
        p, [("s1", "c1"), ("s2", "c6"), ("s3", "c5"), ("s4", "c4"), ("s5", "c3"), ("s6", "c2")]
    )
    assert not pareto_dominates(X, Xp, p)
    assert not pareto_dominates(Xp, X, p)


def test_dominance_irreflexive(basic):
    X = basic.problem.initial_matching()
    assert not pareto_dominates(X, X, basic.problem)


def test_ir_outcome_dominates_initial(respecting):
    p = respecting.problem
    outcome = matching_of(p, [("s1", "c1"), ("s2", "c3"), ("s3", "c2"), ("s4", "c2")])
    assert pareto_dominates(outcome, p.initial_matching(), p)


def test_dominance_transitive_irreflexive_by_enumeration(basic):
    p = basic.problem
    all_matchings = list(dm.enumerate_feasible_matchings(p))
    for X in all_matchings:
        assert not pareto_dominates(X, X, p)
    import random

    rng = random.Random(7)
    sample = rng.sample(all_matchings, 40)
    for X in sample:
        for Y in sample:
            if not pareto_dominates(X, Y, p):
                continue
            for Z in sample:
                if pareto_dominates(Y, Z, p):
                    assert pareto_dominates(X, Z, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dominance_transitivity_property(basic, data):
    p = basic.problem
    options = [None, 0, 1, 2]

    def draw_matching(label):
        picks = [
            data.draw(st.sampled_from(options), label=f"{label}{s}")
            for s in range(p.num_students)
        ]
        load = [0, 0, 0]
        X = set()
        for s, c in enumerate(picks):
            if c is not None and load[c] < p.capacities[c]:
                load[c] += 1
                X.add(p.contract(s, c))
        return frozenset(X)

    X, Y, Z = draw_matching("x"), draw_matching("y"), draw_matching("z")
    if pareto_dominates(X, Y, p) and pareto_dominates(Y, Z, p):
        assert pareto_dominates(X, Z, p)
