"""Model validation, distributions, feasibility, and dominance."""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import ValidationError
from districtmatch.model import (
    ProblemSpec,
    distribution_of,
    enumerate_matchings,
    is_feasible,
    order_positions,
    pareto_dominates,
    validate_problem,
    with_preferences,
)
from districtmatch.oracle import enumerate_feasible_matchings, enumerate_ir_matchings
from districtmatch.spda import is_stable

from helpers import matching_of, random_problem, sequential_rules
from oracle_reference import enumerate_ir_matchings_reference
from spda_reference import is_stable_reference


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


@pytest.mark.parametrize(
    "order",
    [(1, 2), (1, 1, 2, 3), (True, 0, 2, 3), (0, 1, 2, "3")],
    ids=["short", "repeated", "bool", "not_an_int"],
)
def test_with_preferences_rejects_an_order_that_is_not_a_permutation(ttc_diversity, order):
    # a list cut short used to raise a bare IndexError, a repeated school
    # gave a rank row that places school 0 at position 0 though it is
    # unlisted, a bool passed as the school it equals, and a string raised
    # a bare TypeError
    p = ttc_diversity.problem
    assert p.num_schools == 4
    with pytest.raises(ValidationError) as err:
        with_preferences(p, 0, order)
    assert err.value.issues == [
        ("IncompletePreference", f"student {p.student_ids[0]} must rank every school exactly once")
    ]
    again = with_preferences(p, 0, (3, 1, 0, 2))
    assert again.preferences[0] == (3, 1, 0, 2)
    assert [again.rank_of(0, c) for c in range(4)] == [2, 1, 3, 0]


@pytest.mark.parametrize("seed", range(6))
def test_readers_follow_lists_replaced_on_a_problem(seed):
    # the school lists are a problem's one order: after dataclasses.replace
    # every reader answers as on the same lists checked by with_preferences
    rng = random.Random(seed)
    problem = random_problem(rng, students=(3, 4))
    rules = sequential_rules(rng, problem)
    prefs = [tuple(rng.sample(order, len(order))) for order in problem.preferences]
    swapped = dataclasses.replace(problem, preferences=tuple(prefs))
    checked = functools.reduce(
        lambda p, s: with_preferences(p, s, prefs[s]), range(problem.num_students), problem
    )
    for s, order in enumerate(prefs):
        assert [swapped.rank_of(s, c) for c in order] == list(range(len(order)))
        for a, b in itertools.permutations([*order, None], 2):
            assert swapped.prefers(s, a, b) == checked.prefers(s, a, b)
    for X in enumerate_feasible_matchings(problem):
        assert is_stable(X, swapped, rules) == is_stable_reference(X, checked, rules)
    assert enumerate_ir_matchings(swapped) == enumerate_ir_matchings_reference(checked)


ENTRIES = st.one_of(st.integers(-3, 8), st.booleans(), st.none(), st.floats(0, 3), st.just("1"))


@st.composite
def orders(draw):
    """``(order, n)``: a permutation of 0..n-1, or of a neighbouring length,
    now and then with one entry replaced by a negative, repeated,
    out-of-range, bool or non-int one; or any short list of such entries."""
    n = draw(st.integers(0, 6))
    if draw(st.integers(0, 3)) == 0:
        return tuple(draw(st.lists(ENTRIES, max_size=8))), n
    size = max(0, n + draw(st.sampled_from([0, 0, -1, 1])))
    order = list(draw(st.permutations(range(size))))
    if order and draw(st.booleans()):
        order[draw(st.integers(0, size - 1))] = draw(ENTRIES)
    return tuple(order), n


def _positions_by_sort(order, n):
    """The sort-and-compare check and the inverse table built by hand, with
    every entry required to be an int (bools are not)."""
    if any(type(v) is not int for v in order) or sorted(order) != list(range(n)):
        return None
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    return tuple(rank)


@settings(max_examples=500, deadline=None)
@given(case=orders())
@example(case=((), 0))
@example(case=((1, 0), 2))
@example(case=((False, True), 2))
@example(case=((0, 0, 2), 3))
@example(case=((1, -1), 2))
@example(case=((0, 1, 2), 2))
def test_order_positions_matches_the_sort_check_and_inverse(case):
    order, n = case
    assert order_positions(order, n) == _positions_by_sort(order, n)


def test_duplicate_ids_rejected():
    # each repeat is one issue, in the order the repeats occur
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d2", 2), ("c2", "d2", 2), ("c1", "d2", 2)),
        students=(("s1", "d1", "t1", ("c1",)),),
        initial_matching={"s1": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert err.value.issues == [
        ("DanglingReference", "duplicate school id 'c2'"),
        ("DanglingReference", "duplicate school id 'c1'"),
    ]


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
    # a school of an unknown district is still a school the students must
    # rank, and has no capacity to fall short of
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 2), ("c2", "d9", 0)),
        students=(("s1", "d1", "t1", ("c1",)), ("s2", "d1", "t1", ("c2", "c1"))),
        initial_matching={"s1": "c1", "s2": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert err.value.issues == [
        ("DanglingReference", "school c2 references unknown district d9"),
        ("MissingDistrict", "district d2 has no schools"),
        ("IncompletePreference", "student s1 must rank every school exactly once"),
    ]


@pytest.mark.parametrize(
    "types, district, prefs, issue",
    [
        (("t1",), "d1", (["c1"], "c2"), "student s1 ranks unknown school ['c1']"),
        (("t1",), ["d1"], ("c1", "c2"), "student s1 references unknown district ['d1']"),
        ((["t1"],), "d1", ("c1", "c2"), "student s1 references unknown type t1"),
    ],
)
def test_unhashable_ids_are_unknown_ids(types, district, prefs, issue):
    # an unhashable id or reference names nothing, as None does: one issue,
    # not a TypeError from the id lookups
    spec = ProblemSpec(
        types=types,
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(("s1", district, "t1", prefs),),
        initial_matching={"s1": "c1"},
    )
    with pytest.raises(ValidationError) as err:
        validate_problem(spec)
    assert err.value.issues == [("DanglingReference", issue)]


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_enumerate_matchings_is_the_capacity_filtered_product(seed):
    # options in any order, with or without the unmatched entry
    rng = random.Random(seed)
    p = random_problem(rng, students=(2, 4), slack=0)
    entries = [*range(p.num_schools), None]
    options = [rng.sample(entries, rng.randint(1, len(entries))) for _ in range(p.num_students)]
    want = []
    for combo in itertools.product(*options):
        X = frozenset(p.contract(s, c) for s, c in enumerate(combo) if c is not None)
        if is_feasible(X, p).within_capacity:
            want.append(X)
    assert list(enumerate_matchings(p, options)) == want
