"""The bitmask nonexistence search against the list-domain search it
replaced (``oracle_reference``): same verdict, node count, conflict log and
witness, or the same budget overrun."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districtmatch.errors import SearchBudgetExceeded
from districtmatch.oracle import search_rule_nonexistence

from helpers import random_problem
from oracle_reference import search_rule_nonexistence_reference


def _result(search, problem, district, ceilings, **kwargs):
    try:
        res = search(problem, district, ceilings, **kwargs)
    except SearchBudgetExceeded as exc:
        return ("budget exceeded", exc.nodes)
    witness = res.witness and (res.witness.table, res.witness.district_ceilings)
    return (res.satisfiable, res.nodes, res.conflict_log, witness)


def assert_same_search(problem, district, ceilings, **kwargs):
    # both searches recurse once per branching level; without weak
    # substitutability a 6-student search can go 2,000 levels deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        got = _result(search_rule_nonexistence, problem, district, ceilings, **kwargs)
        want = _result(
            search_rule_nonexistence_reference, problem, district, ceilings, **kwargs
        )
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    return got


def _random_ceilings(rng, problem):
    """Per type: absent, 0, or a count up to the type's size, so that some
    ceilings bind and some do not."""
    out = {}
    for t in range(problem.num_types):
        size = problem.student_type.count(t)
        if rng.random() < 0.8:
            out[t] = rng.randint(0, size)
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetry=st.booleans(),
    weak_substitutability=st.booleans(),
    budget=st.sampled_from([1, 3, 10, 2 * 10**6]),
)
def test_search_matches_reference_on_random_markets(
    seed, symmetry, weak_substitutability, budget
):
    rng = random.Random(seed)
    problem = random_problem(rng, students=(3, 6))
    assert_same_search(
        problem,
        rng.randrange(problem.num_districts),
        _random_ceilings(rng, problem),
        symmetry=symmetry,
        budget=budget,
        require_weak_substitutability=weak_substitutability,
    )


@pytest.mark.parametrize("weak_substitutability", [True, False])
@pytest.mark.parametrize("symmetry", [True, False])
def test_search_matches_reference_on_fixture(nonexistence, symmetry, weak_substitutability):
    p = nonexistence.problem
    for d in range(p.num_districts):
        stated = {t: q for (dd, t), q in nonexistence.policy.district_ceilings if dd == d}
        for ceilings in (stated, {0: 2, 1: 2}, {0: 0}, {}):
            for budget in (1, 2 * 10**6):
                assert_same_search(
                    p,
                    d,
                    ceilings,
                    symmetry=symmetry,
                    budget=budget,
                    require_weak_substitutability=weak_substitutability,
                )


def test_fixture_is_unsatisfiable_both_ways(nonexistence):
    p = nonexistence.problem
    ceilings = {t: q for (d, t), q in nonexistence.policy.district_ceilings if d == 0}
    assert assert_same_search(p, 0, ceilings, symmetry=True)[:2] == (False, 2)
    assert assert_same_search(p, 0, ceilings, symmetry=False)[:2] == (False, 4)
