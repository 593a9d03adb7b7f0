"""The oracle against the code it replaced (``oracle_reference``).

The prefix-sharing misreport audit gives the same ``AuditReport``, or the
same error, as the audit that reran every report.  The bitmask nonexistence
search gives the same verdict, node count, conflict log and witness, or the
same budget overrun, as the list-domain search, and its symmetry step
keeps the same root values as the one that tried every student
permutation.  The feasible and individually-rational enumerators list the
same matchings, in the same order, as the walks they replaced."""

import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference
from districtmatch import oracle
from districtmatch.errors import (
    DistrictMatchError,
    RuleViolation,
    SearchBudgetExceeded,
    Stuck,
    UniverseTooLarge,
)
from districtmatch.model import with_preferences
from districtmatch.oracle import (
    DEFAULT_MATCHING_BUDGET,
    AuditReport,
    audit_strategy_proofness,
    enumerate_feasible_matchings,
    enumerate_ir_matchings,
    search_rule_nonexistence,
)
from districtmatch.policy import GoalForm
from districtmatch.rules import DistrictSpace
from districtmatch.spda import run_spda
from districtmatch.ttc import run_ttc

from helpers import count_calls, random_goal, random_problem
from oracle_reference import (
    audit_strategy_proofness_reference,
    enumerate_feasible_matchings_reference,
    enumerate_ir_matchings_reference,
    search_rule_nonexistence_reference,
    symmetry_root_values_reference,
)
from test_spda_differential import random_rules


def _audit(audit, mechanism, problem, budget, inputs):
    try:
        return audit(mechanism, problem, budget=budget, **inputs)
    except DistrictMatchError as exc:
        return (type(exc), str(exc))


def _random_mechanism(rng, problem):
    """SPDA under spec rules or explicit tables (which may misbehave under
    some reports), or TTC under a random goal and master list."""
    if rng.random() < 0.5:
        return "spda", {"rules": random_rules(rng, problem, tables=0.5)}
    master = list(range(problem.num_students))
    rng.shuffle(master)
    goal = random_goal(rng, problem, rng.choice(list(GoalForm)))
    return "ttc", {"goal": goal, "master": master}


def assert_same_audit(seed, budget):
    """Audit one random market both ways."""
    rng = random.Random(seed)
    problem = random_problem(rng)
    mechanism, inputs = _random_mechanism(rng, problem)
    got = _audit(audit_strategy_proofness, mechanism, problem, budget, inputs)
    want = _audit(audit_strategy_proofness_reference, mechanism, problem, budget, inputs)
    assert got == want
    return got


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.none(), st.integers(0, 40)),
)
@example(seed=772974, budget=None)  # a misreport's TTC run is stuck
def test_audit_matches_reference_on_random_markets(seed, budget):
    assert_same_audit(seed, budget)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reports_sharing_the_read_prefix_rerun_identically(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    mechanism, inputs = _random_mechanism(rng, problem)

    def run(p):
        if mechanism == "spda":
            return run_spda(p, inputs["rules"])
        return run_ttc(p, inputs["goal"], inputs["master"])

    try:
        trace = run(problem)
    except DistrictMatchError:
        return
    s = rng.randrange(problem.num_students)
    read = trace.read[s]
    assert 1 <= read <= problem.num_schools
    order = list(problem.preferences[s])
    rest = order[read:]
    rng.shuffle(rest)
    again = run(with_preferences(problem, s, order[:read] + rest))
    assert (again, again.read) == (trace, trace.read)


def test_drawn_audits_reuse_runs_with_findings_and_raises(monkeypatch):
    # the drawn audits reach both ends while reusing runs: a finding, and an
    # error a misreport raises after earlier reports shared a run
    runs = count_calls(monkeypatch, oracle, "run_spda", "run_ttc")
    reference_runs = count_calls(monkeypatch, oracle_reference, "run_spda", "run_ttc")
    seen = set()
    for seed in range(60):
        runs.clear()
        reference_runs.clear()
        got = assert_same_audit(seed, None)
        if len(runs) == len(reference_runs):
            continue
        if not isinstance(got, AuditReport):
            seen.add(got[0])
        elif got.findings:
            seen.add("finding")
    assert "finding" in seen and seen & {RuleViolation, Stuck}


def _result(search, problem, district, ceilings, **kwargs):
    try:
        res = search(problem, district, ceilings, **kwargs)
    except SearchBudgetExceeded as exc:
        return ("budget exceeded", exc.nodes)
    witness = res.witness and (res.witness.table, res.witness.district_ceilings)
    return (res.satisfiable, res.nodes, res.conflict_log, witness)


def assert_same_search(problem, district, ceilings, **kwargs):
    got = _result(search_rule_nonexistence, problem, district, ceilings, **kwargs)
    # the reference recurses once per branching level; without weak
    # substitutability a 6-student search can go 2,000 levels deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        want = _result(
            search_rule_nonexistence_reference, problem, district, ceilings, **kwargs
        )
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    return got


def _random_ceilings(rng, problem):
    """Per type: a count from 0 up to the type's size, so that some ceilings
    bind and some do not; None or absent, which bind nothing; or a negative
    count, which admits no one, as 0 does."""
    out = {}
    for t in range(problem.num_types):
        size = problem.student_type.count(t)
        r = rng.random()
        if r < 0.8:
            out[t] = rng.randint(0, size)
        # None takes the low end of the once-absent draws, so the pinned
        # seeds below keep their searches
        elif r < 0.88:
            out[t] = None
        elif r >= 0.92:
            out[t] = rng.randint(-2, -1)
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetry=st.booleans(),
    weak_substitutability=st.booleans(),
    budget=st.sampled_from([0, 1, 3, 10, 2 * 10**6]),
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


def _tied_ceilings(rng, problem):
    """``_random_ceilings`` with two or three types given one type's draw,
    so that the symmetry step may exchange them."""
    out = _random_ceilings(rng, problem)
    tied = rng.sample(range(problem.num_types), rng.randint(2, problem.num_types))
    for t in tied[1:]:
        out[t] = out.get(tied[0])
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_step_matches_reference_with_tied_types(seed):
    # per-class counts up to a ceiling-keeping type bijection keep the same
    # root values, in the same order, as canonicalising under every student
    # permutation; candidates come shuffled so that the first of each orbit
    # is not always its least value
    rng = random.Random(seed)
    problem = random_problem(rng, num_types=3, students=(3, 6))
    district = rng.randrange(problem.num_districts)
    ceilings = _tied_ceilings(rng, problem)
    universe = tuple(problem.district_contracts(district))
    index = {x: i for i, x in enumerate(universe)}
    first = min(problem.district_schools[district])
    root = [1 << i for i, x in enumerate(universe) if x.school == first]
    candidates = [
        sum(combo) for r in range(len(root) + 1) for combo in itertools.combinations(root, r)
    ]
    rng.shuffle(candidates)
    assert oracle._symmetry_root_values(
        problem, universe, candidates, ceilings
    ) == symmetry_root_values_reference(problem, universe, index, candidates, ceilings)
    assert_same_search(problem, district, ceilings, symmetry=True)


def _desk_width_search(seed):
    """A 6-student market and one of its districts with 2-3 schools: 729 or
    4,096 sets, and often more values than one machine word holds."""
    rng = random.Random(seed)
    while True:
        problem = random_problem(rng, students=(6, 6))
        district = rng.randrange(problem.num_districts)
        if len(problem.district_schools[district]) >= 2:
            return problem, district, _random_ceilings(rng, problem)


# seed 10 draws 4,096 sets and, under weak substitutability, no rule; the
# others draw 729 sets.  Each search numbers 91-213 values.
@pytest.mark.parametrize("seed", [2, 9, 10, 15])
def test_search_matches_reference_at_desk_width(seed):
    problem, district, ceilings = _desk_width_search(seed)
    assert DistrictSpace(problem, district).size == (4096 if seed == 10 else 729)
    for symmetry in (True, False):
        for weak_substitutability in (True, False):
            got = assert_same_search(
                problem, district, ceilings,
                symmetry=symmetry, require_weak_substitutability=weak_substitutability,
            )
            assert got[0] == (seed != 10 or not weak_substitutability)


@pytest.mark.parametrize("seed", [94, 204, 218])
def test_deep_search_needs_no_raised_recursion_limit(seed):
    # without weak substitutability these districts branch 1,500-2,100
    # levels deep, past the default recursion limit of 1,000
    rng = random.Random(seed)
    problem = random_problem(rng, students=(3, 6))
    district = rng.randrange(problem.num_districts)
    ceilings = _random_ceilings(rng, problem)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)  # Python's default
    try:
        got = _result(
            search_rule_nonexistence, problem, district, ceilings,
            require_weak_substitutability=False,
        )
    finally:
        sys.setrecursionlimit(limit)
    assert got[:2] == (True, {94: 1896, 204: 1521, 218: 2139}[seed])
    assert got == assert_same_search(
        problem, district, ceilings, require_weak_substitutability=False
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


def _listed(enumerate_, problem, budget):
    try:
        return list(enumerate_(problem, budget))
    except UniverseTooLarge as exc:
        return ("too large", exc.size, exc.budget)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([1, 100, DEFAULT_MATCHING_BUDGET]),
)
def test_enumerators_match_reference_in_order(seed, budget):
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5), slack=rng.randint(0, 1))
    for enumerate_, reference in (
        (enumerate_feasible_matchings, enumerate_feasible_matchings_reference),
        (enumerate_ir_matchings, enumerate_ir_matchings_reference),
    ):
        assert _listed(enumerate_, problem, budget) == _listed(reference, problem, budget)
