"""Deferred acceptance: golden traces, stability, policy verdicts."""

from fractions import Fraction

import pytest

import districtmatch as dm
import districtmatch.rules as rules_module
import districtmatch.spda as spda_module
from districtmatch import cli
from districtmatch.fixtures import fixture_path
from districtmatch.rules import RuleKind, choose, make_rule
from districtmatch.spda import (
    alpha_diversity_gap,
    check_balanced_exchange,
    check_individual_rationality,
    is_stable,
    run_intradistrict_spda,
    run_spda,
    type_ratio_gaps,
)

from helpers import assert_spda_step_bound, count_calls, ids_of, matching_of, tentative
from spda_reference import single_district_da_reference


GOLDEN_BASIC = [("s1", "c2"), ("s2", "c3"), ("s3", "c1"), ("s4", "c2")]
GOLDEN_RESPECTING = [("s1", "c1"), ("s2", "c3"), ("s3", "c2"), ("s4", "c2")]
GOLDEN_RATIONED = [("s1", "c2"), ("s2", "c3"), ("s3", "c1"), ("s4", "c3")]
GOLDEN_RESERVES = [
    ("s1", "c2"),
    ("s2", "c3"),
    ("s3", "c2"),
    ("s4", "c1"),
    ("s5", "c1"),
    ("s6", "c4"),
    ("s7", "c3"),
]


def test_basic_golden_trace(basic):
    p = basic.problem
    trace = run_spda(p, basic.rules)
    assert ids_of(p, trace.outcome) == GOLDEN_BASIC
    assert trace.num_steps == 2
    assert ids_of(p, next(tentative(p, trace))) == [
        ("s2", "c3"),
        ("s3", "c1"),
        ("s4", "c2"),
    ]
    assert trace.steps[-1].rejected == ()


def test_trace_proposals_descend_preferences(basic):
    p = basic.problem
    trace = run_spda(p, basic.rules)
    seen = {s: [] for s in range(p.num_students)}
    for step in trace.steps:
        for _, proposals in step.proposals:
            for s, c in proposals:
                seen[s].append(p.rank_of(s, c))
    for ranks in seen.values():
        assert ranks == sorted(ranks)


def test_rejected_contracts_never_reappear(basic):
    p = basic.problem
    trace = run_spda(p, basic.rules)
    rejected = set()
    for step in trace.steps:
        for _, proposals in step.proposals:
            assert not (set(proposals) & rejected)
        rejected.update(step.rejected)


def test_respecting_golden(respecting):
    p = respecting.problem
    trace = run_spda(p, respecting.rules)
    assert ids_of(p, trace.outcome) == GOLDEN_RESPECTING
    assert check_individual_rationality(trace.outcome, p).holds


def test_rationed_golden(rationed):
    p = rationed.problem
    trace = run_spda(p, rationed.rules)
    assert ids_of(p, trace.outcome) == GOLDEN_RATIONED
    assert check_balanced_exchange(trace.outcome, p).holds


def test_reserves_golden(reserves_diversity):
    p = reserves_diversity.problem
    trace = run_spda(p, reserves_diversity.rules)
    assert ids_of(p, trace.outcome) == GOLDEN_RESERVES


# -- intradistrict runs ------------------------------------------------------------


@pytest.mark.parametrize("name", ["spda_basic", "spda_respecting", "spda_rationed"])
def test_choose_calls_are_the_step_district_pairs_with_proposals(name, monkeypatch):
    # the benchmark tracer's ``rules.choose.calls`` counts one choice per
    # step and district that got a proposal, as the set loop made
    inst = dm.load_fixture(name)
    calls = []

    def counting(rule, X, problem):
        calls.append(rule.district)
        return choose(rule, X, problem)

    for module in (rules_module, spda_module):
        monkeypatch.setattr(module, "choose", counting)
    trace = run_spda(inst.problem, inst.rules)
    pairs = [d for step in trace.steps for d, X in step.proposals if X]
    assert calls == pairs
    assert len(pairs) > trace.num_steps  # some step reaches both districts


def test_intradistrict_matches_reference(basic, respecting, rationed, reserves_diversity):
    for inst in (basic, respecting, rationed, reserves_diversity):
        p = inst.problem
        got = run_intradistrict_spda(p, inst.rules)
        want = frozenset()
        for d in range(p.num_districts):
            want |= single_district_da_reference(p, d, inst.rules[d])
        assert got == want


def test_intradistrict_d2_market(basic):
    p = basic.problem
    intra = run_intradistrict_spda(p, basic.rules)
    d2_part = {x for x in intra if x.district == 1}
    assert ids_of(p, d2_part) == [("s3", "c3"), ("s4", "c3")]


# -- stability ---------------------------------------------------------------------


def test_spda_outcome_stable(basic, respecting, rationed, reserves_diversity):
    for inst in (basic, respecting, rationed, reserves_diversity):
        p = inst.problem
        outcome = run_spda(p, inst.rules).outcome
        assert is_stable(outcome, p, inst.rules).holds


def test_initial_matching_blocked(basic):
    p = basic.problem
    verdict = is_stable(p.initial_matching(), p, basic.rules)
    assert not verdict.holds
    assert verdict.blocking_contract == p.contract(2, 0)  # (s3, c1)


def test_empty_matching_blocked(basic):
    verdict = is_stable(frozenset(), basic.problem, basic.rules)
    assert not verdict.holds
    assert verdict.blocking_contract is not None


# -- policy verdicts ---------------------------------------------------------------


def test_ir_verdicts(basic):
    p = basic.problem
    outcome = matching_of(p, GOLDEN_BASIC)
    v = check_individual_rationality(outcome, p)
    assert not v.holds
    assert v.witness == (0,)  # s1 prefers her initial school
    assert check_individual_rationality(p.initial_matching(), p).holds


def test_balance_verdicts(basic):
    p = basic.problem
    v = check_balanced_exchange(matching_of(p, GOLDEN_BASIC), p)
    assert not v.holds
    assert v.witness == (0, 3, 2)
    assert check_balanced_exchange(p.initial_matching(), p).holds


def test_alpha_gap_reserves(reserves_diversity):
    p = reserves_diversity.problem
    outcome = run_spda(p, reserves_diversity.rules).outcome
    gaps = type_ratio_gaps(outcome, p)
    assert gaps == {0: Fraction(1, 6), 1: Fraction(1, 6)}
    assert alpha_diversity_gap(outcome, p) == Fraction(1, 6)
    assert alpha_diversity_gap(outcome, p) <= Fraction(3, 4)


def test_alpha_gap_symmetric_zero(basic):
    # two identical districts with mirrored assignments: zero gap
    p = basic.problem
    X = matching_of(p, [("s1", "c1"), ("s2", "c2"), ("s3", "c3"), ("s4", "c3")])
    assert alpha_diversity_gap(X, p) == 0  # single type, balanced home loads


# -- invariants --------------------------------------------------------------------


def test_sequential_processing_matches_simultaneous(basic, respecting, rationed):
    # districts handled one at a time must land on the same outcome when the
    # rules' completions are path independent
    def sequential_spda(problem, rules):
        ptr = [0] * problem.num_students
        held = {d: frozenset() for d in range(problem.num_districts)}
        unplaced = set(range(problem.num_students))
        for _ in range(problem.num_students * problem.num_schools * 4):
            progressed = False
            for d in range(problem.num_districts):
                proposals = set()
                for s in sorted(unplaced):
                    if ptr[s] < problem.num_schools:
                        c = problem.preferences[s][ptr[s]]
                        x = problem.contract(s, c)
                        if x.district == d:
                            proposals.add(x)
                if not proposals:
                    continue
                pool = held[d] | proposals
                chosen = dm.choose(rules[d], pool, problem)
                rejected = pool - chosen
                for x in pool:
                    if x.student in unplaced and x not in rejected:
                        unplaced.discard(x.student)
                for x in rejected:
                    ptr[x.student] += 1
                    unplaced.add(x.student)
                held[d] = chosen
                progressed = True
            if not progressed and all(
                ptr[s] >= problem.num_schools or s not in unplaced
                for s in range(problem.num_students)
            ):
                break
        return frozenset().union(*held.values())

    for inst in (basic, respecting, rationed):
        p = inst.problem
        assert sequential_spda(p, inst.rules) == run_spda(p, inst.rules).outcome


def _all_profiles(problem):
    import itertools

    orders = list(itertools.permutations(range(problem.num_schools)))
    for profile in itertools.product(orders, repeat=problem.num_students):
        p = problem
        for s, order in enumerate(profile):
            p = dm.with_preferences(p, s, order)
        yield p


def test_respecting_rules_give_ir_at_every_profile(respecting):
    # forward direction of the first characterization, across all 1296
    # preference profiles of the small fixture
    for p in _all_profiles(respecting.problem):
        out = run_spda(p, respecting.rules).outcome
        assert check_individual_rationality(out, p).holds


def test_nonrespecting_rules_fail_ir_at_some_profile(basic):
    # converse direction: the shipped profile already exhibits the failure
    out = run_spda(basic.problem, basic.rules).outcome
    assert not check_individual_rationality(out, basic.problem).holds


def test_rationed_rules_balanced_at_every_profile(rationed):
    # forward direction of the second characterization
    for p in _all_profiles(rationed.problem):
        out = run_spda(p, rationed.rules).outcome
        assert check_balanced_exchange(out, p).holds


def test_unrationed_rules_unbalanced_at_some_profile(basic):
    out = run_spda(basic.problem, basic.rules).outcome
    assert not check_balanced_exchange(out, basic.problem).holds


def test_everyone_matched_under_accommodating_profile(reserves_diversity):
    p = reserves_diversity.problem
    outcome = run_spda(p, reserves_diversity.rules).outcome
    assert len(outcome) == p.num_students


@pytest.mark.parametrize("missing", [0, 1])
def test_a_profile_without_a_districts_rule_raises_rule_violation(basic, missing):
    # every reader of the whole profile names the district, as run_spda does
    p = basic.problem
    partial = {d: rule for d, rule in basic.rules.items() if d != missing}
    outcome = run_spda(p, basic.rules).outcome
    calls = [
        lambda: run_spda(p, partial),
        lambda: run_intradistrict_spda(p, partial),
        lambda: is_stable(outcome, p, partial),
        lambda: rules_module.check_property(
            None, rules_module.RuleProperty.ACCOMMODATES_UNMATCHED, p, rules=partial
        ),
    ]
    for call in calls:
        with pytest.raises(dm.RuleViolation) as exc:
            call()
        assert str(exc.value) == f"district {p.district_ids[missing]} has no rule"


def test_nontermination_guard():
    # a malicious explicit table that keeps re-rejecting held contracts
    from districtmatch.model import ProblemSpec, validate_problem

    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2")),
            ("s2", "d2", "t1", ("c2", "c1")),
        ),
        initial_matching={"s1": "c1", "s2": "c2"},
    )
    p = validate_problem(spec)
    # table that always rejects everything in d1
    universe = p.district_contracts(0)
    table = []
    masks = [frozenset(), frozenset([universe[0]]), frozenset([universe[1]]), frozenset(universe)]
    for m in masks:
        table.append((m, frozenset()))
    bad = make_rule(district=0, kind=RuleKind.EXPLICIT_TABLE, table=table)
    ok = make_rule(
        district=1,
        kind=RuleKind.SEQUENTIAL_RESPONSIVE,
        school_order=(1,),
        priorities={1: (0, 1)},
        problem=p,
    )
    # everything gets rejected until lists run out; that terminates cleanly,
    # within the step bound
    trace = run_spda(p, {0: bad, 1: ok})
    assert p.outcome_school(trace.outcome, 0) == 1  # s1 ends at c2
    assert_spda_step_bound(trace, p.preferences)


def test_a_run_logs_one_step_record_per_step(rationed, monkeypatch, tmp_path, capsys):
    # the loop's log is the trace: one ``SpdaStep`` of (student, school)
    # pairs per step, which the trace writer reads as it is
    p, rules = rationed.problem, rationed.rules
    record = spda_module.SpdaStep
    built = count_calls(monkeypatch, spda_module, "SpdaStep")
    trace = run_spda(p, rules)
    assert trace.num_steps == 4 and len(built) == 4
    assert all(type(step) is record for step in trace.steps)
    pairs = [x for step in trace.steps for _, P in step.proposals for x in P]
    pairs += [x for step in trace.steps for x in step.rejected]
    assert all(type(x) is tuple and len(x) == 2 for x in pairs)
    path = str(fixture_path("spda_rationed"))
    trace_path = tmp_path / "trace.json"
    assert cli.main(["run", path, "--mechanism", "spda", "--trace", str(trace_path)]) == 0
    assert "steps,4" in capsys.readouterr().out and trace_path.stat().st_size
    assert len(built) == 8
