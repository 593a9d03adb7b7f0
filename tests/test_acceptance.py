"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one ``ACCEPTANCE n: PASS`` line (pytest -s shows them;
failures raise).  Tolerances are exact equality unless a criterion states
a time budget, asserted as wall-clock seconds.
"""

import random
import time
from fractions import Fraction

import pytest

import districtmatch as dm
from districtmatch.cli import main as cli_main
from districtmatch.fixtures import fixture_path
from districtmatch.model import distribution_of, sort_matching
from districtmatch.oracle import (
    audit_strategy_proofness,
    constrained_efficient_ir_matchings,
    enumerate_feasible_matchings,
    enumerate_stable_matchings,
    replay_impossibility,
    search_rule_nonexistence,
)
from districtmatch.policy import (
    balanced_exchange_goal,
    combination_goal,
    contains,
    diversity_condition,
    find_exchange_violation,
    implied_bounds,
    indicator_of,
    is_mconvex,
    is_pseudo_mconcave,
    manhattan_ideal,
    policy_members,
    school_diversity_goal,
    upper_contour,
)
from districtmatch.rules import (
    RuleKind,
    RuleProperty,
    check_property,
    completion_of,
    favor_own_students,
)
from districtmatch.spda import (
    check_balanced_exchange,
    check_individual_rationality,
    is_stable,
    run_intradistrict_spda,
    run_spda,
    type_ratio_gaps,
)
from districtmatch.ttc import run_ttc

from helpers import ids_of, random_problem, sequential_rules, tentative
from policy_reference import legitimate_distributions


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_basic_spda_golden(basic, capsys):
    t0 = time.time()
    p = basic.problem
    trace = run_spda(p, basic.rules)
    assert ids_of(p, trace.outcome) == [
        ("s1", "c2"),
        ("s2", "c3"),
        ("s3", "c1"),
        ("s4", "c2"),
    ]
    assert trace.num_steps == 2
    assert ids_of(p, next(tentative(p, trace))) == [
        ("s2", "c3"),
        ("s3", "c1"),
        ("s4", "c2"),
    ]
    code = cli_main(["run", str(fixture_path("spda_basic")), "--mechanism", "spda"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1:5] == ["s1,c2,d1", "s2,c3,d2", "s3,c1,d1", "s4,c2,d1"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "basic run golden, 2-step trace")


def test_criterion_2_variant_goldens(respecting, rationed):
    t0 = time.time()
    p = respecting.problem
    out = run_spda(p, respecting.rules).outcome
    assert ids_of(p, out) == [("s1", "c1"), ("s2", "c3"), ("s3", "c2"), ("s4", "c2")]
    assert check_individual_rationality(out, p).holds
    assert time.time() - t0 < 1.0
    t0 = time.time()
    p = rationed.problem
    out = run_spda(p, rationed.rules).outcome
    assert ids_of(p, out) == [("s1", "c2"), ("s2", "c3"), ("s3", "c1"), ("s4", "c3")]
    assert check_balanced_exchange(out, p).holds
    assert time.time() - t0 < 1.0
    report(2, "initial-respecting and rationed variants golden")


def test_criterion_3_implied_bounds_golden(reserves_diversity, capsys):
    t0 = time.time()
    p = reserves_diversity.problem
    ceilings = dict(reserves_diversity.policy.ceilings)
    bounds = implied_bounds(p, ceilings)
    ordered = [bounds[(0, 0)], bounds[(0, 1)], bounds[(1, 0)], bounds[(1, 1)]]
    assert [lo for lo, _ in ordered] == [1, 2, 2, 0]
    assert [hi for _, hi in ordered] == [2, 3, 3, 1]
    rep = diversity_condition(p, ceilings, Fraction(3, 4))
    assert sorted(set(v for _, v in rep.deltas)) == [Fraction(-1, 6), Fraction(3, 4)]
    assert rep.satisfied
    legit = legitimate_distributions(p, ceilings)
    for (d, t), (lo, hi) in bounds.items():
        vals = [xi.district_type(p, d, t) for xi in legit]
        assert (min(vals), max(vals)) == (lo, hi)
    code = cli_main(
        ["bounds", str(fixture_path("reserves_diversity")), "--alpha", "3/4"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1:5] == ["d1,t1,1,2", "d1,t2,2,3", "d2,t1,2,3", "d2,t2,0,1"]
    assert "condition,satisfied" in out
    assert time.time() - t0 < 2.0
    report(3, "implied floors/ceilings match prints and enumeration")


def test_criterion_4_reserves_spda_golden(reserves_diversity):
    t0 = time.time()
    p = reserves_diversity.problem
    out = run_spda(p, reserves_diversity.rules).outcome
    assert ids_of(p, out) == [
        ("s1", "c2"),
        ("s2", "c3"),
        ("s3", "c2"),
        ("s4", "c1"),
        ("s5", "c1"),
        ("s6", "c4"),
        ("s7", "c3"),
    ]
    gaps = type_ratio_gaps(out, p)
    assert gaps == {0: Fraction(1, 6), 1: Fraction(1, 6)}
    assert time.time() - t0 < 1.0
    report(4, "reserves-rule run golden, ratio gap 1/6 both types")


def test_criterion_5_ttc_golden(ttc_diversity):
    t0 = time.time()
    p = ttc_diversity.problem
    trace = run_ttc(p, ttc_diversity.policy, ttc_diversity.master)
    assert ids_of(p, trace.outcome) == [
        ("s1", "c3"),
        ("s2", "c1"),
        ("s3", "c4"),
        ("s4", "c2"),
        ("s5", "c1"),
        ("s6", "c3"),
        ("s7", "c2"),
    ]
    assert trace.num_steps == 5
    step1 = {(s, slot) for cyc in trace.steps[0].cycles for s, slot in cyc}
    assert step1 == {(6, (1, 1)), (2, (3, 0))}
    step2 = {(s, slot) for cyc in trace.steps[1].cycles for s, slot in cyc}
    assert step2 == {(3, (1, 0))}
    assert time.time() - t0 < 1.0
    report(5, "trading run golden: outcome, first two cycles, 5 steps")


def test_criterion_6_exchange_verdicts(
    impossibility, basic, respecting, rationed, ttc_diversity, reserves_diversity,
    nonexistence, ttc_stuck,
):
    t0 = time.time()
    p = impossibility.problem
    members = policy_members(impossibility.policy, p)
    assert not is_mconvex(members).holds
    eff = constrained_efficient_ir_matchings(p, impossibility.policy)
    eff.sort(key=lambda X: tuple(sorted(X)))
    xi_prime, xi = (distribution_of(X, p) for X in eff)
    assert find_exchange_violation(members, xi, xi_prime) == (2, 0)  # (c3, t1)

    fixtures = [
        basic, respecting, rationed, impossibility,
        ttc_diversity, reserves_diversity, nonexistence, ttc_stuck,
    ]
    for inst in fixtures:
        q = inst.problem
        declared = (
            dict(inst.policy.ceilings)
            if inst.policy is not None and inst.policy.ceilings
            else None
        )
        box = school_diversity_goal(ceilings=declared)
        combo = combination_goal(ceilings=declared)
        assert is_mconvex(policy_members(balanced_exchange_goal(), q)).holds
        assert is_mconvex(policy_members(box, q)).holds
        assert is_mconvex(policy_members(combo, q)).holds
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(6, f"exchange verdicts on all fixtures ({elapsed:.2f}s)")


def certificate_to_dict(cert, problem):
    """Id-based JSON form of an impossibility certificate."""

    def pairs(X):
        return [
            [problem.student_ids[x.student], problem.school_ids[x.school]]
            for x in sort_matching(X)
        ]

    return {
        "efficient_pair": [pairs(X) for X in cert.efficient_pair],
        "deviations": [
            {
                "student": problem.student_ids[dev.student],
                "misreport": [problem.school_ids[c] for c in dev.misreport],
                "resulting": pairs(dev.resulting),
            }
            for dev in cert.deviations
        ],
    }


def test_criterion_7_impossibility_replay(impossibility, tmp_path):
    import json

    t0 = time.time()
    p = impossibility.problem
    cert = replay_impossibility(p, impossibility.policy)
    devs = {dev.student: dev for dev in cert.deviations}
    assert set(devs) == {2, 5}
    assert devs[2].misreport[:2] == (4, 2)  # s3: c5 first, c3 second
    assert devs[5].misreport[:2] == (0, 5)  # s6: c1 first, c6 second
    for target, dev in zip(cert.efficient_pair, cert.deviations):
        assert p.prefers(
            dev.student,
            p.outcome_school(dev.resulting, dev.student),
            p.outcome_school(target, dev.student),
        )
    artifact = tmp_path / "certificate.json"
    artifact.write_text(json.dumps(certificate_to_dict(cert, p), indent=2))
    loaded = json.loads(artifact.read_text())
    assert {d["student"] for d in loaded["deviations"]} == {"s3", "s6"}
    assert time.time() - t0 < 5.0
    report(7, "two-matching impossibility certificate matches prints")


def test_criterion_8_nonexistence_search(nonexistence):
    t0 = time.time()
    p = nonexistence.problem
    ceilings = {t: q for (d, t), q in nonexistence.policy.district_ceilings if d == 0}
    res = search_rule_nonexistence(p, 0, ceilings, symmetry=True)
    assert not res.satisfiable
    relaxed = search_rule_nonexistence(p, 0, {t: 2 for t in ceilings}, symmetry=True)
    assert relaxed.satisfiable
    for prop in (
        RuleProperty.DISTRICT_CEILINGS,
        RuleProperty.D_WEAKLY_ACCEPTANT,
        RuleProperty.IRC,
        RuleProperty.WEAKLY_SUBSTITUTABLE,
    ):
        assert check_property(relaxed.witness, prop, p).holds
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(8, f"ceiling-rule search: unsat canonical, verified witness relaxed ({elapsed:.2f}s)")


# -- criterion 9: randomized property suite -----------------------------------------

NUM_INSTANCES = 200
SEED = 52_2026


def _random_box_goal(rng, problem):
    base = distribution_of(problem.initial_matching(), problem)
    ceilings = {}
    floors = {}
    for c in range(problem.num_schools):
        for t in range(problem.num_types):
            ceilings[(c, t)] = base.counts[c][t] + rng.randint(0, 2)
            if rng.random() < 0.3 and base.counts[c][t] > 0:
                floors[(c, t)] = base.counts[c][t] - rng.randint(0, 1)
    return school_diversity_goal(floors=floors, ceilings=ceilings)


def _assert_goal_run(problem, goal, master=None):
    trace = run_ttc(problem, goal, master)
    out = trace.outcome
    xi = distribution_of(out, problem)
    assert contains(goal, xi, problem)
    assert check_individual_rationality(out, problem).holds
    satisfying = [
        X
        for X in enumerate_feasible_matchings(problem)
        if contains(goal, distribution_of(X, problem), problem)
    ]
    assert not any(dm.pareto_dominates(Y, out, problem) for Y in satisfying)
    audit = audit_strategy_proofness("ttc", problem, goal=goal, master=master)
    assert not audit.findings and audit.exhaustive
    return out


def test_criterion_9_property_suite():
    t0 = time.time()
    rng = random.Random(SEED)
    checked = 0
    for trial in range(NUM_INSTANCES):
        p = random_problem(rng)

        # (a) stability and student-optimality of deferred acceptance;
        # the optimality quantifier is the path-independent (completed)
        # stable set, the class the optimality theorem covers -- the raw
        # rules' stable set can be strictly larger (see decisions ledger)
        rules = sequential_rules(rng, p)
        outcome = run_spda(p, rules).outcome
        assert is_stable(outcome, p, rules).holds
        assert outcome in enumerate_stable_matchings(p, rules)
        completed = {d: completion_of(r) for d, r in rules.items()}
        for Y in enumerate_stable_matchings(p, completed):
            for s in range(p.num_students):
                assert not p.prefers(
                    s, p.outcome_school(Y, s), p.outcome_school(outcome, s)
                )

        # (b) truth-telling audit, exhaustive and clean
        audit = audit_strategy_proofness("spda", p, rules=rules)
        assert not audit.findings and audit.exhaustive

        # (c) initial-respecting rules give individual rationality;
        #     rationed rules give balance
        respecting = sequential_rules(rng, p, kind=RuleKind.INITIAL_RESPECTING)
        for rule in respecting.values():
            assert check_property(rule, RuleProperty.RESPECTS_INITIAL_MATCHING, p).holds
        assert check_individual_rationality(run_spda(p, respecting).outcome, p).holds
        capped = sequential_rules(rng, p, kind=RuleKind.RATIONED_SEQUENTIAL)
        for rule in capped.values():
            assert check_property(rule, RuleProperty.RATIONED, p).holds
        assert check_balanced_exchange(run_spda(p, capped).outcome, p).holds

        # (d) trading under exchange-closed goals
        balanced = balanced_exchange_goal()
        assert is_mconvex(policy_members(balanced, p)).holds
        _assert_goal_run(p, balanced)
        box = _random_box_goal(rng, p)
        assert is_mconvex(policy_members(box, p)).holds
        _assert_goal_run(p, box)

        # (e) score-function round trips (the concave-score side; see the
        #     strict-xfail companion test for the contour sweep)
        members = policy_members(balanced, p)
        f = indicator_of(members, p)
        assert is_pseudo_mconcave(f, p).holds
        assert upper_contour(f, Fraction(1), p) == members
        sample = [xi for xi in dm.enumerate_xi0(p) if rng.random() < 0.5]
        g = indicator_of(sample, p)
        assert is_pseudo_mconcave(g, p).holds == is_mconvex(sample).holds
        ideal = distribution_of(p.initial_matching(), p)
        assert is_pseudo_mconcave(manhattan_ideal(ideal, p), p).holds

        # (f) own-favoring rules: market-wide run never hurts anyone
        #     relative to the per-district runs
        favoring = {d: favor_own_students(r, p) for d, r in rules.items()}
        for rule in favoring.values():
            assert check_property(rule, RuleProperty.FAVORS_OWN_STUDENTS, p).holds
        inter = run_spda(p, favoring).outcome
        intra = run_intradistrict_spda(p, favoring)
        for s in range(p.num_students):
            assert not p.prefers(
                s, p.outcome_school(intra, s), p.outcome_school(inter, s)
            )
        checked += 1
    elapsed = time.time() - t0
    assert checked == NUM_INSTANCES
    assert elapsed < 600.0
    report(9, f"{checked} random instances, all property checks clean ({elapsed:.0f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "level sets of the distance-to-ideal score are not always exchange-"
        "closed once school capacities bind: the score's concavity supplies "
        "an exchange that may overfill a school, so this direction of the "
        "claimed equivalence is unattainable as stated; see the decisions "
        "ledger for the verified counterexample and analysis"
    ),
)
def test_criterion_9e_manhattan_contour_sweep():
    rng = random.Random(SEED)
    for trial in range(40):
        p = random_problem(rng)
        ideal = distribution_of(p.initial_matching(), p)
        f = manhattan_ideal(ideal, p)
        assert is_pseudo_mconcave(f, p).holds
        for lam in sorted({f(xi) for xi in dm.enumerate_xi0(p)}):
            assert is_mconvex(upper_contour(f, lam, p)).holds
