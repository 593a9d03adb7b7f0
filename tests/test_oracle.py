"""Brute-force oracles: enumeration, audits, impossibility replay, search."""

import pytest

import districtmatch as dm
from districtmatch import oracle
from districtmatch.errors import NotApplicable, SearchBudgetExceeded, UniverseTooLarge
from districtmatch.model import ProblemSpec, distribution_of, validate_problem
from districtmatch.oracle import (
    audit_strategy_proofness,
    constrained_efficient_ir_matchings,
    enumerate_feasible_matchings,
    enumerate_stable_matchings,
    find_welfare_regression,
    replay_impossibility,
    search_rule_nonexistence,
)
from districtmatch.policy import district_ceilings_goal, explicit_goal
from districtmatch.rules import RuleProperty, check_property, favor_own_students
from districtmatch.spda import run_spda

from helpers import count_calls, matching_of
from oracle_reference import search_rule_nonexistence_reference


def _tiny_problem():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(("s1", "d1", "t1", ("c1", "c2")),),
        initial_matching={"s1": "c1"},
    )
    return validate_problem(spec)


def test_enumeration_one_student():
    p = _tiny_problem()
    got = list(enumerate_feasible_matchings(p))
    assert got == [
        frozenset([p.contract(0, 0)]),
        frozenset([p.contract(0, 1)]),
        frozenset(),
    ]


def test_enumeration_no_students():
    spec = ProblemSpec(
        types=("t1",),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d2", 1)),
        students=(),
        initial_matching={},
    )
    p = validate_problem(spec)
    assert list(enumerate_feasible_matchings(p)) == [frozenset()]


def count_feasible_matchings(problem):
    """Independent count by capacity-pruned recursion over school loads."""

    def rec(s, loads):
        if s == problem.num_students:
            return 1
        total = rec(s + 1, loads)  # unmatched branch
        for c in range(problem.num_schools):
            if loads[c] < problem.capacities[c]:
                new = list(loads)
                new[c] += 1
                total += rec(s + 1, tuple(new))
        return total

    return rec(0, tuple([0] * problem.num_schools))


def test_enumeration_count_cross_check(basic):
    p = basic.problem
    listed = list(enumerate_feasible_matchings(p))
    assert len(listed) == len(set(listed))
    assert len(listed) == count_feasible_matchings(p)


def test_enumeration_budget(basic):
    with pytest.raises(UniverseTooLarge):
        list(enumerate_feasible_matchings(basic.problem, budget=3))


def test_stable_set_can_be_empty_without_weak_substitutability():
    """A ceilinged district table that keeps IRC and d-weak acceptance but
    drops weak substitutability admits a profile with no stable matching.

    The companion district runs truncated-responsive unit schools (still
    substitutable and IRC within the feasible universe).  Blocking is
    evaluated with the deviator's old contract released, the reading under
    which table rules are total.  The profile below was found by search
    over truncations and top-two preference templates and is frozen here.
    """
    import itertools

    from districtmatch.rules import RuleKind, choose, make_rule

    spec = ProblemSpec(
        types=("t1", "t2"),
        districts=("d1", "d2"),
        schools=(
            ("c1", "d1", 1), ("c2", "d1", 1), ("c3", "d1", 1),
            ("c4", "d2", 1), ("c5", "d2", 1),
        ),
        students=(
            ("s1", "d1", "t1", ("c4", "c1", "c2", "c3", "c5")),
            ("s2", "d1", "t1", ("c2", "c1", "c3", "c4", "c5")),
            ("s3", "d2", "t2", ("c2", "c4", "c1", "c3", "c5")),
            ("s4", "d2", "t2", ("c5", "c1", "c2", "c3", "c4")),
        ),
        initial_matching={"s1": "c1", "s2": "c2", "s3": "c4", "s4": "c5"},
    )
    p = validate_problem(spec)

    searched = search_rule_nonexistence(
        p, 0, {0: 1, 1: 1}, require_weak_substitutability=False
    )
    assert searched.satisfiable
    d1_rule = searched.witness
    assert not check_property(d1_rule, RuleProperty.WEAKLY_SUBSTITUTABLE, p).holds
    assert check_property(d1_rule, RuleProperty.IRC, p).holds
    assert check_property(d1_rule, RuleProperty.D_WEAKLY_ACCEPTANT, p).holds

    # c4 admits s3 over s1 and nobody else; c5 admits only s4
    entries = []
    for combo in itertools.product([None, 3, 4], repeat=4):
        key = frozenset(p.contract(s, c) for s, c in enumerate(combo) if c is not None)
        chosen = set()
        for s in (2, 0):
            if p.contract(s, 3) in key:
                chosen.add(p.contract(s, 3))
                break
        if p.contract(3, 4) in key:
            chosen.add(p.contract(3, 4))
        entries.append((key, frozenset(chosen)))
    d2_rule = make_rule(district=1, kind=RuleKind.EXPLICIT_TABLE, table=entries)
    assert check_property(d2_rule, RuleProperty.WEAKLY_SUBSTITUTABLE, p).holds
    assert check_property(d2_rule, RuleProperty.IRC, p).holds
    rules = {0: d1_rule, 1: d2_rule}

    def stable_released(X):
        by_d = {
            d: frozenset(c for c in X if c.district == d) for d in range(2)
        }
        for d in range(2):
            if choose(rules[d], by_d[d], p) != by_d[d]:
                return False
        for s in range(p.num_students):
            cur = p.outcome_school(X, s)
            for c in p.preferences[s]:
                if p.rank_of(s, c) >= p.rank_of(s, cur):
                    break
                cand = p.contract(s, c)
                if cand in X:
                    continue
                pool = frozenset(
                    y for y in by_d[cand.district] if y.student != s
                ) | {cand}
                if cand in choose(rules[cand.district], pool, p):
                    return False
        return True

    assert not any(stable_released(X) for X in enumerate_feasible_matchings(p))


def test_stable_set_contains_spda_and_dominated_by_it(basic):
    p = basic.problem
    outcome = run_spda(p, basic.rules).outcome
    stable = enumerate_stable_matchings(p, basic.rules)
    assert outcome in stable
    for Y in stable:
        for s in range(p.num_students):
            assert not p.prefers(
                s, p.outcome_school(Y, s), p.outcome_school(outcome, s)
            )


# -- strategy-proofness audits -----------------------------------------------------


def test_spda_audit_clean(basic):
    report = audit_strategy_proofness("spda", basic.problem, rules=basic.rules)
    assert not report.findings
    assert report.exhaustive
    assert report.runs == 24  # 4 students x 3! orders


def test_ttc_audit_clean(ttc_diversity):
    report = audit_strategy_proofness(
        "ttc", ttc_diversity.problem, goal=ttc_diversity.policy, master=ttc_diversity.master
    )
    assert not report.findings
    assert report.exhaustive
    assert report.runs == 7 * 24  # 7 students x 4! orders


def test_spda_audit_shares_runs_by_read_prefix(monkeypatch, basic):
    calls = count_calls(monkeypatch, oracle, "run_spda")
    report = audit_strategy_proofness("spda", basic.problem, rules=basic.rules)
    # the honest run, then 15 runs for the 24 reports
    assert (len(calls), report.runs) == (16, 24)


def test_ttc_audit_shares_runs_by_read_prefix(monkeypatch, ttc_diversity):
    calls = count_calls(monkeypatch, oracle, "run_ttc")
    report = audit_strategy_proofness(
        "ttc", ttc_diversity.problem, goal=ttc_diversity.policy, master=ttc_diversity.master
    )
    # the honest run, then 66 runs for the 168 reports
    assert (len(calls), report.runs) == (67, 168)


def test_selector_audit_runs_every_report(monkeypatch, impossibility):
    # its efficiency test compares whole lists, so no two reports share a run
    calls = count_calls(monkeypatch, oracle, "constrained_efficient_ir_matchings")
    report = audit_strategy_proofness(
        "efficient-selector", impossibility.problem, goal=impossibility.policy, budget=30
    )
    assert (len(calls), report.runs) == (31, 30)


def test_selector_mechanism_manipulable(impossibility):
    report = audit_strategy_proofness(
        "efficient-selector", impossibility.problem, goal=impossibility.policy
    )
    assert report.findings
    deviators = {f.student for f in report.findings}
    assert deviators & {2, 5}  # s3 or s6 profits


def audit_report_to_dict(report, problem):
    """Id-based JSON form of an audit report."""
    return {
        "mechanism": report.mechanism,
        "exhaustive": report.exhaustive,
        "runs": report.runs,
        "findings": [
            {
                "student": problem.student_ids[f.student],
                "misreport": [problem.school_ids[c] for c in f.misreport],
                "honest_school": (
                    problem.school_ids[f.honest_school]
                    if f.honest_school is not None
                    else None
                ),
                "deviant_school": (
                    problem.school_ids[f.deviant_school]
                    if f.deviant_school is not None
                    else None
                ),
            }
            for f in report.findings
        ],
    }


def test_audit_report_serializes(basic, tmp_path):
    import json

    report = audit_strategy_proofness("spda", basic.problem, rules=basic.rules)
    doc = audit_report_to_dict(report, basic.problem)
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(doc, indent=2))
    loaded = json.loads(path.read_text())
    assert loaded["exhaustive"] is True
    assert loaded["runs"] == 24
    assert loaded["findings"] == []


def distribution_csv(xi, problem):
    """School-by-type count matrix as CSV, one row per school."""
    header = "school," + ",".join(problem.type_ids)
    rows = [
        problem.school_ids[c] + "," + ",".join(str(v) for v in xi.counts[c])
        for c in range(problem.num_schools)
    ]
    return "\n".join([header] + rows) + "\n"


def test_distribution_csv_export(reserves_diversity):
    p = reserves_diversity.problem
    outcome = run_spda(p, reserves_diversity.rules).outcome
    csv = distribution_csv(distribution_of(outcome, p), p)
    lines = csv.strip().splitlines()
    assert lines[0] == "school,t1,t2"
    assert lines[1] == "c1,1,1"  # s5 (t1) and s4 (t2)
    assert len(lines) == 1 + p.num_schools


def test_audit_budget_zero(basic):
    report = audit_strategy_proofness(
        "spda", basic.problem, rules=basic.rules, budget=0
    )
    assert not report.exhaustive
    assert report.runs == 0


# -- efficient sets and the impossibility replay -------------------------------------


def _naive_efficient_ir(problem, goal):
    """The definition verbatim: filter all feasible matchings by the goal,
    keep the individually rational ones undominated in that whole set."""
    satisfying = [
        X
        for X in enumerate_feasible_matchings(problem)
        if dm.contains(goal, distribution_of(X, problem), problem)
    ]
    out = []
    for X in satisfying:
        ir = all(
            not problem.prefers(s, problem.initial_school[s], problem.outcome_school(X, s))
            for s in range(problem.num_students)
        )
        if ir and not any(dm.pareto_dominates(Y, X, problem) for Y in satisfying):
            out.append(X)
    return out


def test_efficient_set_matches_naive_definition(basic, impossibility):
    for inst, goal in (
        (basic, explicit_goal(dm.enumerate_xi0(basic.problem))),
        (impossibility, impossibility.policy),
    ):
        p = inst.problem
        fast = constrained_efficient_ir_matchings(p, goal)
        naive = _naive_efficient_ir(p, goal)
        assert sorted(fast, key=sorted) == sorted(naive, key=sorted)


def test_efficient_set_is_the_printed_pair(impossibility):
    p = impossibility.problem
    eff = constrained_efficient_ir_matchings(p, impossibility.policy)
    want = [
        matching_of(
            p,
            [("s1", "c6"), ("s2", "c2"), ("s3", "c4"), ("s4", "c3"), ("s5", "c5"), ("s6", "c1")],
        ),
        matching_of(
            p,
            [("s1", "c1"), ("s2", "c6"), ("s3", "c5"), ("s4", "c4"), ("s5", "c3"), ("s6", "c2")],
        ),
    ]
    assert sorted(eff, key=sorted) == sorted(want, key=sorted)


def test_misreport_collapses_efficient_set(impossibility):
    p = impossibility.problem
    # s3 ranks c5 first and c3 second: only the second matching survives
    deviated = dm.with_preferences(p, 2, (4, 2, 0, 1, 3, 5))
    eff = constrained_efficient_ir_matchings(deviated, impossibility.policy)
    assert len(eff) == 1
    assert p.outcome_school(eff[0], 2) == 4  # s3 lands at c5


def test_unique_ir_matching_when_everyone_loves_home(basic):
    p = basic.problem
    for s in range(p.num_students):
        home_first = (p.initial_school[s],) + tuple(
            c for c in p.preferences[s] if c != p.initial_school[s]
        )
        p = dm.with_preferences(p, s, home_first)
    goal = explicit_goal(dm.enumerate_xi0(p))
    eff = constrained_efficient_ir_matchings(p, goal)
    assert eff == [p.initial_matching()]


def test_replay_certificate(impossibility):
    p = impossibility.problem
    cert = replay_impossibility(p, impossibility.policy)
    a, b = cert.efficient_pair
    # element listing is lexicographic: first the matching giving s1 her
    # initial school, then the one giving her c6
    by_student = {p.outcome_school(a, 0), p.outcome_school(b, 0)}
    assert by_student == {0, 5}
    dev_a, dev_b = cert.deviations
    assert (dev_a.student, dev_b.student) == (5, 2)  # s6 against one, s3 against other
    # the misreports are target-first, initial-second
    assert dev_a.misreport[:2] == (0, 5)  # s6: c1 then c6
    assert dev_b.misreport[:2] == (4, 2)  # s3: c5 then c3
    # each deviation strictly improves its deviator
    for target, dev in zip(cert.efficient_pair, cert.deviations):
        honest = p.outcome_school(target, dev.student)
        better = p.outcome_school(dev.resulting, dev.student)
        assert p.prefers(dev.student, better, honest)


def test_replay_not_applicable_with_loose_ceilings(impossibility):
    p = impossibility.problem
    loose = district_ceilings_goal(
        {(d, t): 2 for d in range(2) for t in range(2)}
    )
    with pytest.raises(NotApplicable):
        replay_impossibility(p, loose)


def test_replay_with_zero_gap_explicit_goal(impossibility):
    # the same two matchings and deviations demonstrate the zero-tolerance
    # diversity impossibility: both candidates give every district one
    # student of each type
    p = impossibility.problem
    members = [
        xi
        for xi in dm.enumerate_xi0(p)
        if all(
            xi.district_type(p, d, t) == xi.district_type(p, 0, t)
            for d in range(p.num_districts)
            for t in range(p.num_types)
        )
    ]
    goal = explicit_goal(members)
    cert = replay_impossibility(p, goal)
    assert {dev.student for dev in cert.deviations} == {2, 5}


# -- nonexistence search -----------------------------------------------------------


def test_search_unsat_canonical(nonexistence):
    p = nonexistence.problem
    ceilings = {t: q for (d, t), q in nonexistence.policy.district_ceilings if d == 0}
    res = search_rule_nonexistence(p, 0, ceilings, symmetry=True)
    assert not res.satisfiable
    assert res.conflict_log
    res2 = search_rule_nonexistence(p, 0, ceilings, symmetry=False)
    assert not res2.satisfiable


def test_search_sat_with_relaxed_ceilings(nonexistence):
    p = nonexistence.problem
    res = search_rule_nonexistence(p, 0, {0: 2, 1: 2}, symmetry=True)
    assert res.satisfiable
    for prop in (
        RuleProperty.DISTRICT_CEILINGS,
        RuleProperty.D_WEAKLY_ACCEPTANT,
        RuleProperty.IRC,
        RuleProperty.WEAKLY_SUBSTITUTABLE,
    ):
        assert check_property(res.witness, prop, p).holds, prop


def test_search_sat_one_student_per_type():
    spec = ProblemSpec(
        types=("t1", "t2"),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 1), ("c2", "d1", 1), ("c3", "d1", 1), ("c4", "d2", 2)),
        students=(
            ("s1", "d1", "t1", ("c1", "c2", "c3", "c4")),
            ("s3", "d2", "t2", ("c1", "c2", "c3", "c4")),
        ),
        initial_matching={"s1": "c1", "s3": "c4"},
    )
    p = validate_problem(spec)
    res = search_rule_nonexistence(p, 0, {0: 1, 1: 1}, symmetry=True)
    assert res.satisfiable
    for prop in (
        RuleProperty.DISTRICT_CEILINGS,
        RuleProperty.D_WEAKLY_ACCEPTANT,
        RuleProperty.IRC,
        RuleProperty.WEAKLY_SUBSTITUTABLE,
    ):
        assert check_property(res.witness, prop, p).holds, prop


def test_search_budget(nonexistence):
    p = nonexistence.problem
    with pytest.raises(SearchBudgetExceeded):
        search_rule_nonexistence(p, 0, {0: 2, 1: 2}, budget=1)


def test_search_size_bound(nonexistence, monkeypatch):
    p = nonexistence.problem
    ceilings = {t: q for (d, t), q in nonexistence.policy.district_ceilings if d == 0}
    # the fixture's district lists 4**4 = 256 sets
    monkeypatch.setattr(oracle, "NONEXISTENCE_SET_BOUND", 256)
    assert not search_rule_nonexistence(p, 0, ceilings).satisfiable
    monkeypatch.setattr(oracle, "NONEXISTENCE_SET_BOUND", 255)
    with pytest.raises(UniverseTooLarge) as exc:
        search_rule_nonexistence(p, 0, ceilings)
    assert (exc.value.size, exc.value.budget) == (256, 255)


def test_symmetry_on_a_twelve_student_one_school_district():
    # 2**12 sets, under the size bound; the symmetry step reads each root
    # value's orbit off its per-class counts instead of trying all 12!
    # student orders, so the search finishes
    students = tuple(
        (f"s{i + 1}", "d1" if i < 6 else "d2", f"t{i % 2 + 1}", ("c1", "c2"))
        for i in range(12)
    )
    spec = ProblemSpec(
        types=("t1", "t2"),
        districts=("d1", "d2"),
        schools=(("c1", "d1", 6), ("c2", "d2", 6)),
        students=students,
        initial_matching={sid: "c1" if d == "d1" else "c2" for sid, d, _, _ in students},
    )
    p = validate_problem(spec)
    ceilings = {0: 3, 1: 3}
    res = search_rule_nonexistence(p, 0, ceilings, symmetry=True)
    plain = search_rule_nonexistence(p, 0, ceilings, symmetry=False)
    assert (res.satisfiable, res.nodes) == (plain.satisfiable, plain.nodes) == (True, 25)
    # the reference's own symmetry step tries all 12! orders, so it is asked
    # only for the search without one
    assert plain == search_rule_nonexistence_reference(p, 0, ceilings, symmetry=False)


# -- welfare comparison ------------------------------------------------------------


def test_regression_found_for_nonfavoring_rule(basic):
    p = basic.problem
    found = find_welfare_regression(p, basic.rules, budget=1)
    assert found is not None
    _, student = found
    assert student == 0  # s1 loses her c1 seat to s3 under open enrollment


def test_no_regression_under_own_favoring_rules(basic):
    p = basic.problem
    rules = {d: favor_own_students(r, p) for d, r in basic.rules.items()}
    assert find_welfare_regression(p, rules, budget=1296) is None
