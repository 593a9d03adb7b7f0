"""Choice functions: the rule constructions, completions, property checkers."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import (
    NoCompletionConstruction,
    UniverseTooLarge,
    UnknownContract,
)
from districtmatch.rules import (
    chooser_of,
    RuleProperty,
    check_property,
    choose,
    completion_of,
    favor_own_students,
)

from helpers import all_contracts, ids_of, matching_of


def test_choose_printed_rejection(basic):
    p = basic.problem
    chosen = choose(basic.rules[0], matching_of(p, [("s1", "c1"), ("s3", "c1")]), p)
    assert ids_of(p, chosen) == [("s3", "c1")]


def test_choose_empty_is_empty(basic):
    for rule in basic.rules.values():
        assert choose(rule, frozenset(), basic.problem) == frozenset()


def test_choose_restricts_to_own_district(basic):
    p = basic.problem
    X = matching_of(p, [("s1", "c1"), ("s2", "c3")])
    chosen = choose(basic.rules[0], X, p)
    assert ids_of(p, chosen) == [("s1", "c1")]


def test_choose_reserves_worked_set(reserves_diversity):
    p = reserves_diversity.problem
    X = matching_of(
        p,
        [("s1", "c1"), ("s2", "c1"), ("s3", "c1"), ("s4", "c1"), ("s5", "c2"), ("s6", "c2")],
    )
    chosen = choose(reserves_diversity.rules[0], X, p)
    assert ids_of(p, chosen) == [("s1", "c1"), ("s2", "c1"), ("s3", "c1"), ("s5", "c2")]


def test_choose_unknown_contract(basic):
    p = basic.problem
    with pytest.raises(UnknownContract):
        choose(basic.rules[0], {dm.Contract(99, 0, 0)}, p)


@pytest.mark.parametrize("name", ["spda_basic", "spda_rationed", "reserves_diversity"])
def test_missing_priority_list_fails_at_compile(name):
    # the loader rejects such a rule; built without a problem, it fails when
    # compiled, so its fault comes before a malformed contract of the same
    # choose and before check_property's universe bound
    inst = dm.load_fixture(name)
    p, rule = inst.problem, inst.rules[0]
    c = rule.school_order[-1]
    missing = replace(rule, priorities=tuple(pair for pair in rule.priorities if pair[0] != c))
    rules = {**inst.rules, 0: missing}
    message = f"no priority order for school index {c}"
    calls = [
        lambda: choose(missing, frozenset(), p),
        lambda: choose(missing, {dm.Contract(99, 0, 0)}, p),
        lambda: check_property(missing, RuleProperty.FEASIBLE, p),
        lambda: check_property(missing, RuleProperty.SUBSTITUTABLE, p, all_subset_bound=0),
        lambda: dm.is_stable(p.initial_matching(), p, rules),
        lambda: dm.run_spda(p, rules),
    ]
    for call in calls:
        with pytest.raises(UnknownContract) as err:
            call()
        assert str(err.value) == message


def test_make_rule_reports_the_loaders_issue(basic):
    import json

    from districtmatch.errors import ValidationError
    from districtmatch.fixtures import fixture_path
    from districtmatch.instances import instance_from_dict
    from districtmatch.rules import make_rule

    rule = basic.rules[0]
    with pytest.raises(ValidationError) as made:
        make_rule(
            district=0,
            kind=rule.kind,
            school_order=rule.school_order[:1],
            priorities=dict(rule.priorities),
            problem=basic.problem,
        )
    doc = json.loads(fixture_path("spda_basic").read_text())
    doc["rules"][0]["school_order"].pop()
    with pytest.raises(ValidationError) as loaded:
        instance_from_dict(doc)
    message = "rule for district d1: school_order must cover exactly its district's schools"
    assert made.value.issues == loaded.value.issues == [("InvalidRule", message)]


def test_make_rule_lists_each_table_entry_choosing_outside_its_set(basic):
    from districtmatch.errors import ValidationError
    from districtmatch.rules import RuleKind, make_rule

    p = basic.problem
    x, y = p.contract(0, 0), p.contract(1, 0)
    table = [
        (frozenset(), frozenset()),
        (frozenset({x}), frozenset({y})),
        (frozenset({y}), frozenset({y})),
        (frozenset({x, y}), frozenset({x, p.contract(2, 0)})),
    ]
    with pytest.raises(ValidationError) as made:
        make_rule(district=0, kind=RuleKind.EXPLICIT_TABLE, table=table, problem=p)
    assert made.value.issues == [
        ("InvalidRule", f"rule for district d1: table entry {i} chooses outside its set")
        for i in (2, 4)
    ]


# -- completions -------------------------------------------------------------------


def test_completion_agrees_on_feasible_sets(basic):
    p = basic.problem
    rule = basic.rules[0]
    comp = completion_of(rule)
    chooser = chooser_of(rule, p)
    for m in chooser.feasible_masks:
        X = chooser.set_of(m)
        assert choose(comp, X, p) == choose(rule, X, p)


def test_completion_schools_share_the_full_pool(basic):
    # the companion rule lets both schools consider the same student, so a
    # two-contract student can be picked twice
    p = basic.problem
    comp = completion_of(basic.rules[0])
    X = matching_of(p, [("s1", "c1"), ("s1", "c2")])
    assert ids_of(p, choose(comp, X, p)) == [("s1", "c1"), ("s1", "c2")]


def test_rationed_completion_can_pick_twice(rationed):
    # one student proposing two schools: the companion rule may keep both
    p = rationed.problem
    comp = completion_of(rationed.rules[0])
    X = matching_of(p, [("s1", "c1"), ("s1", "c2")])
    chosen = choose(comp, X, p)
    assert ids_of(p, chosen) == [("s1", "c1"), ("s1", "c2")]


def test_explicit_table_has_no_completion(nonexistence):
    p = nonexistence.problem
    res = dm.search_rule_nonexistence(p, 0, {0: 2, 1: 2})
    with pytest.raises(NoCompletionConstruction):
        completion_of(res.witness)


# -- property checkers: golden verdicts ---------------------------------------------


def test_respects_initial_fails_with_printed_witness(basic):
    p = basic.problem
    v = check_property(basic.rules[0], RuleProperty.RESPECTS_INITIAL_MATCHING, p)
    assert not v.holds
    assert ids_of(p, v.witness_sets[0]) == [("s1", "c1"), ("s3", "c1")]
    assert v.witness_contract == p.contract(0, 0)


def test_rationed_fails_on_basic_d1(basic):
    p = basic.problem
    v = check_property(basic.rules[0], RuleProperty.RATIONED, p)
    assert not v.holds
    # the returned witness is a genuine violation
    assert len(choose(basic.rules[0], v.witness_sets[0], p)) > p.k_district[0]
    # and so is the printed three-contract set
    X = matching_of(p, [("s1", "c2"), ("s3", "c1"), ("s4", "c2")])
    assert len(choose(basic.rules[0], X, p)) == 3


def test_modified_rule_respects_initial(respecting):
    p = respecting.problem
    for d in (0, 1):
        v = check_property(respecting.rules[d], RuleProperty.RESPECTS_INITIAL_MATCHING, p)
        assert v.holds


def test_feasible_acceptant_and_completion_claims(basic):
    p = basic.problem
    for rule in basic.rules.values():
        assert check_property(rule, RuleProperty.FEASIBLE, p).holds
        assert check_property(rule, RuleProperty.ACCEPTANT, p).holds
        comp = completion_of(rule)
        assert check_property(comp, RuleProperty.SUBSTITUTABLE, p).holds
        assert check_property(comp, RuleProperty.LAD, p).holds
        assert check_property(comp, RuleProperty.IS_COMPLETION_OF, p, base_rule=rule).holds


def test_rationed_rule_claims(rationed):
    p = rationed.problem
    rule = rationed.rules[0]
    assert check_property(rule, RuleProperty.RATIONED, p).holds
    assert check_property(rule, RuleProperty.ACCEPTANT, p).holds
    chooser = chooser_of(rule, p)
    k = p.k_district[0]
    for m in chooser.feasible_masks:
        assert chooser.choose_mask(m).bit_count() <= k
    comp = completion_of(rule)
    assert check_property(comp, RuleProperty.SUBSTITUTABLE, p).holds
    assert check_property(comp, RuleProperty.LAD, p).holds
    assert check_property(comp, RuleProperty.IS_COMPLETION_OF, p, base_rule=rule).holds


def test_reserves_rule_claims(reserves_diversity):
    p = reserves_diversity.problem
    for rule in reserves_diversity.rules.values():
        assert check_property(rule, RuleProperty.FEASIBLE, p).holds
        assert check_property(rule, RuleProperty.WEAKLY_ACCEPTANT, p).holds
        assert check_property(rule, RuleProperty.RATIONED, p).holds
        assert check_property(rule, RuleProperty.SCHOOL_CEILINGS, p).holds
        comp = completion_of(rule)
        assert check_property(comp, RuleProperty.SUBSTITUTABLE, p).holds
        assert check_property(comp, RuleProperty.LAD, p).holds
        assert check_property(comp, RuleProperty.IS_COMPLETION_OF, p, base_rule=rule).holds


def test_reserve_cover_accommodates_unmatched(reserves_diversity):
    # reserves sum to each type's population, so nobody can be stranded
    p = reserves_diversity.problem
    v = check_property(
        None, RuleProperty.ACCOMMODATES_UNMATCHED, p, rules=reserves_diversity.rules
    )
    assert v.holds


def test_choose_idempotent_for_path_independent_completions(basic, rationed, reserves_diversity):
    for inst in (basic, rationed, reserves_diversity):
        p = inst.problem
        for rule in inst.rules.values():
            comp = completion_of(rule)
            if not check_property(comp, RuleProperty.PATH_INDEPENDENT, p).holds:
                continue
            chooser = chooser_of(comp, p)
            for m in chooser.feasible_masks:
                ch = chooser.choose_mask(m)
                assert chooser.choose_mask(ch) == ch


def test_favor_own_students_lift(basic):
    p = basic.problem
    base = basic.rules[0]
    assert not check_property(base, RuleProperty.FAVORS_OWN_STUDENTS, p).holds
    lifted = favor_own_students(base, p)
    assert check_property(lifted, RuleProperty.FAVORS_OWN_STUDENTS, p).holds
    assert check_property(lifted, RuleProperty.FEASIBLE, p).holds
    assert check_property(lifted, RuleProperty.ACCEPTANT, p).holds


def test_universe_bound_enforced(basic):
    p = basic.problem
    with pytest.raises(UniverseTooLarge):
        check_property(
            basic.rules[0], RuleProperty.SUBSTITUTABLE, p, all_subset_bound=4
        )


def test_weak_substitutability_weaker_than_substitutability(rationed):
    # the rationed rule itself fails substitutability over arbitrary sets
    # but passes the weaker one-contract-per-student form
    p = rationed.problem
    rule = rationed.rules[0]
    assert check_property(rule, RuleProperty.WEAKLY_SUBSTITUTABLE, p).holds


def test_witnesses_are_deterministic(basic):
    p = basic.problem
    a = check_property(basic.rules[0], RuleProperty.RESPECTS_INITIAL_MATCHING, p)
    b = check_property(basic.rules[0], RuleProperty.RESPECTS_INITIAL_MATCHING, p)
    assert a.witness_sets == b.witness_sets
    assert a.witness_contract == b.witness_contract


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_choose_output_inside_own_district_pool(basic, reserves_diversity, data):
    inst = data.draw(st.sampled_from([None, True]), label="which")
    inst = basic if inst is None else reserves_diversity
    p = inst.problem
    contracts = all_contracts(p)
    X = frozenset(
        x for x in contracts if data.draw(st.booleans(), label=f"{x.student}-{x.school}")
    )
    for d, rule in inst.rules.items():
        chosen = choose(rule, X, p)
        assert chosen <= {x for x in X if x.district == d}
        assert choose(rule, X, p) == chosen  # deterministic re-evaluation
