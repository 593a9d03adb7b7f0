"""The mask-native ``Chooser`` and property checkers against the set-based
ones they replace (``rules_reference``)."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import DistrictMatchError
from districtmatch.model import with_preferences
from districtmatch.rules import (
    Chooser,
    RuleKind,
    RuleProperty,
    check_property,
    choose,
    compiled,
    completion_of,
    favor_own_students,
)

from helpers import random_problem
from rules_reference import Chooser as ReferenceChooser
from rules_reference import check_property_reference
from test_spda_differential import SPEC_KINDS, random_rule, random_table_rule, variant

RULE_PROPS = [
    p
    for p in RuleProperty
    if p not in (RuleProperty.ACCOMMODATES_UNMATCHED, RuleProperty.IS_COMPLETION_OF)
]


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except DistrictMatchError as exc:
        return (type(exc), str(exc))


def _fields(outcome):
    if outcome[0] != "ok":
        return outcome
    v = outcome[1]
    return (v.prop, v.holds, v.witness_sets, v.witness_contract, v.note)


def assert_same_verdict(rule, prop, problem, **kwargs):
    got = _fields(_outcome(check_property, rule, prop, problem, **kwargs))
    want = _fields(_outcome(check_property_reference, rule, prop, problem, **kwargs))
    assert got == want, (prop, rule)


def assert_same_choices(rule, problem):
    """choose_mask against choose on the set, for every subset of the
    district's universe (or every set feasible for students, for a table)."""
    chooser = Chooser(rule, problem)
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        masks = chooser.feasible_for_students_masks()
    else:
        masks = range(1 << len(chooser.universe))
    for m in masks:
        got = _outcome(chooser.choose_mask, m)
        want = _outcome(choose, rule, chooser.set_of(m), problem)
        if want[0] == "ok":
            want = ("ok", chooser.mask_of(want[1]))
        assert got == want, (m, rule)


def assert_same_orders(rule, problem):
    chooser, reference = Chooser(rule, problem), ReferenceChooser(rule, problem)
    assert chooser.universe == reference.universe
    assert chooser.feasible_for_students_masks() == reference.feasible_for_students_masks()
    if len(chooser.universe) <= 12:
        assert chooser.all_masks() == reference.all_masks()


def assert_same_checks(problem, rules, base_rules=None):
    """Every property of every district's rule, is_completion_of against
    its base and against another rule, and accommodates_unmatched."""
    for d, rule in rules.items():
        assert_same_choices(rule, problem)
        assert_same_orders(rule, problem)
        for prop in RULE_PROPS:
            assert_same_verdict(rule, prop, problem)
        for base in filter(None, [(base_rules or {}).get(d), rules[d]]):
            if base.kind is not RuleKind.EXPLICIT_TABLE:
                assert_same_verdict(
                    rule, RuleProperty.IS_COMPLETION_OF, problem, base_rule=base
                )
    assert_same_verdict(None, RuleProperty.ACCOMMODATES_UNMATCHED, problem, rules=rules)


def random_profile(rng, problem, tables=0.0):
    """Rules for every district, each a random spec rule of any kind (or a
    table) or one of its variants, and the rule each variant came from."""
    rules, bases = {}, {}
    for d in range(problem.num_districts):
        if rng.random() < tables:
            rules[d] = random_table_rule(rng, problem, d)
            continue
        base = random_rule(rng, problem, d, rng.choice(SPEC_KINDS))
        if rng.random() < 0.1:  # a priority list that omits a student
            c, order = base.priorities[0]
            base = replace(base, priorities=((c, order[1:]),) + base.priorities[1:])
        rules[d], bases[d] = variant(rng, base, problem), base
    return rules, bases


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spec_rule_checks_match_reference(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    rules, bases = random_profile(rng, problem)
    assert_same_checks(problem, rules, bases)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_explicit_table_checks_match_reference(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    rules, bases = random_profile(rng, problem, tables=0.7)
    assert_same_checks(problem, rules, bases)


@pytest.mark.parametrize("kind", SPEC_KINDS, ids=[k.value for k in SPEC_KINDS])
def test_every_kind_and_variant_matches_reference(kind):
    rng = random.Random(kind.value)
    for _ in range(3):
        problem = random_problem(rng)
        for d in range(problem.num_districts):
            rule = random_rule(rng, problem, d, kind)
            others = {e: random_rule(rng, problem, e, kind) for e in (0, 1)}
            for r in (rule, completion_of(rule), favor_own_students(rule, problem)):
                assert_same_checks(problem, {**others, d: r}, {d: rule})


@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_fixture_checks_match_reference(name):
    inst = dm.load_fixture(name)
    problem = inst.problem
    rng = random.Random(name)
    if inst.rules:
        assert_same_checks(problem, inst.rules)
    small = problem.num_students * problem.num_schools <= 16
    for _ in range(2 if small else 0):
        rules, bases = random_profile(rng, problem)
        assert_same_checks(problem, rules, bases)


def test_bounds_are_checked_alike(basic):
    rule = basic.rules[0]
    for prop in (RuleProperty.SUBSTITUTABLE, RuleProperty.ACCEPTANT):
        assert_same_verdict(rule, prop, basic.problem, all_subset_bound=3, feasible_bound=5)
    assert_same_verdict(
        None, RuleProperty.ACCOMMODATES_UNMATCHED, basic.problem, rules=basic.rules,
        feasible_bound=5,
    )


def test_feasible_order_on_wider_universes():
    # up to 6 students, so ties within a size span many bit positions
    rng = random.Random(11)
    for _ in range(20):
        problem = random_problem(rng)
        for d in range(problem.num_districts):
            rule = random_rule(rng, problem, d, RuleKind.SEQUENTIAL_RESPONSIVE)
            assert_same_orders(rule, problem)
    inst = dm.load_fixture("reserves_diversity")
    for rule in inst.rules.values():
        assert_same_orders(rule, inst.problem)


def test_one_memo_per_compiled_rule(basic, monkeypatch):
    import districtmatch.rules as rules_module

    evaluated = []
    chosen_keys = rules_module._chosen_keys
    monkeypatch.setattr(
        rules_module, "_chosen_keys", lambda *args: evaluated.append(1) or chosen_keys(*args)
    )
    problem, rule = basic.problem, basic.rules[0]
    rule = replace(rule)  # a fresh spec, so the memo starts empty
    memo = compiled(rule, problem).memo
    assert not memo
    check_property(rule, RuleProperty.LAD, problem)
    assert len(evaluated) == len(memo) > 0
    # every later check, and a misreport variant, reads the same memo
    for prop in RULE_PROPS:
        check_property(rule, prop, problem)
    assert len(evaluated) == len(memo)
    deviated = with_preferences(problem, 0, tuple(reversed(problem.preferences[0])))
    assert Chooser(rule, deviated)._cache is memo
    # a rule meeting a differently shaped problem starts a memo of its own
    moved = replace(problem, capacities=tuple(c + 1 for c in problem.capacities))
    assert Chooser(rule, moved)._cache is not memo
    assert compiled(rule, problem).memo is not memo
