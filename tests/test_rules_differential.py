"""The mask-native ``Chooser`` and property checkers against the set-based
ones they replace (``rules_reference``)."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import DistrictMatchError, UniverseTooLarge
from districtmatch.model import with_preferences
from districtmatch.oracle import NONEXISTENCE_SET_BOUND, search_rule_nonexistence
from districtmatch.rules import (
    CompiledRule,
    RuleKind,
    RuleProperty,
    check_property,
    choose,
    chooser_of,
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
    chooser = chooser_of(rule, problem)
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        masks = chooser.feasible_masks
    else:
        masks = range(1 << len(chooser.universe))
    for m in masks:
        got = _outcome(chooser.choose_mask, m)
        want = _outcome(choose, rule, chooser.set_of(m), problem)
        if want[0] == "ok":
            want = ("ok", chooser.mask_of(want[1]))
        assert got == want, (m, rule)


def assert_same_orders(rule, problem):
    chooser, reference = chooser_of(rule, problem), ReferenceChooser(rule, problem)
    assert chooser.universe == reference.universe
    assert chooser.feasible_masks == reference.feasible_for_students_masks()
    if len(chooser.universe) <= 12:
        assert chooser.all_masks == reference.all_masks()


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


def with_ceilings(rng, problem, rule):
    """The rule with district-level type ceilings (0-3, or negative), and
    now and then a school-type ceiling made negative."""
    ceilings = tuple(
        (k, rng.randint(-2, -1) if rng.random() < 0.2 else q) for k, q in rule.ceilings
    )
    district_ceilings = tuple(
        (t, rng.randint(-1, 3)) for t in range(problem.num_types) if rng.random() < 0.7
    )
    return replace(rule, ceilings=ceilings, district_ceilings=district_ceilings)


def random_profile(rng, problem, tables=0.0):
    """Rules for every district, each a random spec rule of any kind (or a
    table) or one of its variants, and the rule each variant came from."""
    rules, bases = {}, {}
    for d in range(problem.num_districts):
        if rng.random() < tables:
            rules[d] = with_ceilings(rng, problem, random_table_rule(rng, problem, d))
            continue
        base = with_ceilings(rng, problem, random_rule(rng, problem, d, rng.choice(SPEC_KINDS)))
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


def test_accommodates_matches_reference_on_random_markets():
    # 2-5 students with little slack, so that many draws fail and the
    # witnesses are compared too
    failing = 0
    for seed in range(60):
        rng = random.Random(seed)
        problem = random_problem(rng, students=(2, 5), slack=rng.randint(0, 1))
        rules = random_profile(rng, problem, tables=0.3)[0]
        assert_same_verdict(None, RuleProperty.ACCOMMODATES_UNMATCHED, problem, rules=rules)
        got = _outcome(
            check_property, None, RuleProperty.ACCOMMODATES_UNMATCHED, problem, rules=rules
        )
        failing += got[0] == "ok" and not got[1].holds
    assert failing >= 10


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


def with_junk(rng, order, n):
    """``order`` with a few entries naming no student: below 0 or past the last."""
    order = list(order)
    for _ in range(rng.randint(1, 3)):
        order.insert(rng.randrange(len(order) + 1), rng.choice([-1, -n - 2, n, n + 5]))
    return tuple(order)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_priority_entries_out_of_range_are_skipped(seed):
    # a rule built without a problem may name students out of range; every
    # spec kind skips those entries, the initial-respecting lift included,
    # and chooses on every subset as the rule without them
    rng = random.Random(seed)
    problem = random_problem(rng)
    n = problem.num_students
    for d in range(problem.num_districts):
        clean = variant(rng, random_rule(rng, problem, d, rng.choice(SPEC_KINDS)), problem)
        junk = replace(
            clean,
            priorities=tuple((c, with_junk(rng, order, n)) for c, order in clean.priorities),
        )
        chooser, junk_chooser = chooser_of(clean, problem), chooser_of(junk, problem)
        for m in chooser.all_masks:
            assert _outcome(junk_chooser.choose_mask, m) == _outcome(chooser.choose_mask, m)
        for m in chooser.feasible_masks:
            X = chooser.set_of(m)
            assert _outcome(choose, junk, X, problem) == _outcome(choose, clean, X, problem)


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

    fills, evaluated = [], []
    fill_level, chosen_bits = rules_module._fill_level, rules_module._chosen_bits

    def counted_fill_level(walk, pos, *state):
        if pos == 0:
            fills.append(1)
        return fill_level(walk, pos, *state)

    monkeypatch.setattr(rules_module, "_fill_level", counted_fill_level)
    monkeypatch.setattr(
        rules_module, "_chosen_bits", lambda *args: evaluated.append(1) or chosen_bits(*args)
    )
    problem, rule = basic.problem, basic.rules[0]
    rule = replace(rule)  # a fresh spec, so the memo starts empty
    chooser = chooser_of(rule, problem)
    memo = chooser._cache
    assert not memo and not chooser.unranked
    # a check over the feasible sets alone evaluates mask by mask
    check_property(rule, RuleProperty.RATIONED, problem)
    misses = len(evaluated)
    assert not fills and misses == len(memo) > 0
    # the first check over every subset fills the whole table in one walk
    check_property(rule, RuleProperty.LAD, problem)
    assert len(fills) == 1 and len(memo) == len(chooser.all_masks)
    # every later check, and a misreport variant, reads the same memo
    for prop in RULE_PROPS:
        check_property(rule, prop, problem)
    deviated = with_preferences(problem, 0, tuple(reversed(problem.preferences[0])))
    assert chooser_of(rule, deviated)._cache is memo
    check_property(rule, RuleProperty.SUBSTITUTABLE, deviated)
    assert len(fills) == 1 and len(memo) == len(chooser.all_masks)
    assert len(evaluated) == misses
    # a rule meeting a differently shaped problem starts a memo of its own
    moved = replace(problem, capacities=tuple(c + 1 for c in problem.capacities))
    assert chooser_of(rule, moved)._cache is not memo
    check_property(rule, RuleProperty.IRC, moved)
    assert len(fills) == 2
    assert chooser_of(rule, problem)._cache is not memo


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shared_chooser_judges_each_problem_by_its_own_homes(seed):
    """Swapping the homes of two students of different districts keeps the
    basis, so both problems share each rule's chooser; favors_own_students
    must still read each problem's own homes, as a fresh spec does."""
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    homes = list(problem.student_district)
    pairs = itertools.combinations(range(len(homes)), 2)
    movers = [(a, b) for a, b in pairs if homes[a] != homes[b]]
    assume(movers)
    a, b = rng.choice(movers)
    homes[a], homes[b] = homes[b], homes[a]
    swapped = replace(problem, student_district=tuple(homes))
    assert CompiledRule.basis_of(swapped) == CompiledRule.basis_of(problem)
    for d in range(problem.num_districts):
        rule = variant(rng, random_rule(rng, problem, d, rng.choice(SPEC_KINDS)), problem)
        for p in (problem, swapped):
            prop = RuleProperty.FAVORS_OWN_STUDENTS
            got = _fields(_outcome(check_property, rule, prop, p))
            assert got == _fields(_outcome(check_property, replace(rule), prop, p)), (p, rule)
        assert chooser_of(rule, swapped) is chooser_of(rule, problem)


def test_rule_checks_and_search_count_one_space():
    """check_property and the nonexistence search refuse one district with
    the same count of sets feasible for students."""
    problem = random_problem(random.Random(1), students=(10, 10))
    d = max(range(problem.num_districts), key=lambda d: len(problem.district_schools[d]))
    size = (len(problem.district_schools[d]) + 1) ** problem.num_students
    assert size > NONEXISTENCE_SET_BOUND
    rule = random_rule(random.Random(2), problem, d, RuleKind.SEQUENTIAL_RESPONSIVE)
    with pytest.raises(UniverseTooLarge) as checked:
        check_property(rule, RuleProperty.RATIONED, problem, feasible_bound=NONEXISTENCE_SET_BOUND)
    with pytest.raises(UniverseTooLarge) as searched:
        search_rule_nonexistence(problem, d, {})
    assert checked.value.size == searched.value.size == size
