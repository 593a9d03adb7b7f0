"""The integer seat-filling walk of ``Chooser.choose_mask``
(``rules._chosen_bits``) and the whole-universe walk of ``Chooser.fill``
against the sorted-key walk ``choose`` and ``Cutoffs`` keep
(``rules._chosen_keys``), on every subset of the district's contracts."""

import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch.rules as rules_module
from districtmatch.model import with_preferences
from districtmatch.rules import (
    RuleKind,
    RuleProperty,
    _chosen_bits,
    _chosen_keys,
    _translate,
    check_property,
    choose,
    chooser_of,
    compiled,
    completion_of,
    favor_own_students,
)

from helpers import random_problem
from test_rules_differential import RULE_PROPS, _outcome
from test_spda_differential import SPEC_KINDS, random_rule

VARIANTS = ("rule", "completion", "favor_own")
CAPS = (None, 0, 1, "home")


def kernel_rule(
    rng,
    problem,
    d,
    kind,
    variant,
    *,
    omit,
    twice,
    full,
    cap,
    zero_ceiling,
    reserved_ceiling,
    stray=False,
    hollow=False,
):
    """A random spec rule of ``kind`` with the walk's edge cases switched on:
    a student missing from a priority list (a contract with no key), a
    reserved type named twice in ``type_order``, reserves that fill a
    school's capacity, a district cap (0 leaves no room anywhere), a ceiling
    of 0, ceilings at or one above each reserve, so that reserve seats
    count against them, priority entries out of range (keys with no
    contract) in the last school's list, and, where the district has three
    schools or more, a school in the middle of ``school_order`` whose list
    holds only such entries, with a reserve at it.  The variant is made
    last, so it meets every edge."""
    rule = random_rule(rng, problem, d, kind)
    first = rule.school_order[0]
    if omit:
        (c, order), *rest = rule.priorities
        rule = replace(rule, priorities=((c, order[1:]), *rest))
    reserves, ceilings = dict(rule.reserves), dict(rule.ceilings)
    if full:
        for c, t in list(reserves):
            if c == first:
                del reserves[c, t]
        reserves[first, rng.randrange(problem.num_types)] = problem.capacities[first]
    if twice:
        types = tuple(range(problem.num_types))
        reserved = sorted({t for (_, t), v in reserves.items() if v}) or types
        rule = replace(rule, type_order=types + (rng.choice(reserved),))
    if reserved_ceiling:
        ceilings.update({k: v + rng.randint(0, 1) for k, v in reserves.items()})
    if zero_ceiling:
        ceilings[first, rng.randrange(problem.num_types)] = 0
    if hollow and len(rule.school_order) >= 3:
        middle = rule.school_order[len(rule.school_order) // 2]
        priorities = dict(rule.priorities)
        priorities[middle] = (problem.num_students, -1)
        rule = replace(rule, priorities=tuple(sorted(priorities.items())))
        reserves[middle, rng.randrange(problem.num_types)] = rng.randint(1, 2)
    rule = replace(
        rule, reserves=tuple(sorted(reserves.items())), ceilings=tuple(sorted(ceilings.items()))
    )
    rule = replace(rule, district_cap=problem.k_district[d] if cap == "home" else cap)
    if stray:
        *rest, (c, order) = rule.priorities
        order = list(order)
        for s in (-1, problem.num_students):
            order.insert(rng.randrange(len(order) + 1), s)
        rule = replace(rule, priorities=(*rest, (c, tuple(order))))
    if variant == "completion":
        rule = completion_of(rule)
    if variant == "favor_own":
        rule = favor_own_students(rule, problem)
    return rule


def assert_kernel_matches_walk(rule, problem):
    """Every subset: the kernel's choice and the filled table against
    ``_chosen_keys`` on the sorted keys.  The fill leaves out each mask
    holding an unranked contract, which goes through ``choose``."""
    chooser, comp = chooser_of(rule, problem), compiled(rule, problem)
    assert chooser.to_keys is not None
    chooser.fill()
    filled = dict(chooser._cache)
    for mask in range(1 << len(chooser.universe)):
        got = _outcome(chooser.choose_mask, mask)
        if mask & chooser.unranked:
            want = _outcome(choose, rule, chooser.set_of(mask), problem)
            assert mask not in filled and got[0] != "ok" and got == want, (mask, rule)
            continue
        keys = sorted(map(comp.key, chooser.set_of(mask)))
        want = chooser.mask_of(map(comp.contract, _chosen_keys(rule, comp, keys)))
        keys_chosen = _chosen_bits(chooser, _translate(chooser.to_keys, mask))
        kernel = _translate(chooser.to_universe, keys_chosen)
        assert kernel == want and filled.pop(mask) == want and got == ("ok", want), (mask, rule)
    assert not filled


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(SPEC_KINDS),
    variant=st.sampled_from(VARIANTS),
    omit=st.booleans(),
    twice=st.booleans(),
    full=st.booleans(),
    cap=st.sampled_from(CAPS),
    zero_ceiling=st.booleans(),
    reserved_ceiling=st.booleans(),
    stray=st.booleans(),
    hollow=st.booleans(),
)
def test_kernel_matches_sorted_key_walk(seed, kind, variant, **edges):
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 5))
    for d in range(problem.num_districts):
        assert_kernel_matches_walk(kernel_rule(rng, problem, d, kind, variant, **edges), problem)


EDGES = ("omit", "twice", "full", "zero_ceiling", "reserved_ceiling", "stray", "hollow")


@pytest.mark.parametrize("kind", SPEC_KINDS, ids=[k.value for k in SPEC_KINDS])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fill_matches_the_walks_edge_by_edge(kind, variant):
    # no edge, then each edge alone and each cap alone, on seeded markets;
    # the hollow edge needs three schools, and has its own test below
    rng = random.Random(f"fill-{kind.value}-{variant}")
    cases = [(edge, None) for edge in (None, *EDGES) if edge != "hollow"]
    cases += [(None, cap) for cap in CAPS[1:]]
    for edge, cap in cases * 2:
        problem = random_problem(rng, students=(2, 5))
        d = rng.randrange(problem.num_districts)
        edges = {e: e == edge for e in EDGES}
        rule = kernel_rule(rng, problem, d, kind, variant, cap=cap, **edges)
        assert_kernel_matches_walk(rule, problem)


@pytest.mark.parametrize("kind", SPEC_KINDS, ids=[k.value for k in SPEC_KINDS])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_edge_at_once(kind, variant):
    rng = random.Random(f"{kind.value}-{variant}")
    problem = random_problem(rng, num_types=2, students=(4, 4))
    for cap in CAPS:
        rule = kernel_rule(
            rng, problem, 0, kind, variant,
            omit=True, twice=True, full=True, cap=cap, zero_ceiling=True, reserved_ceiling=True,
            stray=True, hollow=True,
        )
        assert_kernel_matches_walk(rule, problem)


@pytest.mark.parametrize("kind", SPEC_KINDS, ids=[k.value for k in SPEC_KINDS])
@pytest.mark.parametrize("cap", CAPS, ids=str)
def test_a_school_that_ranks_no_contract_between_two_that_do(kind, cap):
    # a district of three schools whose middle one ranks no contract but
    # has a reserve: it gets no record, and picks nothing
    rng = random.Random(f"hollow-{kind.value}-{cap}")
    for variant in VARIANTS:
        problem = random_problem(rng, students=(2, 4))
        while max(map(len, problem.district_schools)) < 3:
            problem = random_problem(rng, students=(2, 4))
        d = max(range(problem.num_districts), key=lambda d: len(problem.district_schools[d]))
        edges = {e: e == "hollow" for e in EDGES}
        rule = kernel_rule(rng, problem, d, kind, variant, cap=cap, **edges)
        comp = compiled(rule, problem)
        ranks = [any(k is not None for k in comp.key_at[pos]) for pos in range(3)]
        assert ranks == [True, False, True], rule
        assert_kernel_matches_walk(rule, problem)


@pytest.mark.parametrize("completed", [False, True])
def test_both_passes_of_a_type_named_twice_count_against_its_ceiling(completed):
    # one type, reserved once but named twice: the reserves take two seats,
    # which fill the ceiling of 2 though two more seats are open
    problem = random_problem(random.Random(3), num_types=1, students=(4, 4))
    first = problem.district_schools[0][0]
    problem = replace(
        problem, capacities=tuple(4 if c == first else q for c, q in enumerate(problem.capacities))
    )
    rule = replace(
        random_rule(random.Random(4), problem, 0, RuleKind.RESERVES_AND_CEILINGS),
        reserves=(((first, 0), 1),),
        ceilings=(((first, 0), 2),),
        type_order=(0, 0),
        district_cap=5,
        completed=completed,
    )
    assert_kernel_matches_walk(rule, problem)
    chooser = chooser_of(rule, problem)
    at_first = chooser.bits_by(lambda x: x.school)[first]
    assert (chooser.choose_mask(at_first) & at_first).bit_count() == 2


def test_a_rule_that_ranks_no_contract_fills_the_empty_set_alone(basic):
    # every priority entry out of range: every nonempty mask is unranked
    rule = basic.rules[0]
    rule = replace(rule, priorities=tuple((c, (-1, 99)) for c, _ in rule.priorities))
    assert_kernel_matches_walk(rule, basic.problem)
    assert chooser_of(rule, basic.problem)._cache == {0: 0}


def test_mask_space_built_once_per_compiled_rule(basic, monkeypatch):
    built = []
    chooser_class = rules_module.Chooser
    monkeypatch.setattr(
        rules_module, "Chooser", lambda *args: built.append(1) or chooser_class(*args)
    )
    problem, rule = basic.problem, replace(basic.rules[0])  # a fresh spec
    assert rule.kind is not RuleKind.EXPLICIT_TABLE
    first = chooser_of(rule, problem)
    all_masks, feasible = first.all_masks, first.feasible_masks
    for prop in RULE_PROPS:
        check_property(rule, prop, problem)
    check_property(rule, RuleProperty.IS_COMPLETION_OF, problem, base_rule=rule)
    # a misreport variant shares the space and both mask domains
    deviated = with_preferences(problem, 0, tuple(reversed(problem.preferences[0])))
    again = chooser_of(rule, deviated)
    assert len(built) == 1 and again is first
    assert again.all_masks is all_masks
    assert again.feasible_masks is feasible
    # a differently shaped problem builds them again
    moved = replace(problem, capacities=tuple(c + 1 for c in problem.capacities))
    other = chooser_of(rule, moved)
    assert len(built) == 2 and other is not first
    assert other.all_masks is not all_masks and other.all_masks == all_masks
    assert other.feasible_masks is not feasible


def test_a_freed_spec_frees_its_chooser_at_once(basic):
    # the chooser holds the spec only weakly, so no cycle waits for the
    # cycle collector
    rule = replace(basic.rules[0])
    check_property(rule, RuleProperty.LAD, basic.problem)
    chooser = weakref.ref(chooser_of(rule, basic.problem))
    assert chooser().rule() is rule
    gc.disable()
    try:
        del rule
        assert chooser() is None
    finally:
        gc.enable()
