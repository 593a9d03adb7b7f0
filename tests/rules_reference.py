"""The set-based rule property checkers, kept as the reference the
mask-native checkers of ``districtmatch.rules`` are tested against.

The ``Chooser`` here keeps a memo of its own, so every property check
evaluates the rule afresh; each ``choose_mask`` turns its mask into a
frozenset, chooses on it with ``districtmatch.rules.choose`` and indexes the
result back into a mask; the canonical orders are sorted on tuples of bit
indices; and the checkers count loads over ``set_of`` of each chosen mask.
"""

from __future__ import annotations

import itertools
from typing import Optional

from districtmatch.errors import UniverseTooLarge
from districtmatch.model import Matching, Problem
from districtmatch.rules import (
    _ALL_SUBSET_PROPS,
    DEFAULT_ALL_SUBSET_BOUND,
    DEFAULT_FEASIBLE_BOUND,
    PropertyVerdict,
    RuleKind,
    RuleProperty,
    RuleSpec,
    _lookup,
    choose,
)


class Chooser:
    """Memoized evaluator of one rule over its district's contract universe.

    Sets of contracts are encoded as bitmasks over the universe (student-major
    order), which keeps exhaustive property checks cheap.
    """

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.rule = rule
        self.problem = problem
        self.universe = tuple(problem.district_contracts(rule.district))
        self.index = {x: i for i, x in enumerate(self.universe)}
        self._cache = {}

    def mask_of(self, X) -> int:
        m = 0
        for x in X:
            m |= 1 << self.index[x]
        return m

    def set_of(self, mask: int) -> Matching:
        return frozenset(
            self.universe[i] for i in range(len(self.universe)) if mask >> i & 1
        )

    def choose_mask(self, mask: int) -> int:
        got = self._cache.get(mask)
        if got is None:
            got = self.mask_of(choose(self.rule, self.set_of(mask), self.problem))
            self._cache[mask] = got
        return got

    def choose(self, X) -> Matching:
        return self.set_of(self.choose_mask(self.mask_of(X)))

    def feasible_for_students_masks(self):
        """Masks of every subset with at most one contract per student,
        in (size, lexicographic) order."""
        per_student = {}
        for i, x in enumerate(self.universe):
            per_student.setdefault(x.student, []).append(i)
        groups = [v for _, v in sorted(per_student.items())]
        masks = [0]
        for g in groups:
            masks = [m | b for m in masks for b in [0] + [1 << i for i in g]]
        masks.sort(key=lambda m: (bin(m).count("1"), self._lex_key(m)))
        return masks

    def all_masks(self):
        n = len(self.universe)
        return sorted(range(1 << n), key=lambda m: (bin(m).count("1"), self._lex_key(m)))

    def _lex_key(self, mask: int):
        return tuple(i for i in range(len(self.universe)) if mask >> i & 1)


def _holds(prop):
    return PropertyVerdict(prop, True)


def _fails(prop, sets=(), contract=None, note=""):
    return PropertyVerdict(prop, False, tuple(sets), contract, note)


def check_property_reference(
    rule,
    prop: RuleProperty,
    problem: Problem,
    *,
    rules=None,
    base_rule: Optional[RuleSpec] = None,
    all_subset_bound: int = DEFAULT_ALL_SUBSET_BOUND,
    feasible_bound: int = DEFAULT_FEASIBLE_BOUND,
) -> PropertyVerdict:
    """Exhaustively check one property over its exact quantifier domain.

    ``rule`` is a RuleSpec except for ACCOMMODATES_UNMATCHED, which is a
    profile-level property and reads ``rules`` (district -> RuleSpec).
    IS_COMPLETION_OF compares ``rule`` against ``base_rule``.
    """
    if prop is RuleProperty.ACCOMMODATES_UNMATCHED:
        return _check_accommodates(rules, problem, feasible_bound)

    chooser = Chooser(rule, problem)
    n = len(chooser.universe)
    if prop in _ALL_SUBSET_PROPS and rule.kind is not RuleKind.EXPLICIT_TABLE:
        if n > all_subset_bound:
            raise UniverseTooLarge(2**n, 2**all_subset_bound)
        masks = chooser.all_masks()
    else:
        # explicit tables are total only over feasible-for-students sets,
        # so every quantifier restricts to that universe for them
        size = 1
        opts = {}
        for x in chooser.universe:
            opts[x.student] = opts.get(x.student, 0) + 1
        for v in opts.values():
            size *= v + 1
        if size > feasible_bound:
            raise UniverseTooLarge(size, feasible_bound)
        masks = chooser.feasible_for_students_masks()

    checker = _PROPERTY_CHECKS[prop]
    return checker(chooser, masks, problem, base_rule)


def _school_loads(chooser, mask):
    loads = {}
    for i in range(len(chooser.universe)):
        if mask >> i & 1:
            c = chooser.universe[i].school
            loads[c] = loads.get(c, 0) + 1
    return loads


def _check_feasible(chooser, masks, problem, _):
    for m in masks:
        ch = chooser.choose_mask(m)
        X = chooser.set_of(ch)
        students = [x.student for x in X]
        if len(students) != len(set(students)):
            return _fails(
                RuleProperty.FEASIBLE,
                [chooser.set_of(m)],
                note="chosen set repeats a student",
            )
        loads = _school_loads(chooser, ch)
        for c, load in loads.items():
            if load > problem.capacities[c]:
                return _fails(
                    RuleProperty.FEASIBLE,
                    [chooser.set_of(m)],
                    note=f"school {problem.school_ids[c]} over capacity",
                )
    return _holds(RuleProperty.FEASIBLE)


def _rejections_check(prop, slack_of, note):
    """A checker that fails on the first rejected contract with no licensed
    reason: its school has a free seat, the district is below its home
    count, and ``slack_of(rule)(problem, X, x)`` says no type ceiling
    binds either."""

    def check(chooser, masks, problem, _):
        k_d = problem.k_district[chooser.rule.district]
        slack = slack_of(chooser.rule)
        for m in masks:
            ch = chooser.choose_mask(m)
            X = chooser.set_of(ch)
            rejected = m & ~ch
            for i in range(len(chooser.universe)):
                if rejected >> i & 1:
                    x = chooser.universe[i]
                    c_load = sum(1 for y in X if y.school == x.school)
                    if (
                        c_load < problem.capacities[x.school]
                        and len(X) < k_d
                        and slack(problem, X, x)
                    ):
                        return _fails(prop, [chooser.set_of(m)], x, note=note)
        return _holds(prop)

    return check


def _no_ceiling(rule):
    return lambda problem, X, x: True


def _school_type_slack(rule):
    ceilings = _lookup(rule.ceilings)

    def slack(problem, X, x):
        t = problem.student_type[x.student]
        q = ceilings.get((x.school, t))
        return q is None or q > sum(
            1 for y in X if y.school == x.school and problem.student_type[y.student] == t
        )

    return slack


def _district_type_slack(rule):
    district_ceilings = _lookup(rule.district_ceilings)

    def slack(problem, X, x):
        t = problem.student_type[x.student]
        q = district_ceilings.get(t)
        return q is None or q > sum(1 for y in X if problem.student_type[y.student] == t)

    return slack


_check_acceptant = _rejections_check(
    RuleProperty.ACCEPTANT, _no_ceiling, "rejected with school and district both slack"
)
_check_weakly_acceptant = _rejections_check(
    RuleProperty.WEAKLY_ACCEPTANT,
    _school_type_slack,
    "rejected with school, district, and type ceiling slack",
)
_check_d_weakly_acceptant = _rejections_check(
    RuleProperty.D_WEAKLY_ACCEPTANT,
    _district_type_slack,
    "rejected with school, district, and district-type ceiling slack",
)


def _check_rationed(chooser, masks, problem, _):
    k_d = problem.k_district[chooser.rule.district]
    for m in masks:
        ch = chooser.choose_mask(m)
        if bin(ch).count("1") > k_d:
            return _fails(
                RuleProperty.RATIONED,
                [chooser.set_of(m)],
                note=f"chose {bin(ch).count('1')} contracts, home count is {k_d}",
            )
    return _holds(RuleProperty.RATIONED)


def _check_respects_initial(chooser, masks, problem, _):
    initial_bits = []
    for i, x in enumerate(chooser.universe):
        if problem.initial_school[x.student] == x.school:
            initial_bits.append(i)
    for m in masks:
        ch = None
        for i in initial_bits:
            if m >> i & 1:
                if ch is None:
                    ch = chooser.choose_mask(m)
                if not (ch >> i & 1):
                    return _fails(
                        RuleProperty.RESPECTS_INITIAL_MATCHING,
                        [chooser.set_of(m)],
                        chooser.universe[i],
                        note="initial-school contract rejected",
                    )
    return _holds(RuleProperty.RESPECTS_INITIAL_MATCHING)


def _check_favors_own(chooser, masks, problem, _):
    rule = chooser.rule
    own_bits = 0
    for i, x in enumerate(chooser.universe):
        if problem.student_district[x.student] == rule.district:
            own_bits |= 1 << i
    for m in masks:
        sub = m & own_bits
        ch_sub = chooser.choose_mask(sub)
        ch = chooser.choose_mask(m)
        missing = ch_sub & ~ch
        if missing:
            i = (missing & -missing).bit_length() - 1
            return _fails(
                RuleProperty.FAVORS_OWN_STUDENTS,
                [chooser.set_of(m), chooser.set_of(sub)],
                chooser.universe[i],
                note="own student chosen alone but dropped with outsiders present",
            )
    return _holds(RuleProperty.FAVORS_OWN_STUDENTS)


def _ceilings_check(prop, ceilings_of, key_of, note_of):
    """A checker that fails on the first chosen set in which the head count
    of some ``key_of(problem, y)`` exceeds the rule's ceiling for it."""

    def check(chooser, masks, problem, _):
        ceilings = _lookup(ceilings_of(chooser.rule))
        for m in masks:
            counts = {}
            for y in chooser.set_of(chooser.choose_mask(m)):
                key = key_of(problem, y)
                counts[key] = counts.get(key, 0) + 1
            for key, n in counts.items():
                q = ceilings.get(key)
                if q is not None and n > q:
                    return _fails(prop, [chooser.set_of(m)], note=note_of(problem, key))
        return _holds(prop)

    return check


_check_school_ceilings = _ceilings_check(
    RuleProperty.SCHOOL_CEILINGS,
    lambda rule: rule.ceilings,
    lambda problem, y: (y.school, problem.student_type[y.student]),
    lambda problem, key: f"type ceiling exceeded at school {problem.school_ids[key[0]]}",
)
_check_district_ceilings = _ceilings_check(
    RuleProperty.DISTRICT_CEILINGS,
    lambda rule: rule.district_ceilings,
    lambda problem, y: problem.student_type[y.student],
    lambda problem, t: f"district-level ceiling for type {problem.type_ids[t]} exceeded",
)


def _check_substitutable(chooser, masks, problem, _, prop=RuleProperty.SUBSTITUTABLE):
    # One-element removals are equivalent to the full subset quantifier:
    # chains of removals connect any X subset of Y.
    for m in masks:
        ch = chooser.choose_mask(m)
        for i in range(len(chooser.universe)):
            if m >> i & 1:
                smaller = m & ~(1 << i)
                ch_small = chooser.choose_mask(smaller)
                lost = (ch & ~(1 << i)) & ~ch_small
                if lost:
                    j = (lost & -lost).bit_length() - 1
                    return _fails(
                        prop,
                        [chooser.set_of(smaller), chooser.set_of(m)],
                        chooser.universe[j],
                        note="chosen from the larger set, dropped from the smaller",
                    )
    return _holds(prop)


def _check_weakly_substitutable(chooser, masks, problem, _):
    return _check_substitutable(
        chooser, masks, problem, None, prop=RuleProperty.WEAKLY_SUBSTITUTABLE
    )


def _check_lad(chooser, masks, problem, _):
    for m in masks:
        ch = chooser.choose_mask(m)
        n_ch = bin(ch).count("1")
        for i in range(len(chooser.universe)):
            if m >> i & 1:
                smaller = m & ~(1 << i)
                if bin(chooser.choose_mask(smaller)).count("1") > n_ch:
                    return _fails(
                        RuleProperty.LAD,
                        [chooser.set_of(smaller), chooser.set_of(m)],
                        note="smaller set yields strictly more contracts",
                    )
    return _holds(RuleProperty.LAD)


def _check_irc(chooser, masks, problem, _):
    for m in masks:
        ch = chooser.choose_mask(m)
        rejected = m & ~ch
        for i in range(len(chooser.universe)):
            if rejected >> i & 1:
                smaller = m & ~(1 << i)
                if chooser.choose_mask(smaller) != ch:
                    return _fails(
                        RuleProperty.IRC,
                        [chooser.set_of(m), chooser.set_of(smaller)],
                        chooser.universe[i],
                        note="removing a rejected contract changes the choice",
                    )
    return _holds(RuleProperty.IRC)


def _check_path_independent(chooser, masks, problem, _):
    # Path independence is equivalent to substitutability plus IRC.
    v = _check_substitutable(chooser, masks, problem, None)
    if not v.holds:
        return _fails(
            RuleProperty.PATH_INDEPENDENT, v.witness_sets, v.witness_contract, v.note
        )
    v = _check_irc(chooser, masks, problem, None)
    if not v.holds:
        return _fails(
            RuleProperty.PATH_INDEPENDENT, v.witness_sets, v.witness_contract, v.note
        )
    return _holds(RuleProperty.PATH_INDEPENDENT)


def _check_is_completion_of(chooser, masks, problem, base_rule):
    base = Chooser(base_rule, problem)
    for m in masks:
        ch = chooser.choose_mask(m)
        X = chooser.set_of(ch)
        students = [x.student for x in X]
        if len(students) == len(set(students)):  # feasible for students
            if ch != base.choose_mask(m):
                return _fails(
                    RuleProperty.IS_COMPLETION_OF,
                    [chooser.set_of(m)],
                    note="feasible output differs from the base rule",
                )
    return _holds(RuleProperty.IS_COMPLETION_OF)


def _check_accommodates(rules, problem: Problem, feasible_bound):
    """Profile-level: any unmatched student can be placed somewhere.

    Quantifies over all feasible matchings of the whole market in which the
    student is unmatched.
    """
    size = (problem.num_schools + 1) ** problem.num_students
    if size > feasible_bound:
        raise UniverseTooLarge(size, feasible_bound)
    choosers = {d: Chooser(r, problem) for d, r in rules.items()}

    def admissible(X, s):
        for c in range(problem.num_schools):
            d = problem.school_district[c]
            x = problem.contract(s, c)
            ch = choosers[d]
            mask = ch.mask_of([y for y in X if y.district == d]) | (
                1 << ch.index[x]
            )
            if ch.choose_mask(mask) >> ch.index[x] & 1:
                return True
        return False

    students = list(range(problem.num_students))
    for s in students:
        others = [t for t in students if t != s]
        options = [list(range(problem.num_schools)) + [None] for _ in others]
        for combo in itertools.product(*options):
            load = [0] * problem.num_schools
            ok = True
            for c in combo:
                if c is not None:
                    load[c] += 1
                    if load[c] > problem.capacities[c]:
                        ok = False
                        break
            if not ok:
                continue
            X = frozenset(
                problem.contract(t, c) for t, c in zip(others, combo) if c is not None
            )
            if not admissible(X, s):
                return _fails(
                    RuleProperty.ACCOMMODATES_UNMATCHED,
                    [X],
                    note=f"student {problem.student_ids[s]} has no accepting school",
                )
    return _holds(RuleProperty.ACCOMMODATES_UNMATCHED)


_PROPERTY_CHECKS = {
    RuleProperty.FEASIBLE: _check_feasible,
    RuleProperty.ACCEPTANT: _check_acceptant,
    RuleProperty.WEAKLY_ACCEPTANT: _check_weakly_acceptant,
    RuleProperty.D_WEAKLY_ACCEPTANT: _check_d_weakly_acceptant,
    RuleProperty.RATIONED: _check_rationed,
    RuleProperty.RESPECTS_INITIAL_MATCHING: _check_respects_initial,
    RuleProperty.FAVORS_OWN_STUDENTS: _check_favors_own,
    RuleProperty.SUBSTITUTABLE: _check_substitutable,
    RuleProperty.WEAKLY_SUBSTITUTABLE: _check_weakly_substitutable,
    RuleProperty.LAD: _check_lad,
    RuleProperty.IRC: _check_irc,
    RuleProperty.PATH_INDEPENDENT: _check_path_independent,
    RuleProperty.IS_COMPLETION_OF: _check_is_completion_of,
    RuleProperty.SCHOOL_CEILINGS: _check_school_ceilings,
    RuleProperty.DISTRICT_CEILINGS: _check_district_ceilings,
}
