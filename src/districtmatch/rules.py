"""District admissions rules and exhaustive property checkers.

A rule is a declarative spec; ``choose`` evaluates it on a set of contracts.
Property checks enumerate the rule's exact quantifier domain (all subsets of
the district's contracts, or only those feasible for students) and return
the first violation in a canonical order: smallest witness set first, ties
broken lexicographically by sorted contract indices.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .errors import (
    NoCompletionConstruction,
    UniverseTooLarge,
    UnknownContract,
)
from .model import Contract, Matching, Problem


class RuleKind(Enum):
    SEQUENTIAL_RESPONSIVE = "sequential_responsive"
    INITIAL_RESPECTING = "initial_respecting"
    RATIONED_SEQUENTIAL = "rationed_sequential"
    RESERVES_AND_CEILINGS = "reserves_and_ceilings"
    EXPLICIT_TABLE = "explicit_table"


class RuleProperty(Enum):
    FEASIBLE = "feasible"
    ACCEPTANT = "acceptant"
    WEAKLY_ACCEPTANT = "weakly_acceptant"
    D_WEAKLY_ACCEPTANT = "d_weakly_acceptant"
    RATIONED = "rationed"
    RESPECTS_INITIAL_MATCHING = "respects_initial_matching"
    FAVORS_OWN_STUDENTS = "favors_own_students"
    ACCOMMODATES_UNMATCHED = "accommodates_unmatched"  # profile-level
    SUBSTITUTABLE = "substitutable"
    WEAKLY_SUBSTITUTABLE = "weakly_substitutable"
    LAD = "lad"
    IRC = "irc"
    PATH_INDEPENDENT = "path_independent"
    IS_COMPLETION_OF = "is_completion_of"
    SCHOOL_CEILINGS = "school_ceilings"
    DISTRICT_CEILINGS = "district_ceilings"


#: properties quantified over every subset of the district's contracts
_ALL_SUBSET_PROPS = {
    RuleProperty.FEASIBLE,
    RuleProperty.SUBSTITUTABLE,
    RuleProperty.LAD,
    RuleProperty.IRC,
    RuleProperty.PATH_INDEPENDENT,
    RuleProperty.IS_COMPLETION_OF,
}

DEFAULT_ALL_SUBSET_BOUND = 16
DEFAULT_FEASIBLE_BOUND = 10**6


@dataclass(frozen=True)
class RuleSpec:
    """Declarative description of one district's admissions rule.

    ``priorities`` maps each school to a strict order over student indices;
    reserve and ceiling maps are keyed by (school, type).  ``completed``
    switches on the companion construction in which schools draw from the
    full pool without removing already-chosen students.

    ``compiled`` builds the spec's ``CompiledRule`` once (when ``make_rule``
    checks it against a problem, or at the first ``choose``) and keeps it in
    the instance ``__dict__``, outside the fields, so it is freed with the
    spec and ``dataclasses.replace`` starts afresh.
    """

    district: int
    kind: RuleKind
    school_order: tuple = ()
    priorities: tuple = ()  # of (school, tuple(student order)) pairs
    reserves: tuple = ()  # of ((school, type), count)
    ceilings: tuple = ()  # of ((school, type), count)
    type_order: tuple = ()
    district_cap: Optional[int] = None
    table: tuple = ()  # of (frozenset of contracts, frozenset chosen)
    district_ceilings: tuple = ()  # of (type, count), for district-level checks
    completed: bool = False


def _lookup(pairs) -> dict:
    """A (key, value) tuple as a dict; the first pair for a key wins."""
    return {k: v for k, v in reversed(pairs)}


def make_rule(
    district,
    kind,
    school_order=(),
    priorities=None,
    reserves=None,
    ceilings=None,
    type_order=(),
    district_cap=None,
    table=None,
    district_ceilings=None,
    problem: Optional[Problem] = None,
) -> RuleSpec:
    """Build a RuleSpec from plain mappings, checking its invariants."""
    priorities = priorities or {}
    reserves = reserves or {}
    ceilings = ceilings or {}
    spec = RuleSpec(
        district=district,
        kind=kind,
        school_order=tuple(school_order),
        priorities=tuple(sorted((c, tuple(v)) for c, v in priorities.items())),
        reserves=tuple(sorted((k, v) for k, v in reserves.items())),
        ceilings=tuple(sorted((k, v) for k, v in ceilings.items())),
        type_order=tuple(type_order),
        district_cap=district_cap,
        table=tuple(table or ()),
        district_ceilings=tuple(sorted((district_ceilings or {}).items())),
    )
    if problem is not None:
        _check_rule_invariants(spec, problem)
    return spec


def _check_rule_invariants(rule: RuleSpec, problem: Problem):
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        return
    expected = tuple(sorted(problem.district_schools[rule.district]))
    if tuple(sorted(rule.school_order)) != expected:
        raise UnknownContract(
            f"school_order must cover exactly district "
            f"{problem.district_ids[rule.district]}'s schools"
        )
    missing = compiled(rule, problem).missing
    if missing is not None:
        raise UnknownContract(missing)
    if rule.kind is RuleKind.RESERVES_AND_CEILINGS:
        reserves, ceilings = _lookup(rule.reserves), _lookup(rule.ceilings)
        for c in rule.school_order:
            total = sum(reserves.get((c, t), 0) for t in range(problem.num_types))
            if total > problem.capacities[c]:
                raise UnknownContract(
                    f"reserves at school {problem.school_ids[c]} exceed capacity"
                )
            for t in range(problem.num_types):
                q = ceilings.get((c, t))
                if q is not None and reserves.get((c, t), 0) > q:
                    raise UnknownContract(
                        f"reserve exceeds ceiling at school {problem.school_ids[c]}"
                    )


def favor_own_students(rule: RuleSpec, problem: Problem) -> RuleSpec:
    """Lift each school's own-district students above all others.

    Produces a sequential-responsive rule that favors own students.
    """
    new_priorities = []
    for c, order in rule.priorities:
        own = [s for s in order if problem.student_district[s] == rule.district]
        rest = [s for s in order if problem.student_district[s] != rule.district]
        new_priorities.append((c, tuple(own + rest)))
    return replace(
        rule,
        kind=RuleKind.SEQUENTIAL_RESPONSIVE,
        priorities=tuple(new_priorities),
    )


def completion_of(rule: RuleSpec) -> RuleSpec:
    """The companion rule in which chosen students are not removed.

    For every set X it either agrees with the original rule or returns a
    set that is not feasible for students.
    """
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        raise NoCompletionConstruction("explicit tables have no completion")
    return replace(rule, completed=True)


# -- evaluation -------------------------------------------------------------------


def _basis(problem: Problem) -> tuple:
    """The fields of a problem a compiled rule depends on.  Preferences are
    not among them, so misreport variants share one compiled rule."""
    return (
        problem.student_type,
        problem.initial_school,
        problem.school_district,
        problem.capacities,
        problem.k_district,
    )


class CompiledRule:
    """A rule spec indexed for evaluation on one problem structure.

    Every contract the rule ranks has an integer key: its school's position
    in ``school_order`` times ``stride``, plus its rank in that school's
    priority (initial students already lifted first for initial-respecting
    rules).  Sorting a pool's keys therefore orders it school by school, and
    each school by priority.  ``key_of`` holds only well-formed contracts of
    the rule's district, so a hit there also validates the contract.
    """

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.basis = _basis(problem)
        self.table = {}
        self.key_of = {}
        self.missing = None
        if rule.kind is RuleKind.EXPLICIT_TABLE:
            self.table = _lookup(rule.table)
            return
        priorities = _lookup(rule.priorities)
        unranked = [c for c in rule.school_order if c not in priorities]
        if unranked:
            self.missing = f"no priority order for school index {unranked[0]}"
            return
        n = problem.num_students
        orders = [priorities[c] for c in rule.school_order]
        if rule.kind is RuleKind.INITIAL_RESPECTING:
            # a stable sort lifts each school's initial students to the top
            initial = problem.initial_school
            orders = [
                sorted(order, key=lambda s: initial[s] != c)
                for c, order in zip(rule.school_order, orders)
            ]
        self.stride = stride = max([1] + [len(order) for order in orders])
        size = stride * len(orders)
        self.contract_at = [None] * size
        self.student_at = [None] * size
        self.type_at = [None] * size
        for pos, (c, order) in enumerate(zip(rule.school_order, orders)):
            for rank, s in enumerate(order):
                if not 0 <= s < n:
                    continue
                key = pos * stride + rank
                x = problem.contract(s, c)
                self.key_of[x] = key
                self.contract_at[key] = x
                self.student_at[key] = s
                self.type_at[key] = problem.student_type[s]
        self.capacity = [problem.capacities[c] for c in rule.school_order]
        self.cap = rule.district_cap
        if self.cap is None and rule.kind in (
            RuleKind.RATIONED_SEQUENTIAL,
            RuleKind.RESERVES_AND_CEILINGS,
        ):
            self.cap = problem.k_district[rule.district]
        reserves, ceilings = _lookup(rule.reserves), _lookup(rule.ceilings)
        type_order = rule.type_order or tuple(range(problem.num_types))
        self.reserves = [
            [(t, reserves[(c, t)]) for t in type_order if reserves.get((c, t), 0)]
            for c in rule.school_order
        ]
        self.ceilings = [
            {t: ceilings[(c, t)] for t in range(problem.num_types) if (c, t) in ceilings}
            for c in rule.school_order
        ]


def compiled(rule: RuleSpec, problem: Problem) -> CompiledRule:
    """The rule's compiled form for the problem's structure, built once and
    kept on the rule until it is used with a differently shaped problem."""
    comp = rule.__dict__.get("_compiled")
    if comp is None or comp.basis != _basis(problem):
        comp = CompiledRule(rule, problem)
        object.__setattr__(rule, "_compiled", comp)
    return comp


def choose(rule: RuleSpec, X, problem: Problem) -> Matching:
    """Evaluate the rule: the chosen subset of X's contracts for this district."""
    comp = compiled(rule, problem)
    key_of = comp.key_of
    keys = set(map(key_of.get, X))
    unranked = []  # well-formed contracts of the district that have no key
    if None in keys:
        keys.discard(None)
        for x in X:
            if x in key_of:
                continue
            if not (0 <= x.student < problem.num_students) or not (
                0 <= x.school < problem.num_schools
            ):
                raise UnknownContract(f"contract {x} references undeclared entities")
            if x.district != problem.school_district[x.school]:
                raise UnknownContract(f"contract {x} has district != d(school)")
            if x.district == rule.district:
                unranked.append(x)
    keys = sorted(keys)
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        chosen = comp.table.get(frozenset(unranked))
        if chosen is None:
            raise UnknownContract("set outside the explicit table's declared universe")
        return chosen
    if comp.missing is not None:
        raise UnknownContract(comp.missing)
    if unranked:
        raise UnknownContract(f"contract {unranked[0]} is outside the rule's priorities")
    if rule.kind is RuleKind.RESERVES_AND_CEILINGS:
        return _choose_reserves(comp, keys, rule.completed)
    return _choose_sequential(comp, keys, rule.completed)


def _school_pools(comp: CompiledRule, keys):
    """Sorted keys split by school position, each part in priority order."""
    pools = []
    lo = 0
    for pos in range(len(comp.capacity)):
        hi = bisect_left(keys, (pos + 1) * comp.stride, lo)
        pools.append(keys[lo:hi])
        lo = hi
    return pools


def _choose_sequential(comp: CompiledRule, keys, completed) -> Matching:
    """Schools pick responsively in order; chosen students drop out downstream.

    ``keys`` are sorted and distinct.  When no student has two contracts
    among them (or chosen students stay in, for a completion), each school
    takes a prefix of its pool.
    """
    student_at, cap = comp.student_at, comp.cap
    repeats = not completed and len(set(map(student_at.__getitem__, keys))) < len(keys)
    chosen = []
    taken = set()  # chosen students, tracked only when some repeat
    for room, pool in zip(comp.capacity, _school_pools(comp, keys)):
        if cap is not None:
            room = min(room, cap - len(chosen))
        if not repeats:
            chosen += pool[: max(room, 0)]
            continue
        for key in pool:
            if room <= 0:
                break
            if student_at[key] not in taken:
                taken.add(student_at[key])
                chosen.append(key)
                room -= 1
    return frozenset(map(comp.contract_at.__getitem__, chosen))


def _choose_reserves(comp: CompiledRule, keys, completed) -> Matching:
    """Reserve seats fill first (school-major, type-minor), then open seats.

    ``keys`` are sorted and distinct.  Loads only grow, so once a type
    reaches its ceiling at a school, no later contract of that type gets an
    open seat there: the open seats go to the first contracts of the pool
    that are within their type's remaining ceiling.
    """
    student_at, type_at, capacity = comp.student_at, comp.type_at, comp.capacity
    pools = _school_pools(comp, keys)
    chosen = set()  # of keys
    chosen_students = set()
    school_load = [0] * len(capacity)
    type_load = {}  # (school position, type) -> chosen count

    def free(pool):
        if completed:
            return [k for k in pool if k not in chosen]
        return [k for k in pool if student_at[k] not in chosen_students]

    for pos, pool in enumerate(pools):
        for t, target in comp.reserves[pos]:
            room = min(target, capacity[pos] - school_load[pos])
            picks = [k for k in free(pool) if type_at[k] == t][: max(room, 0)]
            chosen.update(picks)
            chosen_students.update(map(student_at.__getitem__, picks))
            school_load[pos] += len(picks)
            type_load[(pos, t)] = type_load.get((pos, t), 0) + len(picks)

    for pos, pool in enumerate(pools):
        room = min(capacity[pos] - school_load[pos], comp.cap - len(chosen))
        if room <= 0:
            continue
        open_pool = free(pool)
        over = set()  # contracts beyond their type's remaining ceiling
        for t, q in comp.ceilings[pos].items():
            of_type = [k for k in open_pool if type_at[k] == t]
            over.update(of_type[max(q - type_load.get((pos, t), 0), 0) :])
        if over:
            open_pool = [k for k in open_pool if k not in over]
        picks = open_pool[:room]
        chosen.update(picks)
        chosen_students.update(map(student_at.__getitem__, picks))
    return frozenset(map(comp.contract_at.__getitem__, chosen))


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


@dataclass(frozen=True)
class PropertyVerdict:
    prop: RuleProperty
    holds: bool
    witness_sets: tuple = ()  # the violating set(s), as contract frozensets
    witness_contract: Optional[Contract] = None
    note: str = ""

    def __bool__(self):
        return self.holds


def _holds(prop):
    return PropertyVerdict(prop, True)


def _fails(prop, sets=(), contract=None, note=""):
    return PropertyVerdict(prop, False, tuple(sets), contract, note)


def check_property(
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
