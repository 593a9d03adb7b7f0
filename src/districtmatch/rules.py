"""District admissions rules and exhaustive property checkers.

A rule is a declarative spec; ``choose`` evaluates it on a set of contracts.
Property checks enumerate the rule's exact quantifier domain (all subsets of
the district's contracts, or only those feasible for students) and return
the first violation in a canonical order: smallest witness set first, ties
broken lexicographically by sorted contract indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Optional

from .errors import (
    NoCompletionConstruction,
    UniverseTooLarge,
    UnknownContract,
    ValidationError,
)
from .model import Contract, Matching, Problem, built_once


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

    ``compiled`` builds the spec's ``CompiledRule`` once, at the first
    ``choose``, and keeps it in the instance ``__dict__``, outside the fields,
    so it is freed with the spec and ``dataclasses.replace`` starts afresh.
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
    """Build a RuleSpec from plain mappings.  Given the problem, it raises a
    ``ValidationError`` listing every breach of ``rule_issues``."""
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
        issues = rule_issues(spec, problem)
        if issues:
            raise ValidationError(issues)
    return spec


def rule_issues(rule: RuleSpec, problem: Problem) -> list:
    """The rule's breaches of the invariants that need the problem, as
    ``ValidationError`` issues: a spec kind's ``school_order`` covers its
    district exactly, each of its schools has a priority list, each list
    ranks every student once, and reserves fit capacities and ceilings."""
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        return []
    where = f"rule for district {problem.district_ids[rule.district]}"
    school, type_ = problem.school_ids, problem.type_ids
    issues = []
    if sorted(rule.school_order) != list(problem.district_schools[rule.district]):
        issues.append("school_order must cover exactly its district's schools")
    issues += [f"no priority list for school {school[c]}" for c in _unranked(rule)]
    everyone = list(range(problem.num_students))
    issues += [
        f"priority at school {school[c]} does not rank every student once"
        for c, order in rule.priorities
        if sorted(order) != everyone
    ]
    if rule.kind is RuleKind.RESERVES_AND_CEILINGS:
        reserved, ceilings = Counter(), _lookup(rule.ceilings)
        for (c, t), v in rule.reserves:
            reserved[c] += v
            if v > ceilings.get((c, t), v):
                issues.append(
                    f"reserve for type {type_[t]} exceeds its ceiling at school {school[c]}"
                )
        issues += [
            f"reserves at school {school[c]} exceed capacity"
            for c, v in reserved.items()
            if v > problem.capacities[c]
        ]
    return [("InvalidRule", f"{where}: {issue}") for issue in issues]


def _unranked(rule: RuleSpec) -> list:
    """The schools of the rule's ``school_order`` without a priority list."""
    ranked = {c for c, _ in rule.priorities}
    return [c for c in rule.school_order if c not in ranked]


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


class CompiledRule:
    """A rule spec indexed for evaluation on one problem structure.

    Every contract the rule ranks has an integer key: its school's position
    in ``school_order`` times ``stride``, plus its rank in that school's
    priority (initial students already lifted first for initial-respecting
    rules).  Sorting a pool's keys therefore orders it school by school, and
    each school by priority.  ``key_of`` holds only well-formed contracts of
    the rule's district, so a hit there also validates the contract.

    ``memo`` maps a bitmask over the district's contracts (the student-major
    universe of ``Chooser``) to the mask the rule chooses from it.  The
    universe and the choice depend only on the basis, so every ``Chooser``
    of the rule shares it until the rule meets a differently shaped problem.
    """

    # the problem fields a compiled rule and its choice memo depend on; they
    # leave out preferences, so misreport variants share one compiled rule
    basis_of = attrgetter(
        "student_type", "initial_school", "school_district", "district_schools",
        "capacities", "k_district",
    )

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.memo = {}
        self.table = {}
        self.key_of = {}
        self.missing = None
        if rule.kind is RuleKind.EXPLICIT_TABLE:
            self.table = _lookup(rule.table)
            return
        priorities = _lookup(rule.priorities)
        unranked = _unranked(rule)
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
    return built_once(rule, problem, CompiledRule)


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
    return frozenset(map(comp.contract_at.__getitem__, _chosen_keys(rule, comp, keys)))


def _chosen_keys(rule: RuleSpec, comp: CompiledRule, keys):
    """The keys a spec rule chooses from ``keys``, which are sorted and
    distinct."""
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


def _choose_sequential(comp: CompiledRule, keys, completed) -> list:
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
    return chosen


def _choose_reserves(comp: CompiledRule, keys, completed) -> set:
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
    return chosen


def _cutoff(taken, room):
    """The key a new contract must beat to join ``taken``, sorted keys that
    all got one of ``room`` seats: any key while a seat is free, none when
    there is no seat."""
    if len(taken) < room:
        return math.inf
    return taken[-1] if taken else -1


class Cutoffs:
    """Whether a rule that chooses all of ``X`` would also choose one more
    contract of its district: the blocking tests of ``is_stable``.

    ``holds`` tells whether the rule chooses all of ``X``.  If a spec rule
    that is not a completion does, ``X`` repeats no student, and a candidate
    x changes nothing before its turn: phase 1 up to its type's reserve at
    its school, and phase 2 before its school (sequential kinds are phase 2
    alone).  So x is chosen exactly when its key beats the cut-off
    (``_cutoff``) of that reserve, or else those of an open seat and of its
    type's ceiling at its school; unless its student's contract y in ``X``
    is taken first: in phase 1 at an earlier school or, once x misses the
    reserve, anywhere but in phase 2 at a later school.

    Completions insert x's key into the sorted keys and choose again;
    explicit tables and contracts the rule cannot rank go through ``choose``.
    """

    def __init__(self, rule: RuleSpec, X: Matching, problem: Problem):
        self.rule, self.X, self.problem = rule, X, problem
        self.comp = comp = compiled(rule, problem)
        self.keys = keys = None
        if rule.kind is not RuleKind.EXPLICIT_TABLE and comp.missing is None:
            keys = list(map(comp.key_of.get, X))
        if keys is None or None in keys:
            self.holds = choose(rule, X, problem) == X
            return
        keys.sort()
        self.keys = keys
        self.holds = len(_chosen_keys(rule, comp, keys)) == len(keys)
        if self.holds and not rule.completed:
            self._replay(_school_pools(comp, keys))

    def _replay(self, pools):
        """Record the cut-offs of the choice from ``pools``, which takes
        every pool in full."""
        comp, type_at, capacity = self.comp, self.comp.type_at, self.comp.capacity
        two_phase = self.rule.kind is RuleKind.RESERVES_AND_CEILINGS
        self.held = {comp.student_at[k]: k for pool in pools for k in pool}
        self.reserve_cut = {}  # (position, type) -> cut-off of the reserve
        self.reserved = set()  # keys that took a reserve seat
        loads = []  # per position: reserve seats taken, per type
        for pos, pool in enumerate(pools):
            load = Counter()
            for t, target in comp.reserves[pos] if two_phase else ():
                of_type = [k for k in pool if type_at[k] == t]
                room = min(target, capacity[pos] - sum(load.values()))
                picks = of_type[load[t] : load[t] + max(room, 0)]
                # a type named twice in the type order picks again, later keys
                cut = self.reserve_cut.get((pos, t), -1)
                self.reserve_cut[pos, t] = max(cut, _cutoff(picks, room))
                load[t] += len(picks)
                self.reserved.update(picks)
            loads.append(load)
        self.open_cut = []  # per position: cut-off of an open seat
        self.ceiling_cut = {}  # (position, type) -> cut-off under the ceiling
        admitted = len(self.reserved)
        for pos, pool in enumerate(pools):
            open_keys = [k for k in pool if k not in self.reserved]
            room = capacity[pos] - sum(loads[pos].values())
            if comp.cap is not None:
                room = min(room, comp.cap - admitted)
            self.open_cut.append(_cutoff(open_keys, room))
            admitted += len(open_keys)
            for t, q in comp.ceilings[pos].items() if two_phase else ():
                of_type = [k for k in open_keys if type_at[k] == t]
                self.ceiling_cut[pos, t] = _cutoff(of_type, q - loads[pos][t])

    def chooses(self, x: Contract) -> bool:
        """Whether the rule chooses ``x``, a contract of its district not in
        ``X``, from ``X | {x}``.  Only asked when ``holds``."""
        comp = self.comp
        key = comp.key_of.get(x)
        if self.keys is None or key is None:
            return x in choose(self.rule, self.X | {x}, self.problem)
        if self.rule.completed:
            keys = self.keys.copy()
            insort(keys, key)
            return key in _chosen_keys(self.rule, comp, keys)
        pos, t = key // comp.stride, comp.type_at[key]
        y = self.held.get(comp.student_at[key])
        before = y is not None and y // comp.stride < pos
        if before and y in self.reserved:
            return False
        if key < self.reserve_cut.get((pos, t), -1):
            return True
        if y is not None and (before or y in self.reserved):
            return False
        return key < self.open_cut[pos] and key < self.ceiling_cut.get((pos, t), math.inf)


class Chooser:
    """Memoized evaluator of one rule over its district's contract universe.

    Sets of contracts are encoded as bitmasks over the universe (student-major
    order), which keeps exhaustive property checks cheap.  The memo is the
    ``CompiledRule``'s, shared by every check of the rule.  Spec rules choose
    on the keys of a mask's contracts; explicit tables, and masks holding a
    contract the rule cannot rank, go through ``choose`` on the set.
    """

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.rule = rule
        self.problem = problem
        self._comp = comp = compiled(rule, problem)
        self._cache = comp.memo
        self.universe = tuple(problem.district_contracts(rule.district))
        self.index = {x: i for i, x in enumerate(self.universe)}
        self._bit_key = None
        if rule.kind is not RuleKind.EXPLICIT_TABLE and comp.missing is None:
            self._bit_key = [comp.key_of.get(x) for x in self.universe]
            self._key_bit = {k: 1 << i for i, k in enumerate(self._bit_key)}
        self.student_bits = self.bits_by(lambda problem, x: x.student)

    def bits_by(self, key_of) -> dict:
        """``key_of(problem, x)`` -> the mask of the universe's contracts
        with that key, keys in universe order."""
        bits = {}
        for i, x in enumerate(self.universe):
            key = key_of(self.problem, x)
            bits[key] = bits.get(key, 0) | 1 << i
        return bits

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
            bit_key = self._bit_key
            keys = [] if bit_key is None else [
                bit_key[i] for i in range(len(bit_key)) if mask >> i & 1
            ]
            if bit_key is None or None in keys:
                got = self.mask_of(choose(self.rule, self.set_of(mask), self.problem))
            else:
                keys.sort()
                got = 0
                for k in _chosen_keys(self.rule, self._comp, keys):
                    got |= self._key_bit[k]
            self._cache[mask] = got
        return got

    def choose(self, X) -> Matching:
        return self.set_of(self.choose_mask(self.mask_of(X)))

    def repeats_student(self, mask: int) -> bool:
        """Whether the set holds two contracts of one student."""
        for bits in self.student_bits.values():
            mine = mask & bits
            if mine & (mine - 1):
                return True
        return False

    def feasible_for_students_masks(self):
        """Masks of every subset with at most one contract per student,
        in (size, lexicographic) order."""
        # Sorted as one integer: size, then the complement of the bit-reversed
        # mask (of two sets of one size, the one holding the smallest index
        # they differ in comes first), then the mask.  Adding bit i adds a
        # fixed delta to each part without a carry.
        n = len(self.universe)
        full = (1 << n) - 1
        entries = [full << n]
        for bits in self.student_bits.values():
            deltas = [0] + [
                (1 << 2 * n) - (1 << 2 * n - 1 - i) + (1 << i)
                for i in range(n)
                if bits >> i & 1
            ]
            entries = [e + d for e in entries for d in deltas]
        entries.sort()
        return [e & full for e in entries]

    def all_masks(self):
        """Masks of every subset, in (size, lexicographic) order."""
        bits = [1 << i for i in range(len(self.universe))]
        return [
            sum(combo)
            for k in range(len(bits) + 1)
            for combo in itertools.combinations(bits, k)
        ]


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
        size = math.prod(bits.bit_count() + 1 for bits in chooser.student_bits.values())
        if size > feasible_bound:
            raise UniverseTooLarge(size, feasible_bound)
        masks = chooser.feasible_for_students_masks()

    checker = _PROPERTY_CHECKS[prop]
    return checker(chooser, masks, problem, base_rule)


def _lowest(mask: int) -> int:
    """The index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _school(problem, x):
    return x.school


def _school_type(problem, x):
    return (x.school, problem.student_type[x.student])


def _student_type(problem, x):
    return problem.student_type[x.student]


def _check_feasible(chooser, masks, problem, _):
    school_bits = chooser.bits_by(_school)
    passed = set()  # chosen masks already found feasible
    for m in masks:
        ch = chooser.choose_mask(m)
        if ch in passed:
            continue
        if chooser.repeats_student(ch):
            return _fails(
                RuleProperty.FEASIBLE,
                [chooser.set_of(m)],
                note="chosen set repeats a student",
            )
        # of the schools over capacity, the one a chosen contract meets first
        over = [
            (_lowest(ch & bits), c)
            for c, bits in school_bits.items()
            if (ch & bits).bit_count() > problem.capacities[c]
        ]
        if over:
            return _fails(
                RuleProperty.FEASIBLE,
                [chooser.set_of(m)],
                note=f"school {problem.school_ids[min(over)[1]]} over capacity",
            )
        passed.add(ch)
    return _holds(RuleProperty.FEASIBLE)


def _rejections_check(prop, note, ceilings_of=None, key_of=None):
    """A checker that fails on the first rejected contract with no licensed
    reason: its school has a free seat, the district is below its home
    count, and the rule's ceiling for the contract's ``key_of`` (if
    ``ceilings_of(rule)`` has one) does not bind either."""

    def check(chooser, masks, problem, _):
        k_d = problem.k_district[chooser.rule.district]
        school_bits = chooser.bits_by(_school)
        ceilings = _lookup(ceilings_of(chooser.rule)) if ceilings_of else {}
        counted = chooser.bits_by(key_of) if key_of else {}
        # per contract: (mask, bound) pairs, each slack while the chosen
        # contracts in the mask number fewer than the bound
        limits = []
        for x in chooser.universe:
            limit = [(school_bits[x.school], problem.capacities[x.school])]
            key = key_of and key_of(problem, x)
            if key in ceilings:
                limit.append((counted[key], ceilings[key]))
            limits.append(limit)
        for m in masks:
            ch = chooser.choose_mask(m)
            if ch.bit_count() >= k_d:
                continue
            rejected = m & ~ch
            while rejected:
                i = _lowest(rejected)
                if all((ch & bits).bit_count() < q for bits, q in limits[i]):
                    return _fails(prop, [chooser.set_of(m)], chooser.universe[i], note=note)
                rejected &= rejected - 1
        return _holds(prop)

    return check


_check_acceptant = _rejections_check(
    RuleProperty.ACCEPTANT, "rejected with school and district both slack"
)
_check_weakly_acceptant = _rejections_check(
    RuleProperty.WEAKLY_ACCEPTANT,
    "rejected with school, district, and type ceiling slack",
    lambda rule: rule.ceilings,
    _school_type,
)
_check_d_weakly_acceptant = _rejections_check(
    RuleProperty.D_WEAKLY_ACCEPTANT,
    "rejected with school, district, and district-type ceiling slack",
    lambda rule: rule.district_ceilings,
    _student_type,
)


def _check_rationed(chooser, masks, problem, _):
    k_d = problem.k_district[chooser.rule.district]
    for m in masks:
        ch = chooser.choose_mask(m)
        if ch.bit_count() > k_d:
            return _fails(
                RuleProperty.RATIONED,
                [chooser.set_of(m)],
                note=f"chose {ch.bit_count()} contracts, home count is {k_d}",
            )
    return _holds(RuleProperty.RATIONED)


def _check_respects_initial(chooser, masks, problem, _):
    initial = 0
    for i, x in enumerate(chooser.universe):
        if problem.initial_school[x.student] == x.school:
            initial |= 1 << i
    for m in masks:
        if m & initial:
            dropped = m & initial & ~chooser.choose_mask(m)
            if dropped:
                return _fails(
                    RuleProperty.RESPECTS_INITIAL_MATCHING,
                    [chooser.set_of(m)],
                    chooser.universe[_lowest(dropped)],
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
            return _fails(
                RuleProperty.FAVORS_OWN_STUDENTS,
                [chooser.set_of(m), chooser.set_of(sub)],
                chooser.universe[_lowest(missing)],
                note="own student chosen alone but dropped with outsiders present",
            )
    return _holds(RuleProperty.FAVORS_OWN_STUDENTS)


def _ceilings_check(prop, ceilings_of, key_of, note_of):
    """A checker that fails on the first chosen set in which the head count
    of some ``key_of(problem, y)`` exceeds the rule's ceiling for it."""

    def check(chooser, masks, problem, _):
        ceilings = _lookup(ceilings_of(chooser.rule))
        limits = [
            (bits, max(ceilings[key], 0))
            for key, bits in chooser.bits_by(key_of).items()
            if key in ceilings
        ]
        for m in masks:
            ch = chooser.choose_mask(m)
            if any((ch & bits).bit_count() > q for bits, q in limits):
                # name the key the chosen set's own iteration counts first
                counts = Counter(key_of(problem, y) for y in chooser.set_of(ch))
                key = next(k for k, n in counts.items() if n > ceilings.get(k, n))
                return _fails(prop, [chooser.set_of(m)], note=note_of(problem, key))
        return _holds(prop)

    return check


_check_school_ceilings = _ceilings_check(
    RuleProperty.SCHOOL_CEILINGS,
    lambda rule: rule.ceilings,
    _school_type,
    lambda problem, key: f"type ceiling exceeded at school {problem.school_ids[key[0]]}",
)
_check_district_ceilings = _ceilings_check(
    RuleProperty.DISTRICT_CEILINGS,
    lambda rule: rule.district_ceilings,
    _student_type,
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
                    return _fails(
                        prop,
                        [chooser.set_of(smaller), chooser.set_of(m)],
                        chooser.universe[_lowest(lost)],
                        note="chosen from the larger set, dropped from the smaller",
                    )
    return _holds(prop)


_check_weakly_substitutable = functools.partial(
    _check_substitutable, prop=RuleProperty.WEAKLY_SUBSTITUTABLE
)


def _check_lad(chooser, masks, problem, _):
    for m in masks:
        n_ch = chooser.choose_mask(m).bit_count()
        for i in range(len(chooser.universe)):
            if m >> i & 1:
                smaller = m & ~(1 << i)
                if chooser.choose_mask(smaller).bit_count() > n_ch:
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
    for check in (_check_substitutable, _check_irc):
        v = check(chooser, masks, problem, None)
        if not v.holds:
            return _fails(
                RuleProperty.PATH_INDEPENDENT, v.witness_sets, v.witness_contract, v.note
            )
    return _holds(RuleProperty.PATH_INDEPENDENT)


def _check_is_completion_of(chooser, masks, problem, base_rule):
    base = Chooser(base_rule, problem)
    for m in masks:
        ch = chooser.choose_mask(m)
        if not chooser.repeats_student(ch):  # feasible for students
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
    schools = range(problem.num_schools)
    district = problem.school_district
    # bit[t][c]: the bit of contract (t, c) in its district's universe
    bit = [
        [1 << choosers[district[c]].index[problem.contract(t, c)] for c in schools]
        for t in range(problem.num_students)
    ]
    for s in range(problem.num_students):
        others = [t for t in range(problem.num_students) if t != s]
        for combo in itertools.product([*schools, None], repeat=len(others)):
            load = [0] * problem.num_schools
            held = [0] * problem.num_districts  # the others' contracts, per district
            for t, c in zip(others, combo):
                if c is not None:
                    load[c] += 1
                    held[district[c]] |= bit[t][c]
            if any(load[c] > problem.capacities[c] for c in schools):
                continue
            if not any(
                choosers[district[c]].choose_mask(held[district[c]] | bit[s][c]) & bit[s][c]
                for c in schools
            ):
                X = frozenset(
                    problem.contract(t, c) for t, c in zip(others, combo) if c is not None
                )
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
