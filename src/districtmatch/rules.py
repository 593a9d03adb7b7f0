"""District admissions rules and exhaustive property checkers.

A rule is a declarative spec; ``choose`` evaluates it on a set of contracts.
Property checks enumerate the rule's exact quantifier domain (all subsets of
the district's contracts, or only those feasible for students) and return
the first violation in a canonical order: smallest witness set first, ties
broken lexicographically by sorted contract indices.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Optional

from .errors import (
    NoCompletionConstruction,
    RuleViolation,
    UniverseTooLarge,
    UnknownContract,
    ValidationError,
)
from .model import Contract, Matching, Problem, built_once, enumerate_matchings, order_positions


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
    ranks every student once, reserves fit capacities and ceilings, no
    count (reserve, ceiling, district ceiling, district cap) is negative,
    and each table entry chooses within its set."""
    where = f"rule for district {problem.district_ids[rule.district]}"
    school, type_ = problem.school_ids, problem.type_ids
    counts = [
        (f"{name} for type {type_[t]} at school {school[c]}", v)
        for name, pairs in (("reserve", rule.reserves), ("ceiling", rule.ceilings))
        for (c, t), v in pairs
    ]
    counts += [(f"district ceiling for type {type_[t]}", v) for t, v in rule.district_ceilings]
    counts.append(("district_cap", rule.district_cap or 0))
    issues = [f"{label} is negative" for label, v in counts if v < 0]
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        issues += [
            f"table entry {i} chooses outside its set"
            for i, (key, value) in enumerate(rule.table, 1)
            if not value <= key
        ]
        return [("InvalidRule", f"{where}: {issue}") for issue in issues]
    if sorted(rule.school_order) != list(problem.district_schools[rule.district]):
        issues.append("school_order must cover exactly its district's schools")
    issues += [f"no priority list for school {school[c]}" for c in _unranked(rule)]
    issues += [
        f"priority at school {school[c]} does not rank every student once"
        for c, order in rule.priorities
        if order_positions(order, problem.num_students) is None
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


def require_rules(problem: Problem, rules) -> None:
    """Raise ``RuleViolation`` for the first district without a rule in
    ``rules`` (district index -> RuleSpec)."""
    for d in range(problem.num_districts):
        if d not in rules:
            raise RuleViolation(f"district {problem.district_ids[d]} has no rule")


def _unranked(rule: RuleSpec) -> list:
    """The schools of the rule's ``school_order`` without a priority list."""
    ranked = {c for c, _ in rule.priorities}
    return [c for c in rule.school_order if c not in ranked]


def _lift(order, n: int, pred) -> tuple:
    """A stable partition of a priority ``order``: the students ``s`` with
    ``pred(s)`` first.  Entries that name no student (out of ``range(n)``)
    stay among the rest, in their order, for the compiled rule to skip."""
    first, rest = [], []
    for s in order:
        (first if 0 <= s < n and pred(s) else rest).append(s)
    return tuple(first + rest)


def favor_own_students(rule: RuleSpec, problem: Problem) -> RuleSpec:
    """Lift each school's own-district students above all others.

    Produces a sequential-responsive rule that favors own students.  Entries
    that name no student stay among the others (``_lift``).
    """
    n, home, d = problem.num_students, problem.student_district, rule.district
    priorities = [(c, _lift(order, n, lambda s: home[s] == d)) for c, order in rule.priorities]
    return replace(rule, kind=RuleKind.SEQUENTIAL_RESPONSIVE, priorities=tuple(priorities))


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
    each school by priority.  ``key_at[pos][s]`` is student ``s``'s key at
    the school in position ``pos`` (``pos_of``), None where the school does
    not rank the student; ``student_at`` and ``type_at`` map keys back.
    ``key`` finds a contract's key there and holds out malformed contracts;
    ``contract`` builds the contract of a key.  A school without a priority
    list raises ``UnknownContract`` here.

    ``chooser`` is the rule's ``Chooser``, built by the first ``chooser_of``.
    Its masks and its memo depend only on the basis, so every check of the
    rule shares them until the rule meets a differently shaped problem.
    """

    # the problem fields a compiled rule and its choice memo depend on; they
    # leave out preferences, so misreport variants share one compiled rule
    basis_of = attrgetter(
        "student_type", "initial_school", "school_district", "district_schools",
        "capacities", "k_district",
    )

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.chooser = None
        self.table = {}
        self.key_at, self.pos_of = [], {}  # per position; a table ranks no contract
        if rule.kind is RuleKind.EXPLICIT_TABLE:
            self.table = _lookup(rule.table)
            return
        priorities = _lookup(rule.priorities)
        unranked = _unranked(rule)
        if unranked:
            raise UnknownContract(f"no priority order for school index {unranked[0]}")
        n = problem.num_students
        orders = [priorities[c] for c in rule.school_order]
        if rule.kind is RuleKind.INITIAL_RESPECTING:
            initial = problem.initial_school  # each school's initial students first
            orders = [
                _lift(order, n, lambda s, c=c: initial[s] == c)
                for c, order in zip(rule.school_order, orders)
            ]
        self.school_order = rule.school_order
        self.pos_of = {c: pos for pos, c in enumerate(rule.school_order)}
        self.district_at = [problem.school_district[c] for c in rule.school_order]
        self.stride = stride = max([1] + [len(order) for order in orders])
        self.student_at = student_at = [None] * (stride * len(orders))
        for pos, order in enumerate(orders):
            keys = [None] * n
            for key, s in enumerate(order, pos * stride):
                if 0 <= s < n:
                    keys[s] = key
                    student_at[key] = s
            self.key_at.append(keys)
        student_type = problem.student_type
        self.type_at = [None if s is None else student_type[s] for s in student_at]
        self.capacity = [problem.capacities[c] for c in rule.school_order]
        self.cap = rule.district_cap
        if self.cap is None and rule.kind in (
            RuleKind.RATIONED_SEQUENTIAL,
            RuleKind.RESERVES_AND_CEILINGS,
        ):
            self.cap = problem.k_district[rule.district]
        # per position; a sequential kind has none, though ``favor_own_students``
        # keeps a reserves rule's maps in its spec
        self.reserves, self.ceilings = [()] * len(orders), [{}] * len(orders)
        if rule.kind is RuleKind.RESERVES_AND_CEILINGS:
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

    def key(self, x: Contract) -> Optional[int]:
        """``x``'s key, or None if the rule does not rank it."""
        pos = self.pos_of.get(x.school)
        if pos is None or x.district != self.district_at[pos]:
            return None
        keys = self.key_at[pos]
        return keys[x.student] if 0 <= x.student < len(keys) else None

    def contract(self, key: int) -> Contract:
        """The contract whose key ``key`` is."""
        pos = key // self.stride
        return Contract(self.student_at[key], self.district_at[pos], self.school_order[pos])


def compiled(rule: RuleSpec, problem: Problem) -> CompiledRule:
    """The rule's compiled form for the problem's structure, built once and
    kept on the rule until it is used with a differently shaped problem."""
    return built_once(rule, problem, CompiledRule)


class HeldSeats:
    """What deferred acceptance holds at a spec-rule district: per school
    position, the rule's keys (``CompiledRule``) in reserve seats
    (``reserved``) and the rest in priority order (``eligible``), at most
    one key per student (``chosen``, their contracts); and ``new``, the
    (student, school) pairs proposed to it in this step, which ``choose``
    takes in.

    With one key per student no pick at one school takes a key out at
    another, so a school's picks depend on its own keys alone, and a step
    changes a school's picks only where keys arrived.  A school with
    reserves or ceilings also keeps its keys by type from step to step
    (``typed``, type -> sorted keys; None elsewhere) with its reserve picks
    per type (``loads``): a type's picks are the first ``loads[t]`` keys of
    its list, and its keys past both that load and its ceiling, a suffix,
    are turned down.  A new key can change the picks only if it beats a
    pick of its type or every key of its type is picked.  Then the first
    ``room`` eligible keys keep the open seats and the rest are turned down,
    where ``room`` is the school's capacity less its reserve picks, and at
    most the district cap less every reserve pick and the open picks at
    earlier schools.  So under a cap every school's room is walked again;
    without one a school that got no keys keeps what it holds.  What is
    left is what a fresh walk on it keeps (``_chosen_keys``).
    """

    __slots__ = ("comp", "reserved", "eligible", "typed", "loads", "new")

    def __init__(self, rule: RuleSpec, problem: Problem):
        self.comp = comp = compiled(rule, problem)
        self.reserved = [[] for _ in comp.capacity]
        self.eligible = [[] for _ in comp.capacity]
        types = range(problem.num_types)
        self.typed = [  # also any type a reserve names that no student has
            {t: [] for t in itertools.chain(types, dict(reserve))} if reserve or ceiling else None
            for reserve, ceiling in zip(comp.reserves, comp.ceilings)
        ]
        self.loads = [typed and dict.fromkeys(typed, 0) for typed in self.typed]
        self.new = []

    def chosen(self) -> list:
        """The contracts it holds."""
        return [self.comp.contract(k) for keys in self.reserved + self.eligible for k in keys]

    def _refill(self, pos: int, keys: list) -> list:
        """Add ``keys`` at school ``pos`` to its type lists and its eligible
        keys; if one may change a reserve pick, pick the reserves afresh and
        move the keys that changed seats.  Cut and return the keys over a
        ceiling."""
        comp, typed, load = self.comp, self.typed[pos], self.loads[pos]
        type_at, eligible, repick = comp.type_at, self.eligible[pos], False
        for k in keys:
            t = type_at[k]
            of_type, got = typed[t], load[t]
            i = bisect.bisect_left(of_type, k)
            # it beats a pick of its type, or every key of its type is picked
            repick = repick or i < got or len(of_type) == got
            of_type.insert(i, k)
            bisect.insort(eligible, k)
        if repick:
            was, room, picked = self.reserved[pos], comp.capacity[pos], []
            load = self.loads[pos] = dict.fromkeys(typed, 0)
            for t, target in comp.reserves[pos]:
                got = load[t]  # a type named twice in the type order picks again
                picks = typed[t][got : got + max(min(target, room - len(picked)), 0)]
                load[t] = got + len(picks)
                picked += picks
            if picked != was:  # move the keys that changed seats
                for k in set(was).difference(picked):
                    bisect.insort(eligible, k)
                for k in set(picked).difference(was):
                    del eligible[bisect.bisect_left(eligible, k)]
                self.reserved[pos] = picked
        over = []
        for t, q in comp.ceilings[pos].items():
            of_type, q = typed[t], max(q, load[t])
            if len(of_type) > q:
                over += of_type[q:]
                del of_type[q:]
        for k in over:
            del eligible[bisect.bisect_left(eligible, k)]
        return over

    def _choose(self, district: int, problem: Problem) -> list:
        """Take in ``new`` and return the pairs turned down.  A proposal the
        rule does not rank is turned down if it is another district's; one
        of ``district``, the rule's own, raises ``unranked_error``."""
        comp = self.comp
        # as ``CompiledRule.key``, whose district check a proposal always passes
        pos_of, key_at = comp.pos_of, comp.key_at
        arrived, unranked = {}, []  # position -> its new keys; proposals without one
        for s, c in self.new:
            pos = pos_of.get(c)
            k = None if pos is None else key_at[pos][s]
            if k is None:
                unranked.append((s, c))
            else:
                arrived.setdefault(pos, []).append(k)
        self.new = []
        own = [x for x in itertools.starmap(problem.contract, unranked) if x.district == district]
        if own:
            raise unranked_error(own)
        rejected = []
        for pos, keys in arrived.items():
            if self.typed[pos] is not None:
                rejected += self._refill(pos, keys)
            else:  # nothing reserved, nothing over a ceiling
                self.eligible[pos] = sorted(self.eligible[pos] + keys)
        capacity, reserved, type_at = comp.capacity, self.reserved, comp.type_at
        if comp.cap is None:
            walk, left = arrived, math.inf
        else:
            walk, left = range(len(capacity)), comp.cap - sum(map(len, reserved))
        for pos in walk:
            eligible = self.eligible[pos]
            room = max(min(capacity[pos] - len(reserved[pos]), left), 0)
            if len(eligible) > room:
                cut = eligible[room:]
                rejected += cut
                del eligible[room:]
                typed = self.typed[pos]
                if typed is not None:  # each type's cut keys end its list
                    for k in reversed(cut):
                        typed[type_at[k]].pop()
            left -= len(eligible)
        student_at, school_order, stride = comp.student_at, comp.school_order, comp.stride
        return unranked + [(student_at[k], school_order[k // stride]) for k in rejected]


def unranked_error(unranked) -> UnknownContract:
    """The error for contracts of a spec rule's district that the rule does
    not rank.  It names the least of them, whatever order they come in."""
    return UnknownContract(f"contract {min(unranked)} is outside the rule's priorities")


def choose(rule: RuleSpec, X, problem: Problem) -> Matching:
    """Evaluate the rule: the chosen subset of X's contracts for this district.

    For a spec rule, ``X`` may instead be what deferred acceptance holds at
    the district, a ``HeldSeats``.  The rule then chooses from its held
    keys and the pairs in its ``new`` list, re-picking only the schools
    that got new ones; ``X`` keeps the choice, and ``choose`` returns the
    pairs turned down.  Any other iterable is read as contracts.
    """
    if isinstance(X, HeldSeats):
        return X._choose(rule.district, problem)
    comp = compiled(rule, problem)
    key = comp.key
    keys = set(map(key, X))
    unranked = []  # well-formed contracts of the district that have no key
    if None in keys:
        keys.discard(None)
        for x in X:
            if key(x) is not None:
                continue
            if not (0 <= x.student < problem.num_students) or not (
                0 <= x.school < problem.num_schools
            ):
                raise UnknownContract(f"contract {x} references undeclared entities")
            if x.district != problem.school_district[x.school]:
                raise UnknownContract(f"contract {x} has district != d(school)")
            if x.district == rule.district:
                unranked.append(x)
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        chosen = comp.table.get(frozenset(unranked))
        if chosen is None:
            raise UnknownContract("set outside the explicit table's declared universe")
        return chosen
    if unranked:
        raise unranked_error(unranked)
    return frozenset(map(comp.contract, _chosen_keys(rule, comp, sorted(keys))))


def _reserve_picks(comp: CompiledRule, pos: int, pool: list, cuts=None):
    """The keys of sorted ``pool`` in school ``pos``'s reserve seats, and
    their count per type; ``cuts`` records each reserve's ``_cutoff``."""
    type_at, picked, load = comp.type_at, [], {}
    for t, target in comp.reserves[pos]:
        room = min(target, comp.capacity[pos] - len(picked))
        # a type named twice in the type order picks again, later keys
        got = load.get(t, 0)
        picks = [k for k in pool if type_at[k] == t][got : got + max(room, 0)]
        if cuts is not None:
            cut = cuts.reserve_cut.get((pos, t), -1)
            cuts.reserve_cut[pos, t] = max(cut, _cutoff(picks, room))
        load[t] = got + len(picks)
        picked += picks
    return picked, load


def _over_ceilings(comp: CompiledRule, pos: int, pool: list, load: dict, cuts=None) -> list:
    """The keys of sorted ``pool`` over their type's ceiling at school ``pos``
    less its reserve ``load``; ``cuts`` records each ceiling's ``_cutoff``."""
    type_at, over = comp.type_at, []
    for t, q in comp.ceilings[pos].items():
        of_type = [k for k in pool if type_at[k] == t]
        q -= load.get(t, 0)
        if cuts is not None:
            cuts.ceiling_cut[pos, t] = _cutoff(of_type, q)
        over += of_type[max(q, 0) :]
    return over


def _chosen_keys(rule: RuleSpec, comp: CompiledRule, keys, cuts=None) -> list:
    """The keys a spec rule chooses from ``keys``, which are sorted and
    distinct.

    Reserve seats fill first, school by school (``_reserve_picks``).  Then
    each school's open seats, under the district cap, go to the first free
    keys of its pool within their type's remaining ceiling
    (``_over_ceilings``; loads only grow, so a type at its ceiling gets no
    later open seat there).  A key is free while its student holds no
    chosen key (for a completion, while the key is not chosen).  ``cuts``,
    a ``Cutoffs``, records each seat group's ``_cutoff`` as it fills.
    """
    student_at, capacity, cap, stride = comp.student_at, comp.capacity, comp.cap, comp.stride
    repeats = not rule.completed and len(
        set(map(student_at.__getitem__, keys))
    ) < len(keys)
    pools = [[] for _ in capacity]  # per position: its keys, in priority order
    for k in keys:
        pools[k // stride].append(k)
    chosen = []
    taken = set()  # chosen students, tracked only when some repeat
    reserved = [()] * len(pools)  # per position: keys that took a reserve seat
    loads = [{}] * len(pools)  # per position: reserve seats taken, per type
    for pos, pool in enumerate(pools):
        if repeats:
            pool = [k for k in pool if student_at[k] not in taken]
        picked, loads[pos] = _reserve_picks(comp, pos, pool, cuts)
        reserved[pos] = set(picked)
        chosen += picked
        if repeats:
            taken.update(map(student_at.__getitem__, picked))
    if cuts is not None:
        cuts.reserved.update(chosen)
    for pos, pool in enumerate(pools):
        room = capacity[pos] - len(reserved[pos])
        if cap is not None:
            room = min(room, cap - len(chosen))
        if room <= 0:
            continue
        if repeats:
            pool = [k for k in pool if student_at[k] not in taken]
        elif reserved[pos]:
            pool = [k for k in pool if k not in reserved[pos]]
        if cuts is not None:
            cuts.open_cut[pos] = _cutoff(pool, room)
        over = set(_over_ceilings(comp, pos, pool, loads[pos], cuts))
        if over:
            pool = [k for k in pool if k not in over]
        picks = pool[:room]
        chosen += picks
        if repeats:
            taken.update(map(student_at.__getitem__, picks))
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
    does, a candidate x changes nothing before its turn: the reserve seats
    up to its type's reserve at its school, and the open seats before its
    school.  So x is chosen exactly when its key beats the cut-off
    (``_cutoff``) of that reserve, or else those of an open seat and of its
    type's ceiling at its school; unless its student's one contract y in
    ``X`` is taken first: in a reserve seat at an earlier school or, once x
    misses the reserve, anywhere but in an open seat at a later school.  A
    completion may keep several contracts of a student, but it takes none
    out for another, so for it no y is taken first.  ``_chosen_keys``
    records the cut-offs as it chooses ``X``; a school it skips for want of
    room has no open seat.

    Explicit tables and contracts the rule cannot rank go through ``choose``.
    """

    def __init__(self, rule: RuleSpec, X: Matching, problem: Problem):
        self.rule, self.X, self.problem = rule, X, problem
        self.comp = comp = compiled(rule, problem)
        self.held = None  # student -> key in ``X``; None to ask ``choose``
        keys = None if rule.kind is RuleKind.EXPLICIT_TABLE else list(map(comp.key, X))
        if keys is None or None in keys:
            self.holds = choose(rule, X, problem) == X
            return
        keys.sort()
        self.held = {} if rule.completed else {comp.student_at[k]: k for k in keys}
        self.reserve_cut = {}  # (position, type) -> cut-off of the reserve
        self.reserved = set()  # keys that took a reserve seat
        self.open_cut = {}  # position -> cut-off of an open seat
        self.ceiling_cut = {}  # (position, type) -> cut-off under the ceiling
        self.holds = len(_chosen_keys(rule, comp, keys, self)) == len(keys)

    def chooses(self, student: int, school: int) -> bool:
        """Whether the rule chooses x, the contract of ``student`` at
        ``school`` (not in ``X``), from ``X | {x}``.  Only asked when ``holds``."""
        comp = self.comp
        pos = comp.pos_of.get(school)  # as ``CompiledRule.key``, which x passes
        key = None if self.held is None or pos is None else comp.key_at[pos][student]
        if key is None:
            x = self.problem.contract(student, school)
            return x in choose(self.rule, self.X | {x}, self.problem)
        pos, t = key // comp.stride, comp.type_at[key]
        y = self.held.get(comp.student_at[key])
        before = y is not None and y // comp.stride < pos
        if before and y in self.reserved:
            return False
        if key < self.reserve_cut.get((pos, t), -1):
            return True
        if y is not None and (before or y in self.reserved):
            return False
        open_cut = self.open_cut.get(pos, -1)
        return key < open_cut and key < self.ceiling_cut.get((pos, t), math.inf)


class DistrictSpace:
    """The subsets of one district's contracts as bitmasks, which the rule
    checks and the nonexistence search quantify over.

    Universe bits are student-major (``Problem.district_contracts``).
    ``size`` counts the sets feasible for students (at most one contract
    per student).  ``all_masks`` lists every subset and ``feasible_masks``
    the feasible ones, each in (size, lexicographic) order, built once.
    """

    def __init__(self, problem: Problem, district: int):
        self.universe = universe = tuple(problem.district_contracts(district))
        self.index = {x: i for i, x in enumerate(universe)}
        self.student_bits = self.bits_by(attrgetter("student"))
        self.size = math.prod(bits.bit_count() + 1 for bits in self.student_bits.values())

    def bits_by(self, key) -> dict:
        """``key(x)`` -> the mask of the universe's contracts with that key,
        keys in universe order."""
        bits = {}
        for i, x in enumerate(self.universe):
            k = key(x)
            bits[k] = bits.get(k, 0) | 1 << i
        return bits

    def groups(self, key, bound) -> list:
        """``(value, mask, bound)`` for each ``key(x)`` value, in universe
        order, that ``bound(value)`` bounds (is not None); a negative bound
        admits nothing, as zero does."""
        return [
            (k, bits, max(q, 0))
            for k, bits in self.bits_by(key).items()
            if (q := bound(k)) is not None
        ]

    def mask_of(self, X) -> int:
        m = 0
        for x in X:
            m |= 1 << self.index[x]
        return m

    def set_of(self, mask: int) -> Matching:
        return frozenset(
            self.universe[i] for i in range(len(self.universe)) if mask >> i & 1
        )

    def repeats_student(self, mask: int) -> bool:
        """Whether the set holds two contracts of one student."""
        for bits in self.student_bits.values():
            mine = mask & bits
            if mine & (mine - 1):
                return True
        return False

    @functools.cached_property
    def all_masks(self) -> list:
        bits = [1 << i for i in range(len(self.universe))]
        return [
            sum(combo)
            for k in range(len(bits) + 1)
            for combo in itertools.combinations(bits, k)
        ]

    @functools.cached_property
    def feasible_masks(self) -> list:
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


def saturated(mask: int, groups) -> int:
    """The contracts of every group that ``mask`` fills to its bound or past
    it: the reasons that license rejecting a contract."""
    full = 0
    for _, bits, q in groups:
        if (mask & bits).bit_count() >= q:
            full |= bits
    return full


def _or_table(bit_of: list) -> list:
    """The table from each mask over ``len(bit_of)`` bits to the OR of
    ``bit_of[i]`` over its set bits."""
    table = [0]
    for b in bit_of:
        table += [t | b for t in table]
    return table


def _chunk_tables(bit_of: list) -> list:
    """Per 8-bit chunk of a mask over ``len(bit_of)`` bits, its ``_or_table``."""
    return [_or_table(bit_of[lo : lo + 8]) for lo in range(0, len(bit_of), 8)]


def _translate(tables: list, mask: int) -> int:
    got = 0
    for table in tables:
        got |= table[mask & 255]
        mask >>= 8
    return got


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask`` (none if ``count`` <= 0)."""
    if mask.bit_count() <= count:
        return mask
    low = 0
    for _ in range(count):
        low |= mask & -mask
        mask &= mask - 1
    return low


def _fill(pool: int, room: int, free: int, keep: list):
    """The lowest ``room`` bits of ``pool``, and ``free`` without the keys
    each of them takes out."""
    picks = 0
    while room > 0 and pool:
        b = pool & -pool
        pool ^= b
        picks |= b
        free &= keep[b.bit_length() - 1]
        room -= 1
    return picks, free


class _School:
    """One school position that ranks a contract of ``Chooser``'s universe,
    on its key bits: the school's contracts are the bits ``window``, from
    bit ``off`` on in priority order.  Per contract: ``types``, its
    universe bit (``univ_bits``) and the key bits its pick takes out
    (``kills``: its student's, for a completion its own); ``of_type`` maps
    a type to its key bits here.  Built from the compiled rule, which it
    does not keep."""

    def __init__(self, comp: CompiledRule, pos: int, off: int, run: list, kills: list):
        # ``run``: the (key, universe index) of the school's ranked contracts
        self.off, self.kills = off, kills
        self.window = (1 << len(run)) - 1 << off
        self.types = [comp.type_at[k] for k, _ in run]
        self.univ_bits = [1 << i for _, i in run]
        self.of_type = {}
        for b, t in enumerate(self.types, off):
            self.of_type[t] = self.of_type.get(t, 0) | 1 << b
        self.capacity = comp.capacity[pos]
        self.reserves, self.ceilings = comp.reserves[pos], comp.ceilings[pos]

    def reserve(self, free: int, keep: list):
        """Fill the reserve seats from the ``free`` key bits, type by type
        with the lowest free bits of the type: the picks, and ``free`` less
        what each pick takes out (``keep``).  A type's reserve load is its
        bits among the picks."""
        capacity, of_type, picked = self.capacity, self.of_type, 0
        for t, target in self.reserves:
            room = min(target, capacity - picked.bit_count())
            picks, free = _fill(free & of_type.get(t, 0), room, free, keep)
            picked |= picks
        return picked, free


def _chosen_bits(chooser: Chooser, keys: int) -> int:
    """``_chosen_keys`` on a mask of key bits: the key bits the spec rule
    chooses.

    Reserve seats fill first, school by school (``_School.reserve``); then
    each school's open seats, under the district cap, take the lowest free
    bits of its ``window`` once the keys beyond each type's remaining
    ceiling are cut.  Each pick clears ``keep`` from the free keys.  A
    school position that ranks no contract has no record: it picks nothing.
    """
    schools, cap, keep = chooser.schools, chooser.cap, chooser.keep
    free, chosen = keys, 0
    reserved = [0] * len(schools)  # per school: its reserve picks
    for i, school in enumerate(schools):
        if school.reserves:
            reserved[i], free = school.reserve(free, keep)
            chosen |= reserved[i]
    count = chosen.bit_count()
    for school, picked in zip(schools, reserved):
        room = school.capacity - picked.bit_count()
        if cap is not None:
            room = min(room, cap - count)
        if room <= 0:
            continue
        pool = free & school.window
        for t, q in school.ceilings.items():
            bits = school.of_type.get(t, 0)
            mine = pool & bits
            pool ^= mine ^ _lowest_bits(mine, q - (picked & bits).bit_count())
        picks, free = _fill(pool, room, free, keep)
        chosen |= picks
        count += picks.bit_count()
    return chosen


class _Window:
    """One school of ``Chooser.fill``'s walk: tables over the local masks of
    its ``_School`` record ``school``, where local bit j is key bit
    ``school.off + j``.  ``univ`` maps a local mask to its universe bits,
    and ``keep`` to the key bits left once its contracts are chosen.
    ``reserve`` maps the school's free local bits to its reserve picks
    (``_School.reserve``), their count and the cut table of its ceilings
    less that reserve load (``cut_table``); ``cut`` is the cut table with no
    reserve seat taken.  The tables live while the walk runs."""

    def __init__(self, school: _School, keep: list):
        self.school, self.size, off = school, 1 << len(school.types), school.off
        self.univ, self.keep = _or_table(school.univ_bits), [~k for k in _or_table(school.kills)]
        self.cuts, self.opened = {}, {}  # memos of cut_table and open_table
        self.cut = self.cut_table(0)
        self.reserve = [(0, 0, self.cut)] * self.size  # no reserve seat
        if school.reserves:
            picks = [school.reserve(free << off, keep)[0] for free in range(self.size)]
            self.reserve = [(p >> off, p.bit_count(), self.cut_table(p)) for p in picks]

    def cut_table(self, picked: int) -> list:
        """The table from a local pool to its bits within each type's ceiling
        less the type's reserve ``picked`` key bits: the lowest of each type."""
        school = self.school
        of_type, ceilings = school.of_type, school.ceilings.items()
        limit = {t: q - (picked & of_type.get(t, 0)).bit_count() for t, q in ceilings}
        table = self.cuts.get(key := tuple(limit.values()))
        if table is None:
            table = [0]
            for j, t in enumerate(school.types):
                b, q, mine = 1 << j, limit.get(t), of_type[t] >> school.off
                table += [c | b if q is None or (c & mine).bit_count() < q else c for c in table]
            self.cuts[key] = table
        return table

    def open_table(self, room) -> list:
        """The table from a pool to its open picks with no reserve seat
        taken: the lowest ``room`` bits of its cut."""
        table = self.opened.get(room)
        if table is None:
            low = [0]
            for j in range(len(self.school.types)):
                low += [p | 1 << j if p.bit_count() < room else p for p in low]
            table = self.opened[room] = [low[c] for c in self.cut]
        return table


def _fill_level(walk, pos, mask, alive, chosen, count):
    """``Chooser.fill`` from window ``pos`` on, given the universe ``mask``
    of the earlier windows' contracts, the ``alive`` key bits, the
    universe bits ``chosen`` so far and their ``count``.  For each local
    mask of window ``pos`` the walk takes its reserve seats, then the open
    seats of the windows whose turn it is, and goes on; the last window
    writes each mask's choice to ``table``.  Every reserve seat comes
    before any open seat, so the open seats of the windows up to the last
    one with reserve seats (``reserved``) fill there, and each later
    window's at its own."""
    windows, reserved, cap, table, held = walk
    win, last = windows[pos], pos + 1 == len(windows)
    school = win.school
    if last and pos > reserved:
        # nothing left but this window's open seats: one table for them all
        room = school.capacity if cap is None else min(school.capacity, cap - count)
        opened, univ, live = win.open_table(max(room, 0)), win.univ, alive >> school.off
        for local, u in enumerate(univ):
            table[mask | u] = chosen | univ[opened[local & live]]
        return
    opens = range(pos + 1) if pos == reserved else (pos,) if pos > reserved else ()
    live = alive >> school.off
    for local in range(win.size):
        picks, taken, cut = win.reserve[local & live]
        a, ch, n = alive & win.keep[picks], chosen | win.univ[picks], count + taken
        held[pos] = local, taken, cut
        for q in opens:
            w, (local_q, taken, cut) = windows[q], held[q]
            room = w.school.capacity - taken
            if cap is not None and cap - n < room:
                room = cap - n
            if room > 0:
                picks = _lowest_bits(cut[local_q & a >> w.school.off], room)
                a &= w.keep[picks]
                ch |= w.univ[picks]
                n += picks.bit_count()
        if last:
            table[mask | win.univ[local]] = ch
        else:
            _fill_level(walk, pos + 1, mask | win.univ[local], a, ch, n)


class Chooser(DistrictSpace):
    """One rule's memoized choice on its ``DistrictSpace``, with the
    records of its integer seat-filling walks, ``_chosen_bits`` and
    ``fill``.

    Key bit b is the b-th ranked contract of the universe in key order, so
    each school's contracts are one run of bits in priority order, and a
    pool's first ``room`` contracts are its lowest bits.  ``schools`` holds
    one ``_School`` record per school position that ranks a contract, in
    ``school_order``; ``keep`` maps a key bit to the key bits left once it
    is chosen.  ``to_keys`` and ``to_universe`` translate masks eight bits
    at a time.  Explicit tables (``to_keys`` is None) and masks holding a
    contract without a key (``unranked``) go through ``choose`` on the set.
    ``chooser_of`` builds one per ``CompiledRule``; it holds the rule only
    weakly, as the rule holds it.

    ``fill`` puts the choice of every mask without an unranked contract in
    the memo in one walk; ``check_property`` runs it before the first check
    over every subset, so at most once per chooser.  The checks over
    feasible sets fill the memo mask by mask.  At the all-subset bound of
    16 contracts the memo holds 65,536 masks, and the walk's per-school
    tables up to 2^16 entries each while it runs.
    """

    def __init__(self, rule: RuleSpec, comp: CompiledRule, problem: Problem):
        super().__init__(problem, rule.district)
        self.rule = weakref.ref(rule)  # the rule holds the chooser
        self.problem = problem  # read only through ``choose``, on its basis
        self._cache = {}
        self.to_keys = None
        if rule.kind is RuleKind.EXPLICIT_TABLE:
            return
        keys = list(map(comp.key, self.universe))
        self.unranked = sum(1 << i for i, k in enumerate(keys) if k is None)
        ranked = sorted((k, i) for i, k in enumerate(keys) if k is not None)
        bit_of = {i: 1 << b for b, (_, i) in enumerate(ranked)}
        self.to_keys = _chunk_tables([bit_of.get(i, 0) for i in range(len(keys))])
        self.to_universe = _chunk_tables([1 << i for _, i in ranked])
        # per key bit: what its pick takes out, its student's key bits (for a
        # completion, the bit alone)
        student_keys = {s: _translate(self.to_keys, bits) for s, bits in self.student_bits.items()}
        kills = [
            bit_of[i] if rule.completed else student_keys[self.universe[i].student]
            for _, i in ranked
        ]
        self.keep = [~k for k in kills]
        self.schools, off = [], 0
        for pos, run in itertools.groupby(ranked, lambda r: r[0] // comp.stride):
            run = list(run)
            self.schools.append(_School(comp, pos, off, run, kills[off : off + len(run)]))
            off += len(run)
        self.cap = comp.cap

    def choose_mask(self, mask: int) -> int:
        got = self._cache.get(mask)
        if got is None:
            if self.to_keys is None or mask & self.unranked:
                got = self.mask_of(choose(self.rule(), self.set_of(mask), self.problem))
            else:
                keys = _translate(self.to_keys, mask)
                got = _translate(self.to_universe, _chosen_bits(self, keys))
            self._cache[mask] = got
        return got

    def fill(self) -> None:
        """Memoize the choice of every mask without an unranked contract, in
        one walk over the product of the school windows (``_fill_level``)."""
        if len(self._cache) == 1 << len(self.universe) - self.unranked.bit_count():
            return  # every ranked mask is in the memo already
        if not self.schools:  # no contract is ranked
            self._cache[0] = 0
            return
        windows = [_Window(school, self.keep) for school in self.schools]
        reserved = max((p for p, school in enumerate(self.schools) if school.reserves), default=-1)
        table = [None] * len(self.all_masks)  # mask -> its choice
        walk = windows, reserved, self.cap, table, [None] * len(windows)
        _fill_level(walk, 0, 0, -1, 0, 0)
        # keyed by the checks' own masks, in their order
        masks = self.all_masks
        if self.unranked:
            masks = [m for m in masks if not m & self.unranked]
        self._cache.update(zip(masks, map(table.__getitem__, masks)))


def chooser_of(rule: RuleSpec, problem: Problem) -> Chooser:
    """The rule's ``Chooser`` for the problem's structure, built once per
    ``CompiledRule``."""
    comp = compiled(rule, problem)
    comp.chooser = comp.chooser or Chooser(rule, comp, problem)
    return comp.chooser


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

    chooser = chooser_of(rule, problem)
    n = len(chooser.universe)
    if prop in _ALL_SUBSET_PROPS and rule.kind is not RuleKind.EXPLICIT_TABLE:
        if n > all_subset_bound:
            raise UniverseTooLarge(2**n, 2**all_subset_bound)
        masks = chooser.all_masks
        chooser.fill()
    else:
        # explicit tables are total only over feasible-for-students sets,
        # so every quantifier restricts to that universe for them
        if chooser.size > feasible_bound:
            raise UniverseTooLarge(chooser.size, feasible_bound)
        masks = chooser.feasible_masks

    checker = _PROPERTY_CHECKS[prop]
    return checker(chooser, masks, problem, base_rule)


def _lowest(mask: int) -> int:
    """The index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _school_type(problem, x):
    return (x.school, problem.student_type[x.student])


def _student_type(problem, x):
    return problem.student_type[x.student]


def _check_feasible(chooser, masks, problem, _):
    schools = chooser.groups(attrgetter("school"), problem.capacities.__getitem__)
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
        over = [(_lowest(ch & bits), c) for c, bits, q in schools if (ch & bits).bit_count() > q]
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
        k_d = problem.k_district[chooser.rule().district]
        groups = chooser.groups(attrgetter("school"), problem.capacities.__getitem__)
        if ceilings_of:
            ceilings = _lookup(ceilings_of(chooser.rule()))
            groups += chooser.groups(functools.partial(key_of, problem), ceilings.get)
        for m in masks:
            ch = chooser.choose_mask(m)
            if ch.bit_count() >= k_d:
                continue
            rejected = m & ~ch
            unlicensed = rejected and rejected & ~saturated(ch, groups)
            if unlicensed:
                x = chooser.universe[_lowest(unlicensed)]
                return _fails(prop, [chooser.set_of(m)], x, note=note)
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
    k_d = problem.k_district[chooser.rule().district]
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
    at_initial = chooser.bits_by(lambda x: problem.initial_school[x.student] == x.school)
    initial = at_initial.get(True, 0)
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
    district = chooser.rule().district
    own = chooser.bits_by(lambda x: problem.student_district[x.student] == district)
    own_bits = own.get(True, 0)
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
        ceilings = _lookup(ceilings_of(chooser.rule()))
        groups = chooser.groups(functools.partial(key_of, problem), ceilings.get)
        for m in masks:
            ch = chooser.choose_mask(m)
            if any((ch & bits).bit_count() > q for _, bits, q in groups):
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
        r = m
        while r:  # the set bits of m, lowest first
            low = r & -r
            r ^= low
            smaller = m ^ low
            lost = (ch & ~low) & ~chooser.choose_mask(smaller)
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
        r = m
        while r:
            low = r & -r
            r ^= low
            smaller = m ^ low
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
        r = m & ~ch  # the rejected contracts
        while r:
            low = r & -r
            r ^= low
            smaller = m ^ low
            if chooser.choose_mask(smaller) != ch:
                return _fails(
                    RuleProperty.IRC,
                    [chooser.set_of(m), chooser.set_of(smaller)],
                    chooser.universe[_lowest(low)],
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
    base = chooser_of(base_rule, problem)
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
    require_rules(problem, rules)
    size = (problem.num_schools + 1) ** problem.num_students
    if size > feasible_bound:
        raise UniverseTooLarge(size, feasible_bound)
    choosers = {d: chooser_of(r, problem) for d, r in rules.items()}
    schools = range(problem.num_schools)
    district = problem.school_district
    # bit[t][c]: the bit of contract (t, c) in its district's universe
    bit = [
        [1 << choosers[district[c]].index[problem.contract(t, c)] for c in schools]
        for t in range(problem.num_students)
    ]
    for s in range(problem.num_students):
        options = [[None] if t == s else [*schools, None] for t in range(problem.num_students)]
        for X in enumerate_matchings(problem, options):
            held = [0] * problem.num_districts  # the others' contracts, per district
            for x in X:
                held[x.district] |= bit[x.student][x.school]
            if not any(
                choosers[district[c]].choose_mask(held[district[c]] | bit[s][c]) & bit[s][c]
                for c in schools
            ):
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
