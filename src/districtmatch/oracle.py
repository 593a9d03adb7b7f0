"""Brute-force ground truth and mechanism audits.

Everything here is exhaustive at desk scale: feasible matchings are
streamed in lexicographic order, mechanisms are rerun under every
unilateral misreport, and the district-level-ceilings nonexistence search
walks the whole space of choice functions with constraint propagation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Optional

from .errors import DistrictMatchError, NotApplicable, SearchBudgetExceeded, UniverseTooLarge
from .model import (
    Matching,
    Problem,
    distribution_of,
    enumerate_matchings,
    pareto_dominates,
    sort_matching,
    with_preferences,
)
from .policy import PolicyGoal, contains
from .rules import DistrictSpace, RuleKind, RuleSpec, make_rule, saturated
from .spda import is_stable, run_intradistrict_spda, run_spda
from .ttc import run_ttc

DEFAULT_MATCHING_BUDGET = 10**7
# the most sets of contracts the nonexistence search lists (729 at desk scale)
NONEXISTENCE_SET_BOUND = 2 * 10**4


def enumerate_feasible_matchings(
    problem: Problem, budget: int = DEFAULT_MATCHING_BUDGET
) -> Iterator[Matching]:
    """Every matching feasible for students and capacities, exactly once,
    in lexicographic order (per student: schools in index order, then
    unmatched)."""
    size = (problem.num_schools + 1) ** problem.num_students
    if size > budget:
        raise UniverseTooLarge(size, budget)
    every = [*range(problem.num_schools), None]
    yield from enumerate_matchings(problem, [every] * problem.num_students)


def enumerate_stable_matchings(problem: Problem, rules, budget=DEFAULT_MATCHING_BUDGET):
    return [
        X
        for X in enumerate_feasible_matchings(problem, budget)
        if is_stable(X, problem, rules)
    ]


def enumerate_ir_matchings(problem: Problem, budget: int = DEFAULT_MATCHING_BUDGET):
    """Feasible matchings where every student sits weakly above her initial
    school.  The outside option ranks last, so these match everyone; each
    student's options shrink to the schools she ranks at or above it."""
    options = [
        sorted(prefs[: prefs.index(initial) + 1])
        for prefs, initial in zip(problem.preferences, problem.initial_school)
    ]
    size = math.prod(map(len, options))
    if size > budget:
        raise UniverseTooLarge(size, budget)
    return list(enumerate_matchings(problem, options))


def constrained_efficient_ir_matchings(
    problem: Problem, goal: PolicyGoal, budget=DEFAULT_MATCHING_BUDGET
):
    """Goal-satisfying, individually rational matchings undominated within
    the goal-satisfying feasible set.

    Any matching dominating an individually rational one places every
    student weakly above her initial school, so it is individually rational
    itself; the dominance scan therefore closes over the enumerated
    individually-rational goal-satisfying candidates.
    """
    candidates = [
        X
        for X in enumerate_ir_matchings(problem, budget)
        if contains(goal, distribution_of(X, problem), problem)
    ]
    return [
        X
        for X in candidates
        if not any(pareto_dominates(Y, X, problem) for Y in candidates)
    ]


# -- strategy-proofness audits -----------------------------------------------------


@dataclass(frozen=True)
class AuditFinding:
    student: int
    misreport: tuple
    honest_school: Optional[int]
    deviant_school: Optional[int]


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    findings: tuple
    exhaustive: bool
    runs: int
    honest: Matching  # the outcome under the true preferences


def _mechanism_run(mechanism, problem, *, rules=None, goal=None, master=None):
    """The mechanism's outcome, and per student how many entries of her
    school list the run read (the whole list for the selector, whose
    efficiency test compares whole lists)."""
    if mechanism == "spda":
        trace = run_spda(problem, rules)
        return trace.outcome, trace.read
    if mechanism == "ttc":
        trace = run_ttc(problem, goal, master)
        return trace.outcome, trace.read
    if mechanism == "efficient-selector":
        candidates = constrained_efficient_ir_matchings(problem, goal)
        whole = (problem.num_schools,) * problem.num_students
        if not candidates:
            return frozenset(), whole
        return min(candidates, key=lambda X: tuple(sort_matching(X))), whole
    raise ValueError(f"unknown mechanism {mechanism}")


def audit_strategy_proofness(
    mechanism: str,
    problem: Problem,
    *,
    rules=None,
    goal: Optional[PolicyGoal] = None,
    master=None,
    budget: Optional[int] = None,
) -> AuditReport:
    """Rerun the mechanism under every unilateral preference misreport.

    A finding records a student whose misreport yields a school she
    strictly prefers under her true preferences.  ``runs`` counts reports.
    A run reads the student's report only up to some prefix, and every
    report sharing it reruns identically; ``itertools.permutations`` lists
    those reports next to each other, so each takes the school of the last
    run made instead of running again.  A misreport whose run fails raises
    its error, of the same class, naming the student and her report.
    """
    honest, _ = _mechanism_run(
        mechanism, problem, rules=rules, goal=goal, master=master
    )
    findings = []
    runs = 0
    for s in range(problem.num_students):
        honest_school = problem.outcome_school(honest, s)
        prefix = None  # the part of her report the last run read
        for perm in itertools.permutations(range(problem.num_schools)):
            if budget is not None and runs >= budget:
                return AuditReport(mechanism, tuple(findings), False, runs, honest)
            if prefix is None or perm[: len(prefix)] != prefix:
                deviated = with_preferences(problem, s, perm)
                try:
                    outcome, read = _mechanism_run(
                        mechanism, deviated, rules=rules, goal=goal, master=master
                    )
                except DistrictMatchError as exc:
                    order = ">".join(problem.school_ids[c] for c in perm)
                    exc.args = (
                        f"the honest run succeeded, but the run on student "
                        f"{problem.student_ids[s]}'s report {order} did not: {exc}",
                    )
                    raise
                prefix = perm[: read[s]]
                deviant_school = deviated.outcome_school(outcome, s)
            runs += 1
            if problem.prefers(s, deviant_school, honest_school):
                findings.append(AuditFinding(s, perm, honest_school, deviant_school))
    return AuditReport(mechanism, tuple(findings), True, runs, honest)


# -- the two-efficient-matchings impossibility replay ------------------------------


@dataclass(frozen=True)
class Deviation:
    student: int
    misreport: tuple
    resulting: Matching


@dataclass(frozen=True)
class ImpossibilityCertificate:
    efficient_pair: tuple  # the two candidate matchings, lexicographic order
    deviations: tuple  # one Deviation against each element


def replay_impossibility(problem: Problem, goal: PolicyGoal) -> ImpossibilityCertificate:
    """Certify that no mechanism can pick from a two-element constrained
    efficient set without being manipulable.

    For each candidate the mechanism might pick, finds a student who, by
    ranking her school in the other candidate first and her initial school
    second, collapses the efficient set to the other candidate alone.
    """
    efficient = constrained_efficient_ir_matchings(problem, goal)
    if len(efficient) != 2:
        raise NotApplicable(
            f"expected exactly two efficient matchings, found {len(efficient)}"
        )
    efficient.sort(key=lambda X: tuple(sort_matching(X)))
    a, b = efficient

    deviations = []
    for picked, other in ((a, b), (b, a)):
        deviations.append(_find_collapse_deviation(problem, goal, picked, other))
    return ImpossibilityCertificate(
        efficient_pair=(a, b), deviations=tuple(deviations)
    )


def _find_collapse_deviation(problem, goal, picked, other):
    for s in range(problem.num_students):
        here = problem.outcome_school(picked, s)
        there = problem.outcome_school(other, s)
        if not problem.prefers(s, there, here):
            continue
        misreport = _target_first_initial_second(problem, s, there)
        deviated = with_preferences(problem, s, misreport)
        remaining = constrained_efficient_ir_matchings(deviated, goal)
        if len(remaining) == 1 and remaining[0] == other:
            return Deviation(student=s, misreport=misreport, resulting=other)
    raise NotApplicable("no collapsing misreport exists for either candidate")


def _target_first_initial_second(problem, student, target):
    initial = problem.initial_school[student]
    rest = [
        c for c in problem.preferences[student] if c not in (target, initial)
    ]
    order = [target]
    if initial != target:
        order.append(initial)
    return tuple(order + rest)


# -- nonexistence search over choice functions -------------------------------------


@dataclass(frozen=True)
class SearchResult:
    satisfiable: bool
    witness: Optional[RuleSpec] = None  # explicit-table rule when satisfiable
    conflict_log: tuple = ()  # per root branch: (value tried, reason it died)
    nodes: int = 0


def search_rule_nonexistence(
    problem: Problem,
    district: int,
    district_ceilings: dict,
    *,
    symmetry: bool = True,
    budget: int = 2 * 10**6,
    require_weak_substitutability: bool = True,
) -> SearchResult:
    """Decide whether any choice function on the district's contracts can
    have the given district-level type ceilings, be d-weakly acceptant, and
    satisfy IRC and weak substitutability.

    The domain is every set feasible for students.  The problem is a binary
    CSP: one variable per set, values filtered locally by feasibility,
    ceilings, and d-weak acceptance; IRC and weak substitutability are arcs
    between sets one contract apart.  Solved by arc consistency plus
    fewest-candidates-first branching.  With ``symmetry`` the all-at-one-
    school root set keeps one value per orbit of the instance's type and
    student symmetries, mirroring a without-loss-of-generality case split;
    a root left with more than one value is the search's first level.  Every
    fixed value, the root's included, counts one node against ``budget``.

    Every value any set admits is numbered once, in the order each set
    lists its values; a domain is a bitmask over that one index, and an arc
    reads two tables it shares with every arc of its contract.  Arc
    consistency has one greatest fixpoint, reached in any order of revision,
    so the order never changes a wipe-out, a fixed domain or ``nodes``.
    Raises ``UniverseTooLarge`` past ``NONEXISTENCE_SET_BOUND`` sets.
    """
    space = DistrictSpace(problem, district)
    k_d = problem.k_district[district]
    ceilings = dict(district_ceilings)
    if space.size > NONEXISTENCE_SET_BOUND:
        raise UniverseTooLarge(space.size, NONEXISTENCE_SET_BOUND)
    masks = sorted(space.feasible_masks, key=lambda m: (-m.bit_count(), m))
    pos = {m: p for p, m in enumerate(masks)}

    # feasibility and the licensed rejections depend only on the chosen set:
    # a school at capacity, a type at its ceiling or k_d contracts chosen
    # license rejecting a contract
    schools = space.groups(attrgetter("school"), problem.capacities.__getitem__)
    groups = schools + space.groups(lambda x: problem.student_type[x.student], ceilings.get)
    # G lists the values largest first, then in itertools.combinations order
    # (the order of ``feasible_masks`` within one size); each set's values
    # come in this order, and dom[p] is the mask of set p's values over G
    G = []
    dom = [0] * len(masks)
    for v in sorted(space.feasible_masks, key=int.bit_count, reverse=True):
        if any((v & bits).bit_count() > q for _, bits, q in groups):
            continue
        blocked = -1 if v.bit_count() >= k_d else saturated(v, groups)
        # v is a value of every superset m in which blocked covers m - v
        supersets = [v]
        for bits in space.student_bits.values():
            if not v & bits:
                supersets += [m | b for m in supersets for b in _single_bits(bits & blocked)]
        j = 1 << len(G)
        G.append(v)
        for m in supersets:
            dom[pos[m]] |= j

    # the root: everyone at the district's first school
    root = pos[min(schools)[1]] if schools else None
    if symmetry and root is not None and dom[root]:
        here = [low.bit_length() - 1 for low in _single_bits(dom[root])]
        keep = set(_symmetry_root_values(problem, space.universe, [G[j] for j in here], ceilings))
        dom[root] = sum(1 << j for j in here if G[j] in keep)

    # arcs (child, parent, bit) with child = parent - bit; the relation on
    # values (w_c, w_p):
    #   weak substitutability: w_p minus the bit must be inside w_c
    #   irc: if the bit is rejected in w_p, then w_c equals w_p
    # dropping weak substitutability turns the search into a generator of
    # tables satisfying only the other three properties.  Over G, hold[bit]
    # is the values holding the bit, and up[bit][j] the child values
    # compatible with G[j] when G[j] holds it: those containing G[j] - bit.
    everything = (1 << len(G)) - 1
    hold = {}
    for j, w in enumerate(G):
        for low in _single_bits(w):
            hold[low] = hold.get(low, 0) | 1 << j
    above = {0: everything}  # u -> the values containing u
    for u in sorted(masks)[1:]:
        above[u] = above[u & (u - 1)] & hold.get(u & -u, 0)
    if not require_weak_substitutability:
        above = dict.fromkeys(above, everything)
    up = {bit: [above[w & ~bit] for w in G] for bit in hold}
    neighbors = [[] for _ in masks]
    for p, m in enumerate(masks):
        for bit in _single_bits(m):
            arc = hold.get(bit, 0), up.get(bit)
            neighbors[p].append((pos[m ^ bit], *arc, True))  # p is parent
            neighbors[pos[m ^ bit]].append((p, *arc, False))  # the child

    nodes = 0
    conflict_log = []
    trail = []  # (set, its domain before the change)

    def undo(mark):
        while len(trail) > mark:
            p, d = trail.pop()
            dom[p] = d

    def propagate(p):
        """AC after dom[p] shrank; records every change for undo.  Across an
        arc a value not holding the bit needs itself on the other side, and a
        parent value holding it needs a child value in its ``supersets``."""
        stack = [p]
        while stack:
            q = stack.pop()
            dq = dom[q]
            for other, holding, supersets, q_is_parent in neighbors[q]:
                d = dom[other]
                kept = d & dq
                if q_is_parent:
                    rest = dq & holding
                    missing = d ^ kept
                    while rest and missing:
                        j = rest.bit_length() - 1
                        rest ^= 1 << j
                        missing -= missing & supersets[j]
                    kept = d ^ missing
                else:
                    rest = d & holding
                    while rest:
                        j = rest.bit_length() - 1
                        low = 1 << j
                        rest ^= low
                        if supersets[j] & dq:
                            kept |= low
                if kept != d:
                    if not kept:
                        return False
                    trail.append((other, d))
                    dom[other] = kept
                    stack.append(other)
        return True

    def search():
        """Depth-first: fix the set with the fewest values (more than one)
        to each of them in turn, until every set has one value.  With a
        symmetry split the root is the first level; each time the loop comes
        back to it, the root value last tried has failed with every
        extension and is logged."""
        nonlocal nodes
        split = root is not None and dom[root].bit_count() > 1
        frames = []  # per open level: [set, values not yet tried, trail mark]
        while True:
            counts = list(map(int.bit_count, dom))
            fewest = min(set(counts) - {1}, default=None)
            if fewest is None:
                return True
            best = root if split and not frames else counts.index(fewest)
            frames.append([best, dom[best], len(trail)])
            while True:  # the next value to fix, backtracking past tried-out levels
                if not frames:
                    return False
                p, rest, mark = frames[-1]
                undo(mark)
                if split and len(frames) == 1 and rest != dom[p]:
                    tried = G[(dom[p] ^ rest).bit_length() - 1]
                    conflict_log.append((space.set_of(tried), "all extensions contradict"))
                if not rest:
                    frames.pop()
                    continue
                low = rest & -rest
                frames[-1][1] = rest ^ low
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(nodes)
                trail.append((p, dom[p]))
                dom[p] = low  # fixed; a wipe-out tries the next value
                if propagate(p):
                    break

    def first(p):
        return G[(dom[p] & -dom[p]).bit_length() - 1]

    ok = all(dom) and all(propagate(p) for p in range(len(masks)))
    found = ok and search()
    if not ok:
        conflict_log.append((frozenset(), "arc consistency wiped out a domain"))
    elif not found and root is not None and dom[root].bit_count() == 1:
        # a root with one value is no level of the search; that value failed
        conflict_log.append((space.set_of(first(root)), "all extensions contradict"))

    if not found:
        return SearchResult(
            satisfiable=False, conflict_log=tuple(conflict_log), nodes=nodes
        )
    # each set's contracts from its set one contract smaller, every subset first
    sets = {0: frozenset()}
    for m in sorted(masks)[1:]:
        low = m & -m
        sets[m] = sets[m ^ low] | {space.universe[low.bit_length() - 1]}
    table = tuple((X, sets[first(pos[m])]) for m, X in sets.items())
    witness = make_rule(
        district=district,
        kind=RuleKind.EXPLICIT_TABLE,
        table=table,
        district_ceilings=ceilings,
    )
    return SearchResult(satisfiable=True, witness=witness, nodes=nodes)


def _single_bits(mask: int):
    """The set bits of ``mask`` as one-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _symmetry_root_values(problem, universe, candidates, ceilings):
    """Keep the first root value of each orbit, in candidate order, under
    the instance's exact symmetries: the permutations of the students within
    each (home district, type) class, combined with each type bijection σ
    that keeps every class size and ceiling.  A root value is a set of
    students at one school, so its orbit is its per-class counts up to σ:
    for each set of types with the same ceiling and class sizes, the
    multiset of their per-district count vectors."""
    D = problem.num_districts
    sizes = {}  # type -> its class size per home district
    for s, t in enumerate(problem.student_type):
        sizes.setdefault(t, [0] * D)[problem.student_district[s]] += 1
    alike = {}  # (ceiling, class sizes) -> the types σ may exchange
    for t, row in sorted(sizes.items()):
        alike.setdefault((ceilings.get(t), tuple(row)), []).append(t)
    seen = set()
    keep = []
    for v in candidates:
        counts = {t: [0] * D for t in sizes}
        for i in range(v.bit_length()):
            if v >> i & 1:
                s = universe[i].student
                counts[problem.student_type[s]][problem.student_district[s]] += 1
        orbit = tuple(tuple(sorted(tuple(counts[t]) for t in ts)) for ts in alike.values())
        if orbit not in seen:
            seen.add(orbit)
            keep.append(v)
    return keep


# -- welfare comparison search ------------------------------------------------------


def find_welfare_regression(problem: Problem, rules, budget: int = 5000):
    """Search preference profiles for a student strictly worse off under
    market-wide deferred acceptance than under per-district runs.

    Returns (profile, student) or None.  Used to exercise the converse of
    the own-student-favoring welfare guarantee.
    """
    orders = list(itertools.permutations(range(problem.num_schools)))
    tried = 0
    for profile in itertools.product(orders, repeat=problem.num_students):
        if tried >= budget:
            return None
        tried += 1
        p = problem
        for s, order in enumerate(profile):
            p = with_preferences(p, s, order)
        inter = run_spda(p, rules).outcome
        intra = run_intradistrict_spda(p, rules)
        for s in range(p.num_students):
            if p.prefers(
                s,
                p.outcome_school(intra, s),
                p.outcome_school(inter, s),
            ):
                return profile, s
    return None
