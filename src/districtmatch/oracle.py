"""Brute-force ground truth and mechanism audits.

Everything here is exhaustive at desk scale: feasible matchings are
streamed in lexicographic order, mechanisms are rerun under every
unilateral misreport, and the district-level-ceilings nonexistence search
walks the whole space of choice functions with constraint propagation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import NotApplicable, SearchBudgetExceeded, UniverseTooLarge
from .model import (
    Matching,
    Problem,
    distribution_of,
    pareto_dominates,
    sort_matching,
    with_preferences,
)
from .policy import PolicyGoal, contains
from .rules import RuleKind, RuleSpec, make_rule
from .spda import is_stable, run_spda
from .ttc import run_ttc

DEFAULT_MATCHING_BUDGET = 10**7


def enumerate_feasible_matchings(
    problem: Problem, budget: int = DEFAULT_MATCHING_BUDGET
) -> Iterator[Matching]:
    """Every matching feasible for students and capacities, exactly once,
    in lexicographic order (per student: schools in index order, then
    unmatched)."""
    size = (problem.num_schools + 1) ** problem.num_students
    if size > budget:
        raise UniverseTooLarge(size, budget)

    n = problem.num_students
    load = [0] * problem.num_schools
    picks = []

    def rec(s):
        if s == n:
            yield frozenset(
                problem.contract(i, c) for i, c in enumerate(picks) if c is not None
            )
            return
        for c in list(range(problem.num_schools)) + [None]:
            if c is not None:
                if load[c] + 1 > problem.capacities[c]:
                    continue
                load[c] += 1
            picks.append(c)
            yield from rec(s + 1)
            picks.pop()
            if c is not None:
                load[c] -= 1

    yield from rec(0)


def count_feasible_matchings(problem: Problem) -> int:
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
        [c for c in problem.preferences[s] if problem.rank[s][c] <= problem.rank[s][problem.initial_school[s]]]
        for s in range(problem.num_students)
    ]
    size = 1
    for opts in options:
        size *= len(opts)
    if size > budget:
        raise UniverseTooLarge(size, budget)

    out = []
    load = [0] * problem.num_schools
    picks = []

    def rec(s):
        if s == problem.num_students:
            out.append(
                frozenset(problem.contract(i, c) for i, c in enumerate(picks))
            )
            return
        for c in sorted(options[s]):
            if load[c] + 1 > problem.capacities[c]:
                continue
            load[c] += 1
            picks.append(c)
            rec(s + 1)
            picks.pop()
            load[c] -= 1

    rec(0)
    return out


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
    true_order: tuple
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

    @property
    def clean(self):
        return not self.findings


def _mechanism_outcome(mechanism, problem, *, rules=None, goal=None, master=None):
    if mechanism == "spda":
        return run_spda(problem, rules).outcome
    if mechanism == "ttc":
        return run_ttc(problem, goal, master).outcome
    if mechanism == "efficient-selector":
        candidates = constrained_efficient_ir_matchings(problem, goal)
        if not candidates:
            return frozenset()
        return min(candidates, key=lambda X: tuple(sort_matching(X)))
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
    strictly prefers under her true preferences.
    """
    honest = _mechanism_outcome(
        mechanism, problem, rules=rules, goal=goal, master=master
    )
    findings = []
    runs = 0
    for s in range(problem.num_students):
        true_order = problem.preferences[s]
        honest_school = problem.outcome_school(honest, s)
        for perm in itertools.permutations(range(problem.num_schools)):
            if budget is not None and runs >= budget:
                return AuditReport(mechanism, tuple(findings), False, runs, honest)
            deviated = with_preferences(problem, s, perm)
            outcome = _mechanism_outcome(
                mechanism, deviated, rules=rules, goal=goal, master=master
            )
            runs += 1
            deviant_school = deviated.outcome_school(outcome, s)
            if problem.prefers(s, deviant_school, honest_school):
                findings.append(
                    AuditFinding(s, true_order, perm, honest_school, deviant_school)
                )
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


def audit_report_to_dict(report: AuditReport, problem: Problem) -> dict:
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


def certificate_to_dict(cert: "ImpossibilityCertificate", problem: Problem) -> dict:
    """Id-based JSON form of an impossibility certificate."""

    def pairs(X):
        return [
            [problem.student_ids[x.student], problem.school_ids[x.school]]
            for x in sort_matching(X)
        ]

    return {
        "efficient_pair": [pairs(X) for X in cert.efficient_pair],
        "deviations": [
            {
                "student": problem.student_ids[dev.student],
                "misreport": [problem.school_ids[c] for c in dev.misreport],
                "resulting": pairs(dev.resulting),
            }
            for dev in cert.deviations
        ],
    }


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
    student symmetries, mirroring a without-loss-of-generality case split.
    """
    universe = tuple(problem.district_contracts(district))
    index = {x: i for i, x in enumerate(universe)}
    k_d = problem.k_district[district]
    ceilings = dict(district_ceilings)

    per_student = {}
    for i, x in enumerate(universe):
        per_student.setdefault(x.student, []).append(i)
    masks = [0]
    for g in sorted(per_student):
        masks = [m | b for m in masks for b in [0] + [1 << i for i in per_student[g]]]
    masks.sort(key=lambda m: (-bin(m).count("1"), m))
    mask_set = set(masks)

    def local_values(m):
        bits = [i for i in range(len(universe)) if m >> i & 1]
        out = []
        for r in range(len(bits), -1, -1):
            for combo in itertools.combinations(bits, r):
                v = 0
                loads = {}
                types = {}
                ok = True
                for i in combo:
                    x = universe[i]
                    t = problem.student_type[x.student]
                    loads[x.school] = loads.get(x.school, 0) + 1
                    types[t] = types.get(t, 0) + 1
                    if loads[x.school] > problem.capacities[x.school] or (
                        ceilings.get(t) is not None and types[t] > ceilings[t]
                    ):
                        ok = False
                        break
                    v |= 1 << i
                if not ok:
                    continue
                # d-weak acceptance: every rejection needs a binding reason
                licensed = True
                rej = m & ~v
                while rej:
                    low = rej & -rej
                    i = low.bit_length() - 1
                    rej ^= low
                    x = universe[i]
                    t = problem.student_type[x.student]
                    if loads.get(x.school, 0) >= problem.capacities[x.school]:
                        continue
                    if len(combo) >= k_d:
                        continue
                    q = ceilings.get(t)
                    if q is not None and types.get(t, 0) >= q:
                        continue
                    licensed = False
                    break
                if licensed:
                    out.append(v)
        return out

    cand = {m: local_values(m) for m in masks}

    root = None
    for c in sorted(set(x.school for x in universe)):
        m = 0
        for i, x in enumerate(universe):
            if x.school == c:
                m |= 1 << i
        if m in mask_set:
            root = m
            break
    if symmetry and root is not None and cand.get(root):
        cand[root] = _symmetry_root_values(
            problem, universe, index, cand[root], ceilings
        )

    # arcs: (child, parent, bit); arc relation between values (w_c, w_p):
    #   weak substitutability: w_p minus the bit must be inside w_c
    #   irc: if the bit is rejected in w_p, then w_c equals w_p
    # dropping weak substitutability turns the search into a generator of
    # tables satisfying only the other three properties
    def compatible_cp(w_c, w_p, bit):
        if require_weak_substitutability and (w_p & ~bit) & ~w_c:
            return False
        if not (w_p & bit) and w_c != w_p:
            return False
        return True

    neighbors = {m: [] for m in masks}
    for m in masks:
        for i in range(len(universe)):
            if m >> i & 1:
                child = m & ~(1 << i)
                if child in mask_set:
                    neighbors[m].append((child, 1 << i, True))  # m is parent
                    neighbors[child].append((m, 1 << i, False))  # m is child

    nodes = 0
    conflict_log = []
    trail = []

    def snapshot():
        return len(trail)

    def record(m):
        trail.append((m, cand[m]))

    def undo(mark):
        while len(trail) > mark:
            m, vals = trail.pop()
            cand[m] = vals

    def propagate(m):
        """AC after cand[m] shrank; records every change for undo."""
        stack = [m]
        while stack:
            mm = stack.pop()
            for other, bit, mm_is_parent in neighbors[mm]:
                vals = cand[other]
                support = cand[mm]
                kept = []
                for w in vals:
                    if mm_is_parent:
                        ok = any(compatible_cp(w, u, bit) for u in support)
                    else:
                        ok = any(compatible_cp(u, w, bit) for u in support)
                    if ok:
                        kept.append(w)
                if len(kept) != len(vals):
                    if not kept:
                        return False
                    record(other)
                    cand[other] = kept
                    stack.append(other)
        return True

    def search():
        nonlocal nodes
        best = None
        for m in masks:
            n = len(cand[m])
            if n > 1 and (best is None or n < len(cand[best])):
                best = m
        if best is None:
            return True
        for v in list(cand[best]):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            mark = snapshot()
            record(best)
            cand[best] = [v]
            if propagate(best) and search():
                return True
            undo(mark)
        return False

    def frozenset_of(v):
        return frozenset(universe[i] for i in range(len(universe)) if v >> i & 1)

    ok = all(cand[m] for m in masks) and all(propagate(m) for m in masks)
    if ok:
        found = False
        if root is not None and len(cand[root]) > 1:
            for v in list(cand[root]):
                nodes += 1
                mark = snapshot()
                record(root)
                cand[root] = [v]
                if propagate(root) and search():
                    found = True
                    break
                conflict_log.append(
                    (frozenset_of(v), "all extensions contradict")
                )
                undo(mark)
        else:
            found = search()
            if not found and root is not None:
                conflict_log.append(
                    (frozenset_of(cand[root][0]), "all extensions contradict")
                )
    else:
        found = False
        conflict_log.append((frozenset(), "arc consistency wiped out a domain"))

    if not found:
        return SearchResult(
            satisfiable=False, conflict_log=tuple(conflict_log), nodes=nodes
        )
    table = tuple(
        (frozenset_of(m), frozenset_of(cand[m][0])) for m in sorted(masks)
    )
    witness = make_rule(
        district=district,
        kind=RuleKind.EXPLICIT_TABLE,
        table=table,
        district_ceilings=ceilings,
    )
    return SearchResult(satisfiable=True, witness=witness, nodes=nodes)


def _symmetry_root_values(problem, universe, index, candidates, ceilings):
    """Keep one root value per orbit under exact instance symmetries:
    student permutations preserving home district whose induced type map is
    a bijection matching the ceilings (covers type swaps and within-type
    student swaps)."""
    students = list(range(problem.num_students))
    perms = []
    for perm in itertools.permutations(students):
        if any(
            problem.student_district[perm[s]] != problem.student_district[s]
            for s in students
        ):
            continue
        type_map = {}
        consistent = True
        for s in students:
            t_from = problem.student_type[s]
            t_to = problem.student_type[perm[s]]
            if type_map.setdefault(t_from, t_to) != t_to:
                consistent = False
                break
        if not consistent or len(set(type_map.values())) != len(type_map):
            continue
        if any(ceilings.get(a) != ceilings.get(b) for a, b in type_map.items()):
            continue
        perms.append(perm)
    seen = set()
    keep = []
    for v in candidates:
        canon = v
        for perm in perms:
            w = 0
            for i in range(len(universe)):
                if v >> i & 1:
                    x = universe[i]
                    y = x._replace(student=perm[x.student])
                    w |= 1 << index[y]
            canon = min(canon, w)
        if canon not in seen:
            seen.add(canon)
            keep.append(v)
    return keep


# -- welfare comparison search ------------------------------------------------------


def find_welfare_regression(problem: Problem, rules, budget: int = 5000):
    """Search preference profiles for a student strictly worse off under
    market-wide deferred acceptance than under per-district runs.

    Returns (profile, student) or None.  Used to exercise the converse of
    the own-student-favoring welfare guarantee.
    """
    from .spda import run_intradistrict_spda

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
