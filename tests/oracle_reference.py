"""Test-only references for ``districtmatch.oracle``.

``audit_strategy_proofness_reference`` is the audit loop the package used
before misreports shared runs by read prefix, kept verbatim but for the
error of a misreport's run, which names the student and her report as the
package's does: it reruns the mechanism, on a fresh ``with_preferences``
copy, for every report.

``search_rule_nonexistence_reference`` is the search the package used before
it held domains as bitmasks, kept verbatim: domains are lists of values,
``local_values`` enumerates every sub-combination of a set with dict-based
loads, and each arc revision tests every value against every support with
``compatible_cp``.  Its root symmetry split is
``symmetry_root_values_reference``, the step the package used before it
read orbits off per-class counts, kept verbatim: it canonicalises each root
value under every student permutation that keeps home districts and maps
types by a ceiling-keeping bijection, all n! of them tried.

``enumerate_feasible_matchings_reference`` and
``enumerate_ir_matchings_reference`` are the two capacity-pruned walks the
package kept before every walk over matchings shared
``districtmatch.model.enumerate_matchings``, kept verbatim.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from districtmatch.errors import DistrictMatchError, SearchBudgetExceeded, UniverseTooLarge
from districtmatch.model import Matching, Problem, sort_matching, with_preferences
from districtmatch.oracle import (
    DEFAULT_MATCHING_BUDGET,
    AuditFinding,
    AuditReport,
    SearchResult,
    constrained_efficient_ir_matchings,
)
from districtmatch.policy import PolicyGoal
from districtmatch.rules import RuleKind, make_rule
from districtmatch.spda import run_spda
from districtmatch.ttc import run_ttc


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


def audit_strategy_proofness_reference(
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
        honest_school = problem.outcome_school(honest, s)
        for perm in itertools.permutations(range(problem.num_schools)):
            if budget is not None and runs >= budget:
                return AuditReport(mechanism, tuple(findings), False, runs, honest)
            deviated = with_preferences(problem, s, perm)
            try:
                outcome = _mechanism_outcome(
                    mechanism, deviated, rules=rules, goal=goal, master=master
                )
            except DistrictMatchError as exc:
                order = ">".join(problem.school_ids[c] for c in perm)
                exc.args = (
                    f"the honest run succeeded, but the run on student "
                    f"{problem.student_ids[s]}'s report {order} did not: {exc}",
                )
                raise
            runs += 1
            deviant_school = deviated.outcome_school(outcome, s)
            if problem.prefers(s, deviant_school, honest_school):
                findings.append(AuditFinding(s, perm, honest_school, deviant_school))
    return AuditReport(mechanism, tuple(findings), True, runs, honest)


def search_rule_nonexistence_reference(
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
        cand[root] = symmetry_root_values_reference(
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
                if nodes > budget:
                    raise SearchBudgetExceeded(nodes)
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


def enumerate_feasible_matchings_reference(
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


def enumerate_ir_matchings_reference(problem: Problem, budget: int = DEFAULT_MATCHING_BUDGET):
    """Feasible matchings where every student sits weakly above her initial
    school.  The outside option ranks last, so these match everyone; each
    student's options shrink to the schools she ranks at or above it."""
    options = [
        [c for c in problem.preferences[s] if problem.rank_of(s, c) <= problem.rank_of(s, problem.initial_school[s])]
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


def symmetry_root_values_reference(problem, universe, index, candidates, ceilings):
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
