"""The direct implementations of rule evaluation, deferred acceptance and
the stability check, kept as the reference the compiled
``districtmatch.rules.choose``, the incremental
``districtmatch.spda.run_spda`` and the indexed
``districtmatch.spda.is_stable`` are tested against.

Every ``choose`` call rebuilds each school's priority positions and scans
the spec's tuples; every district chooses again at every step; the
stability check finds each student's school by scanning the matching.

``single_district_da_reference`` is the classic proposal loop inside one
district that ``districtmatch.spda.run_intradistrict_spda`` replaced with
the market-wide loop run on home-district lists.

``deferred_acceptance_reference`` is that market-wide loop on sets of
contracts, as it was before ``districtmatch.spda._deferred_acceptance`` ran
spec-rule districts on sorted key lists: it builds a contract for every
proposal and chooses on each district's held set plus its proposals.
Both set loops return, beside the trace, the union of the districts'
chosen sets after each step, which ``helpers.tentative`` must reproduce
from the steps.  Like the package's loop, both raise the error for a rule
that chooses outside its input with the steps they took before it; the
error carries those chosen sets as ``tentative``.
"""

from __future__ import annotations

from districtmatch.errors import RuleViolation, UnknownContract
from districtmatch.model import Matching, Problem, Trace
from districtmatch.rules import RuleKind, RuleSpec, choose
from districtmatch.spda import SpdaStep, StabilityVerdict


def _priority_of(rule: RuleSpec, school: int):
    for c, order in rule.priorities:
        if c == school:
            return order
    raise UnknownContract(f"no priority order for school index {school}")


def _reserve(rule: RuleSpec, school: int, type_: int) -> int:
    for (c, t), r in rule.reserves:
        if c == school and t == type_:
            return r
    return 0


def _ceiling(rule: RuleSpec, school: int, type_: int):
    for (c, t), q in rule.ceilings:
        if c == school and t == type_:
            return q
    return None


def choose_reference(rule: RuleSpec, X, problem: Problem) -> Matching:
    """Evaluate the rule: the chosen subset of X's contracts for this district."""
    own = []
    for x in X:
        if not (0 <= x.student < problem.num_students) or not (
            0 <= x.school < problem.num_schools
        ):
            raise UnknownContract(f"contract {x} references undeclared entities")
        if x.district != problem.school_district[x.school]:
            raise UnknownContract(f"contract {x} has district != d(school)")
        if x.district == rule.district:
            own.append(x)
    own_set = frozenset(own)
    if rule.kind is RuleKind.EXPLICIT_TABLE:
        for key, value in rule.table:
            if key == own_set:
                return value
        raise UnknownContract("set outside the explicit table's declared universe")
    if rule.kind is RuleKind.RESERVES_AND_CEILINGS:
        return _choose_reserves(rule, own, problem)
    return _choose_sequential(rule, own, problem)


def _effective_priority(rule: RuleSpec, school: int, problem: Problem):
    order = _priority_of(rule, school)
    if rule.kind is RuleKind.INITIAL_RESPECTING:
        own = [s for s in order if problem.initial_school[s] == school]
        rest = [s for s in order if problem.initial_school[s] != school]
        return tuple(own + rest)
    return order


def _choose_sequential(rule: RuleSpec, own, problem: Problem) -> Matching:
    """Schools pick responsively in order; chosen students drop out downstream."""
    cap_district = (
        rule.district_cap
        if rule.district_cap is not None
        else (
            problem.k_district[rule.district]
            if rule.kind is RuleKind.RATIONED_SEQUENTIAL
            else None
        )
    )
    by_school = {c: [] for c in rule.school_order}
    for x in own:
        by_school[x.school].append(x)
    chosen = []
    chosen_students = set()
    for c in rule.school_order:
        order = _effective_priority(rule, c, problem)
        pos = {s: i for i, s in enumerate(order)}
        pool = sorted(by_school[c], key=lambda x: pos[x.student])
        taken = 0
        for x in pool:
            if not rule.completed and x.student in chosen_students:
                continue
            if taken >= problem.capacities[c]:
                break
            if cap_district is not None and len(chosen) >= cap_district:
                break
            chosen.append(x)
            chosen_students.add(x.student)
            taken += 1
    return frozenset(chosen)


def _choose_reserves(rule: RuleSpec, own, problem: Problem) -> Matching:
    """Reserve seats fill first (school-major, type-minor), then open seats."""
    cap_district = (
        rule.district_cap
        if rule.district_cap is not None
        else problem.k_district[rule.district]
    )
    type_order = rule.type_order or tuple(range(problem.num_types))
    by_school = {c: [] for c in rule.school_order}
    for x in own:
        by_school[x.school].append(x)

    chosen = set()
    chosen_students = set()
    school_load = {c: 0 for c in rule.school_order}
    type_load = {}  # (school, type) -> chosen count

    def pool(c):
        order = _priority_of(rule, c)
        pos = {s: i for i, s in enumerate(order)}
        xs = sorted(by_school[c], key=lambda x: pos[x.student])
        if rule.completed:
            return [x for x in xs if x not in chosen]
        return [x for x in xs if x.student not in chosen_students]

    def take(x, c, t):
        chosen.add(x)
        chosen_students.add(x.student)
        school_load[c] += 1
        type_load[(c, t)] = type_load.get((c, t), 0) + 1

    for c in rule.school_order:
        for t in type_order:
            filled = 0
            target = _reserve(rule, c, t)
            if target == 0:
                continue
            for x in pool(c):
                if filled >= target:
                    break
                if problem.student_type[x.student] != t:
                    continue
                if school_load[c] >= problem.capacities[c]:
                    break
                take(x, c, t)
                filled += 1

    for c in rule.school_order:
        for x in pool(c):
            t = problem.student_type[x.student]
            if school_load[c] >= problem.capacities[c]:
                continue
            q = _ceiling(rule, c, t)
            if q is not None and type_load.get((c, t), 0) >= q:
                continue
            if len(chosen) >= cap_district:
                continue
            take(x, c, t)
    return frozenset(chosen)


def _violation(message, steps, held_after):
    """The ``RuleViolation`` of a set loop that took ``steps``, carrying what
    its districts chose after each as ``tentative``."""
    exc = RuleViolation(message, trace=Trace(tuple(steps), frozenset()))
    exc.tentative = list(held_after)
    return exc


def run_spda_reference(problem: Problem, rules):
    """Run deferred acceptance; ``rules`` maps district index -> RuleSpec.
    Returns the trace and the districts' chosen sets after each step."""
    for d in range(problem.num_districts):
        if d not in rules:
            raise RuleViolation(f"district {problem.district_ids[d]} has no rule")

    next_choice = [0] * problem.num_students  # pointer into preference lists
    proposing = set(range(problem.num_students))
    held = {d: frozenset() for d in range(problem.num_districts)}
    steps, held_after = [], []
    guard = problem.num_students * problem.num_schools + 1

    while True:
        if len(steps) > guard:
            raise _violation(
                "no convergence; a rule is re-rejecting held contracts", steps, held_after
            )
        new_proposals = {d: set() for d in range(problem.num_districts)}
        for s in sorted(proposing):
            if next_choice[s] >= problem.num_schools:
                continue  # preference list exhausted; student stays unmatched
            c = problem.preferences[s][next_choice[s]]
            x = problem.contract(s, c)
            new_proposals[x.district].add(x)

        tentative = {}
        rejected = set()
        for d in range(problem.num_districts):
            pool = held[d] | new_proposals[d]
            chosen = choose_reference(rules[d], pool, problem)
            if not chosen <= pool:
                raise _violation(
                    f"rule for {problem.district_ids[d]} chose outside its input",
                    steps,
                    held_after,
                )
            tentative[d] = chosen
            rejected |= pool - chosen

        steps.append(
            SpdaStep(
                proposals=tuple(
                    (d, frozenset(new_proposals[d]))
                    for d in range(problem.num_districts)
                ),
                rejected=frozenset(rejected),
            )
        )
        held_after.append(frozenset().union(*tentative.values()))
        held = tentative

        if not rejected:
            break
        proposing = set()
        for x in rejected:
            next_choice[x.student] += 1
            proposing.add(x.student)

    outcome = frozenset().union(*held.values())
    return Trace(tuple(steps), outcome), held_after


def deferred_acceptance_reference(problem: Problem, rules, lists):
    """Deferred acceptance in which student ``s`` proposes down ``lists[s]``.
    Returns the trace and the districts' chosen sets after each step."""
    for d in range(problem.num_districts):
        if d not in rules:
            raise RuleViolation(f"district {problem.district_ids[d]} has no rule")

    next_choice = [0] * problem.num_students  # pointer into the lists
    proposing = set(range(problem.num_students))
    held = {d: frozenset() for d in range(problem.num_districts)}
    every_step = {
        d for d in range(problem.num_districts)
        if rules[d].kind is RuleKind.EXPLICIT_TABLE
    }
    steps, held_after = [], []
    guard = sum(map(len, lists)) + 1

    while True:
        if len(steps) > guard:
            raise _violation(
                "no convergence; a rule is re-rejecting held contracts", steps, held_after
            )
        new_proposals = {d: set() for d in range(problem.num_districts)}
        for s in sorted(proposing):
            if next_choice[s] >= len(lists[s]):
                continue  # list exhausted; student stays unmatched
            x = problem.contract(s, lists[s][next_choice[s]])
            new_proposals[x.district].add(x)

        tentative = {}
        rejected = set()
        for d in range(problem.num_districts):
            if not new_proposals[d] and d not in every_step:
                tentative[d] = held[d]
                continue
            pool = held[d] | new_proposals[d]
            chosen = choose(rules[d], pool, problem)
            if not chosen <= pool:
                raise _violation(
                    f"rule for {problem.district_ids[d]} chose outside its input",
                    steps,
                    held_after,
                )
            tentative[d] = chosen
            rejected |= pool - chosen

        steps.append(
            SpdaStep(
                proposals=tuple(
                    (d, frozenset(new_proposals[d]))
                    for d in range(problem.num_districts)
                ),
                rejected=frozenset(rejected),
            )
        )
        held_after.append(frozenset().union(*tentative.values()))
        held = tentative

        if not rejected:
            break
        proposing = set()
        for x in rejected:
            next_choice[x.student] += 1
            proposing.add(x.student)

    outcome = frozenset().union(*held.values())
    read = tuple(min(i + 1, len(order)) for i, order in zip(next_choice, lists))
    return Trace(tuple(steps), outcome, read), held_after


def is_stable_reference(X: Matching, problem: Problem, rules) -> StabilityVerdict:
    """Stability: districts keep what they hold and no student-district
    pair blocks through an unchosen contract."""
    by_district = {d: frozenset() for d in range(problem.num_districts)}
    for x in X:
        by_district[x.district] |= {x}
    for d in range(problem.num_districts):
        if choose_reference(rules[d], by_district[d], problem) != by_district[d]:
            return StabilityVerdict(False, shrinking_district=d)
    for s in range(problem.num_students):
        current = problem.outcome_school(X, s)
        for c in problem.preferences[s]:
            if problem.rank_of(s, c) >= problem.rank_of(s, current):
                break  # schools below the current outcome cannot block
            x = problem.contract(s, c)
            if x in X:
                continue
            d = x.district
            if x in choose_reference(rules[d], by_district[d] | {x}, problem):
                return StabilityVerdict(False, blocking_contract=x)
    return StabilityVerdict(True)


def single_district_da_reference(problem: Problem, district: int, rule: RuleSpec) -> Matching:
    """The classic proposal loop inside one district: its own students
    propose to its schools in the order of their full lists.  A rule that
    chooses outside its input raises ``RuleViolation``."""
    students = [
        s for s in range(problem.num_students) if problem.student_district[s] == district
    ]
    schools = set(problem.district_schools[district])
    prefs = {s: [c for c in problem.preferences[s] if c in schools] for s in students}
    ptr = {s: 0 for s in students}
    held = frozenset()
    active = set(students)
    while True:
        proposals = set()
        for s in sorted(active):
            if ptr[s] < len(prefs[s]):
                proposals.add(problem.contract(s, prefs[s][ptr[s]]))
        pool = held | proposals
        chosen = choose(rule, pool, problem)
        if not chosen <= pool:
            raise RuleViolation(
                f"rule for {problem.district_ids[district]} chose outside its input"
            )
        rejected = pool - chosen
        held = chosen
        if not rejected:
            return held
        active = set()
        for x in rejected:
            ptr[x.student] += 1
            active.add(x.student)
