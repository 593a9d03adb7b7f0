"""The direct implementation of constrained trading, kept as the reference
the incremental ``districtmatch.ttc.run_ttc`` is tested against.

Each step rebuilds the distribution and, for every slot, tests every
unassigned student by materialising the moved distribution and testing its
membership with the reference ``policy_reference.satisfies_with_feasibility``.
"""

from __future__ import annotations

from districtmatch.errors import PolicyViolatedAtStart, RuleViolation, Stuck
from districtmatch.model import Distribution, Problem, distribution_of
from districtmatch.policy import PolicyGoal
from districtmatch.ttc import TtcStep, TtcTrace, _find_cycles, build_hypothetical

from policy_reference import satisfies_with_feasibility


def _slot_distribution(problem, assignment):
    """Distribution counting each student at her assigned slot's type."""
    rows = [[0] * problem.num_types for _ in range(problem.num_schools)]
    for c, t in assignment.values():
        rows[c][t] += 1
    return Distribution(tuple(tuple(r) for r in rows))


def run_ttc_reference(problem: Problem, goal: PolicyGoal, master=None) -> TtcTrace:
    """Run the trading algorithm; every cycle found in a step executes."""
    market = build_hypothetical(problem, master)
    initial_xi = distribution_of(problem.initial_matching(), problem)
    if not satisfies_with_feasibility(goal, initial_xi, problem):
        raise PolicyViolatedAtStart(
            "the initial matching does not satisfy the policy goal"
        )

    unassigned = set(range(problem.num_students))
    assignment = {s: market.initial_slot[s] for s in range(problem.num_students)}
    removed = set()
    steps = []
    guard = problem.num_students * len(market.pairs) + 2

    while unassigned:
        if len(steps) > guard:
            raise RuleViolation("trading failed to make progress", trace=None)
        xi = _slot_distribution(problem, assignment)
        active = [p for p in market.pairs if p not in removed]

        slot_pointer = {}
        newly_removed = []
        for slot in active:
            best = None
            best_key = None
            for s in unassigned:
                c0, t0 = market.initial_slot[s]
                moved = xi.add(c0, t0, -1).add(slot[0], slot[1], +1)
                if satisfies_with_feasibility(goal, moved, problem):
                    key = market.priority_key(slot, s)
                    if best_key is None or key < best_key:
                        best, best_key = s, key
            if best is None:
                removed.add(slot)
                newly_removed.append(slot)
            else:
                slot_pointer[slot] = best

        student_pointer = {}
        for s in sorted(unassigned):
            for slot in market.student_prefs[s]:
                if slot in slot_pointer:
                    student_pointer[s] = slot
                    break

        cycles = _find_cycles(student_pointer, slot_pointer)
        steps.append(
            TtcStep(
                active=tuple(active),
                slot_pointer=tuple(sorted(slot_pointer.items())),
                student_pointer=tuple(sorted(student_pointer.items())),
                cycles=tuple(cycles),
                removed=tuple(newly_removed),
            )
        )

        if not cycles:
            if newly_removed:
                continue  # pointers change next step; retry
            raise Stuck(
                "students remain but no trading cycle exists; "
                "the goal set is likely not M-convex",
                trace=TtcTrace(tuple(steps), frozenset()),
            )
        for cycle in cycles:
            for s, slot in cycle:
                assignment[s] = slot
                unassigned.discard(s)

    outcome = frozenset(
        problem.contract(s, assignment[s][0]) for s in range(problem.num_students)
    )
    return TtcTrace(tuple(steps), outcome)
