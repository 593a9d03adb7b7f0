"""The earlier implementations of constrained trading, kept as the
references ``districtmatch.ttc.run_ttc`` is tested against.

``run_ttc_reference`` is the direct one: each step rebuilds the
distribution and, for every slot, tests every unassigned student by
materialising the moved distribution and testing its membership with the
reference ``policy_reference.satisfies_with_feasibility``.

``run_ttc_per_pair`` is the tally-driven step loop ``run_ttc`` replaced.  It
builds every student's whole slot list up front (``build_hypothetical``),
rescans every unassigned student's pointer, walks the pointing graph from
every student, and answers each (slot, candidate) pair with one
``GoalTally.permits``.  ``run_ttc`` keeps pointers across steps, builds the
other-type slots of a list only when its pointer reaches them, starts walks
only from the least student pointing at each slot and from the slots'
targets, and hands out the free slots head by head in master order through
``GoalTally.target_masks``: one mask per head while a linear goal's tally
holds, one ``permits`` per free slot otherwise.  Both loops work on (c, t)
slots and record each step with its slots numbered c × num_types + t
(``numbered_step``), as ``run_ttc`` names them; the per-pair loop asks the
tally by those numbers too.

``_find_cycles`` is the cycle walk ``districtmatch.ttc._find_cycles``
replaced: a path list, a position dict and a per-node ``visited`` loop.
"""

from __future__ import annotations

from collections import deque

from districtmatch import policy, ttc
from districtmatch.errors import PolicyViolatedAtStart, RuleViolation, Stuck
from districtmatch.model import Distribution, Problem, Trace, distribution_of, order_positions
from districtmatch.policy import GoalTally, PolicyGoal
from districtmatch.ttc import TtcStep, build_hypothetical

from policy_reference import satisfies_with_feasibility


def _slot_distribution(problem, assignment):
    """Distribution counting each student at her assigned slot's type."""
    rows = [[0] * problem.num_types for _ in range(problem.num_schools)]
    for c, t in assignment.values():
        rows[c][t] += 1
    return Distribution(tuple(tuple(r) for r in rows))


def numbered_step(T, *, active, slot_pointer, student_pointer, cycles, removed):
    """The ``TtcStep`` of a step these loops record on (c, t) slots: each
    slot named by its number c × T + t, as ``run_ttc`` names it."""

    def k(slot):
        return slot[0] * T + slot[1]

    return TtcStep(
        active=tuple(map(k, active)),
        slot_pointer=tuple((k(p), s) for p, s in slot_pointer),
        student_pointer=tuple((s, k(p)) for s, p in student_pointer),
        cycles=tuple(tuple((s, k(p)) for s, p in cycle) for cycle in cycles),
        removed=tuple(map(k, removed)),
    )


def priority_key(market, slot, student):
    """A slot's priority over ``student``: her initial slot's holders first,
    then everyone else, each class in master order."""
    first_class = 0 if market.initial_slot[student] == slot else 1
    return (first_class, market.master.index(student))


def run_ttc_reference(problem: Problem, goal: PolicyGoal, master=None) -> Trace:
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
                    key = priority_key(market, slot, s)
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
            numbered_step(
                problem.num_types,
                active=active,
                slot_pointer=sorted(slot_pointer.items()),
                student_pointer=sorted(student_pointer.items()),
                cycles=cycles,
                removed=newly_removed,
            )
        )

        if not cycles:
            if newly_removed:
                continue  # pointers change next step; retry
            raise Stuck(
                "students remain but no trading cycle exists; "
                "the goal set is likely not M-convex",
                trace=Trace(tuple(steps), frozenset()),
            )
        for cycle in cycles:
            for s, slot in cycle:
                assignment[s] = slot
                unassigned.discard(s)

    outcome = frozenset(
        problem.contract(s, assignment[s][0]) for s in range(problem.num_students)
    )
    return Trace(tuple(steps), outcome)


def run_ttc_per_pair(problem: Problem, goal: PolicyGoal, master=None) -> Trace:
    """Run the trading algorithm; every cycle found in a step executes.

    Unassigned students still sit at their initial slots, so whether a slot
    may point to one depends only on that initial slot.  Each slot scans one
    candidate list, the first unassigned student of its own initial slot (if
    any) and then that of every initial slot in master order, and points to
    the first whose move the goal tally permits; the tally is updated as
    cycles execute.  A slot stays active until no unassigned student is
    permissible for it, so a student points to the first slot of her list
    not yet removed.  Steps record pointers in the order they are built:
    slots in ``market.pairs`` order, students ascending.
    """
    market = build_hypothetical(problem, master)
    initial_xi = distribution_of(problem.initial_matching(), problem)
    if not policy.satisfies_with_feasibility(goal, initial_xi, problem):
        raise PolicyViolatedAtStart(
            "the initial matching does not satisfy the policy goal"
        )
    tally = GoalTally(goal, problem, initial_xi)
    initial = market.initial_slot
    rank = order_positions(market.master, problem.num_students)
    T = problem.num_types

    def number(slot):
        return slot[0] * T + slot[1]

    # unassigned students of each initial slot, in master order
    holders = {slot: deque() for slot in market.pairs}
    for s in market.master:
        holders[initial[s]].append(s)
    unassigned = set(range(problem.num_students))
    assignment = {}
    next_pref = [0] * problem.num_students  # first slot not yet removed
    removed = set()
    steps = []
    guard = problem.num_students * len(market.pairs) + 2

    while unassigned:
        if len(steps) > guard:
            raise RuleViolation(
                "trading failed to make progress",
                trace=Trace(tuple(steps), frozenset()),
            )
        active = [p for p in market.pairs if p not in removed]
        heads = sorted((q[0] for q in holders.values() if q), key=rank.__getitem__)

        slot_pointer = {}
        newly_removed = []
        for slot in active:
            own = holders[slot]
            for s in [own[0], *heads] if own else heads:
                if tally.permits(number(initial[s]), number(slot)):
                    slot_pointer[slot] = s
                    break
            else:
                removed.add(slot)
                newly_removed.append(slot)

        student_pointer = {}
        for s in sorted(unassigned):
            prefs = market.student_prefs[s]
            i = next_pref[s]
            while i < len(prefs) and prefs[i] not in slot_pointer:
                i += 1
            next_pref[s] = i
            if i < len(prefs):
                student_pointer[s] = prefs[i]

        cycles = ttc._find_cycles(student_pointer, slot_pointer)
        steps.append(
            numbered_step(
                T,
                active=active,
                slot_pointer=slot_pointer.items(),
                student_pointer=student_pointer.items(),
                cycles=cycles,
                removed=newly_removed,
            )
        )

        if not cycles:
            if newly_removed:
                continue  # pointers change next step; retry
            raise Stuck(
                "students remain but no trading cycle exists; "
                "the goal set is likely not M-convex",
                trace=Trace(tuple(steps), frozenset()),
            )
        # slots point only to queue heads, so each trader heads her initial slot's queue
        for cycle in cycles:
            for s, slot in cycle:
                tally.move(number(initial[s]), number(slot))
                holders[initial[s]].popleft()
                assignment[s] = slot
                unassigned.discard(s)

    outcome = frozenset(
        problem.contract(s, assignment[s][0]) for s in range(problem.num_students)
    )
    # the own-type slots follow the school list; a pointer past them has
    # read the whole list, since the other types' slots repeat it
    read = tuple(min(i + 1, problem.num_schools) for i in next_pref)
    return Trace(tuple(steps), outcome, read)



def _find_cycles(student_pointer, slot_pointer):
    """All cycles of the bipartite pointing graph, as (student, slot) edge
    lists.  Walks start from the students in ascending order, skipping those
    an earlier walk visited; each cycle starts where the walk that found it
    entered it, which need not be its least student."""
    cycles = []
    visited = set()
    for start in sorted(student_pointer):
        if start in visited:
            continue
        path = []
        pos = {}
        s = start
        while True:
            if s in visited or s not in student_pointer:
                for node in path:
                    visited.add(node)
                break
            if s in pos:
                cycle_students = path[pos[s]:]
                cycles.append(
                    tuple((t, student_pointer[t]) for t in cycle_students)
                )
                for node in path:
                    visited.add(node)
                break
            pos[s] = len(path)
            path.append(s)
            slot = student_pointer[s]
            s = slot_pointer[slot]
    return cycles
