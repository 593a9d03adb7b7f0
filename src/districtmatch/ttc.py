"""Constrained top trading cycles over school-type slots.

The market is rebuilt on one side as (school, type) slots.  A student's
slot preferences follow her school preferences within her own type; slots
of other types sit below her initial slot and are unreachable in truthful
runs.  Slot priorities have two classes (initially assigned here, everyone
else), tie-broken by one master list shared by all slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import PolicyViolatedAtStart, RuleViolation, Stuck, TypeMismatch
from .model import Matching, Problem, distribution_of
from .policy import GoalTally, PolicyGoal, satisfies_with_feasibility


@dataclass(frozen=True)
class HypotheticalMarket:
    pairs: tuple  # all (school, type) slots, school-major
    student_prefs: tuple  # per student: tuple of slots, best first
    initial_slot: tuple  # per student
    master: tuple  # master priority list of student indices
    # per student: position in the master list
    master_rank: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rank = [0] * len(self.master)
        for i, s in enumerate(self.master):
            rank[s] = i
        object.__setattr__(self, "master_rank", tuple(rank))


@dataclass(frozen=True)
class TtcStep:
    active: tuple  # slots alive at the start of the step
    slot_pointer: tuple  # of (slot, student)
    student_pointer: tuple  # of (student, slot)
    cycles: tuple  # of tuples of (student, slot) edges executed
    removed: tuple  # slots removed this step


@dataclass(frozen=True)
class TtcTrace:
    steps: tuple
    outcome: Matching
    # per student: how many entries of her school list the run consulted; a
    # report sharing that prefix reruns identically
    read: tuple = field(default=(), compare=False)

    @property
    def num_steps(self):
        return len(self.steps)


def build_hypothetical(problem: Problem, master=None) -> HypotheticalMarket:
    """Lift the market to school-type slots; master defaults to file order."""
    if master is None:
        master = tuple(range(problem.num_students))
    master = tuple(master)
    if sorted(master) != list(range(problem.num_students)):
        raise RuleViolation("master list must order every student exactly once")
    pairs = tuple(
        (c, t)
        for c in range(problem.num_schools)
        for t in range(problem.num_types)
    )
    prefs = []
    for s in range(problem.num_students):
        t = problem.student_type[s]
        own = [(c, t) for c in problem.preferences[s]]
        other = [
            (c, tt)
            for c in problem.preferences[s]
            for tt in range(problem.num_types)
            if tt != t
        ]
        prefs.append(tuple(own + other))
    initial = tuple(
        (problem.initial_school[s], problem.student_type[s])
        for s in range(problem.num_students)
    )
    return HypotheticalMarket(
        pairs=pairs,
        student_prefs=tuple(prefs),
        initial_slot=initial,
        master=master,
    )


def is_permissible(
    student: int,
    target,
    X: Matching,
    goal: PolicyGoal,
    problem: Problem,
    *,
    audit: bool = False,
) -> bool:
    """Whether moving ``student`` from her initial slot to ``target`` keeps
    the distribution inside the goal (with school capacities).

    Cross-type targets are answered only in audit mode; student-side
    pointing never reaches them.
    """
    if not audit and target[1] != problem.student_type[student]:
        raise TypeMismatch(
            f"slot type {target[1]} differs from the student's type; "
            "pass audit=True to evaluate anyway"
        )
    origin = (problem.initial_school[student], problem.student_type[student])
    return GoalTally(goal, problem, distribution_of(X, problem)).permits(origin, target)


def run_ttc(problem: Problem, goal: PolicyGoal, master=None) -> TtcTrace:
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
    if not satisfies_with_feasibility(goal, initial_xi, problem):
        raise PolicyViolatedAtStart(
            "the initial matching does not satisfy the policy goal"
        )
    tally = GoalTally(goal, problem, initial_xi)
    initial = market.initial_slot
    rank = market.master_rank

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
                trace=TtcTrace(tuple(steps), frozenset()),
            )
        active = [p for p in market.pairs if p not in removed]
        heads = sorted((q[0] for q in holders.values() if q), key=rank.__getitem__)

        slot_pointer = {}
        newly_removed = []
        for slot in active:
            own = holders[slot]
            for s in [own[0], *heads] if own else heads:
                if tally.permits(initial[s], slot):
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

        cycles = _find_cycles(student_pointer, slot_pointer)
        steps.append(
            TtcStep(
                active=tuple(active),
                slot_pointer=tuple(slot_pointer.items()),
                student_pointer=tuple(student_pointer.items()),
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
        # slots point only to queue heads, so each trader heads her initial slot's queue
        for cycle in cycles:
            for s, slot in cycle:
                tally.move(initial[s], slot)
                holders[initial[s]].popleft()
                assignment[s] = slot
                unassigned.discard(s)

    outcome = frozenset(
        problem.contract(s, assignment[s][0]) for s in range(problem.num_students)
    )
    # the own-type slots follow the school list; a pointer past them has
    # read the whole list, since the other types' slots repeat it
    read = tuple(min(i + 1, problem.num_schools) for i in next_pref)
    return TtcTrace(tuple(steps), outcome, read)


def _find_cycles(student_pointer, slot_pointer):
    """All cycles of the bipartite pointing graph, as (student, slot) edge
    lists.  Walks start from the students in ascending order; a walk stops at
    a student with no pointer, one an earlier walk visited, or one on its own
    path, which closes a cycle.  Each cycle starts where the walk that found
    it entered it, which need not be its least student."""
    cycles = []
    visited = set()
    for start in sorted(student_pointer):
        path = {}  # student -> position on this walk
        s = start
        while s in student_pointer and s not in visited and s not in path:
            path[s] = len(path)
            s = slot_pointer[student_pointer[s]]
        if s in path:
            cycles.append(tuple((t, student_pointer[t]) for t in list(path)[path[s]:]))
        visited.update(path)
    return cycles
