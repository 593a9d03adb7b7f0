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
from .model import Matching, Problem, distribution_of, order_positions
from .policy import GoalTally, PolicyGoal, satisfies_with_feasibility


@dataclass(frozen=True)
class HypotheticalMarket:
    pairs: tuple  # all (school, type) slots, school-major
    student_prefs: tuple  # per student: tuple of slots, best first
    initial_slot: tuple  # per student
    master: tuple  # master priority list of student indices


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
    if order_positions(master, problem.num_students) is None:
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
    T = problem.num_types
    origin = problem.initial_school[student] * T + problem.student_type[student]
    tally = GoalTally(goal, problem, distribution_of(X, problem))
    return tally.permits(origin, target[0] * T + target[1])


def run_ttc(problem: Problem, goal: PolicyGoal, master=None) -> TtcTrace:
    """Run the trading algorithm; every cycle found in a step executes.

    Slots are numbered c × num_types + t, the order of
    ``build_hypothetical``'s ``pairs`` and the coordinates of ``GoalTally``.
    Unassigned students still sit at their initial slots, so whether a slot
    may point to one depends only on that initial slot.  Each slot points to
    the first permitted student of one candidate list: the first unassigned
    student of its own initial slot (if any), then that of every initial
    slot in master order.  The own head is permitted iff the tally holds;
    the remaining active slots go to the heads in master order, each head
    taking the slots ``GoalTally.target_masks`` allows it among those still
    free.

    A slot stays active until no unassigned student is permissible for it,
    so a student points to the first slot of her list not yet removed; her
    pointer moves only when that slot is removed.  Her list is her school
    list in her own type, then in the other types, which are built the
    first time her pointer passes her own-type slots.  Cycle walks start
    only from the least student pointing at each slot and from the students
    the slots point to: a walk from anyone else stops at its second student,
    whom an earlier walk visited.  Steps record pointers in ``pairs`` order
    and by ascending student.
    """
    n, T = problem.num_students, problem.num_types
    master = tuple(range(n)) if master is None else tuple(master)
    rank = order_positions(master, n)
    if rank is None:
        raise RuleViolation("master list must order every student exactly once")
    pairs = [(c, t) for c in range(problem.num_schools) for t in range(T)]
    initial_xi = distribution_of(problem.initial_matching(), problem)
    if not satisfies_with_feasibility(goal, initial_xi, problem):
        raise PolicyViolatedAtStart(
            "the initial matching does not satisfy the policy goal"
        )
    tally = GoalTally(goal, problem, initial_xi)
    prefs, types = problem.preferences, problem.student_type
    initial = [c * T + t for c, t in zip(problem.initial_school, types)]

    # unassigned students of each initial slot, in master order
    holders = [deque() for _ in pairs]
    for s in master:
        holders[initial[s]].append(s)
    alive = [True] * len(pairs)
    active = list(range(len(pairs)))
    active_slots = tuple(pairs)
    others = {}  # student -> her other-type slots, once her pointer needs them
    next_pref = [0] * n  # position in her list of the slot she points to
    pointer = {}  # student -> slot, ascending student
    pointed = {}  # slot number -> the students pointing to it
    assignment = {}
    steps = []

    def repoint(s, i):
        """Point ``s`` at the first slot not yet removed from position ``i``
        of her list, or drop her pointer when the list runs out."""
        own, t = prefs[s], types[s]
        while i < len(own) and not alive[own[i] * T + t]:
            i += 1
        if i < len(own):
            k = own[i] * T + t
        else:
            if s not in others:
                others[s] = [c * T + u for c in own for u in range(T) if u != t]
            rest = others[s]
            j = i - len(own)
            while j < len(rest) and not alive[rest[j]]:
                j += 1
            i = len(own) + j
            k = rest[j] if j < len(rest) else None
        next_pref[s] = i
        if k is None:
            pointer.pop(s, None)
        else:
            pointer[s] = pairs[k]
            pointed.setdefault(k, set()).add(s)

    for s in range(n):
        repoint(s, 0)

    while len(assignment) < n:
        heads = sorted((q[0] for q in holders if q), key=rank.__getitem__)
        to = {}  # slot number -> the student it points to
        holds = tally.holds()
        free = 0
        for k in active:
            if holds and holders[k]:
                to[k] = holders[k][0]
            else:
                free |= 1 << k
        targets = tally.target_masks()
        for s in heads:
            if not free:
                break
            got = targets(initial[s], free)
            free ^= got
            while got:
                low = got & -got
                to[low.bit_length() - 1] = s
                got ^= low

        slot_pointer = {}
        gone = []
        for k in active:
            if k in to:
                slot_pointer[pairs[k]] = to[k]
            else:
                alive[k] = False
                gone.append(k)
        for k in gone:
            for s in pointed.pop(k, ()):
                repoint(s, next_pref[s] + 1)

        starts = {min(students) for students in pointed.values() if students}
        starts.update(slot_pointer.values())
        cycles = _find_cycles(
            {s: pointer[s] for s in starts if s in pointer}, slot_pointer
        )
        steps.append(
            TtcStep(
                active=active_slots,
                slot_pointer=tuple(slot_pointer.items()),
                student_pointer=tuple(pointer.items()),
                cycles=tuple(cycles),
                removed=tuple(pairs[k] for k in gone),
            )
        )
        if gone:
            active = [k for k in active if alive[k]]
            active_slots = tuple(pairs[k] for k in active)

        if not cycles:
            if gone:
                continue  # pointers change next step; retry
            raise Stuck(
                "students remain but no trading cycle exists; "
                "the goal set is likely not M-convex",
                trace=TtcTrace(tuple(steps), frozenset()),
            )
        # slots point only to queue heads, so each trader heads her initial slot's queue
        for cycle in cycles:
            for s, slot in cycle:
                k = slot[0] * T + slot[1]
                tally.move(initial[s], k)
                holders[initial[s]].popleft()
                assignment[s] = slot
                del pointer[s]
                pointed[k].discard(s)

    outcome = frozenset(problem.contract(s, assignment[s][0]) for s in range(n))
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
