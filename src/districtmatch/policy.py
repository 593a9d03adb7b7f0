"""Distributional policy goals, discrete-convexity checkers, and implied bounds.

The exchange checks treat a distribution as a flat integer vector indexed
school-major by (school, type).  For speed, the members of a candidate set
are bit positions of integer bitsets, so one exchange test covers every
member at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from operator import attrgetter, le
from typing import Callable, Optional

from .errors import InfeasibleConstraints, UniverseTooLarge
from .model import Distribution, Problem, Verdict, built_once

DEFAULT_XI0_BUDGET = 10**7
DEFAULT_PAIR_BUDGET = 10**8


class GoalForm(Enum):
    EXPLICIT_SET = "explicit_set"
    BALANCED_EXCHANGE = "balanced_exchange"
    SCHOOL_DIVERSITY = "school_diversity"
    COMBINATION = "combination"
    F_LAMBDA = "f_lambda"
    DISTRICT_CEILINGS = "district_ceilings"


@dataclass(frozen=True)
class PolicyFunction:
    """A total score on distributions; higher means more acceptable."""

    kind: str  # manhattan_ideal | indicator
    ideal: Optional[Distribution] = None
    members: Optional[frozenset] = None

    def __call__(self, xi: Distribution) -> Fraction:
        return self.score_flat(xi.flat())

    def score_flat(self, flat: tuple) -> Fraction:
        """The score of the distribution whose ``Distribution.flat()`` is ``flat``."""
        if self.kind == "manhattan_ideal":
            return -Fraction(sum(abs(a - b) for a, b in zip(flat, self._flat)))
        return Fraction(1 if flat in self._flat else 0)

    @cached_property
    def _flat(self):
        """The ideal as a flat vector, or the members as a set of them."""
        if self.kind == "manhattan_ideal":
            return self.ideal.flat()
        return frozenset(xi.flat() for xi in self.members)


@dataclass(frozen=True)
class PolicyGoal:
    """A set of acceptable distributions, in one of several declarative forms.

    District-level ceilings are allowed only to demonstrate where they break
    the guarantees.
    """

    form: GoalForm
    explicit: frozenset = frozenset()
    floors: tuple = ()  # of ((school, type), count)
    ceilings: tuple = ()  # of ((school, type), count)
    district_ceilings: tuple = ()  # of ((district, type), count)
    fn: Optional[PolicyFunction] = None
    threshold: Optional[Fraction] = None
    intersect_xi0: bool = False


def balanced_exchange_goal() -> PolicyGoal:
    return PolicyGoal(form=GoalForm.BALANCED_EXCHANGE)


def misordered_floors(floors, ceilings) -> list:
    """The (school, type) keys of the ((school, type), count) pairs
    ``floors`` whose floor is negative or above its ceiling."""
    ceilings = dict(reversed(ceilings))  # the first pair of a key counts
    return [key for key, p in floors if p < 0 or p > ceilings.get(key, p)]


def school_diversity_goal(floors=None, ceilings=None) -> PolicyGoal:
    floors = tuple(sorted((floors or {}).items()))
    ceilings = tuple(sorted((ceilings or {}).items()))
    bad = misordered_floors(floors, ceilings)
    if bad:
        raise ValueError("floor/ceiling order violated at school {}, type {}".format(*bad[0]))
    return PolicyGoal(form=GoalForm.SCHOOL_DIVERSITY, floors=floors, ceilings=ceilings)


def combination_goal(floors=None, ceilings=None) -> PolicyGoal:
    base = school_diversity_goal(floors, ceilings)
    return PolicyGoal(
        form=GoalForm.COMBINATION, floors=base.floors, ceilings=base.ceilings
    )


def district_ceilings_goal(ceilings) -> PolicyGoal:
    return PolicyGoal(
        form=GoalForm.DISTRICT_CEILINGS,
        district_ceilings=tuple(sorted(ceilings.items())),
    )


def explicit_goal(distributions) -> PolicyGoal:
    return PolicyGoal(form=GoalForm.EXPLICIT_SET, explicit=frozenset(distributions))


def f_lambda_goal(fn: PolicyFunction, threshold) -> PolicyGoal:
    return PolicyGoal(
        form=GoalForm.F_LAMBDA, fn=fn, threshold=Fraction(threshold)
    )


def in_xi0(xi: Distribution, problem: Problem) -> bool:
    """Of the problem's shape, everyone matched, no school over capacity."""
    if not _of_shape(xi, problem) or xi.total() != problem.num_students:
        return False
    return all(
        xi.school_total(c) <= problem.capacities[c] for c in range(problem.num_schools)
    )


def _of_shape(xi: Distribution, problem: Problem) -> bool:
    """Whether ``xi`` has one row of ``num_types`` counts per school."""
    return len(xi.counts) == problem.num_schools and all(
        len(row) == problem.num_types for row in xi.counts
    )


def contains(goal: PolicyGoal, xi: Distribution, problem: Problem) -> bool:
    """Membership of a distribution in the goal's set."""
    if goal.intersect_xi0 and not in_xi0(xi, problem):
        return False
    bounds = built_once(goal, problem, GoalBounds)
    flat = xi.flat()
    for entry, lo, hi in bounds.families:
        sums = _sums(entry, len(lo), flat)
        if not (all(map(le, lo, sums)) and all(map(le, sums, hi))):
            return False
    return bounds.member is None or bounds.member(flat)


def satisfies_with_feasibility(goal: PolicyGoal, xi: Distribution, problem) -> bool:
    """Goal membership together with the everyone-matched capacity set.

    Trading mechanics keep the total constant, so intersecting adds exactly
    the school-capacity requirement.
    """
    return in_xi0(xi, problem) and contains(goal, xi, problem)


class GoalBounds:
    """A goal compiled for one problem shape (``basis_of``, which leaves out
    preferences).  Its linear constraints are families of (entry per school-major
    coordinate, lower bounds, upper bounds): a distribution meets a family
    when each entry's sum of the coordinates mapped to it lies within that
    entry's bounds.

    Box goals bound each (school, type) count by the first floor and ceiling
    listed for it; balanced goals hold each district total at k_d;
    combinations do both.  District-ceiling goals cap each (district, type)
    count by every ceiling listed for it, and each school total by its
    capacity, the family ``capacity`` that Ξ₀ adds to every goal.  Explicit
    and score goals have no families; ``member`` (None for linear goals)
    tests a flat vector against their members of this shape or threshold.
    """

    basis_of = attrgetter("num_types", "school_district", "capacities", "k_district")

    def __init__(self, goal: PolicyGoal, problem: Problem):
        T = problem.num_types
        coords = range(problem.num_schools * T)
        school = [k // T for k in coords]
        district = [problem.school_district[c] for c in school]
        inf = float("inf")
        self.capacity = (school, [-inf] * problem.num_schools, list(problem.capacities))
        self.families = []
        if goal.form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
            floors, ceilings = dict(reversed(goal.floors)), dict(reversed(goal.ceilings))
            self.families.append((
                list(coords),
                [floors.get(divmod(k, T), 0) for k in coords],
                [ceilings.get(divmod(k, T), inf) for k in coords],
            ))
        if goal.form in (GoalForm.BALANCED_EXCHANGE, GoalForm.COMBINATION):
            self.families.append((district, list(problem.k_district), list(problem.k_district)))
        if goal.form is GoalForm.DISTRICT_CEILINGS:
            # in descending order the least ceiling of a repeated key comes last
            caps = dict(sorted(goal.district_ceilings, reverse=True))
            pairs = [divmod(j, T) for j in range(problem.num_districts * T)]
            self.families += [
                (
                    [district[k] * T + k % T for k in coords],
                    [-inf] * len(pairs),
                    [caps.get(p, inf) for p in pairs],
                ),
                self.capacity,
            ]
        self.member = None
        if goal.form is GoalForm.EXPLICIT_SET:
            self.member = frozenset(
                xi.flat() for xi in goal.explicit if _of_shape(xi, problem)
            ).__contains__
        elif goal.form is GoalForm.F_LAMBDA:
            score, threshold = _flat_evaluator(goal.fn, T), goal.threshold
            self.member = lambda flat: score(flat) >= threshold

    @cached_property
    def with_capacity(self):
        """The families and the capacity family: the linear constraints of
        the goal ∩ Ξ₀."""
        return self.families + [self.capacity] * (self.capacity not in self.families)

    @cached_property
    def sharing(self):
        """Per family of ``with_capacity`` and per entry, the bitmask of the
        coordinates mapped to that entry."""
        out = []
        for entry, lo, _ in self.with_capacity:
            masks = [0] * len(lo)
            for k, i in enumerate(entry):
                masks[i] |= 1 << k
            out.append(masks)
        return out


def _sums(entry, size, flat) -> list:
    """For each of a family's ``size`` entries, the sum of the counts mapped to it."""
    sums = [0] * size
    for i, v in zip(entry, flat):
        sums[i] += v
    return sums


class GoalTally:
    """One distribution's school-by-type counts, kept mutable, with a running
    count of the constraints of ``goal`` ∩ Ξ₀ it currently violates.  Moves
    name coordinates c × num_types + t, the numbering of ``GoalBounds``.

    The constraints are the goal's ``GoalBounds`` families with the capacity
    family added, each held as a vector of counters.  A move xi − e(origin) +
    e(target) changes at most two entries of each family, so the counters
    answer membership of the moved distribution in O(1), whether or not xi
    itself is a member.  When origin and target share an entry (same
    school, same district, or same district and type) that entry does not
    change.  Explicit and score goals add the goal's ``member`` test, run on
    the moved counts only when the counters allow the move.
    """

    def __init__(self, goal: PolicyGoal, problem: Problem, xi: Distribution):
        self.counts = list(xi.flat())
        self._bounds = bounds = built_once(goal, problem, GoalBounds)
        self._member = bounds.member
        # (entry per coordinate, counter values, lower bounds, upper bounds)
        self._families = [
            (entry, _sums(entry, len(lo), self.counts), lo, hi)
            for entry, lo, hi in bounds.with_capacity
        ]
        # moves keep the total, so the everyone-matched part never changes
        self._violated = int(xi.total() != problem.num_students) + sum(
            not lo[i] <= v <= hi[i]
            for _, values, lo, hi in self._families
            for i, v in enumerate(values)
        )

    def holds(self) -> bool:
        """Whether the current distribution lies in the goal ∩ Ξ₀."""
        return self._violated == 0 and (self._member is None or self._member(tuple(self.counts)))

    def permits(self, origin, target) -> bool:
        """Whether xi − e(origin) + e(target) lies in the goal ∩ Ξ₀; with
        origin = target, whether the tally holds."""
        if self._violated + self._change(origin, target):
            return False
        if self._member is None:
            return True
        moved = self.counts.copy()
        moved[origin] -= 1
        moved[target] += 1
        return self._member(tuple(moved))

    def target_masks(self):
        """A function from an origin coordinate and a bitmask ``free`` of
        target coordinates to the targets in ``free`` that ``permits`` allows.

        While the tally holds and the goal is linear, a move is permitted iff
        each family maps origin and target to one entry, or can lose one at
        the origin's entry and gain one at the target's; with the entries
        that can gain one read once, that is one AND per family.  Otherwise
        the function runs one ``permits`` per set bit of ``free``.
        """
        if self._violated or self._member is not None:
            return lambda k, free: sum(
                1 << j for j in range(free.bit_length()) if free >> j & 1 and self.permits(k, j)
            )
        parts = []
        for (entry, values, lo, hi), sharing in zip(self._families, self._bounds.sharing):
            gain = 0
            for i, v in enumerate(values):
                if v < hi[i]:
                    gain |= sharing[i]
            parts.append((entry, values, lo, sharing, gain))

        def targets(k, free):
            for entry, values, lo, sharing, gain in parts:
                i = entry[k]
                free &= sharing[i] | gain if values[i] > lo[i] else sharing[i]
            return free

        return targets

    def move(self, origin, target):
        """Apply xi ← xi − e(origin) + e(target)."""
        self._violated += self._change(origin, target)
        self.counts[origin] -= 1
        self.counts[target] += 1
        for entry, values, _, _ in self._families:
            values[entry[origin]] -= 1
            values[entry[target]] += 1

    def _change(self, origin, target):
        """How the violated-constraint count changes under the move."""
        change = 0
        for entry, values, lo, hi in self._families:
            i, j = entry[origin], entry[target]
            if i == j:
                continue
            a, b = values[i], values[j]
            change += (
                (not lo[i] <= a - 1 <= hi[i])
                - (not lo[i] <= a <= hi[i])
                + (not lo[j] <= b + 1 <= hi[j])
                - (not lo[j] <= b <= hi[j])
            )
        return change


# -- enumeration -------------------------------------------------------------------


def enumerate_xi0(problem: Problem, budget: int = DEFAULT_XI0_BUDGET):
    """All distributions matching every student within school capacities,
    in lexicographic order of the school-major flat vector."""
    total = problem.num_students
    size = 1
    for c in range(problem.num_schools):
        size *= (min(problem.capacities[c], total) + 1) ** problem.num_types
        if size > budget:
            raise UniverseTooLarge(size, budget)

    schools = list(range(problem.num_schools))
    suffix_cap = [0] * (len(schools) + 1)
    for i in reversed(schools):
        suffix_cap[i] = suffix_cap[i + 1] + problem.capacities[i]

    out = []
    row = []

    def rec(c, used):
        if c == len(schools):
            if used == total:
                out.append(Distribution(tuple(row)))
            return
        if used + suffix_cap[c] < total:
            return
        for r in _typed_rows(min(problem.capacities[c], total - used), problem.num_types):
            row.append(r)
            rec(c + 1, used + sum(r))
            row.pop()

    rec(0, 0)
    return out


def _typed_rows(cap, num_types):
    """All type splits with total at most cap, lexicographic."""
    if num_types == 1:
        return [(k,) for k in range(cap + 1)]
    rows = []
    for head in range(cap + 1):
        for tail in _typed_rows(cap - head, num_types - 1):
            rows.append((head,) + tail)
    return rows


def policy_members(goal: PolicyGoal, problem: Problem, budget=DEFAULT_XI0_BUDGET):
    """The goal's set intersected with the everyone-matched capacity set."""
    return [xi for xi in enumerate_xi0(problem, budget) if contains(goal, xi, problem)]


# -- M-convexity -------------------------------------------------------------------


def is_mconvex(
    members, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> Verdict:
    """Exhaustive exchange-property check of a finite set of distributions.

    Every member is one bit of an integer bitset, so a member a and a surplus
    coordinate i are tested against every b at once: b violates when
    b_i < a_i and no j with b_j > a_j has both a − e_i + e_j and b + e_i − e_j
    in the set.  Fails with the first witness in scan order: member a in
    member order, then its surplus coordinate i type-major (all schools for
    one type before the next type), then the first violating b in member
    order; the witness is (a, b, (school, type) of i).
    """
    members = list(members)
    n = len(members)
    if n <= 1:
        return Verdict(True)
    flats = [xi.flat() for xi in members]
    num_types = len(members[0].counts[0])
    k = len(flats[0])
    if n * n * k > pair_budget:
        raise UniverseTooLarge(n * n * k, pair_budget)

    memberset = set(flats)
    top = max(max(flat) for flat in flats)
    # below[i][v]: the members with flat[i] < v, so ~below[i][v + 1] holds those above v
    below = [[0] * (top + 2) for _ in range(k)]
    for m, flat in enumerate(flats):
        for i, v in enumerate(flat):
            below[i][v + 1] |= 1 << m
    for row in below:
        for v in range(1, top + 2):
            row[v] |= row[v - 1]

    # R[a][i]: the j with a − e_i + e_j in the set.  TB[i][j]: the members b
    # with b + e_i − e_j in the set, so a − e_i + e_j in the set puts a in TB[j][i]
    R = [[[] for _ in range(k)] for _ in range(n)]
    TB = [[0] * k for _ in range(k)]
    for a, flat in enumerate(flats):
        for i in range(k):
            if not flat[i]:
                continue
            moved = list(flat)
            moved[i] -= 1
            for j in range(k):
                moved[j] += 1
                if j != i and tuple(moved) in memberset:
                    R[a][i].append(j)
                    TB[j][i] |= 1 << a
                moved[j] -= 1

    scan = sorted(range(k), key=lambda i: (i % num_types, i // num_types))
    for a, flat in enumerate(flats):
        for i in scan:
            surplus = below[i][flat[i]]
            if not surplus:
                continue
            ok = 0
            for j in R[a][i]:
                ok |= TB[i][j] & ~below[j][flat[j] + 1]
            violators = surplus & ~ok
            if violators:
                b = (violators & -violators).bit_length() - 1
                return Verdict(
                    False, witness=(members[a], members[b], divmod(i, num_types))
                )
    return Verdict(True)


def find_exchange_violation(members, xi: Distribution, xi_tilde: Distribution):
    """First surplus coordinate of (xi, xi_tilde) with no double-exchange
    partner inside ``members``; None when every coordinate has one.

    Coordinates are scanned type-major, mirroring the printed case analyses.
    """
    memberset = set(members)
    flat_a = xi.flat()
    flat_b = xi_tilde.flat()
    num_types = len(xi.counts[0])
    k = len(flat_a)
    scan = sorted(range(k), key=lambda kk: (kk % num_types, kk // num_types))
    for i in scan:
        if flat_a[i] <= flat_b[i]:
            continue
        found = False
        for j in range(k):
            if flat_a[j] >= flat_b[j]:
                continue
            ci, ti = divmod(i, num_types)
            cj, tj = divmod(j, num_types)
            if (
                xi.add(ci, ti, -1).add(cj, tj, +1) in memberset
                and xi_tilde.add(ci, ti, +1).add(cj, tj, -1) in memberset
            ):
                found = True
                break
        if not found:
            return divmod(i, num_types)
    return None


# -- pseudo M-concavity ------------------------------------------------------------


def _flat_evaluator(fn, num_types):
    """``fn`` on flat vectors: a ``PolicyFunction`` scores them itself, any
    other callable scores the ``Distribution`` they flatten."""
    if isinstance(fn, PolicyFunction):
        return fn.score_flat

    def call(flat):
        rows = tuple(
            flat[i : i + num_types] for i in range(0, len(flat), num_types)
        )
        return fn(Distribution(rows))

    return call


def is_pseudo_mconcave(
    fn: Callable[[Distribution], Fraction],
    problem: Problem,
    budget: int = DEFAULT_XI0_BUDGET,
) -> Verdict:
    """Check the min-of-pair exchange inequality over every distinct pair of
    everyone-matched capacity-feasible distributions; the witness is the
    first violating pair (xi, xi_tilde) in ``enumerate_xi0`` order."""
    domain = enumerate_xi0(problem, budget)
    value_at = _flat_evaluator(fn, problem.num_types)
    flats = [xi.flat() for xi in domain]
    values = [value_at(f) for f in flats]
    k = problem.num_schools * problem.num_types
    cache = {}

    def exchanged(flat, i, j):
        got = cache.get((flat, i, j))
        if got is None:
            v = list(flat)
            v[i] -= 1
            v[j] += 1
            got = value_at(tuple(v))
            cache[(flat, i, j)] = got
        return got

    n = len(domain)
    for ia in range(n):
        flat_a = flats[ia]
        fa = values[ia]
        for ib in range(n):
            if ia == ib:
                continue
            flat_b = flats[ib]
            floor = min(fa, values[ib])
            ok = False
            for i in range(k):
                if flat_a[i] <= flat_b[i]:
                    continue
                for j in range(k):
                    if flat_a[j] >= flat_b[j]:
                        continue
                    if (
                        exchanged(flat_a, i, j) >= floor
                        and exchanged(flat_b, j, i) >= floor
                    ):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return Verdict(False, witness=(domain[ia], domain[ib]))
    return Verdict(True)


def upper_contour(
    fn: Callable[[Distribution], Fraction],
    threshold,
    problem: Problem,
    budget: int = DEFAULT_XI0_BUDGET,
):
    """Distributions in the everyone-matched capacity set scoring at least
    ``threshold``."""
    return policy_members(f_lambda_goal(fn, threshold), problem, budget)


def indicator_of(members, problem: Problem) -> PolicyFunction:
    """The 0/1 score of membership in ``members`` within the everyone-matched
    capacity set; its level set at 1 reproduces that intersection exactly."""
    inside = frozenset(xi for xi in members if in_xi0(xi, problem))
    return PolicyFunction(kind="indicator", members=inside)


def manhattan_ideal(ideal: Distribution, problem: Problem) -> PolicyFunction:
    """Negative Manhattan distance to an ideal distribution.

    The ideal must itself match everyone within capacities.
    """
    if not in_xi0(ideal, problem):
        raise ValueError("ideal distribution must match every student within capacity")
    return PolicyFunction(kind="manhattan_ideal", ideal=ideal)


# -- implied bounds: n minus the maximum flow without the bounded arcs -------------


def _max_flow(problem: Problem, ceilings, left_out) -> int:
    """The maximum flow of source -> district (k_d) -> school (q_c) -> type
    (the school-type ceiling clamped to [0, q_c], or q_c) -> sink (k^t)
    without the school -> type arcs (c, t) that ``left_out`` picks, by
    shortest augmenting paths."""
    D, C, T = problem.num_districts, problem.num_schools, problem.num_types
    sink = 1 + D + C + T
    head = [[] for _ in range(sink + 1)]  # node -> its arcs; arc a ^ 1 reverses a
    to, cap = [], []

    def arc(u, v, q):
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((q, 0))

    for d in range(D):
        arc(0, 1 + d, problem.k_district[d])
    for c, q_c in enumerate(problem.capacities):
        arc(1 + problem.school_district[c], 1 + D + c, q_c)
        for t in range(T):
            if not left_out(c, t):
                q = ceilings.get((c, t))
                arc(1 + D + c, 1 + D + C + t, q_c if q is None else max(0, min(q, q_c)))
    for t in range(T):
        arc(1 + D + C + t, sink, problem.k_type[t])

    flow = 0
    while True:
        into = {0: None}  # node -> the arc a breadth-first search reached it by
        queue = [0]
        for u in queue:
            for a in head[u]:
                if cap[a] and to[a] not in into:
                    into[to[a]] = a
                    queue.append(to[a])
        if sink not in into:
            return flow
        path = []
        v = sink
        while v:
            path.append(into[v])
            v = to[into[v] ^ 1]
        push = min(cap[a] for a in path)
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push
        flow += push


def implied_bounds(problem: Problem, ceilings) -> dict:
    """For each (district, type): the least and greatest count of that type
    the district can serve across all legitimate matchings.

    ``ceilings`` maps (school, type) to a cap; missing pairs are capped only
    by school capacity, and negative caps admit no one.  Legitimate
    matchings are the flows of value n, so InfeasibleConstraints is raised
    when the full network's maximum flow is short of n.

    With m the maximum flow without a set A of arcs into one type t, the
    least flow A carries in a flow of value n is n - m.  Put cost 1 on A and
    0 elsewhere: successive shortest paths reach m at cost 0.  Every
    source-sink path crosses exactly one school -> type arc, and a simple
    path enters t at most once, so each later path costs at most 1, and at
    least 1 since no flow above m avoids A.  Every flow of value n
    saturates t's sink arc, so
        lo(d, t) = n - maxflow(without d's arcs into t)
        hi(d, t) = k^t - n + maxflow(without the other districts' arcs into t).
    """
    total = problem.num_students
    flow = _max_flow(problem, ceilings, lambda c, t: False)
    if flow < total:
        raise InfeasibleConstraints(
            f"constraint system routes only {flow} of {total} students"
        )
    home = problem.school_district
    out = {}
    for d in range(problem.num_districts):
        for t in range(problem.num_types):
            mine = _max_flow(problem, ceilings, lambda c, u: u == t and home[c] == d)
            others = _max_flow(problem, ceilings, lambda c, u: u == t and home[c] != d)
            out[(d, t)] = (total - mine, problem.k_type[t] - total + others)
    return out


def share_gaps(problem: Problem, high, low) -> tuple:
    """For each type t and ordered pair (d, d2) of districts home to some
    student: ``high(d, t)`` as a share of d's students minus ``low(d2, t)``
    as a share of d2's, as ((t, d, d2), gap) pairs in that order.  Districts
    with no home students have no share and are skipped."""
    k = problem.k_district
    homes = [d for d in range(problem.num_districts) if k[d]]
    return tuple(
        ((t, d, d2), Fraction(high(d, t), k[d]) - Fraction(low(d2, t), k[d2]))
        for t in range(problem.num_types)
        for d in homes
        for d2 in homes
        if d != d2
    )


@dataclass(frozen=True)
class ConditionReport:
    bounds: dict  # (district, type) -> (implied floor, implied ceiling)
    deltas: tuple  # of ((type, district, other_district), Fraction)
    max_delta: Fraction
    alpha: Fraction
    satisfied: bool


def diversity_condition(problem: Problem, ceilings, alpha) -> ConditionReport:
    """The implied-bounds ratio test: for every type and ordered pair of
    districts home to some student, ceiling share minus floor share must not
    exceed alpha."""
    alpha = Fraction(alpha)
    bounds = implied_bounds(problem, ceilings)
    deltas = share_gaps(problem, lambda d, t: bounds[d, t][1], lambda d, t: bounds[d, t][0])
    max_delta = max((v for _, v in deltas), default=Fraction(0))
    return ConditionReport(
        bounds=bounds,
        deltas=deltas,
        max_delta=max_delta,
        alpha=alpha,
        satisfied=max_delta <= alpha,
    )
