"""Test-only references for ``districtmatch.policy``.

``is_mconvex_reference`` is the direct quadratic check: every ordered pair
of members through ``find_exchange_violation``.  ``is_mconvex_numpy`` is
the vectorised check the package used before its pure-Python bitset check,
kept verbatim; it needs numpy, so its tests skip when numpy is missing.

``contains`` and ``satisfies_with_feasibility`` are the membership tests the
package used before it built each goal's linear constraints once
(``GoalBounds``), kept verbatim with the ``PolicyGoal.floor`` and
``PolicyGoal.ceiling`` scans as functions: they re-derive every constraint
on each call, the first pair of a repeated floor or ceiling key counting.

``legitimate_distributions`` is the brute-force ground truth for the flow
bounds, a filter over every member of Ξ₀ through that ``contains``.
"""

from __future__ import annotations

from typing import Iterable

from districtmatch.errors import UniverseTooLarge
from districtmatch.model import Distribution, Problem, Verdict
from districtmatch.policy import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_XI0_BUDGET,
    GoalForm,
    PolicyGoal,
    combination_goal,
    enumerate_xi0,
    find_exchange_violation,
    in_xi0,
)

try:
    import numpy as np
except ImportError:
    np = None


def is_mconvex_reference(members) -> Verdict:
    """Direct quadratic implementation used to cross-check the fast path."""
    members = list(members)
    for a in members:
        for b in members:
            if a == b:
                continue
            coord = find_exchange_violation(members, a, b)
            if coord is not None:
                return Verdict(False, witness=(a, b, coord))
    return Verdict(True)


class _PackedSet:
    """Distributions packed into bit-field integers for O(1) exchange tests."""

    def __init__(self, members: Iterable[Distribution]):
        self.members = list(members)
        if not self.members:
            self.coords = 0
            return
        first = self.members[0]
        self.num_schools = len(first.counts)
        self.num_types = len(first.counts[0])
        self.coords = self.num_schools * self.num_types
        max_entry = max(v for xi in self.members for row in xi.counts for v in row)
        self.shift = max(2, (max_entry + 2).bit_length())
        self.place = [1 << (self.shift * k) for k in range(self.coords)]
        self.flats = [xi.flat() for xi in self.members]
        self.codes = [self._pack(f) for f in self.flats]
        self.codeset = set(self.codes)

    def _pack(self, flat):
        code = 0
        for k, v in enumerate(flat):
            code |= v << (self.shift * k)
        return code

    def coord(self, k):
        return divmod(k, self.num_types)  # (school, type)


def is_mconvex_numpy(
    members, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> Verdict:
    """Exhaustive exchange-property check of a finite set of distributions.

    Fails with the first witness in scan order: first distribution pair in
    member order, then surplus coordinates type-major (all schools for one
    type before the next type).
    """
    members = list(members)
    n = len(members)
    if n <= 1:
        return Verdict(True)
    packed = _PackedSet(members)
    k = packed.coords
    if n * n * k > pair_budget:
        raise UniverseTooLarge(n * n * k, pair_budget)

    D = np.array(packed.flats, dtype=np.int64)
    pow2 = (1 << np.arange(k, dtype=np.int64)).astype(np.int64)

    # Single-exchange feasibility bitmasks:
    #   R[m, i] has bit j set when member m minus coord i plus coord j stays in.
    #   T[m, i] has bit j set when member m plus coord i minus coord j stays in.
    codes = packed.codes
    codeset = packed.codeset
    place = packed.place
    R = np.zeros((n, k), dtype=np.int64)
    T = np.zeros((n, k), dtype=np.int64)
    for m in range(n):
        flat = packed.flats[m]
        code = codes[m]
        for i in range(k):
            r_bits = 0
            t_bits = 0
            ci = code + place[i]
            for j in range(k):
                if j == i:
                    continue
                if flat[i] > 0 and (code - place[i] + place[j]) in codeset:
                    r_bits |= 1 << j
                if flat[j] > 0 and (ci - place[j]) in codeset:
                    t_bits |= 1 << j
            R[m, i] = r_bits
            T[m, i] = t_bits

    # type-major coordinate scan: coordinate k = school * num_types + type
    scan = sorted(range(k), key=lambda kk: (kk % packed.num_types, kk // packed.num_types))

    for a in range(n):
        diffs = D - D[a]  # diffs[b, j] = member_b[j] - member_a[j]
        defm = ((diffs > 0).astype(np.int64) * pow2).sum(axis=1)
        surplus = diffs < 0  # coords where member_a exceeds member_b
        for i in scan:
            rows = surplus[:, i]
            if not rows.any():
                continue
            ok = (int(R[a, i]) & T[:, i] & defm) != 0
            viol = rows & ~ok
            if viol.any():
                b = int(np.argmax(viol))
                return Verdict(
                    False,
                    witness=(members[a], members[b], packed.coord(i)),
                )
    return Verdict(True)


# -- goal membership ---------------------------------------------------------------


def floor(goal, school, type_):
    for (c, t), p in goal.floors:
        if c == school and t == type_:
            return p
    return 0


def ceiling(goal, school, type_):
    for (c, t), q in goal.ceilings:
        if c == school and t == type_:
            return q
    return None


def district_total(xi: Distribution, problem: Problem, district: int) -> int:
    return sum(sum(xi.counts[c]) for c in problem.district_schools[district])


def contains(goal: PolicyGoal, xi: Distribution, problem: Problem) -> bool:
    """Membership of a distribution in the goal's set."""
    if goal.intersect_xi0 and not in_xi0(xi, problem):
        return False
    if goal.form is GoalForm.EXPLICIT_SET:
        return xi in goal.explicit
    if goal.form is GoalForm.BALANCED_EXCHANGE:
        return all(
            district_total(xi, problem, d) == problem.k_district[d]
            for d in range(problem.num_districts)
        )
    if goal.form is GoalForm.SCHOOL_DIVERSITY:
        return _within_box(goal, xi, problem)
    if goal.form is GoalForm.COMBINATION:
        return _within_box(goal, xi, problem) and all(
            district_total(xi, problem, d) == problem.k_district[d]
            for d in range(problem.num_districts)
        )
    if goal.form is GoalForm.F_LAMBDA:
        return goal.fn(xi) >= goal.threshold
    if goal.form is GoalForm.DISTRICT_CEILINGS:
        for (d, t), q in goal.district_ceilings:
            if xi.district_type(problem, d, t) > q:
                return False
        return all(
            xi.school_total(c) <= problem.capacities[c]
            for c in range(problem.num_schools)
        )
    raise ValueError(goal.form)


def _within_box(goal, xi, problem):
    for c in range(problem.num_schools):
        for t in range(problem.num_types):
            v = xi.school_type(c, t)
            if v < floor(goal, c, t):
                return False
            q = ceiling(goal, c, t)
            if q is not None and v > q:
                return False
    return True


def satisfies_with_feasibility(goal: PolicyGoal, xi: Distribution, problem) -> bool:
    """Goal membership together with the everyone-matched capacity set.

    Trading mechanics keep the total constant, so intersecting adds exactly
    the school-capacity requirement.
    """
    return in_xi0(xi, problem) and contains(goal, xi, problem)


def legitimate_distributions(
    problem: Problem, ceilings, budget: int = DEFAULT_XI0_BUDGET
):
    """Brute-force ground truth for the flow bounds: everyone matched,
    district totals met, type totals met, school-type ceilings respected."""
    goal = combination_goal(ceilings=ceilings)
    return [
        xi
        for xi in enumerate_xi0(problem, budget)
        if contains(goal, xi, problem)
        and all(
            sum(row[t] for row in xi.counts) == problem.k_type[t]
            for t in range(problem.num_types)
        )
    ]
