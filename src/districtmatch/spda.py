"""Student-proposing deferred acceptance over district choice functions.

Proposals are simultaneous within a step; districts keep their tentative
set from the previous step plus the new proposals and choose from the
union.  The run terminates at the first step with no rejection.

A district with a spec rule that gets no new proposal in a step keeps what
it holds without re-choosing: those rules are idempotent (IRC implies
C(C(X)) = C(X)), so choosing again would return the held set.  Explicit
tables promise nothing of the kind and are re-evaluated every step.

A spec-rule district holds its tentative contracts in a ``rules.HeldSeats``,
by its rule's keys, school by school.  Each step hands it the new
proposals as (student, school) pairs, and ``choose`` re-picks only the
schools that got one (under a district cap it then walks every school's
room) and returns the pairs turned down; what it keeps is its part of the
outcome.  Explicit tables hold and choose sets of contracts.  A step logs
its proposals and rejections only, as pairs; ``SpdaTrace.steps`` builds
records from them when first read, for ``SpdaTrace.tentative``.

The intradistrict benchmark is the same loop with each student's list cut
to the schools of her home district.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Optional

from .errors import RuleViolation
from .model import Contract, Matching, Problem, Verdict, distribution_of, outcome_schools
from .policy import share_gaps
from .rules import Cutoffs, HeldSeats, RuleKind, choose, require_rules


@dataclass(frozen=True, slots=True)
class SpdaStep:
    """One step: ``proposals``, per district in index order the contracts
    proposed to it; ``rejected``, the contracts the districts turned down.

    A run's steps keep a contract: a trace starts from nothing held; a
    step's proposals are new to the districts; and its rejections come from
    what the districts held or were just proposed.  So the steps up to one
    fix what the districts hold after it (``SpdaTrace.tentative``).
    """

    proposals: tuple
    rejected: Matching


@dataclass(frozen=True, init=False)
class SpdaTrace:
    """A run's steps, outcome and ``read``, per student how many entries of
    her list the run consulted (a report sharing that prefix reruns the
    same).  ``pairs`` holds each step as (proposals per district as
    recorded, rejections) on (student, school) pairs; a run's trace builds
    its ``SpdaStep`` records from them when ``steps`` is first read."""

    steps: tuple  # the property below
    outcome: Matching
    read: tuple = field(default=(), compare=False)

    def __init__(self, steps, outcome, read=()):
        pair = attrgetter("student", "school")
        pairs = [
            ([(d, list(map(pair, X))) for d, X in step.proposals], list(map(pair, step.rejected)))
            for step in steps
        ]
        self.__dict__.update(_steps=steps, pairs=pairs, outcome=outcome, read=read)

    @classmethod
    def _logged(cls, log, problem, outcome, read=()):
        """The trace of a run on ``problem`` that logged ``log``."""
        trace = cls.__new__(cls)
        trace.__dict__.update(_steps=None, pairs=log, _contract=problem.contract)
        trace.__dict__.update(outcome=outcome, read=read)
        return trace

    @property
    def steps(self):
        if self._steps is None:
            def contracts(pairs):
                return frozenset([self._contract(s, c) for s, c in pairs])

            self.__dict__["_steps"] = tuple(
                SpdaStep(tuple((d, contracts(P)) for d, P in proposals), contracts(rejected))
                for proposals, rejected in self.pairs
            )
        return self._steps

    @property
    def num_steps(self):
        return len(self.pairs)

    def tentative(self):
        """Yield what the districts hold after each step, in one pass: the
        paper's tentative assignment."""
        held = set()
        for step in self.steps:
            for _, X in step.proposals:
                held |= X
            held -= step.rejected
            yield frozenset(held)


def run_spda(problem: Problem, rules) -> SpdaTrace:
    """Run deferred acceptance; ``rules`` maps district index -> RuleSpec."""
    return _deferred_acceptance(problem, rules, problem.preferences)


def run_intradistrict_spda(problem: Problem, rules) -> Matching:
    """Run deferred acceptance with each student proposing only to her home
    district's schools, in the relative order of her full preference list.
    No proposal crosses districts, so each district runs on its own."""
    home, district = problem.student_district, problem.school_district
    lists = [
        tuple(c for c in problem.preferences[s] if district[c] == home[s])
        for s in range(problem.num_students)
    ]
    return _deferred_acceptance(problem, rules, lists).outcome


def _deferred_acceptance(problem: Problem, rules, lists) -> SpdaTrace:
    """Deferred acceptance in which student ``s`` proposes down ``lists[s]``."""
    require_rules(problem, rules)
    D = problem.num_districts

    next_choice = [0] * problem.num_students  # pointer into the lists
    proposing = range(problem.num_students)
    tables = [rules[d].kind is RuleKind.EXPLICIT_TABLE for d in range(D)]
    # per district: the contracts a table holds, or a spec rule's HeldSeats
    # from its first proposal
    held = [frozenset() if tables[d] else None for d in range(D)]
    log = []  # per step: the proposals per district and the rejections, as pairs

    while True:
        proposals = [[] for _ in range(D)]
        for s in proposing:
            if next_choice[s] >= len(lists[s]):
                continue  # list exhausted; student stays unmatched
            c = lists[s][next_choice[s]]
            proposals[problem.school_district[c]].append((s, c))

        rejected = []
        for d in range(D):
            new = proposals[d]
            rule = rules[d]
            if tables[d]:
                pool = held[d].union(problem.contract(s, c) for s, c in new)
                chosen = choose(rule, pool, problem)
                if not chosen <= pool:
                    raise RuleViolation(
                        f"rule for {problem.district_ids[d]} chose outside its input",
                        trace=SpdaTrace._logged(log, problem, frozenset()),
                    )
                rejected += [(x.student, x.school) for x in pool - chosen]
                held[d] = chosen
                continue
            if not new:
                continue
            seats = held[d]
            if seats is None:
                seats = held[d] = HeldSeats(rule, problem)
            seats.new = new
            rejected += choose(rule, seats, problem)

        log.append((tuple(enumerate(proposals)), rejected))
        if not rejected:
            break
        # a student has one contract out, so none is turned down twice
        proposing = [s for s, _ in rejected]
        for s in proposing:
            next_choice[s] += 1

    outcome = [x for d in range(D) if tables[d] for x in held[d]]
    outcome += [x for X in held if isinstance(X, HeldSeats) for x in X.chosen()]
    read = tuple(min(i + 1, len(order)) for i, order in zip(next_choice, lists))
    return SpdaTrace._logged(log, problem, frozenset(outcome), read)


@dataclass(frozen=True)
class StabilityVerdict:
    holds: bool
    blocking_contract: Optional[Contract] = None
    shrinking_district: Optional[int] = None

    def __bool__(self):
        return self.holds


def is_stable(X: Matching, problem: Problem, rules) -> StabilityVerdict:
    """Stability: districts keep what they hold and no student-district
    pair blocks through an unchosen contract.

    Each district's rule chooses once, on what it holds; each blocking test
    is then answered from that choice's per-school cut-offs
    (``rules.Cutoffs``).
    """
    require_rules(problem, rules)
    by_district = {d: [] for d in range(problem.num_districts)}
    for x in X:
        by_district[x.district].append(x)
    cutoffs = []
    for d in range(problem.num_districts):
        state = Cutoffs(rules[d], frozenset(by_district[d]), problem)
        if not state.holds:
            return StabilityVerdict(False, shrinking_district=d)
        cutoffs.append(state)
    school_of = outcome_schools(X)
    for s in range(problem.num_students):
        current = school_of.get(s)
        for c in problem.preferences[s]:
            if c == current:
                break  # her own school and those below it cannot block
            d = problem.school_district[c]
            if (s, d, c) in X:  # a Contract equals the tuple of its fields
                continue
            if cutoffs[d].chooses(s, c):
                return StabilityVerdict(False, blocking_contract=problem.contract(s, c))
    return StabilityVerdict(True)


def check_individual_rationality(X: Matching, problem: Problem) -> Verdict:
    """Every student weakly prefers her outcome to her initial school."""
    worst = None
    worst_drop = 0
    school_of = outcome_schools(X)
    for s in range(problem.num_students):
        drop = problem.rank_of(s, school_of.get(s)) - problem.rank_of(
            s, problem.initial_school[s]
        )
        if drop > worst_drop:
            worst_drop = drop
            worst = s
    if worst is None:
        return Verdict(True)
    return Verdict(False, (worst,))


def check_balanced_exchange(X: Matching, problem: Problem) -> Verdict:
    """Each district serves exactly as many students as it is home to."""
    loads = [0] * problem.num_districts
    for x in X:
        loads[x.district] += 1
    for d in range(problem.num_districts):
        if loads[d] != problem.k_district[d]:
            return Verdict(False, (d, loads[d], problem.k_district[d]))
    return Verdict(True)


def type_ratio_gaps(X: Matching, problem: Problem) -> dict:
    """Per type, the largest difference of type shares across district pairs
    (``policy.share_gaps``), and 0 when no pair has a positive one."""
    count = partial(distribution_of(X, problem).district_type, problem)
    gaps = dict.fromkeys(range(problem.num_types), Fraction(0))
    for (t, _, _), gap in share_gaps(problem, count, count):
        gaps[t] = max(gaps[t], gap)
    return gaps


def alpha_diversity_gap(X: Matching, problem: Problem) -> Fraction:
    """Max over types and ordered district pairs of the type-share gap."""
    gaps = type_ratio_gaps(X, problem)
    return max(gaps.values()) if gaps else Fraction(0)
