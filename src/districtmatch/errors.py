"""Exception types shared across the package."""

from __future__ import annotations


class DistrictMatchError(Exception):
    """Base class for all package errors.

    ``trace`` is the partial trace of the mechanism run the error stopped,
    if any: the steps taken before it, with no outcome.
    """

    def __init__(self, *args, trace=None):
        self.trace = trace
        super().__init__(*args)


class ValidationError(DistrictMatchError):
    """Raised when an instance violates a structural invariant.

    Carries every violation found, not just the first, so a bad instance
    file can be fixed in one pass.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in self.issues))

    def codes(self):
        return [code for code, _ in self.issues]


class UnknownContract(DistrictMatchError):
    """A contract references a student or school the rule does not know."""


class NoCompletionConstruction(DistrictMatchError):
    """The rule kind has no defined completion (explicit tables)."""


class UniverseTooLarge(DistrictMatchError):
    """An exhaustive enumeration would exceed its configured budget."""

    def __init__(self, size, budget):
        self.size = size
        self.budget = budget
        super().__init__(f"enumeration universe has size {size}, budget is {budget}")


class RuleViolation(DistrictMatchError):
    """A choice function misbehaved during a mechanism run."""


class PolicyViolatedAtStart(DistrictMatchError):
    """The initial matching does not satisfy the policy goal."""


class Stuck(DistrictMatchError):
    """Trading stalled: students remain but no cycle can form.

    Under an M-convex goal this is unreachable, so hitting it usually
    means the goal set is not M-convex.
    """


class TypeMismatch(DistrictMatchError):
    """A permissibility query named a slot of a different type than the student."""


class InfeasibleConstraints(DistrictMatchError):
    """The bound-computation constraint system admits no solution."""


class NotApplicable(DistrictMatchError):
    """The instance does not have the structure the analysis requires."""


class SearchBudgetExceeded(DistrictMatchError):
    """Backtracking search ran out of its node budget."""

    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")
