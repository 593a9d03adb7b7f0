"""Interdistrict school choice: mechanisms, policy checkers, and audit oracles."""

from .errors import (
    DistrictMatchError,
    InfeasibleConstraints,
    NoCompletionConstruction,
    NotApplicable,
    PolicyViolatedAtStart,
    RuleViolation,
    SearchBudgetExceeded,
    Stuck,
    TypeMismatch,
    UniverseTooLarge,
    UnknownContract,
    ValidationError,
)
from .model import (
    Contract,
    Distribution,
    FeasibilityReport,
    Matching,
    Problem,
    ProblemSpec,
    distribution_of,
    is_feasible,
    pareto_dominates,
    validate_problem,
    with_preferences,
)
from .rules import (
    RuleKind,
    RuleProperty,
    RuleSpec,
    check_property,
    choose,
    completion_of,
    favor_own_students,
    make_rule,
)
from .spda import (
    SpdaTrace,
    alpha_diversity_gap,
    check_balanced_exchange,
    check_individual_rationality,
    is_stable,
    run_intradistrict_spda,
    run_spda,
    type_ratio_gaps,
)
from .policy import (
    GoalForm,
    PolicyFunction,
    PolicyGoal,
    balanced_exchange_goal,
    combination_goal,
    contains,
    district_ceilings_goal,
    diversity_condition,
    enumerate_xi0,
    explicit_goal,
    f_lambda_goal,
    find_exchange_violation,
    implied_bounds,
    indicator_of,
    is_mconvex,
    is_pseudo_mconcave,
    manhattan_ideal,
    policy_members,
    school_diversity_goal,
    upper_contour,
)
from .ttc import HypotheticalMarket, TtcTrace, build_hypothetical, is_permissible, run_ttc
from .oracle import (
    AuditReport,
    ImpossibilityCertificate,
    SearchResult,
    audit_strategy_proofness,
    constrained_efficient_ir_matchings,
    enumerate_feasible_matchings,
    enumerate_ir_matchings,
    enumerate_stable_matchings,
    find_welfare_regression,
    replay_impossibility,
    search_rule_nonexistence,
)
from .instances import (
    Instance,
    instance_from_dict,
    load_instance,
)
from .fixtures import FIXTURE_NAMES, load_fixture

__version__ = "0.1.0"
