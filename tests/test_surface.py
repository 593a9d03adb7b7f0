"""The package's surface: every module-level function and class is used by
the package itself or states a construct of the paper.  A helper only the
tests use belongs in the test module that uses it."""

import ast
from collections import Counter
from pathlib import Path

import districtmatch

PACKAGE = Path(districtmatch.__file__).parent

# the paper's constructs that no package code calls, as listed under "The
# surface sweeps are done" in ROADMAP.md
PAPER_CONSTRUCTS = {
    "is_feasible",
    "enumerate_stable_matchings",
    "replay_impossibility",
    "find_welfare_regression",
    "balanced_exchange_goal",
    "school_diversity_goal",
    "combination_goal",
    "district_ceilings_goal",
    "explicit_goal",
    "f_lambda_goal",
    "is_pseudo_mconcave",
    "upper_contour",
    "indicator_of",
    "manhattan_ideal",
    "find_exchange_violation",
    "completion_of",
    "favor_own_students",
    "is_permissible",
    "build_hypothetical",
    "HypotheticalMarket",
    "load_fixture",
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules):
    return [
        (name, node)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _names_read(tree):
    """How often ``tree`` reads each identifier as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used_by_the_package_or_a_paper_construct():
    # imports (``__init__``'s re-exports among them) bind names without
    # reading them, and docstrings are strings, so neither counts; nor do
    # the reads inside a definition's own body
    modules = _modules()
    read = Counter()
    for name, tree in modules.items():
        if name != "__init__.py":
            read += _names_read(tree)
    unused = [
        f"{module}:{node.name}"
        for module, node in _definitions(modules)
        if node.name not in PAPER_CONSTRUCTS
        and read[node.name] == _names_read(node)[node.name]
    ]
    assert unused == []


def test_every_paper_construct_is_defined():
    defined = {node.name for _, node in _definitions(_modules())}
    assert PAPER_CONSTRUCTS <= defined
