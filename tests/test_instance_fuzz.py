"""Mutated instance files through every subcommand: a malformed instance
exits with a listed ValidationError (code 2), never with a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districtmatch.cli import main
from districtmatch.fixtures import FIXTURE_NAMES, fixture_path

# every subcommand, with budgets and properties that keep one run cheap
COMMANDS = (
    ("run", "--mechanism", "spda"),
    ("run", "--mechanism", "spda-intra"),
    ("run", "--mechanism", "ttc"),
    ("check-rule", "--district", "d1", "--properties", "rationed", "weakly_acceptant"),
    ("bounds",),
    ("audit", "--mechanism", "spda", "--budget", "20"),
    ("audit", "--mechanism", "ttc", "--budget", "20"),
    ("audit", "--mechanism", "efficient-selector", "--budget", "2"),
    ("policy-check",),
    ("nonexistence", "--district", "d1", "--budget", "200"),
)

# what a value may be swapped for: each JSON type, a known id and an unknown one
SWAPS = (None, True, 0, -1, 2, 1.5, "x", "c1", [], ["s1"], {}, {"t1": 1})


def _nodes(value, path=()):
    """Every (path, value) below the root of a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _nodes(child, path + (key,))


def mutate(doc, pick, how, swap):
    """Apply one edit at the ``pick``-th node of ``doc``: drop it, swap it
    for another JSON value, dangle the id it is or is keyed by, or
    duplicate it within its container."""
    nodes = list(_nodes(doc))
    if not nodes:
        return
    path, node = nodes[pick % len(nodes)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "swap":
        parent[key] = copy.deepcopy(swap)
    elif how == "dangle" and isinstance(node, str):
        parent[key] = "zz9"
    elif how == "dangle" and isinstance(parent, dict):
        parent["zz9"] = parent.pop(key)
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif isinstance(parent, dict):
        keys = list(parent)
        parent[keys[pick // len(nodes) % len(keys)]] = copy.deepcopy(node)


EDITS = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(("drop", "swap", "dangle", "duplicate")),
    st.sampled_from(SWAPS),
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(FIXTURE_NAMES),
    edits=st.lists(EDITS, min_size=1, max_size=3),
    command=st.sampled_from(COMMANDS),
)
def test_mutated_instances_never_crash(path, name, edits, command):
    doc = json.loads(fixture_path(name).read_text())
    for edit in edits:
        mutate(doc, *edit)
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in {0, 2, 3, 4, 5, 6}, err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("validation error: ", "cannot read instance: "))
