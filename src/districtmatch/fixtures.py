"""Shipped worked instances, loadable by name."""

from __future__ import annotations

from importlib import resources

from .instances import Instance, load_instance

FIXTURE_NAMES = (
    "spda_basic",
    "spda_respecting",
    "spda_rationed",
    "impossibility",
    "ttc_diversity",
    "reserves_diversity",
    "nonexistence",
    "ttc_stuck",
)


def fixture_path(name: str):
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    return resources.files(__package__) / "fixtures" / f"{name}.json"


def load_fixture(name: str) -> Instance:
    with resources.as_file(fixture_path(name)) as path:
        return load_instance(path)
