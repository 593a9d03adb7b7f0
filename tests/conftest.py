"""Session fixtures: the shipped instances, loaded once."""

import pytest

import districtmatch as dm


@pytest.fixture(scope="session")
def basic():
    return dm.load_fixture("spda_basic")


@pytest.fixture(scope="session")
def respecting():
    return dm.load_fixture("spda_respecting")


@pytest.fixture(scope="session")
def rationed():
    return dm.load_fixture("spda_rationed")


@pytest.fixture(scope="session")
def impossibility():
    return dm.load_fixture("impossibility")


@pytest.fixture(scope="session")
def ttc_diversity():
    return dm.load_fixture("ttc_diversity")


@pytest.fixture(scope="session")
def reserves_diversity():
    return dm.load_fixture("reserves_diversity")


@pytest.fixture(scope="session")
def nonexistence():
    return dm.load_fixture("nonexistence")


@pytest.fixture(scope="session")
def ttc_stuck():
    return dm.load_fixture("ttc_stuck")
