import pytest

from toricfano.atlas import record_fan, shipped_database


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False, help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    # the slow sweeps run only when asked for, e.g. pytest --runslow -m slow
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def database():
    return shipped_database()


@pytest.fixture(scope="session")
def fans(database):
    """One built fan per bundled variety, shared so memo caches amortize."""
    return {rec.name: record_fan(rec) for rec in database}
