import faulthandler
import os
import pathlib
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from affinejd import golden  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS_DIR = REPO_ROOT / "models"


# How long one test may run before the run ends with every thread's stack:
# far past any test's own budget (acceptance criterion 3's is 60 s), so
# that a deadlock fails the suite instead of hanging it.
HANG_SECONDS = 300
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of stderr taken before pytest captures it, which would drop
    # what faulthandler writes just before it ends the process.
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def hang_guard(pytestconfig):
    """End the run with the stacks of all threads if the test hangs."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves behind a thread it started."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before and thread.is_alive()]
    if left:
        pytest.fail(f"threads still running after the test: {left}")


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR


@pytest.fixture(scope="session")
def cir_model():
    return golden.cir()


@pytest.fixture(scope="session")
def ou_model():
    return golden.ou()


@pytest.fixture(scope="session")
def cp_model():
    return golden.compound_poisson()


@pytest.fixture(scope="session")
def wishart_model():
    return golden.wishart_2d()


@pytest.fixture(scope="session")
def lorentz_model():
    return golden.lorentz_drift()


@pytest.fixture(scope="session")
def bad_model():
    return golden.nonadmissible_2d()


@pytest.fixture(scope="session")
def squared_model():
    return golden.squared_scalar()
