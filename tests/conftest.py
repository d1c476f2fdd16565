"""One hypothesis profile for the suite: reproducible and offline.

Derandomized runs draw the same examples every time, ``database=None``
keeps no example database, and with no deadline a slow exact construction
is not mistaken for a flaky test.  Hypothesis also caches the literals it
finds in the source, already while tests are collected; that cache goes
to a temporary directory removed when the session ends, so a run leaves
no ``.hypothesis/`` directory in the tree.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "unimet", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("unimet")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
