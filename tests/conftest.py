"""Shared test set-up: one deterministic Hypothesis profile.

Property tests draw a fixed example sequence (``derandomize``), keep no
example database and have no per-example deadline, so every run of the
suite draws the same examples.  Hypothesis still caches the constants it
collects from the package sources; that cache goes to a temporary
directory removed at the end of the run, so the suite writes no
``.hypothesis/`` directory into the tree.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("regimelq", derandomize=True, database=None, deadline=None)
settings.load_profile("regimelq")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
