"""Shared test configuration."""

import atexit
import os
import shutil
import tempfile

from hypothesis import settings

# Derandomized with no example database: every run draws the same examples.
# No deadline, because the brute-force oracles the properties call are slow
# by design.
settings.register_profile("lislab", derandomize=True, database=None, deadline=None)
settings.load_profile("lislab")

# Hypothesis still caches source constants and unicode tables on disk; keep
# them in a throwaway directory rather than a .hypothesis/ in the work tree.
_storage = tempfile.mkdtemp(prefix="lislab-hypothesis-")
atexit.register(shutil.rmtree, _storage, ignore_errors=True)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage)
