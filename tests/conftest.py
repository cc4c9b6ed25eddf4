"""Session set-up shared by every test module."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # Hypothesis caches the constants it mines from local source files, at
    # collection time and even with no example database. Keep that cache in a
    # directory removed when the session ends, not in .hypothesis/ here.
    home = tempfile.TemporaryDirectory(prefix="wsnroute-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
