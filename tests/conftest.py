"""Test-session setup.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` (and
with it ``libcst``) only when it reports a failing example, and that
import warns (``mypy_extensions.TypedDict`` is deprecated).  Under
``-W error`` the warning turned the report into an INTERNALERROR that
ended the session.  Importing the module once here, with its own
warnings ignored, lets the report run; no warning raised by bmalg is
affected.

The ``cold_tables`` fixture empties the library's process-global search
tables.
"""

import importlib
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst or the module itself missing
        pass


@pytest.fixture
def cold_tables():
    """Empty the search tables before the test and after it, and return
    the ``clear()`` that empties them: the ``rank._bm_layout`` cache with
    its mask and solution tables, the ``nullity._invertible_actions``
    cache and ``nullity._COMPLETIONS``."""
    rank = importlib.import_module("bmalg.rank")
    nullity = importlib.import_module("bmalg.nullity")
    # read now: a test may patch the names
    caches = (rank._bm_layout, nullity._invertible_actions)
    completions = nullity._COMPLETIONS

    def clear():
        for cache in caches:
            cache.cache_clear()
        completions.clear()

    clear()
    yield clear
    clear()
