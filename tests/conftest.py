"""Test-session setup.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` (and
with it ``libcst``) only when it reports a failing example, and that
import warns (``mypy_extensions.TypedDict`` is deprecated).  Under
``-W error`` the warning turned the report into an INTERNALERROR that
ended the session.  Importing the module once here, with its own
warnings ignored, lets the report run; no warning raised by bmalg is
affected.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst or the module itself missing
        pass
