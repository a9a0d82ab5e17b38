"""Session setup shared by every test module.

When a property test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to print an explicit-example patch.  That module
imports libcst, whose import emits mypy_extensions' DeprecationWarning, and
pyproject.toml makes every DeprecationWarning an error: raised inside
pytest's report hook, it would end the session with INTERNALERROR instead
of reporting the failure.  Importing the module once here, with its warnings
caught, leaves nothing for the hook to import.  The policy itself is
unchanged for every test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
