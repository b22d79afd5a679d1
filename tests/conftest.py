"""Shared pytest setup.

When a ``@given`` test fails, hypothesis's failure reporter imports
``hypothesis.extra._patching``, which imports ``libcst``; that import
raises a ``mypy_extensions`` ``DeprecationWarning``. Under the project's
``filterwarnings = ["error"]`` the warning became an INTERNALERROR that
ended the session at the first failing property test. Importing the module
once here, with that one warning ignored, leaves the error filter in force
for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
