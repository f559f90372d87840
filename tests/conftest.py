"""Suite-wide set-up.

On a failing property test the hypothesis plugin imports
``hypothesis.extra._patching``, which pulls in ``libcst`` and through it
``mypy_extensions.TypedDict``, whose DeprecationWarning ``-W error`` turns
into an INTERNALERROR that ends the session.  Importing the module once
here, with that warning ignored for this import only, reports the failure
as a failed test instead.  Without ``libcst`` the plugin skips the import
too, so an ImportError is passed over.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
