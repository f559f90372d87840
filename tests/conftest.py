"""Suite-wide set-up.

On a failing property test the hypothesis plugin imports
``hypothesis.extra._patching``, which pulls in ``libcst`` and through it
``mypy_extensions.TypedDict``, whose DeprecationWarning ``-W error`` turns
into an INTERNALERROR that ends the session.  Importing the module once
here, with that warning ignored for this import only, reports the failure
as a failed test instead.  Without ``libcst`` the plugin skips the import
too, so an ImportError is passed over.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import indivisible

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this package from
    the same directory as the tests do; return its standard output."""
    env = dict(os.environ)
    package_root = str(Path(indivisible.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)

    def run(source: str) -> str:
        proc = subprocess.run([sys.executable, "-c", source],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
