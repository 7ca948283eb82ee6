"""Pytest path bootstrap and warning policy.

Adds ``src/`` to ``sys.path`` so the test and benchmark suites run even when
the package has not been installed (e.g. offline environments where
``pip install -e .`` cannot fetch build dependencies).  When the package is
properly installed this is a harmless no-op.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    """Turn numerical warnings into test failures: a scipy
    ``BadCoefficients`` or a ``RuntimeWarning`` (overflow, invalid value,
    division by zero) means a result may be meaningless."""
    config.addinivalue_line("filterwarnings",
                            "error::scipy.signal.BadCoefficients")
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
