"""Pytest path bootstrap, warning policy and the reference-engine oracle.

Adds ``src/`` to ``sys.path`` so the test and benchmark suites run even when
the package has not been installed (e.g. offline environments where
``pip install -e .`` cannot fetch build dependencies).  When the package is
properly installed this is a harmless no-op.
"""

import contextlib
import os
import sys
from unittest import mock

import pytest

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


@contextlib.contextmanager
def _reference_engines():
    """Run the bit-true stages on their exact reference engines.

    The library picks each stage's engine from word widths alone; this
    patches its two private engine guards false, which is how the tests
    and benches reach the slow-but-exact engines they compare against.
    """
    from repro.filters import hogenauer, polyphase

    with mock.patch.object(hogenauer, "_use_vectorized_engine",
                           lambda width: False), \
            mock.patch.object(polyphase, "_use_int64_engine",
                              lambda samples, abs_multiplier_sum: False):
        yield


@pytest.fixture(scope="session")
def reference_engines():
    """Context-manager factory forcing the reference engines (the oracle):
    ``with reference_engines(): chain.process_fixed(codes)``."""
    return _reference_engines
