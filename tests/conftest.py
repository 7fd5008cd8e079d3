import sys
from pathlib import Path

import pytest

from statepool import linalg

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts with linalg's memo of recently checked operands empty, so no
    decomposition count or memo hit depends on the tests that ran before it."""
    linalg._memo = ()
