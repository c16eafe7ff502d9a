import sys
from pathlib import Path

import pytest

# Make the package importable straight from the source tree and let test
# modules share helpers.py without installing anything.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spinchannels.invariant import _casimir_sectors  # noqa: E402


@pytest.fixture(autouse=True)
def empty_sector_cache():
    """Start and end every test with no spin's sectors kept.

    A test that patches the sector solve or its checks must reach them, not a
    basis an earlier test left in the process's cache.
    """
    _casimir_sectors.cache_clear()
    yield
    _casimir_sectors.cache_clear()
