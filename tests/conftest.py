import sys
from pathlib import Path

import pytest

# Make the package importable straight from the source tree and let test
# modules share helpers.py without installing anything.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spinchannels.channel import _isotropic_channel  # noqa: E402
from spinchannels.invariant import _casimir_sectors  # noqa: E402


@pytest.fixture(autouse=True)
def empty_spin_caches():
    """Start and end every test with no spin's sectors or isotropic channel kept.

    A test that patches the sector solve, its checks or what the channel is
    built from must reach them, not a basis or channel an earlier test left
    in the process's cache.
    """
    for cache in (_casimir_sectors, _isotropic_channel):
        cache.cache_clear()
    yield
    for cache in (_casimir_sectors, _isotropic_channel):
        cache.cache_clear()
