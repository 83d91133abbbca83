"""Tests for shard backend selection.

Every shard runs in the service's own process; ``backend`` names that
placement and accepts only ``"inproc"``.  The shard handle itself is
exercised by every other service test.
"""

import pytest

from repro.service import PredictionService
from tests.service.test_service import fast_config, fleet_events, stream


class TestMakeBackend:
    def test_by_name(self, catalog):
        service = stream(
            PredictionService(fast_config(), catalog=catalog, backend="inproc"),
            fleet_events(weeks=3),
        )
        assert service.summary().n_events == len(fleet_events(weeks=3))

    def test_unknown_name_rejected(self, catalog):
        for name in ("remote", "subprocess", None):
            with pytest.raises(ValueError, match="unknown shard backend"):
                PredictionService(fast_config(), catalog=catalog, backend=name)
