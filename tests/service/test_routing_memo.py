"""The service's per-location routing memo.

:meth:`PredictionService.shard_key` memoizes the router per location.
The memo belongs to the router it was filled under: a live split or
merge installs a new router, and so must a recovery, so a location that
moved is routed to its new shard from the next event on.  Every ingest
surface (``ingest``, ``ingest_batch`` and the TCP server) routes through
the same memo and must agree on every key.
"""

from collections import Counter

import pytest

from repro.service import FleetRouter, HashRouter, PredictionService
from repro.net.client import PredictionClient
from repro.net.server import serve_in_thread
from tests.conftest import make_event
from tests.service.test_resharding import (
    LOCS,
    PRECURSOR_A,
    durable_service,
    fast_config,
    fleet_events,
)

#: more locations than LOCS, so every split child receives some
MANY_LOCS = LOCS + [f"R{r:02d}-M{m}-N{n:02d}" for r in range(5, 9)
                    for m in (0, 1) for n in (2, 5)]


def _probe(location, t):
    return make_event(t, PRECURSOR_A, location=location)


def _keys(service, locations):
    return {loc: service.shard_key(_probe(loc, 0.0)) for loc in locations}


def _raw_keys(router, locations):
    return {loc: router.key(_probe(loc, 0.0)) for loc in locations}


class TestMemo:
    def test_new_router_starts_a_new_memo(self, catalog):
        service = PredictionService(
            fast_config(), router=HashRouter(2), catalog=catalog
        )
        before = _keys(service, MANY_LOCS)
        assert before == _raw_keys(service.router, MANY_LOCS)
        service.router = HashRouter(5)
        after = _keys(service, MANY_LOCS)
        assert after == _raw_keys(HashRouter(5), MANY_LOCS)
        assert after != before
        service.close()


class TestReshardInvalidates:
    def _moved_location_reaches(self, service, moved, t):
        """Ingest one event at each moved location through ingest_batch;
        each must land in the shard its new key names."""
        counts = {k: service.session(k).n_ingested for k in service.shard_keys}
        batch = [_probe(loc, t + i) for i, loc in enumerate(sorted(moved))]
        service.ingest_batch(batch)
        for key, n in Counter(moved.values()).items():
            assert service.session(key).n_ingested == counts.get(key, 0) + n

    def test_split_routes_moved_locations_to_children(
        self, catalog, tmp_path
    ):
        events = fleet_events(weeks=3, locations=MANY_LOCS)
        service = durable_service(tmp_path, catalog)
        service.ingest_batch(events)
        before = _keys(service, MANY_LOCS)
        children = service.split_shard("shard-000", 2)
        after = _keys(service, MANY_LOCS)
        assert after == _raw_keys(service.router, MANY_LOCS)
        moved = {loc: k for loc, k in after.items() if k != before[loc]}
        assert moved and set(moved.values()) == set(children)
        self._moved_location_reaches(
            service, moved, events[-1].timestamp + 1.0
        )
        service.close()

    def test_merge_routes_moved_locations_to_target(self, catalog, tmp_path):
        events = fleet_events(weeks=3, locations=MANY_LOCS)
        service = durable_service(tmp_path, catalog, shards=3)
        service.ingest_batch(events)
        before = _keys(service, MANY_LOCS)
        target = service.merge_shards(["shard-000", "shard-002"])
        after = _keys(service, MANY_LOCS)
        assert after == _raw_keys(service.router, MANY_LOCS)
        moved = {loc: k for loc, k in after.items() if k != before[loc]}
        assert moved and set(moved.values()) == {target}
        self._moved_location_reaches(
            service, moved, events[-1].timestamp + 1.0
        )
        service.close()

    def test_recovered_service_routes_the_same(self, catalog, tmp_path):
        events = fleet_events(weeks=3, locations=MANY_LOCS)
        service = durable_service(tmp_path, catalog)
        service.ingest_batch(events)
        service.split_shard("shard-001", 3)
        live = _keys(service, MANY_LOCS)
        service.checkpoint()
        service.close()

        recovered = PredictionService.recover(
            tmp_path / "fleet", fast_config(), catalog=catalog
        )
        assert isinstance(recovered.router, FleetRouter)
        assert _keys(recovered, MANY_LOCS) == live
        recovered.close()


class TestSurfacesAgree:
    def _events(self):
        return fleet_events(weeks=3, locations=MANY_LOCS)

    def _service(self, catalog):
        return PredictionService(
            fast_config(), router=HashRouter(3), catalog=catalog
        )

    def _ingested(self, service):
        return {k: service.session(k).n_ingested for k in service.shard_keys}

    def test_ingest_and_ingest_batch_agree(self, catalog):
        events = self._events()
        single, batched = self._service(catalog), self._service(catalog)
        for event in events:
            single.ingest(event)
        for i in range(0, len(events), 7):
            batched.ingest_batch(events[i:i + 7])
        assert self._ingested(single) == self._ingested(batched)
        for key in single.shard_keys:
            assert single.warnings(key) == batched.warnings(key)
        single.close()
        batched.close()

    @pytest.mark.net
    def test_server_agrees_with_ingest(self, catalog):
        events = self._events()
        single, served = self._service(catalog), self._service(catalog)
        for event in events:
            single.ingest(event)
        with serve_in_thread(served, batch_size=16) as server:
            with PredictionClient(server.host, server.port) as client:
                assert client.stream(events) == len(events)
                client.flush()
            # the server's per-shard queues carry the engine's keys
            assert set(server._shards) == set(single.shard_keys)
        assert self._ingested(served) == self._ingested(single)
        for key in single.shard_keys:
            assert served.warnings(key) == single.warnings(key)
        single.close()
