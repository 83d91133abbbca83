"""Multi-stream prediction service: shard the online pipeline by location.

N independent prediction streams behind one router.  The service routes
each RAS event to a shard by a partition key
(:mod:`repro.service.partition`), runs each shard as an in-process
session (:class:`~repro.service.backends.ShardHandle`), and owns a
fleet-level checkpoint/journal directory so the whole fleet recovers
crash-consistently (:mod:`repro.service.service`)::

    from repro.service import PredictionService

    with PredictionService(config, fleet_dir="fleet") as service:
        for event in log:
            warnings.extend(service.ingest(event))
        warnings.extend(service.flush())
        service.checkpoint()
    # later, after a crash:
    service = PredictionService.recover("fleet")
"""

from repro.service.backends import ShardHandle
from repro.service.partition import (
    FleetRouter,
    HashRouter,
    LocationRouter,
    Router,
    RoutingRule,
    make_router,
    router_from_spec,
)
from repro.service.resharding import ReshardError
from repro.service.service import (
    FleetSummary,
    PredictionService,
    ShardDown,
)
from repro.service.supervisor import ShardHealth, ShardSupervisor

__all__ = [
    "FleetRouter",
    "FleetSummary",
    "HashRouter",
    "LocationRouter",
    "PredictionService",
    "ReshardError",
    "Router",
    "RoutingRule",
    "ShardDown",
    "ShardHandle",
    "ShardHealth",
    "ShardSupervisor",
    "make_router",
    "router_from_spec",
]
