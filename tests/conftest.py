"""Shared fixtures: catalogs, event factories and cached synthetic traces."""

from __future__ import annotations

import os
import socket

import pytest

from repro.raslog.catalog import default_catalog
from repro.raslog.events import Facility, RASEvent, Severity
from repro.raslog.generator import GeneratorConfig, generate_log
from repro.raslog.profiles import ANL_PROFILE, SDSC_PROFILE
from repro.raslog.store import EventLog


def _sockets_unavailable() -> str | None:
    """Why ``net``-marked tests cannot run here, or None if they can."""
    if os.environ.get("REPRO_SKIP_NET_TESTS"):
        return "REPRO_SKIP_NET_TESTS is set"
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError as exc:
        return f"cannot bind a loopback socket: {exc}"
    return None


def pytest_collection_modifyitems(config, items):
    reason = _sockets_unavailable()
    if reason is None:
        return
    skip = pytest.mark.skip(reason=f"net tests skipped: {reason}")
    for item in items:
        if "net" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def small_trace():
    """Small SDSC trace with duplicates, for preprocessing tests."""
    return generate_log(
        SDSC_PROFILE,
        GeneratorConfig(scale=0.3, weeks=10, seed=42, duplicates=True),
    )


@pytest.fixture(scope="session")
def mid_trace():
    """40-week full-volume SDSC trace (logical events only)."""
    return generate_log(
        SDSC_PROFILE,
        GeneratorConfig(scale=1.0, weeks=40, seed=7, duplicates=False),
    )


@pytest.fixture(scope="session")
def anl_trace():
    """30-week ANL trace (logical events only)."""
    return generate_log(
        ANL_PROFILE,
        GeneratorConfig(scale=0.5, weeks=30, seed=5, duplicates=False),
    )


def make_event(
    timestamp: float,
    entry_data: str = "some event",
    facility: Facility = Facility.KERNEL,
    severity: Severity = Severity.INFO,
    location: str = "R00-M0-N00",
    job_id: int = 1,
    record_id: int = 0,
) -> RASEvent:
    """Terse event constructor for unit tests."""
    return RASEvent(
        record_id=record_id,
        event_type="RAS",
        timestamp=timestamp,
        job_id=job_id,
        location=location,
        entry_data=entry_data,
        facility=facility,
        severity=severity,
    )


def make_log(specs, origin: float = 0.0) -> EventLog:
    """Build an EventLog from (timestamp, entry_data[, kwargs]) tuples."""
    events = []
    for i, spec in enumerate(specs):
        t, code, *rest = spec
        kwargs = rest[0] if rest else {}
        events.append(make_event(t, code, record_id=i, **kwargs))
    return EventLog(events, origin=origin)


@pytest.fixture
def event_factory():
    return make_event


@pytest.fixture
def log_factory():
    return make_log
