"""Fixed-cadence vs drift-triggered retraining on the named scenarios.

:func:`repro.adapt.evaluate.compare_on_scenario` is fully seeded, so
its numbers are the same on every machine.  The reconfiguration
scenario carries the adaptive policy's acceptance criteria: the trigger
fires within one evaluation week of the shift, and the policy pays for
strictly fewer retrainings at no loss of post-shift recall.  Both
scenarios also pin today's figures, so a change to the detectors, the
policy or the engine that moves them shows up here.
"""

from __future__ import annotations

import pytest

from repro.adapt.evaluate import compare_on_scenario


def approx(value):
    return pytest.approx(value, abs=1e-3)


@pytest.fixture(scope="module")
def reconfiguration():
    return compare_on_scenario("reconfiguration")


@pytest.fixture(scope="module")
def maintenance_window():
    return compare_on_scenario("maintenance_window")


class TestReconfiguration:
    def test_acceptance(self, reconfiguration):
        cmp = reconfiguration
        assert cmp.trigger_delay_weeks is not None, "trigger never fired"
        assert cmp.trigger_delay_weeks <= 1
        assert cmp.adaptive.n_retrains < cmp.fixed.n_retrains
        assert cmp.adaptive.post_shift_recall >= cmp.fixed.post_shift_recall

    def test_pinned_figures(self, reconfiguration):
        cmp = reconfiguration
        assert (cmp.fixed.n_retrains, cmp.adaptive.n_retrains) == (4, 2)
        assert cmp.trigger_delay_weeks == 1
        assert cmp.fixed.post_shift_recall == approx(0.863)
        assert cmp.adaptive.post_shift_recall == approx(0.890)
        assert cmp.fixed.recall == approx(0.811)
        assert cmp.adaptive.recall == approx(0.821)
        assert cmp.adaptive.drift["evaluations"] == 14
        assert cmp.adaptive.drift["skipped_retrains"] == 12


class TestMaintenanceWindow:
    def test_pinned_figures(self, maintenance_window):
        cmp = maintenance_window
        assert (cmp.fixed.n_retrains, cmp.adaptive.n_retrains) == (3, 2)
        assert cmp.trigger_delay_weeks == 2
        assert cmp.fixed.post_shift_recall == approx(0.801)
        assert cmp.adaptive.post_shift_recall == approx(0.795)
