"""Named regime-change scenario packs for drift benchmarks and tests.

The adaptive-retraining work (``repro.adapt``) needs *reproducible*
regime changes to measure against: a trace where the failure patterns
flip at a known week, so a bench can ask "how soon after the shift did
the detectors fire, and how many scheduled retrains did adaptivity
save?".  Each :class:`ScenarioPack` pins a profile (derived from the
paper-calibrated SDSC machine), the week the shift lands, and a seed —
``generate()`` then yields the same trace on every machine.

Two packs ship:

* ``reconfiguration`` — an abrupt mid-trace system reconfiguration
  (:class:`~repro.raslog.profiles.AnomalyWindow` kind ``"reconfig"``):
  the :class:`~repro.raslog.drift.RegimeSchedule` resamples the chain
  templates wholesale and jumps the failure process, the paper's SDSC
  week-60 case compressed into a short trace.
* ``maintenance_window`` — a service window (kind ``"maintenance"``)
  during which precursor reporting is silenced while fatal events keep
  occurring: association rules stop firing without any pattern change,
  the classic false-drift trap for hit-rate detectors.

Compare both retraining policies on one with
:func:`repro.adapt.evaluate.compare_on_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.raslog.catalog import EventCatalog
from repro.raslog.generator import GeneratorConfig, SyntheticLog, generate_log
from repro.raslog.profiles import AnomalyWindow, SDSC_PROFILE, SystemProfile
from repro.utils.randoms import SeedLike

#: Default seed for scenario traces — fixed so committed bench baselines
#: describe the same trace everywhere.
SCENARIO_SEED = 2008


@dataclass(frozen=True, slots=True)
class ScenarioPack:
    """A named, fully pinned regime-change trace recipe."""

    name: str
    description: str
    #: week index at which the regime change takes effect
    shift_week: int
    profile: SystemProfile
    seed: SeedLike = SCENARIO_SEED

    def generate(
        self,
        *,
        scale: float = 1.0,
        duplicates: bool = False,
        seed: SeedLike | None = None,
        catalog: EventCatalog | None = None,
    ) -> SyntheticLog:
        """Materialize the scenario trace (clean stream by default)."""
        config = GeneratorConfig(
            scale=scale,
            duplicates=duplicates,
            seed=self.seed if seed is None else seed,
        )
        return generate_log(self.profile, config, catalog)


def _scenario_profile(
    weeks: int, anomaly: AnomalyWindow
) -> SystemProfile:
    """SDSC-derived short profile tuned so drift is *observable*.

    A richer precursor signal (fraction 0.6 vs the paper's 0.3) and a
    drift period longer than the trace make the scheduled anomaly the
    only regime change — the bench then measures the detectors against
    exactly one, known shift.
    """
    return replace(
        SDSC_PROFILE,
        weeks=weeks,
        anomalies=(anomaly,),
        precursor_fraction=0.6,
        n_chain_templates=12,
        drift_period_weeks=52,
        drift_fraction=0.10,
    )


RECONFIGURATION = ScenarioPack(
    name="reconfiguration",
    description=(
        "Abrupt system reconfiguration at week 9: chain templates are "
        "resampled wholesale and the failure process jumps (SDSC "
        "week-60 case, compressed)."
    ),
    shift_week=9,
    profile=_scenario_profile(
        weeks=18,
        anomaly=AnomalyWindow(kind="reconfig", start_week=9, end_week=11),
    ),
)

MAINTENANCE_WINDOW = ScenarioPack(
    name="maintenance_window",
    description=(
        "Maintenance window over weeks 8-11: precursor reporting is "
        "silenced while fatal events continue, so association rules "
        "stop firing without any underlying pattern change."
    ),
    shift_week=8,
    profile=_scenario_profile(
        weeks=16,
        anomaly=AnomalyWindow(kind="maintenance", start_week=8, end_week=11),
    ),
)

SCENARIOS: dict[str, ScenarioPack] = {
    RECONFIGURATION.name: RECONFIGURATION,
    MAINTENANCE_WINDOW.name: MAINTENANCE_WINDOW,
}


def get_scenario(name: str) -> ScenarioPack:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


__all__ = [
    "MAINTENANCE_WINDOW",
    "RECONFIGURATION",
    "SCENARIOS",
    "SCENARIO_SEED",
    "ScenarioPack",
    "get_scenario",
]
