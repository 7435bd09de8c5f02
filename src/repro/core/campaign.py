"""Measurement campaign orchestration.

The campaign mirrors the paper's schedule (Table 1):

* ping to 11 anchors, 3 probes every 5 minutes, 5 months;
* Ookla-like speed tests every 30 minutes (Starlink + SatCom),
  Dec 20 -> Apr 7;
* web visits (30 random sites per half hour) on all three accesses;
* QUIC H3 bulk transfers and 25 msg/s message runs against the
  campus server, in two sessions (the second from Apr 25 on).

Wall-clock economics force two compressions, both recorded in
DESIGN.md: idle-link pings sample the analytic path model (identical
by construction to the packet path), and the packet-level workloads
(speed tests, H3, messages) run at a configurable number of epochs
sampled across the campaign rather than at every half-hour slot.

Execution model: every measurement is an independent, seeded work
unit (:mod:`repro.exec.units`). The ``*_units`` methods build the
ordered unit lists; the ``run_*`` methods execute them through
:func:`repro.exec.execute_units` and merge payloads back in unit
order, so ``workers=1`` (in-process, the degenerate case) and
``workers=N`` produce bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.anchors import ANCHORS
from repro.core.datasets import (
    BulkSample,
    CampaignDatasets,
    FleetDataset,
    MessagesSample,
    PingDataset,
    SpeedtestSample,
    StreamingPingDataset,
    VisitSample,
)
from repro.disrupt.apply import apply_to_access, gateway_outage_slots
from repro.disrupt.scenarios import build_scenario, scenario_names
from repro.errors import ConfigurationError
from repro.exec.journal import Journal
from repro.exec.resources import RESOURCE_POLICIES, ResourceBudget
from repro.exec.runner import (
    DegradationReport,
    UnitFailure,
    UnitTiming,
    execute_units,
)
from repro.exec.units import (
    CAMPUS_SERVER,
    OOKLA_BRUSSELS,
    BulkUnit,
    FleetTerminalUnit,
    MessagesUnit,
    PingSeriesUnit,
    SpeedtestUnit,
    StreamingPingUnit,
    WebRoundUnit,
    WorkUnit,
)
from repro.core.availability import (
    AvailabilityReport,
    MobilityReport,
    analyze_availability,
    analyze_mobility,
)
from repro.leo.access import StarlinkAccess, StarlinkPathModel
from repro.leo.constellation import Constellation
from repro.leo.events import CampaignTimeline, date_to_t
from repro.leo.mobility import (
    OBSTRUCTION_KINDS,
    TRAJECTORY_KINDS,
    build_mobility,
)
from repro.rng import make_rng
from repro.transport.cc import CC_KINDS
from repro.units import days, mb, minutes

from datetime import datetime

__all__ = [
    "CAMPUS_SERVER",
    "OOKLA_BRUSSELS",
    "Campaign",
    "CampaignConfig",
    "quick_config",
    "SESSION2_END",
    "SESSION2_START",
    "THROUGHPUT_END",
    "THROUGHPUT_START",
]

#: Throughput / web measurement window (paper: Dec 20 -> Apr 7).
THROUGHPUT_START = date_to_t(datetime(2021, 12, 20))
THROUGHPUT_END = date_to_t(datetime(2022, 4, 7))
#: Second QUIC session start (paper: Apr 25).
SESSION2_START = date_to_t(datetime(2022, 4, 25))
SESSION2_END = date_to_t(datetime(2022, 5, 14))

#: Conservative bytes one resident raw probe sample costs a streaming
#: sink (two float64 columns plus reservoir/bookkeeping overhead);
#: converts ``memory_budget_mb`` into deterministic sample budgets.
BYTES_PER_RESIDENT_SAMPLE = 64


@dataclass
class CampaignConfig:
    """Scale knobs. Defaults run the full pipeline in minutes; raise
    them toward the paper's volumes when wall clock allows."""

    seed: int = 0
    #: Ping schedule.
    ping_days: float = 151.0
    ping_interval_s: float = minutes(30)      # paper: 5 min
    pings_per_round: int = 3
    ping_loss_prob: float = 0.004
    #: Packet-level epochs per network for speed tests.
    speedtest_epochs: int = 8
    speedtest_connections: int = 4
    speedtest_warmup_s: float = 2.0
    speedtest_measure_s: float = 4.0
    satcom_warmup_s: float = 7.0
    #: H3 bulk transfers per direction per session.
    bulk_per_direction: int = 4
    bulk_bytes: int = mb(16)
    #: Message runs per direction and their duration.
    messages_per_direction: int = 3
    messages_duration_s: float = 25.0
    #: Web visits: sites x visits per access technology.
    web_sites: int = 120
    web_visits_per_site: int = 4
    #: Per-visit watchdog: visits whose onload exceeds it are
    #: classified ``timed_out`` (metrics still recorded).
    web_visit_deadline_s: float = 60.0
    #: Default shard granularity for the executor: each splittable
    #: unit is cut into at most this many shards (1 = whole units).
    #: Output is bit-identical for every granularity; see
    #: :mod:`repro.exec.sharding`.
    shard_granularity: int = 1
    #: Ping rounds per series atom (each chunk has its own derived
    #: RNG stream, so chunk boundaries never split a stream).
    ping_shard_rounds: int = 64
    #: Bulk-transfer segment size: each atom transfers at most this
    #: many bytes on its own seeded access instance.
    bulk_segment_bytes: int = mb(4)
    #: Named adverse-conditions scenario (see :mod:`repro.disrupt`).
    #: ``"clear_sky"`` is guaranteed to disrupt nothing: datasets are
    #: bit-identical to a build without the disrupt subsystem.
    scenario: str = "clear_sky"
    #: Congestion controller used by every measurement app's bulk
    #: senders ("cubic", "newreno" or "bbr"); ``"cubic"`` keeps
    #: datasets bit-identical to earlier builds. Cross with
    #: ``scenario`` for the CC x conditions matrix (BBR's loss-blind
    #: model is the interesting cell under ``rain_fade``).
    cc: str = "cubic"
    #: Fleet campaign mode: terminals sharing one constellation
    #: (0 disables the mode; the classic single-dish datasets are
    #: untouched either way).
    fleet_terminals: int = 0
    #: Latitude bands terminals are spread over round-robin.
    fleet_lat_bands: tuple[tuple[float, float], ...] = (
        (40.0, 44.0), (48.5, 52.5), (54.0, 56.0))
    #: Longitude range shared by every band.
    fleet_lon_range: tuple[float, float] = (2.0, 7.0)
    #: Contended single-connection speed tests per terminal, run at
    #: fleet-wide shared epochs with the terminal's fair capacity
    #: share of its serving satellite.
    fleet_speedtest_epochs: int = 1
    #: Streaming ping pipeline: aggregate each anchor's series through
    #: constant-memory sinks instead of materialised arrays (month-
    #: scale campaigns; see :meth:`Campaign.run_pings_streaming`).
    #: While no sink degrades, the streamed dataset reconstructs the
    #: batch one bit for bit.
    streaming_pings: bool = False
    #: Memory budget for the streaming pipeline, MiB (None:
    #: ungoverned). Sets the per-sink exact thresholds and arms the
    #: :class:`~repro.exec.resources.ResourceBudget` the assembled
    #: dataset degrades under.
    memory_budget_mb: float | None = None
    #: What a soft-budget breach does: ``"degrade"`` walks the
    #: precision ladder (EXACT -> STREAMING -> SHRUNK_RESERVOIRS ->
    #: SPILLED, each recorded as a PARTIAL-PRECISION note),
    #: ``"raise"`` escalates the first breach to
    #: :class:`~repro.errors.MemoryBudgetError`.
    resource_policy: str = "degrade"
    #: Terminal trajectory: ``"stationary"`` (the classic fixed dish;
    #: digest-neutral) or ``"drive"`` (a seeded road trip — handover
    #: churn and drive-through outages emerge from the moving
    #: geometry). A drive at ``speed_kmh=0`` provably never moves and
    #: must stay bit-identical to stationary (the mobility digest
    #: gate in ``scripts/mobility_smoke.py``).
    trajectory: str = "stationary"
    #: Ground speed of a ``drive`` trajectory, km/h.
    speed_kmh: float = 0.0
    #: Seconds the drive keeps moving (and the obstruction trace
    #: stays armed) before the terminal parks and the sky clears;
    #: also the mobility-analysis window length.
    drive_duration_s: float = 3600.0
    #: Obstruction shadowing profile masking sky sectors per slot:
    #: ``"none"``, ``"roadside"`` or ``"urban_canyon"``.
    obstruction: str = "none"

    def __post_init__(self) -> None:
        for name in ("ping_days", "ping_interval_s",
                     "speedtest_warmup_s", "speedtest_measure_s",
                     "satcom_warmup_s", "messages_duration_s",
                     "web_visit_deadline_s"):
            value = getattr(self, name)
            if not value > 0:   # also rejects NaN
                raise ConfigurationError(
                    f"CampaignConfig.{name} must be positive, "
                    f"got {value!r}")
        for name in ("pings_per_round", "speedtest_epochs",
                     "speedtest_connections", "bulk_per_direction",
                     "bulk_bytes", "messages_per_direction",
                     "web_sites", "web_visits_per_site",
                     "shard_granularity", "ping_shard_rounds",
                     "bulk_segment_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(
                    f"CampaignConfig.{name} must be >= 1, got "
                    f"{value!r} (a non-positive count silently yields "
                    "an empty unit list; shrink the other scale knobs "
                    "instead)")
        for name in ("fleet_terminals", "fleet_speedtest_epochs"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"CampaignConfig.{name} must be >= 0, got {value!r}")
        if not 0.0 <= self.ping_loss_prob <= 1.0:
            raise ConfigurationError(
                f"CampaignConfig.ping_loss_prob must be within "
                f"[0, 1], got {self.ping_loss_prob!r}")
        if self.cc not in CC_KINDS:
            raise ConfigurationError(
                f"CampaignConfig.cc must be one of {CC_KINDS}, "
                f"got {self.cc!r}")
        if self.scenario not in scenario_names():
            raise ConfigurationError(
                f"CampaignConfig.scenario must be one of "
                f"{scenario_names()}, got {self.scenario!r} (register "
                "custom scenarios with repro.disrupt.register_scenario "
                "before building the config)")
        if self.memory_budget_mb is not None \
                and not self.memory_budget_mb > 0:   # also rejects NaN
            raise ConfigurationError(
                f"CampaignConfig.memory_budget_mb must be positive, "
                f"got {self.memory_budget_mb!r}")
        if self.resource_policy not in RESOURCE_POLICIES:
            raise ConfigurationError(
                f"CampaignConfig.resource_policy must be one of "
                f"{RESOURCE_POLICIES}, got {self.resource_policy!r}")
        if self.trajectory not in TRAJECTORY_KINDS:
            raise ConfigurationError(
                f"CampaignConfig.trajectory must be one of "
                f"{TRAJECTORY_KINDS}, got {self.trajectory!r}")
        if self.obstruction not in OBSTRUCTION_KINDS:
            raise ConfigurationError(
                f"CampaignConfig.obstruction must be one of "
                f"{OBSTRUCTION_KINDS}, got {self.obstruction!r}")
        if not self.speed_kmh >= 0.0:   # also rejects NaN
            raise ConfigurationError(
                f"CampaignConfig.speed_kmh must be >= 0, got "
                f"{self.speed_kmh!r}")
        if not self.drive_duration_s > 0:   # also rejects NaN
            raise ConfigurationError(
                f"CampaignConfig.drive_duration_s must be positive, "
                f"got {self.drive_duration_s!r}")


@dataclass
class Campaign:
    """Runs the measurement campaign over the simulated accesses."""

    config: CampaignConfig = field(default_factory=CampaignConfig)

    def __post_init__(self) -> None:
        self.timeline = CampaignTimeline()
        self.constellation = Constellation()
        #: Seeded mobility state; (None, None) for the default
        #: stationary/no-obstruction config, keeping the scheduler on
        #: its classic fixed-terminal fast path byte for byte.
        self.trajectory, self.obstruction = build_mobility(self.config)
        #: Materialised adverse-conditions scenario; clear_sky builds
        #: an empty schedule, which installs nothing.
        self.scenario = build_scenario(self.config.scenario,
                                       self.config)
        self.path_model = StarlinkPathModel(
            constellation=self.constellation, timeline=self.timeline,
            seed=self.config.seed, trajectory=self.trajectory,
            obstruction=self.obstruction,
            gateway_outages=gateway_outage_slots(self.scenario.campaign))
        #: Per-dataset crash-safety bookkeeping from the latest runs;
        #: summarised by :meth:`degradation_report`.
        self._dataset_failures: dict[str, list[UnitFailure]] = {}
        self._coverage: dict[str, tuple[int, int]] = {}

    # -- epoch helpers -----------------------------------------------------

    def _epochs(self, n: int, start: float, end: float,
                label: str) -> list[float]:
        if end < start:
            raise ConfigurationError(
                f"inverted epoch window for {label!r}: start {start} "
                f"is after end {end}")
        rng = make_rng((self.config.seed, "epochs", label))
        return sorted(start + rng.random() * (end - start)
                      for _ in range(n))

    def _starlink_access(self, epoch: float, run_seed: int
                         ) -> StarlinkAccess:
        schedule = self.scenario.experiment_schedule(epoch)
        access = StarlinkAccess(
            seed=run_seed, epoch_t=epoch, timeline=self.timeline,
            constellation=self.constellation,
            trajectory=self.trajectory, obstruction=self.obstruction,
            gateway_outages=gateway_outage_slots(schedule))
        apply_to_access(access, schedule)
        return access

    # -- work-unit decomposition -------------------------------------------

    def ping_units(self) -> list[PingSeriesUnit]:
        """One unit per anchor: the full idle-latency series."""
        return [PingSeriesUnit(self.config, anchor.name)
                for anchor in ANCHORS]

    def streaming_ping_units(self) -> list[StreamingPingUnit]:
        """Sink-emitting counterparts of :meth:`ping_units`.

        With a ``memory_budget_mb`` the per-sink exact threshold is
        the campaign's sample budget split evenly over the anchors, so
        individual sinks hand themselves to streaming precision before
        the campaign-level governor ever has to."""
        samples = self._ping_sample_budget()
        extra = {}
        if samples is not None:
            extra["exact_threshold"] = max(
                1, samples // max(1, len(ANCHORS)))
        return [StreamingPingUnit(self.config, anchor.name, **extra)
                for anchor in ANCHORS]

    def _ping_sample_budget(self) -> int | None:
        """``memory_budget_mb`` as a resident-raw-sample count."""
        if self.config.memory_budget_mb is None:
            return None
        budget_bytes = int(self.config.memory_budget_mb * 2 ** 20)
        return max(1, budget_bytes // BYTES_PER_RESIDENT_SAMPLE)

    def streaming_budget(self) -> ResourceBudget | None:
        """The resource governor for one streaming ping run.

        A fresh :class:`ResourceBudget` per call (events are per-run
        state), or None when the config sets no ``memory_budget_mb``.
        """
        samples = self._ping_sample_budget()
        if samples is None:
            return None
        return ResourceBudget(max_resident_samples=samples,
                              policy=self.config.resource_policy)

    def speedtest_units(self) -> list[SpeedtestUnit]:
        """One unit per epoch x network x direction (Fig. 5a/5b)."""
        cfg = self.config
        epochs = self._epochs(cfg.speedtest_epochs, THROUGHPUT_START,
                              THROUGHPUT_END, "speedtest")
        return [SpeedtestUnit(cfg, network, direction, epoch,
                              run_seed=1000 + i)
                for i, epoch in enumerate(epochs)
                for network in ("starlink", "satcom")
                for direction in ("down", "up")]

    def bulk_units(self) -> list[BulkUnit]:
        """One unit per session x epoch x direction."""
        cfg = self.config
        units = []
        windows = [(1, THROUGHPUT_START, THROUGHPUT_END),
                   (2, SESSION2_START, SESSION2_END)]
        for session, start, end in windows:
            epochs = self._epochs(cfg.bulk_per_direction, start, end,
                                  f"bulk-{session}")
            for i, epoch in enumerate(epochs):
                for direction in ("down", "up"):
                    units.append(BulkUnit(
                        cfg, session, direction, epoch,
                        run_seed=2000 + 100 * session + i))
        return units

    def messages_units(self) -> list[MessagesUnit]:
        """One unit per epoch x direction."""
        cfg = self.config
        epochs = self._epochs(cfg.messages_per_direction,
                              THROUGHPUT_START, SESSION2_END, "messages")
        return [MessagesUnit(cfg, direction, epoch,
                             run_seed=3000 + i,
                             workload_seed=cfg.seed * 13 + i)
                for i, epoch in enumerate(epochs)
                for direction in ("down", "up")]

    def fleet_units(self) -> list[FleetTerminalUnit]:
        """One unit per fleet terminal (fleet mode only)."""
        cfg = self.config
        if cfg.fleet_terminals < 1:
            raise ConfigurationError(
                "fleet mode is disabled: set "
                "CampaignConfig.fleet_terminals >= 1 (CLI: --fleet / "
                "--terminals N)")
        return [FleetTerminalUnit(cfg, i)
                for i in range(cfg.fleet_terminals)]

    def web_units(self) -> list[WebRoundUnit]:
        """One unit per network x visit round over the corpus."""
        cfg = self.config
        rng = make_rng((cfg.seed, "web-epochs"))
        units = []
        for network in ("starlink", "satcom", "wired"):
            for v in range(cfg.web_visits_per_site):
                epoch = (THROUGHPUT_START
                         + rng.random() * (THROUGHPUT_END
                                           - THROUGHPUT_START))
                units.append(WebRoundUnit(cfg, network, v, epoch))
        return units

    # -- execution ---------------------------------------------------------
    #
    # Every run_* method shares the crash-safety keywords of
    # :func:`repro.exec.execute_units`: ``journal`` checkpoints each
    # completed unit (kill the process at any instant and resume
    # digest-identically), ``retries``/``retry_backoff_s`` bound
    # deterministic re-attempts, ``unit_timeout`` caps one attempt's
    # wall clock, and ``failure_policy="degrade"`` finishes with
    # partial datasets — the lost units are reported through
    # :meth:`degradation_report`.

    def _granularity(self, granularity: int | None) -> int:
        return (self.config.shard_granularity if granularity is None
                else granularity)

    def _execute(self, dataset: str, units, workers, timings,
                 profile_dir, journal, retries, retry_backoff_s,
                 unit_timeout, failure_policy,
                 granularity=None, shard_timings=None,
                 track_memory=False) -> list:
        failures: list[UnitFailure] = []
        payloads = execute_units(
            units, workers, timings, profile_dir, journal=journal,
            retries=retries, retry_backoff_s=retry_backoff_s,
            unit_timeout=unit_timeout, failure_policy=failure_policy,
            failures=failures,
            granularity=self._granularity(granularity),
            shard_timings=shard_timings, track_memory=track_memory)
        kept = [p for p in payloads
                if not isinstance(p, UnitFailure)]
        self._dataset_failures[dataset] = failures
        self._coverage[dataset] = (len(kept), len(units))
        return kept

    def run_pings(self, workers: int = 1,
                  timings: list[UnitTiming] | None = None,
                  profile_dir: str | None = None, *,
                  journal: Journal | None = None, retries: int = 0,
                  retry_backoff_s: float = 0.0,
                  unit_timeout: float | None = None,
                  failure_policy: str = "raise",
                  granularity: int | None = None,
                  track_memory: bool = False) -> PingDataset:
        """Five-month idle-latency series toward the 11 anchors."""
        return self._merge_pings(self._execute(
            "pings", self.ping_units(), workers, timings, profile_dir,
            journal, retries, retry_backoff_s, unit_timeout,
            failure_policy, granularity, track_memory=track_memory))

    def run_pings_streaming(self, workers: int = 1,
                            timings: list[UnitTiming] | None = None,
                            profile_dir: str | None = None, *,
                            journal: Journal | None = None,
                            retries: int = 0,
                            retry_backoff_s: float = 0.0,
                            unit_timeout: float | None = None,
                            failure_policy: str = "raise",
                            granularity: int | None = None,
                            track_memory: bool = False
                            ) -> StreamingPingDataset:
        """The ping campaign through constant-memory sinks.

        Shard payloads are partial :class:`~repro.core.datasets.
        PingAnchorSink` aggregates folded in shard order by the
        executor; the per-anchor sinks then assemble into a
        :class:`StreamingPingDataset` governed by
        :meth:`streaming_budget`. While every sink stays exact,
        ``.to_ping_dataset()`` reproduces :meth:`run_pings` bit for
        bit at any ``workers`` x ``granularity``; past the budget the
        dataset degrades in recorded PARTIAL-PRECISION stages instead
        of OOMing, and the hard cap raises
        :class:`~repro.errors.MemoryBudgetError` with every completed
        unit already checkpointed in the journal.
        """
        sinks = self._execute(
            "pings", self.streaming_ping_units(), workers, timings,
            profile_dir, journal, retries, retry_backoff_s,
            unit_timeout, failure_policy, granularity,
            track_memory=track_memory)
        dataset = StreamingPingDataset(budget=self.streaming_budget())
        for sink in sinks:
            dataset.add_sink(sink)
        return dataset

    def run_speedtests(self, workers: int = 1,
                       timings: list[UnitTiming] | None = None,
                       profile_dir: str | None = None, *,
                       journal: Journal | None = None,
                       retries: int = 0, retry_backoff_s: float = 0.0,
                       unit_timeout: float | None = None,
                       failure_policy: str = "raise",
                       granularity: int | None = None,
                       track_memory: bool = False
                       ) -> list[SpeedtestSample]:
        """Ookla-like tests on Starlink and SatCom (Fig. 5a/5b)."""
        return self._execute(
            "speedtests", self.speedtest_units(), workers, timings,
            profile_dir, journal, retries, retry_backoff_s,
            unit_timeout, failure_policy, granularity,
            track_memory=track_memory)

    def run_bulk(self, workers: int = 1,
                 timings: list[UnitTiming] | None = None,
                 profile_dir: str | None = None, *,
                 journal: Journal | None = None, retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 unit_timeout: float | None = None,
                 failure_policy: str = "raise",
                 granularity: int | None = None,
                 track_memory: bool = False) -> list[BulkSample]:
        """H3 transfers in both directions and both sessions."""
        return self._execute(
            "bulk", self.bulk_units(), workers, timings, profile_dir,
            journal, retries, retry_backoff_s, unit_timeout,
            failure_policy, granularity, track_memory=track_memory)

    def run_messages(self, workers: int = 1,
                     timings: list[UnitTiming] | None = None,
                     profile_dir: str | None = None, *,
                     journal: Journal | None = None, retries: int = 0,
                     retry_backoff_s: float = 0.0,
                     unit_timeout: float | None = None,
                     failure_policy: str = "raise",
                     granularity: int | None = None,
                     track_memory: bool = False
                     ) -> list[MessagesSample]:
        """Low-bitrate message runs in both directions."""
        return self._execute(
            "messages", self.messages_units(), workers, timings,
            profile_dir, journal, retries, retry_backoff_s,
            unit_timeout, failure_policy, granularity,
            track_memory=track_memory)

    def run_web(self, workers: int = 1,
                timings: list[UnitTiming] | None = None,
                profile_dir: str | None = None, *,
                journal: Journal | None = None, retries: int = 0,
                retry_backoff_s: float = 0.0,
                unit_timeout: float | None = None,
                failure_policy: str = "raise",
                granularity: int | None = None,
                track_memory: bool = False) -> list[VisitSample]:
        """Browser visits over Starlink, SatCom and wired (Fig. 6)."""
        rounds = self._execute(
            "visits", self.web_units(), workers, timings, profile_dir,
            journal, retries, retry_backoff_s, unit_timeout,
            failure_policy, granularity, track_memory=track_memory)
        return [visit for round_visits in rounds
                for visit in round_visits]

    def run_fleet(self, workers: int = 1,
                  timings: list[UnitTiming] | None = None,
                  profile_dir: str | None = None, *,
                  journal: Journal | None = None, retries: int = 0,
                  retry_backoff_s: float = 0.0,
                  unit_timeout: float | None = None,
                  failure_policy: str = "raise",
                  granularity: int | None = None,
                  track_memory: bool = False) -> FleetDataset:
        """Fleet campaign: per-terminal series on one constellation."""
        kept = self._execute(
            "fleet", self.fleet_units(), workers, timings, profile_dir,
            journal, retries, retry_backoff_s, unit_timeout,
            failure_policy, granularity, track_memory=track_memory)
        return FleetDataset(
            terminals=sorted(kept, key=lambda r: r.index))

    @staticmethod
    def _merge_pings(payloads) -> PingDataset:
        dataset = PingDataset()
        for name, times, rtts, outcome in payloads:
            dataset.series[name] = (times, rtts)
            dataset.outcomes[name] = outcome
        return dataset

    def degradation_report(self) -> DegradationReport:
        """Coverage and failures accumulated by the latest runs.

        With ``failure_policy="raise"`` (the default) a report with an
        empty ``failures`` list simply confirms full coverage; under
        ``"degrade"`` it names every unit the datasets are missing, so
        derived figures can state what they were computed from.
        """
        failures = [failure
                    for dataset in sorted(self._dataset_failures)
                    for failure in self._dataset_failures[dataset]]
        return DegradationReport(
            total_units=sum(t for _, t in self._coverage.values()),
            completed_units=sum(c for c, _ in self._coverage.values()),
            failures=failures, coverage=dict(self._coverage))

    # -- mobility analysis -------------------------------------------------

    def mobility_window_s(self) -> float:
        """The handover-analysis window: the drive, clipped to the
        campaign (a quick config can be shorter than the drive)."""
        return min(self.config.drive_duration_s,
                   days(self.config.ping_days))

    def mobility_report(self, data: CampaignDatasets,
                        availability: AvailabilityReport | None = None
                        ) -> MobilityReport:
        """Handover-episode analysis of one campaign's datasets.

        Scans the campaign scheduler for path-change boundaries over
        the mobility window, then attributes every pooled outage
        episode to obstruction, weather (disruption windows) or
        handover proximity. The per-cause counts always sum to the
        availability report's episode count, so the attribution
        reconciles against the pooled totals by construction.
        """
        if availability is None:
            availability = analyze_availability(
                data, scenario=self.config.scenario)
        window = self.mobility_window_s()
        model = self.path_model
        events = model.scheduler.handover_events(model.index, 0.0, window)
        obstruction_windows = (
            self.obstruction.obstructed_windows(0.0, window)
            if self.obstruction is not None else ())
        disruption_windows = [
            (w.start_t, w.end_t)
            for w in self.scenario.campaign.overlapping(0.0, window)]
        return analyze_mobility(
            availability, events, window,
            trajectory=self.config.trajectory,
            obstruction=self.config.obstruction,
            obstruction_windows=obstruction_windows,
            disruption_windows=disruption_windows)

    # -- everything --------------------------------------------------------

    def run_all(self, workers: int = 1,
                timings: list[UnitTiming] | None = None,
                profile_dir: str | None = None, *,
                journal: Journal | None = None, retries: int = 0,
                retry_backoff_s: float = 0.0,
                unit_timeout: float | None = None,
                failure_policy: str = "raise",
                granularity: int | None = None,
                shard_timings: list[UnitTiming] | None = None,
                track_memory: bool = False
                ) -> CampaignDatasets:
        """Run every dataset of Table 1.

        All work units go through one executor pass, so with
        ``workers=N`` the pool stays busy across dataset boundaries
        (a long ping series overlaps with short web rounds instead of
        serialising behind them). Under ``failure_policy="degrade"``
        the returned datasets are partial — merge simply skips lost
        units — and :meth:`degradation_report` states the per-dataset
        unit coverage.
        """
        groups: list[tuple[str, list[WorkUnit]]] = [
            ("pings", self.ping_units()),
            ("speedtests", self.speedtest_units()),
            ("bulk", self.bulk_units()),
            ("messages", self.messages_units()),
            ("visits", self.web_units()),
        ]
        units = [unit for _, group in groups for unit in group]
        payloads = execute_units(
            units, workers, timings, profile_dir, journal=journal,
            retries=retries, retry_backoff_s=retry_backoff_s,
            unit_timeout=unit_timeout, failure_policy=failure_policy,
            granularity=self._granularity(granularity),
            shard_timings=shard_timings, track_memory=track_memory)
        data = CampaignDatasets()
        cursor = 0
        for name, group in groups:
            chunk = payloads[cursor:cursor + len(group)]
            cursor += len(group)
            kept = [p for p in chunk if not isinstance(p, UnitFailure)]
            self._dataset_failures[name] = [
                p for p in chunk if isinstance(p, UnitFailure)]
            self._coverage[name] = (len(kept), len(group))
            if name == "pings":
                data.pings = self._merge_pings(kept)
            elif name == "visits":
                data.visits = [visit for round_visits in kept
                               for visit in round_visits]
            else:
                setattr(data, name, kept)
        return data


def quick_config(seed: int = 0) -> CampaignConfig:
    """A configuration small enough for tests (seconds, not minutes)."""
    return CampaignConfig(
        seed=seed,
        ping_days=4.0, ping_interval_s=minutes(60),
        speedtest_epochs=1, speedtest_measure_s=2.0,
        speedtest_warmup_s=1.5, satcom_warmup_s=5.0,
        bulk_per_direction=1, bulk_bytes=mb(4),
        messages_per_direction=1, messages_duration_s=8.0,
        web_sites=20, web_visits_per_site=1)
