"""The benchmark's three workloads, driven through the public API.

Every workload is a closed-loop batch job: one loop issues the next
work unit when the previous one returns. The workload seed becomes
``CampaignConfig.seed``; every other input is derived from it.

``packet_path``
    Serial packet-level mix (``workers=1``, ``clear_sky``, ``cubic``):
    multi-connection Starlink speed tests down and up, H3 bulk
    transfers down and up, QUIC message runs down and up, and one
    trimmed single-connection GEO PEP download. netsim, transport,
    apps and geo do almost all the work.
``ping_longhaul``
    Packet-free analytic campaign under ``wet_month``: a single-dish
    idle-latency series at the paper's cadence (3 probes every 5
    minutes) for 30 days through the streaming sinks with a memory
    budget that takes every sink out of exact mode, then a fleet's
    ping series, the availability report and Figs. 1 and 2. The
    series' jitter-frame working set exceeds the path model's
    50,000-entry jitter cache (the traced run measures both).
    leo, disrupt and core do the work.
``campaign_parallel``
    The Table-1 mix (short batch pings, Starlink and GEO speed tests,
    bulk, messages, web rounds on three networks) through the
    executor at ``workers = nproc`` and shard granularity 4 with a
    journal, then a resume from that journal, then every paper
    artefact computed and rendered. The only workload where exec
    does real work.

Packet-level measurements come in down/up pairs at fixed, mirrored
points of their measurement window (a quarter in from either end; the
lone GEO download at the middle), and the seed drives every access's
run seed instead. Per-access set-up cost grows with the epoch (see
CHANGES.md); fixed mirrored epochs keep that cost at the window's
average for every seed, where seeded epochs would let it swing by a
factor of two with the draw.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.availability import analyze_availability
from repro.core.browsing import figure6_browsing
from repro.core.campaign import (
    SESSION2_END,
    THROUGHPUT_END,
    THROUGHPUT_START,
    Campaign,
    CampaignConfig,
)
from repro.core.datasets import (
    CampaignDatasets,
    FleetDataset,
    StreamingPingDataset,
)
from repro.core.loss_events import table2_loss_ratios
from repro.core.reporting import (
    render_availability,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_fleet,
    render_table1,
    render_table2,
)
from repro.core.rtt import (
    figure1_rtt_boxplots,
    figure2_timeseries,
    figure3_loaded_rtt,
)
from repro.core.throughput import figure5_throughput
from repro.errant import fit_profiles, to_json
from repro.exec.journal import Journal
from repro.exec.resources import STAGES
from repro.exec.runner import (
    UnitFailure,
    UnitTiming,
    default_workers,
    execute_units,
)
from repro.exec.units import (
    BulkUnit,
    MessagesUnit,
    SpeedtestUnit,
    context_for,
    fleet_context_for,
)
from repro.rng import stable_seed
from repro.testing.digest import digest_value
from repro.units import mb, minutes

#: Position of a down/up pair's down epoch within its window.
PAIR_POSITION = 0.25

#: Shard granularity of ``campaign_parallel``.
GRANULARITY = 4

#: Anchors of ``ping_longhaul``'s single-dish series: one European
#: (Fig. 2 pools them), one US and one Asian anchor. Each anchor costs
#: a full pass over the 30-day series, so all 11 would not fit a run.
LONGHAUL_ANCHORS = ("be-brussels", "new-york", "singapore")
LONGHAUL_DAYS = 30.0
#: Memory budget small enough that every anchor sink leaves exact
#: mode (sinks hand over at budget / 11 anchors resident samples).
LONGHAUL_BUDGET_MB = 2.0
#: Fleet part of ``ping_longhaul``: terminals and series length.
FLEET_TERMINALS = 3
FLEET_DAYS = 2.0


@dataclass
class RepResult:
    """What one repetition reports back to the runner; computed after
    the timed body, so digesting and checking cost no measured time."""

    digest: str
    #: Measurements attempted and those that ended not ok (non-ok
    #: ``MeasurementOutcome`` or executor ``UnitFailure``).
    attempted: int = 0
    failed: int = 0
    #: Failed correctness checks (empty when the outputs are right).
    checks: list[str] = field(default_factory=list)
    #: Simulated application payload delivered, bytes.
    payload_bytes: float = 0.0
    probes: int = 0
    #: Host seconds spent in measurements that ended not ok.
    not_ok_s: float = 0.0
    unit_s: list[float] = field(default_factory=list)
    exec: dict[str, float] = field(default_factory=dict)
    core: dict[str, float] = field(default_factory=dict)

    def tally(self, samples, unit_s: float,
              config: CampaignConfig) -> None:
        """Count measurements, failures and delivered payload."""
        samples = list(samples)
        self.attempted += len(samples)
        bad = sum(1 for s in samples
                  if isinstance(s, UnitFailure) or not _outcome_ok(s))
        self.failed += bad
        if bad:
            self.not_ok_s += unit_s
        self.payload_bytes += sum(_delivered_bytes(s, config)
                                  for s in samples
                                  if not isinstance(s, UnitFailure))


@dataclass
class Executed:
    """A timed executor pass: payloads plus its own bookkeeping."""

    payloads: list
    timings: list[UnitTiming]
    shards: list[UnitTiming]
    wall_s: float


def execute(units, workers: int, granularity: int = 1,
            journal: Journal | None = None) -> Executed:
    """``execute_units`` with per-unit and per-shard timings."""
    timings: list[UnitTiming] = []
    shards: list[UnitTiming] = []
    began = time.perf_counter()
    payloads = execute_units(units, workers, timings, journal=journal,
                             granularity=granularity,
                             shard_timings=shards)
    return Executed(payloads, timings, shards,
                    time.perf_counter() - began)


def paired_epochs(start: float, end: float) -> tuple[float, float]:
    """The down/up epochs of a pair: :data:`PAIR_POSITION` of the way
    into ``[start, end]`` and the mirror image of that point."""
    offset = PAIR_POSITION * (end - start)
    return start + offset, end - offset


def _outcome_ok(sample) -> bool:
    outcome = getattr(sample, "outcome", sample)
    return outcome is None or outcome.is_ok


def _delivered_bytes(sample, config: CampaignConfig) -> float:
    """Simulated application payload one sample delivered."""
    if hasattr(sample, "throughput_mbps"):
        return (sample.throughput_mbps * 1e6 / 8
                * config.speedtest_measure_s)
    result = getattr(sample, "result", None)
    if result is None:
        return 0.0
    if hasattr(result, "payload_bytes"):
        return float(result.payload_bytes) if result.completed else 0.0
    if result.messages_sent:
        return (result.bytes_sent * result.messages_completed
                / result.messages_sent)
    return 0.0


def exec_stats(run: Executed, workers: int) -> dict[str, float]:
    """Executor busy time, overhead and failures of one pass."""
    busy = sum(t.elapsed_s for t in run.shards)
    failures = [p for p in run.payloads if isinstance(p, UnitFailure)]
    slots = workers * run.wall_s
    return {
        "wall_s": run.wall_s,
        "busy_s": busy,
        "busy_frac": busy / slots if slots > 0 else 0.0,
        "overhead_s": max(0.0, slots - busy),
        "longest_shard_s": max((t.elapsed_s for t in run.shards),
                               default=0.0),
        "shards": len(run.shards),
        "payload_bytes": len(pickle.dumps(
            run.payloads, protocol=pickle.HIGHEST_PROTOCOL)),
        "failures": len(failures),
        "retries": sum(max(0, f.attempts - 1) for f in failures),
    }


# -- packet_path ---------------------------------------------------------


def packet_config(seed: int) -> CampaignConfig:
    """Short measurement windows shared by the packet-level units."""
    return CampaignConfig(
        seed=seed, ping_days=1.0, ping_interval_s=minutes(60),
        speedtest_epochs=1, speedtest_connections=2,
        speedtest_warmup_s=0.5, speedtest_measure_s=0.5,
        bulk_per_direction=1, bulk_bytes=mb(1), bulk_segment_bytes=mb(1),
        messages_per_direction=1, messages_duration_s=2.0,
        web_sites=10, web_visits_per_site=1,
        scenario="clear_sky", cc="cubic")


def geo_config(config: CampaignConfig, direction: str) -> CampaignConfig:
    """The trimmed GEO test: one connection, short windows (the
    upload needs a longer warm-up before its first bytes arrive)."""
    if direction == "up":
        return replace(config, speedtest_connections=1,
                       speedtest_measure_s=1.0, satcom_warmup_s=4.0)
    return replace(config, speedtest_connections=1,
                   speedtest_measure_s=0.5, satcom_warmup_s=1.0)


def packet_units(config: CampaignConfig, satcom_up: bool) -> list:
    """Starlink speed tests, H3 bulk transfers and message runs, each a
    down/up pair at mirrored epochs, plus the trimmed GEO download (and,
    when ``satcom_up``, the GEO upload at the same epoch); every run
    seed derives from the workload seed."""
    seed = config.seed
    st = paired_epochs(THROUGHPUT_START, THROUGHPUT_END)
    geo = (THROUGHPUT_START + THROUGHPUT_END) / 2
    bulk = paired_epochs(THROUGHPUT_START, THROUGHPUT_END)
    msg = paired_epochs(THROUGHPUT_START, SESSION2_END)
    directions = ("down", "up")
    units = [SpeedtestUnit(config, "starlink", d, e,
                           stable_seed(seed, "perfbench-st"))
             for d, e in zip(directions, st)]
    units += [SpeedtestUnit(geo_config(config, d), "satcom", d, geo,
                            stable_seed(seed, "perfbench-geo"))
              for d in (directions if satcom_up else ("down",))]
    units += [BulkUnit(config, 1, d, e, stable_seed(seed, "perfbench-bulk"))
              for d, e in zip(directions, bulk)]
    units += [MessagesUnit(config, d, e,
                           stable_seed(seed, "perfbench-msg"), seed * 13)
              for d, e in zip(directions, msg)]
    return units


@dataclass
class PacketPath:
    """Serial packet-level mix; see the module docstring."""

    name = "packet_path"

    seed: int
    workers: int = 1
    units: list = field(default_factory=list)

    def setup(self, scratch: str) -> None:
        config = packet_config(self.seed)
        context_for(config)
        self.units = packet_units(config, satcom_up=False)

    def run(self) -> Executed:
        return execute(self.units, workers=1)

    def report(self, run: Executed) -> RepResult:
        result = RepResult(digest=digest_value(run.payloads))
        for unit, payload, timing in zip(self.units, run.payloads,
                                         run.timings):
            result.tally([payload], timing.elapsed_s, unit.config)
        result.unit_s = [t.elapsed_s for t in run.timings]
        result.exec = exec_stats(run, 1)
        if len(run.payloads) != len(self.units) \
                or result.exec["failures"]:
            result.checks.append("unit coverage incomplete")
        return result


# -- ping_longhaul -------------------------------------------------------


def longhaul_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, ping_days=LONGHAUL_DAYS, ping_interval_s=minutes(5),
        pings_per_round=3, scenario="wet_month", streaming_pings=True,
        memory_budget_mb=LONGHAUL_BUDGET_MB)


def fleet_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, ping_days=FLEET_DAYS, ping_interval_s=minutes(5),
        pings_per_round=3, scenario="wet_month",
        fleet_terminals=FLEET_TERMINALS, fleet_speedtest_epochs=0)


@dataclass
class LonghaulOutput:
    pings: Executed
    dataset: StreamingPingDataset
    fleet: FleetDataset
    availability: object
    rendered: list[str]


@dataclass
class PingLonghaul:
    """Month-scale analytic ping campaign; see the module docstring."""

    name = "ping_longhaul"

    seed: int
    workers: int = 1
    campaign: Campaign | None = None
    fleet_campaign: Campaign | None = None
    units: list = field(default_factory=list)

    def setup(self, scratch: str) -> None:
        self.campaign = Campaign(longhaul_config(self.seed))
        context_for(self.campaign.config)
        self.fleet_campaign = Campaign(fleet_config(self.seed))
        fleet_context_for(self.fleet_campaign.config)
        self.units = [u for u in self.campaign.streaming_ping_units()
                      if u.anchor_name in LONGHAUL_ANCHORS]

    def run(self) -> LonghaulOutput:
        campaign = self.campaign
        pings = execute(self.units, workers=1)
        dataset = StreamingPingDataset(budget=campaign.streaming_budget())
        for sink in pings.payloads:
            dataset.add_sink(sink)
        fleet = self.fleet_campaign.run_fleet()
        availability = dataset.availability_report(
            scenario=campaign.config.scenario)
        rendered = [render_availability(availability),
                    render_figure1(figure1_rtt_boxplots(dataset)),
                    render_figure2(figure2_timeseries(dataset)),
                    render_fleet(fleet)]
        return LonghaulOutput(pings, dataset, fleet, availability,
                              rendered)

    def report(self, out: LonghaulOutput) -> RepResult:
        cfg = self.campaign.config
        sinks = out.pings.payloads
        result = RepResult(digest=digest_value((
            out.rendered, out.fleet,
            [(s.anchor, s.total_probes, s.lost_probes) for s in sinks])))
        for sink, timing in zip(sinks, out.pings.timings):
            result.tally([out.dataset.outcomes[sink.anchor]],
                         timing.elapsed_s, cfg)
        result.tally(out.fleet.terminals, 0.0, cfg)
        result.probes = out.dataset.total_samples + out.fleet.total_samples
        result.unit_s = [t.elapsed_s for t in out.pings.timings]
        result.exec = exec_stats(out.pings, 1)
        budget = out.dataset.budget
        result.core = {
            "resident_samples": out.dataset.resident_samples,
            "precision_stage": STAGES.index(budget.stage),
            "exact_sinks": sum(1 for s in sinks if s.exact),
        }
        rounds = len(np.arange(0.0, cfg.ping_days * 86_400.0,
                               cfg.ping_interval_s))
        expected = len(self.units) * cfg.pings_per_round * rounds
        if len(sinks) != len(LONGHAUL_ANCHORS) \
                or result.exec["failures"]:
            result.checks.append("anchor coverage incomplete")
        if out.dataset.total_samples != expected:
            result.checks.append(
                f"probe count {out.dataset.total_samples} != {expected}")
        if result.core["exact_sinks"]:
            result.checks.append("memory budget left a sink exact")
        if len(out.fleet.terminals) != FLEET_TERMINALS:
            result.checks.append("fleet coverage incomplete")
        if not 0.0 <= out.availability.availability_pct <= 100.0:
            result.checks.append("availability outside [0, 100] %")
        return result


# -- campaign_parallel ---------------------------------------------------


def parallel_config(seed: int) -> CampaignConfig:
    return replace(packet_config(seed), ping_days=2.0,
                   shard_granularity=GRANULARITY)


@dataclass
class ParallelOutput:
    first: Executed
    resumed: Executed
    journal_entries: int
    journal_bytes: int
    data: CampaignDatasets
    rendered: list[str]


@dataclass
class CampaignParallel:
    """Table-1 mix through the executor; see the module docstring."""

    name = "campaign_parallel"

    seed: int
    workers: int = 0
    campaign: Campaign | None = None
    groups: list = field(default_factory=list)
    journal_dir: str = ""

    def setup(self, scratch: str) -> None:
        self.workers = self.workers or default_workers()
        self.journal_dir = os.path.join(scratch, "journal")
        self.campaign = Campaign(parallel_config(self.seed))
        context_for(self.campaign.config)
        packet = packet_units(self.campaign.config, satcom_up=True)
        self.groups = [
            ("pings", self.campaign.ping_units()),
            ("speedtests", [u for u in packet if u.kind == "speedtest"]),
            ("bulk", [u for u in packet if u.kind == "bulk"]),
            ("messages", [u for u in packet if u.kind == "messages"]),
            ("visits", self.campaign.web_units()),
        ]

    @property
    def units(self) -> list:
        return [u for _, group in self.groups for u in group]

    def _assemble(self, payloads) -> CampaignDatasets:
        """Table-1 datasets from payloads in unit order."""
        data = CampaignDatasets()
        cursor = 0
        for name, group in self.groups:
            kept = [p for p in payloads[cursor:cursor + len(group)]
                    if not isinstance(p, UnitFailure)]
            cursor += len(group)
            if name == "pings":
                for anchor, times, rtts, outcome in kept:
                    data.pings.series[anchor] = (times, rtts)
                    data.pings.outcomes[anchor] = outcome
            elif name == "visits":
                data.visits = [v for round_visits in kept
                               for v in round_visits]
            else:
                setattr(data, name, kept)
        return data

    def run(self) -> ParallelOutput:
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        first = execute(self.units, self.workers, GRANULARITY,
                        Journal(self.journal_dir, resume=False))
        journal = Journal(self.journal_dir, resume=True)
        resumed = execute(self.units, self.workers, GRANULARITY, journal)
        data = self._assemble(first.payloads)
        rendered = render_all(data, self.campaign.config)
        entries = len(journal)
        size = sum(e.stat().st_size for e in os.scandir(self.journal_dir))
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        return ParallelOutput(first, resumed, entries, size, data,
                              rendered)

    def report(self, out: ParallelOutput) -> RepResult:
        result = RepResult(digest=digest_value(out.data))
        if digest_value(self._assemble(out.resumed.payloads)) \
                != result.digest:
            result.checks.append("resumed dataset digest differs")
        cursor = 0
        for name, group in self.groups:
            chunk = slice(cursor, cursor + len(group))
            cursor += len(group)
            for unit, payload, timing in zip(
                    group, out.first.payloads[chunk],
                    out.first.timings[chunk]):
                if isinstance(payload, UnitFailure):
                    samples = [payload]
                elif name == "pings":
                    samples = [payload[3]]
                elif name == "visits":
                    samples = payload
                else:
                    samples = [payload]
                result.tally(samples, timing.elapsed_s, unit.config)
        result.probes = out.data.pings.total_samples
        result.unit_s = [t.elapsed_s for t in out.first.timings]
        result.exec = exec_stats(out.first, self.workers)
        result.exec.update(resume_s=out.resumed.wall_s,
                           journal_entries=out.journal_entries,
                           journal_bytes=out.journal_bytes)
        if len(out.first.payloads) != len(self.units) \
                or result.exec["failures"]:
            result.checks.append("unit coverage incomplete")
        if out.journal_entries != len(out.first.shards):
            result.checks.append("journal misses completed shards")
        if not all(out.rendered):
            result.checks.append("an artefact rendered empty")
        return result


def render_all(data: CampaignDatasets, config: CampaignConfig
               ) -> list[str]:
    """Every paper artefact the Table-1 datasets feed, rendered."""
    loss = table2_loss_ratios(data.bulk, data.messages)
    return [
        render_table1(data.table1_rows()),
        render_figure1(figure1_rtt_boxplots(data.pings)),
        render_figure2(figure2_timeseries(data.pings)),
        render_figure3(figure3_loaded_rtt(data.bulk, data.messages)),
        render_table2(loss),
        render_figure4(loss),
        render_figure5(figure5_throughput(data.speedtests, data.bulk)),
        render_figure6(figure6_browsing(data.visits)),
        render_availability(analyze_availability(
            data, scenario=config.scenario)),
        to_json(fit_profiles(data)),
    ]


WORKLOADS = {w.name: w for w in (PacketPath, PingLonghaul,
                                 CampaignParallel)}
