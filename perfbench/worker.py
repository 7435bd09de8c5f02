"""One repetition of one workload, in the interpreter it starts.

Not meant to be run by hand: ``run.py`` starts it once per repetition
so that no per-process memo (worker contexts, scheduler and
constellation caches) survives from one measured repetition to the
next. Prints one JSON object on its last stdout line::

    python3 perfbench/worker.py --workload packet_path --seed 1 \\
        --mode run --spawned <time.time() at spawn> --scratch DIR

Modes: ``setup`` stops once the first unit is ready (imports plus
campaign/context construction); ``run`` also times the workload body;
``traced`` runs the body under the span tracer and adds the per-layer
numbers. Untraced modes sample the host's speed (``speed.SpeedSampler``)
and report it beside the times, which exclude the sampling itself.
A body that runs a process pool (``workers > 1``) is not sampled: the
sampler's chunk would compete with the pool for the CPUs, so a change
in how busy the pool keeps them would move the reference. Its times
stay raw.
"""

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict

from speed import SpeedSampler
from tracing import HARNESS, Tracer, resolve

#: Layers the traced run attributes self time to.
LAYERS = ("netsim", "transport", "apps", "geo", "leo", "disrupt",
          "core", "exec", HARNESS)

ANALYSIS = ("CampaignDatasets.table1_rows", "figure", "table2_",
            "analyze_availability", "StreamingPingDataset.availability",
            "fit_profiles")
RENDER = ("render_", "to_json")
SINKS = ("PingAnchorSink.merge", "StreamingPingDataset.add_sink")

#: The path model method whose per-frame cache the traced run
#: watches, and that cache.
JITTER = "repro.leo.access:StarlinkPathModel.jitter"
JITTER_CACHE = "repro.leo.access:StarlinkPathModel._jitter_cache"


class JitterCacheWatch:
    """Working set and wholesale clears of the path models' jitter
    caches, read from the program's own ``_jitter_cache`` dicts.

    A call that changes the cache's size inserted one key (the dict's
    last); one that shrinks it cleared the cache first. ``keys`` holds
    the distinct keys each model inserted.
    """

    def __init__(self) -> None:
        self.keys: dict[int, set] = {}
        self.clears = 0

    def install(self, tracer: Tracer) -> None:
        """Watch every model's cache until ``tracer.uninstall()``;
        install before ``tracer.install()`` so the tracer's jitter
        accumulator covers the watch too."""
        found = resolve(JITTER)
        if found is None:
            tracer.missing.append(JITTER)
            return
        owner, attr, jitter = found

        def watched(model, *args, **kwargs):
            cache = getattr(model, "_jitter_cache", None)
            if cache is None:
                if JITTER_CACHE not in tracer.missing:
                    tracer.missing.append(JITTER_CACHE)
                return jitter(model, *args, **kwargs)
            before = len(cache)
            value = jitter(model, *args, **kwargs)
            if len(cache) != before:
                self.keys.setdefault(id(model), set()).add(
                    next(reversed(cache)))
                self.clears += len(cache) < before
            return value

        tracer.patch(owner, attr, watched)

    def working_set(self) -> int:
        """Distinct keys of the model that inserted the most."""
        return max((len(k) for k in self.keys.values()), default=0)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children, MiB
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _sum(objects, attr: str) -> float:
    return float(sum(getattr(o, attr, 0) for o in objects))


def layer_metrics(tracer: Tracer, watch: JitterCacheWatch) -> dict:
    """Per-layer numbers of one traced repetition (names without the
    untraced-run ones, which the runner adds)."""
    inst = tracer.instances
    counts, totals = tracer.counts, tracer.totals
    out = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0)
           for layer in LAYERS}
    root = tracer.root_duration()
    out["harness.unattributed_frac"] = (
        tracer.self_s.get(HARNESS, 0.0) / root if root else 0.0)
    out["harness.traced_wall_s"] = root
    out["harness.missing_hooks"] = float(len(tracer.missing))

    sims = inst.get("simulators", [])
    pipes = inst.get("pipes", [])
    out["netsim.events"] = _sum(sims, "events_processed")
    out["netsim.packets_sent"] = _sum(pipes, "sent")
    out["netsim.queue_drops"] = _sum(inst.get("queues", []), "drops")
    out["netsim.medium_losses"] = _sum(pipes, "lost_medium")
    out["netsim.peak_heap"] = float(max(
        (s.peak_heap for s in sims), default=0))
    out["netsim.compactions"] = _sum(sims, "compactions")
    out["netsim.loss_model_s"] = totals.get(
        "TimedGilbertElliottLoss.is_lost", 0.0)

    tcp = [c.stats for c in inst.get("tcp", [])]
    quic = [c.stats for c in inst.get("quic", [])]
    tcp_sent = _sum(tcp, "segments_sent")
    tcp_retx = _sum(tcp, "retransmissions")
    quic_sent = _sum(quic, "packets_sent")
    quic_lost = float(sum(len(s.lost_pns) for s in quic))
    out["transport.tcp_segments_sent"] = tcp_sent
    out["transport.tcp_retransmissions"] = tcp_retx
    out["transport.quic_packets_sent"] = quic_sent
    out["transport.quic_pto_count"] = _sum(quic, "pto_count")
    sent = tcp_sent + quic_sent
    out["transport.useful_frac"] = (
        (sent - tcp_retx - quic_lost) / sent if sent else 0.0)

    out["apps.speedtest_s"] = tracer.inclusive_s("unit:speedtest:starlink")
    out["apps.geo_speedtest_s"] = tracer.inclusive_s(
        "unit:speedtest:satcom")
    out["apps.bulk_s"] = tracer.inclusive_s("unit:bulk")
    out["apps.messages_s"] = tracer.inclusive_s("unit:messages")
    out["apps.web_s"] = tracer.inclusive_s("unit:web")

    snapshot = ("SatelliteScheduler.snapshot", "FleetTerminalView.snapshot")
    out["leo.snapshot_s"] = sum(totals.get(n, 0.0) for n in snapshot)
    out["leo.snapshot_calls"] = float(sum(counts.get(n, 0)
                                          for n in snapshot))
    out["leo.jitter_s"] = totals.get("StarlinkPathModel.jitter", 0.0)
    out["leo.jitter_calls"] = float(counts.get("StarlinkPathModel.jitter",
                                               0))
    out["leo.path_model_s"] = (
        totals.get("StarlinkPathModel.idle_rtt", 0.0)
        + totals.get("StarlinkPathModel.one_way_delay", 0.0))
    consts = inst.get("constellations", [])
    hits = _sum(consts, "position_cache_hits")
    looked = hits + _sum(consts, "position_cache_misses")
    out["leo.positions_hit_frac"] = hits / looked if looked else 0.0
    out["leo.fleet_s"] = (totals.get("FleetScheduler.capacity_share", 0.0)
                          + totals.get("FleetTerminalView.snapshot", 0.0))
    fleets = inst.get("fleets", [])
    considered = _sum(fleets, "prefilter_total")
    out["leo.fleet_prefilter_keep_frac"] = (
        _sum(fleets, "prefilter_kept") / considered if considered else 0.0)
    out["leo.jitter_working_set"] = float(watch.working_set())
    out["leo.jitter_cache_clears"] = float(watch.clears)

    lookups = ("DisruptionSchedule.blackout_at",
               "DisruptionSchedule.extra_loss_prob",
               "DisruptionSchedule.capacity_factor")
    out["disrupt.lookups"] = float(sum(counts.get(n, 0) for n in lookups))

    out["core.sink_s"] = (totals.get("PingAnchorSink.add_chunk", 0.0)
                          + tracer.inclusive_s(SINKS))
    out["core.analysis_s"] = tracer.inclusive_s(ANALYSIS)
    out["core.render_s"] = tracer.inclusive_s(RENDER)
    out["core.traced_peak_kb"] = tracer.peak_kb
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    traced = args.mode == "traced"
    sampler = SpeedSampler()
    if not traced:
        sampler.start()
    began = time.perf_counter()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - began

    workload = WORKLOADS[args.workload](seed=args.seed)
    tracer = Tracer() if traced else None
    watch = JitterCacheWatch()
    if traced:
        # The layer split is taken serially; the executor's own
        # numbers come from the untraced runs.
        workload.workers = 1
        tracer.install_registries()
    began = time.perf_counter()
    workload.setup(args.scratch)
    context_s = time.perf_counter() - began
    out = {"setup_s": time.time() - args.spawned,
           "import_s": import_s, "context_s": context_s}
    if not traced:
        setup = sampler.window(0)
        out["setup_s"] -= setup["spent_s"]
        out["speed"] = {"setup": setup}
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(out))
        return 0

    if traced:
        watch.install(tracer)
        tracer.install()
    sampled = not traced and workload.workers == 1
    if not sampled:
        sampler.stop()
    mark = sampler.mark()
    cpu0 = _cpu_s()
    began = time.perf_counter()
    if traced:
        with tracer.root():
            raw = workload.run()
    else:
        raw = workload.run()
    out["wall_s"] = time.perf_counter() - began
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    if traced:
        tracer.uninstall()
    if sampled:
        sampler.stop()
        body = sampler.window(mark)
        out["wall_s"] -= body["spent_s"]
        out["cpu_s"] -= body["spent_s"]
        out["speed"]["body"] = body
    rep = workload.report(raw)
    out["rep"] = asdict(rep)
    out["workers"] = workload.workers
    if traced:
        out["layers"] = layer_metrics(tracer, watch)
        out["missing_hooks"] = tracer.missing
        out["spans"] = [asdict(span) for span in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
