"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_path --seed 1 \\
        --seconds 35 --trace 0

Every measured repetition starts a fresh interpreter
(``perfbench/worker.py``), because per-process memos -- worker
contexts, scheduler and constellation caches -- would make an
in-process repeat measure a different program.

``--trace 0`` repeats the workload while the next repetition still
fits in ``--seconds`` (at least once), tops the set-up samples up with
set-up-only interpreters, and reports the end-to-end metrics as
medians. Times are reported in reference seconds: each interpreter
samples the host's speed while it works (``speed.py``) and its times
are scaled to the nominal speed, which cancels most of the CPU-speed
drift of a shared host; the raw times are in the record. The body of
a workload that runs a process pool is not sampled (see
``worker.py``); its ``wall_s`` and ``cpu_s`` are raw seconds.
``--trace 1`` runs the workload once untraced and once under the span
tracer (each in its own interpreter) and reports the per-layer
metrics.

Both modes check the outputs: every repetition's dataset digest must
agree (and the traced run's with the untraced one's), every unit must
complete and the workload's own checks must pass. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a full record (every sample, tails, host fingerprint,
the traced run's spans and missing hooks) is written under
``.perfbench/records/``. A run that cannot execute the program exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import DigestMismatch, check_digests, quartile_spread, tail
from speed import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("packet_path", "ping_longhaul", "campaign_parallel")

#: Set-up samples a timed run collects at least (full repetitions
#: count; set-up-only interpreters make up the rest).
MIN_SETUP_SAMPLES = 3

#: A whole invocation stops its child and fails after this many
#: seconds (the benchmark must end within 180 s).
RUN_TIMEOUT_S = 170.0

#: ``time.perf_counter()`` when this invocation started.
_STARTED = time.perf_counter()

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "netsim.self_s": "s", "netsim.loss_model_s": "s",
    "netsim.events": "count", "netsim.packets_sent": "count",
    "netsim.queue_drops": "count", "netsim.medium_losses": "count",
    "netsim.peak_heap": "count", "netsim.compactions": "count",
    "transport.self_s": "s", "transport.tcp_segments_sent": "count",
    "transport.tcp_retransmissions": "count",
    "transport.quic_packets_sent": "count",
    "transport.quic_pto_count": "count", "transport.useful_frac": "ratio",
    "apps.self_s": "s", "apps.speedtest_s": "s",
    "apps.geo_speedtest_s": "s", "apps.bulk_s": "s",
    "apps.messages_s": "s", "apps.web_s": "s",
    "apps.measurements": "count", "apps.not_ok": "count",
    "apps.not_ok_s": "s",
    "geo.self_s": "s",
    "leo.self_s": "s", "leo.snapshot_s": "s", "leo.snapshot_calls": "count",
    "leo.jitter_s": "s", "leo.jitter_calls": "count",
    "leo.jitter_working_set": "count", "leo.jitter_cache_clears": "count",
    "leo.path_model_s": "s",
    "leo.positions_hit_frac": "ratio", "leo.fleet_s": "s",
    "leo.fleet_prefilter_keep_frac": "ratio",
    "disrupt.self_s": "s", "disrupt.lookups": "count",
    "core.self_s": "s", "core.sink_s": "s", "core.analysis_s": "s",
    "core.render_s": "s", "core.resident_samples": "count",
    "core.precision_stage": "index", "core.traced_peak_kb": "KiB",
    "exec.self_s": "s", "exec.busy_s": "s", "exec.busy_frac": "ratio",
    "exec.overhead_s": "s", "exec.longest_shard_s": "s",
    "exec.shards": "count", "exec.payload_bytes": "B",
    "exec.journal_entries": "count", "exec.journal_bytes": "B",
    "exec.resume_s": "s", "exec.failures": "count",
    "exec.retries": "count",
    "setup.import_s": "s", "setup.context_s": "s",
    "harness.self_s": "s", "harness.unattributed_frac": "ratio",
    "harness.trace_overhead_frac": "ratio",
    "harness.missing_hooks": "count",
    "harness.failed_frac": "ratio",
    "harness.sim_goodput_mb_per_s": "MB/s",
    "harness.probes_per_s": "1/s",
}


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def host_fingerprint() -> dict:
    """Where the numbers were measured."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "machine": platform.machine(), **versions}


def spawn(workload: str, seed: int, mode: str, scratch: Path) -> dict:
    """Run one worker interpreter to completion; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(scratch)
    env.pop("REPRO_INVARIANTS", None)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--spawned", repr(time.time()),
               "--scratch", str(scratch)]
    began = time.perf_counter()
    # Own session, so a timeout can stop pool workers too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            start_new_session=True)
    left = RUN_TIMEOUT_S - (began - _STARTED)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} did not finish within the "
                         f"{RUN_TIMEOUT_S:.0f} s run limit") from None
    try:
        # Stragglers of the child's session (pool workers) end with it.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} failed "
                         f"(exit {proc.returncode}):\n{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} printed no result")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - began
    return result


def body_s(rep: dict, key: str) -> float:
    """A repetition's body time in reference seconds (raw when its body
    was not sampled)."""
    body = rep["speed"].get("body")
    return reference_s(rep[key], body["mean_s"]) if body else rep[key]


def timed_run(workload: str, seed: int, seconds: float,
              scratch: Path) -> tuple[dict, list, list, dict]:
    """Repetitions and set-up probes of a ``--trace 0`` run."""
    began = time.perf_counter()
    reps = []
    while True:
        reps.append(spawn(workload, seed, "run", scratch))
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if time.perf_counter() - began + typical > seconds:
            break
    probes = [spawn(workload, seed, "setup", scratch)
              for _ in range(max(0, MIN_SETUP_SAMPLES - len(reps)))]
    samples = {
        "setup_s": [reference_s(r["setup_s"],
                                r["speed"]["setup"]["mean_s"])
                    for r in reps + probes],
        "wall_s": [body_s(r, "wall_s") for r in reps],
        "cpu_s": [body_s(r, "cpu_s") for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "raw_setup_s": [r["setup_s"] for r in reps + probes],
        "raw_wall_s": [r["wall_s"] for r in reps],
        "raw_cpu_s": [r["cpu_s"] for r in reps],
    }
    metrics = {name: statistics.median(samples[name])
               for name in END_TO_END}
    return metrics, reps, probes, samples


def traced_run(workload: str, seed: int,
               scratch: Path) -> tuple[dict, list[dict]]:
    """Per-layer metrics of a ``--trace 1`` run."""
    base = spawn(workload, seed, "run", scratch)
    traced = spawn(workload, seed, "traced", scratch)
    rep = base["rep"]
    layers = dict(traced["layers"])
    for key, value in rep["exec"].items():
        if f"exec.{key}" in PER_LAYER:
            layers[f"exec.{key}"] = value
    for key, value in rep["core"].items():
        if f"core.{key}" in PER_LAYER:
            layers[f"core.{key}"] = value
    layers["setup.import_s"] = statistics.median(
        [base["import_s"], traced["import_s"]])
    layers["setup.context_s"] = statistics.median(
        [base["context_s"], traced["context_s"]])
    layers["apps.measurements"] = rep["attempted"]
    layers["apps.not_ok"] = rep["failed"]
    layers["apps.not_ok_s"] = rep["not_ok_s"]
    layers["harness.failed_frac"] = rep["failed"] / max(1, rep["attempted"])
    layers["harness.sim_goodput_mb_per_s"] = (
        rep["payload_bytes"] / 1e6 / base["wall_s"])
    layers["harness.probes_per_s"] = rep["probes"] / base["wall_s"]
    # The traced run is serial; compare it with the untraced run's
    # serial-equivalent time (executor passes replaced by their summed
    # shard time), which is the untraced wall clock when workers=1.
    serial = (base["wall_s"] - rep["exec"]["wall_s"]
              + rep["exec"]["busy_s"])
    layers["harness.trace_overhead_frac"] = (
        traced["layers"]["harness.traced_wall_s"] / serial - 1.0)
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    return metrics, [base, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, children = traced_run(args.workload, args.seed,
                                           scratch)
            samples = {}
            names = {"untraced": children[0], "traced": children[1]}
        else:
            metrics, reps, probes, samples = timed_run(
                args.workload, args.seed, args.seconds, scratch)
            children = reps + probes
            names = {f"rep {i + 1}": r for i, r in enumerate(reps)}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in sorted(scratch.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        scratch.rmdir()

    problems = []
    digests = {name: child["rep"]["digest"]
               for name, child in names.items()}
    try:
        digest = check_digests(digests)
    except DigestMismatch as exc:
        problems.append(str(exc))
        digest = None
    for name, child in names.items():
        problems += [f"{name}: {c}" for c in child["rep"]["checks"]]
    attempted = sum(c["rep"]["attempted"] for c in names.values())
    failed = sum(c["rep"]["failed"] for c in names.values())

    units = END_TO_END if not args.trace else PER_LAYER
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(), "digest": digest,
        "problems": problems, "repeats": len(names),
        "samples": samples,
        "spread": {k: quartile_spread(v) for k, v in samples.items()},
        "tails": {**{k: tail(v) for k, v in samples.items()},
                  "unit_s": tail(s for c in names.values()
                                 for s in c["rep"]["unit_s"])},
        "children": children, "result": result,
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}")
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{len(names)} measured interpreter(s), digest "
          f"{(digest or 'MISMATCH')[:16]}, record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
