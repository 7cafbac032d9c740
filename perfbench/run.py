#!/usr/bin/env python3
"""End-to-end ``repro serve`` benchmark with a stage ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-f64 --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-f64`` — one service, dense 16-vPE feed, score and warning
  sinks; its ``recover_s`` comes from ``serve --replay`` restarts of a
  crashed data dir (the read side: checkpoint, WAL replay, decode);
* ``fleet-rca`` — ``serve --shards 2 --rca`` over a 128-vPE topology
  feed with correlated outages, incident sinks too.

Inputs are prepared per seed outside the timed region (``prep.py``).
The measured part is a closed loop of *repetitions*: each starts one
fresh ``serve`` process (``child.py``; the fleet's forks its shard
workers) on a fresh data dir and lets it drain the whole trace.
Repetitions continue until ``--seconds`` have passed and enough tick
intervals are pooled for a p99.  Every repetition's sinks (scores,
warnings, incidents), and those of every crash restart, pass the
correctness gate (``check.py``).

``--trace 0`` prints the end-to-end metrics (medians over repetitions;
tick percentiles over the pooled intervals).  ``--trace 1`` alternates
plain and traced repetitions and prints the per-layer metrics, the stage
ledger and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (messages
offered and messages whose decision was missing or wrong) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import prep  # noqa: E402
from check import Reference, Sinks, check_run, count_rows  # noqa: E402

#: Set-up samples (``child.py`` setup mode) per run, besides the
#: repetitions' own.
SETUP_PROBES = 4
#: Restarts per run that sample ``recover_s``: of a crashed data dir
#: (about 1 s each), or of a closed one (a few milliseconds, scattered,
#: so more of them; a fleet restart gives one sample per shard).
CRASH_RESTARTS = 4
RESTARTS = 8
#: Pooled tick intervals a run collects at least: p99 then has at least
#: ten beyond it.
MIN_INTERVALS = 1000
WARM_UP_S = 2.0
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    family: str
    shards: int = 1
    rca: bool = False
    #: Restarts recover a crashed data dir (``prep.prepare_crash``);
    #: otherwise a data dir a repetition closed.
    crash: bool = False
    #: BLAS/OpenMP threads per serve process, or None for the user's
    #: defaults.
    blas_threads: Optional[int] = None


WORKLOADS = {
    "serve-f64": Workload("dense", crash=True),
    # One BLAS thread per shard worker.  At OpenBLAS's default (one
    # thread per core) the workers oversubscribe the cores, and each
    # serve process settles at one of two tick speeds about 1.5x apart,
    # in a mix that drifts over minutes: no run-to-run figure is steady.
    "fleet-rca": Workload("topology", shards=prep.SHARDS, rca=True, blas_threads=1),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics of the read side, taken from the traced crash
#: restarts on a workload that has them (a fresh repetition recovers
#: nothing).
RECOVERY_LAYERS = ("codec.decode.s", "wal.replay.s", "checkpoint.read.s", "service.recover.s")

END_TO_END = {
    "msgs_per_s": "msgs/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "first_tick_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recover_s": "s",
}

#: Per-layer metrics: name -> (unit, span whose self time it is, or None).
PER_LAYER = {
    "cli.read_trace.s": ("s", "cli.read_trace"),
    "cli.read_trace.bytes": ("bytes", None),
    "cli.read_trace.messages": ("count", None),
    "cli.merge.s": ("s", "cli.merge"),
    "logs.match_ids.s": ("s", "logs.match_ids"),
    "logs.match_ids.messages": ("count", None),
    "logs.memo.hit_ratio": ("ratio", None),
    "nn.predict.s": ("s", "nn.predict"),
    "nn.predict.rows": ("count", None),
    "nn.predict.rows_per_call_p50": ("count", None),
    "stream.observe_batch.self_s": ("s", "stream.observe_batch"),
    "stream.scored_ratio": ("ratio", None),
    "online.observe_batch.self_s": ("s", "online.observe_batch"),
    "online.warnings": ("count", None),
    "codec.encode.s": ("s", "codec.encode"),
    "codec.encode.bytes": ("bytes", None),
    "codec.decode.s": ("s", "codec.decode"),
    "wal.append.s": ("s", "wal.append"),
    "wal.append.bytes": ("bytes", None),
    "wal.replay.s": ("s", "wal.replay"),
    "checkpoint.write.s": ("s", "checkpoint.write"),
    "checkpoint.writes": ("count", None),
    "checkpoint.bytes": ("bytes", None),
    "checkpoint.read.s": ("s", "checkpoint.read"),
    "rca.observe_tick.s": ("s", "rca.observe_tick"),
    "rca.incidents": ("count", None),
    "sink.write.s": ("s", "sink.write"),
    "sink.rows": ("count", None),
    "service.open.s": ("s", "service.open"),
    "service.recover.s": ("s", "service.recover"),
    "service.close.s": ("s", "service.close"),
    "fleet.open.s": ("s", "fleet.open"),
    "fleet.partition.s": ("s", "fleet.partition"),
    "fleet.wait.s": ("s", "fleet.drain"),
    "fleet.send.bytes": ("bytes", None),
    "fleet.shard_skew": ("ratio", None),
    "ledger.unaccounted_frac": ("fraction", None),
    "trace.overhead_frac": ("fraction", None),
}

#: ROADMAP stage of each ledger span (spans not listed keep their name).
STAGES = {
    "cli.read_trace": "read+parse",
    "cli.merge": "read+parse (merge)",
    "logs.match_ids": "template match",
    "codec.encode": "WAL encode",
    "wal.append": "WAL append",
    "wal.prune": "checkpoint (WAL prune)",
    "nn.predict": "model inference",
    "stream.observe_batch": "scorer (windowing)",
    "online.observe_batch": "warning clustering",
    "rca.observe_tick": "RCA",
    "sink.write": "sinks",
    "checkpoint.write": "checkpoint",
    "checkpoint.read": "checkpoint restore",
    "codec.decode": "WAL decode",
    "wal.replay": "WAL replay",
    "fleet.open": "fleet open (spawn workers)",
    "fleet.partition": "fleet partition",
    "fleet.drain": "fleet wait (drain loop)",
    "cli.main": "unaccounted",
}


# -- one repetition -------------------------------------------------------------


@dataclass
class Rep:
    """What one serve process (and its shard workers) measured."""

    ok: bool
    offered: int
    failed: int
    traced: bool = False
    restart_flags: Tuple[str, ...] = ()
    setup_s: float = 0.0
    msgs_per_s: float = 0.0
    first_tick_s: float = 0.0
    peak_rss_mb: float = 0.0
    recovers: Tuple[float, ...] = ()
    intervals: Tuple[float, ...] = ()
    records: Optional[List[dict]] = None


def serve_env(work: Workload) -> Dict[str, str]:
    """Environment of the workload's serve processes."""
    env = dict(os.environ)
    if work.blas_threads is not None:
        env.update({var: str(work.blas_threads) for var in THREAD_VARS})
    return env


def _run_child(
    work: Workload, out: pathlib.Path, mode: str, serve_args: List[str]
) -> Optional[List[dict]]:
    """One ``serve`` in a fresh child process; its probe records or None.

    The serve process's record comes first, then one per shard worker.
    """
    log = out.with_suffix(".log")
    with open(log, "w") as handle:
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(out), mode, "serve", *serve_args],
                cwd=ROOT,
                env=serve_env(work),
                stdout=handle,
                stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"serve timed out; see {log}", file=sys.stderr)
            return None
    if code != 0 or not out.exists():
        print(f"serve child exited {code}; see {log}", file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    if record["exit_code"] != 0:
        print(f"serve exited {record['exit_code']}; see {log}", file=sys.stderr)
        return None
    workers = sorted(out.parent.glob(out.name + ".*"))
    return [record] + [json.loads(path.read_text()) for path in workers]


def _rel(path: pathlib.Path) -> str:
    return str(path.relative_to(ROOT))


def serve_flags(
    work: Workload, inputs: prep.Inputs, rep_dir: pathlib.Path
) -> Tuple[List[str], List[str]]:
    """Fresh data dir in ``rep_dir``; the run's and the restart's flags."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    data = rep_dir / "svc"
    flags = ["--data-dir", _rel(data)]
    if work.shards > 1:
        flags += ["--shards", str(work.shards)]
    restart_flags = [*flags, "--replay"]
    flags += [
        "--trace", _rel(inputs.trace), "--model", _rel(inputs.model),
        "--threshold", repr(inputs.threshold),
        "--scores-out", _rel(rep_dir / "scores.csv"),
        "--warnings-out", _rel(rep_dir / "warnings.csv"),
    ]
    if work.rca:
        rca_flags = ["--rca", "--topology", _rel(inputs.trace / "topology.json")]
        flags += [*rca_flags, "--incidents-out", _rel(rep_dir / "incidents.csv")]
        restart_flags += rca_flags
    return flags, restart_flags


def sinks(work: Workload, inputs: prep.Inputs, rep_dir: pathlib.Path) -> Sinks:
    """The sink files a repetition wrote (a fleet writes one per shard)."""

    def files(name: str) -> List[pathlib.Path]:
        if work.shards > 1:
            return sorted(rep_dir.glob(name + ".shard*"))
        return [rep_dir / name]

    return Sinks(
        scores=files("scores.csv"),
        warnings=files("warnings.csv"),
        incidents=files("incidents.csv") if work.rca else [],
        sharded=work.shards > 1,
    )


def setup_probe(
    work: Workload, inputs: prep.Inputs, probe_dir: pathlib.Path
) -> Optional[float]:
    """One set-up sample: the run's command, stopped at the end of set-up."""
    flags, _ = serve_flags(work, inputs, probe_dir)
    records = _run_child(work, probe_dir / "probe.json", "setup", flags)
    if records is None:
        return None
    return records[0]["marks"]["setup_end"] - records[0]["main_start"]


def restart_probe(work: Workload, rep: Rep, out: pathlib.Path) -> Optional[List[float]]:
    """``serve --replay`` over a closed data dir; its recover wall times."""
    records = _run_child(work, out, "plain", list(rep.restart_flags))
    return None if records is None else [t for r in records for t in r["recovers"]]


def crash_restart(
    work: Workload, inputs: prep.Inputs, ref: Reference, rep_dir: pathlib.Path, traced: bool
) -> Rep:
    """``serve --replay`` from a fresh copy of the crashed data dir, checked.

    The restart restores the checkpoint, replays and re-scores the
    journal tail and writes those rows.  With the crashed run's sinks
    they must cover the journaled ticks exactly (``sort -u``), so the
    gate checks the union against the reference's prefix of that size.
    """
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    data = rep_dir / "svc"
    shutil.copytree(inputs.crash / "svc", data)
    flags = [
        "--data-dir", _rel(data), "--replay",
        "--checkpoint-every", str(prep.CRASH_CADENCE),
        "--model", _rel(inputs.model), "--threshold", repr(inputs.threshold),
        "--scores-out", _rel(rep_dir / "scores.csv"),
        "--warnings-out", _rel(rep_dir / "warnings.csv"),
    ]
    journaled = ref.prefix(prep.CRASH_KILL * prep.TICK_SIZE)
    offered = journaled.size
    records = _run_child(work, rep_dir / "probe.json", "traced" if traced else "plain", flags)
    if records is None:
        return Rep(ok=False, offered=offered, failed=offered, traced=traced)
    written = Sinks(
        scores=[inputs.crash / "scores.csv", rep_dir / "scores.csv"],
        warnings=[inputs.crash / "warnings.csv", rep_dir / "warnings.csv"],
        incidents=[],
    )
    failures = _check(journaled, written, offered)
    return Rep(
        ok=True,
        offered=offered,
        failed=sum(failures.values()),
        traced=traced,
        recovers=tuple(t for r in records for t in r["recovers"]),
        records=records if traced else None,
    )


def _check(ref: Reference, written: Sinks, offered: int) -> Dict[str, int]:
    """Failed messages per sink (an unreadable row fails every message)."""
    try:
        failures = check_run(ref, written)
    except (ValueError, IndexError) as error:
        print(f"unreadable sink row: {error}", file=sys.stderr)
        failures = {"sinks": offered}
    if any(failures.values()):
        print(f"failed messages per sink: {failures}", file=sys.stderr)
    return failures


def run_rep(
    work: Workload, inputs: prep.Inputs, ref: Reference, rep_dir: pathlib.Path, traced: bool
) -> Rep:
    """One serve process over the whole trace, checked and measured."""
    flags, restart_flags = serve_flags(work, inputs, rep_dir)
    offered = inputs.messages
    records = _run_child(work, rep_dir / "probe.json", "traced" if traced else "plain", flags)
    if records is None:
        return Rep(ok=False, offered=offered, failed=offered, traced=traced)
    written = sinks(work, inputs, rep_dir)
    failures = _check(ref, written, offered)
    main = records[0]
    marks = main["marks"]
    # The fleet's ticks run in its shard workers, the service's in it.
    ticking = [r for r in records if r["ticks"]]
    first_write = min(r["marks"]["first_write"] for r in ticking)
    rows = count_rows(written.scores)
    return Rep(
        ok=True,
        offered=offered,
        failed=sum(failures.values()),
        traced=traced,
        restart_flags=tuple(restart_flags),
        setup_s=marks["setup_end"] - main["main_start"],
        msgs_per_s=rows / (marks["close_end"] - marks["setup_end"]),
        first_tick_s=first_write - marks["setup_end"],
        peak_rss_mb=max(r["rss_kb"] for r in records) / 1024.0,
        recovers=tuple(t for r in records for t in r["recovers"]),
        intervals=tuple(
            b - a for r in ticking for a, b in zip(r["ticks"], r["ticks"][1:])
        ),
        records=records if traced else None,
    )


def warm_up(seconds: float = WARM_UP_S) -> None:
    """Keep every core busy for ``seconds`` before the first repetition.

    After an idle spell the first second or so of work runs up to three
    times slower on small virtual machines; without this the first
    repetition of a run carries that stall into its tail latency.
    """
    import numpy as np

    a = np.random.default_rng(0).random((256, 256))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a = np.tanh(a @ a)


@dataclass
class Run:
    """Everything one benchmark run measured."""

    reps: List[Rep] = field(default_factory=list)
    #: Crash restarts (workloads with ``crash``).
    restarts: List[Rep] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    recovers: List[float] = field(default_factory=list)
    ok: bool = True


def measure(
    work: Workload,
    inputs: prep.Inputs,
    ref: Reference,
    run_dir: pathlib.Path,
    seconds: float,
    trace: bool,
) -> Run:
    """Repetitions until ``seconds`` passed and enough ticks are pooled.

    With ``trace`` plain and traced repetitions alternate, and a crash
    workload adds one traced crash restart per traced repetition.
    Without it, set-up samples and restart samples follow.  Stops at the
    first failed process.
    """
    warm_up()
    run = Run()
    started = time.perf_counter()
    while True:
        traced = trace and len(run.reps) % 2 == 1
        rep = run_rep(work, inputs, ref, run_dir / f"rep{len(run.reps)}", traced)
        run.reps.append(rep)
        print(
            f"rep {len(run.reps) - 1} ({'traced' if traced else 'plain'}): "
            f"{'ok' if rep.ok else 'FAILED'}, {rep.failed}/{rep.offered} failed, "
            f"{rep.msgs_per_s:.0f} msgs/s, {len(rep.intervals)} tick intervals"
            + (
                f", p50 {1000 * statistics.median(rep.intervals):.1f} ms"
                f", p99 {1000 * percentile(rep.intervals, 99):.1f} ms"
                if rep.intervals
                else ""
            )
        )
        if not rep.ok:
            run.ok = False
            return run
        if trace:
            # Per-layer metrics need no tick percentiles: whole pairs only.
            enough = len(run.reps) % 2 == 0
        else:
            enough = sum(len(r.intervals) for r in run.reps) >= MIN_INTERVALS
        if enough and time.perf_counter() - started >= seconds:
            break
    if not trace:
        for k in range(SETUP_PROBES):
            setup = setup_probe(work, inputs, run_dir / f"setup{k}")
            if setup is None:
                run.ok = False
                return run
            run.setups.append(setup)
    if work.crash:
        restarts = sum(rep.traced for rep in run.reps) if trace else CRASH_RESTARTS
        for k in range(restarts):
            restart = crash_restart(work, inputs, ref, run_dir / f"crash{k}", traced=trace)
            run.restarts.append(restart)
            print(
                f"crash restart {k}: {'ok' if restart.ok else 'FAILED'}, "
                f"{restart.failed}/{restart.offered} failed"
            )
            if not restart.ok:
                run.ok = False
                return run
        run.recovers = [t for restart in run.restarts for t in restart.recovers]
        return run
    if trace:
        return run
    for k in range(RESTARTS):
        recovers = restart_probe(work, run.reps[k % len(run.reps)], run_dir / f"restart{k}.json")
        if recovers is None:
            run.ok = False
            return run
        run.recovers.extend(recovers)
    return run


# -- metrics -------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(run: Run) -> Dict[str, float]:
    """Medians over repetitions; tick percentiles over pooled intervals."""
    reps = run.reps
    intervals = [i for rep in reps for i in rep.intervals]
    median = statistics.median
    return {
        "msgs_per_s": median(r.msgs_per_s for r in reps),
        "tick_ms_p50": 1000.0 * median(intervals),
        "tick_ms_p99": 1000.0 * percentile(intervals, 99),
        "first_tick_s": median(r.first_tick_s for r in reps),
        "peak_rss_mb": median(r.peak_rss_mb for r in reps),
        "setup_s": median([r.setup_s for r in reps] + run.setups),
        "recover_s": median(run.recovers),
    }


def self_times(record: dict) -> Dict[str, float]:
    """Self time per span name: duration minus child spans."""
    spans = record["spans"]
    starts, ends, parents = spans["starts"], spans["ends"], spans["parents"]
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    totals: Dict[str, float] = {}
    for name, value in zip(spans["names"], own):
        totals[name] = totals.get(name, 0.0) + value
    return totals


def per_layer(records: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, over all its processes."""
    totals: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    hits = misses = 0
    for record in records:
        for name, value in self_times(record).items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        for name, values in record["samples"].items():
            samples.setdefault(name, []).extend(values)
        hits += record["memo"][0]
        misses += record["memo"][1]
    out = {
        name: totals.get(span, 0.0) if span else counts.get(name, 0.0)
        for name, (_, span) in PER_LAYER.items()
    }
    out["logs.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    rows = samples.get("nn.predict.rows_per_call", [])
    out["nn.predict.rows_per_call_p50"] = statistics.median(rows) if rows else 0.0
    skew = samples.get("fleet.shard_skew", [])
    out["fleet.shard_skew"] = statistics.median(skew) if skew else 0.0
    ingested = counts.get("stream.ingested", 0.0)
    out["stream.scored_ratio"] = counts.get("stream.scored", 0.0) / ingested if ingested else 0.0
    main = records[0]
    out["ledger.unaccounted_frac"] = self_times(main)["cli.main"] / (
        main["main_end"] - main["main_start"]
    )
    return out


def traced_metrics(run: Run) -> Dict[str, float]:
    """Per-layer medians over traced repetitions, plus tracing overhead."""
    traced = [rep for rep in run.reps if rep.traced]
    layers = [per_layer(rep.records) for rep in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in PER_LAYER}
    if run.restarts:
        recoveries = [per_layer(restart.records) for restart in run.restarts]
        for name in RECOVERY_LAYERS:
            values[name] = statistics.median(v[name] for v in recoveries)
    plain_rate = statistics.median(r.msgs_per_s for r in run.reps if not r.traced)
    traced_rate = statistics.median(r.msgs_per_s for r in traced)
    values["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    print_ledger(traced[0].records)
    if run.restarts:
        print("crash restart:")
        print_ledger(run.restarts[0].records)
    return values


# -- reporting -------------------------------------------------------------------


def host_record(work: Workload, inputs: prep.Inputs) -> Dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    # As the serve processes see them.
    env = serve_env(work)
    threads = {var: env.get(var, "unset") for var in THREAD_VARS}
    return {
        "host_cores": os.cpu_count(),
        "blas": blas,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trace_messages": inputs.messages,
        "trace_bytes": sum(p.stat().st_size for p in inputs.trace.iterdir()),
    }


def cpu_ticks() -> Tuple[int, int]:
    """Host CPU time stolen by the hypervisor and in total, in ticks."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def print_ledger(records: List[dict]) -> None:
    """Self time per span of the serve process (rows sum to its wall
    time), then of each shard worker (no root span: rows are its spans)."""
    for record in records:
        rows = sorted(self_times(record).items(), key=lambda item: -item[1])
        total = sum(value for _, value in rows)
        if record["main"]:
            wall = record["main_end"] - record["main_start"]
            print(f"stage ledger (serve process, wall {wall:.3f} s):")
        else:
            wall = total
            print(f"stage ledger (shard worker {record['pid']}, spans only):")
        for name, value in rows:
            stage = STAGES.get(name, name)
            print(f"  {stage:<28} {name:<24} {value:9.3f} s {100 * value / wall:6.2f}%")
        print(f"  {'sum':<53} {total:9.3f} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (prep.SRC / "repro" / "cli.py").exists():
        print(f"no program sources under {prep.SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    try:
        inputs = prep.prepare(work.family, args.seed)
        if work.crash:
            prep.prepare_crash(inputs)
    except prep.PrepError as error:
        print(f"input preparation failed: {error}", file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_record(work, inputs), sort_keys=True))
    ref = Reference.load(inputs.reference, inputs.threshold)

    run_dir = prep.WORK / "runs" / f"{args.workload}-seed{args.seed}"
    steal0, total0 = cpu_ticks()
    run = measure(work, inputs, ref, run_dir, args.seconds, bool(args.trace))
    steal1, total1 = cpu_ticks()
    if total1 > total0:
        # Speed drifts with other guests on the host; steal shows some of it.
        print(f"host steal: {100 * (steal1 - steal0) / (total1 - total0):.2f}% of CPU time")

    checked = run.reps + run.restarts
    attempted = sum(rep.offered for rep in checked)
    failed = min(attempted, sum(rep.failed for rep in checked))
    correct = run.ok and failed == 0
    print(f"correctness: {failed}/{attempted} messages failed ({failed / attempted:.6f})")
    metrics: Dict[str, Dict[str, float]] = {}
    if run.ok:
        if args.trace:
            values = traced_metrics(run)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end(run)
            units = END_TO_END
            pooled = sum(len(r.intervals) for r in run.reps)
            print(f"pooled tick intervals: {pooled} over {len(run.reps)} repetitions")
        for name, value in values.items():
            print(f"{name:<32} {value:14.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    if correct:
        # Keep the data dirs, sinks and serve logs of a failed run.
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
