"""Sharded-fleet benchmarks: aggregate throughput, kill-shard drill.

Two questions, one suite:

* what does sharding buy?  The same round-robin fleet stream is
  drained through :class:`~repro.runtime.fleet.FleetCoordinator`
  topologies of 1, 2 and 4 shards at each device count, and the
  aggregate acknowledged throughput (messages / wall seconds, spawn
  and bootstrap excluded, coordinator routing included) is recorded
  together with its scaling ratio against the 1-shard fleet at the
  same device count.  Shards are OS processes, so the ratio is
  hardware-dependent: on an N-core host the expected scaling at 4
  shards is ~min(4, N) x, and the record therefore carries
  ``host_cores`` so trajectory points from different machines stay
  comparable (a single-core host pins ~1x by construction — the
  perf gate in ``tests/perf/test_fleet_bench.py`` reads
  ``host_cores`` and asserts the bound the hardware can express);
* does a shard death hurt the rest?  The kill drill crashes the
  busiest shard mid-drain, asserts every surviving shard finished its
  backlog, restarts the dead shard (WAL replay), finishes the feed
  and diffs the per-shard score CSVs against an uninterrupted run's:
  parity must be exact (``repr`` float64 rows), with zero dropped and
  zero double-scored rows.

``run(scale)`` returns a JSON-ready record; ``run.py fleet`` appends
it to ``BENCH_fleet.json`` at the repo root.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import streaming
from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.runtime.fleet import (
    FleetConfig,
    FleetCoordinator,
    bootstrap_fleet,
)
from repro.runtime.service import ServiceConfig


@dataclass(frozen=True)
class FleetScale:
    """One fleet-benchmark operating point."""

    name: str
    shard_counts: Tuple[int, ...]
    device_counts: Tuple[int, ...]
    timed_messages: int
    tick_size: int = 256
    max_inflight: int = 4
    drill_shards: int = 4
    drill_devices: int = 1024
    drill_messages: int = 8192
    drill_kill_after: int = 6
    drill_tick_size: int = 64
    drill_checkpoint_every: int = 5


SCALES: Dict[str, FleetScale] = {
    # The reference sweep BENCH_fleet.json records: up to the 10k+
    # device regime the ROADMAP's million-user target passes through.
    "default": FleetScale(
        name="default",
        shard_counts=(1, 2, 4),
        device_counts=(1024, 4096, 10240),
        timed_messages=49152,
        drill_devices=4096,
    ),
    # CI / perf-marked pytest smoke (<60 s): one sub-4k and one 4k+
    # device point, 1-vs-4 shards.
    "reduced": FleetScale(
        name="reduced",
        shard_counts=(1, 4),
        device_counts=(512, 4096),
        timed_messages=12288,
        drill_devices=512,
        drill_messages=4096,
    ),
}


def host_cores() -> int:
    """CPU cores available to this process (scaling context)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_detector(scale: FleetScale) -> LSTMAnomalyDetector:
    """A fitted float64 detector on the shared streaming corpus."""
    f64, _ = streaming.build_detectors(
        streaming.SCALES[
            "reduced" if scale.name == "reduced" else "default"
        ]
    )
    return f64


def _drain_once(
    config: FleetConfig,
    detector: LSTMAnomalyDetector,
    feed,
    tick_size: int,
) -> Tuple[float, float, int]:
    """Bootstrap + spawn a fleet, drain ``feed`` once, tear down.

    Returns ``(wall_seconds, drain_seconds, messages)`` where wall
    time wraps the whole drain call (routing included) and drain time
    is the coordinator's own post-partition clock.
    """
    bootstrap_fleet(config, detector, float("inf"))
    registry = telemetry.MetricsRegistry()
    with telemetry.use(registry):
        coordinator = FleetCoordinator.open(config)
        try:
            start = time.perf_counter()
            report = coordinator.drain(feed, tick_size=tick_size)
            wall = time.perf_counter() - start
        finally:
            coordinator.close()
    if report.dead_shards:
        raise RuntimeError(
            f"shards died during a timing drain: {report.dead_shards}"
        )
    return wall, report.seconds, report.messages


def bench_scaling(scale: FleetScale, root: pathlib.Path) -> Dict:
    """The shards x devices aggregate-throughput sweep."""
    detector = build_detector(scale)
    sweep: List[Dict] = []
    for devices in scale.device_counts:
        feed = streaming.fleet_stream(devices, scale.timed_messages)
        base_rate: Optional[float] = None
        for shards in scale.shard_counts:
            config = FleetConfig(
                data_dir=root / f"sweep-d{devices}-s{shards}",
                shards=shards,
                max_inflight=scale.max_inflight,
            )
            wall, drain_s, messages = _drain_once(
                config, detector, feed, scale.tick_size
            )
            rate = messages / wall
            if shards == scale.shard_counts[0] and shards == 1:
                base_rate = rate
            sweep.append(
                {
                    "devices": devices,
                    "shards": shards,
                    "messages": messages,
                    "wall_s": wall,
                    "drain_s": drain_s,
                    "msgs_per_s": rate,
                    "scaling_vs_1shard": (
                        rate / base_rate if base_rate else 1.0
                    ),
                }
            )
    return {
        "tick_size": scale.tick_size,
        "max_inflight": scale.max_inflight,
        "timed_messages": scale.timed_messages,
        "host_cores": host_cores(),
        "sweep": sweep,
    }


def _read_rows(base: pathlib.Path) -> List[str]:
    """All CSV rows across one run's per-shard score files."""
    rows: List[str] = []
    for path in sorted(base.parent.glob(base.name + ".shard*")):
        rows.extend(path.read_text().splitlines())
    return rows


def bench_kill_drill(scale: FleetScale, root: pathlib.Path) -> Dict:
    """Kill the busiest shard mid-drain; prove replay parity.

    The baseline run and the drill run score the same feed through
    the same topology; after the drill's crash, survivor-completion,
    restart and resumed drain, the union of per-shard CSV rows must
    match the baseline's exactly — replayed ticks re-land byte-for-
    byte (``repr`` float64) and collapse like CI's ``sort -u``.
    """
    detector = build_detector(scale)
    feed = streaming.fleet_stream(
        scale.drill_devices, scale.drill_messages
    )

    baseline_cfg = FleetConfig(
        data_dir=root / "drill-baseline",
        shards=scale.drill_shards,
        scores_out=str(root / "drill-baseline.csv"),
        service=ServiceConfig(
            data_dir=root / "drill-baseline",
            checkpoint_every=scale.drill_checkpoint_every,
        ),
    )
    bootstrap_fleet(baseline_cfg, detector, float("inf"))
    with telemetry.use(telemetry.MetricsRegistry()):
        coordinator = FleetCoordinator.open(baseline_cfg)
        try:
            coordinator.drain(feed, tick_size=scale.drill_tick_size)
        finally:
            coordinator.close()
        # Kill the shard carrying the most devices so the drill always
        # crashes a loaded worker (tiny fleets leave shards empty).
        parts = coordinator.partition(feed)
    victim = max(parts, key=lambda shard: len(parts[shard]))

    drill_cfg = FleetConfig(
        data_dir=root / "drill-crash",
        shards=scale.drill_shards,
        scores_out=str(root / "drill-crash.csv"),
        service=ServiceConfig(
            data_dir=root / "drill-crash",
            checkpoint_every=scale.drill_checkpoint_every,
        ),
        kill_shard=victim,
        kill_after_ticks=scale.drill_kill_after,
    )
    bootstrap_fleet(drill_cfg, detector, float("inf"))
    with telemetry.use(telemetry.MetricsRegistry()):
        coordinator = FleetCoordinator.open(drill_cfg)
        try:
            crashed = coordinator.drain(
                feed, tick_size=scale.drill_tick_size
            )
            survivors_stalled = any(
                report.backlog > 0
                for shard, report in crashed.per_shard.items()
                if shard != victim
            )
            replayed = coordinator.restart_shard(victim)
            resumed = coordinator.drain(
                feed, tick_size=scale.drill_tick_size
            )
        finally:
            coordinator.close()

    baseline_rows = _read_rows(root / "drill-baseline.csv")
    drill_rows = _read_rows(root / "drill-crash.csv")
    baseline_set: Set[str] = set(baseline_rows)
    drill_set: Set[str] = set(drill_rows)
    return {
        "devices": scale.drill_devices,
        "shards": scale.drill_shards,
        "messages": scale.drill_messages,
        "killed_shard": victim,
        "kill_after_ticks": scale.drill_kill_after,
        "replayed_ticks": replayed,
        "crashed_dead_shards": list(crashed.dead_shards),
        "resumed_dead_shards": list(resumed.dead_shards),
        "survivors_stalled": survivors_stalled,
        "score_parity": baseline_set == drill_set,
        "dropped_rows": len(baseline_set - drill_set),
        "double_scored_rows": len(drill_set - baseline_set),
        "baseline_rows": len(baseline_rows),
        "drill_rows": len(drill_rows),
        "replayed_duplicate_rows": len(drill_rows) - len(drill_set),
    }


def run(scale_name: str = "default") -> Dict:
    """Run the fleet suite at one scale; returns the run record."""
    scale = SCALES[scale_name]
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    try:
        record = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scale": scale.name,
            "benchmarks": {
                "fleet_scaling": bench_scaling(scale, root),
                "kill_drill": bench_kill_drill(scale, root),
            },
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return record


if __name__ == "__main__":
    import json

    print(json.dumps(run("reduced"), indent=2))
