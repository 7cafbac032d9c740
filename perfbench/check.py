"""Correctness gate: every sink of a run against offline references.

The reference (``prep.py``) holds, per message of ``serve``'s feed, its
vPE, timestamp, shard and ``LSTMAnomalyDetector.score`` over its vPE's
stream.  Sink files are first collapsed like ``sort -u`` (a crashed run
plus its replay re-write the replayed ticks identically).

* **Scores** — one row per message, ``tick,i,score,kept`` (a fleet's
  shard files lead with the shard).  A shard's rows, ordered by
  ``(tick, i)``, are its sub-feed in order: the feed positions whose vPE
  the ring puts on that shard.  A message fails when its row is missing,
  when two different rows claim it, when it was dropped (``kept`` 0), or
  when its score's bit pattern differs from the reference (the first
  ``window`` messages of a stream carry no score, NaN, on both sides).
* **Warnings** — derived offline from the reference scores by the
  paper's warning-signature rule at ``serve``'s defaults (below); each
  missing or surplus warning row fails one message.
* **Incidents** — every anomaly (a score above the threshold) must be
  folded into exactly one closed incident of its shard that names its
  device and spans its time; an incident's first and last times and
  its peak score must be those of anomalies of its devices.  Each
  uncovered anomaly, each anomaly over- or under-counted and each
  anomaly of a malformed incident fails.  Cause attribution is not
  checked.
"""

from __future__ import annotations

import math
import pathlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

#: The warning-signature rule ``serve`` runs (``OnlineMonitor``
#: defaults): a warning fires when a device's anomalies, each within
#: ``GAP`` seconds of the newest, number ``MIN_SIZE``, unless one fired
#: on the device less than ``COOLDOWN`` seconds before.
MIN_SIZE = 2
GAP = 300.0
COOLDOWN = 1800.0

Key = Tuple[int, int]


@dataclass
class Reference:
    """Offline per-message facts of one prepared feed."""

    vpe: np.ndarray
    ts: np.ndarray
    scores: np.ndarray
    vpes: List[str]
    shard_of_vpe: np.ndarray
    threshold: float

    @classmethod
    def load(cls, path: pathlib.Path, threshold: float) -> "Reference":
        data = np.load(path)
        return cls(
            vpe=data["vpe"],
            ts=data["ts"],
            scores=data["scores"],
            vpes=[str(v) for v in data["vpes"]],
            shard_of_vpe=data["shard"],
            threshold=threshold,
        )

    def prefix(self, n: int) -> "Reference":
        """The first ``n`` messages of the feed (what a crash journaled)."""
        return Reference(
            self.vpe[:n], self.ts[:n], self.scores[:n], self.vpes, self.shard_of_vpe, self.threshold
        )

    @property
    def size(self) -> int:
        return int(self.scores.size)

    def anomalies(self) -> np.ndarray:
        """Feed positions scoring above the threshold (NaN never does)."""
        with np.errstate(invalid="ignore"):
            return np.flatnonzero(self.scores > self.threshold)

    def warnings(self) -> Counter:
        """Expected warning rows ``(vpe, time, first, n, peak)``."""
        times: Dict[int, List[float]] = {}
        peak: Dict[int, Optional[float]] = {}
        cooldown: Dict[int, float] = {}
        out: Counter = Counter()
        for p in self.anomalies():
            v = int(self.vpe[p])
            now = float(self.ts[p])
            score = float(self.scores[p])
            chained = [t for t in times.get(v, []) if now - t <= GAP]
            if not chained and peak.get(v) is not None:
                peak[v] = 0.0  # a fully expired cluster drops its peak
            chained.append(now)
            times[v] = chained
            if peak.get(v) is None or score > peak[v]:
                peak[v] = score
            if now < cooldown.get(v, -math.inf) or len(chained) < MIN_SIZE:
                continue
            cooldown[v] = now + COOLDOWN
            out[(self.vpes[v], repr(now), repr(chained[0]), str(len(chained)), repr(peak[v]))] += 1
            times[v] = []
            peak[v] = None
        return out


def _lines(paths: Iterable[pathlib.Path]) -> Set[str]:
    """Distinct lines across files (``sort -u``)."""
    lines: Set[str] = set()
    for path in paths:
        if path.exists():
            with open(path) as handle:
                lines.update(line.rstrip("\n") for line in handle)
    return lines


def _split(line: str, sharded: bool) -> Tuple[int, List[str]]:
    fields = line.split(",")
    return (int(fields[0]), fields[1:]) if sharded else (0, fields)


def _score_failures(rows: Dict[Key, set], expected: np.ndarray) -> int:
    """Missing or wrong decisions, rows matched to ``expected`` in order."""
    keys = sorted(rows)
    n = expected.size
    matched = min(len(keys), n)
    got = np.empty(matched)
    bad = np.zeros(matched, dtype=bool)
    for position, key in enumerate(keys[:matched]):
        values = rows[key]
        if len(values) != 1:
            bad[position] = True
            got[position] = np.nan
            continue
        ((score, kept),) = values
        got[position] = float(score)
        bad[position] = kept != "1"
    same = got.view(np.uint64) == expected[:matched].view(np.uint64)
    failed = int(np.count_nonzero(bad | ~same))
    # Missing rows fail; so do surplus rows (capped at the offered count).
    return min(n, failed + abs(len(keys) - n))


def score_failures(ref: Reference, paths: List[pathlib.Path], sharded: bool) -> int:
    shards: Dict[int, Dict[Key, set]] = {}
    for line in _lines(paths):
        shard, (tick, i, score, kept) = _split(line, sharded)
        shards.setdefault(shard, {}).setdefault((int(tick), int(i)), set()).add((score, kept))
    feed_shard = ref.shard_of_vpe[ref.vpe] if sharded else np.zeros(ref.size, dtype=int)
    failed = 0
    for shard in set(shards) | set(np.unique(feed_shard).tolist()):
        expected = ref.scores[feed_shard == shard]
        rows = shards.get(shard, {})
        failed += _score_failures(rows, expected) if expected.size else len(rows)
    return failed


def warning_failures(ref: Reference, paths: List[pathlib.Path], sharded: bool) -> int:
    got = Counter(tuple(_split(line, sharded)[1][1:]) for line in _lines(paths))
    expected = ref.warnings()
    return sum((expected - got).values()) + sum((got - expected).values())


def incident_failures(ref: Reference, paths: List[pathlib.Path], sharded: bool) -> int:
    anomalies = ref.anomalies()
    shard_of = ref.shard_of_vpe if sharded else np.zeros(len(ref.vpes), dtype=int)
    # Per (shard, device): anomaly times and scores, in feed order.
    events: Dict[Tuple[int, str], List[Tuple[float, float]]] = {}
    for p in anomalies:
        v = int(ref.vpe[p])
        events.setdefault((int(shard_of[v]), ref.vpes[v]), []).append(
            (float(ref.ts[p]), float(ref.scores[p]))
        )
    covered: Counter = Counter()
    claimed: Counter = Counter()
    failed = 0
    for line in _lines(paths):
        shard, fields = _split(line, sharded)
        first, last = float(fields[1]), float(fields[2])
        devices = fields[4].split(";")
        n = int(fields[5])
        peak = fields[6]
        claimed[shard] += n
        inside = [
            (t, s)
            for device in devices
            for t, s in events.get((shard, device), [])
            if first <= t <= last
        ]
        times = {t for t, _ in inside}
        if first not in times or last not in times or peak not in {repr(s) for _, s in inside}:
            failed += n
        for device in devices:
            for t, _ in events.get((shard, device), []):
                if first <= t <= last:
                    covered[(shard, device, t)] = 1
    expected: Counter = Counter()
    for (shard, device), items in events.items():
        expected[shard] += len(items)
        failed += sum(1 for t, _ in items if not covered[(shard, device, t)])
    failed += sum(abs(claimed[s] - expected[s]) for s in set(claimed) | set(expected))
    return failed


@dataclass
class Sinks:
    """A run's sink files (a crash restart's: the crashed run's too)."""

    scores: List[pathlib.Path]
    warnings: List[pathlib.Path]
    incidents: List[pathlib.Path]
    sharded: bool = False


def check_run(ref: Reference, sinks: Sinks) -> Dict[str, int]:
    """Failed messages per sink."""
    failed = {
        "scores": score_failures(ref, sinks.scores, sinks.sharded),
        "warnings": warning_failures(ref, sinks.warnings, sinks.sharded),
    }
    if sinks.incidents:
        failed["incidents"] = incident_failures(ref, sinks.incidents, sinks.sharded)
    return failed


def count_rows(paths: Iterable[pathlib.Path]) -> int:
    """Rows written to the given sink files."""
    total = 0
    for path in paths:
        if path.exists():
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle)
    return total
