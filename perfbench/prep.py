"""Per-seed input preparation, cached outside the timed region.

Every input is made by the program itself: ``simulate``, ``mine``,
``train`` and ``serve --kill-after-ticks`` (the crashed data dir) run
through its CLI, and the feed order, trimming and reference scores come
from its own functions in a subprocess (``prep.py trim|reference DIR``),
so this module holds no copy of the program's rules.  Two trace
families exist:

* ``dense`` — 16 vPEs, trimmed to :data:`MESSAGES` messages; used by
  ``serve-f64`` (whose crash restarts recover the crashed data dir);
* ``topology`` — 128 vPEs over a topology with correlated outages,
  trimmed to :data:`MESSAGES`; used by ``fleet-rca``.

A trace is trimmed to a fixed message count (the first N messages of
``serve``'s feed, ``cli._serve_feed``) so every seed offers the same
work.  Mining and training read only the first :data:`TRAIN_DAYS` days.
The offline reference (``LSTMAnomalyDetector.score`` per vPE stream)
is stored per feed position with the message's vPE, timestamp and
shard (the ring of ``serve --shards``), and the threshold is its
:data:`THRESHOLD_QUANTILE` quantile, so warnings fire on every seed.

The cache lives under ``.perfbench/cache/<digest>/`` where the digest
covers every file under ``src/`` and this module: inputs built by one
version of the code are never read by another.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

TICK_SIZE = 256
MESSAGES = 512 * TICK_SIZE
#: Shard count of the fleet workload (``serve --shards``).
SHARDS = 2
TRAIN_DAYS = 7
THRESHOLD_QUANTILE = 0.99

#: Crashed data dir for the crash restarts: a checkpoint every
#: CRASH_CADENCE ticks and a kill after CRASH_KILL journaled ticks leave
#: one checkpoint (tick 128) plus a 128-tick journal tail to replay.
CRASH_CADENCE = 128
CRASH_KILL = 256

#: ``simulate`` flags per family; a month at these rates holds about
#: 1.2x the messages kept.  A seed that falls short is simulated again
#: over two months.
_SIMULATE = {
    "dense": ["--vpes", "16", "--rate", "12"],
    "topology": [
        "--topology", "--scenario", "correlated-outage",
        "--vpes", "128", "--rate", "1.3",
    ],
}
#: Exit code of ``prep.py trim`` when the trace is too short.
_SHORT = 3


class PrepError(RuntimeError):
    """Input preparation failed (the run cannot be measured)."""


@dataclass(frozen=True)
class Inputs:
    """Paths and facts of one family's prepared inputs."""

    directory: pathlib.Path
    messages: int
    threshold: float

    @property
    def trace(self) -> pathlib.Path:
        return self.directory / "trace"

    @property
    def model(self) -> pathlib.Path:
        return self.directory / "model"

    @property
    def reference(self) -> pathlib.Path:
        return self.directory / "reference.npz"

    @property
    def crash(self) -> pathlib.Path:
        return self.directory / "crash"


def code_digest() -> str:
    """Digest of the program's sources and of this module."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [pathlib.Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prep_env() -> Dict[str, str]:
    """Environment for a preparation step run through the program.

    ``simulate`` fills message texts in an order that follows Python's
    per-process string hashing, so the hash seed is pinned: the same
    benchmark seed must give byte-identical inputs.
    """
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(args: Sequence[str], log: pathlib.Path, expect: int = 0) -> None:
    """``python -m repro ARGS`` from the checkout root, logged."""
    with open(log, "a") as handle:
        handle.write(f"$ repro {' '.join(args)}\n")
        handle.flush()
        code = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=prep_env(),
            stdout=handle,
            stderr=subprocess.STDOUT,
        ).returncode
    if code != expect:
        raise PrepError(f"repro {args[0]} exited {code} (expected {expect}); see {log}")


def _rel(path: pathlib.Path) -> str:
    return str(path.relative_to(ROOT))


def _program() -> object:
    """The program's CLI module, imported from ``src/``."""
    sys.path.insert(0, str(SRC))
    from repro import cli

    return cli


def trim_trace(trace: pathlib.Path, n: int) -> int:
    """Keep the first ``n`` messages of ``serve``'s feed of ``trace``.

    Runs in its own process (``prep.py trim DIR N``).  The feed comes
    from ``cli._serve_feed``; each kept message is traced back to its
    line through the messages ``cli.read_trace`` returned for the feed.
    Returns :data:`_SHORT` when the trace holds fewer than ``n``.
    """
    cli = _program()
    read = cli.read_trace
    loaded = []

    def capture(path: pathlib.Path) -> tuple:
        loaded.append(read(path))
        return loaded[-1]

    cli.read_trace = capture
    try:
        feed = cli._serve_feed(trace)
    finally:
        cli.read_trace = read
    if len(feed) < n:
        return _SHORT
    kept = {id(message) for message in feed[:n]}
    meta, messages, _ = loaded[0]
    for vpe in meta["vpes"]:
        path = trace / f"{vpe}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        if len(lines) != len(messages[vpe]):
            raise PrepError(f"{path}: lines and messages disagree")
        path.write_text(
            "".join(line for line, m in zip(lines, messages[vpe]) if id(m) in kept)
        )
    return 0


def training_slice(trace: pathlib.Path, out: pathlib.Path, days: float) -> None:
    """Copy the first ``days`` of a trace (for mine/train)."""
    out.mkdir(parents=True)
    meta = json.loads((trace / "meta.json").read_text())
    cutoff = meta["start"] + days * 86400.0
    for name in ("meta.json", "tickets.csv"):
        shutil.copyfile(trace / name, out / name)
    for vpe in meta["vpes"]:
        with open(trace / f"{vpe}.jsonl") as src, open(out / f"{vpe}.jsonl", "w") as dst:
            dst.writelines(line for line in src if json.loads(line)["ts"] < cutoff)


def compute_reference(inputs_dir: pathlib.Path) -> None:
    """Offline scores of every vPE stream, per position of the feed.

    Runs in its own process (``prep.py reference DIR``), so run.py
    never holds the model or the trace, and writes ``reference.npz``:
    per feed message (``cli._serve_feed`` order) its vPE index,
    timestamp and float64 score (NaN for the first ``window`` messages
    of each stream), the vPE names, and each vPE's shard on the ring
    ``serve --shards`` builds for :data:`SHARDS` shards.
    """
    import numpy as np

    cli = _program()
    from repro.runtime.fleet import FleetConfig
    from repro.runtime.ring import HashRing

    detector = cli._load_detector(inputs_dir / "model")
    feed = cli._serve_feed(inputs_dir / "trace")
    vpes = json.loads((inputs_dir / "trace" / "meta.json").read_text())["vpes"]
    index = {vpe: k for k, vpe in enumerate(vpes)}
    vpe_of = np.fromiter((index[m.host] for m in feed), dtype=np.int32, count=len(feed))
    times = np.fromiter((m.timestamp for m in feed), dtype=np.float64, count=len(feed))
    scores = np.full(len(feed), np.nan)
    window = detector.windower.window
    for vi in range(len(vpes)):
        positions = np.flatnonzero(vpe_of == vi)
        scored = detector.score([feed[p] for p in positions])
        # The first `window` messages of a stream have no full context.
        tail = positions[window:]
        if scored.scores.size != tail.size or not np.array_equal(scored.times, times[tail]):
            raise PrepError(f"{vpes[vi]}: offline scores do not align with the feed")
        scores[tail] = scored.scores
    replicas = FleetConfig(data_dir=inputs_dir, shards=SHARDS).replicas
    ring = HashRing(range(SHARDS), replicas=replicas)
    np.savez(
        inputs_dir / "reference.npz",
        vpe=vpe_of,
        ts=times,
        scores=scores,
        vpes=np.asarray(vpes),
        shard=np.asarray([ring.assign(vpe) for vpe in vpes], dtype=np.int32),
    )


def _program_step(step: str, *args: object, log: pathlib.Path) -> int:
    """``prep.py STEP ARGS`` in a subprocess; its exit code."""
    with open(log, "a") as handle:
        handle.write(f"$ prep.py {step} {' '.join(map(str, args))}\n")
        handle.flush()
        return subprocess.run(
            [sys.executable, __file__, step, *map(str, args)],
            cwd=ROOT,
            env=prep_env(),
            stdout=handle,
            stderr=subprocess.STDOUT,
        ).returncode


def reference_scores(inputs_dir: pathlib.Path) -> float:
    """Offline reference for the whole feed; returns the threshold."""
    import numpy as np

    log = inputs_dir / "prep.log"
    code = _program_step("reference", inputs_dir, log=log)
    if code:
        raise PrepError(f"reference scoring exited {code}; see {log}")
    scores = np.load(inputs_dir / "reference.npz")["scores"]
    finite = scores[~np.isnan(scores)]
    return float(np.quantile(finite, THRESHOLD_QUANTILE))


def _family_dir(family: str, seed: int) -> pathlib.Path:
    return WORK / "cache" / code_digest() / f"{family}-seed{seed}"


def prepare(family: str, seed: int) -> Inputs:
    """Build (or reuse) one family's inputs for ``seed``."""
    directory = _family_dir(family, seed)
    done = directory / "inputs.json"
    if done.exists():
        facts = json.loads(done.read_text())
        return Inputs(directory, facts["messages"], facts["threshold"])
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    log = directory / "prep.log"
    trace = directory / "trace"
    for months in (1, 2):
        simulate = [*_SIMULATE[family], "--months", str(months), "--seed", str(seed)]
        if trace.exists():
            shutil.rmtree(trace)
        run_cli(["simulate", *simulate, "--out", _rel(trace)], log)
        code = _program_step("trim", trace, MESSAGES, log=log)
        if code == 0:
            break
        if code != _SHORT:
            raise PrepError(f"trimming the trace exited {code}; see {log}")
        if months == 2:
            raise PrepError(f"{trace} holds fewer than {MESSAGES} messages")
    train_trace = directory / "train-trace"
    training_slice(trace, train_trace, TRAIN_DAYS)
    templates = directory / "templates.json"
    run_cli(["mine", "--trace", _rel(train_trace), "--out", _rel(templates)], log)
    run_cli(
        [
            "train", "--trace", _rel(train_trace), "--templates", _rel(templates),
            "--out", _rel(directory / "model"), "--train-days", str(TRAIN_DAYS),
            "--seed", str(seed),
        ],
        log,
    )
    shutil.rmtree(train_trace)
    threshold = reference_scores(directory)
    facts = {"family": family, "seed": seed, "messages": MESSAGES, "threshold": threshold}
    done.write_text(json.dumps(facts))
    # Leave no write-back of fresh inputs to overlap the measurement.
    os.sync()
    return Inputs(directory, MESSAGES, threshold)


def prepare_crash(inputs: Inputs) -> pathlib.Path:
    """The crashed serve-f64 data dir (plus the sinks it wrote)."""
    crash = inputs.crash
    done = crash / "crash.json"
    if done.exists():
        return crash
    if crash.exists():
        shutil.rmtree(crash)
    crash.mkdir()
    run_cli(
        [
            "serve", "--data-dir", _rel(crash / "svc"), "--trace", _rel(inputs.trace),
            "--model", _rel(inputs.model), "--threshold", repr(inputs.threshold),
            "--checkpoint-every", str(CRASH_CADENCE),
            "--kill-after-ticks", str(CRASH_KILL),
            "--scores-out", _rel(crash / "scores.csv"),
            "--warnings-out", _rel(crash / "warnings.csv"),
        ],
        crash / "prep.log",
        expect=3,
    )
    done.write_text(json.dumps({"cadence": CRASH_CADENCE, "kill": CRASH_KILL}))
    os.sync()
    return crash


if __name__ == "__main__":
    if sys.argv[1:2] == ["trim"] and len(sys.argv) == 4:
        sys.exit(trim_trace(pathlib.Path(sys.argv[2]), int(sys.argv[3])))
    if sys.argv[1:2] == ["reference"] and len(sys.argv) == 3:
        sys.exit(compute_reference(pathlib.Path(sys.argv[2])))
    sys.exit("usage: prep.py trim TRACE_DIR N | prep.py reference INPUTS_DIR")
