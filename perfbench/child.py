"""One ``repro serve`` process under the benchmark's probes.

Usage (from the root of a checkout)::

    python3 perfbench/child.py OUT.json plain  serve --data-dir ...
    python3 perfbench/child.py OUT.json traced serve --data-dir ...
    python3 perfbench/child.py OUT.json setup  serve --data-dir ...

Imports the program from ``src/``, wraps the public entry points of
each layer with timing probes, calls ``repro.cli.main`` with the
arguments after the mode, and writes what the probes saw to
``OUT.json``.  Shard workers forked by ``serve --shards N`` inherit the
probes and each write ``OUT.json.<pid>`` when they exit.

``plain`` records only what the end-to-end metrics need: the start of
every ``MonitorService.process_tick`` call, the first call into
``MonitorService.recover`` or ``read_trace`` in the serve process (the
end of set-up), the end of the first sink write after the first
``process_tick`` (so a replay's re-written rows do not count), the end
of ``MonitorService.close`` or ``FleetCoordinator.close`` and the
duration of each ``recover``.
``traced`` adds a span (name, start, end, parent) around every wrapped
call plus the work counts of each layer.  Spans stay in memory until the
process ends.  ``setup`` stops the command at the end of set-up (its
only measurement), so set-up can be sampled many times per run at the
cost of an interpreter start.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pathlib
import resource
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent


class SetupDone(BaseException):
    """Raised at the end of set-up in ``setup`` mode.

    A ``BaseException`` so that no ``except Exception`` in the program
    swallows it; ``finally`` blocks still close what was opened.
    """


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    ``VmHWM`` belongs to the address space, so unlike ``ru_maxrss`` it
    does not carry over the size of the process that forked and exec'd
    this one.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Per-process probe state: marks, tick starts, spans and counts."""

    def __init__(self, mode: str, out: pathlib.Path) -> None:
        self.traced = mode == "traced"
        self.setup_only = mode == "setup"
        self.out = out
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts empty)."""
        self.pid = os.getpid()
        #: Whether this process opened a fleet (its encodes are pipe frames).
        self.coordinator = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.ticks: List[float] = []
        self.recovers: List[float] = []
        self.marks: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.memo: Dict[int, tuple] = {}

    @property
    def is_main(self) -> bool:
        return self.pid == self.main_pid

    def enter(self, name: str) -> None:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)

    def exit(self) -> None:
        self.ends[self.stack.pop()] = perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self, extra: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "main": self.is_main,
            "marks": self.marks,
            "ticks": self.ticks,
            "recovers": self.recovers,
            "counts": self.counts,
            "samples": self.samples,
            "memo": [
                sum(h for h, _ in self.memo.values()),
                sum(m for _, m in self.memo.values()),
            ],
            "spans": {
                "names": self.names,
                "starts": self.starts,
                "ends": self.ends,
                "parents": self.parents,
            },
            "rss_kb": peak_rss_kb(),
            **extra,
        }

    def after_fork(self) -> None:
        """In a forked worker: start empty, dump when the worker exits."""
        self.reset()
        multiprocessing.util.Finalize(self, self.dump_worker, exitpriority=10)

    def dump_worker(self) -> None:
        path = self.out.with_name(f"{self.out.name}.{self.pid}")
        path.write_text(json.dumps(self.record({})))


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    Class and static methods keep their kind.  A module-level function
    is also replaced in every ``repro`` module that imported it by name.
    """
    raw = owner.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
        return
    wrapped = make(raw)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is raw:
                setattr(module, attr, wrapped)


def _call_probe(
    rec: Recorder,
    span: Optional[str],
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: optional span plus before/after hooks."""
    traced = rec.traced and span is not None

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            if traced:
                rec.enter(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if traced:
                    rec.exit()
            if after is not None:
                after(args, result, t0, t1)
            return result

        return wrapper

    return make


def _gen_probe(rec: Recorder, span: str) -> Callable[[Callable], Callable]:
    """Span around each step of a generator (consumer time excluded)."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            while True:
                rec.enter(span)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                yield item

        return wrapper

    return make


def install(rec: Recorder) -> None:
    """Wrap every probed entry point of the program."""
    from repro import cli
    from repro.core.online import OnlineMonitor
    from repro.core.stream import StreamScorer
    from repro.logs.templates import TemplateStore
    from repro.nn.model import Sequential
    from repro.nn.quant import QuantizedModel
    from repro.rca import RcaEngine
    from repro.runtime import checkpoint, codec, fleet
    from repro.runtime.service import MonitorService
    from repro.runtime.wal import WriteAheadLog

    probe = functools.partial(_call_probe, rec)

    def end_of_setup(args: tuple) -> None:
        if rec.is_main and "setup_end" not in rec.marks:
            rec.marks["setup_end"] = perf_counter()
            if rec.setup_only:
                raise SetupDone()

    def on_recover(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.recovers.append(t1 - t0)

    def on_close(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.marks["close_end"] = t1

    def tick_start(args: tuple) -> None:
        rec.ticks.append(perf_counter())

    def on_tick_write(args: tuple, result: Any, t0: float, t1: float) -> None:
        batch = args[1]
        if rec.ticks and any(len(r.scores) for r in batch):
            rec.marks.setdefault("first_write", t1)
        if rec.traced:
            rec.count("sink.rows", sum(len(r.scores) + len(r.warnings) for r in batch))

    def on_read(args: tuple, result: Any, t0: float, t1: float) -> None:
        if not rec.traced:
            return
        trace_dir = pathlib.Path(args[0])
        meta, messages, _ = result
        rec.count("cli.read_trace.messages", sum(len(s) for s in messages.values()))
        names = ["meta.json", "tickets.csv"] + [f"{v}.jsonl" for v in meta["vpes"]]
        rec.count(
            "cli.read_trace.bytes", sum((trace_dir / n).stat().st_size for n in names)
        )

    # -- probes the end-to-end metrics need (every mode) -----------------
    _patch(MonitorService, "process_tick", probe("service.process_tick", before=tick_start))
    _patch(
        MonitorService, "recover",
        probe("service.recover", before=end_of_setup, after=on_recover),
    )
    _patch(MonitorService, "close", probe("service.close", after=on_close))
    _patch(fleet.FleetCoordinator, "close", probe("fleet.close", after=on_close))
    _patch(cli._TickWriter, "write", probe("sink.write", after=on_tick_write))
    _patch(fleet._ShardTickWriter, "write", probe("sink.write", after=on_tick_write))
    _patch(cli, "read_trace", probe("cli.read_trace", before=end_of_setup, after=on_read))
    if not rec.traced:
        return

    # -- traced mode: spans and work counts per layer --------------------
    def on_match(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("logs.match_ids.messages", len(args[1]))
        rec.memo[id(args[0])] = args[0].memo_stats

    def on_predict(args: tuple, result: Any, t0: float, t1: float) -> None:
        rows = int(args[1].shape[0])
        rec.count("nn.predict.rows", rows)
        rec.sample("nn.predict.rows_per_call", rows)

    def on_scorer(args: tuple, result: Any, t0: float, t1: float) -> None:
        scores = result.scores
        rec.count("stream.ingested", len(args[1]))
        rec.count("stream.scored", int((scores == scores).sum()))  # NaN != NaN

    def on_online(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("online.warnings", sum(1 for w in result if w is not None))

    def on_encode(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("codec.encode.bytes", memoryview(result).nbytes)

    def on_append(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("wal.append.bytes", len(args[2]))

    def on_checkpoint(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("checkpoint.writes", 1)
        rec.count("checkpoint.bytes", int(result))

    def on_drain_closed(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("rca.incidents", len(result))

    def on_incident_rows(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("sink.rows", int(result))

    def on_shard_incidents(args: tuple, result: Any, t0: float, t1: float) -> None:
        rec.count("sink.rows", len(args[1]))

    def on_encode_tick(args: tuple, result: Any, t0: float, t1: float) -> None:
        on_encode(args, result, t0, t1)
        if rec.coordinator:
            rec.count("fleet.send.bytes", memoryview(result).nbytes)

    def on_fleet_open(args: tuple) -> None:
        rec.coordinator = True

    def on_partition(args: tuple, result: Any, t0: float, t1: float) -> None:
        sizes = [len(part) for part in result.values()]
        if sum(sizes):
            rec.sample("fleet.shard_skew", max(sizes) * len(sizes) / sum(sizes))

    _patch(cli, "_serve_feed", probe("cli.merge"))
    _patch(cli, "_drain_incidents", probe("sink.write", after=on_incident_rows))
    _patch(cli, "stage_release", probe("setup.stage_release"))
    _patch(cli, "_load_detector", probe("setup.load_detector"))
    _patch(TemplateStore, "match_ids", probe("logs.match_ids", after=on_match))
    _patch(Sequential, "predict", probe("nn.predict", after=on_predict))
    _patch(QuantizedModel, "infer", probe("nn.predict", after=on_predict))
    _patch(StreamScorer, "observe_batch", probe("stream.observe_batch", after=on_scorer))
    _patch(OnlineMonitor, "observe_batch", probe("online.observe_batch", after=on_online))
    _patch(codec.TickEncoder, "encode", probe("codec.encode", after=on_encode_tick))
    _patch(codec, "decode_tick", probe("codec.decode"))
    _patch(WriteAheadLog, "append", probe("wal.append", after=on_append))
    _patch(WriteAheadLog, "replay", _gen_probe(rec, "wal.replay"))
    _patch(WriteAheadLog, "prune", probe("wal.prune"))
    _patch(checkpoint, "write_checkpoint", probe("checkpoint.write", after=on_checkpoint))
    _patch(checkpoint, "read_checkpoint", probe("checkpoint.read"))
    _patch(RcaEngine, "observe_tick", probe("rca.observe_tick"))
    _patch(RcaEngine, "drain_closed", probe(None, after=on_drain_closed))
    _patch(MonitorService, "open", probe("service.open"))
    _patch(MonitorService, "drain", _gen_probe(rec, "service.drain"))
    _patch(fleet._ShardTickWriter, "write_incidents", probe("sink.write", after=on_shard_incidents))
    _patch(fleet.FleetCoordinator, "open", probe("fleet.open", before=on_fleet_open))
    _patch(fleet.FleetCoordinator, "partition", probe("fleet.partition", after=on_partition))
    _patch(fleet.FleetCoordinator, "drain", probe("fleet.drain"))


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("plain", "traced", "setup"):
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    from repro import cli

    rec = Recorder(argv[1], out)
    install(rec)
    multiprocessing.util.register_after_fork(rec, Recorder.after_fork)
    rec.enter("cli.main")
    main_start = perf_counter()
    try:
        exit_code = cli.main(argv[2:])
    except SetupDone:
        exit_code = 0
    main_end = perf_counter()
    rec.exit()
    extra = {"exit_code": exit_code, "main_start": main_start, "main_end": main_end}
    out.write_text(json.dumps(rec.record(extra)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
