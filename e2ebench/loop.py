"""The closed-loop runner: set-up, then whole cycles until time is up.

A cycle is one restart of the clinic's system and the same fixed round of
every operation kind, in this order:

1. ``recover`` -- ``DDDGMS.recover()`` on a copy of the durable root left
   by set-up, the workload's config re-attached, until the first query is
   answered; then the workload's ``query`` stream on the recovered epoch;
2. ``ROUNDS`` times: ``ingest`` the round's batch through
   ``ingest_visits``, the stream; ``fold`` a new feedback dimension
   through ``fold_feedback``, the stream; ``mine`` each mined level (one
   operation per level: ``isolate_cube_slice`` + ``awsum`` on every
   member's slice);
3. ``build`` -- a cold ``repro.open_system()`` over the cycle's history,
   once the recovered system is released.

Operations are timed in process CPU time (``time.process_time``).  Their
wall time on a shared host carried waits the program does not control:
scheduler stalls of 10-50 ms landed on a random dozen queries per run and
decided the tail percentile, and fsync waits added 20-500 ms to individual
ingests and folds.  The volume those fsyncs write is counted exactly by the
traced run (``storage.wal.bytes``, ``storage.checkpoint.bytes``).  Set-up
is timed in wall time.

Every cycle starts from the same recovered state, so the work per cycle
does not grow with the run: slow host phases land on every metric alike
and a run's medians do not depend on how many cycles fitted.  A run makes
at least two cycles.  Checks run between the timed operations and never
inside a timer.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.dgms.system import DDDGMS

import checks
from workloads import (
    BATTERY,
    EXPLORE_STREAM,
    PAPER_PATIENTS,
    ROUNDS,
    SCAN_STREAM,
    RECORDS,
    Inputs,
    Shape,
    Workload,
    apply_config,
    feedback_builder,
    make_inputs,
    run_shape,
)

#: every run makes at least this many whole cycles, so that ``build_s``
#: and ``recover_s`` are medians of more than one sample
MIN_CYCLES = 2

#: levels mined every round, with their members.  Each slice must hold
#: both outcome classes, since AWSum is binary: a diabetic-status slice
#: never does, and an absent-reflex slice did not on a small cohort.
MINE_LEVELS = {
    "gender": ("F", "M"),
    "hypertension": ("yes", "no"),
    "family_history_diabetes": ("yes", "no"),
}
MINE_TARGET = "develops_diabetes"
MINE_FEATURES = ["fbg_band", "reflex_knees_ankles", "age_band", "hypertension"]
MINE_SUPPORT = 5


@dataclass
class Samples:
    """Raw per-operation timings and sizes of one run."""

    setup_s: float = 0.0
    build_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    ingest_ms: list[float] = field(default_factory=list)
    fold_ms: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    mine_ms: list[float] = field(default_factory=list)
    stored_bytes_per_row: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    problems: list[str] = field(default_factory=list)


def tail_rank(pct: float, n: int) -> int:
    """0-based nearest-rank index of the ``pct`` percentile of ``n`` samples."""
    return max(0, min(n - 1, -(-int(round(pct * n)) // 100) - 1))


def end_to_end(samples: Samples, workload: Workload) -> dict:
    """The end-to-end metrics from the untraced run's samples."""
    queries = sorted(samples.query_ms)
    beyond = len(queries) * (100.0 - workload.tail_pct) / 100.0
    if beyond < 10:
        raise RuntimeError(
            f"only {len(queries)} query samples: p{workload.tail_pct:g} would have "
            f"{beyond:.1f} samples beyond it, fewer than 10"
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (samples.setup_s, "s"),
        "build_s": (statistics.median(samples.build_s), "s"),
        "recover_s": (statistics.median(samples.recover_s), "s"),
        "ingest_ms_p50": (statistics.median(samples.ingest_ms), "ms"),
        "fold_ms_p50": (statistics.median(samples.fold_ms), "ms"),
        "query_ms_p50": (statistics.median(queries), "ms"),
        "query_ms_tail": (queries[tail_rank(workload.tail_pct, len(queries))], "ms"),
        "mine_ms_p50": (statistics.median(samples.mine_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "stored_bytes_per_row": (statistics.median(samples.stored_bytes_per_row), "B/row"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def dir_bytes(root: Path) -> int:
    """Exact bytes of every file under ``root``."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Run:
    """One benchmark run of one workload: its set-up and its cycles."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, *,
                 patients: int = PAPER_PATIENTS, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.patients = patients
        self.tracer = tracer
        self.samples = Samples()
        self._recounts: dict = {}
        self._flat_rows: dict = {}
        #: maintenance counts read from ingest_health() at the end of every cycle
        self.health: Counter = Counter()

    # -- timing + failure accounting -----------------------------------

    def _op(self, kind: str, fn):
        """Run one timed operation; returns (result, process CPU seconds).

        An operation that raises counts as failed; the cycle it belongs to
        is abandoned (its later operations depend on it).
        """
        self.samples.attempted += 1
        started = time.process_time()
        try:
            if self.tracer is not None:
                with self.tracer.operation(kind):
                    result = fn()
            else:
                result = fn()
        except Exception as exc:
            self.samples.failed += 1
            print(f"[{self.workload.name}] {kind} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            raise _CycleAbandoned from exc
        return result, time.process_time() - started

    def _problem(self, problems: list[str]) -> None:
        for text in problems:
            print(f"[{self.workload.name}] CHECK FAILED: {text}", file=sys.stderr)
        self.samples.problems += problems

    # -- plain-Python views for the checks --------------------------------

    def flat_rows(self, system) -> list[dict]:
        """The flat rows of the current data version.

        A feedback fold adds a dimension but no fact, so the rows and every
        recount from before a fold stay the expectation after it.
        """
        version = system.data_version
        if version not in self._flat_rows:
            self._flat_rows = {version: system.cube.flat.to_rows()}
            self._recounts = {}
        return self._flat_rows[version]

    def expected(self, system, shape) -> dict:
        key = (system.data_version, shape)
        if key not in self._recounts:
            self._recounts[key] = checks.recount(shape, self.flat_rows(system))
        return self._recounts[key]

    def battery(self, system) -> list[dict]:
        return [run_shape(system, shape).cells for shape in BATTERY]

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Open the durable system every cycle recovers from, then release it.

        Only its durable root, its battery answers and its visit ids stay.
        """
        started = time.perf_counter()
        inputs: Inputs = make_inputs(self.workload, self.seed, self.patients)
        self.live_root = self.workdir / "live"
        live = DDDGMS(inputs.cohort, durable_root=self.live_root)
        try:
            apply_config(live, self.workload.config())
            live.fold_feedback(feedback_builder(0))
            self.live_battery = self.battery(live)
            self.samples.setup_s = time.perf_counter() - started

            for shape, cells in zip(BATTERY, self.live_battery):
                self._problem(checks.compare_cells(
                    "live " + shape.describe(), cells, self.expected(live, shape)
                ))
            self.acknowledged = [
                int(v) for v in
                live.operational_store.scan("attendances").column("visit_id").to_list()
            ]
        finally:
            live.operational_store.wal.close()
            live.quarantine.close()
        self.batches = inputs.batches
        del live, inputs
        self._flat_rows, self._recounts = {}, {}
        # The batches and the check data stay for the whole run but are the
        # benchmark's, not the measured system's: keep the collector from
        # re-scanning them inside every timed operation.
        gc.collect()
        gc.freeze()

    # -- the query stream -----------------------------------------------------

    def query_epoch(self, system) -> None:
        """The timed stream on the current epoch.

        Answers are checked after the whole stream, so the recount's read
        of the flat view never warms the epoch for a later timed query.
        """
        shapes = EXPLORE_STREAM if self.workload.stream == "explore" else SCAN_STREAM
        answers = []
        for shape in shapes:
            crosstab, seconds = self._op("query", lambda: run_shape(system, shape))
            self.samples.query_ms.append(seconds * 1e3)
            answers.append(crosstab.cells)
        for shape, cells in zip(shapes, answers):
            self._problem(checks.compare_cells(shape.describe(), cells, self.expected(system, shape)))

    # -- one cycle ------------------------------------------------------------

    def ingest(self, system, r: int, k: int) -> None:
        """Round r's batch; checks loaded + quarantined = batch rows."""
        batch = self.batches[r]
        facts_before = system.warehouse.schema.fact.num_rows
        quarantined_before = len(system.quarantine)
        _, seconds = self._op(
            "ingest", lambda: system.ingest_visits(batch.table, batch=f"cycle{k}-round{r}")
        )
        self.samples.ingest_ms.append(seconds * 1e3)
        self._problem(checks.check_partition(
            batch.table.num_rows,
            system.warehouse.schema.fact.num_rows - facts_before,
            len(system.quarantine) - quarantined_before,
            len(batch.bad_dates) + len(batch.bad_ids),
        ))

    def fold(self, system, n: int) -> None:
        """Feedback dimension n; checks its member counts by plain count."""
        builder = feedback_builder(n)
        rows_before = self.flat_rows(system)
        _, seconds = self._op("fold", lambda: system.fold_feedback(builder))
        self.samples.fold_ms.append(seconds * 1e3)
        level = f"{builder.name}.{builder.attribute}"
        members = run_shape(system, _member_count_shape(level)).cells
        self._problem(checks.check_fold(
            builder, rows_before, {key[0][0]: n for key, n in members.items()}
        ))

    def mine(self, system) -> None:
        """Per mined level, one operation: isolate and mine each member's slice.

        The slices of one level partition the cube, so every operation
        covers all rows whatever the seed's cohort make-up.
        """
        for level, members in MINE_LEVELS.items():
            def mine():
                out = []
                for member in members:
                    rows = system.isolate_cube_slice(**{level: member})
                    out.append((member, rows, system.awsum(
                        MINE_TARGET, MINE_FEATURES, MINE_SUPPORT, rows=rows)))
                return out

            results, seconds = self._op("mine", mine)
            self.samples.mine_ms.append(seconds * 1e3)
            qualified = system.cube.check_level(level)
            for member, rows, model in results:
                self._problem(checks.check_slice(rows, self.flat_rows(system), qualified, member))
                self._problem(checks.check_awsum(model, rows, MINE_TARGET, MINE_FEATURES, MINE_SUPPORT))

    def cycle(self, k: int) -> None:
        config = self.workload.config()
        root = self.workdir / "cycle"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(self.live_root, root)
        system = built = None
        try:
            def recover():
                recovered = DDDGMS.recover(root, feedback_builders=[feedback_builder(0)])
                apply_config(recovered, config)
                return recovered, run_shape(recovered, BATTERY[0])

            (system, first), seconds = self._op("recover", recover)
            self.samples.recover_s.append(seconds)
            self._problem(checks.check_recovered(system, self.acknowledged))
            self.query_epoch(system)
            self._problem(checks.check_same_battery(
                "recovered", [first.cells] + self.battery(system)[1:], self.live_battery,
            ))

            for r in range(ROUNDS):
                self.ingest(system, r, k)
                self.query_epoch(system)
                self.fold(system, ROUNDS * k + r + 1)
                self.query_epoch(system)
                self.mine(system)
            answers = self.battery(system)

            health = system.ingest_health()["maintenance"]
            self.health["delta_publishes"] += health["delta_publishes"]
            self.health["full_rebuilds"] += health["full_rebuilds"]
            oltp_rows = system.operational_store.row_count("attendances")
            self.samples.stored_bytes_per_row.append(dir_bytes(root) / oltp_rows)
            history = warehoused_history(system)

            # The cold build runs alone: the recovered system and the check
            # data are released first, so the collector does not scan them
            # inside the timer and they add nothing to the peak RSS.
            self._close(system)
            system = None
            self._flat_rows, self._recounts = {}, {}
            gc.collect()
            built, seconds = self._op("build", lambda: repro.open_system(history, config=config))
            self.samples.build_s.append(seconds)
            self._problem(checks.check_same_battery("cold build", self.battery(built), answers))
            self.samples.cycles += 1
        finally:
            if system is not None:
                self._close(system)
            del system, built
            self._flat_rows, self._recounts = {}, {}
            shutil.rmtree(root, ignore_errors=True)
            gc.collect()

    @staticmethod
    def _close(system) -> None:
        system.operational_store.wal.close()
        system.quarantine.close()

    def measure(self, seconds: float) -> None:
        started = time.perf_counter()
        k = 0
        while k < MIN_CYCLES or time.perf_counter() - started < seconds:
            try:
                self.cycle(k)
            except _CycleAbandoned:
                pass
            k += 1


def warehoused_history(system):
    """The OLTP history minus the rows the ETL quarantined.

    A resilient system keeps ETL-rejected rows in its operational store;
    the strict cold build has no quarantine and would abort on them.
    """
    source = system.source
    dead = system.quarantine.values("visit_id")
    keep = [i for i, vid in enumerate(source.column("visit_id").to_list()) if vid not in dead]
    return source.take(keep)


class _CycleAbandoned(Exception):
    """An operation failed; the rest of its cycle is skipped."""


def _member_count_shape(level: str) -> Shape:
    return Shape((level,), (), RECORDS)


def workdir_for(base: Path, workload: str, seed: int) -> Path:
    path = base / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def execute(workload: Workload, seed: int, seconds: float, *, trace: bool,
            patients: int = PAPER_PATIENTS, workbase: Path) -> dict:
    """Set up, measure and summarise one run; returns the result object."""
    workdir = workdir_for(workbase, workload.name, seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = Run(workload, seed, workdir, patients=patients, tracer=tracer)
    try:
        run.setup()
        run.measure(seconds)
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    samples = run.samples
    if trace:
        metrics = tracer.per_layer(samples.cycles, run)
        tracer.print_table(samples.cycles)
        tracer.write_spans(workbase / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(samples, workload)
        print_summary(workload, samples, metrics)
    return {
        "correct": not samples.problems,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }


def print_summary(workload: Workload, samples: Samples, metrics: dict) -> None:
    print(f"{workload.name}: {samples.cycles} cycles, {samples.attempted} operations, "
          f"{samples.failed} failed, {len(samples.problems)} check failures")
    counts = {
        "build_s": len(samples.build_s), "recover_s": len(samples.recover_s),
        "ingest_ms_p50": len(samples.ingest_ms), "fold_ms_p50": len(samples.fold_ms),
        "query_ms_p50": len(samples.query_ms), "query_ms_tail": len(samples.query_ms),
        "mine_ms_p50": len(samples.mine_ms),
        "stored_bytes_per_row": len(samples.stored_bytes_per_row),
    }
    for name, metric in metrics.items():
        note = f"n={counts[name]}" if name in counts else ""
        if name == "query_ms_tail":
            note += f" p{workload.tail_pct:g}"
        print(f"  {name:<22} {metric['value']:>12.4f} {metric['unit']:<6} {note}")
    cpu_ms = {
        "recover": sum(samples.recover_s) * 1e3, "query": sum(samples.query_ms),
        "ingest": sum(samples.ingest_ms), "fold": sum(samples.fold_ms),
        "mine": sum(samples.mine_ms), "build": sum(samples.build_s) * 1e3,
    }
    total = sum(cpu_ms.values())
    print("  share of timed CPU: " + ", ".join(
        f"{kind} {100.0 * ms / total:.1f}%" for kind, ms in cpu_ms.items()))
