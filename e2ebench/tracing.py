"""The traced run: spans around the layers' public entry points.

:meth:`Tracer.install` wraps public functions and methods of ``tabular``,
``storage``, ``storage.columnar``, ``etl``, ``warehouse``, ``olap``,
``planner``, ``serving`` and ``mining`` from outside the program; the
benchmark opens one root span per timed operation (layer ``dgms``).  Spans
live in memory as ``[name, start, end, parent]`` and are written out once,
at the end.  A span's self time is its duration minus its children's; the
root span's self time is facade time that no named layer covers.

Exact counts (calls, values, bytes, partitions, lattice answers) are taken
at the same boundaries, from return values and public surfaces.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("tabular", "storage", "columnar", "etl", "warehouse", "olap",
          "planner", "serving", "mining", "dgms")
OP_KINDS = ("recover", "query", "ingest", "fold", "mine", "build")
ETL_STEPS = ("deduplicate", "clean", "discretize", "derive", "cardinality")

#: spans are timed in process CPU time, like the end-to-end operations
_clock = time.process_time


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index]
        self.spans: list[list] = []
        #: (kind, root span index) per timed operation
        self.ops: list[tuple[str, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.span_cost_s = 0.0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    @contextmanager
    def operation(self, kind: str):
        index = self._open(f"dgms.{kind}")
        self.ops.append((kind, index))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, *, before=None, after=None):
        """``fn`` with a span (only inside a timed operation) and count hooks.

        ``name`` is a string or a callable of the call's arguments.  Hook
        work runs in a ``trace.hook`` span, so it is counted as overhead
        and not charged to a layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            tracer.counts[label + ".calls"] += 1
            state = None
            if before is not None:
                hook = tracer._open("trace.hook")
                state = before(args, kwargs)
                tracer._close(hook)
            index = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                hook = tracer._open("trace.hook")
                after(args, kwargs, result, state)
                tracer._close(hook)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _method(self, owner, attr: str, name, **hooks) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(name, raw.__func__, **hooks))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            patched = self._wrap(name, raw, **hooks)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _function(self, module, attr: str, name, **hooks) -> None:
        """Wrap a module function everywhere the program bound it by name."""
        original = getattr(module, attr)
        patched = self._wrap(name, original, **hooks)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, patched)

    def install(self) -> None:
        import repro.dgms.system  # noqa: F401 - binds the names patched below
        from repro.dgms.system import DDDGMS
        from repro.discri import warehouse as discri_warehouse
        from repro.etl import incremental
        from repro.etl.pipeline import Pipeline, TransformStep
        from repro.etl.quarantine import QuarantineStore
        from repro.mining.awsum import AWSumClassifier
        from repro.olap.crosstab import Crosstab
        from repro.olap.cube import Cube
        from repro.olap.materialized import MaterializedCube
        from repro.olap.mdx import evaluator
        from repro.planner.router import QueryPlanner
        from repro.serving.cache import ResultCache
        from repro.storage import engine, persistence
        from repro.storage.columnar.store import PartitionedStore
        from repro.storage.engine import StorageEngine
        from repro.storage.wal import WriteAheadLog
        from repro.tabular.column import Column
        from repro.tabular.groupby import GroupBy
        from repro.tabular.table import Table
        from repro.warehouse.feedback import FeedbackDimensionBuilder
        from repro.warehouse.loader import WarehouseLoader
        from repro.warehouse.star import StarSchema

        counts = self.counts

        # tabular
        def values(args, kwargs, result, state):
            counts["tabular.to_list.values"] += len(result)

        self._method(Column, "to_list", "tabular.to_list", after=values)
        self._method(Table, "from_rows", "tabular.from_rows")
        self._method(Table, "with_derived", "tabular.with_derived")
        self._method(GroupBy, "agg", "tabular.groupby")
        for attr in ("to_rows", "filter", "take", "concat_all", "append", "sort_by",
                     "with_column", "select"):
            self._method(Table, attr, "tabular.table")

        # storage (OLTP + WAL + snapshots)
        self._method(StorageEngine, "insert", "storage.insert")
        self._method(StorageEngine, "scan", "storage.scan")
        self._method(StorageEngine, "get_by_pk", "storage.lookup")
        self._method(StorageEngine, "create_index", "storage.index")
        self._method(WriteAheadLog, "append", "storage.wal.append")
        self._method(WriteAheadLog, "commit", "storage.wal.commit")

        def wal_size(args, kwargs):
            wal = Path(args[1]).parent / "wal.log"
            return wal.stat().st_size if wal.exists() else 0

        def checkpointed(args, kwargs, gen_dir, wal_before):
            wal = Path(args[1]).parent / "wal.log"
            counts["storage.wal.bytes"] += wal_before - (wal.stat().st_size if wal.exists() else 0)
            counts["storage.checkpoint.bytes"] += _dir_bytes(Path(gen_dir))

        self._function(persistence, "checkpoint", "storage.checkpoint",
                       before=wal_size, after=checkpointed)
        self._function(persistence, "load_generation", "storage.snapshot_load")
        self._function(engine, "replay_into", "storage.wal_replay")

        # storage.columnar
        def scanned(args, kwargs, result, state):
            stats = result[1]
            counts["columnar.partitions_scanned"] += stats.segments_scanned
            counts["columnar.partitions_pruned"] += stats.segments_pruned
            counts["columnar.partitions_total"] += stats.segments_total

        self._method(PartitionedStore, "build", "columnar.build")
        self._method(PartitionedStore, "append", "columnar.append")
        self._method(PartitionedStore, "scan_filter", "columnar.scan", after=scanned)

        # etl
        self._method(Pipeline, "run", "etl.run")
        step_name = lambda args: f"etl.step.{args[0].name}"  # noqa: E731
        pending = [TransformStep]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("apply", "apply_resilient"):
                if attr in cls.__dict__:
                    self._method(cls, attr, step_name)
        self._function(incremental, "run_delta", "etl.delta")
        self._function(incremental, "capture_etl_state", "etl.capture")
        self._method(QuarantineStore, "add", "etl.quarantine")

        # warehouse
        self._function(discri_warehouse, "build_discri_warehouse", "warehouse.build")
        self._method(WarehouseLoader, "load", "warehouse.load")
        self._method(FeedbackDimensionBuilder, "build", "warehouse.fold")
        self._method(StarSchema, "flatten", "warehouse.flatten")

        # olap
        def lattice_before(args, kwargs):
            return args[0].snapshot()

        def lattice_after(args, kwargs, result, before):
            now = args[0].snapshot()
            exact = now["exact_hits"] - before["exact_hits"]
            rollup = now["rollup_hits"] - before["rollup_hits"]
            counts["olap.lattice.node_answers"] += exact + rollup
            counts["planner.routes.node"] += exact
            counts["planner.routes.rollup"] += rollup

        self._method(Cube, "aggregate", "olap.aggregate")
        self._method(Crosstab, "from_aggregate", "olap.crosstab")
        self._method(Cube, "publish", "olap.publish")
        self._method(Cube, "publish_delta", "olap.publish_delta")
        self._method(MaterializedCube, "materialize", "olap.lattice.materialize")
        self._method(MaterializedCube, "fold_delta", "olap.lattice.fold")
        self._method(MaterializedCube, "aggregate", "olap.lattice.lookup",
                     before=lattice_before, after=lattice_after)
        self._function(evaluator, "execute_mdx", "olap.mdx")

        # planner, serving, mining
        self._method(QueryPlanner, "choose_route", "planner.route")

        def cache_before(args, kwargs):
            return args[0].stats_snapshot()["evictions"]

        def cache_after(args, kwargs, result, before):
            counts["serving.cache.evictions"] += args[0].stats_snapshot()["evictions"] - before

        def cache_lookup(args, kwargs, result, state):
            counts["serving.cache.hits" if result is not None else "serving.cache.misses"] += 1

        self._method(ResultCache, "get", "serving.cache.get", after=cache_lookup)
        self._method(ResultCache, "put", "serving.cache.put", before=cache_before, after=cache_after)
        self._method(DDDGMS, "isolate_cube_slice", "mining.slice")
        self._method(AWSumClassifier, "fit", "mining.awsum")

        self.span_cost_s = self._calibrate()

    def _calibrate(self, n: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op."""
        def noop():
            return None

        wrapped = self._wrap("trace.calibrate", noop)
        with self.operation("calibrate"):
            started = _clock()
            for _ in range(n):
                noop()
            plain = _clock() - started
            started = _clock()
            for _ in range(n):
                wrapped()
            traced = _clock() - started
        del self.spans[:], self.ops[:]
        self.counts.clear()
        return max(traced - plain, 0.0) / n

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reports -------------------------------------------------------------

    def _self_times(self):
        """(op kind, span name) → summed self seconds; op totals; hook seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        op_of = [-1] * len(self.spans)
        for op_index, (kind, root) in enumerate(self.ops):
            op_of[root] = op_index
        for index, span in enumerate(self.spans):
            if op_of[index] < 0 and span[3] >= 0:
                op_of[index] = op_of[span[3]]
        by_op: dict = defaultdict(float)
        hook_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            kind = self.ops[op_of[index]][0]
            if name == "trace.hook":
                # a child of its caller's span, so no layer is charged for it
                hook_s += end - start
                continue
            by_op[(kind, name)] += (end - start) - child[index]
        totals: dict = defaultdict(list)
        for kind, root in self.ops:
            span = self.spans[root]
            totals[kind].append(span[2] - span[1])
        return by_op, totals, hook_s

    def layer_table(self, charge_tabular_to_caller: bool = False) -> dict:
        """{op kind: {layer: ms per operation}} plus each kind's op count.

        With ``charge_tabular_to_caller`` a ``tabular`` span's self time is
        charged to the nearest enclosing span of another layer: the
        table-kernel work ETL, the OLTP store or the loader asked for.
        """
        by_op, totals, _ = self._self_times()
        if charge_tabular_to_caller:
            by_op = self._charged_to_caller()
        table: dict = {}
        for kind, durations in totals.items():
            row = {layer: 0.0 for layer in LAYERS}
            for (k, name), seconds in by_op.items():
                if k == kind and name.split(".")[0] in row:
                    row[name.split(".")[0]] += seconds * 1e3 / len(durations)
            row["total"] = sum(durations) * 1e3 / len(durations)
            row["n"] = len(durations)
            table[kind] = row
        return table

    def _charged_to_caller(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        kind_of: dict = {root: kind for kind, root in self.ops}
        charged: dict = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == "trace.hook":
                continue
            target = index
            while self.spans[target][0].startswith("tabular.") and self.spans[target][3] >= 0:
                target = self.spans[target][3]
            root = index
            while self.spans[root][3] >= 0:
                root = self.spans[root][3]
            charged[(kind_of[root], self.spans[target][0])] += (end - start) - child[index]
        return charged

    def print_table(self, cycles: int) -> None:
        for title, charge in (
            ("self time per operation, ms (dgms = facade time no named layer covers)", False),
            ("the same, tabular kernel time charged to the layer that called it", True),
        ):
            table = self.layer_table(charge)
            print(title)
            print(f"{'op':<8} {'n':>5} {'total':>9} " + " ".join(f"{l:>9}" for l in LAYERS))
            for kind in OP_KINDS:
                if kind not in table:
                    continue
                row = table[kind]
                print(f"{kind:<8} {row['n']:>5} {row['total']:>9.2f} "
                      + " ".join(f"{row[l]:>9.2f}" for l in LAYERS))

    def per_layer(self, cycles: int, run) -> dict:
        """The per-layer metrics: ms are self time per cycle, counts per cycle."""
        cycles = max(cycles, 1)
        by_op, totals, hook_s = self._self_times()
        names: dict = defaultdict(float)
        for (kind, name), seconds in by_op.items():
            names[name] += seconds
        counts = self.counts
        metrics: dict = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        def ms(metric, span):
            put(metric, names.get(span, 0.0) * 1e3 / cycles, "ms")

        def count(metric, key=None):
            put(metric, counts[key or metric] / cycles, "count")

        def ratio(metric, part, whole):
            put(metric, part / whole if whole else 0.0, "ratio")

        ms("tabular.to_list.ms", "tabular.to_list")
        count("tabular.to_list.values")
        ms("tabular.from_rows.ms", "tabular.from_rows")
        ms("tabular.with_derived.ms", "tabular.with_derived")
        ms("tabular.groupby.ms", "tabular.groupby")
        ms("storage.insert.ms", "storage.insert")
        count("storage.insert.calls")
        ms("storage.wal.append.ms", "storage.wal.append")
        ms("storage.wal.commit.ms", "storage.wal.commit")
        put("storage.wal.bytes", counts["storage.wal.bytes"] / cycles, "B")
        ms("storage.checkpoint.ms", "storage.checkpoint")
        put("storage.checkpoint.bytes", counts["storage.checkpoint.bytes"] / cycles, "B")
        ms("storage.snapshot_load.ms", "storage.snapshot_load")
        ms("storage.wal_replay.ms", "storage.wal_replay")
        ms("columnar.build.ms", "columnar.build")
        ms("columnar.append.ms", "columnar.append")
        ms("columnar.scan.ms", "columnar.scan")
        count("columnar.partitions_scanned")
        count("columnar.partitions_pruned")
        ms("etl.run.ms", "etl.run")
        for step in ETL_STEPS:
            ms(f"etl.step.{step}.ms", f"etl.step.{step}")
        ms("etl.delta.ms", "etl.delta")
        count("etl.quarantined_rows", "etl.quarantine.calls")
        ms("warehouse.build.ms", "warehouse.build")
        ms("warehouse.load.ms", "warehouse.load")
        ms("warehouse.flatten.ms", "warehouse.flatten")
        ms("warehouse.fold.ms", "warehouse.fold")
        ms("olap.aggregate.ms", "olap.aggregate")
        count("olap.aggregate.calls")
        ms("olap.publish_delta.ms", "olap.publish_delta")
        ms("olap.lattice.materialize.ms", "olap.lattice.materialize")
        ms("olap.lattice.fold.ms", "olap.lattice.fold")
        count("olap.lattice.node_answers")
        ms("olap.mdx.ms", "olap.mdx")
        ms("planner.route.ms", "planner.route")
        count("planner.routes.node")
        count("planner.routes.rollup")
        put("planner.routes.base",
            (counts["olap.aggregate.calls"] - counts["serving.cache.hits"]
             - counts["olap.lattice.node_answers"]) / cycles, "count")
        ms("serving.cache.get.ms", "serving.cache.get")
        ratio("serving.cache.hit_ratio", counts["serving.cache.hits"],
              counts["serving.cache.hits"] + counts["serving.cache.misses"])
        count("serving.cache.evictions")
        ms("mining.slice.ms", "mining.slice")
        ms("mining.awsum.ms", "mining.awsum")
        for kind in OP_KINDS:
            # traced operation medians, against the untraced run's end-to-end
            # medians: the tracing overhead
            put(f"dgms.{kind}.ms", statistics.median(totals[kind]) * 1e3 if kind in totals else 0.0, "ms")
            put(f"dgms.self.{kind}.ms", by_op.get((kind, f"dgms.{kind}"), 0.0) * 1e3 / cycles, "ms")
        for kind in ("build", "recover"):
            total = sum(totals.get(kind, ())) or 1.0
            put(f"dgms.self.{kind}.pct",
                100.0 * by_op.get((kind, f"dgms.{kind}"), 0.0) / total, "%")
        ratio("ingest.delta_publish_ratio", run.health["delta_publishes"],
              run.health["delta_publishes"] + run.health["full_rebuilds"])
        ratio("olap.lattice.node_answer_ratio", counts["olap.lattice.node_answers"],
              counts["olap.aggregate.calls"])
        ratio("columnar.pruned_ratio", counts["columnar.partitions_pruned"],
              counts["columnar.partitions_total"])
        spans = len(self.spans)
        put("trace.spans", spans / cycles, "count")
        put("trace.overhead.ms", (spans * self.span_cost_s + hook_s) * 1e3 / cycles, "ms")
        return metrics

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
