"""Self-test of the benchmark at a tiny cohort.

Every workload must emit every declared metric, above 0, with no failed
operation; and every check must reject a planted wrong answer.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import checks
import loop
import workloads
from conftest import TINY_PATIENTS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, tmp_path):
    result = loop.execute(workloads.WORKLOADS[name], 3, 0, trace=False,
                          patients=TINY_PATIENTS, workbase=tmp_path)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def test_traced_run_emits_every_layer_metric(tmp_path):
    result = loop.execute(workloads.WORKLOADS["scan_1x"], 3, 0, trace=True,
                          patients=TINY_PATIENTS, workbase=tmp_path)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert list(tmp_path.glob("spans-scan_1x-seed3.jsonl"))


def test_wrong_cube_answer_fails_the_run(tmp_path, monkeypatch):
    from repro.olap.crosstab import Crosstab

    original = Crosstab.from_aggregate.__func__

    def off_by_one(cls, table, rows, cols, value):
        grid = original(cls, table, rows, cols, value)
        key = next(iter(grid.cells))
        grid.cells[key] += 1
        return grid

    monkeypatch.setattr(Crosstab, "from_aggregate", classmethod(off_by_one))
    result = loop.execute(workloads.WORKLOADS["intake_explore_1x"], 3, 0, trace=False,
                          patients=TINY_PATIENTS, workbase=tmp_path)
    assert not result["correct"]


# -- each check against a planted wrong answer ------------------------------


def test_recount_rejects_a_perturbed_cell(tiny_system):
    flat = tiny_system.cube.flat.to_rows()
    for shape in workloads.BATTERY:
        grid = workloads.run_shape(tiny_system, shape)
        expected = checks.recount(shape, flat)
        assert checks.compare_cells(shape.describe(), grid.cells, expected) == []
        key = next(iter(grid.cells))
        bad = dict(grid.cells)
        bad[key] = (bad[key] or 0) + 1
        assert checks.compare_cells("planted", bad, expected)
        dropped = dict(grid.cells)
        del dropped[key]
        assert checks.compare_cells("planted", dropped, expected)


def test_partition_rejects_a_dropped_quarantined_row():
    assert checks.check_partition(100, 97, 3, 3) == []
    assert checks.check_partition(100, 97, 2, 3)
    assert checks.check_partition(100, 98, 2, 3)


def test_fold_rejects_a_miscounted_member(tiny_system):
    builder = workloads.feedback_builder(1)
    flat = tiny_system.cube.flat.to_rows()
    counts: dict = {}
    for row in flat:
        label = next((e.label for e in builder.entries if e.predicate(row)), None)
        counts[label] = counts.get(label, 0) + 1
    assert checks.check_fold(builder, flat, counts) == []
    label = builder.entries[0].label
    assert checks.check_fold(builder, flat, {**counts, label: counts.get(label, 0) + 1})


class _Shifted:
    """An AWSum model whose first influence is off by one supporting row."""

    def __init__(self, model, *, support=0, weight=0.0):
        self.model = model
        self.support = support
        self.weight = weight

    def value_influences(self):
        first, *rest = self.model.value_influences()
        return [dataclasses.replace(first, support=first.support + self.support,
                                    weight=first.weight + self.weight), *rest]

    def predict_many(self, rows):
        return self.model.predict_many(rows)


def test_awsum_rejects_an_off_by_one_influence(tiny_system):
    rows = tiny_system.isolate_cube_slice(gender="F")
    args = (loop.MINE_TARGET, loop.MINE_FEATURES, 2)
    model = tiny_system.awsum(*args, rows=rows)
    assert checks.check_awsum(model, rows, *args) == []
    assert checks.check_awsum(_Shifted(model, support=1), rows, *args)
    first = model.value_influences()[0]
    assert checks.check_awsum(_Shifted(model, weight=2 / first.support), rows, *args)


def test_awsum_rejects_a_threshold_below_the_majority_rate(tiny_system):
    rows = tiny_system.isolate_cube_slice(gender="F")
    args = (loop.MINE_TARGET, loop.MINE_FEATURES, 2)
    model = tiny_system.awsum(*args, rows=rows)
    labelled = [r for r in rows if r.get(loop.MINE_TARGET) is not None]
    classes = sorted({str(r[loop.MINE_TARGET]) for r in labelled})
    minority = min(classes, key=lambda c: sum(str(r[loop.MINE_TARGET]) == c for r in labelled))

    class Minority(_Shifted):
        def predict_many(self, rows):
            return [minority] * len(rows)

    assert checks.check_awsum(Minority(model), rows, *args)


def test_slice_rejects_a_missing_row(tiny_system):
    flat = tiny_system.cube.flat.to_rows()
    rows = tiny_system.isolate_cube_slice(gender="M")
    level = tiny_system.cube.check_level("gender")
    assert checks.check_slice(rows, flat, level, "M") == []
    assert checks.check_slice(rows[1:], flat, level, "M")


def test_recovery_check_rejects_a_lost_visit(tiny_system):
    ids = [int(v) for v in tiny_system.source.column("visit_id").to_list()]
    assert checks.check_recovered(tiny_system, ids) == []
    assert checks.check_recovered(tiny_system, ids + [max(ids) + 1])


def test_battery_comparison_rejects_one_changed_answer(tiny_system):
    answers = [workloads.run_shape(tiny_system, s).cells for s in workloads.BATTERY]
    assert checks.check_same_battery("same", answers, answers) == []
    changed = [dict(a) for a in answers]
    key = next(iter(changed[2]))
    changed[2][key] += 1
    assert checks.check_same_battery("planted", changed, answers)
    assert checks.check_same_battery("planted", answers[:-1], answers)
