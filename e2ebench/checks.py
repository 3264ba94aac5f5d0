"""Independent recounts of the program's answers.

Every check recomputes its expectation in plain Python over plain row
dicts (the cube's flat rows, the generated batch, the mining slice) and
never through the cube kernels, the lattice, the result cache or the
partitioned store.  A check returns a list of problems; empty means it
passed.
"""

from __future__ import annotations

import math
from collections import Counter

from workloads import RECORDS, Shape


def _matches(row: dict, filters) -> bool:
    return all(row.get(level) in values for level, values in filters)


def recount(shape: Shape, flat_rows: list[dict]) -> dict:
    """``{(row_key, col_key): value}`` for one shape, by hand.

    An MDX axis lists a level's ``MEMBERS``, and a null is no member, so
    MDX grids have no cell whose key holds a null; builder grids do.
    """
    groups: dict[tuple, list] = {}
    target, agg = shape.measure
    for row in flat_rows:
        if not _matches(row, shape.filters):
            continue
        key = (
            tuple(row.get(level) for level in shape.rows),
            tuple(row.get(level) for level in shape.cols),
        )
        if shape.mdx and (None in key[0] or None in key[1]):
            continue
        groups.setdefault(key, []).append(None if shape.measure == RECORDS else row.get(target))
    cells: dict = {}
    for key, values in groups.items():
        if shape.measure == RECORDS:
            cells[key] = len(values)
        elif agg == "nunique":
            cells[key] = len({v for v in values if v is not None})
        elif agg == "mean":
            present = [v for v in values if v is not None]
            cells[key] = sum(present) / len(present) if present else None
        else:  # pragma: no cover - shapes only use the three measures
            raise ValueError(f"no recount for {agg!r}")
    return cells


def _same_value(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def compare_cells(label: str, got: dict, want: dict) -> list[str]:
    """Problems between a crosstab's cells and the expected cells."""
    problems = []
    missing = set(want) - set(got)
    extra = set(got) - set(want)
    if missing:
        problems.append(f"{label}: {len(missing)} cells missing, e.g. {sorted(map(str, missing))[:2]}")
    if extra:
        problems.append(f"{label}: {len(extra)} unexpected cells, e.g. {sorted(map(str, extra))[:2]}")
    for key in set(got) & set(want):
        if not _same_value(got[key], want[key]):
            problems.append(f"{label}: cell {key} is {got[key]!r}, recount gives {want[key]!r}")
            break
    return problems


def check_partition(batch_rows: int, loaded: int, quarantined: int, planted_bad: int) -> list[str]:
    """loaded + quarantined = batch rows; as many quarantined as were planted bad."""
    problems = []
    if loaded + quarantined != batch_rows:
        problems.append(
            f"batch partition: loaded {loaded} + quarantined {quarantined} != {batch_rows} rows"
        )
    if quarantined != planted_bad:
        problems.append(f"batch partition: {quarantined} rows quarantined, {planted_bad} were planted bad")
    return problems


def check_fold(builder, flat_rows_before: list[dict], member_counts: dict) -> list[str]:
    """Member counts of a folded dimension = a plain first-match count."""
    want: Counter = Counter()
    for row in flat_rows_before:
        label = None
        for entry in builder.entries:
            if entry.predicate(row):
                label = entry.label
                break
        want[label] += 1
    got = Counter({label: n for label, n in member_counts.items() if n})
    want = Counter({label: n for label, n in want.items() if n})
    if got != want:
        return [f"fold {builder.name}: member counts {dict(got)} != plain count {dict(want)}"]
    return []


def check_awsum(model, rows: list[dict], target: str, features: list[str], min_support: int) -> list[str]:
    """Influences recounted as (2·pos − n)/n with supports; threshold beats the majority rate."""
    problems = []
    labelled = [row for row in rows if row.get(target) is not None]
    classes = sorted({str(row[target]) for row in labelled})
    positive = classes[-1]
    want: dict[tuple, tuple[float, int]] = {}
    for feature in features:
        counts: dict[object, list[int]] = {}
        for row in labelled:
            value = row.get(feature)
            if value is None:
                continue
            tally = counts.setdefault(value, [0, 0])
            tally[0] += str(row[target]) == positive
            tally[1] += 1
        for value, (pos, n) in counts.items():
            if n >= min_support:
                want[(feature, value)] = ((2 * pos - n) / n, n)
    got = {(inf.attribute, inf.value): (inf.weight, inf.support) for inf in model.value_influences()}
    if set(got) != set(want):
        problems.append(f"awsum: influence keys {sorted(map(str, got))} != recount {sorted(map(str, want))}")
    for key in set(got) & set(want):
        (gw, gn), (ww, wn) = got[key], want[key]
        if gn != wn or not math.isclose(gw, ww, rel_tol=0, abs_tol=1e-12):
            problems.append(f"awsum: {key} influence {gw:+.6f} (n={gn}), recount {ww:+.6f} (n={wn})")
            break
    predicted = model.predict_many(labelled)
    accuracy = sum(p == str(r[target]) for p, r in zip(predicted, labelled)) / len(labelled)
    majority = max(Counter(str(r[target]) for r in labelled).values()) / len(labelled)
    if accuracy < majority:
        problems.append(f"awsum: training accuracy {accuracy:.4f} below the majority rate {majority:.4f}")
    return problems


def check_slice(rows: list[dict], flat_rows: list[dict], level: str, value) -> list[str]:
    want = sum(1 for row in flat_rows if row.get(level) == value)
    if len(rows) != want:
        return [f"slice {level}={value}: {len(rows)} rows, plain count {want}"]
    return []


def check_recovered(system, acknowledged: list[int]) -> list[str]:
    """Every acknowledged ``visit_id`` is found in the recovered OLTP store."""
    lost = [vid for vid in acknowledged if system.oltp_lookup(vid) is None]
    if lost:
        return [f"recovery lost {len(lost)} acknowledged visits, e.g. {lost[:3]}"]
    return []


def check_same_battery(label: str, got: list[dict], want: list[dict]) -> list[str]:
    problems = []
    for index, (g, w) in enumerate(zip(got, want)):
        problems += compare_cells(f"{label} battery[{index}]", g, w)
    if len(got) != len(want):
        problems.append(f"{label}: battery answered {len(got)} of {len(want)} shapes")
    return problems
