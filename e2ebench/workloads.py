"""Seeded inputs, query shapes and the workload definitions.

``--seed`` picks the cohort, the batches and which batch rows are planted
bad; the feedback rules folded each cycle and the query streams are fixed.
The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro import SystemConfig
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.serving.cache import CacheConfig
from repro.storage.columnar import StorageConfig
from repro.tabular.table import Table
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

#: paper scale: 900 patients (~2.5k attendances, 277 source columns)
PAPER_PATIENTS = 900

#: ``DiScRiGenerator`` draws each patient's first visit uniformly over
#: eight years, so a year's intake is a cohort of ``patients / 8``
#: (112 at paper scale)
INTAKE_YEARS = 8

#: ingest + fold rounds per cycle, each round with its own batch
ROUNDS = 2


#: the query mixes are fixed: ``--seed`` picks the cohort, the batches and
#: the planted bad rows, so every seed serves the same mix and run-to-run
#: spread is the host's and the data's, not the mix's
MIX_SEED = 2013

# -- query shapes ---------------------------------------------------------

AGE_LEVELS = ("conditions.age_band", "conditions.age_band10", "conditions.age_band5")
RECORDS = ("records", "size")
PATIENTS = ("cardinality.patient_id", "nunique")
MEAN_FBG = ("fbg", "mean")


@dataclass(frozen=True)
class Shape:
    """One OLAP question: axes, one measure, member filters, front end."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    measure: tuple[str, str] = RECORDS
    filters: tuple[tuple[str, tuple], ...] = ()
    mdx: bool = False

    def describe(self) -> str:
        where = " ".join(f"{lvl}={'|'.join(map(str, v))}" for lvl, v in self.filters)
        front = "mdx" if self.mdx else "builder"
        return (
            f"{front}: {','.join(self.rows)} x {','.join(self.cols)} "
            f"{self.measure[1]}({self.measure[0]}) {where}".rstrip()
        )


def _mdx_level(level: str) -> str:
    dim, attr = level.split(".", 1)
    return f"[{dim}].[{attr}]"


def mdx_text(shape: Shape) -> str:
    """The MDX spelling of a record-count shape (one level per axis)."""
    text = (
        f"SELECT {_mdx_level(shape.cols[0])}.MEMBERS ON COLUMNS, "
        f"{_mdx_level(shape.rows[0])}.MEMBERS ON ROWS FROM discri"
    )
    members = [
        f"{_mdx_level(level)}.[{values[0]}]" for level, values in shape.filters
    ]
    if members:
        text += " WHERE (" + ", ".join(members) + ")"
    return text


def run_shape(system, shape: Shape):
    """Answer one shape through the system's public front ends."""
    if shape.mdx:
        return system.mdx(mdx_text(shape))
    query = system.query().rows(*shape.rows).columns(*shape.cols)
    target, agg = shape.measure
    if shape.measure == RECORDS:
        query = query.count_records("records")
    elif agg == "nunique":
        query = query.count_distinct(target, name="patients")
    else:
        query = query.measure(target, agg, name="value")
    for level, values in shape.filters:
        query = query.where(level, *values)
    return query.execute()


FIG4 = Shape(
    ("conditions.age_band",), ("personal.gender",), RECORDS,
    (("personal.family_history_diabetes", ("yes",)),),
)
FIG5 = Shape(
    ("conditions.age_band10",), ("personal.gender",), PATIENTS,
    (("conditions.diabetes_status", ("yes",)),),
)
FIG6 = Shape(
    ("conditions.age_band10",), ("conditions.ht_years_band",), RECORDS,
    (("conditions.hypertension", ("yes",)),),
)

#: the fixed battery of 25 shapes: Fig 4-6, their drill-downs, roll-ups,
#: dice variants and MDX twins.  Answered after every recovery and cold
#: build and checked there.
BATTERY: tuple[Shape, ...] = (
    FIG4,
    FIG5,
    FIG6,
    Shape(FIG4.rows, FIG4.cols, RECORDS, (("personal.family_history_diabetes", ("no",)),)),
    Shape(("conditions.age_band10",), ("personal.gender",), RECORDS, FIG4.filters),
    Shape(("conditions.age_band5",), ("personal.gender",), PATIENTS, FIG5.filters),
    Shape(("conditions.age_band",), ("personal.gender",), PATIENTS, FIG5.filters),
    Shape(("conditions.age_band5",), ("conditions.ht_years_band",), RECORDS, FIG6.filters),
    Shape(("conditions.age_band",), ("conditions.ht_years_band",), RECORDS, FIG6.filters),
    Shape(("conditions.age_band10",), ("conditions.diabetes_status",), RECORDS),
    Shape(("conditions.age_band",), ("conditions.hypertension",), MEAN_FBG),
    Shape(("personal.gender",), ("conditions.age_band",), RECORDS, FIG4.filters),
    Shape(
        ("conditions.age_band10",), ("personal.gender",), RECORDS,
        (("conditions.diabetes_status", ("yes",)), ("conditions.hypertension", ("yes",))),
    ),
    Shape(("limbs.reflex_knees_ankles",), ("conditions.develops_diabetes",), RECORDS),
    Shape(("bloods.fbg_band",), ("conditions.age_band",), PATIENTS),
    Shape(FIG4.rows, FIG4.cols, RECORDS, FIG4.filters, mdx=True),
    Shape(FIG6.rows, FIG6.cols, RECORDS, FIG6.filters, mdx=True),
    Shape(
        ("conditions.age_band10",), ("personal.gender",), RECORDS,
        (("conditions.diabetes_status", ("yes",)), ("personal.family_history_diabetes", ("yes",))),
        mdx=True,
    ),
    Shape(("conditions.age_band5",), ("personal.gender",), RECORDS, FIG4.filters),
    Shape(("conditions.age_band10",), ("conditions.hypertension",), PATIENTS),
    Shape(("conditions.age_band10",), ("personal.gender",), MEAN_FBG, FIG5.filters),
    Shape(("conditions.ht_years_band",), ("conditions.age_band10",), RECORDS, FIG6.filters),
    Shape(("personal.gender",), ("conditions.diabetes_status",), RECORDS,
          (("conditions.age_band", ("60-80", ">=80")),)),
    Shape(("conditions.age_band",), ("personal.family_history_diabetes",), RECORDS, mdx=True),
    Shape(("conditions.age_band10",), ("conditions.diabetes_status",), RECORDS,
          (("personal.gender", ("F",)),), mdx=True),
)

# -- explore: a drill-down session over the figure lattice ----------------

_EXPLORE_COLS = ("personal.gender", "conditions.ht_years_band", "conditions.diabetes_status")
_EXPLORE_FILTERS = (
    (),
    (("personal.family_history_diabetes", ("yes",)),),
    (("personal.family_history_diabetes", ("no",)),),
    (("conditions.diabetes_status", ("yes",)),),
    (("conditions.hypertension", ("yes",)),),
)


class ExploreSession:
    """A scientist's seeded random walk: jump to a figure, drill, roll up,
    dice, pivot, or ask the same grid in MDX."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shape = FIG4

    def _age_axis(self, shape: Shape) -> tuple[str, int] | None:
        for axis in ("rows", "cols"):
            level = getattr(shape, axis)[0]
            if level in AGE_LEVELS:
                return axis, AGE_LEVELS.index(level)
        return None

    def _with_age(self, shape: Shape, step: int) -> Shape:
        found = self._age_axis(shape)
        if found is None:
            return shape
        axis, index = found
        index = min(max(index + step, 0), len(AGE_LEVELS) - 1)
        return replace(shape, **{axis: (AGE_LEVELS[index],)}, mdx=False)

    def next(self) -> Shape:
        rng = self.rng
        move = rng.random()
        shape = self.shape
        if move < 0.15:
            shape = rng.choice((FIG4, FIG5, FIG6))
        elif move < 0.35:
            shape = self._with_age(shape, +1)  # drill down (40→10→5-year bands)
        elif move < 0.55:
            shape = self._with_age(shape, -1)  # roll up
        elif move < 0.75:
            shape = replace(shape, filters=rng.choice(_EXPLORE_FILTERS), mdx=False)
        elif move < 0.85:
            found = self._age_axis(shape)
            col = rng.choice(_EXPLORE_COLS)
            age = AGE_LEVELS[found[1]] if found else AGE_LEVELS[1]
            shape = Shape((age,), (col,), shape.measure, shape.filters)
        elif move < 0.93:
            shape = Shape(shape.cols, shape.rows, shape.measure, shape.filters)  # pivot
        else:
            shape = replace(shape, measure=RECORDS, mdx=True)
        self.shape = shape
        return shape


def explore_walk(length: int = 300) -> list[Shape]:
    session = ExploreSession(random.Random(MIX_SEED))
    return [session.next() for _ in range(length)]


# -- scan: partition-selective and unselective base scans -----------------

_SCAN_ROWS = ("conditions.age_band10", "personal.gender", "conditions.diabetes_status", "conditions.hypertension")
_SCAN_COLS = ("personal.family_history_diabetes", "limbs.reflex_knees_ankles", "bloods.fbg_band")


def scan_pool(size: int = 48) -> list[Shape]:
    """Distinct scan shapes, six times the scan cache's budget of eight.

    A quarter filter on a one- or two-year visit band and a quarter on a
    set of 25 patient ids (the partitioning columns); a quarter carry one
    unselective clinical filter; a quarter a one-year band and a clinical
    filter.
    """
    rng = random.Random(MIX_SEED)
    years = list(range(2003, 2012))
    patient_ids = list(range(1, PAPER_PATIENTS + 1))
    pool: list[Shape] = []
    while len(pool) < size:
        kind = len(pool) % 4
        if kind == 0:
            start = rng.choice(years)
            filters = (("cardinality.visit_year", tuple(range(start, start + rng.choice((1, 2))))),)
        elif kind == 1:
            filters = (("cardinality.patient_id", tuple(sorted(rng.sample(patient_ids, 25)))),)
        elif kind == 2:
            filters = (rng.choice((
                ("conditions.hypertension", ("no",)),
                ("personal.gender", ("F",)),
                ("limbs.reflex_knees_ankles", ("present",)),
            )),)
        else:
            filters = (
                ("cardinality.visit_year", (rng.choice(years),)),
                ("personal.family_history_diabetes", ("no",)),
            )
        shape = Shape(
            (rng.choice(_SCAN_ROWS),), (rng.choice(_SCAN_COLS),),
            rng.choice((RECORDS, RECORDS, PATIENTS, MEAN_FBG)), filters,
        )
        if shape not in pool:
            pool.append(shape)
    return pool


def scan_stream(pool: list[Shape]) -> list[Shape]:
    """One epoch of scans: the pool in blocks of four shapes, each followed
    by the block's first again (a repeat within the cache's reach): 48
    misses and 12 hits."""
    stream: list[Shape] = []
    for i in range(0, len(pool), 4):
        block = pool[i:i + 4]
        stream += block + block[:1]
    return stream


#: the per-epoch streams.  Every epoch replays the same stream from its
#: start: a seeded starting point moved which shapes paid for warming a
#: fresh epoch, and with it the explore p99, by 40% between seeds.
EXPLORE_STREAM: list[Shape] = explore_walk()
SCAN_STREAM: list[Shape] = scan_stream(scan_pool())

# -- feedback folded back as dimensions -----------------------------------

_RULES: tuple[tuple[str, Callable[[dict], bool]], ...] = (
    ("diabetic_fbg", lambda r: r.get("bloods.fbg_band") == "Diabetic"),
    ("absent_reflex", lambda r: r.get("limbs.reflex_knees_ankles") == "absent"),
    ("older_hypertensive", lambda r: r.get("conditions.hypertension") == "yes"
        and r.get("conditions.age_band") in ("60-80", ">=80")),
    ("family_history", lambda r: r.get("personal.family_history_diabetes") == "yes"),
    ("high_bmi", lambda r: r.get("bmi") is not None and r.get("bmi") >= 30.0),
)


def feedback_builder(k: int) -> FeedbackDimensionBuilder:
    """Cycle k's clinician review: two ordered rules, first match wins."""
    first = _RULES[k % len(_RULES)]
    second = _RULES[(k + 2) % len(_RULES)]
    builder = FeedbackDimensionBuilder(f"review{k}")
    builder.add(FeedbackEntry("watch", first[1], rationale=first[0]))
    builder.add(FeedbackEntry("follow_up", second[1], rationale=second[0]))
    return builder


# -- workloads -------------------------------------------------------------



@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[], SystemConfig]
    #: each round's batch, in years of the cohort's intake
    batch_years: float
    bad_rate: float
    #: timed query stream per epoch: "explore" (300 queries) or "scan" (60)
    stream: str
    #: tail percentile reported as ``query_ms_tail``
    tail_pct: float


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "intake_explore_1x",
            lambda: SystemConfig(materialize_lattice=True, cache=CacheConfig(max_entries=512)),
            batch_years=1.0,
            bad_rate=0.02,
            stream="explore",
            tail_pct=99.0,
        ),
        Workload(
            "scan_1x",
            lambda: SystemConfig(
                storage=StorageConfig(scan_executor="serial"),
                cache=CacheConfig(max_entries=8),
            ),
            batch_years=1 / 12,
            bad_rate=0.0,
            stream="scan",
            tail_pct=95.0,
        ),
    )
}


def apply_config(system, config: SystemConfig) -> None:
    """Attach a ``SystemConfig`` to a system not built by ``open_system``.

    Mirrors :func:`repro.open_system`'s order, for durable systems (built
    with ``durable_root=``) and recovered ones.
    """
    if config.planner is not True:
        system.attach_planner(config.planner)
    if config.storage not in (None, False):
        system.attach_storage(config.storage)
    if config.cache not in (None, False):
        system.attach_result_cache(config.cache)
    if config.serving not in (None, False):
        system.attach_serving(config.serving)
    if config.materialize_lattice:
        system.materialize_lattice()


# -- inputs ----------------------------------------------------------------


@dataclass
class Batch:
    table: Table
    #: source indices planted with a null ``visit_date`` (ETL quarantine)
    bad_dates: list[int]
    #: source indices planted with a null ``visit_id`` (OLTP quarantine)
    bad_ids: list[int]


@dataclass
class Inputs:
    cohort: Table
    #: round r of every cycle ingests batch r
    batches: list[Batch]


def _dirty(table: Table, rate: float, rng: random.Random) -> Batch:
    """Plant structurally bad rows: at most one per patient.

    Half get a null ``visit_date`` (the ETL derive step rejects them), half
    a null ``visit_id`` (the OLTP primary key rejects them).  Two bad
    visits of one patient could collapse in the ETL dedup step, a policy
    drop rather than a quarantine, so each patient gets at most one.
    """
    if rate <= 0:
        return Batch(table, [], [])
    rows = table.to_rows()
    first_visit: dict[object, int] = {}
    for index, row in enumerate(rows):
        first_visit.setdefault(row["patient_id"], index)
    candidates = sorted(first_visit.values())
    n_bad = min(max(2, round(len(rows) * rate)), len(candidates))
    chosen = sorted(rng.sample(candidates, n_bad))
    bad_dates, bad_ids = chosen[0::2], chosen[1::2]
    for index in bad_dates:
        rows[index]["visit_date"] = None
    for index in bad_ids:
        rows[index]["visit_id"] = None
    return Batch(Table.from_rows(rows, schema=dict(table.schema)), bad_dates, bad_ids)


def batch_patients(workload: Workload, patients: int) -> int:
    """New patients in the workload's batch: its share of a year's intake."""
    return max(2, round(patients / INTAKE_YEARS * workload.batch_years))


def make_inputs(workload: Workload, seed: int, patients: int = PAPER_PATIENTS) -> Inputs:
    """The run's cohort and batches, all derived from ``seed``."""
    cohort = DiScRiGenerator(n_patients=patients, seed=seed).generate()
    pid = max(cohort.column("patient_id").to_list())
    vid = max(cohort.column("visit_id").to_list())
    rng = random.Random(seed * 7919 + 17)
    new_patients = batch_patients(workload, patients)
    batches = []
    for r in range(ROUNDS):
        table = DiScRiGenerator(n_patients=new_patients, seed=seed * 1009 + r + 1).generate()
        table = offset_identifiers(table, pid, vid)
        pid += new_patients
        vid += table.num_rows
        batches.append(_dirty(table, workload.bad_rate, rng))
    return Inputs(cohort, batches)
