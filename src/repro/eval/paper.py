"""The paper's evaluation as one declarative table.

Every artifact of the evaluation (§3 Table 2, §4 Fig. 4, §8 Figs. 5-12
and Tables 4-7, plus the reproduction's own design ablation) is a row
of :data:`PAPER`: an :class:`Artifact` names a grid of
:class:`~repro.api.IndexSpec` cells (``groups`` — dataset x size x
graph x scenario — times ``variants`` — quantizer, or a scenario swap),
a measurement (beam sweep / fit seconds / parameter KiB), a
:class:`Reduce` rule (recall ceiling, or a metric at matched recall
with its anchor), the table layout, and the shape assertion the paper's
claim translates to.  :func:`run` executes any row on a
:class:`~repro.eval.workbench.Workbench`, :func:`render` prints it;
``repro experiment paper <id>`` and ``benchmarks/bench_paper.py`` are
the two callers.

Scale: datasets are the synthetic stand-ins of :mod:`repro.datasets` at
1k-4k vectors (the paper: 1M-1B), graphs use
:func:`~repro.eval.workbench.laptop_graph`, RPQ trains with the
registry's ``RPQ_QUICK_CONFIG``; QPS is measured on this machine and
matters only *relatively* across methods.  ``docs/api.md`` "Paper
experiments" has the id -> paper section -> grid -> metric map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..api.spec import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
)
from ..datasets import PROFILES
from ..metrics.recall import recall_at_k
from .sweep import OperatingPoint, max_recall, metric_at_recall, sweep_beam
from .tables import fmt, format_grid, format_table
from .workbench import Workbench, laptop_graph

BEAMS = (10, 16, 24, 32, 48)
DATASETS = ("bigann", "deep", "sift", "gist", "ukbench")
BATCH_SIZE = 64
MEMORY = ScenarioSpec(kind="memory")
HYBRID = ScenarioSpec(kind="hybrid")
CURVE_HEADERS = ["method", "beam", "recall@10", "QPS", "hops", "I/O ms"]


# ----------------------------------------------------------------------
# The row type
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """The spec sections every variant of one grid row / column shares.

    ``label`` is the row / column heading (a size-ladder row leaves it
    empty and is headed by its ``n_base``); ``block`` names the table a
    ``rows="groups"`` artifact renders the group into.
    """

    dataset: DatasetSpec
    graph: GraphSpec
    scenario: ScenarioSpec
    label: str = ""
    block: str = ""

    @property
    def heading(self) -> str:
        return self.label or str(self.dataset.n_base)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.block, self.heading)

    def spec(
        self,
        quantizer: Optional[QuantizerSpec] = None,
        scenario: Optional[ScenarioSpec] = None,
    ) -> IndexSpec:
        return IndexSpec(
            dataset=self.dataset,
            graph=self.graph,
            quantizer=quantizer or QuantizerSpec(),
            scenario=scenario or self.scenario,
        )


@dataclass(frozen=True)
class Variant:
    """One method of the comparison: a quantizer section, optionally a
    scenario that replaces the group's (``l2r``, SDC scoring), or — for
    the one variant no spec field expresses — a ``fit`` callable
    ``(bench, spec) -> quantizer``.  ``key`` indexes results (a
    ``(row, column)`` pair in ``rows="grid"`` artifacts); ``label`` is
    the printed heading."""

    key: Hashable
    label: str
    quantizer: Optional[QuantizerSpec] = None
    scenario: Optional[ScenarioSpec] = None
    fit: Optional[Callable] = None


@dataclass(frozen=True)
class Reduce:
    """From a group's curves to one number per variant.

    ``metric="max_recall"`` is the recall ceiling.  Any other metric is
    an :class:`OperatingPoint` attribute interpolated at a matched
    recall target of ``fraction`` x an anchor ceiling: the weakest
    variant's (``"min"`` — every variant has a value), the median one
    (``"median"`` — stronger quantizers differentiate and a variant that
    cannot reach the target reports NaN, printed ``-``, like a too-weak
    baseline in the paper's fixed-target tables), or each variant's
    ``"own"``.
    """

    metric: str = "max_recall"
    anchor: str = "min"
    fraction: float = 0.95

    def apply(
        self, curves: Dict[Hashable, List[OperatingPoint]]
    ) -> Tuple[Optional[float], Dict[Hashable, float]]:
        """``(target recall or None, {variant key: value})``."""
        ceilings = {key: max_recall(pts) for key, pts in curves.items()}
        if self.metric == "max_recall":
            return None, ceilings
        if self.anchor not in ("min", "median", "own"):
            raise ValueError("anchor must be 'min', 'median' or 'own'")
        ordered = sorted(ceilings.values())
        shared = self.fraction * (
            ordered[0] if self.anchor == "min" else ordered[len(ordered) // 2]
        )
        values = {}
        for key, points in curves.items():
            target = (
                self.fraction * ceilings[key]
                if self.anchor == "own"
                else shared
            )
            value = metric_at_recall(points, target, self.metric)
            values[key] = float("nan") if value is None else value
        return (None if self.anchor == "own" else shared), values


@dataclass(frozen=True)
class Artifact:
    """One table / figure: spec grid + measurement + layout + check.

    ``measure`` is ``"sweep"`` (build each cell's index, sweep ``beams``
    in ``batch_size``-row requests, then ``reduce``), ``"fit_seconds"``,
    ``"parameter_kib"``, or a callable ``(bench, group) -> {variant key:
    value}`` for the two artifacts that are not a quantizer comparison.
    ``rows`` picks the layout: ``"variants"`` (one table, a row per
    variant, a column per group), ``"groups"`` (a table per ``block``, a
    row per group, a column per variant) or ``"grid"`` (a K x M grid per
    group).  ``title`` / ``curves_title`` may use ``{block}`` /
    ``{group}``; a set ``curves_title`` also prints every swept curve.
    """

    id: str
    title: str
    groups: Tuple[Group, ...]
    variants: Tuple[Variant, ...]
    check: Callable[["Result"], None]
    measure: Union[str, Callable] = "sweep"
    beams: Tuple[int, ...] = BEAMS
    batch_size: int = 1
    reduce: Reduce = Reduce()
    rows: str = "groups"
    corner: str = "dataset"
    digits: int = 1
    show_target: bool = False
    curves_title: str = ""

    def cells(self, group: Group) -> Iterator[Tuple[Variant, IndexSpec]]:
        """The cells the runner executes for ``group``: a variant whose
        chunk count does not divide the dataset's dimension is skipped
        (the K x M grids on the 120-d gist profile)."""
        dim = PROFILES[group.dataset.name].dim
        for variant in self.variants:
            spec = group.spec(variant.quantizer, variant.scenario)
            if dim % spec.quantizer.num_chunks == 0:
                yield variant, spec


@dataclass
class Result:
    """What :func:`run` measured, keyed by ``group.key`` then
    ``variant.key``: the reduced ``values``, the matched-recall
    ``targets`` (where the reducer has a shared one) and the raw
    ``curves`` of sweep artifacts."""

    artifact: Artifact
    values: Dict[tuple, Dict[Hashable, object]]
    targets: Dict[tuple, float]
    curves: Dict[tuple, Dict[Hashable, List[OperatingPoint]]]


# ----------------------------------------------------------------------
# Runner and renderer
# ----------------------------------------------------------------------


def _fit_seconds(bench: Workbench, spec: IndexSpec) -> float:
    bench.training_inputs(spec)  # dataset / graph stay off the clock
    start = time.perf_counter()
    bench.fit_quantizer(spec)
    return time.perf_counter() - start


def _parameter_kib(bench: Workbench, spec: IndexSpec) -> float:
    return bench.quantizer(spec).parameter_bytes() / 1024.0


_QUANTIZER_MEASURES = {
    "fit_seconds": _fit_seconds,
    "parameter_kib": _parameter_kib,
}


def run(artifact: Artifact, bench: Optional[Workbench] = None) -> Result:
    """Execute every cell of ``artifact`` and reduce it."""
    bench = bench or Workbench()
    result = Result(artifact, {}, {}, {})
    for group in artifact.groups:
        if callable(artifact.measure):
            result.values[group.key] = artifact.measure(bench, group)
        elif artifact.measure == "sweep":
            curves = {}
            for variant, spec in artifact.cells(group):
                fitted = variant.fit(bench, spec) if variant.fit else None
                curves[variant.key] = sweep_beam(
                    bench.build(spec, quantizer=fitted),
                    bench.dataset(spec).queries,
                    bench.ground_truth(spec),
                    k=bench.k,
                    beam_widths=artifact.beams,
                    batch_size=artifact.batch_size,
                )
            target, values = artifact.reduce.apply(curves)
            result.curves[group.key] = curves
            result.values[group.key] = values
            if target is not None:
                result.targets[group.key] = target
        else:
            measure = _QUANTIZER_MEASURES[artifact.measure]
            result.values[group.key] = {
                variant.key: measure(bench, spec)
                for variant, spec in artifact.cells(group)
            }
    return result


def _ordered(items) -> list:
    return list(dict.fromkeys(items))


def render(result: Result) -> str:
    """The artifact's printed form (what ``benchmarks/results/<id>.txt``
    archives)."""
    a = result.artifact
    blocks = []

    def cell(group: Group, key: Hashable) -> str:
        return fmt(result.values[group.key].get(key), a.digits)

    def target(group: Group) -> str:
        return fmt(result.targets[group.key], 3)

    if a.curves_title:
        for group in a.groups:
            rows = [
                [
                    key,
                    p.beam_width,
                    fmt(p.recall, 3),
                    fmt(p.qps, 1),
                    fmt(p.mean_hops, 1),
                    fmt(p.mean_io_us / 1000.0, 2),
                ]
                for key, points in result.curves[group.key].items()
                for p in points
            ]
            title = a.curves_title.format(group=group.heading)
            blocks.append(format_table(CURVE_HEADERS, rows, title=title))
    if a.rows == "variants":
        rows = [
            [v.label] + [cell(g, v.key) for g in a.groups]
            for v in a.variants
        ]
        if a.show_target:
            rows.append(["(target recall)"] + [target(g) for g in a.groups])
        headers = [a.corner] + [g.heading for g in a.groups]
        blocks.append(format_table(headers, rows, title=a.title))
    elif a.rows == "groups":
        lead = [a.corner] + (["target recall"] if a.show_target else [])
        headers = lead + [v.label for v in a.variants]
        for block in _ordered(g.block for g in a.groups):
            rows = [
                [g.heading]
                + ([target(g)] if a.show_target else [])
                + [cell(g, v.key) for v in a.variants]
                for g in a.groups
                if g.block == block
            ]
            title = a.title.format(block=block)
            blocks.append(format_table(headers, rows, title=title))
    elif a.rows == "grid":
        row_labels = _ordered(v.key[0] for v in a.variants)
        col_labels = _ordered(v.key[1] for v in a.variants)
        for group in a.groups:
            values = [
                [cell(group, (r, c)) for c in col_labels] for r in row_labels
            ]
            blocks.append(
                format_grid(
                    row_labels,
                    col_labels,
                    values,
                    corner=a.corner,
                    title=a.title.format(group=group.heading),
                )
            )
    else:
        raise ValueError(f"unknown layout {a.rows!r}")
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Grid vocabulary
# ----------------------------------------------------------------------


def _groups(
    names,
    graph: str,
    scenario: ScenarioSpec,
    n_base: int = 1000,
    n_queries: int = 40,
) -> Tuple[Group, ...]:
    return tuple(
        Group(
            DatasetSpec(name, n_base=n_base, n_queries=n_queries),
            laptop_graph(graph),
            scenario,
            label=name,
        )
        for name in names
    )


def _ladder(names, sizes, graph: str, scenario: ScenarioSpec):
    return tuple(
        Group(
            DatasetSpec(name, n_base=size, n_queries=30),
            laptop_graph(graph),
            scenario,
            block=name,
        )
        for name in names
        for size in sizes
    )


def _quantizer(kind: str, m: int = 8, k: int = 32, **params) -> QuantizerSpec:
    return QuantizerSpec(
        kind=kind, num_chunks=m, num_codewords=k, params=params
    )


def _methods(kinds, label: str = "{}") -> Tuple[Variant, ...]:
    return tuple(
        Variant(kind, label.format(kind), _quantizer(kind)) for kind in kinds
    )


def _pq_vs_rpq(graph: str) -> Tuple[Variant, ...]:
    return (
        Variant("pq", f"{graph}-PQ QPS", _quantizer("pq")),
        Variant("rpq", f"{graph}-RPQ QPS", _quantizer("rpq")),
    )


def _ablation(l2r: ScenarioSpec) -> Tuple[Variant, ...]:
    """RPQ (joint), neighbourhood-only, routing-only, and a fixed PQ
    under a learned routing function (Tables 6-7)."""
    return (
        Variant("rpq", "RPQ", _quantizer("rpq")),
        Variant("rpq_n", "RPQ w/ N", _quantizer("rpq", use_routing=False)),
        Variant(
            "rpq_r", "RPQ w/ R", _quantizer("rpq", use_neighborhood=False)
        ),
        Variant("l2r", "RPQ w/ L2R", _quantizer("pq"), scenario=l2r),
    )


def _kpos_kneg(ratios, pool: int = 24) -> Tuple[Variant, ...]:
    """Split a fixed sample budget ``pool`` = k_pos + k_neg by ratio."""
    variants = []
    for ratio in ratios:
        k_pos = max(1, int(round(ratio * pool)))
        quantizer = _quantizer("rpq", k_pos=k_pos, k_neg=max(1, pool - k_pos))
        variants.append(Variant(ratio, f"r={ratio}", quantizer))
    return tuple(variants)


KM_KS, KM_MS = (8, 16, 32), (4, 8, 16)
KM_GRID = tuple(
    Variant((f"K={k}", f"M={m}"), f"K={k} M={m}", _quantizer("rpq", m, k))
    for k in KM_KS
    for m in KM_MS
)
KM_SMALL = ("K=8", "M=4")
KM_BIG = (("K=32", "M=16"), ("K=32", "M=8"))


# ----------------------------------------------------------------------
# The three callables
# ----------------------------------------------------------------------


EQ5_BEAM = 24


def _eq5_ranking(bench: Workbench, group: Group) -> Dict[str, float]:
    """Recall@10 when candidates are ranked with the first two terms of
    Eq. 5 vs. the full squared distance (paper Table 2).

    Eq. 5 splits the comparison between two candidates into the distance
    between them, the distance from the query to their midpoint, and the
    angle ``cos θ`` between the two.  ``two_terms`` scores a candidate
    ``v`` against a per-query anchor ``a`` (the greedy local minimum of
    the true distance) as ``δ(a, q) + ‖x_v − x_a‖²`` — the angular cross
    term of the expansion is dropped; ``full`` ranks with ``δ`` itself.
    """
    from ..graphs.beam import exact_distance_fn, greedy_search

    spec = group.spec()
    data, graph = bench.dataset(spec), bench.graph(spec)
    x = data.base

    def two_terms(query: np.ndarray):
        anchor = greedy_search(
            graph.adjacency, graph.entry_point, exact_distance_fn(x, query)
        )
        anchor_vec = x[anchor]
        diff_aq = anchor_vec - query
        d_aq = float(diff_aq @ diff_aq)

        def fn(vertex_ids: np.ndarray) -> np.ndarray:
            diff = x[vertex_ids] - anchor_vec
            return d_aq + np.einsum("ij,ij->i", diff, diff)

        return fn

    def full(query: np.ndarray):
        return exact_distance_fn(x, query)

    out = {}
    for name, ranking in (("two_terms", two_terms), ("full", full)):
        ids = [
            graph.search(ranking(q), EQ5_BEAM, k=bench.k).ids
            for q in data.queries
        ]
        out[name] = recall_at_k(ids, bench.ground_truth(spec).ids)
    return out


FIG4_QUANTIZER = _quantizer("rpq", 8, 16)


def _rotation_balance(bench: Workbench, group: Group) -> Dict[str, object]:
    """Per-chunk variance balance before / after the learned rotation
    (paper Fig. 4 plots the same profile as a heat map)."""
    from ..core import chunk_balance_score, dimension_value_profile

    spec = group.spec(FIG4_QUANTIZER)
    x = bench.dataset(spec).base
    chunks = FIG4_QUANTIZER.num_chunks
    before = dimension_value_profile(x, chunks)
    rotated = x @ bench.quantizer(spec).rotation.T
    after = dimension_value_profile(rotated, chunks)

    def max_share(profile: np.ndarray) -> str:
        shares = profile.sum(axis=1)
        return fmt(float((shares / shares.sum()).max()) * 100, 1) + "%"

    return {
        "before": chunk_balance_score(before),
        "after": chunk_balance_score(after),
        "share_before": max_share(before),
        "share_after": max_share(after),
    }


def _fit_identity_start(bench: Workbench, spec: IndexSpec):
    """RPQ with its rotation started from the identity instead of OPQ's
    Procrustes solution — a constructor argument of :class:`RPQ`, not a
    training-config field, so no ``QuantizerSpec`` spells it."""
    from ..api.registry import RPQ_QUICK_CONFIG
    from ..core import RPQ, RPQTrainingConfig

    q = spec.quantizer
    train, x, graph = bench.training_inputs(spec)
    config = RPQTrainingConfig(**dict(RPQ_QUICK_CONFIG, seed=q.seed))
    model = RPQ(
        q.num_chunks, q.num_codewords, config=config, opq_init=False,
        seed=q.seed,
    )
    return model.fit(x, graph, training_sample=train).quantizer


# ----------------------------------------------------------------------
# Shape assertions (the paper's claims at laptop scale)
# ----------------------------------------------------------------------

Row = Dict[Hashable, object]


def every(holds: Callable[[Row], bool]) -> Callable[[Result], None]:
    """The claim ``holds`` for every group's row of values."""

    def check(result: Result) -> None:
        for key, row in result.values.items():
            assert holds(row), (result.artifact.id, key, row)

    return check


def at_least(count: int, holds: Callable[[Row], bool]):
    """The claim ``holds`` for at least ``count`` of the groups."""

    def check(result: Result) -> None:
        wins = sum(1 for row in result.values.values() if holds(row))
        assert wins >= count, (result.artifact.id, wins, result.values)

    return check


def _reached(value) -> bool:
    """Whether a method has a value at the matched-recall target."""
    return value is not None and value == value


def _hops_no_worse_than_pq(result: Result) -> None:
    # Fig. 5: at matched recall RPQ needs no more hops (15% slack)
    # than PQ on most datasets.
    wins = 0
    for key, curves in result.curves.items():
        target = result.targets[key]
        rpq = metric_at_recall(curves["rpq"], target, "mean_hops")
        pq = metric_at_recall(curves["pq"], target, "mean_hops")
        if rpq is not None and pq is not None and rpq <= pq * 1.15:
            wins += 1
    assert wins >= 3, "RPQ should need <= hops on most datasets"


def _ceiling_matches_pq(row: Row) -> bool:
    return row["rpq"] >= row["pq"] - 0.02


def _middle_ratio_is_healthy(row: Row) -> bool:
    # Fig. 8: some middle k_pos share is at least as good as both
    # extreme shares (an unreached extreme does not count against it).
    ratios = list(row)
    mid = max(v for r, v in row.items() if 0.1 < r < 0.9 and v == v)
    lo, hi = row[ratios[0]], row[ratios[-1]]
    return (lo != lo or mid >= lo * 0.85) and (hi != hi or mid >= hi * 0.85)


def _largest_km_keeps_qps(row: Row) -> bool:
    small = row.get(KM_SMALL)
    bigs = [row[key] for key in KM_BIG if key in row]
    big = max((v for v in bigs if v == v), default=None)
    return not _reached(small) or (big is not None and big >= small * 0.8)


def _largest_km_keeps_ceiling(row: Row) -> bool:
    bigs = [row[key] for key in KM_BIG if key in row]
    return KM_SMALL not in row or not bigs or max(bigs) >= row[KM_SMALL] - 0.02


def _fits_in_minutes(row: Row) -> bool:
    # Table 4: wall-clock training-time ratios do not transfer across
    # substrates (our Catalyst is a small numpy MLP; our RPQ pays Python
    # expm and graph-sampling costs the paper's CUDA implementation
    # amortizes) — the reproducible claim is that both are finite
    # minutes-scale jobs, not hours.
    return all(0 < seconds < 300 for seconds in row.values())


def _design_choices_pay(row: Row) -> bool:
    return row["full"] >= row["pq"] - 0.02 and row["full"] >= row["sdc"] - 0.05


# RPQ reaches the (median-ceiling) matched-recall target: at every
# scale (Figs. 11-12; PQ frequently cannot) and on nearly every dataset
# of the ablation (Tables 6-7; the joint model sets or co-sets the
# ceiling the target is derived from, ablated variants often miss it).
def _rpq_reaches_target(row: Row) -> bool:
    return _reached(row.get("rpq"))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_QPS_MIN = Reduce("qps", "min", 0.95)
_QPS_MEDIAN = Reduce("qps", "median", 0.95)
# With two methods the median anchor is the stronger ceiling; a slightly
# lower fraction keeps the target reachable for RPQ under seed noise
# while still stressing PQ.
_QPS_SCALE = Reduce("qps", "median", 0.9)
_ABLATION_BEAMS = BEAMS + (64,)
_SIZES = (800, 2000, 4000)
_COMPARED = ("pq", "opq", "catalyst", "rpq")
_ABLATION_DATASETS = ("bigann", "deep", "gist", "sift", "ukbench")


PAPER: Dict[str, Artifact] = {
    a.id: a
    for a in (
        Artifact(
            "table2",
            "Table 2: Recall@10 under different candidate rankings",
            _groups(
                ("sift", "deep", "ukbench", "gist"), "vamana", MEMORY,
                n_base=1200, n_queries=30,
            ),
            (
                Variant("two_terms", "ranking w/ two terms"),
                Variant("full", "ranking by full Eq. 5"),
            ),
            every(lambda row: row["full"] >= row["two_terms"]),
            measure=_eq5_ranking,
            rows="variants",
            corner="Features",
            digits=3,
        ),
        Artifact(
            "fig4",
            "Fig. 4: per-chunk variance balance before/after learned "
            "rotation",
            _groups(("sift", "deep"), "vamana", MEMORY),
            (
                Variant("before", "imbalance before"),
                Variant("after", "imbalance after"),
                Variant("share_before", "max chunk share before"),
                Variant("share_after", "max chunk share after"),
            ),
            every(lambda row: row["after"] <= row["before"]),
            measure=_rotation_balance,
            digits=3,
        ),
        Artifact(
            "fig5",
            "Fig. 5 summary: QPS at matched recall",
            _groups(DATASETS, "vamana", HYBRID, n_queries=20),
            _methods(_COMPARED),
            _hops_no_worse_than_pq,
            reduce=_QPS_MIN,
            show_target=True,
            curves_title="Fig. 5 [{group}] hybrid scenario curves",
        ),
        Artifact(
            "fig6",
            "Fig. 6 summary: recall ceilings (in-memory, HNSW)",
            _groups(DATASETS, "hnsw", MEMORY, n_queries=20),
            _methods(
                ("pq", "opq", "lnc", "catalyst", "rpq"), "{} max recall"
            ),
            at_least(3, _ceiling_matches_pq),
            # Batched requests: same answers bitwise, batched-engine QPS.
            batch_size=BATCH_SIZE,
            digits=3,
            curves_title="Fig. 6 [{group}] HNSW in-memory curves",
        ),
        Artifact(
            "fig7",
            "Fig. 7 summary: recall ceilings (in-memory, NSG)",
            _groups(DATASETS, "nsg", MEMORY, n_queries=20),
            _methods(_COMPARED, "{} max recall"),
            at_least(3, _ceiling_matches_pq),
            digits=3,
            curves_title="Fig. 7 [{group}] NSG in-memory curves",
        ),
        Artifact(
            "fig8",
            "Fig. 8: QPS at matched recall vs k_pos/(k_pos+k_neg) ratio",
            (
                Group(
                    DatasetSpec("bigann", 1000, 40), laptop_graph("vamana"),
                    HYBRID, label="hybrid/bigann",
                ),
                Group(
                    DatasetSpec("deep", 1000, 40), laptop_graph("hnsw"),
                    MEMORY, label="memory/deep",
                ),
            ),
            _kpos_kneg((0.02, 0.2, 0.5, 0.8, 0.98)),
            at_least(1, _middle_ratio_is_healthy),
            reduce=_QPS_MIN,
            corner="scenario/dataset",
        ),
        Artifact(
            "fig9",
            "Fig. 9 [{group}] hybrid: QPS at matched recall",
            _groups(("bigann", "deep", "gist"), "vamana", HYBRID),
            KM_GRID,
            at_least(2, _largest_km_keeps_qps),
            reduce=Reduce("qps", "own", 0.9),
            rows="grid",
            corner="QPS",
        ),
        Artifact(
            "fig10",
            "Fig. 10 [{group}] in-memory: Recall@10 ceiling",
            _groups(("bigann", "deep", "gist"), "hnsw", MEMORY),
            KM_GRID,
            every(_largest_km_keeps_ceiling),
            rows="grid",
            corner="recall",
            digits=2,
        ),
        Artifact(
            "fig11",
            "Fig. 11 [{block}] hybrid scalability",
            _ladder(("bigann", "deep"), _SIZES, "vamana", HYBRID),
            _pq_vs_rpq("DiskANN"),
            every(_rpq_reaches_target),
            reduce=_QPS_SCALE,
            corner="n",
            show_target=True,
        ),
        Artifact(
            "fig12",
            "Fig. 12 [{block}] in-memory scalability",
            _ladder(("bigann", "deep"), _SIZES, "hnsw", MEMORY),
            _pq_vs_rpq("HNSW"),
            every(_rpq_reaches_target),
            batch_size=BATCH_SIZE,
            reduce=_QPS_SCALE,
            corner="n",
            show_target=True,
        ),
        Artifact(
            "table4",
            "Table 4: training time (seconds; paper reports hours at "
            "500K scale)",
            _groups(DATASETS, "vamana", MEMORY),
            (
                Variant("catalyst", "Catalyst", _quantizer("catalyst")),
                Variant("rpq", "RPQ", _quantizer("rpq")),
            ),
            every(_fits_in_minutes),
            measure="fit_seconds",
            rows="variants",
            corner="Method",
            digits=2,
        ),
        Artifact(
            "table5",
            "Table 5: model size (KiB; paper reports MB at D=128-960)",
            _groups(DATASETS, "vamana", MEMORY, n_base=800),
            (
                Variant("catalyst", "Catalyst", _quantizer("catalyst")),
                Variant("rpq", "RPQ", _quantizer("rpq")),
            ),
            at_least(4, lambda row: row["rpq"] < row["catalyst"]),
            measure="parameter_kib",
            rows="variants",
            corner="Method",
        ),
        Artifact(
            "table6",
            "Table 6: QPS at matched recall, hybrid scenario (ablation)",
            _groups(_ABLATION_DATASETS, "vamana", HYBRID),
            _ablation(
                ScenarioSpec(
                    "hybrid", {"learned_routing": True, "l2r_seed": 0}
                )
            ),
            at_least(4, _rpq_reaches_target),
            beams=_ABLATION_BEAMS,
            reduce=_QPS_MEDIAN,
            rows="variants",
            corner="Method",
            show_target=True,
        ),
        Artifact(
            "table7",
            "Table 7: QPS at matched recall, in-memory scenario (ablation)",
            _groups(_ABLATION_DATASETS, "hnsw", MEMORY),
            _ablation(ScenarioSpec("l2r", {"seed": 0})),
            at_least(4, _rpq_reaches_target),
            beams=_ABLATION_BEAMS,
            reduce=_QPS_MEDIAN,
            rows="variants",
            corner="Method",
            show_target=True,
        ),
        Artifact(
            "design",
            "Design ablation: reproduction-specific choices (sift-like)",
            (
                Group(
                    DatasetSpec("sift", 1000, 25), laptop_graph("hnsw"),
                    MEMORY, label="recall@10 (beam 32)",
                ),
            ),
            (
                Variant(
                    "full", "RPQ (full: OPQ init + anchor, ADC)",
                    _quantizer("rpq"),
                ),
                Variant(
                    "identity_start", "RPQ w/o OPQ init", _quantizer("rpq"),
                    fit=_fit_identity_start,
                ),
                Variant(
                    "no_anchor", "RPQ w/o distortion anchor",
                    _quantizer("rpq", distortion_weight=0.0),
                ),
                Variant(
                    "sdc", "RPQ scored with SDC", _quantizer("rpq"),
                    scenario=ScenarioSpec("memory", {"distance_mode": "sdc"}),
                ),
                Variant("pq", "PQ baseline (ADC)", _quantizer("pq")),
            ),
            every(_design_choices_pay),
            beams=(32,),
            batch_size=25,
            rows="variants",
            corner="Variant",
            digits=3,
        ),
    )
}
