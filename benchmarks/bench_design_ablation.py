"""Design-choice ablation (beyond the paper's own tables).

DESIGN.md calls out three reproduction-specific choices; this bench
measures each against its alternative on one dataset:

1. **OPQ rotation warm-start** vs identity initialization;
2. **distortion anchor** (Eq.-2 term in the trainer) vs none;
3. **ADC vs SDC** distance computation (the paper's §3.1 premise).
"""

from __future__ import annotations

from repro.api import SearchRequest
from repro.core import RPQ
from repro.datasets import compute_ground_truth, load
from repro.eval import format_table
from repro.eval.harness import quick_rpq_config
from repro.graphs import build_hnsw
from repro.index import MemoryIndex
from repro.metrics import recall_at_k
from repro.quantization import ProductQuantizer

from common import fmt, save_report

BEAM = 32


def run():
    data = load("sift", n_base=1000, n_queries=25, seed=0)
    graph = build_hnsw(data.base, m=8, ef_construction=48, seed=0)
    gt = compute_ground_truth(data.base, data.queries, k=10)

    def memory_recall(quantizer, mode="adc"):
        index = MemoryIndex(graph, quantizer, data.base, distance_mode=mode)
        response = index.search(SearchRequest(data.queries, 10, BEAM))
        return recall_at_k(list(response), gt.ids)

    rows = []

    def fit_rpq(opq_init=True, distortion=0.3):
        config = quick_rpq_config(seed=0)
        config.distortion_weight = distortion
        model = RPQ(8, 32, config=config, opq_init=opq_init, seed=0)
        model.fit(data.base, graph, training_sample=data.train)
        return model.quantizer

    full = fit_rpq()
    rows.append(["RPQ (full: OPQ init + anchor, ADC)", fmt(memory_recall(full), 3)])
    rows.append(
        ["RPQ w/o OPQ init", fmt(memory_recall(fit_rpq(opq_init=False)), 3)]
    )
    rows.append(
        ["RPQ w/o distortion anchor", fmt(memory_recall(fit_rpq(distortion=0.0)), 3)]
    )
    rows.append(["RPQ scored with SDC", fmt(memory_recall(full, mode="sdc"), 3)])
    pq = ProductQuantizer(8, 32, seed=0).fit(data.train)
    rows.append(["PQ baseline (ADC)", fmt(memory_recall(pq), 3)])
    return rows


def test_design_ablation(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["Variant", f"recall@10 (beam {BEAM})"],
        rows,
        title="Design ablation: reproduction-specific choices (sift-like)",
    )
    save_report("design_ablation", text)

    values = {row[0]: float(row[1]) for row in rows}
    full = values["RPQ (full: OPQ init + anchor, ADC)"]
    assert full >= values["PQ baseline (ADC)"] - 0.02
    assert full >= values["RPQ scored with SDC"] - 0.05
