"""Checks of the benchmark itself; run with

    python3 -m pytest bench/test_bench.py -q
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_sources()

import corpus  # noqa: E402
import spans  # noqa: E402
from monideal import PrimeField, is_sequentially_cm  # noqa: E402
from monideal.families import edge_ideal  # noqa: E402

TINY = 6  # calls per workload in the tiny traced runs


def _counts(result):
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def test_tiny_traced_runs_are_correct_and_repeat_counts_exactly():
    for workload in corpus.WORKLOADS:
        first = run.traced(workload, run.DEFAULT_SEED, calls=TINY)
        second = run.traced(workload, run.DEFAULT_SEED, calls=TINY)
        # correct covers the reference digests and traced == untraced stdout
        assert first["correct"] and second["correct"], workload
        assert first["metrics"]["parsing.from_text.calls"]["value"] == TINY
        assert _counts(first) == _counts(second), workload


def test_corpus_depends_on_the_seed_only():
    for workload in corpus.WORKLOADS:
        a = corpus.build(workload, 3, rounds=2)
        b = corpus.build(workload, 3, rounds=2)
        c = corpus.build(workload, 4, rounds=2)
        assert [i.argv for i in a] == [i.argv for i in b]
        assert [i.argv for i in a] != [i.argv for i in c]


def test_non_scm_sampler_is_not_sequentially_cm():
    rng = corpus.random.Random(0)
    for _ in range(12):
        ideal = edge_ideal(corpus.non_scm_graph(11, rng))
        for p in (2, 3):
            assert not is_sequentially_cm(ideal, PrimeField(p))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    meta = json.loads((HERE / "META.json").read_text())
    listed = [name for layer in meta["layer_moves"].values() for name in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in spec["per_layer"])
