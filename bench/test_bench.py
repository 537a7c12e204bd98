"""Tests of the pipeline benchmark itself: corpus determinism, the metric
names and units it reports, and that tracing leaves outputs unchanged."""

import io
import json
import os

import calibration
import corpus_gen
import pipeline
import run
from amrtk import align as align_mod
from tracing import HOOKS, NullTracer, Tracer, recording_smatch

# eight cheap fixture parts keep every workload small
SMALL = ("s01", "s02", "s07", "s09", "s12", "s14", "s15", "s16")


def small_parts():
    return [p for p in corpus_gen.read_parts() if p.id in SMALL]


def benchmark_spec():
    with open(os.path.join(run.REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_same_seed_gives_identical_corpora():
    for workload in corpus_gen.DECKS:
        first = corpus_gen.generate(workload, 7)
        assert first == corpus_gen.generate(workload, 7)
        assert first != corpus_gen.generate(workload, 8)


def test_compose_long_sentences_are_distinct():
    docs = pipeline.corpus_mod.read_corpus(
        corpus_gen.generate("compose-long", 1))
    assert len({doc.graph_text for doc in docs}) == len(docs) == 12


def test_composed_sentences_rename_variables_per_part():
    for part in small_parts():
        for copies in (2, 3):
            [doc] = pipeline.corpus_mod.read_corpus(
                corpus_gen.compose([part] * copies, "x"))
            assert doc.graph.concept(doc.graph.root).label == "and"
            assert doc.tokens.count("and") == copies - 1
            assert len(doc.graph.var_ids()) == \
                copies * len(part.variables) + 1


def test_every_metric_and_unit_is_reported_for_every_workload(
        monkeypatch, tmp_path):
    """A traced run reports the per-layer metrics and records the
    end-to-end ones of its untraced passes in its notes file."""
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    monkeypatch.setattr(corpus_gen, "DECKS",
                        dict.fromkeys(corpus_gen.DECKS, 1))
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == sorted(run.MODEL_SEEDS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert dict(run.END_TO_END) == end_to_end
    for workload in run.MODEL_SEEDS:
        report = run.run_workload(workload, 1, 0, True, out=io.StringIO(),
                                  parts=small_parts(), launches=1,
                                  min_passes=1)
        assert report["correct"] and report["attempted"] >= 1
        units = {name: m["unit"] for name, m in report["metrics"].items()}
        assert units == per_layer, workload
        notes = os.path.join(str(tmp_path), "%s-1-trace1.json" % workload)
        with open(notes, encoding="utf-8") as handle:
            assert set(json.load(handle)["end_to_end"]) == set(end_to_end)


def test_traced_and_untraced_passes_write_identical_outputs():
    resources = run.load_resources()
    rules = align_mod.full_rule_set(resources)
    corpus_text = corpus_gen.generate("compose-long", 3, parts=small_parts())
    originals = [getattr(module, attr) for module, attr, _, _ in HOOKS]
    untraced = pipeline.run_pass(corpus_text, resources, rules,
                                 resources.lemmas, (1, 2), NullTracer())
    tracer = Tracer()
    traced = pipeline.run_pass(corpus_text, resources, rules,
                               resources.lemmas, (1, 2), tracer)
    assert traced.outputs() == untraced.outputs()
    assert untraced.texts["smatch"] and untraced.texts["parse"]
    assert [getattr(module, attr) for module, attr, _, _ in HOOKS] == originals
    assert tracer.totals["smatch"][0] > 0 and tracer.spans
    assert all(span["end"] >= span["start"] for span in tracer.spans)


def test_failed_sentences_are_counted_and_left_out_of_later_stages():
    resources = run.load_resources()
    rules = align_mod.full_rule_set(resources)
    good = "\n".join(corpus_gen.compose([part], part.id)
                     for part in small_parts()[:2])
    untokenized = "# ::id no-tokens\n(s / sleep-01)\n"
    result = pipeline.run_pass(good + "\n" + untokenized, resources, rules,
                               resources.lemmas, (1,), NullTracer())
    [failure] = result.failures
    assert (failure.stage, failure.sentence, failure.type) == (
        "align", "no-tokens", "CorpusFormatError")
    assert str(failure).startswith("FAILED align no-tokens CorpusFormatError")
    assert result.attempted["align"] == 3 and result.completed["align"] == 2
    assert result.attempted["tune"] == result.completed["smatch"] == 2


def test_smatch_check_flags_counts_above_the_exact_ones(monkeypatch):
    resources = run.load_resources()
    rules = align_mod.full_rule_set(resources)
    corpus_text = corpus_gen.generate("compose-short", 1, small_parts())
    scored = []
    with recording_smatch(scored):
        result = pipeline.run_pass(corpus_text, resources, rules,
                                   resources.lemmas, (1,), NullTracer())
    assert scored and result.smatch_pairs
    problems, checked, _ = run.check_smatch(scored)
    assert checked and not problems
    counts = run.smatch_mod.smatch_counts
    monkeypatch.setattr(run.smatch_mod, "smatch_counts",
                        lambda a, b, *args: (counts(a, b, *args)[0] + 1, 0, 0))
    problems, _, _ = run.check_smatch(scored)
    assert len(problems) == checked


def test_tail_has_ten_samples_above_it():
    value, percentile = run.tail(list(range(1, 41)))
    assert (value, percentile) == (30, 75.0)
    assert run.tail([4, 1, 2, 3]) == (2.5, 50.0)


def test_stage_times_are_calibrated_medians():
    """A pass in which the kernel runs twice as slow counts as fast as the
    others, and an item slow in one pass of three does not count."""
    passes = []
    for slow, outlier in ((1, 0.0), (2, 0.0), (1, 0.4)):
        result = pipeline.PassResult()
        result.reference = [(at, calibration.NOMINAL_S * slow)
                            for at in range(20)]
        result.item_s["tune"] = {"a": 0.1 * slow + outlier, "b": 0.3 * slow}
        result.item_at["tune"] = {"a": 3.0, "b": 12.0}
        result.stage_s["tune"] = 0.5 * slow + outlier
        result.stage_at["tune"] = 8.0
        passes.append(result)
    assert abs(run.stage_seconds(passes, "tune") - 0.5) < 1e-9


def test_each_time_is_calibrated_by_the_kernel_runs_nearest_to_it():
    samples = [(at, 0.001 if at < 50 else 0.004) for at in range(100)]
    nominal = calibration.NOMINAL_S
    assert calibration.scale_at(samples, 10.0) == nominal / 0.001
    assert calibration.scale_at(samples, 80.5) == nominal / 0.004
    assert calibration.scale_at(samples, -1.0, nearest=3) == nominal / 0.001
    assert calibration.scale_at(samples[:2], 500.0) == nominal / 0.001
