"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its runtime (run with `pytest -s tests/test_acceptance.py`
to see them)."""

import random
import time

import pytest

from amrtk.align import (
    MATCHING, UPDATING, AlignmentRecord, Rule, Span, base_rule_set,
    collect_records, enumerate_alignments, full_rule_set,
)
from amrtk.corpus import read_corpus
from amrtk.graph import parse_penman, serialize_penman
from amrtk.oracle import oracle_run, tune
from amrtk.parser import (
    Ensemble, TrainingExample, decode, encode, legal_action_names,
    score_actions, train,
)
from amrtk.resources import load_lemmas, load_morphosemantic, Resources
from amrtk.smatch import exhaustive_smatch, smatch_score
from amrtk.transition import apply, extract_graph, initial_state, is_terminal
from helpers import (
    brute_force_candidates, fixture, fixture_text, random_graph_pair,
)


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, "criterion %d exceeded %gs (%.2fs)" % (
        number, limit, elapsed)
    print("ACCEPTANCE %d (%s): PASS (%.2fs)" % (number, name, elapsed))


def fixture_resources():
    return Resources(
        morph=load_morphosemantic(fixture("resources", "morph.tsv")),
        lemmas=load_lemmas(fixture("resources", "lemmas.tsv")))


def fixture_graphs():
    docs = read_corpus(fixture_text("graphs.amr")) + \
        read_corpus(fixture_text("oracle_corpus.amr"))
    return [(doc.id, doc.graph) for doc in docs]


def tuned_oracle_corpus():
    resources = fixture_resources()
    rules = full_rule_set(resources)
    out = []
    for doc in read_corpus(fixture_text("oracle_corpus.amr")):
        aset = enumerate_alignments(doc.graph, doc.tokens, rules,
                                    resources=resources)
        best, run = tune(doc.tokens, doc.graph, aset)
        out.append((doc, best, run))
    return out


def test_criterion_1_penman_round_trip():
    started = time.perf_counter()
    graphs = fixture_graphs()
    assert len(graphs) >= 25
    assert any(gid == "s04" for gid, _ in graphs)  # the nuclear-freeze graph
    for gid, graph in graphs:
        reparsed = parse_penman(serialize_penman(graph))
        score = smatch_score(reparsed, graph, restarts=4, seed=1)
        assert score.f1 == 1.0, "round trip failed for %s" % gid
    report(1, "penman round-trip", started, 1.0)


def test_criterion_2_smatch_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240817)
    agree = 0
    total = 200
    for _ in range(total):
        a, b = random_graph_pair(rng, max_vars=5)
        hill = smatch_score(a, b, restarts=4, seed=13).f1
        exact = exhaustive_smatch(a, b).f1
        assert hill <= exact + 1e-12, "hill-climbing exceeded the exact score"
        if abs(hill - exact) <= 1e-9:
            agree += 1
    assert agree >= 0.95 * total, "only %d/%d pairs agreed" % (agree, total)
    report(2, "smatch hill-climbing vs exhaustive, %d/%d agree" % (agree, total),
           started, 30.0)


def test_criterion_3_oracle_completeness():
    started = time.perf_counter()
    corpus = tuned_oracle_corpus()
    assert len(corpus) >= 15
    for doc, best, run in corpus:
        assert run.smatch_f1 == pytest.approx(1.0), \
            "oracle failed to rebuild %s" % doc.id
        state = initial_state(doc.tokens)
        for action in run.actions:
            state = apply(state, action)
        assert is_terminal(state)
        assert serialize_penman(extract_graph(state)) == \
            serialize_penman(run.parsed), "replay diverged for %s" % doc.id
    report(3, "oracle completeness on %d pairs" % len(corpus), started, 5.0)


def test_criterion_4_algorithm_brute_force_equivalence():
    started = time.perf_counter()
    resources = fixture_resources()

    cases = []
    # synthetic rules with a trigger dependency
    g = parse_penman("(a / aaaa :ARG0 (b / bbbb :ARG1 (c / cccc)))")
    tokens = ["aaaa", "bbbb", "cccc"]
    rules = [
        Rule("ma", MATCHING, widths=lambda f, ctx: (1,),
             match=lambda f, s, ctx: f.head == "a" and s in (Span(0, 1), Span(1, 2))),
        Rule("mb", MATCHING, widths=lambda f, ctx: (1,),
             match=lambda f, s, ctx: f.head == "b" and s in (Span(1, 2), Span(2, 3))),
        Rule("u", UPDATING,
             triggers=lambda f, ctx: ["b"] if f.head == "c" else [],
             derive=lambda f, rec, ctx: [rec.span]),
    ]
    cases.append((g, tokens, rules, None))
    # real rule sets over small fixture pairs (at most 4 fragments)
    for text, toks in [
        ("(s / sleep-01 :ARG0 (b / boy))", ["the", "boy", "sleeps", "."]),
        ("(s / sleep-01 :polarity - :ARG0 (sh / she))",
         ["She", "does", "not", "sleep", "."]),
        ('(c / country :name (n / name :op1 "Russia"))',
         ["Russia", "exports", "oil"]),
    ]:
        cases.append((parse_penman(text), toks, full_rule_set(resources),
                      resources))

    for graph, tokens, rules, res in cases:
        records = collect_records(graph, tokens, rules, res)
        assert len(records) <= 4
        assert all(len(r) <= 3 for r in records.values())
        expected = {tuple(c.items()) for c in
                    brute_force_candidates(graph, tokens, rules, res)}
        got = [tuple(c.items()) for c in enumerate_alignments(
            graph, tokens, rules, limit=None, resources=res)]
        assert len(set(got)) == len(got)
        assert set(got) == expected
    report(4, "algorithm vs brute-force on %d fixtures" % len(cases),
           started, 5.0)


def test_criterion_5_tuner_prefers_coherent_nuclear_alignment():
    started = time.perf_counter()
    resources = fixture_resources()
    doc = next(d for d in read_corpus(fixture_text("oracle_corpus.amr"))
               if d.id == "s04")
    aset = enumerate_alignments(doc.graph, doc.tokens,
                                full_rule_set(resources), resources=resources)
    swap_runs = {}
    for cand in aset:
        spans = (cand["n2"], cand["n3"])
        if set(spans) == {Span(4, 5), Span(10, 11)}:
            swap_runs[spans] = (cand, oracle_run(doc.tokens, doc.graph, cand))
    coherent = swap_runs[(Span(4, 5), Span(10, 11))]
    crossed = swap_runs[(Span(10, 11), Span(4, 5))]
    assert coherent[1].smatch_f1 == pytest.approx(1.0)
    assert crossed[1].smatch_f1 == pytest.approx(1.0)
    assert coherent[1].action_count < crossed[1].action_count

    def cache_count(run):
        return sum(1 for a in run.actions if a.tag == "CACHE")

    assert cache_count(coherent[1]) < cache_count(crossed[1])
    best, best_run = tune(doc.tokens, doc.graph, aset)
    assert best["n2"] == Span(4, 5)
    assert best["n3"] == Span(10, 11)
    assert best_run.action_count == coherent[1].action_count
    report(5, "tuner picks the coherent nuclear alignment", started, 1.0)


def _train_fixture():
    resources = fixture_resources()
    rules = full_rule_set(resources)
    docs = read_corpus(fixture_text("train_corpus.amr"))
    assert len(docs) == 10
    examples = []
    targets = []
    for doc in docs:
        aset = enumerate_alignments(doc.graph, doc.tokens, rules,
                                    resources=resources)
        best, run = tune(doc.tokens, doc.graph, aset)
        examples.append(TrainingExample(tuple(doc.tokens), run.actions,
                                        tuple(doc.pos) if doc.pos else None))
        targets.append((doc, run.smatch_f1))
    return resources, examples, targets


def test_criterion_6_trainability():
    started = time.perf_counter()
    resources, examples, targets = _train_fixture()
    model = train(examples, epochs=30, seed=1, lemma_table=resources.lemmas)
    assert model.train_log[-1]["train_accuracy"] >= 0.99
    reached = 0
    for (doc, oracle_f1), example in zip(targets, examples):
        result = decode(model, example.tokens, pos=example.pos,
                        lemma_table=resources.lemmas)
        parsed_f1 = smatch_score(result.graph, doc.graph).f1
        if parsed_f1 >= oracle_f1 - 1e-9:
            reached += 1
    assert reached >= 9, "only %d/10 sentences reached oracle smatch" % reached
    report(6, "trainability, %d/10 at oracle smatch" % reached, started, 60.0)


def test_criterion_7_ensemble_properties():
    started = time.perf_counter()
    resources, examples, _ = _train_fixture()
    model = train(examples, epochs=15, seed=1, lemma_table=resources.lemmas)
    ensemble = Ensemble([model])
    pair = Ensemble([model, model])
    for example in examples:
        single = decode(model, example.tokens, pos=example.pos,
                        lemma_table=resources.lemmas)
        wrapped = decode(ensemble, example.tokens, pos=example.pos,
                         lemma_table=resources.lemmas)
        assert single.actions == wrapped.actions
        # walk the trace, checking the averaged distribution at each step
        state = initial_state(example.tokens)
        for action in wrapped.actions:
            legal = legal_action_names(pair, state)
            probs = score_actions(pair, encode(state, example.pos), legal)
            assert abs(sum(probs.values()) - 1.0) <= 1e-9
            assert all(p >= 0.0 for p in probs.values())
            state = apply(state, action)
    report(7, "ensemble identity and probability sums", started, 60.0)


def test_criterion_8_extended_rule_recall():
    started = time.perf_counter()
    resources = fixture_resources()

    example_graph = parse_penman("(e / exemplify-01 :ARG0 (t / they))")
    example_tokens = ["They", "set", "an", "example", "."]
    figure = next(d for d in read_corpus(fixture_text("oracle_corpus.amr"))
                  if d.id == "s04")

    # base rules alone miss both pairs the prefix-4 rule cannot reach
    base_example = collect_records(example_graph, example_tokens,
                                   base_rule_set(), resources)
    assert AlignmentRecord(Span(3, 4)) not in base_example["e"]
    base_figure = collect_records(figure.graph, figure.tokens,
                                  base_rule_set(), resources)
    assert AlignmentRecord(Span(5, 6)) not in base_figure["a"]

    # the extended rules recall them through the morphosemantic links
    ext_example = collect_records(example_graph, example_tokens,
                                  full_rule_set(resources), resources)
    assert AlignmentRecord(Span(3, 4)) in ext_example["e"]
    ext_figure = collect_records(figure.graph, figure.tokens,
                                 full_rule_set(resources), resources)
    assert AlignmentRecord(Span(5, 6)) in ext_figure["a"]
    report(8, "extended rules recall example/actions pairs", started, 5.0)
