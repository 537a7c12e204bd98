import math

import pytest

import amrtk.parser
from amrtk.align import AlignmentRecord, CandidateAlignment, Span
from amrtk.graph import parse_penman, serialize_penman
from amrtk.oracle import oracle_run
from amrtk.parser import (
    ActionScorer, DecodeError, Ensemble, TrainingError, TrainingExample,
    averaged_scores, decode, encode_state, lemma_label, legal_action_names,
    load_model, parse, save_model, score_actions, train,
)
from amrtk.resources import LemmaTable
from amrtk.smatch import smatch_score
from amrtk.transition import Action, apply, initial_state


def make_example(text, tokens, spans, lemma_table=None):
    g = parse_penman(text)
    choices = {h: AlignmentRecord(Span(*span)) if span else None
               for h, span in spans.items()}
    cand = CandidateAlignment(g, tokens, choices)
    run = oracle_run(tokens, g, cand)
    assert run.smatch_f1 == pytest.approx(1.0)
    return g, TrainingExample(tuple(tokens), run.actions)


SENTENCES = [
    ("(s / sleep-01 :ARG0 (b / boy))", ["the", "boy", "sleeps"],
     {"s": (2, 3), "b": (1, 2)}),
    ("(r / run-01 :ARG0 (g / girl))", ["the", "girl", "runs"],
     {"r": (2, 3), "g": (1, 2)}),
    ("(b / bark-01 :ARG0 (d / dog))", ["the", "dog", "barks"],
     {"b": (2, 3), "d": (1, 2)}),
    ("(w / win-01 :ARG0 (t / team))", ["the", "team", "wins"],
     {"w": (2, 3), "t": (1, 2)}),
    ("(e / eat-01 :ARG0 (c / cat))", ["the", "cat", "eats"],
     {"e": (2, 3), "c": (1, 2)}),
]

LEMMAS = LemmaTable({
    "sleeps": {"sleep"}, "runs": {"run"}, "barks": {"bark"},
    "wins": {"win"}, "eats": {"eat"},
})


def tiny_corpus():
    graphs = []
    examples = []
    for text, tokens, spans in SENTENCES:
        g, example = make_example(text, tokens, spans)
        graphs.append(g)
        examples.append(example)
    return graphs, examples


def test_encode_state_mentions_buffer_word():
    s = initial_state(["a"])
    feats = encode_state(s)
    assert "b0.w=a" in feats
    assert "s0.none" in feats


def test_encode_state_deterministic():
    s = initial_state(["boy", "runs"])
    assert encode_state(s) == encode_state(s)


def test_encodings_differ_by_history():
    s = initial_state(["boy", "girl"])
    a = apply(s, Action("DROP"))
    b = apply(apply(s, Action("CONFIRM", "boy")), Action("SHIFT"))
    # same buffer front afterwards would still differ through history feats
    fa = set(encode_state(a))
    fb = set(encode_state(b))
    assert fa != fb
    assert any(f.startswith("h1=") for f in fa ^ fb) or \
        any(f.startswith("h1f=") for f in fa | fb)


def test_score_uniform_for_zero_weights():
    model = ActionScorer(["DROP", "SHIFT", "REDUCE", "CACHE"])
    enc = model.encode(initial_state(["x"]))
    probs = score_actions(model, enc, ["DROP", "SHIFT", "REDUCE", "CACHE"])
    for p in probs.values():
        assert p == pytest.approx(0.25)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_score_single_action():
    model = ActionScorer(["DROP"])
    enc = model.encode(initial_state(["x"]))
    assert score_actions(model, enc, ["DROP"])["DROP"] == pytest.approx(1.0)


def test_score_hand_set_logits():
    model = ActionScorer(["DROP", "SHIFT"])
    model.bias = [1.0, 0.0]
    enc = []
    probs = score_actions(model, enc, ["DROP", "SHIFT"])
    expected = math.e / (math.e + 1.0)
    assert probs["DROP"] == pytest.approx(expected, abs=1e-9)
    assert probs["SHIFT"] == pytest.approx(1.0 - expected, abs=1e-9)


def test_score_empty_legal_set():
    model = ActionScorer(["DROP"])
    with pytest.raises(DecodeError):
        score_actions(model, [], [])


def test_train_memorizes_single_sentence():
    g, example = make_example("(s / sleep-01 :ARG0 (b / boy))",
                              ["the", "boy", "sleeps"],
                              {"s": (2, 3), "b": (1, 2)})
    model = train([example], epochs=30, seed=1)
    assert model.train_log[-1]["train_accuracy"] == 1.0
    result = decode(model, example.tokens)
    assert result.actions == example.actions
    assert smatch_score(result.graph, g).f1 == pytest.approx(1.0)


def test_train_empty_corpus():
    with pytest.raises(TrainingError):
        train([])


def test_closed_vocabulary():
    _, examples = tiny_corpus()
    model = train(examples, epochs=5, seed=1, lemma_fallback=False)
    labels = {a for a in model.actions if a.startswith("CONFIRM(")}
    assert "CONFIRM(sleep-01)" in labels
    assert "CONFIRM(fly-01)" not in labels


def test_loss_non_increasing_small_lr():
    _, examples = tiny_corpus()
    model = train(examples, epochs=8, learning_rate=0.02, seed=3)
    losses = [entry["loss"] for entry in model.train_log]
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-9


def test_train_parse_roundtrip_corpus():
    graphs, examples = tiny_corpus()
    model = train(examples, epochs=30, seed=1, lemma_table=LEMMAS)
    for g, example in zip(graphs, examples):
        result = decode(model, example.tokens, lemma_table=LEMMAS)
        assert smatch_score(result.graph, g).f1 == pytest.approx(1.0)


def test_lemma_fallback_rewrite():
    _, examples = tiny_corpus()
    model = train(examples, epochs=20, seed=1, lemma_table=LEMMAS)
    assert "CONFIRM-LEMMA" in model.actions
    assert "sleep" in model.predicate_lemmas
    assert lemma_label("sleeps", LEMMAS, model.predicate_lemmas) == "sleep-01"
    assert lemma_label("boy", LEMMAS, model.predicate_lemmas) == "boy"


def test_dev_split_reported():
    _, examples = tiny_corpus()
    model = train(examples, epochs=3, seed=1, dev_fraction=0.2)
    assert "dev_accuracy" in model.train_log[-1]


def test_ensemble_identity():
    _, examples = tiny_corpus()
    model = train(examples, epochs=15, seed=1, lemma_table=LEMMAS)
    single = decode(model, examples[0].tokens, lemma_table=LEMMAS)
    combo = decode(Ensemble([model]), examples[0].tokens, lemma_table=LEMMAS)
    assert single.actions == combo.actions


def test_ensemble_same_model_twice():
    _, examples = tiny_corpus()
    model = train(examples, epochs=15, seed=1, lemma_table=LEMMAS)
    one = decode(Ensemble([model]), examples[0].tokens, lemma_table=LEMMAS)
    two = decode(Ensemble([model, model]), examples[0].tokens,
                 lemma_table=LEMMAS)
    assert one.actions == two.actions


def test_ensemble_requires_shared_vocabulary():
    model_a = ActionScorer(["DROP"])
    model_b = ActionScorer(["SHIFT"])
    with pytest.raises(DecodeError):
        Ensemble([model_a, model_b])


def test_ensemble_averaging_hand_computed():
    model_a = ActionScorer(["DROP", "SHIFT"])
    model_a.bias = [1.0, 0.0]
    model_b = ActionScorer(["DROP", "SHIFT"])
    model_b.bias = [0.0, 1.0]
    state = initial_state(["x"])
    merged = averaged_scores(Ensemble([model_a, model_b]), state,
                             ["DROP", "SHIFT"])
    pa = math.e / (math.e + 1.0)
    assert merged["DROP"] == pytest.approx((pa + (1 - pa)) / 2, abs=1e-9)
    assert sum(merged.values()) == pytest.approx(1.0, abs=1e-9)


def test_averaged_distribution_sums_to_one():
    _, examples = tiny_corpus()
    model = train(examples, epochs=5, seed=1)
    state = initial_state(examples[0].tokens)
    legal = legal_action_names(model, state)
    probs = averaged_scores(Ensemble([model, model]), state, legal)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_decoder_emits_only_legal_actions():
    _, examples = tiny_corpus()
    model = train(examples, epochs=10, seed=1, lemma_table=LEMMAS)
    from amrtk.transition import initial_state as init, legal_actions as legal_of
    result = decode(model, ["unseen", "words", "here"], lemma_table=LEMMAS)
    state = init(["unseen", "words", "here"])
    for action in result.actions:
        assert action.tag in legal_of(state)
        state = apply(state, action)


def test_untrained_model_still_returns_graph():
    model = ActionScorer(["DROP"])
    result = decode(model, ["a", "b"])
    assert result.graph is not None
    assert result.graph.concept(result.graph.root).label == "amr-empty"


def test_training_determinism():
    _, examples = tiny_corpus()
    model_a = train(examples, epochs=10, seed=7)
    model_b = train(examples, epochs=10, seed=7)
    assert model_a.bias == model_b.bias
    assert model_a.weights == model_b.weights


def test_argmax_invariant_to_constant_logit_shift():
    model = ActionScorer(["DROP", "SHIFT"])
    model.bias = [0.4, 0.1]
    shifted = ActionScorer(["DROP", "SHIFT"])
    shifted.bias = [10.4, 10.1]
    state = initial_state(["x"])
    a = averaged_scores(model, state, ["DROP", "SHIFT"])
    b = averaged_scores(shifted, state, ["DROP", "SHIFT"])
    assert max(a, key=a.get) == max(b, key=b.get)


def test_model_save_load_roundtrip(tmp_path):
    _, examples = tiny_corpus()
    model = train(examples, epochs=10, seed=1, lemma_table=LEMMAS)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.actions == model.actions
    assert loaded.bias == model.bias
    assert loaded.weights == model.weights
    first = decode(model, examples[0].tokens, lemma_table=LEMMAS)
    second = decode(loaded, examples[0].tokens, lemma_table=LEMMAS)
    assert first.actions == second.actions


def test_vocabulary_is_parsed_once(tmp_path, monkeypatch):
    _, examples = tiny_corpus()
    model = train(examples, epochs=15, seed=1, lemma_table=LEMMAS)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    expected = [decode(model, ex.tokens, lemma_table=LEMMAS) for ex in examples]

    def no_parsing(text):
        raise AssertionError("decode parsed the action name %r" % text)

    monkeypatch.setattr(amrtk.parser, "parse_action", no_parsing)
    for decoder in (model, loaded, Ensemble([model, loaded])):
        for example, want in zip(examples, expected):
            got = decode(decoder, example.tokens, lemma_table=LEMMAS)
            assert got.actions == want.actions
            assert serialize_penman(got.graph) == serialize_penman(want.graph)


def test_model_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "amrtk-model", "version": 99}')
    from amrtk.parser import ModelFormatError
    with pytest.raises(ModelFormatError):
        load_model(str(path))
