import contextlib
import io
import json
import math
import random
import struct
import tracemalloc
import warnings

import pytest

import amrtk.parser
from amrtk.align import Span
from amrtk.graph import parse_penman, serialize_penman
from amrtk.oracle import oracle_run
import helpers
from amrtk.cli import _read_training_corpus, main
from amrtk.parser import (
    ActionScorer, CompiledInstances, DecodeError, Ensemble, TrainingError,
    TrainingExample, best_action, decode, encode, encode_state,
    hash_features, lemma_label, legal_action_names, load_model, save_model,
    score_actions, train,
)
from amrtk.resources import LemmaTable, load_lemmas
from amrtk.smatch import smatch_score
from amrtk.transition import Action, TransitionError, apply, initial_state
from helpers import (
    ReferenceScorer, bench_module, fixture, looping_model, overflowing_model,
    reference_averaged_scores, reference_hash_features, reference_train,
)


def make_example(text, tokens, spans, lemma_table=None):
    g = parse_penman(text)
    choices = {h: Span(*span) if span else None
               for h, span in spans.items()}
    run = oracle_run(tokens, g, choices)
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
    enc = encode(initial_state(["x"]))
    probs = score_actions(model, enc, ["DROP", "SHIFT", "REDUCE", "CACHE"])
    for p in probs.values():
        assert p == pytest.approx(0.25)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_score_single_action():
    model = ActionScorer(["DROP"])
    enc = encode(initial_state(["x"]))
    assert score_actions(model, enc, ["DROP"])["DROP"] == pytest.approx(1.0)


def test_score_hand_set_logits():
    model = ActionScorer(["DROP", "SHIFT"])
    model.table[0] = [1.0, 0.0]
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


def test_duplicate_arc_is_not_a_legal_name():
    model = ActionScorer(["LEFT(:ARG0)", "LEFT(:ARG1)", "SHIFT"])
    state = initial_state(["boy", "runs"])
    for action in (Action("CONFIRM", "boy"), Action("SHIFT"),
                   Action("CONFIRM", "run-01")):
        state = apply(state, action)
    assert legal_action_names(model, state) == [
        "LEFT(:ARG0)", "LEFT(:ARG1)", "SHIFT"]
    state = apply(state, Action("LEFT", ":ARG0"))
    assert legal_action_names(model, state) == ["LEFT(:ARG1)", "SHIFT"]


def test_train_rejects_an_illegal_trace():
    _, examples = tiny_corpus()
    left = Action("LEFT", ":ARG0")
    bad = TrainingExample(("boy", "runs"), (
        Action("CONFIRM", "boy"), Action("SHIFT"), Action("CONFIRM", "run-01"),
        left, left))
    with pytest.raises(TransitionError):
        train(examples + [bad], epochs=1)


def test_closed_vocabulary():
    _, examples = tiny_corpus()
    model = train(examples, epochs=5, seed=1)
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


@pytest.mark.parametrize("fraction", [-0.5, -3, 1.0, float("nan")])
def test_dev_fraction_outside_unit_interval_rejected(fraction):
    _, examples = tiny_corpus()
    with pytest.raises(TrainingError):
        train(examples, epochs=1, seed=1, dev_fraction=fraction)


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


def test_ensemble_needs_a_member():
    with pytest.raises(DecodeError, match=r"^ensemble needs at least one member$"):
        Ensemble([])


def test_ensemble_requires_shared_vocabulary():
    model_a = ActionScorer(["DROP"])
    model_b = ActionScorer(["SHIFT"])
    with pytest.raises(DecodeError):
        Ensemble([model_a, model_b])


def test_ensemble_averaging_hand_computed():
    model_a = ActionScorer(["DROP", "SHIFT"])
    model_a.table[0] = [1.0, 0.0]
    model_b = ActionScorer(["DROP", "SHIFT"])
    model_b.table[0] = [0.0, 1.0]
    state = initial_state(["x"])
    merged = score_actions(Ensemble([model_a, model_b]), encode(state),
                           ["DROP", "SHIFT"])
    pa = math.e / (math.e + 1.0)
    assert merged["DROP"] == pytest.approx((pa + (1 - pa)) / 2, abs=1e-9)
    assert sum(merged.values()) == pytest.approx(1.0, abs=1e-9)


def test_averaged_distribution_sums_to_one():
    _, examples = tiny_corpus()
    model = train(examples, epochs=5, seed=1)
    state = initial_state(examples[0].tokens)
    legal = legal_action_names(model, state)
    probs = score_actions(Ensemble([model, model]), encode(state), legal)
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


@pytest.mark.parametrize("model, tokens, warning", [
    (ActionScorer(["SHIFT"]), ["the", "boy"], "fallback drain after 0 steps"),
    (looping_model(), ["a"], "fallback drain after 20 steps"),
], ids=["no-legal-action", "step-limit"])
def test_decode_drains_to_a_terminal_state(model, tokens, warning):
    result = decode(model, tokens)
    assert result.warning == warning
    assert parse_penman(serialize_penman(result.graph)) is not None


def test_training_determinism():
    _, examples = tiny_corpus()
    model_a = train(examples, epochs=10, seed=7)
    model_b = train(examples, epochs=10, seed=7)
    assert model_a.bias == model_b.bias
    assert model_a.weights == model_b.weights


def test_argmax_invariant_to_constant_logit_shift():
    model = ActionScorer(["DROP", "SHIFT"])
    model.table[0] = [0.4, 0.1]
    shifted = ActionScorer(["DROP", "SHIFT"])
    shifted.table[0] = [10.4, 10.1]
    state = initial_state(["x"])
    a = score_actions(model, encode(state), ["DROP", "SHIFT"])
    b = score_actions(shifted, encode(state), ["DROP", "SHIFT"])
    assert max(a, key=a.get) == max(b, key=b.get)


def test_all_nan_probabilities_pick_the_first_legal_name():
    model = ActionScorer(["SHIFT", "DROP", "REDUCE"])
    legal = ["SHIFT", "DROP", "REDUCE"]
    assert best_action(model, dict.fromkeys(legal, math.nan), legal) == \
        "SHIFT"


def test_an_exact_probability_tie_goes_to_the_lower_vocabulary_key():
    # the vocabulary's tie-break key puts DROP before SHIFT, whatever the
    # order of the legal names
    model = ActionScorer(["SHIFT", "DROP", "REDUCE"])
    legal = ["SHIFT", "DROP", "REDUCE"]
    probs = {"SHIFT": .5, "DROP": .5, "REDUCE": 0}
    assert best_action(model, probs, legal) == "DROP"
    probs = {"SHIFT": .5, "DROP": .5 - 1e-12, "REDUCE": 0}
    assert best_action(model, probs, legal) == "SHIFT"


def test_overflowed_logits_decode_the_first_legal_name_at_each_step():
    # bias plus the `bias` feature's row overflow every logit to inf, so
    # every probability is NaN, each step takes the first legal name and
    # the warning counts those steps
    with pytest.warns(RuntimeWarning):
        result = decode(overflowing_model(), ["boy", "runs"])
    assert [str(a) for a in result.actions] == ["DROP", "DROP"]
    assert result.warning == "no score was a number at 2 of 2 steps"
    assert result.graph.concept(result.graph.root).label == "amr-empty"


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


def test_a_weight_brought_back_to_zero_is_no_weight(tmp_path):
    # a model's sparse weights are the nonzero cells of its table
    model = ActionScorer(["DROP", "SHIFT"], features=[7, 9])
    model.update([7, 9], [0, 1], [0.5, 0.25])
    model.update([7], [0], [-0.5])
    assert model.weights == [{9: 0.5}, {7: 0.25, 9: 0.25}]
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert json.loads(path.read_text())["weights"] == [
        {"9": 0.5}, {"7": 0.25, "9": 0.25}]
    loaded = load_model(str(path))
    assert loaded.weights == model.weights
    for encoding in ([7, 9], [7], [9, 9], [3], []):
        assert score_actions(loaded, encoding, ["DROP", "SHIFT"]) == \
            score_actions(model, encoding, ["DROP", "SHIFT"])


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


def test_train_replays_each_trace_once(monkeypatch):
    _, examples = tiny_corpus()
    calls = []
    original = amrtk.parser.apply

    def counted(state, action):
        calls.append(action)
        return original(state, action)

    monkeypatch.setattr(amrtk.parser, "apply", counted)
    train(examples, epochs=2, seed=1, dev_fraction=0.2)
    assert calls == [a for example in examples for a in example.actions]


def test_ensemble_encodes_each_state_once(monkeypatch):
    _, examples = tiny_corpus()
    model_a = train(examples, epochs=10, seed=1, lemma_table=LEMMAS)
    model_b = train(examples, epochs=10, seed=2, lemma_table=LEMMAS)
    calls = []
    original = amrtk.parser.encode_state

    def counted(state, pos_tags=None):
        calls.append(state)
        return original(state, pos_tags)

    monkeypatch.setattr(amrtk.parser, "encode_state", counted)
    result = decode(Ensemble([model_a, model_b]), examples[0].tokens,
                    lemma_table=LEMMAS)
    # one encoding per state an action was chosen in, not one per member
    assert result.warning is None
    assert len(calls) == len(result.actions)


def bits(probs):
    """(name, the bytes of its probability) of each scored name, in order"""
    return [(name, struct.pack(">d", p)) for name, p in probs.items()]


def random_scorer(rng, actions, features):
    """A model with a row of each feature, its cells random and one in
    four left zero"""
    model = ActionScorer(actions, features=features)
    model.table[:model.zero_row] = [
        [rng.gauss(0.0, 3.0) if rng.random() < 0.75 else 0.0
         for _ in actions] for _ in range(model.zero_row)]
    return model


def test_stacked_scoring_matches_the_reference_bit_for_bit():
    rng = random.Random(11)
    actions = ["CONFIRM(c%d)" % i for i in range(8)]
    ids = rng.sample(range(amrtk.parser.HASH_DIM), 90)
    for _ in range(40):
        n_a, n_b = rng.randint(0, 30), rng.randint(0, 30)
        # the members' feature rows are disjoint
        a = random_scorer(rng, actions, ids[:n_a])
        b = random_scorer(rng, actions, ids[n_a:n_a + n_b])
        for model in (Ensemble([a, b]), Ensemble([a, b, b]), Ensemble([a]),
                      a):
            for _ in range(10):
                encoding = [rng.choice(ids)
                            for _ in range(rng.randint(0, 25))]
                legal = rng.sample(actions, rng.randint(1, len(actions)))
                assert bits(score_actions(model, encoding, legal)) == \
                    bits(reference_averaged_scores(model, encoding, legal))


def test_a_negative_zero_weight_scores_as_the_reference(tmp_path):
    # member b's +0.0 cell of feature 9 turns member a's -0.0 logit of DROP
    # into +0.0 in the stacked table; no probability changes
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format": "amrtk-model", "version": 1,
        "hash_dim": amrtk.parser.HASH_DIM, "hash_seed": amrtk.parser.HASH_SEED,
        "actions": ["DROP", "SHIFT"], "bias": [-0.0, 0.5],
        "weights": [{"7": -0.0}, {"7": 1.0}], "predicate_lemmas": []}))
    a = load_model(str(path))
    b = ActionScorer(["DROP", "SHIFT"], features=[9])
    b.table[b.rows[9]] = [0.0, 2.0]
    ensemble = Ensemble([a, b])
    encoding = [7, 9]
    assert math.copysign(1.0, a.logits(encoding, [0])[0]) == -1.0
    assert math.copysign(1.0, ensemble.logits(encoding, [0])[0]) == 1.0
    for legal in (["DROP"], ["DROP", "SHIFT"], ["SHIFT", "DROP"]):
        for model in (ensemble, Ensemble([b, a]), Ensemble([a]), a):
            assert bits(score_actions(model, encoding, legal)) == \
                bits(reference_averaged_scores(model, encoding, legal))


def test_an_overflowing_member_decodes_as_the_reference(monkeypatch):
    # every logit of the overflowing member is inf, so every averaged
    # probability is NaN and each step takes the first legal name
    overflowing = overflowing_model()
    other = random_scorer(random.Random(2), overflowing.actions,
                          overflowing.rows)
    tokens = ["boy", "runs"]
    for ensemble in (Ensemble([other, overflowing]), Ensemble([overflowing])):
        legal = legal_action_names(ensemble, initial_state(tokens))
        encoding = encode(initial_state(tokens))
        with pytest.warns(RuntimeWarning):
            probs = score_actions(ensemble, encoding, legal)
        with pytest.warns(RuntimeWarning):
            want = reference_averaged_scores(ensemble, encoding, legal)
        assert all(math.isnan(p) for p in probs.values())
        assert bits(probs) == bits(want)
        with pytest.warns(RuntimeWarning):
            result = decode(ensemble, tokens)
        with monkeypatch.context() as patched:
            patched.setattr(amrtk.parser, "score_actions",
                            reference_averaged_scores)
            with pytest.warns(RuntimeWarning):
                reference = decode(ensemble, tokens)
        assert result.actions == reference.actions
        assert result.warning == reference.warning == \
            "no score was a number at 2 of 2 steps"


def test_hash_features_matches_the_reference():
    rng = random.Random(3)
    alphabets = ["abcxyz019=.|-_ ", "éüßñçø", "中文字のカ", "\U0001F600"
                 "\U0001D518\U00010348\U000E0041"]
    feats = ["", "bias"]
    for _ in range(400):
        alphabet = rng.choice(alphabets)
        feats.append("".join(rng.choice(alphabet)
                             for _ in range(rng.randint(1, 12))))
    # any code point but a surrogate, which has no UTF-8 form
    feats += ["b0.w=" + "".join(chr(rng.choice([
        rng.randrange(0xD800), rng.randrange(0xE000, 0x110000)]))
        for _ in range(rng.randint(1, 6))) for _ in range(200)]
    assert hash_features(feats) == reference_hash_features(feats)


def test_model_file_hash_ids_are_pinned():
    # the weight keys of every saved model are these ids: another hash
    # would read every model file's weights as other features'
    assert hash_features(["bias", "s0.c=want-01", "b0.w=café",
                          "b0.w=\U0001F600"]) == [
        380194, 386571, 677813, 250798]


def test_table_matches_reference_scorer_bit_for_bit():
    rng = random.Random(5)
    n_actions = 12
    seen = rng.sample(range(amrtk.parser.HASH_DIM), 60)
    unseen = [f for f in rng.sample(range(amrtk.parser.HASH_DIM), 80)
              if f not in seen][:20]
    model = ActionScorer(["CONFIRM(c%d)" % i for i in range(n_actions)],
                         features=seen)
    reference = ReferenceScorer(n_actions)
    for _ in range(300):
        encoding = [rng.choice(seen) for _ in range(rng.randint(0, 40))]
        columns = rng.sample(range(n_actions), rng.randint(1, n_actions))
        coefs = [rng.gauss(0.0, 1.0) for _ in columns]
        model.update(encoding, columns, coefs)
        reference.update(encoding, columns, coefs)
    assert model.bias == reference.bias
    assert model.weights == reference.weights
    pairwise_differs = 0
    for case in range(300):
        encoding = [rng.choice(seen + unseen) for _ in range(rng.randint(0, 40))]
        # every tenth case scores one action, a contiguous column that
        # numpy's `sum` adds pairwise
        columns = rng.sample(range(n_actions),
                             1 if case % 10 == 0 else rng.randint(1, n_actions))
        want = [reference.logit(col, encoding) for col in columns]
        assert model.logits(encoding, columns) == want
        rows = [0] + [model.rows[f] for f in encoding if f in model.rows]
        block = model.table[rows][:, columns]
        pairwise_differs += block.sum(axis=0).tolist() != want
    # the inputs include sums that an unordered `sum` gets wrong
    assert pairwise_differs > 0


def test_repeated_feature_counts_twice():
    model = ActionScorer(["DROP", "SHIFT"], features=[7, 9])
    reference = ReferenceScorer(2)
    encoding = [7, 9, 7]
    for scorer in (model, reference):
        scorer.update(encoding, [1], [0.5])
    assert model.weights == reference.weights == [{}, {7: 1.0, 9: 0.5}]
    assert model.bias == reference.bias == [0.0, 0.5]
    assert model.logits(encoding, [0, 1]) == [0.0, 3.0] == [
        reference.logit(col, encoding) for col in (0, 1)]


def test_unseen_feature_scores_zero(tmp_path, monkeypatch):
    _, examples = tiny_corpus()
    # the dev split holds out a sentence whose words training never sees
    checked = []
    original = amrtk.parser.score_actions

    def against_reference(model, encoding, legal):
        probs = original(model, encoding, legal)
        if any(f not in model.rows for f in encoding):
            reference = ReferenceScorer(len(model.actions))
            reference.bias, reference.weights = model.bias, model.weights
            logits = [reference.logit(model.action_index[a], encoding)
                      for a in legal]
            assert probs == dict(zip(legal, amrtk.parser._softmax(logits)))
            checked.append(encoding)
        return probs

    monkeypatch.setattr(amrtk.parser, "score_actions", against_reference)
    monkeypatch.setattr(helpers, "score_actions", against_reference)
    model = train(examples, epochs=3, seed=1, dev_fraction=0.2,
                  lemma_table=LEMMAS)
    # the reference trainer scores each dev instance through
    # `score_actions`; the compiled one logs the same dev accuracy
    reference = reference_train(examples, epochs=3, seed=1, dev_fraction=0.2,
                                lemma_table=LEMMAS)
    in_dev_pass = len(checked)
    assert in_dev_pass > 0
    assert model.train_log == reference.train_log
    decode(model, ["a", "zebra", "sings"], lemma_table=LEMMAS)
    assert len(checked) > in_dev_pass
    unseen = {f for encoding in checked for f in encoding} - set(model.rows)
    assert unseen
    path = tmp_path / "model.json"
    save_model(model, str(path))
    keys = {int(k) for row in json.loads(path.read_text())["weights"]
            for k in row}
    assert keys and not keys & unseen


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_rejects_fewer_than_one_epoch(epochs):
    _, examples = tiny_corpus()
    with pytest.raises(TrainingError):
        train(examples, epochs=epochs, seed=1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -0.5])
def test_train_rejects_a_learning_rate_that_is_not_positive(rate):
    _, examples = tiny_corpus()
    with pytest.raises(TrainingError):
        train(examples, epochs=1, learning_rate=rate, seed=1)


def test_train_stops_at_an_epoch_whose_loss_is_not_finite():
    _, examples = tiny_corpus()
    logged = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingError, match="epoch 1 "):
            train(examples, epochs=3, learning_rate=1e308, seed=1,
                  log=logged.append)
    assert logged == []
    # the overflow shows as the error only, not as a numpy warning too
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def pipeline_traces(tmp_path_factory):
    """corpus -> the training examples of its `align`, `tune --seed 1` and
    `oracle --seed 1` traces; compose-short and compose-long are the
    benchmark's workloads at seed 1"""
    out = tmp_path_factory.mktemp("traces")
    resources = fixture("resources")
    examples = {}
    for corpus in ("train_corpus", "oracle_corpus", "compose-short",
                   "compose-long"):
        source = fixture(corpus + ".amr")
        if corpus.startswith("compose-"):
            source = str(out / (corpus + ".amr"))
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(bench_module("corpus_gen").generate(corpus, 1))
        aligned, tuned, traces = (str(out / (corpus + "." + step))
                                  for step in ("aligned", "tuned", "traces"))
        steps = [
            ["align", "-i", source, "-o", aligned,
             "--embeddings", resources + "/embeddings.txt",
             "--morph", resources + "/morph.tsv",
             "--lemmas", resources + "/lemmas.tsv"],
            ["tune", "-i", aligned, "-o", tuned, "--seed", "1",
             "--report", str(out / "report")],
            ["oracle", "-i", tuned, "-o", traces, "--seed", "1"],
        ]
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in steps:
                assert main(argv) == 0
        examples[corpus] = _read_training_corpus(traces)
    return examples


FIXTURE_LEMMAS = load_lemmas(fixture("resources", "lemmas.tsv"))


@pytest.fixture
def exact(monkeypatch):
    """The encodings that `score_actions` scores, in call order"""
    calls = []
    original = amrtk.parser.score_actions

    def counted(model, encoding, legal):
        calls.append(encoding)
        return original(model, encoding, legal)

    monkeypatch.setattr(amrtk.parser, "score_actions", counted)
    return calls


@pytest.mark.parametrize("dev_fraction", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("corpus", ["train_corpus", "oracle_corpus",
                                    "compose-short", "compose-long"])
def test_compiled_train_matches_reference(pipeline_traces, monkeypatch, exact,
                                          corpus, seed, dev_fraction):
    compiled = []

    class Recorded(CompiledInstances):
        def __init__(self, model, instances):
            super().__init__(model, instances)
            compiled.append(self)

    monkeypatch.setattr(amrtk.parser, "CompiledInstances", Recorded)
    examples = pipeline_traces[corpus]
    model = train(examples, epochs=10, seed=seed, dev_fraction=dev_fraction,
                  lemma_table=FIXTURE_LEMMAS)
    # no two legal logits of these models come near a tie, so the
    # accuracy passes never score an instance the exact way
    assert exact == []
    reference = reference_train(examples, epochs=10, seed=seed,
                                dev_fraction=dev_fraction,
                                lemma_table=FIXTURE_LEMMAS)
    assert model.bias == reference.bias
    assert model.weights == reference.weights
    assert model.train_log == reference.train_log
    _, dev_set = compiled
    if dev_fraction:
        # dev features without a row were scored through the zero row
        assert any(f not in model.rows
                   for encoding, _, _ in dev_set.instances for f in encoding)


def test_zero_coefficients_match_the_reference(pipeline_traces, monkeypatch):
    # at this learning rate some probabilities underflow to exactly 0.0:
    # their columns get a zero coefficient, which leaves their cells as
    # they are
    zeros = []
    original = amrtk.parser._softmax

    def softmax(logits):
        probs = original(logits)
        zeros.append(0.0 in probs)
        return probs

    examples = pipeline_traces["train_corpus"]
    monkeypatch.setattr(amrtk.parser, "_softmax", softmax)
    model = train(examples, epochs=10, learning_rate=20.0, seed=1,
                  lemma_table=FIXTURE_LEMMAS)
    monkeypatch.setattr(amrtk.parser, "_softmax", original)
    assert any(zeros)
    reference = reference_train(examples, epochs=10, learning_rate=20.0,
                                seed=1, lemma_table=FIXTURE_LEMMAS)
    assert model.bias == reference.bias
    assert model.weights == reference.weights
    assert model.train_log == reference.train_log


def test_steps_whose_rows_repeat_match_the_reference(pipeline_traces,
                                                    monkeypatch):
    # folded into 7 ids, the 16 or more features of every encoding name some
    # row more than once, so each step adds through `add_at`
    compiled = []

    class Recorded(CompiledInstances):
        def __init__(self, model, instances):
            super().__init__(model, instances)
            compiled.append(self)

    original = amrtk.parser.hash_features
    monkeypatch.setattr(amrtk.parser, "hash_features",
                        lambda feats: [i % 7 for i in original(feats)])
    monkeypatch.setattr(amrtk.parser, "CompiledInstances", Recorded)
    examples = pipeline_traces["train_corpus"]
    model = train(examples, epochs=5, seed=1, lemma_table=FIXTURE_LEMMAS)
    reference = reference_train(examples, epochs=5, seed=1,
                                lemma_table=FIXTURE_LEMMAS)
    assert model.bias == reference.bias
    assert model.weights == reference.weights
    assert model.train_log == reference.train_log
    train_set, _ = compiled
    assert any(step[3] for step in train_set.steps if step is not None)


def test_steps_of_one_legal_action_change_nothing(exact):
    # DROP is the only action of the vocabulary, so every step has one
    # legal action and is skipped
    drop = Action("DROP")
    examples = [TrainingExample(("x",), (drop,)),
                TrainingExample(("y", "z"), (drop, drop))]
    model = train(examples, epochs=3, seed=1)
    reference = reference_train(examples, epochs=3, seed=1)
    assert model.actions == reference.actions == ["DROP"]
    assert model.bias == reference.bias == [0.0]
    assert model.weights == reference.weights == [{}]
    assert model.train_log == reference.train_log == [
        {"epoch": e, "loss": 0.0, "train_accuracy": 1.0} for e in (1, 2, 3)]
    assert not model.table.any()
    # the accuracy passes count each such instance as a clear hit
    assert exact == []


def test_near_ties_are_scored_the_exact_way(exact):
    # the column order puts SHIFT first; the tie-break key puts DROP, then
    # CONFIRM, before it
    model = ActionScorer(["SHIFT", "DROP", "CONFIRM(boy)"], features=[3, 5])
    model.table[1, 2] = 1e-12      # feature 3, CONFIRM(boy)
    model.table[2, 1] = 2.0        # feature 5, DROP
    instances = [
        ([3], ["SHIFT", "DROP"], "DROP"),             # a tie: DROP wins
        ([9], ["SHIFT", "CONFIRM(boy)"], "SHIFT"),    # a tie; 9 has no row
        ([3], ["DROP", "CONFIRM(boy)"], "CONFIRM(boy)"),  # 1e-12 apart
        ([5], ["SHIFT", "DROP"], "DROP"),             # clear
        ([5, 9], ["SHIFT", "DROP"], "SHIFT"),         # clear
    ]
    accuracy = CompiledInstances(model, instances).accuracy(model)
    assert exact == [[3], [9], [3]]
    hits = [best_action(model, score_actions(model, encoding, legal), legal)
            == gold
            for encoding, legal, gold in instances]
    assert hits == [True, False, True, True, False]
    assert accuracy == sum(hits) / len(hits)


def test_a_tiny_learning_rate_logs_the_exact_accuracy(exact):
    # after an epoch at this rate every pair of legal logits is a near tie
    _, examples = tiny_corpus()
    model = train(examples, epochs=3, learning_rate=1e-12, seed=1,
                  dev_fraction=0.2, lemma_table=LEMMAS)
    assert exact
    reference = reference_train(examples, epochs=3, learning_rate=1e-12,
                                seed=1, dev_fraction=0.2, lemma_table=LEMMAS)
    assert model.train_log == reference.train_log


def test_accuracy_pass_holds_no_block_of_rows(pipeline_traces):
    examples = pipeline_traces["compose-short"]
    reference_train(examples, epochs=1, seed=1, lemma_table=FIXTURE_LEMMAS)
    peaks = []
    for trainer in (reference_train, train):
        tracemalloc.start()
        try:
            trainer(examples, epochs=2, seed=1, lemma_table=FIXTURE_LEMMAS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a block of every instance's rows would take 831 instances x 27 rows
    # x 30 actions x 8 bytes, about 5.4 MB
    assert peaks[1] <= peaks[0] + (1 << 20)
