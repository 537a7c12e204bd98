"""Trainable greedy transition parser.

States are featurized into sparse hashed vectors and scored by a linear
multiclass model (softmax over the legal actions); the model is trained
on oracle action traces.  An ensemble decodes with the per-step average
of its members' action distributions.
"""

import json
import math
import random
import zlib
from dataclasses import dataclass

from .graph import strip_sense
from .resources import LemmaTable
from . import transition
from .transition import (
    CONFIRM, LEFT, RIGHT, Action, apply, extract_graph,
    initial_state, is_terminal, legal_actions, parse_action,
)

MODEL_FORMAT = "amrtk-model"
MODEL_VERSION = 1

LEMMA_ACTION = "CONFIRM-LEMMA"

DEFAULT_HASH_DIM = 1 << 20
STEP_FACTOR = 20


class TrainingError(ValueError):
    pass


class DecodeError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingExample:
    tokens: tuple
    actions: tuple
    pos: tuple = None


@dataclass
class DecodeResult:
    graph: object
    actions: tuple
    warning: str = None


def encode_state(state, pos_tags=None):
    """Deterministic sparse feature strings for a state: identity of the
    stack top two, deque front, buffer front two, the last three actions
    and arc-count buckets."""
    sigma = state.sigma
    beta = state.beta

    def describe(item):
        if item is None:
            return None, None, None
        word = item.surface.lower()
        label = state.concept_label(item.node) if item.is_concept() else word
        tag = None
        if pos_tags is not None and item.span is not None \
                and item.span[0] < len(pos_tags):
            tag = pos_tags[item.span[0]]
        return label, word, tag

    slots = {
        "s0": sigma[-1] if sigma else None,
        "s1": sigma[-2] if len(sigma) > 1 else None,
        "d0": state.delta[0] if state.delta else None,
        "b0": beta[0] if beta else None,
        "b1": beta[1] if len(beta) > 1 else None,
        "b2": beta[2] if len(beta) > 2 else None,
    }
    feats = ["bias"]
    described = {}
    for name, item in slots.items():
        label, word, tag = describe(item)
        described[name] = label
        if label is None:
            feats.append("%s.none" % name)
            continue
        feats.append("%s.c=%s" % (name, label))
        feats.append("%s.w=%s" % (name, word))
        if tag is not None:
            feats.append("%s.t=%s" % (name, tag))
        if item.is_concept():
            incident = sum(1 for head, _, dep in state.arcs
                           if item.node in (head, dep))
            feats.append("%s.na=%d" % (name, min(incident, 3)))
    feats.append("s0b0.c=%s|%s" % (described["s0"], described["b0"]))
    feats.append("s0b1.c=%s|%s" % (described["s0"], described["b1"]))
    feats.append("d0b0.c=%s|%s" % (described["d0"], described["b0"]))
    history = state.history
    for back in (1, 2, 3):
        if len(history) >= back:
            feats.append("h%d=%s" % (back, history[-back].tag))
        else:
            feats.append("h%d=_" % back)
    if history:
        feats.append("h1f=%s" % str(history[-1]))
    if len(history) >= 2:
        feats.append("h12=%s|%s" % (history[-1].tag, history[-2].tag))
    feats.append("nsig=%d" % min(len(sigma), 5))
    feats.append("ndel=%d" % min(len(state.delta), 5))
    feats.append("nbet=%d" % min(len(beta), 5))
    return feats


def hash_features(feats, dim, seed):
    return [zlib.crc32(("%d|%s" % (seed, f)).encode("utf-8")) % dim
            for f in feats]


class ActionScorer:
    """Sparse linear multiclass model over an action vocabulary."""

    def __init__(self, actions, hash_dim=DEFAULT_HASH_DIM, hash_seed=1,
                 predicate_lemmas=(), lemma_fallback=True):
        self.actions = list(actions)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.vocabulary = parse_vocabulary(self.actions)
        self.hash_dim = hash_dim
        self.hash_seed = hash_seed
        self.weights = [dict() for _ in self.actions]
        self.bias = [0.0 for _ in self.actions]
        self.predicate_lemmas = set(predicate_lemmas)
        self.lemma_fallback = lemma_fallback
        self.train_log = []

    def encode(self, state, pos_tags=None):
        return hash_features(encode_state(state, pos_tags),
                             self.hash_dim, self.hash_seed)

    def logit(self, action_idx, encoding):
        weights = self.weights[action_idx]
        total = self.bias[action_idx]
        for feat in encoding:
            total += weights.get(feat, 0.0)
        return total


def _softmax(logits):
    peak = max(logits)
    exps = [math.exp(x - peak) for x in logits]
    total = sum(exps)
    return [x / total for x in exps]


def score_actions(model, encoding, legal):
    """Probability distribution over the legal actions (softmax with all
    illegal actions masked out)."""
    legal = list(legal)
    if not legal:
        raise DecodeError("no legal actions to score")
    logits = [model.logit(model.action_index[a], encoding) for a in legal]
    probs = _softmax(logits)
    return dict(zip(legal, probs))


class Ensemble:
    """Decodes with the average of the members' action distributions."""

    def __init__(self, members):
        if not members:
            raise DecodeError("ensemble needs at least one member")
        first = members[0]
        for member in members[1:]:
            if member.actions != first.actions:
                raise DecodeError("ensemble members must share an action vocabulary")
        self.members = list(members)

    @property
    def actions(self):
        return self.members[0].actions

    @property
    def vocabulary(self):
        return self.members[0].vocabulary

    @property
    def predicate_lemmas(self):
        return self.members[0].predicate_lemmas

    @property
    def lemma_fallback(self):
        return self.members[0].lemma_fallback


def averaged_scores(model, state, legal, pos_tags=None):
    members = model.members if isinstance(model, Ensemble) else [model]
    total = {a: 0.0 for a in legal}
    for member in members:
        encoding = member.encode(state, pos_tags)
        for action, prob in score_actions(member, encoding, legal).items():
            total[action] += prob
    n = len(members)
    return {a: p / n for a, p in total.items()}


def lemma_label(surface, lemma_table, predicate_lemmas):
    """The label CONFIRM-LEMMA materializes to: the sense-stripped lemma
    of the word, with `-01` appended when it was seen as a predicate."""
    word = surface.lower()
    lemmas = lemma_table.lemmas(word)
    others = sorted(lemmas - {word})
    lemma = others[0] if others else word
    if lemma in predicate_lemmas:
        return lemma + "-01"
    return lemma


def _collect_vocabulary(corpus, lemma_table, lemma_fallback):
    predicate_lemmas = set()
    for example in corpus:
        for action in example.actions:
            if action.tag == CONFIRM and strip_sense(action.label) != action.label:
                predicate_lemmas.add(strip_sense(action.label))
    vocab = set()
    rewritten = []
    for example in corpus:
        state = initial_state(example.tokens)
        gold_strings = []
        for action in example.actions:
            name = str(action)
            if lemma_fallback and action.tag == CONFIRM and \
                    state.b0 is not None and state.b0.is_word():
                expected = lemma_label(state.b0.surface, lemma_table,
                                       predicate_lemmas)
                if action.label == expected:
                    name = LEMMA_ACTION
            gold_strings.append(name)
            vocab.add(name)
            state = apply(state, action)
        rewritten.append(tuple(gold_strings))
    return sorted(vocab), rewritten, predicate_lemmas


_TAG_RANK = {tag: i for i, tag in enumerate(transition.ALL_TAGS)}


def parse_vocabulary(names):
    """name -> (action, tie-break key) for each vocabulary entry.

    CONFIRM-LEMMA has no fixed action (its label depends on the word) and
    sorts among the CONFIRM actions as if its label were `0-lemma`.  The
    key orders by the transition table's row order, then by label.
    """
    table = {}
    for name in names:
        if name == LEMMA_ACTION:
            table[name] = (None, (_TAG_RANK[CONFIRM], "0-lemma"))
        else:
            action = parse_action(name)
            table[name] = (action, (_TAG_RANK[action.tag], action.label or ""))
    return table


def legal_action_names(model, state):
    """Vocabulary entries whose tag pattern matches the state, with
    duplicate-arc label filtering for Left/Right."""
    tags = legal_actions(state)
    names = []
    for name in model.actions:
        action, _ = model.vocabulary[name]
        if action is None:
            if CONFIRM in tags:
                names.append(name)
            continue
        if action.tag not in tags:
            continue
        if action.tag in (LEFT, RIGHT):
            s0, b0 = state.s0, state.b0
            arc = (b0.node, action.label, s0.node) if action.tag == LEFT \
                else (s0.node, action.label, b0.node)
            if arc in state.arcs:
                continue
        names.append(name)
    return names


def materialize(model, name, state, lemma_table):
    action, _ = model.vocabulary[name]
    if action is None:
        return Action(CONFIRM, lemma_label(state.b0.surface, lemma_table,
                                           model.predicate_lemmas))
    return action


def train(corpus, epochs=30, learning_rate=0.5, seed=1, dev_fraction=0.0,
          hash_dim=DEFAULT_HASH_DIM, hash_seed=1, lemma_table=None,
          lemma_fallback=True, log=None):
    """Fit the linear scorer on oracle traces by SGD on the multiclass
    logistic objective; reports per-epoch action accuracy."""
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    lemma_table = lemma_table or LemmaTable()
    rng = random.Random(seed)

    vocab, gold_name_seqs, predicate_lemmas = _collect_vocabulary(
        corpus, lemma_table, lemma_fallback)
    model = ActionScorer(vocab, hash_dim=hash_dim, hash_seed=hash_seed,
                         predicate_lemmas=predicate_lemmas,
                         lemma_fallback=lemma_fallback)

    indices = list(range(len(corpus)))
    rng.shuffle(indices)
    n_dev = int(len(corpus) * dev_fraction)
    dev_idx = set(indices[:n_dev])

    def instances_of(example, gold_names):
        state = initial_state(example.tokens)
        out = []
        for action, gold_name in zip(example.actions, gold_names):
            encoding = model.encode(state, example.pos)
            legal = legal_action_names(model, state)
            if gold_name not in legal:
                raise TrainingError(
                    "gold action %s is illegal in its state" % gold_name)
            out.append((encoding, legal, gold_name))
            state = apply(state, action)
        return out

    train_instances = []
    dev_instances = []
    for i, (example, gold_names) in enumerate(zip(corpus, gold_name_seqs)):
        bucket = dev_instances if i in dev_idx else train_instances
        bucket.extend(instances_of(example, gold_names))
    if not train_instances:
        raise TrainingError("no training instances after the dev split")

    def accuracy(instances):
        if not instances:
            return 0.0
        hits = 0
        for encoding, legal, gold in instances:
            probs = score_actions(model, encoding, legal)
            predicted = max(legal, key=lambda a: (probs[a], a))
            hits += predicted == gold
        return hits / len(instances)

    for epoch in range(epochs):
        order = list(range(len(train_instances)))
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            encoding, legal, gold = train_instances[i]
            probs = score_actions(model, encoding, legal)
            total_loss -= math.log(max(probs[gold], 1e-300))
            for action in legal:
                idx = model.action_index[action]
                coef = learning_rate * ((action == gold) - probs[action])
                if coef == 0.0:
                    continue
                model.bias[idx] += coef
                weights = model.weights[idx]
                for feat in encoding:
                    weights[feat] = weights.get(feat, 0.0) + coef
        entry = {
            "epoch": epoch + 1,
            "loss": total_loss / len(train_instances),
            "train_accuracy": accuracy(train_instances),
        }
        if dev_instances:
            entry["dev_accuracy"] = accuracy(dev_instances)
        model.train_log.append(entry)
        if log is not None:
            log(entry)
    return model


def decode(model, tokens, pos=None, lemma_table=None):
    """Greedy decode to a terminal state; a step guard plus a drop/reduce
    drain guarantee a graph comes back even for a badly-scored model."""
    lemma_table = lemma_table or LemmaTable()
    state = initial_state(tokens)
    limit = STEP_FACTOR * len(tokens)
    warning = None
    steps = 0
    while not is_terminal(state):
        legal = legal_action_names(model, state)
        if not legal or steps >= limit:
            warning = "fallback drain after %d steps" % steps
            state = _drain(state)
            break
        probs = averaged_scores(model, state, legal, pos)
        # argmax with ties broken by the vocabulary's tie-break key
        best = min(legal, key=lambda a: (-probs[a],) + model.vocabulary[a][1])
        action = materialize(model, best, state, lemma_table)
        state = apply(state, action)
        steps += 1
    graph = extract_graph(state, force=True)
    if warning:
        graph.metadata["parse-warning"] = warning
    return DecodeResult(graph, state.history, warning)


def _drain(state):
    while not is_terminal(state):
        tags = legal_actions(state)
        if state.b0 is not None and state.b0.is_word():
            state = apply(state, Action(transition.DROP))
        elif transition.SHIFT in tags:
            state = apply(state, Action(transition.SHIFT))
        elif transition.REDUCE in tags:
            state = apply(state, Action(transition.REDUCE))
        else:
            break
    return state


def parse(model, tokens, pos=None, lemma_table=None):
    """Greedy parse of one sentence into its graph."""
    return decode(model, tokens, pos=pos, lemma_table=lemma_table).graph


def save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hash_dim": model.hash_dim,
        "hash_seed": model.hash_seed,
        "actions": model.actions,
        "bias": model.bias,
        "weights": [{str(k): v for k, v in w.items()} for w in model.weights],
        "predicate_lemmas": sorted(model.predicate_lemmas),
        "lemma_fallback": model.lemma_fallback,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("%s is not an amrtk model file" % path)
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            "unsupported model version %r" % payload.get("version"))
    model = ActionScorer(payload["actions"], hash_dim=payload["hash_dim"],
                         hash_seed=payload["hash_seed"],
                         predicate_lemmas=payload["predicate_lemmas"],
                         lemma_fallback=payload["lemma_fallback"])
    model.bias = [float(b) for b in payload["bias"]]
    model.weights = [{int(k): float(v) for k, v in w.items()}
                     for w in payload["weights"]]
    return model
