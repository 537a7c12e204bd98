"""Trainable greedy transition parser.

States are featurized into sparse vectors hashed into one fixed feature
space and scored by a linear multiclass model (softmax over the legal
actions) whose weights are one dense table over the features the model
has seen; the model is trained on oracle action traces.  An ensemble
decodes with the per-step average of its members' action distributions,
all scoring the same encoding of each state.
"""

import json
import math
import random
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .graph import strip_sense
from .resources import LemmaTable
from . import transition
from .transition import (
    CONFIRM, RELATION_ACTIONS, Action, TransitionError, apply,
    extract_graph, initial_state, is_terminal, legal_actions, new_arc,
    parse_action,
)

MODEL_FORMAT = "amrtk-model"
MODEL_VERSION = 1

LEMMA_ACTION = "CONFIRM-LEMMA"

# the feature space every model shares: features hash into HASH_DIM
# buckets, salted with HASH_SEED
HASH_DIM = 1 << 20
HASH_SEED = 1
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
        label = state.labels[item.node] if item.is_concept() else word
        tag = None
        if pos_tags is not None and item.span[0] < len(pos_tags):
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


def hash_features(feats):
    return [zlib.crc32(("%d|%s" % (HASH_SEED, f)).encode("utf-8")) % HASH_DIM
            for f in feats]


def encode(state, pos_tags=None):
    """The hashed feature indices of a state, the same for every model."""
    return hash_features(encode_state(state, pos_tags))


class ActionScorer:
    """Linear multiclass model over an action vocabulary, held as one dense
    table with a column per action.  Row 0 holds the biases; each hashed
    feature id the model knows has its own row (`rows`).  A feature id
    without a row weighs zero for every action.  One more row, `zero_row`,
    past the feature rows, stays zero: it pads the row-index blocks of the
    instances that `train` compiles.  `touched` marks the cells a training
    update or a model file wrote: they are the sparse weights a model file
    holds."""

    def __init__(self, actions, predicate_lemmas=(), features=()):
        self.actions = list(actions)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.vocabulary = parse_vocabulary(self.actions)
        self.predicate_lemmas = set(predicate_lemmas)
        self.train_log = []
        self.rows = {}
        for feat in features:
            self.rows.setdefault(feat, len(self.rows) + 1)
        self.zero_row = len(self.rows) + 1
        self.table = np.zeros((self.zero_row + 1, len(self.actions)))
        self.touched = np.zeros(self.table.shape, dtype=bool)

    @property
    def bias(self):
        return self.table[0].tolist()

    @property
    def weights(self):
        """{feature id: weight} of the touched cells, one dict per action
        (a copy: writing to it changes nothing)."""
        ids = np.array([0] + list(self.rows))
        views = []
        for col in range(len(self.actions)):
            rows = np.flatnonzero(self.touched[1:self.zero_row, col]) + 1
            views.append(dict(zip(ids[rows].tolist(),
                                  self.table[rows, col].tolist())))
        return views

    def logits(self, encoding, columns):
        """The bias plus the encoded features' weights of each action
        column, added one row at a time in encoding order.  `accumulate`
        keeps that order where `sum` may add pairwise, which would move
        the last bits of a logit and with them every trained model.  The
        instances `train` compiles hold their rows as flat cell offsets
        (`cell_logits`); its accuracy pass adds the same rows in the same
        order, and `zero_row` where an instance is shorter."""
        rows = self.rows
        block = self.table.take([0] + [rows[f] for f in encoding if f in rows],
                                axis=0).take(columns, axis=1)
        return np.add.accumulate(block, axis=0)[-1].tolist()

    def update(self, encoding, columns, coefs):
        """Add coefs[j] to the bias of action column columns[j] and to its
        weight of each encoded feature, once per time the feature is
        encoded.  Every encoded feature needs a row.  A compiled instance
        of `train` holds its rows as flat cell offsets already
        (`cells`)."""
        offsets = np.array([0] + [self.rows[f] for f in encoding])
        self.add_at(self.cells(offsets * len(self.actions), columns), coefs)

    @staticmethod
    def cells(offsets, columns):
        """The flat cell numbers of action columns `columns` in the table
        rows that start at cell `offsets`: one line per column"""
        return np.asarray(columns)[:, None] + offsets

    def cell_logits(self, cells):
        """`logits` from the `cells` of the bias row and the feature rows"""
        return np.add.accumulate(self.table.reshape(-1).take(cells),
                                 axis=1)[:, -1].tolist()

    def add_at(self, cells, coefs):
        """`update` of `cells`, coefs[j] to each cell of line j"""
        # one coefficient per cell: numpy 2.4's `ufunc.at` adds garbage
        # when it broadcasts the values over a 2-D index
        cells = cells.ravel()
        np.add.at(self.table.reshape(-1), cells,
                  np.array(coefs).repeat(len(cells) // len(coefs)))
        self.touched.reshape(-1)[cells] = True


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
    probs = _softmax(model.logits(
        encoding, [model.action_index[a] for a in legal]))
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


def averaged_scores(model, state, legal, pos_tags=None):
    members = model.members if isinstance(model, Ensemble) else [model]
    encoding = encode(state, pos_tags)
    total = {a: 0.0 for a in legal}
    for member in members:
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


def _replay(example, lemma_table, predicate_lemmas):
    """(encoding, state, gold name) for each gold action of a trace.  A
    CONFIRM whose label is the word's lemma label is named CONFIRM-LEMMA."""
    state = initial_state(example.tokens)
    steps = []
    for action in example.actions:
        successor = apply(state, action)  # raises on an illegal gold action
        name = str(action)
        if action.tag == CONFIRM and action.label == lemma_label(
                state.b0.surface, lemma_table, predicate_lemmas):
            name = LEMMA_ACTION
        steps.append((encode(state, example.pos), state, name))
        state = successor
    if not is_terminal(state):  # an empty trace, say
        raise TrainingError("trace of %r stops before a terminal state"
                            % " ".join(example.tokens))
    return steps


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
        if action.tag in RELATION_ACTIONS and new_arc(state, action) is None:
            continue
        names.append(name)
    return names


def best_action(model, probs, legal):
    """argmax with ties broken by the vocabulary's tie-break key"""
    return min(legal, key=lambda a: (-probs[a],) + model.vocabulary[a][1])


def materialize(model, name, state, lemma_table):
    action, _ = model.vocabulary[name]
    if action is None:
        return Action(CONFIRM, lemma_label(state.b0.surface, lemma_table,
                                           model.predicate_lemmas))
    return action


def train(corpus, epochs=30, learning_rate=0.5, seed=1, dev_fraction=0.0,
          lemma_table=None, log=None):
    """Fit the linear scorer on oracle traces by SGD on the multiclass
    logistic objective; reports per-epoch action accuracy.

    Each instance is compiled once, before the first epoch, into the table
    rows it adds and its legal action columns (`CompiledInstances`), so an
    SGD step gathers, accumulates and updates table cells by index and
    looks up no feature.  The accuracy passes score every instance of a
    split at once, its rows padded with the model's zero row.  Fewer than
    one epoch, a learning rate that is not a positive number, and an epoch
    whose loss is not a finite number raise `TrainingError`: the model
    would not load."""
    if not 0 <= dev_fraction < 1:
        raise TrainingError("dev fraction %r is outside [0, 1)" % dev_fraction)
    if epochs < 1:
        raise TrainingError("epochs must be at least 1, not %r" % epochs)
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise TrainingError(
            "learning rate %r is not a positive number" % learning_rate)
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    lemma_table = lemma_table or LemmaTable()
    rng = random.Random(seed)

    predicate_lemmas = {strip_sense(action.label)
                        for example in corpus for action in example.actions
                        if action.tag == CONFIRM
                        and strip_sense(action.label) != action.label}
    replays = [_replay(example, lemma_table, predicate_lemmas)
               for example in corpus]
    indices = list(range(len(corpus)))
    rng.shuffle(indices)
    n_dev = int(len(corpus) * dev_fraction)
    dev_idx = set(indices[:n_dev])
    # one table row for each feature the training instances encode
    model = ActionScorer(
        sorted({name for steps in replays for _, _, name in steps}),
        predicate_lemmas=predicate_lemmas,
        features=(feat for i, steps in enumerate(replays) if i not in dev_idx
                  for encoding, _, _ in steps for feat in encoding))

    train_instances = []
    dev_instances = []
    for i, steps in enumerate(replays):
        bucket = dev_instances if i in dev_idx else train_instances
        # `apply` and `legal_action_names` share one legality rule, so the
        # replay has already checked that each gold name is legal here
        for encoding, state, gold_name in steps:
            bucket.append((encoding, legal_action_names(model, state),
                           gold_name))
    del replays  # the states were kept only to find the legal names
    if not train_instances:
        raise TrainingError("no training instances after the dev split")
    train_set = CompiledInstances(model, train_instances)
    dev_set = CompiledInstances(model, dev_instances)

    for epoch in range(epochs):
        order = list(range(len(train_instances)))
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            offsets, columns, gold = train_set.steps[i]
            cells = model.cells(offsets, columns)
            probs = _softmax(model.cell_logits(cells))
            total_loss -= math.log(max(probs[gold], 1e-300))
            coefs = [learning_rate * ((j == gold) - prob)
                     for j, prob in enumerate(probs)]
            if 0.0 in coefs:
                kept = [j for j, coef in enumerate(coefs) if coef != 0.0]
                if not kept:
                    continue
                cells, coefs = cells[kept], [coefs[j] for j in kept]
            model.add_at(cells, coefs)
        if not math.isfinite(total_loss):
            raise TrainingError(
                "the loss of epoch %d is not a finite number; the learning "
                "rate %r is too large" % (epoch + 1, learning_rate))
        entry = {
            "epoch": epoch + 1,
            "loss": total_loss / len(train_instances),
            "train_accuracy": train_set.accuracy(model),
        }
        if dev_instances:
            entry["dev_accuracy"] = dev_set.accuracy(model)
        model.train_log.append(entry)
        if log is not None:
            log(entry)
    return model


# a top legal logit at most this far above the next one may tie with it in
# probability, so `CompiledInstances.accuracy` scores that instance the
# exact way
NEAR_TIE = 1e-9


class CompiledInstances:
    """Training instances (encoding, legal names, gold name) compiled
    against a model's table.

    Row i of `offsets` holds the flat cell offset of each table row that
    instance i adds: the bias row, then the row of each encoded feature in
    encoding order (`zero_row` for a feature without one), padded to the
    longest instance with the zero row.  `steps` holds, per instance, the
    unpadded part of its offsets (a view), its legal action columns and the
    position of the gold action among them."""

    def __init__(self, model, instances):
        self.instances = instances
        self.width = width = len(model.actions)
        length = 1 + max((len(enc) for enc, _, _ in instances), default=0)
        self.offsets = np.full((len(instances), length), model.zero_row)
        self.illegal = np.ones((len(instances), width), dtype=bool)
        spans = []
        for i, (encoding, legal, gold) in enumerate(instances):
            rows = [0] + [model.rows.get(f, model.zero_row) for f in encoding]
            columns = [model.action_index[a] for a in legal]
            self.offsets[i, :len(rows)] = rows
            self.illegal[i, columns] = False
            spans.append((len(rows), np.array(columns), legal.index(gold)))
        self.offsets *= width
        self.steps = [(offsets[:n], columns, gold) for offsets, (
            n, columns, gold) in zip(self.offsets, spans)]
        self.gold_columns = np.array(
            [model.action_index[gold] for _, _, gold in instances])

    def accuracy(self, model):
        """The share of instances whose best legal action under `model` is
        the gold one, as `score_actions` and `best_action` decide it.

        The logits of all instances are summed one row position at a time:
        the additions of `ActionScorer.logits` in the same order, and the
        zero row adds +0.0, which moves no argmax.  The best legal action
        is then the argmax, unless the next legal logit is within
        `NEAR_TIE` (or a logit is not finite): only then can a probability
        tie bring in the vocabulary's tie-break, and the instance is scored
        the exact way.  Gathering every instance's rows at once would hold
        a line of logits per row in memory."""
        if not self.instances:
            return 0.0
        table = model.table
        logits = table.take(self.offsets[:, 0] // self.width, axis=0)
        for offsets in self.offsets.T[1:]:
            logits += table.take(offsets // self.width, axis=0)
        logits[self.illegal] = -np.inf
        best = logits.argmax(axis=1)
        picked = np.arange(len(best))
        top = logits[picked, best]
        logits[picked, best] = -np.inf
        clear = (top - logits.max(axis=1) > NEAR_TIE) & np.isfinite(top)
        hits = int(np.count_nonzero(clear & (best == self.gold_columns)))
        for i in np.flatnonzero(~clear).tolist():
            encoding, legal, gold = self.instances[i]
            probs = score_actions(model, encoding, legal)
            hits += best_action(model, probs, legal) == gold
        return hits / len(self.instances)


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
        action = materialize(model, best_action(model, probs, legal), state,
                             lemma_table)
        state = apply(state, action)
        steps += 1
    return DecodeResult(extract_graph(state), state.history, warning)


def _drain(state):
    """Drop the buffer's words, shift its concepts, then empty the stack:
    a terminal state from any state."""
    while not is_terminal(state):
        if state.b0 is None:
            tag = transition.REDUCE
        elif state.b0.is_word():
            tag = transition.DROP
        else:
            tag = transition.SHIFT
        state = apply(state, Action(tag))
    return state


def save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hash_dim": HASH_DIM,
        "hash_seed": HASH_SEED,
        "actions": model.actions,
        "bias": model.bias,
        "weights": [{str(k): v for k, v in w.items()} for w in model.weights],
        "predicate_lemmas": sorted(model.predicate_lemmas),
        # the CONFIRM-LEMMA rewrite is always on; the key keeps the file
        # layout older readers expect
        "lemma_fallback": True,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise ModelFormatError("%s is not JSON: %s" % (path, err))
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("%s is not an amrtk model file" % path)
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            "unsupported model version %r" % payload.get("version"))
    space = (payload.get("hash_dim"), payload.get("hash_seed"))
    if space != (HASH_DIM, HASH_SEED):
        raise ModelFormatError(
            "model hashes features with dimension %r and seed %r; "
            "amrtk uses %d and %d" % (space + (HASH_DIM, HASH_SEED)))
    try:
        actions, bias, weights, lemmas = (payload[key] for key in (
            "actions", "bias", "weights", "predicate_lemmas"))
    except KeyError as err:
        raise ModelFormatError("%s lacks the key %s" % (path, err))
    if not (isinstance(actions, list) and isinstance(lemmas, list)
            and all(isinstance(name, str) for name in actions + lemmas)):
        raise ModelFormatError(
            "%s: actions and predicate_lemmas must be lists of strings" % path)
    if not (isinstance(bias, list) and isinstance(weights, list)) \
            or len(actions) != len(bias) or len(actions) != len(weights):
        raise ModelFormatError(
            "%s needs one bias and one weight row per action" % path)
    if not all(_is_weight(b) for b in bias):
        raise ModelFormatError("%s has a bias that is not a number" % path)
    rows = [_weight_row(row, path) for row in weights]
    try:
        model = ActionScorer(actions, predicate_lemmas=lemmas,
                             features=(feat for row in rows for feat in row))
    except TransitionError as err:  # an action name that does not parse
        raise ModelFormatError("%s: %s" % (path, err))
    model.table[0] = bias
    for col, row in enumerate(rows):
        cells = [model.rows[feat] for feat in row], col
        model.table[cells] = list(row.values())
        model.touched[cells] = True
    return model


_FEATURE_KEY = re.compile(r"0|[1-9][0-9]*")


def _is_weight(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _weight_row(row, path):
    """{feature id: weight} of one weight row of a model file"""
    if not isinstance(row, dict):
        raise ModelFormatError(
            "%s has a weight row that is not an object: %.40r" % (path, row))
    parsed = {}
    for key, value in row.items():
        if not _FEATURE_KEY.fullmatch(key) or int(key) >= HASH_DIM:
            raise ModelFormatError(
                "%s has a weight key that is not a feature id: %.40r"
                % (path, key))
        if not _is_weight(value):
            raise ModelFormatError(
                "%s has a weight that is not a number: %.40r" % (path, value))
        parsed[int(key)] = value
    return parsed
