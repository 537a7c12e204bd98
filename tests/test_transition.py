import itertools
import random
from types import SimpleNamespace

import pytest

from amrtk import transition
from amrtk.graph import parse_penman, serialize_penman
from amrtk.parser import _drain
from amrtk.smatch import smatch_score
from amrtk.transition import (
    BARE_ACTIONS, CACHE, CONFIRM, DROP, ENTITY, LEFT, MERGE, NEW, REDUCE,
    RELATION_ACTIONS, RIGHT, SHIFT, Action, ParserState, StackItem,
    StateError, TransitionError, apply, built_relations, extract_graph,
    initial_state, is_terminal, legal_actions, parse_action,
)
from helpers import (
    assert_apply_refuses_every_illegal_tag, reference_legal_actions,
)

FIGURE_TOKENS = ("North Korea froze its nuclear actions in exchange for "
                 "two nuclear reactors .").split()


def run(state, *actions):
    for action in actions:
        state = apply(state, action)
    return state


def test_initial_state():
    s = initial_state(["a"])
    assert len(s.beta) == 1
    assert not s.sigma and not s.delta and not s.arcs
    s = initial_state(FIGURE_TOKENS)
    assert len(s.beta) == 13
    assert [item.surface for item in s.beta] == FIGURE_TOKENS


def test_initial_state_empty_rejected():
    with pytest.raises(TransitionError):
        initial_state([])


def test_action_validation():
    with pytest.raises(TransitionError, match=r"^CONFIRM requires a label$"):
        Action(CONFIRM)
    with pytest.raises(TransitionError, match=r"^NEW requires a label$"):
        Action("NEW")
    with pytest.raises(TransitionError, match=r"^SHIFT takes no label$"):
        Action(SHIFT, "x")
    with pytest.raises(TransitionError, match=r"^DROP takes no label$"):
        Action("DROP", "x")
    with pytest.raises(TransitionError, match=r"^unknown action tag 'WIBBLE'$"):
        Action("WIBBLE")


@pytest.mark.parametrize("text", ["left(:ARG0)", "SHIFT(", ""])
def test_parse_action_refuses_text_that_is_no_action(text):
    with pytest.raises(TransitionError) as err:
        parse_action(text)
    assert str(err.value) == "cannot parse action %r" % text


def test_actions_are_values():
    left = Action(LEFT, ":ARG0")
    assert left == Action(LEFT, label=":ARG0")
    assert hash(left) == hash(Action(LEFT, ":ARG0"))
    assert left != Action(RIGHT, ":ARG0") and left != Action(LEFT, ":ARG1")
    assert len({left, Action(LEFT, ":ARG0"), Action(SHIFT)}) == 2
    assert (left.tag, left.label) == (LEFT, ":ARG0")
    assert Action(DROP).label is None
    assert transition.BARE[DROP] == Action(DROP)
    assert str(left) == "LEFT(:ARG0)"
    assert str(Action(CONFIRM, "boy")) == "CONFIRM(boy)"
    assert str(Action(REDUCE)) == "REDUCE"
    assert repr(left) == "Action(tag='LEFT', label=':ARG0')"


def test_action_round_trip():
    for text in ["DROP", "CONFIRM(freeze-01)", "LEFT(:ARG0)", "SHIFT"]:
        assert str(parse_action(text)) == text


def test_initial_legal_actions():
    s = initial_state(["North", "Korea"])
    assert legal_actions(s) == {DROP, MERGE, CONFIRM, ENTITY}
    s1 = initial_state(["word"])
    assert legal_actions(s1) == {DROP, CONFIRM, ENTITY}  # merge needs b1


def test_legal_actions_with_concepts():
    s = initial_state(["boy", "runs"])
    s = run(s, Action(CONFIRM, "boy"), Action(SHIFT), Action(CONFIRM, "run-01"))
    assert legal_actions(s) == {NEW, LEFT, RIGHT, CACHE, SHIFT, REDUCE}


def test_reduce_only_when_buffer_empty():
    s = initial_state(["boy"])
    s = run(s, Action(CONFIRM, "boy"), Action(SHIFT))
    assert legal_actions(s) == {REDUCE}
    s = apply(s, Action(REDUCE))
    assert is_terminal(s)
    assert legal_actions(s) == set()


def test_merge_concatenates():
    s = initial_state(["North", "Korea", "froze"])
    s = apply(s, Action(MERGE))
    assert s.b0.surface == "North_Korea"
    assert s.b0.span == (0, 2)
    assert len(s.beta) == 2


def test_confirm_derives_concept():
    s = initial_state(["sleep"])
    s = apply(s, Action(CONFIRM, "sleep-01"))
    assert s.b0.is_concept()
    assert s.labels[s.b0.node] == "sleep-01"
    assert s.b0.span == (0, 1)


def test_entity_builds_internal_fragment():
    s = initial_state(["North", "Korea"])
    s = run(s, Action(MERGE), Action(ENTITY, "country"))
    assert s.b0.is_concept()
    assert s.labels[s.b0.node] == "country"
    labels = s.labels
    roles = [(labels[h], role, labels[d]) for h, role, d in s.arcs]
    assert ("country", ":name", "name") in roles
    assert ("name", ":op1", "North") in roles
    assert ("name", ":op2", "Korea") in roles


def test_entity_date():
    s = initial_state(["2002-01-05"])
    s = apply(s, Action(ENTITY, "date-entity"))
    labels = s.labels
    roles = sorted((role, labels[d]) for _, role, d in s.arcs)
    assert roles == [(":day", "5"), (":month", "1"), (":year", "2002")]


def test_new_pushes_to_front():
    s = initial_state(["Koreans"])
    s = run(s, Action(CONFIRM, "country"), Action(NEW, "person"))
    assert len(s.beta) == 2
    assert s.labels[s.beta[0].node] == "person"
    assert s.labels[s.beta[1].node] == "country"
    # the new concept inherits the span of its trigger
    assert s.beta[0].span == s.beta[1].span


def test_left_right_arcs():
    s = initial_state(["boy", "runs"])
    s = run(s, Action(CONFIRM, "boy"), Action(SHIFT), Action(CONFIRM, "run-01"))
    left = apply(s, Action(LEFT, ":ARG0"))
    assert (left.b0.node, ":ARG0", left.s0.node) in left.arcs
    right = apply(s, Action(RIGHT, ":dummy"))
    assert (right.s0.node, ":dummy", right.b0.node) in right.arcs


def test_duplicate_arc_rejected():
    s = initial_state(["boy", "runs"])
    s = run(s, Action(CONFIRM, "boy"), Action(SHIFT), Action(CONFIRM, "run-01"),
            Action(LEFT, ":ARG0"))
    with pytest.raises(TransitionError):
        apply(s, Action(LEFT, ":ARG0"))
    assert built_relations(s) == {Action(LEFT, ":ARG0")}
    # a different label or direction is still fine
    apply(s, Action(LEFT, ":ARG1"))
    right = apply(s, Action(RIGHT, ":ARG0"))
    assert right.arcs[-1] == (s.s0.node, ":ARG0", s.b0.node)


def test_cache_then_shift_restores_stack_order():
    s = initial_state(["a", "b", "c", "d"])
    s = run(s, Action(CONFIRM, "aa"), Action(SHIFT),
            Action(CONFIRM, "bb"), Action(SHIFT),
            Action(CONFIRM, "cc"), Action(SHIFT),
            Action(CONFIRM, "dd"))
    order = [item.node for item in s.sigma]
    s = run(s, Action(CACHE), Action(CACHE))
    assert len(s.sigma) == 1 and len(s.delta) == 2
    s = apply(s, Action(SHIFT))
    assert [item.node for item in s.sigma[:3]] == order
    assert not s.delta


def test_illegal_action_raises():
    s = initial_state(["word"])
    with pytest.raises(TransitionError):
        apply(s, Action(SHIFT))  # b0 is a word
    with pytest.raises(TransitionError):
        apply(s, Action(CACHE))  # sigma empty
    with pytest.raises(TransitionError,
                       match=r"^action RIGHT\(:mod\) is illegal in state "
                             r"\(\|sigma\|=0, \|delta\|=0, \|beta\|=1\)$"):
        apply(s, Action(RIGHT, ":mod"))


def test_duplicate_arc_error_names_the_action():
    s = run(initial_state(["boy", "runs"]), Action(CONFIRM, "boy"),
            Action(SHIFT), Action(CONFIRM, "run-01"), Action(LEFT, ":ARG0"))
    with pytest.raises(TransitionError,
                       match=r"^LEFT\(:ARG0\) duplicates an arc of the state$"):
        apply(s, Action(LEFT, ":ARG0"))


WORD_ITEM = StackItem((0, 1), "w")
CONCEPT_ITEM = StackItem((0, 1), "c", 0)
ITEM_OF_KIND = {None: None, transition.WORD: WORD_ITEM,
                transition.CONCEPT: CONCEPT_ITEM}


def test_legal_table_matches_the_reference_rule_on_every_shape():
    table = transition._LEGAL_BY_SHAPE
    assert len(table) == 12
    for (b0, b1_word, has_s0), tags in table.items():
        assert isinstance(tags, frozenset)
        # the reference reads the shape's b0, b1 and s0 alone; a b1 that is
        # not a word is either absent or a concept
        for b1 in ([WORD_ITEM] if b1_word else [None, CONCEPT_ITEM]):
            shape = SimpleNamespace(b0=ITEM_OF_KIND[b0], b1=b1,
                                    s0=CONCEPT_ITEM if has_s0 else None)
            assert reference_legal_actions(shape) == tags


def test_legal_actions_returns_the_interned_set_of_the_state_shape():
    interned = {id(tags) for tags in transition._LEGAL_BY_SHAPE.values()}
    items = (WORD_ITEM, CONCEPT_ITEM)
    states = 0
    for n_beta in range(3):
        for beta in itertools.product(items, repeat=n_beta):
            for sigma in ((), (CONCEPT_ITEM,)):
                state = ParserState(sigma, (), beta, (), ("c",), ("w",))
                tags = legal_actions(state)
                assert id(tags) in interned
                assert tags == reference_legal_actions(state)
                assert_apply_refuses_every_illegal_tag(state)
                states += 1
    assert states == 14


def test_extract_single_concept():
    s = initial_state(["sleep"])
    s = run(s, Action(CONFIRM, "sleep-01"), Action(SHIFT), Action(REDUCE))
    g = extract_graph(s)
    assert len(g.concepts) == 1
    assert g.concept(g.root).label == "sleep-01"


def test_extract_requires_terminal():
    s = initial_state(["sleep"])
    with pytest.raises(StateError):
        extract_graph(s)


def test_extract_multi_root_repair():
    s = initial_state(["boy", "girl"])
    s = run(s, Action(CONFIRM, "boy"), Action(SHIFT),
            Action(CONFIRM, "girl"), Action(SHIFT),
            Action(REDUCE), Action(REDUCE))
    g = extract_graph(s)
    assert g.concept(g.root).label == "multi-sentence"
    assert len(g.outgoing(g.root)) == 2


def test_extract_roots_a_sourceless_cycle_beside_a_tree():
    # p and q point at each other, so only r is a source; the cycle is
    # rooted at its first concept, p
    actions = "CONFIRM(p) SHIFT CONFIRM(q) RIGHT(:ARG0) LEFT(:ARG1) SHIFT " \
              "CONFIRM(r) SHIFT REDUCE REDUCE REDUCE"
    s = run(initial_state(["a", "b", "c"]),
            *(parse_action(text) for text in actions.split()))
    assert is_terminal(s)
    g = extract_graph(s)
    assert [(r.source, r.label, r.target) for r in g.outgoing(g.root)] == [
        ("nroot", ":snt1", "n2"), ("nroot", ":snt2", "n0")]
    assert serialize_penman(g) == (
        "(c0 / multi-sentence\n"
        "    :snt1 (c1 / r)\n"
        "    :snt2 (c2 / p\n"
        "        :ARG0 (c3 / q\n"
        "            :ARG1 c2)))")


def test_extract_writes_a_literal_label_heading_arcs_as_a_variable():
    # `1` and `-` are literal labels, but here each heads an arc; no node
    # is a source, so n0 is the first root, but n4, which n0 does not
    # reach, reaches n0 and is the one root
    actions = "ENTITY(1) NEW(-) NEW(person) SHIFT RIGHT(:ARG1) LEFT(:ARG1) " \
              "REDUCE SHIFT RIGHT(:ARG0) REDUCE SHIFT REDUCE"
    s = run(initial_state(["North-Korea"]),
            *(parse_action(text) for text in actions.split()))
    assert is_terminal(s)
    g = extract_graph(s)
    text = serialize_penman(g)
    assert text == (
        "(c0 / -\n"
        "    :ARG1 (c1 / person\n"
        "        :ARG1 c0)\n"
        "    :ARG0 (c2 / 1\n"
        "        :name (c3 / name\n"
        "            :op1 \"North\"\n"
        "            :op2 \"Korea\")))")
    assert len(parse_penman(text).relations) == len(g.relations)


def test_serialize_quotes_a_variable_shaped_literal():
    s = run(initial_state(["y"]), Action(ENTITY, "date-entity"),
            Action(SHIFT), Action(REDUCE))
    text = serialize_penman(extract_graph(s))
    assert text == '(c0 / date-entity\n    :op1 "y")'
    assert parse_penman(text).concept("_lit0").label == "y"


def test_extract_all_dropped():
    s = initial_state(["uh"])
    s = apply(s, Action(DROP))
    g = extract_graph(s)
    assert g.concept(g.root).label == "amr-empty"


def test_extract_lone_literal_root_is_a_variable():
    # a graph of one concept has no parent to hang a literal off: its
    # concept is a variable, as its Penman text reads back
    s = run(initial_state(["not"]),
            Action(CONFIRM, "-"), Action(SHIFT), Action(REDUCE))
    g = extract_graph(s)
    assert g.var_ids() == [g.root]
    assert smatch_score(g, g).f1 == 1.0
    assert smatch_score(parse_penman(serialize_penman(g)), g).f1 == 1.0


def test_small_derivation_smatch():
    gold_actions = [Action(CONFIRM, "boy"), Action(SHIFT),
                    Action(CONFIRM, "run-01"), Action(LEFT, ":ARG0"),
                    Action(SHIFT), Action(REDUCE), Action(REDUCE)]
    s = run(initial_state(["boy", "runs"]), *gold_actions)
    assert is_terminal(s)
    g = extract_graph(s)
    gold = parse_penman("(r / run-01 :ARG0 (b / boy))")
    assert smatch_score(g, gold).f1 == pytest.approx(1.0)


def test_token_conservation():
    # Drop + Confirm + Entity + Merge count equals the sentence length
    actions = [Action(MERGE), Action(ENTITY, "country"), Action(SHIFT),
               Action(CONFIRM, "visit-01"), Action(LEFT, ":ARG0"),
               Action(SHIFT), Action(DROP), Action(REDUCE), Action(REDUCE)]
    tokens = ["North", "Korea", "visited", "."]
    s = run(initial_state(tokens), *actions)
    assert is_terminal(s)
    consumed = sum(1 for a in s.history
                   if a.tag in ("DROP", "CONFIRM", "ENTITY", "MERGE"))
    assert consumed == len(tokens)


def test_states_are_values():
    s = initial_state(["boy"])
    s2 = apply(s, Action(CONFIRM, "boy"))
    assert s.b0.is_word()          # original state unchanged
    assert s2.b0.is_concept()
    assert s.history == ()
    assert s2.history == (Action(CONFIRM, "boy"),)
    # equal by value: a second run of the same actions, and its items
    again = apply(initial_state(["boy"]), Action(CONFIRM, "boy"))
    assert again == s2 and hash(again) == hash(s2) and again is not s2
    assert s2 != apply(s, Action(CONFIRM, "lad"))
    assert s2.b0 == StackItem((0, 1), "boy", 0)
    assert s.b0 == StackItem((0, 1), "boy") and s.b0.node is None


WALK_WORDS = ("x", "y", "Korea", "North-Korea", "2002-01-05", "7")
WALK_LABELS = ("a", "b", "name", "date-entity", "person", "1", "-")
WALK_ROLES = (":ARG0", ":ARG1", ":mod")


def random_walk(rng, max_steps=30):
    """States of one seeded walk of legal actions, each with the action
    that led to it (None for the initial state)."""
    tokens = [rng.choice(WALK_WORDS) for _ in range(rng.randint(1, 6))]
    state = initial_state(tokens)
    walk = [(None, state)]
    while not is_terminal(state) and len(walk) <= max_steps:
        tag = rng.choice(sorted(legal_actions(state)))
        if tag in RELATION_ACTIONS:
            built = built_relations(state)
            roles = [role for role in WALK_ROLES
                     if Action(tag, role) not in built]
            if not roles:
                continue
            action = Action(tag, rng.choice(roles))
        elif tag in BARE_ACTIONS:
            action = Action(tag)
        else:
            action = Action(tag, rng.choice(WALK_LABELS))
        state = apply(state, action)
        walk.append((action, state))
    return walk


def test_random_walks_keep_the_state_invariants():
    rng = random.Random(11)
    steps = 0
    for _ in range(300):
        before = None
        for action, s in random_walk(rng):
            # sigma and delta hold only concepts
            assert all(item.is_concept() for item in s.sigma + s.delta)
            # each concept lives in one item, under its index in labels
            nodes = [item.node for item in s.sigma + s.delta + s.beta
                     if item.is_concept()]
            assert len(nodes) == len(set(nodes))
            assert all(0 <= node < len(s.labels) for node in nodes)
            if action is not None and action.tag in (CONFIRM, NEW, ENTITY):
                assert s.b0.node == len(before.labels)
                assert s.labels[s.b0.node] == action.label
                assert s.labels[:len(before.labels)] == before.labels
            # no arc joins a node to itself
            assert all(head != dep and 0 <= head < len(s.labels)
                       and 0 <= dep < len(s.labels) for head, _, dep in s.arcs)
            assert is_terminal(_drain(s))
            before = s
            steps += 1
        # the drained graph of the walk is written and read back whole
        graph = extract_graph(_drain(s))
        assert len(parse_penman(serialize_penman(graph)).relations) == \
            len(graph.relations)
    assert steps > 3000
