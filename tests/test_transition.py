import pytest

from amrtk.smatch import smatch_score
from amrtk.transition import (
    CACHE, CONFIRM, DROP, ENTITY, LEFT, MERGE, NEW, REDUCE, RIGHT, SHIFT,
    Action, StateError, TransitionError, apply, extract_graph,
    initial_state, is_terminal, legal_actions, new_arc, parse_action,
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
    with pytest.raises(TransitionError):
        Action(CONFIRM)           # missing label
    with pytest.raises(TransitionError):
        Action(SHIFT, "x")        # spurious label
    with pytest.raises(TransitionError):
        Action("WIBBLE")


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
    assert s.concept_label(s.b0.node) == "sleep-01"
    assert s.b0.span == (0, 1)


def test_entity_builds_internal_fragment():
    s = initial_state(["North", "Korea"])
    s = run(s, Action(MERGE), Action(ENTITY, "country"))
    assert s.b0.is_concept()
    assert s.concept_label(s.b0.node) == "country"
    labels = dict(s.concepts)
    roles = [(labels[h], role, labels[d]) for h, role, d in s.arcs]
    assert ("country", ":name", "name") in roles
    assert ("name", ":op1", "North") in roles
    assert ("name", ":op2", "Korea") in roles


def test_entity_date():
    s = initial_state(["2002-01-05"])
    s = apply(s, Action(ENTITY, "date-entity"))
    labels = dict(s.concepts)
    roles = sorted((role, labels[d]) for _, role, d in s.arcs)
    assert roles == [(":day", "5"), (":month", "1"), (":year", "2002")]


def test_new_pushes_to_front():
    s = initial_state(["Koreans"])
    s = run(s, Action(CONFIRM, "country"), Action(NEW, "person"))
    assert len(s.beta) == 2
    assert s.concept_label(s.beta[0].node) == "person"
    assert s.concept_label(s.beta[1].node) == "country"
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
    assert new_arc(s, Action(LEFT, ":ARG0")) is None
    # a different label or direction is still fine
    apply(s, Action(LEFT, ":ARG1"))
    assert new_arc(s, Action(RIGHT, ":ARG0")) == (s.s0.node, ":ARG0", s.b0.node)


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


def test_extract_all_dropped():
    s = initial_state(["uh"])
    s = apply(s, Action(DROP))
    g = extract_graph(s)
    assert g.concept(g.root).label == "amr-empty"


def test_small_derivation_smatch():
    gold_actions = [Action(CONFIRM, "boy"), Action(SHIFT),
                    Action(CONFIRM, "run-01"), Action(LEFT, ":ARG0"),
                    Action(SHIFT), Action(REDUCE), Action(REDUCE)]
    s = run(initial_state(["boy", "runs"]), *gold_actions)
    assert is_terminal(s)
    g = extract_graph(s)
    from amrtk.graph import parse_penman
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
