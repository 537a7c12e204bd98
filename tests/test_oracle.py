import pytest

from amrtk.align import (
    AlignmentRecord, AlignmentSet, CandidateAlignment, Span,
    base_rule_set, enumerate_alignments, full_rule_set,
)
from amrtk.graph import parse_penman
from amrtk.oracle import (
    PruneError, StatsError, action_stats, oracle_run, prune_unaligned, tune,
)
from amrtk.resources import LemmaTable, MorphLinkTable, Resources
from amrtk.smatch import smatch_score
from amrtk.transition import apply, extract_graph, initial_state, is_terminal

FIGURE_TEXT = """
(f / freeze-01
    :ARG0 (c / country :name (n / name :op1 "North" :op2 "Korea"))
    :ARG1 (a / act-01 :poss c :mod (n2 / nucleus))
    :ARG2-of (e / exchange-01
        :ARG1 (r / reactor :quant 2 :mod (n3 / nucleus))))
"""
FIGURE_TOKENS = ("North Korea froze its nuclear actions in exchange for "
                 "two nuclear reactors .").split()


def figure_resources():
    lemmas = LemmaTable({
        "froze": {"freeze"},
        "actions": {"action"},
        "reactors": {"reactor"},
    })
    morph = MorphLinkTable({("action", "act")})
    return Resources(lemmas=lemmas, morph=morph)


def figure_alignments():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    return g, enumerate_alignments(g, FIGURE_TOKENS, full_rule_set(res),
                                   resources=res)


def candidate(graph, tokens, spans):
    choices = {}
    for head, span in spans.items():
        choices[head] = AlignmentRecord(Span(*span)) if span else None
    return CandidateAlignment(graph, tokens, choices)


def test_prune_identity_when_fully_aligned():
    g = parse_penman("(r / run-01 :ARG0 (b / boy))")
    cand = candidate(g, ["boy", "runs"], {"r": (1, 2), "b": (0, 1)})
    assert prune_unaligned(g, cand) is g


def test_prune_drops_unaligned_leaf():
    g = parse_penman("(r / run-01 :ARG0 (b / boy) :mod (q / quick))")
    cand = candidate(g, ["boy", "runs"],
                     {"r": (1, 2), "b": (0, 1), "q": None})
    pruned = prune_unaligned(g, cand)
    assert set(pruned.concepts) == {"r", "b"}
    assert len(pruned.relations) == 1


def test_prune_contracts_mid_chain():
    g = parse_penman("(a / aa :ARG0 (b / bb :ARG1 (c / cc)))")
    cand = candidate(g, ["x", "y"], {"a": (0, 1), "b": None, "c": (1, 2)})
    pruned = prune_unaligned(g, cand)
    assert set(pruned.concepts) == {"a", "c"}
    rel = pruned.relations[0]
    assert (rel.source, rel.target, rel.label) == ("a", "c", ":ARG0")


def test_prune_detaches_branchy_removed_node():
    g = parse_penman("(a / aa :ARG0 (b / bb :ARG1 (c / cc) :ARG2 (d / dd)))")
    cand = candidate(g, ["x", "y", "z"],
                     {"a": (0, 1), "b": None, "c": (1, 2), "d": (2, 3)})
    pruned = prune_unaligned(g, cand)
    # b has two kept children: no contraction, subtree detaches
    assert set(pruned.concepts) == {"a"}


def test_prune_unaligned_root_contracts_to_single_child():
    g = parse_penman("(a / aa :ARG0 (b / bb))")
    cand = candidate(g, ["x"], {"a": None, "b": (0, 1)})
    pruned = prune_unaligned(g, cand)
    assert pruned.root == "b"
    assert set(pruned.concepts) == {"b"}


def test_prune_unaligned_root_error_on_two_children():
    g = parse_penman("(a / aa :ARG0 (b / bb) :ARG1 (c / cc))")
    cand = candidate(g, ["x", "y"], {"a": None, "b": (0, 1), "c": (1, 2)})
    with pytest.raises(PruneError):
        prune_unaligned(g, cand)


def test_oracle_single_token():
    g = parse_penman("(s / sleep-01)")
    cand = candidate(g, ["sleep"], {"s": (0, 1)})
    run = oracle_run(["sleep"], g, cand)
    assert [str(a) for a in run.actions] == \
        ["CONFIRM(sleep-01)", "SHIFT", "REDUCE"]
    assert run.action_count == 3
    assert run.smatch_f1 == pytest.approx(1.0)


def test_oracle_merge_then_entity():
    g = parse_penman('(c / country :name (n / name :op1 "North" :op2 "Korea"))')
    tokens = ["North", "Korea"]
    cand = candidate(g, tokens, {"c": (0, 2), "n": (0, 2)})
    run = oracle_run(tokens, g, cand)
    assert str(run.actions[0]) == "MERGE"
    assert str(run.actions[1]) == "ENTITY(country)"
    assert run.smatch_f1 == pytest.approx(1.0)


def test_oracle_drop_unaligned_word():
    g = parse_penman("(s / sleep-01 :ARG0 (b / boy))")
    tokens = ["the", "boy", "sleeps", "."]
    cand = candidate(g, tokens, {"s": (2, 3), "b": (1, 2)})
    run = oracle_run(tokens, g, cand)
    assert str(run.actions[0]) == "DROP"
    assert str(run.actions[-1]) == "REDUCE"
    assert run.smatch_f1 == pytest.approx(1.0)


def test_oracle_confirm_picks_deepest():
    # two concepts stacked on one token: the deeper one is confirmed, the
    # shallower generated by New
    g = parse_penman("(p / person :ARG0-of (t / teach-01))")
    tokens = ["teacher"]
    cand = candidate(g, tokens, {"p": (0, 1), "t": (0, 1)})
    run = oracle_run(tokens, g, cand)
    assert str(run.actions[0]) == "CONFIRM(teach-01)"
    assert str(run.actions[1]) == "NEW(person)"
    assert run.smatch_f1 == pytest.approx(1.0)


def test_oracle_reentrancy():
    g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
    tokens = ["boy", "wants", "go"]
    cand = candidate(g, tokens, {"w": (1, 2), "b": (0, 1), "g": (2, 3)})
    run = oracle_run(tokens, g, cand)
    assert run.smatch_f1 == pytest.approx(1.0)


def test_oracle_non_projective_crossing_arcs():
    # arcs w1-w3 and w2-w4 cross; the deque lets both be built
    g = parse_penman("(a / aa :ARG0 (c / cc) :ARG1 (b / bb :ARG2 (d / dd)))")
    tokens = ["aa", "bb", "cc", "dd"]
    cand = candidate(g, tokens,
                     {"a": (0, 1), "b": (1, 2), "c": (2, 3), "d": (3, 4)})
    run = oracle_run(tokens, g, cand)
    assert run.smatch_f1 == pytest.approx(1.0)
    assert any(a.tag == "CACHE" for a in run.actions)


def test_oracle_figure_sentence_full_alignment():
    g, aset = figure_alignments()
    best, run = tune(FIGURE_TOKENS, g, aset)
    assert run.smatch_f1 == pytest.approx(1.0)
    # coherent alignment: first nuclear token to the act's modifier
    assert best.span_of("n2") == Span(4, 5)
    assert best.span_of("n3") == Span(10, 11)


def test_oracle_unaligned_concept_keeps_precision():
    g = parse_penman("(s / sleep-01 :ARG0 (b / boy) :mod (d / deep))")
    tokens = ["boy", "sleeps"]
    cand = candidate(g, tokens, {"s": (1, 2), "b": (0, 1), "d": None})
    run = oracle_run(tokens, g, cand)
    assert run.smatch_f1 < 1.0
    score = smatch_score(run.parsed, prune_unaligned(g, cand))
    assert score.f1 == pytest.approx(1.0)


def test_oracle_trace_replay_reproduces_graph():
    g, aset = figure_alignments()
    best, run = tune(FIGURE_TOKENS, g, aset)
    state = initial_state(FIGURE_TOKENS)
    for action in run.actions:
        state = apply(state, action)
    assert is_terminal(state)
    replayed = extract_graph(state)
    from amrtk.graph import serialize_penman
    assert serialize_penman(replayed) == serialize_penman(run.parsed)


def test_oracle_is_deterministic():
    g, aset = figure_alignments()
    first = oracle_run(FIGURE_TOKENS, g, aset[0])
    second = oracle_run(FIGURE_TOKENS, g, aset[0])
    assert first.actions == second.actions


def test_oracle_repeated_entities_reduce_on_empty_buffer():
    # most candidates stack both person/name pairs on one "Mary" span; the
    # run then ends with stacked concepts whose edges can no longer be built
    g = parse_penman("""
    (a / and
        :op1 (s / speak-01
            :ARG0 (p / person :name (n / name :op1 "Mary"))
            :ARG1 (l / language :name (n2 / name :op1 "French")))
        :op2 (s2 / speak-01
            :ARG0 (p2 / person :name (n3 / name :op1 "Mary"))
            :ARG1 (l2 / language :name (n4 / name :op1 "French"))))
    """)
    tokens = "Mary speaks French and Mary speaks French .".split()
    aset = enumerate_alignments(g, tokens, base_rule_set())
    for cand in aset:
        run = oracle_run(tokens, g, cand)
        assert run.actions[-1].tag == "REDUCE"
    best, run = tune(tokens, g, aset)
    assert run.smatch_f1 == pytest.approx(1.0)


def test_ledger_conservation():
    g, aset = figure_alignments()
    best, run = tune(FIGURE_TOKENS, g, aset)
    pruned = prune_unaligned(g, best)
    entity_internal = 3  # country->name, name->op1, name->op2
    arcs = sum(1 for a in run.actions if a.tag in ("LEFT", "RIGHT"))
    assert arcs == len(pruned.relations) - entity_internal


def test_tuner_prefers_fewer_actions_on_tie():
    g, aset = figure_alignments()
    runs = {}
    for cand in aset:
        s2, s3 = cand.span_of("n2"), cand.span_of("n3")
        if {s2, s3} == {Span(4, 5), Span(10, 11)}:
            runs[(s2.start, s3.start)] = oracle_run(FIGURE_TOKENS, g, cand)
    coherent = runs[(4, 10)]
    crossed = runs[(10, 4)]
    assert coherent.smatch_f1 == pytest.approx(1.0)
    assert crossed.smatch_f1 == pytest.approx(1.0)
    assert coherent.action_count < crossed.action_count
    cache = lambda run: sum(1 for a in run.actions if a.tag == "CACHE")
    assert cache(coherent) < cache(crossed)


def test_tuner_prefers_higher_f1():
    g = parse_penman("(s / sleep-01 :ARG0 (b / boy))")
    tokens = ["boy", "sleeps"]
    full = candidate(g, tokens, {"s": (1, 2), "b": (0, 1)})
    partial = candidate(g, tokens, {"s": (1, 2), "b": None})
    aset = AlignmentSet(g, tokens, [partial, full])
    best, run = tune(tokens, g, aset)
    assert best is full
    assert run.smatch_f1 == pytest.approx(1.0)


def test_tuner_result_invariant_to_candidate_order():
    g, aset = figure_alignments()
    forward = tune(FIGURE_TOKENS, g, aset)
    reversed_set = AlignmentSet(g, FIGURE_TOKENS, list(reversed(aset.candidates)))
    backward = tune(FIGURE_TOKENS, g, reversed_set)
    assert forward[1].smatch_f1 == backward[1].smatch_f1
    assert forward[1].action_count == backward[1].action_count


def test_tuner_singleton():
    g = parse_penman("(s / sleep-01)")
    cand = candidate(g, ["sleep"], {"s": (0, 1)})
    aset = AlignmentSet(g, ["sleep"], [cand])
    best, run = tune(["sleep"], g, aset)
    assert best is cand


def test_tuner_prune_error_scores_zero():
    g = parse_penman("(a / aa :ARG0 (b / bb) :ARG1 (c / cc))")
    tokens = ["bb", "cc"]
    bad = candidate(g, tokens, {"a": None, "b": (0, 1), "c": (1, 2)})
    good = candidate(g, tokens, {"a": None, "b": (0, 1), "c": None})
    aset = AlignmentSet(g, tokens, [bad, good])
    best, run = tune(tokens, g, aset)
    assert best is good
    assert run.smatch_f1 > 0.0


def test_action_stats():
    g = parse_penman("(s / sleep-01)")
    cand = candidate(g, ["sleep"], {"s": (0, 1)})
    run3 = oracle_run(["sleep"], g, cand)
    mean, histogram = action_stats([run3, run3])
    assert mean == 3.0
    assert histogram[0] == (2, 3.0)
    mean_single, _ = action_stats([run3])
    assert mean_single == run3.action_count
    with pytest.raises(StatsError):
        action_stats([])


def test_stats_mean_hand_summed():
    g = parse_penman("(s / sleep-01 :ARG0 (b / boy))")
    tokens = ["boy", "sleeps"]
    cand = candidate(g, tokens, {"s": (1, 2), "b": (0, 1)})
    run_a = oracle_run(tokens, g, cand)
    g2 = parse_penman("(s / sleep-01)")
    cand2 = candidate(g2, ["sleep"], {"s": (0, 1)})
    run_b = oracle_run(["sleep"], g2, cand2)
    mean, _ = action_stats([run_a, run_b])
    assert mean == pytest.approx((run_a.action_count + run_b.action_count) / 2)
