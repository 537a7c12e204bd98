import functools
import hashlib
import random

import pytest

import amrtk.oracle
import amrtk.transition
from amrtk.align import (
    AlignmentSet, CandidateAlignment, Span,
    base_rule_set, enumerate_alignments, full_rule_set,
)
from amrtk.corpus import read_corpus
from amrtk.graph import (
    LITERAL_KINDS, depth_to_root, parse_penman, serialize_penman,
)
from amrtk.oracle import (
    EdgeLedger, oracle_action, oracle_run, prune_unaligned, tune,
)
from amrtk.parser import ActionScorer
from amrtk.resources import (
    LemmaTable, MorphLinkTable, Resources, load_embeddings, load_lemmas,
    load_morphosemantic,
)
from amrtk.smatch import smatch_score
from amrtk.transition import (
    LEFT, RIGHT, apply, extract_graph, initial_state, is_terminal,
    legal_actions,
)
from helpers import (
    assert_apply_refuses_every_illegal_tag,
    assert_decode_step_matches_reference, bench_module, fixture, hard_corpus,
    reference_legal_actions, reference_tune,
)

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
    return CandidateAlignment(graph, tokens, {
        head: Span(*span) if span else None for head, span in spans.items()})


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


@pytest.mark.parametrize("text", [
    "(a / aa :ARG0 (b / bb :ARG1 (c / cc)) :ARG0 c)",
    "(a / aa :ARG0 (b / bb :ARG1 (c / cc)) :ARG0 (d / dd :ARG2 c))",
], ids=["edge-exists", "two-contractions"])
def test_prune_contracts_to_an_edge_once(text):
    # the contracted edge a -:ARG0-> c is kept once: beside the gold edge it
    # repeats, or beside the same contraction through another removed concept
    g = parse_penman(text)
    spans = {cid: None for cid in g.concepts}
    spans.update(a=(0, 1), c=(1, 2))
    pruned = prune_unaligned(g, candidate(g, ["x", "y"], spans))
    assert set(pruned.concepts) == {"a", "c"}
    assert [(r.source, r.target, r.label) for r in pruned.relations] == \
        [("a", "c", ":ARG0")]


def test_prune_detaches_branchy_removed_node():
    g = parse_penman("(a / aa :ARG0 (b / bb :ARG1 (c / cc) :ARG2 (d / dd)))")
    cand = candidate(g, ["x", "y", "z"],
                     {"a": (0, 1), "b": None, "c": (1, 2), "d": (2, 3)})
    pruned = prune_unaligned(g, cand)
    # b has two kept children: no contraction, its edges are dropped and
    # c and d become trees of a forest
    assert set(pruned.concepts) == {"a", "c", "d"}
    assert pruned.relations == ()
    assert pruned.root == "a"


def test_prune_unaligned_root_contracts_to_single_child():
    g = parse_penman("(a / aa :ARG0 (b / bb))")
    cand = candidate(g, ["x"], {"a": None, "b": (0, 1)})
    pruned = prune_unaligned(g, cand)
    assert pruned.root == "b"
    assert set(pruned.concepts) == {"b"}


def test_prune_unaligned_root_leaves_forest():
    g = parse_penman("(a / aa :ARG0 (b / bb :mod (d / dd)) :ARG1 (c / cc))")
    cand = candidate(g, ["x", "y", "z"],
                     {"a": None, "b": (0, 1), "c": (1, 2), "d": (2, 3)})
    pruned = prune_unaligned(g, cand)
    assert set(pruned.concepts) == {"b", "c", "d"}
    assert [(r.source, r.target) for r in pruned.relations] == [("b", "d")]
    # the forest is named by its first source
    assert pruned.root == "b"


def test_prune_forest_of_cycles_names_first_concept():
    # removing the root leaves a directed cycle, which has no source
    g = parse_penman("(r / rr :ARG0 (a / aa :ARG1 (b / bb :ARG2 a)))")
    cand = candidate(g, ["x", "y"], {"r": None, "a": (0, 1), "b": (1, 2)})
    pruned = prune_unaligned(g, cand)
    assert set(pruned.concepts) == {"a", "b"}
    assert pruned.root == "a"
    # the cycle is rebuilt as one tree
    run = oracle_run(["x", "y"], g, cand)
    assert run.trees == 1
    assert run.parsed.concept(run.parsed.root).label == "aa"


def test_a_kept_root_below_a_source_is_not_a_second_tree():
    # with x unaligned (two kept children, so not contracted) the pruned
    # graph is the chain z -> y -> r: one tree rooted at its source z,
    # though the kept gold root r still names it
    g = parse_penman("(r / rr :ARG0 (x / xx :ARG1 (y / yy :ARG2 r) "
                     ":ARG3 (z / zz :ARG4 y)))")
    tokens = ["rr", "yy", "zz"]
    cand = candidate(g, tokens,
                     {"r": (0, 1), "x": None, "y": (1, 2), "z": (2, 3)})
    pruned = prune_unaligned(g, cand)
    assert [(rel.source, rel.target) for rel in pruned.relations] == \
        [("y", "r"), ("z", "y")]
    assert pruned.root == "r"
    run = oracle_run(tokens, g, cand)
    assert run.trees == 1
    assert run.parsed.concept(run.parsed.root).label == "zz"


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


def nuclear_pair(drop=None):
    """The figure's coherent and crossed `nucleus` candidates, with the
    concept `drop` left unaligned in both."""
    g, aset = figure_alignments()
    pair = {}
    for cand in aset:
        s2, s3 = cand.span_of("n2"), cand.span_of("n3")
        if {s2, s3} == {Span(4, 5), Span(10, 11)}:
            choices = dict(cand.choices)
            if drop is not None:
                choices[drop] = None
            pair[s2.start, s3.start] = CandidateAlignment(g, FIGURE_TOKENS,
                                                          choices)
    return g, pair[4, 10], pair[10, 4]


def test_tuner_prefers_fewer_actions_on_tie():
    g, coherent, crossed = nuclear_pair()
    coherent_run = oracle_run(FIGURE_TOKENS, g, coherent)
    crossed_run = oracle_run(FIGURE_TOKENS, g, crossed)
    assert coherent_run.smatch_f1 == crossed_run.smatch_f1 == 1.0
    assert coherent_run.action_count < crossed_run.action_count
    cache = lambda run: sum(1 for a in run.actions if a.tag == "CACHE")
    assert cache(coherent_run) < cache(crossed_run)
    for order in ([coherent, crossed], [crossed, coherent]):
        best, run = tune(FIGURE_TOKENS, g,
                         AlignmentSet(g, FIGURE_TOKENS, order))
        assert best is coherent
        assert run.actions == coherent_run.actions


def test_a_read_run_lets_go_of_its_state_and_gold_graph():
    # `tune` keeps every winning run of a corpus, so a run whose score has
    # been read holds only its actions, tree count, graph and score
    g, coherent, _ = nuclear_pair()
    run = oracle_run(FIGURE_TOKENS, g, coherent)
    assert {"_state", "_gold"} <= set(vars(run))
    assert run.smatch_f1 == 1.0
    assert not {"_state", "_gold", "_smatch_args"} & set(vars(run))


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


def test_tuner_prefers_forest_to_single_tree():
    g = parse_penman("(a / aa :ARG0 (b / bb) :ARG1 (c / cc))")
    tokens = ["bb", "cc"]
    forest = candidate(g, tokens, {"a": None, "b": (0, 1), "c": (1, 2)})
    tree = candidate(g, tokens, {"a": None, "b": (0, 1), "c": None})
    aset = AlignmentSet(g, tokens, [tree, forest])
    best, run = tune(tokens, g, aset)
    assert best is forest
    assert run.trees == 2
    assert run.smatch_f1 > oracle_run(tokens, g, tree).smatch_f1 > 0.0


AND_TEXT = ("(a / and :op1 (s / sleep-01 :ARG0 (b / boy))"
            " :op2 (r / rest-01 :ARG0 (g / girl)))")
AND_TOKENS = "the boy sleeps , the girl rests .".split()


def test_oracle_rebuilds_forest_under_unaligned_root():
    # `and` has no token: the oracle rebuilds both conjuncts as a forest
    g = parse_penman(AND_TEXT)
    aset = enumerate_alignments(g, AND_TOKENS, base_rule_set())
    best, run = tune(AND_TOKENS, g, aset)
    assert best.span_of("a") is None
    assert run.trees == 2
    assert run.smatch_f1 > 0.0
    assert run.actions
    state = initial_state(AND_TOKENS)
    for action in run.actions:
        state = apply(state, action)
    assert is_terminal(state)
    assert serialize_penman(extract_graph(state)) == \
        serialize_penman(run.parsed)


BOY_CRIES = "(b / boy :ARG0-of (c / cry-01 :ARG0 b))"
TEACHER = "(p / person :ARG0-of (t / teach-01 :ARG1 (m / math)))"


def test_a_sourceless_cycle_beside_a_tree_is_two_trees():
    # with `and` pruned, the boy/cry cycle has no source and the teacher
    # tree has one: the rebuilt graph joins two trees under multi-sentence
    g = parse_penman("(a / and :op1 %s :op2 %s)" % (BOY_CRIES, TEACHER))
    tokens = ["boy", "cry", "teacher", "math"]
    cand = candidate(g, tokens, {"a": None, "b": (0, 1), "c": (1, 2),
                                 "p": (2, 3), "t": (2, 3), "m": (3, 4)})
    run = oracle_run(tokens, g, cand)
    assert run.trees == 2
    parsed = run.parsed
    assert [rel.label for rel in parsed.outgoing(parsed.root)] == \
        [":snt1", ":snt2"]


@pytest.mark.parametrize("cycle, f1", [(BOY_CRIES, 0.7059),
                                       ("(b / boy :ARG0-of (c / cry-01))",
                                        0.6875)], ids=["cyclic", "acyclic"])
def test_a_detached_tree_beside_a_cycle_keeps_its_depths(cycle, f1):
    # the unaligned `thing` leaves person -> teach-01 -> math as a tree
    # of its own; beside the boy/cry cycle its depths count from person,
    # as in the acyclic twin, so teach-01 is confirmed and person built
    # on it instead of forfeited
    g = parse_penman("(a / and :op1 %s :op2 (x / thing :ARG0 %s :ARG1 "
                     "(d / dog)))" % (cycle, TEACHER))
    tokens = ["boy", "cry", "and", "teacher", "math", "dog"]
    cand = candidate(g, tokens, {"a": (2, 3), "b": (0, 1), "c": (1, 2),
                                 "x": None, "p": (3, 4), "t": (3, 4),
                                 "m": (4, 5), "d": (5, 6)})
    pruned = prune_unaligned(g, cand)
    assert [depth_to_root(pruned, cid) for cid in "ptm"] == [0, 1, 2]
    run = oracle_run(tokens, g, cand)
    assert "CONFIRM(teach-01) NEW(person)" in " ".join(map(str, run.actions))
    assert round(run.smatch_f1, 4) == f1


def test_oracle_nothing_aligned_drops_every_word():
    g = parse_penman("(s / sleep-01 :ARG0 (b / boy))")
    tokens = ["the", "cat", "."]
    cand = candidate(g, tokens, {"s": None, "b": None})
    pruned = prune_unaligned(g, cand)
    assert pruned.concepts == {}
    assert pruned.root is None
    run = oracle_run(tokens, g, cand)
    assert [a.tag for a in run.actions] == ["DROP"] * len(tokens)
    assert run.trees == 0
    assert run.smatch_f1 == 0.0


@functools.lru_cache(maxsize=None)
def fixture_resources():
    return Resources(
        embeddings=load_embeddings(fixture("resources", "embeddings.txt")),
        morph=load_morphosemantic(fixture("resources", "morph.tsv")),
        lemmas=load_lemmas(fixture("resources", "lemmas.tsv")))


@functools.lru_cache(maxsize=None)
def pinned_candidates(rule_set):
    """(tokens, graph, candidate) for every candidate the `align` stage
    makes on both fixture corpora and the compose corpora at seed 1."""
    resources = fixture_resources()
    rules = base_rule_set() if rule_set == "base" else full_rule_set(resources)
    corpus_gen = bench_module("corpus_gen")
    documents = (read_corpus(fixture("train_corpus.amr"))
                 + read_corpus(fixture("oracle_corpus.amr"))
                 + read_corpus(corpus_gen.generate("compose-long", 1))
                 + read_corpus(corpus_gen.generate("compose-short", 1)))
    return tuple((doc.tokens, doc.graph, cand) for doc in documents
                 for cand in enumerate_alignments(doc.graph, doc.tokens, rules,
                                                  resources=resources))


# sha256 over the actions, F1 and tree count of every candidate's oracle
# run; the CLI pins cover only each sentence's winning run
CANDIDATE_RUN_DIGESTS = {
    "base":
        "22eb1f04e3f2ca9af3222fab1359982711406b4226058da24063b218810092f6",
    "full":
        "d7a2d18413d4a5f344140f3661dec46edd9c320c6d2a9029ec760a3fc1cd15c0",
}


def run_line(run):
    return ("%s\t%.4f\t%d\n" % (" ".join(map(str, run.actions)),
                                 run.smatch_f1, run.trees)).encode("utf-8")


@pytest.mark.parametrize("rule_set", sorted(CANDIDATE_RUN_DIGESTS))
def test_every_candidate_run_pinned(rule_set):
    digest = hashlib.sha256()
    candidates = pinned_candidates(rule_set)
    for tokens, graph, cand in candidates:
        digest.update(run_line(oracle_run(tokens, graph, cand)))
    assert len(candidates) == 137
    assert digest.hexdigest() == CANDIDATE_RUN_DIGESTS[rule_set]


# sha256 over the runs of every candidate of the hard corpus at seed 1,
# base rules first: stacked same-label fragments, forests and missing words
# reach the chain-climbing and forfeiting paths that the fixtures barely do
HARD_RUN_DIGEST = \
    "5f51ef4d3eb66801c644072775333b966f21704aebd6c46111585384c379fc11"


def test_every_hard_candidate_run_pinned():
    resources = fixture_resources()
    documents = read_corpus(hard_corpus(1, 24))
    digest = hashlib.sha256()
    truncated = forests = 0
    for rules in (base_rule_set(), full_rule_set(resources)):
        for doc in documents:
            aset = enumerate_alignments(doc.graph, doc.tokens, rules,
                                        resources=resources)
            truncated += aset.truncated
            for cand in aset:
                run = oracle_run(doc.tokens, doc.graph, cand)
                forests += run.trees > 1
                digest.update(run_line(run))
    assert truncated and forests
    assert digest.hexdigest() == HARD_RUN_DIGEST


@pytest.mark.parametrize("rule_set", ["base", "full"])
def test_ledger_maps_every_built_variable_to_its_gold_concept(rule_set):
    for tokens, graph, cand in pinned_candidates(rule_set):
        pruned = prune_unaligned(graph, cand)
        ledger = EdgeLedger(pruned, cand)
        state = initial_state(tokens)
        while not is_terminal(state):
            state = apply(state, oracle_action(state, ledger))
        for node, gold in ledger.state_to_gold.items():
            assert state.labels[node] == pruned.concept(gold).label
        parsed = extract_graph(state)
        for node in range(len(state.labels)):
            if parsed.concept("n%d" % node).kind not in LITERAL_KINDS:
                assert node in ledger.state_to_gold


def test_every_oracle_state_has_the_reference_legal_tags():
    # every state of every candidate's oracle run, under both rule sets:
    # the interned tag set of its shape equals the set the rule builds
    # from the state, and `apply` refuses each tag outside it; the decode
    # step's encoding, legal names and argmax equal their references under
    # a model that names every role of the gold graphs as LEFT and RIGHT
    resources = fixture_resources()
    documents = (read_corpus(hard_corpus(1, 24))
                 + read_corpus(fixture("train_corpus.amr"))
                 + read_corpus(fixture("oracle_corpus.amr")))
    roles = sorted({rel.label for doc in documents
                    for rel in doc.graph.relations})
    model = ActionScorer(
        ["DROP", "MERGE", "CONFIRM-LEMMA", "NEW(thing)", "ENTITY(person)"]
        + ["%s(%s)" % (tag, role) for role in roles for tag in (LEFT, RIGHT)]
        + ["CACHE", "SHIFT", "REDUCE"])
    rng = random.Random(1)
    states = dropped = capped = 0
    for rules in (base_rule_set(), full_rule_set(resources)):
        for doc in documents:
            # the last token has no tag, and every fifth tag is None
            pos = tuple(None if i % 5 == 4 else "T%d" % (len(token) % 3)
                        for i, token in enumerate(doc.tokens[:-1]))
            for cand in enumerate_alignments(doc.graph, doc.tokens, rules,
                                             resources=resources):
                ledger = EdgeLedger(prune_unaligned(doc.graph, cand), cand)
                state = initial_state(doc.tokens)
                while True:
                    assert legal_actions(state) == \
                        reference_legal_actions(state)
                    assert_apply_refuses_every_illegal_tag(state)
                    step_dropped, step_capped = \
                        assert_decode_step_matches_reference(
                            model, state, pos, rng)
                    dropped += step_dropped
                    capped += step_capped
                    states += 1
                    if is_terminal(state):
                        break
                    state = apply(state, oracle_action(state, ledger))
    assert states > 30000
    assert dropped and capped


def test_name_under_a_date_entity_wrapper_is_settled_unbuilt():
    # ENTITY builds the date-entity wrapper alone; its name child stays in
    # the entity fragment, so no built node stands for it
    g = parse_penman('(d / date-entity :name (n / name :op1 "Easter"))')
    tokens = ["Easter", "came"]
    aset = enumerate_alignments(g, tokens, base_rule_set())
    assert len(aset) == 1
    cand = aset[0]
    run = oracle_run(tokens, g, cand)
    assert [str(a) for a in run.actions] == \
        ["ENTITY(date-entity)", "SHIFT", "DROP", "REDUCE"]
    assert run.smatch_f1 == pytest.approx(0.5)
    ledger = EdgeLedger(prune_unaligned(g, cand), cand)
    state = initial_state(tokens)
    while not is_terminal(state):
        state = apply(state, oracle_action(state, ledger))
    assert ledger.state_to_gold == {0: "d"}


def run_fields(run):
    parsed = run.parsed
    return (run.actions, (parsed.concepts, parsed.relations, parsed.root),
            run.smatch_f1, run.trees, run.certified)


def assert_tunes_as_reference(tokens, graph, aset):
    best, run = tune(tokens, graph, aset)
    reference_best, reference_run = reference_tune(tokens, graph, aset)
    assert best.choices == reference_best.choices
    assert run_fields(run) == run_fields(reference_run)
    return run


def tune_corpus(text, rules):
    """Tune every sentence of a corpus under the fixture resources, checked
    against the reference tuner; returns the winning runs."""
    resources = fixture_resources()
    return [assert_tunes_as_reference(
                doc.tokens, doc.graph,
                enumerate_alignments(doc.graph, doc.tokens, rules,
                                     resources=resources))
            for doc in read_corpus(text)]


@pytest.mark.parametrize("name", ["train_corpus", "oracle_corpus"])
def test_tune_equals_scoring_every_candidate_on_fixtures(name):
    for rules in (base_rule_set(), full_rule_set(fixture_resources())):
        tune_corpus(fixture(name + ".amr"), rules)


@pytest.mark.parametrize("workload", ["compose-long", "compose-short"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tune_equals_scoring_every_candidate_on_compose(workload, seed):
    corpus_gen = bench_module("corpus_gen")
    tune_corpus(corpus_gen.generate(workload, seed),
                full_rule_set(fixture_resources()))


# mean winning F1 and forest count of `amrtk tune` (full rules) per seed
HARD_TUNE_REPORTS = {1: ("0.8551", 10), 2: ("0.8207", 11), 3: ("0.8517", 9)}


@pytest.mark.parametrize("seed", sorted(HARD_TUNE_REPORTS))
def test_tune_equals_scoring_every_candidate_on_hard_corpus(seed):
    text = hard_corpus(seed, 24)
    tune_corpus(text, base_rule_set())
    runs = tune_corpus(text, full_rule_set(fixture_resources()))
    assert ("%.4f" % (sum(r.smatch_f1 for r in runs) / len(runs)),
            sum(r.trees > 1 for r in runs)) == HARD_TUNE_REPORTS[seed]


def test_tune_equals_scoring_every_candidate_on_five_boys():
    # ROADMAP item 4: every candidate stacks boys on one span
    graph = parse_penman("(a / and %s)" % " ".join(
        ":op%d (b%d / boy)" % (i, i) for i in range(1, 6)))
    tokens = "the boy and".split() * 5
    aset = enumerate_alignments(graph, tokens, base_rule_set())
    run = assert_tunes_as_reference(tokens, graph, aset)
    assert round(run.smatch_f1, 4) == 0.9091


def counting(monkeypatch, module, name):
    """Count the calls made through `module.name` from here on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


BOY_TWICE = ["boy", "boy"]


@pytest.mark.parametrize("text, f1, searches", [
    ("(b / boy)", 1.0, 1),  # dropped by its action count alone
    ("(s / sleep-01 :ARG0 (b / boy))", 1 / 3, 1),  # dropped by its bound
], ids=["perfect", "partial"])
def test_tune_tie_on_f1_and_actions_keeps_the_earlier(monkeypatch, text, f1,
                                                      searches):
    g = parse_penman(text)
    spans = {cid: None for cid in g.fragments}
    first = candidate(g, BOY_TWICE, dict(spans, b=(0, 1)))
    second = candidate(g, BOY_TWICE, dict(spans, b=(1, 2)))
    runs = [oracle_run(BOY_TWICE, g, c) for c in (first, second)]
    assert [(r.smatch_f1, r.action_count) for r in runs] == [(f1, 4)] * 2
    for order in ([first, second], [second, first]):
        searched = counting(monkeypatch, amrtk.oracle, "smatch_score")
        extracted = counting(monkeypatch, amrtk.transition, "extract_graph")
        best, run = tune(BOY_TWICE, g, AlignmentSet(g, BOY_TWICE, order))
        assert best is order[0]
        assert len(searched) == searches
        # a run dropped by its action count is never extracted
        assert len(extracted) == (1 if f1 == 1.0 else 2)


def test_tune_drops_a_run_with_more_actions_than_a_perfect_best(monkeypatch):
    # the coherent run scores 1.0 first; the crossed run, with more
    # actions, is dropped before its graph is extracted
    g, coherent, crossed = nuclear_pair()
    searched = counting(monkeypatch, amrtk.oracle, "smatch_score")
    extracted = counting(monkeypatch, amrtk.transition, "extract_graph")
    best, _ = tune(FIGURE_TOKENS, g,
                   AlignmentSet(g, FIGURE_TOKENS, [coherent, crossed]))
    assert best is coherent
    assert (len(searched), len(extracted)) == (1, 1)


@pytest.mark.parametrize("drop, f1", [(None, 1.0), ("f", 0.7692)],
                         ids=["perfect", "bound-equals-best"])
def test_tune_searches_a_later_run_with_fewer_actions(monkeypatch, drop, f1):
    # the crossed run comes first; the coherent run ties its F1 with fewer
    # actions, and with `freeze-01` unaligned its bound only equals the
    # best F1, yet it must be searched to win
    g, coherent, crossed = nuclear_pair(drop)
    aset = AlignmentSet(g, FIGURE_TOKENS, [crossed, coherent])
    searched = counting(monkeypatch, amrtk.oracle, "smatch_score")
    best, run = tune(FIGURE_TOKENS, g, aset)
    assert best is coherent
    assert round(run.smatch_f1, 4) == f1
    assert len(searched) == 2
    assert_tunes_as_reference(FIGURE_TOKENS, g, aset)


@pytest.mark.parametrize("name, searches, candidates", [
    ("compose-long", 15, 63), ("hard", 73, 425)])
def test_tune_searches_only_runs_that_can_win(monkeypatch, name, searches,
                                              candidates):
    if name == "hard":
        text = hard_corpus(1, 24)
    else:
        text = bench_module("corpus_gen").generate(name, 1)
    resources = fixture_resources()
    rules = full_rule_set(resources)
    searched = counting(monkeypatch, amrtk.oracle, "smatch_score")
    total = 0
    for doc in read_corpus(text):
        aset = enumerate_alignments(doc.graph, doc.tokens, rules,
                                    resources=resources)
        total += len(aset)
        tune(doc.tokens, doc.graph, aset)
    assert (len(searched), total) == (searches, candidates)
