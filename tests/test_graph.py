import random

import pytest

from amrtk.graph import (
    ATTRIBUTE, CONSTANT, VARIABLE,
    AmrGraph, Concept, Fragment, GraphLookupError, PenmanStructureError, Relation,
    PenmanSyntaxError, SerializationError,
    depth_to_root, forest_roots, name_op_values, parse_penman,
    serialize_penman, strip_sense, tokenize_penman,
)
from helpers import fixture, hard_corpus, random_graph, reference_fragments

FIGURE_GRAPH = """
(f / freeze-01
    :ARG0 (c / country
        :name (n / name :op1 "North" :op2 "Korea"))
    :ARG1 (a / act-01
        :poss c
        :mod (n2 / nucleus))
    :ARG2-of (e / exchange-01
        :ARG1 (r / reactor
            :quant 2
            :mod (n3 / nucleus))))
"""


def test_minimal_graph():
    g = parse_penman("(c / country)")
    assert len(g.concepts) == 1
    assert len(g.relations) == 0
    assert g.concept(g.root).label == "country"


def test_nuclear_sentence_graph():
    g = parse_penman(FIGURE_GRAPH)
    labels = [c.label for c in g.concepts.values()]
    assert "freeze-01" in labels
    assert "country" in labels
    assert "name" in labels
    assert labels.count("nucleus") == 2
    # re-entrancy: country has two incoming relations
    assert len(g.incoming("c")) == 2
    assert len(g.var_ids()) == 8
    assert len(g.relations) == 11


def test_duplicate_variable_is_structure_error():
    with pytest.raises(PenmanStructureError):
        parse_penman("(a / act-01 :ARG0 (a / act-01))")


def test_dangling_variable_reference():
    with pytest.raises(PenmanStructureError):
        parse_penman("(a / act-01 :ARG0 b)")


def test_bare_word_target_is_a_literal():
    g = parse_penman("(s / state-01 :mode expressive)")
    kinds = {c.label: c.kind for c in g.concepts.values()}
    assert kinds["expressive"] == ATTRIBUTE


def test_unbalanced_parens_reports_position():
    with pytest.raises(PenmanSyntaxError) as err:
        parse_penman("(a / act-01 :ARG0 (b / boy)")
    assert err.value.position >= 0


def test_self_loop_rejected():
    with pytest.raises(PenmanStructureError):
        parse_penman("(a / act-01 :mod a)")


@pytest.mark.parametrize("relation", [
    Relation("a", "z", ":ARG0"), Relation("z", "a", ":ARG0")],
    ids=["target", "source"])
def test_relation_to_a_missing_concept_is_refused_at_construction(relation):
    # refused where it is built, not later as a GraphLookupError on 'z'
    # from serialize_penman
    with pytest.raises(PenmanStructureError, match="'z', which is not a concept"):
        AmrGraph({"a": Concept("a", "x", VARIABLE)}, [relation], "a")


def test_duplicate_relation_rejected():
    concepts = {cid: Concept(cid, cid, VARIABLE) for cid in "ab"}
    with pytest.raises(PenmanStructureError, match="duplicate relation"):
        AmrGraph(concepts, [Relation("a", "b", ":ARG0")] * 2, "a")


def test_constant_kinds():
    g = parse_penman('(d / date-entity :year 2002 :note "fine")')
    kinds = sorted((c.label, c.kind) for c in g.concepts.values())
    assert ("2002", ATTRIBUTE) in kinds
    assert ("fine", CONSTANT) in kinds


def test_appearance_order_addresses():
    g = parse_penman(FIGURE_GRAPH)
    order = [g.concept(cid).label for cid in g.concepts]
    assert order == ["freeze-01", "country", "name", "North", "Korea",
                     "act-01", "nucleus", "exchange-01", "reactor", "2",
                     "nucleus"]
    assert g.addresses()[g.root] == 0


def test_serialize_single_concept():
    g = parse_penman("(kitty / country)")
    assert serialize_penman(g) == "(c0 / country)"


def test_serialize_reentrancy_defines_once():
    text = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"
    g = parse_penman(text)
    out = serialize_penman(g)
    # the boy variable is mentioned twice but defined once
    assert out.count("/ boy") == 1
    reparsed = parse_penman(out)
    assert len(reparsed.concepts) == len(g.concepts)
    assert len(reparsed.relations) == len(g.relations)


def test_serialize_quotes_string_constants():
    g = parse_penman('(n / name :op1 "North")')
    assert '"North"' in serialize_penman(g)


@pytest.mark.parametrize("text, label, written", [
    ('(a / "x y")', "x y", '(c0 / "x y")'),
    ('(a / "say \\"hi\\"")', 'say "hi"', '(c0 / "say \\"hi\\"")'),
    ('(a / "boy")', "boy", "(c0 / boy)"),
    # a backslash is escaped on write and unescaped on read
    ('(a / "c\\\\")', "c\\", "(c0 / c\\)"),
    ('(a / "x \\\\\\"y")', 'x \\"y', '(c0 / "x \\\\\\"y")'),
    ('(a / "x back\\\\" :ARG1 "y\\\\")', "y\\",
     '(c0 / "x back\\\\"\n    :ARG1 "y\\\\")'),
])
def test_quoted_concept_label_round_trips(text, label, written):
    """`label` is the label of the last concept, quoted in `text`."""
    g = parse_penman(text)
    labels = [c.label for c in g.concepts.values()]
    assert labels[-1] == label
    out = serialize_penman(g)
    assert out == written
    assert [c.label for c in parse_penman(out).concepts.values()] == labels


@pytest.mark.parametrize("text", [
    '(a / "abc)',
    '(a / x :ARG1 "abc)',
])
def test_unterminated_quote_is_syntax_error(text):
    with pytest.raises(PenmanSyntaxError) as err:
        parse_penman(text)
    assert err.value.position == text.index('"')


@pytest.mark.parametrize("text, message, position", [
    ("(a / b) c", "trailing token 'c'", 8),
    ("(a b)", "expected '/', found 'b'", 3),
    ("( / b)", "expected a variable, found '/'", 2),
    ("(a / ( b))", "expected a concept label, found '('", 5),
    ("(a / b c)", "expected a role or ')', found 'c'", 7),
    ("(a / b :ARG0 )", "missing value for role :ARG0", 13),
])
def test_syntax_errors_name_the_token_and_its_offset(text, message, position):
    with pytest.raises(PenmanSyntaxError) as err:
        parse_penman(text)
    assert str(err.value) == "%s (at offset %d)" % (message, position)
    assert err.value.position == position


def test_tokens_leave_out_only_whitespace():
    # the alphabet mixes Penman punctuation, ASCII and Unicode whitespace
    # and a zero-width space, which is no whitespace
    alphabet = '()/":\\a1- \t\n\x0b\x85\xa0\u2003\u3000\u200b'
    rng = random.Random(5)
    tokenized = 0
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            tokens = tokenize_penman(text)
        except PenmanSyntaxError as err:
            assert str(err).startswith("unterminated quote")
            assert text[err.position] == '"'
            continue
        tokenized += 1
        rest = list(text)
        end = 0
        for token, pos in tokens:
            assert pos >= end and text.startswith(token, pos)
            rest[pos:pos + len(token)] = " " * len(token)
            end = pos + len(token)
        assert not "".join(rest).strip()
        if '"' not in text:
            assert "".join(token for token, _ in tokens) == \
                "".join(text.split())
    assert tokenized > 1000


def test_literal_ids_skip_defined_variable_names():
    g = parse_penman('(_lit0 / a :ARG0 "x" :ARG1 (_lit1 / b :mod 5))')
    assert list(g.concepts) == ["_lit0", "_lit2", "_lit1", "_lit3"]
    assert [c.kind for c in g.concepts.values()] == [
        VARIABLE, CONSTANT, VARIABLE, ATTRIBUTE]


def test_serialize_disconnected_fails():
    act, boy = Concept("a", "act-01", VARIABLE), Concept("b", "boy", VARIABLE)
    graphs = [
        AmrGraph({"a": act, "b": boy}, [], "a"),
        AmrGraph({}, [], None),  # the empty graph
        AmrGraph({"a": act, "l": Concept("l", "5", ATTRIBUTE)}, [], "a"),
        # `b` is reachable only against edge direction
        AmrGraph({"a": act, "b": boy}, [Relation("b", "a", ":ARG0")], "a"),
    ]
    for g in graphs:
        with pytest.raises(SerializationError):
            serialize_penman(g)


def test_fragments_group_name_ops():
    g = parse_penman(FIGURE_GRAPH)
    frags = g.fragments
    name_frag = frags["n"]
    assert len(name_frag.members) == 3
    assert len(name_frag.relations) == 2
    assert len(frags["c"].members) == 1  # country is its own fragment
    # partition property
    all_members = [m for f in frags.values() for m in f.members]
    assert sorted(all_members) == sorted(g.concepts)


def test_a_fragment_is_its_fields():
    name = parse_penman(FIGURE_GRAPH).fragments["n"]
    same = Fragment(name.head, name.members, name.relations)
    assert (same == name, hash(same) == hash(name), len(same)) == (True, True, 3)
    assert same != Fragment("n", name.members[:1], ())
    assert same != tuple(name.members)
    assert repr(Fragment("c", ("c",), ())) == \
        "Fragment(head='c', members=('c',), relations=())"


def test_fragments_singleton():
    g = parse_penman("(c / country)")
    assert list(g.fragments) == ["c"] and len(g.fragments["c"].members) == 1


def test_fragments_date_entity():
    g = parse_penman("(d / date-entity :year 2002)")
    assert list(g.fragments) == ["d"]
    assert len(g.fragments["d"].members) == 2


def test_fragments_follow_the_reference_grouping():
    # every fixture graph and a hard corpus, plus a literal labeled
    # `name` that a name and a date-entity both point at: each group
    # takes it in
    from amrtk.corpus import read_corpus
    graphs = [doc.graph for name in ("graphs.amr", "oracle_corpus.amr",
                                     "train_corpus.amr")
              for doc in read_corpus(fixture(name))]
    graphs += [doc.graph for doc in read_corpus(hard_corpus(3, 12))]
    shared = {"n": Concept("n", "name", VARIABLE),
              "d": Concept("d", "date-entity", VARIABLE),
              "l": Concept("l", "name", CONSTANT)}
    graphs.append(AmrGraph(shared, [Relation("n", "l", ":op1"),
                                    Relation("d", "l", ":year")], "n"))
    for g in graphs:
        assert list(g.fragments.values()) == reference_fragments(g)
        assert g.fragments is g.fragments  # computed once
    assert [f.members for f in graphs[-1].fragments.values()] == \
        [("n", "l"), ("d", "l")]


def test_depth_root_is_zero():
    g = parse_penman(FIGURE_GRAPH)
    assert depth_to_root(g, g.root) == 0
    assert depth_to_root(g, "n") == depth_to_root(g, "c") + 1


def test_depth_chain():
    g = parse_penman("(a / a-01 :ARG0 (b / b-01 :ARG0 (c / c-01)))")
    assert depth_to_root(g, "c") == 2


def test_depth_takes_longest_path():
    # diamond: root -> x -> y and root -> y directly
    g = parse_penman("(r / root-01 :ARG0 (x / x-01 :ARG0 (y / y-01)) :ARG1 y)")
    assert depth_to_root(g, "y") == 2


def test_depth_forest_sources_are_zero():
    # two trees sharing b: a -> b <- c -> d, named by its first source a
    concepts = {cid: Concept(cid, cid, VARIABLE) for cid in "abcd"}
    relations = [Relation("a", "b", ":ARG0"), Relation("c", "b", ":ARG1"),
                 Relation("c", "d", ":ARG2")]
    g = AmrGraph(concepts, relations, "a")
    assert {cid: depth_to_root(g, cid) for cid in "abcd"} == \
        {"a": 0, "b": 1, "c": 0, "d": 1}


def test_only_the_empty_graph_has_no_root():
    assert AmrGraph({}, [], None).root is None
    # None names any other graph by its first forest root: the first
    # source, or the first concept when every concept is on a cycle
    concepts = {cid: Concept(cid, cid, VARIABLE) for cid in "abc"}
    cycle = [Relation("a", "b", ":ARG0"), Relation("b", "a", ":ARG1")]
    assert AmrGraph(concepts, [Relation("b", "a", ":ARG0")], None).root == "b"
    assert AmrGraph(concepts, cycle, None).root == "c"
    del concepts["c"]
    assert AmrGraph(concepts, cycle, None).root == "a"


def _reach(graph, starts):
    """Every concept reached from `starts` along edge direction."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        for rel in graph.outgoing(stack.pop()):
            if rel.target not in seen:
                seen.add(rel.target)
                stack.append(rel.target)
    return seen


def test_forest_roots_of_random_forests():
    # random graphs with random concepts removed, some still named by
    # their kept root and some by the rule.  The roots reach every
    # concept, no root reaches another, and an acyclic graph's roots are
    # its sources
    rng = random.Random(11)
    kinds = set()
    named_below = 0  # kept roots with an incoming edge
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7))
        kept = [cid for cid in g.concepts if rng.random() < 0.7] or [g.root]
        named = g.root in kept and rng.random() < 0.5
        forest = AmrGraph(
            {cid: g.concepts[cid] for cid in kept},
            [r for r in g.relations if r.source in kept and r.target in kept],
            g.root if named else None)
        roots = forest_roots(forest)
        if not named:
            assert roots[0] == forest.root
        assert _reach(forest, roots) == set(forest.concepts)
        for root in roots:
            assert not _reach(forest, [root]) & set(roots) - {root}
        acyclic = not any(cid in _reach(forest, [r.target for r in
                                                 forest.outgoing(cid)])
                          for cid in forest.concepts)
        if acyclic:
            assert roots == [cid for cid in forest.concepts
                             if not forest.incoming(cid)]
        kinds.add((acyclic, len(roots) > 1))
        named_below += named and bool(forest.incoming(forest.root))
    assert len(kinds) == 4
    assert named_below


def test_depth_on_a_cyclic_forest_counts_from_the_first_root_reaching():
    # b and c point at each other beside the tree x -> y -> w -> z, and c
    # also points at z: the roots are x, then b, and z is three steps
    # from x, the first root that reaches it, though two from b
    g = parse_penman("(b / boy :ARG0-of (c / cry-01 :ARG0 b))")
    concepts = {cid: Concept(cid, cid, VARIABLE) for cid in "xywz"}
    concepts.update(g.concepts)
    relations = [Relation("x", "y", ":ARG0"), Relation("y", "w", ":ARG0"),
                 Relation("w", "z", ":ARG0"), Relation("c", "z", ":ARG1"),
                 *g.relations]
    forest = AmrGraph(concepts, relations, None)
    assert forest_roots(forest) == ["x", "b"]
    assert {cid: depth_to_root(forest, cid) for cid in concepts} == \
        {"x": 0, "y": 1, "w": 2, "z": 3, "b": 0, "c": 1}


def test_a_later_root_takes_the_place_of_an_earlier_root_it_reaches():
    # a <-> b and c <-> d, with d -> a: a is the first root, but c, the
    # next concept a does not reach, reaches a, so c is the one root
    concepts = {cid: Concept(cid, cid, VARIABLE) for cid in "abcd"}
    relations = [Relation("a", "b", ":ARG0"), Relation("b", "a", ":ARG0"),
                 Relation("c", "d", ":ARG0"), Relation("d", "c", ":ARG0"),
                 Relation("d", "a", ":ARG1")]
    g = AmrGraph(concepts, relations, None)
    assert forest_roots(g) == ["c"]
    assert g.root == "c"
    assert {cid: depth_to_root(g, cid) for cid in "abcd"} == \
        {"a": 2, "b": 3, "c": 0, "d": 1}


def test_depths_on_a_cyclic_graph_log_nothing(caplog):
    g = parse_penman("(b / boy :ARG0-of (c / cry-01 :ARG0 b))")
    forest = AmrGraph(g.concepts, g.relations, None)
    assert forest_roots(forest) == ["b"]
    assert [depth_to_root(forest, cid) for cid in "bcb"] == [0, 1, 0]
    assert not caplog.records


def test_depth_missing_concept():
    g = parse_penman("(c / country)")
    with pytest.raises(GraphLookupError):
        depth_to_root(g, "zz")


def test_depth_monotone_under_unique_parent():
    import os
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    from amrtk.corpus import read_corpus
    for name in ("graphs.amr", "oracle_corpus.amr"):
        for doc in read_corpus(os.path.join(fixtures, name)):
            g = doc.graph
            for rel in g.relations:
                if len(g.incoming(rel.target)) == 1:
                    assert depth_to_root(g, rel.target) >= \
                        depth_to_root(g, rel.source) + 1


def test_strip_sense():
    assert strip_sense("run-01") == "run"
    assert strip_sense("freeze-01") == "freeze"
    assert strip_sense("country") == "country"
    assert strip_sense("date-entity") == "date-entity"


def test_name_op_values_ordered():
    g = parse_penman('(n / name :op2 "Korea" :op1 "North")')
    assert name_op_values(g, "n") == ["North", "Korea"]
