import itertools
import time

import numpy as np
import pytest

import amrtk.align
import amrtk.cli
from amrtk.align import (
    MATCHING, UPDATING, AlignmentContext, AlignmentInputError,
    AlignmentRecord, AlignmentSet, Rule, Span,
    alignment_f1,
    base_rule_set, collect_records, enumerate_alignments, extended_rule_set,
    full_rule_set, is_legal,
)
from amrtk.corpus import read_corpus
from amrtk.graph import (
    ATTRIBUTE, VARIABLE, AmrGraph, Concept, Relation, parse_penman,
    strip_sense,
)
from amrtk.resources import (
    EmbeddingTable, LemmaTable, MorphLinkTable, Resources, load_embeddings,
    load_lemmas, load_morphosemantic,
)
from helpers import (
    bench_module, brute_force_candidates, fixture, fixture_text, hard_corpus,
    reference_matching_records, reference_updating_records,
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


def fixture_resources():
    return Resources(
        embeddings=load_embeddings(fixture("resources", "embeddings.txt")),
        morph=load_morphosemantic(fixture("resources", "morph.tsv")),
        lemmas=load_lemmas(fixture("resources", "lemmas.tsv")))


def figure_resources():
    lemmas = LemmaTable({
        "froze": {"freeze"},
        "actions": {"action"},
        "reactors": {"reactor"},
    })
    morph = MorphLinkTable({("action", "act"), ("example", "exemplify")})
    return Resources(lemmas=lemmas, morph=morph)


def records_by_label(graph, records):
    by_label = {}
    for head, recs in records.items():
        by_label.setdefault(graph.concept(head).label, set()).update(recs)
    return by_label


def test_span_validation():
    with pytest.raises(AlignmentInputError):
        Span(2, 2)
    with pytest.raises(AlignmentInputError):
        Span(-1, 1)
    with pytest.raises(AlignmentInputError, match=r"^bad span \(2, 1\)$"):
        Span(2, 1)
    assert Span(0, 2).overlaps(Span(1, 3))
    assert not Span(0, 1).overlaps(Span(1, 2))


def test_span_is_a_value():
    assert Span(1, 3) == Span(start=1, end=3)
    assert hash(Span(1, 3)) == hash(Span(1, 3))
    assert Span(1, 3) != Span(1, 2)
    assert len({Span(1, 3), Span(1, 3), Span(0, 1)}) == 2
    assert {Span(0, 1): "a"}[Span(0, 1)] == "a"
    # spans order by start, then end
    assert sorted([Span(2, 3), Span(0, 2), Span(1, 2), Span(0, 1)]) == \
        [Span(0, 1), Span(0, 2), Span(1, 2), Span(2, 3)]
    assert Span(0, 5) < Span(1, 2) and max(Span(3, 4), Span(3, 5)) == Span(3, 5)
    assert (Span(1, 3).start, Span(1, 3).end) == (1, 3)
    assert repr(Span(1, 3)) == "Span(start=1, end=3)"


def test_named_entity_rule_matches_north_korea():
    g = parse_penman(FIGURE_TEXT)
    records = collect_records(g, FIGURE_TOKENS, base_rule_set())
    assert AlignmentRecord(Span(0, 2)) in records["n"]


def test_entity_type_updating_rule():
    g = parse_penman(FIGURE_TEXT)
    records = collect_records(g, FIGURE_TOKENS, base_rule_set())
    assert AlignmentRecord(Span(0, 2), "n", Span(0, 2)) in records["c"]


def test_froze_needs_lemma_not_fuzzy():
    g = parse_penman(FIGURE_TEXT)
    # without a lemma table the prefix is only "fr", so freeze-01 is unaligned
    bare = collect_records(g, FIGURE_TOKENS, base_rule_set())
    assert not bare["f"]
    with_lemmas = collect_records(g, FIGURE_TOKENS, base_rule_set(),
                                  resources=figure_resources())
    assert AlignmentRecord(Span(2, 3)) in with_lemmas["f"]


def test_actions_not_recalled_by_prefix_rule():
    g = parse_penman(FIGURE_TEXT)
    records = collect_records(g, FIGURE_TOKENS, base_rule_set())
    assert not records["a"]  # 'act' shares only 3 characters with 'actions'


def test_actions_recalled_by_morphological_rule():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    records = collect_records(g, FIGURE_TOKENS, full_rule_set(res), res)
    assert AlignmentRecord(Span(5, 6)) in records["a"]


def test_fuzzy_prefix_matches_nucleus():
    g = parse_penman(FIGURE_TEXT)
    records = collect_records(g, FIGURE_TOKENS, base_rule_set())
    assert AlignmentRecord(Span(4, 5)) in records["n2"]
    assert AlignmentRecord(Span(10, 11)) in records["n2"]
    assert records["n2"] == records["n3"]


def test_number_word_matches_quant():
    g = parse_penman(FIGURE_TEXT)
    records = collect_records(g, FIGURE_TOKENS, base_rule_set())
    by_label = records_by_label(g, records)
    assert AlignmentRecord(Span(9, 10)) in by_label["2"]


def test_semantic_concept_rule():
    emb = EmbeddingTable(2, {
        "freeze": np.array([1.0, 0.0]),
        "frozen": np.array([0.8, 0.6]),  # cosine 0.8
    })
    res = Resources(embeddings=emb)
    g = parse_penman("(f / freeze-01)")
    rules = extended_rule_set(res)
    records = collect_records(g, ["frozen", "pipes"], rules, res)
    assert AlignmentRecord(Span(0, 1)) in records["f"]
    assert AlignmentRecord(Span(1, 2)) not in records["f"]


def test_semantic_named_entity_rule():
    emb = EmbeddingTable(2, {
        "korea": np.array([1.0, 0.0]),
        "korean": np.array([0.8, 0.6]),
    })
    res = Resources(embeddings=emb)
    g = parse_penman('(c / country :name (n / name :op1 "Korea"))')
    rules = extended_rule_set(res)
    records = collect_records(g, ["Korean"], rules, res)
    assert AlignmentRecord(Span(0, 1)) in records["n"]


def test_morphological_concept_rule_example():
    res = figure_resources()
    g = parse_penman("(e / exemplify-01)")
    records = collect_records(g, ["an", "example"], full_rule_set(res), res)
    assert AlignmentRecord(Span(1, 2)) in records["e"]


def test_minus_polarity_updating_rule():
    res = figure_resources()
    g = parse_penman("(s / sleep-01 :polarity - :ARG0 (i / i))")
    records = collect_records(g, ["i", "do", "not", "sleep"],
                              full_rule_set(res), res)
    by_label = records_by_label(g, records)
    minus = {r for r in by_label["-"] if r.trigger is not None}
    assert any(r.span == Span(2, 3) and r.trigger == "s" and
               r.trigger_span == Span(3, 4) for r in minus)


def test_quantity_updating_rule():
    g = parse_penman("(m / mass-quantity :quant 5 :unit (k / kilogram))")
    records = collect_records(g, ["five", "kilograms"], base_rule_set(),
                              Resources(lemmas=LemmaTable({"kilograms": {"kilogram"}})))
    by_label = records_by_label(g, {h: r for h, r in records.items()})
    assert any(r.trigger is not None and r.span == Span(0, 1)
               for r in by_label["mass-quantity"])


def test_date_entity_rule():
    g = parse_penman("(d / date-entity :year 2002)")
    records = collect_records(g, ["in", "2002"], base_rule_set())
    assert AlignmentRecord(Span(1, 2)) in records["d"]


def test_date_entity_full_date():
    g = parse_penman("(d / date-entity :year 2002 :month 1 :day 5)")
    records = collect_records(g, ["2002-01-05"], base_rule_set())
    assert AlignmentRecord(Span(0, 1)) in records["d"]


def test_single_fragment_single_span():
    g = parse_penman("(c / country)")
    aset = enumerate_alignments(g, ["country"], base_rule_set())
    assert len(aset) == 1
    assert aset[0]["c"] == Span(0, 1)


def test_unmatchable_yields_all_unaligned():
    g = parse_penman("(x / xylophone)")
    aset = enumerate_alignments(g, ["drum"], base_rule_set())
    assert len(aset) == 1
    assert aset[0]["x"] is None


def test_nuclear_swap_produces_multiple_candidates():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    aset = enumerate_alignments(g, FIGURE_TOKENS, full_rule_set(res),
                                resources=res)
    swaps = set()
    for cand in aset:
        s2, s3 = cand["n2"], cand["n3"]
        if s2 is not None and s3 is not None:
            swaps.add((s2, s3))
    assert (Span(4, 5), Span(10, 11)) in swaps
    assert (Span(10, 11), Span(4, 5)) in swaps


def test_legality_filters_trigger_span_mismatch():
    choices = {
        "a": AlignmentRecord(Span(0, 1)),
        "b": AlignmentRecord(Span(0, 1), trigger="a", trigger_span=Span(2, 3)),
    }
    assert not is_legal(choices)
    choices["b"] = AlignmentRecord(Span(0, 1), trigger="a", trigger_span=Span(0, 1))
    assert is_legal(choices)


def test_legality_rejects_partial_overlap():
    choices = {
        "a": AlignmentRecord(Span(0, 2)),
        "b": AlignmentRecord(Span(1, 3)),
    }
    assert not is_legal(choices)
    choices["b"] = AlignmentRecord(Span(0, 2))
    assert is_legal(choices)


def ranked_brute_force(graph, tokens, rules, resources=None):
    """Every legal candidate, ranked by span tuple."""
    return sorted(brute_force_candidates(graph, tokens, rules, resources),
                  key=lambda c: [s for s in c.values() if s is not None])


def chain_trigger_case():
    # fragment C's records trigger on fragment B; combinations where B sits
    # on a different span must be filtered out
    g = parse_penman("(a / aaaa :ARG0 (b / bbbb :ARG1 (c / cccc)))")
    tokens = ["aaaa", "bbbb", "cccc"]

    def match_a(f, s, ctx):
        return f.head == "a" and s == Span(0, 1)

    def match_b(f, s, ctx):
        return f.head == "b" and s in (Span(1, 2), Span(2, 3))

    def triggers_c(f, ctx):
        return ["b"] if f.head == "c" else []

    rules = [
        Rule("ma", MATCHING, widths=lambda f, ctx: (1,), match=match_a),
        Rule("mb", MATCHING, widths=lambda f, ctx: (1,), match=match_b),
        Rule("u", UPDATING, triggers=triggers_c,
             derive=lambda f, rec, ctx: [rec.span]),
    ]
    return g, tokens, rules


def test_enumeration_matches_brute_force_with_triggers():
    g, tokens, rules = chain_trigger_case()
    expected = brute_force_candidates(g, tokens, rules)
    got = list(enumerate_alignments(g, tokens, rules, limit=None))
    assert {tuple(c.items()) for c in got} == \
        {tuple(c.items()) for c in expected}
    # every candidate aligning c must put it on b's span
    for cand in got:
        if cand["c"] is not None:
            assert cand["c"] == cand["b"]


def overlap_trigger_case():
    # a may overlap b; c follows b onto its span, d follows a or b onto any
    # later token, so one span of d can have records from both triggers
    g = parse_penman("(a / aaaa :ARG0 (b / bbbb :ARG1 (c / cccc) :ARG2 (d / dddd)))")
    tokens = ["aaaa", "bbbb", "cccc", "dddd"]
    rules = [
        Rule("ma", MATCHING, widths=lambda f, ctx: (1, 2),
             match=lambda f, s, ctx: f.head == "a" and s in (
                 Span(0, 1), Span(1, 2), Span(0, 2))),
        Rule("mb", MATCHING, widths=lambda f, ctx: (1,),
             match=lambda f, s, ctx: f.head == "b" and s in (
                 Span(1, 2), Span(2, 3))),
        Rule("u", UPDATING,
             triggers=lambda f, ctx: {"c": ["b"], "d": ["a", "b"]}.get(f.head, []),
             derive=lambda f, rec, ctx: [rec.span] if f.head == "c" else [
                 Span(i, i + 1) for i in range(rec.span.start, len(ctx.tokens))]),
    ]
    return g, tokens, rules


def ordered_equivalence_cases():
    resources = Resources(
        morph=load_morphosemantic(fixture("resources", "morph.tsv")),
        lemmas=load_lemmas(fixture("resources", "lemmas.tsv")))
    cases = [chain_trigger_case() + (None,), overlap_trigger_case() + (None,)]
    for text, toks in [
        ("(s / sleep-01 :ARG0 (b / boy))", ["the", "boy", "sleeps", "."]),
        ("(s / sleep-01 :polarity - :ARG0 (sh / she))",
         ["She", "does", "not", "sleep", "."]),
        ('(c / country :name (n / name :op1 "Russia"))',
         ["Russia", "exports", "oil"]),
        (FIGURE_TEXT, FIGURE_TOKENS),
    ]:
        cases.append((parse_penman(text), toks, full_rule_set(resources),
                      resources))
    return cases


@pytest.mark.parametrize("case", range(len(ordered_equivalence_cases())))
def test_enumeration_equals_ranked_brute_force(case):
    graph, tokens, rules, res = ordered_equivalence_cases()[case]
    ranked = ranked_brute_force(graph, tokens, rules, res)
    for limit in (1, 2, 5, None):
        aset = enumerate_alignments(graph, tokens, rules, limit=limit,
                                    resources=res)
        assert list(aset) == ranked[:limit]
        assert aset.truncated == (limit is not None and len(ranked) > limit)


def and_of(parts):
    return parse_penman("(a / and %s)" % " ".join(
        ":op%d %s" % (i, part) for i, part in enumerate(parts, start=1)))


def test_first_fifty_of_many_legal_candidates(caplog):
    # "the boy and" six times: 6^7 candidates, every one legal, so the
    # first fifty in rank order are the first fifty of the spans' product
    graph = and_of(["(b%d / boy)" % i for i in range(1, 7)])
    tokens = "the boy and".split() * 6
    rules = base_rule_set()
    records = collect_records(graph, tokens, rules)
    order = list(graph.fragments)
    sets = [sorted({rec.span for rec in records[h]}) for h in order]
    expected = [dict(zip(order, combo))
                for combo in itertools.islice(itertools.product(*sets), 50)]
    aset = enumerate_alignments(graph, tokens, rules)
    assert list(aset) == expected
    assert aset.truncated
    assert not caplog.records


@pytest.mark.parametrize("boys_first", [False, True])
def test_no_legal_candidate_found_fast(boys_first, caplog):
    # the name can only take "New York", which york partially overlaps, so
    # no legal combination exists whatever the eight boys do
    york = ['(c / city :name (n / name :op1 "New" :op2 "York"))', "(y / york)"]
    boys = ["(b%d / boy)" % i for i in range(1, 9)]
    graph = and_of(boys + york if boys_first else york + boys)
    tokens = ["New", "York"] + "the boy and".split() * 8
    started = time.perf_counter()
    aset = enumerate_alignments(graph, tokens, base_rule_set())
    assert time.perf_counter() - started < 0.5
    assert len(aset) == 1 and not aset.truncated
    assert set(aset[0].values()) == {None}
    assert not caplog.records


def dead_end_case():
    # x follows t only from t's second span
    boys = ["(b%d / boy)" % i for i in range(1, 9)]
    graph = and_of(["(t / tttt)"] + boys + ["(x / xylophone)"])
    tokens = ["tttt", "tttt", "xxxx"] + "the boy and".split() * 8
    rules = base_rule_set() + [Rule(
        "x-after-t", UPDATING,
        triggers=lambda f, ctx: ["t"] if f.head == "x" else [],
        derive=lambda f, rec, ctx: [Span(2, 3)] if rec.span == Span(1, 2) else [])]
    return graph, tokens, rules


def test_trigger_dead_end_cut_before_later_fragments():
    # t's first span is a dead end that must be dropped when t is placed,
    # not after every placement of the eight boys between them
    graph, tokens, rules = dead_end_case()
    started = time.perf_counter()
    aset = enumerate_alignments(graph, tokens, rules)
    assert time.perf_counter() - started < 0.5
    assert len(aset) == 50 and aset.truncated
    assert {(c["t"], c["x"]) for c in aset} == {(Span(1, 2), Span(2, 3))}


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_rejected(limit):
    g = parse_penman("(b / boy)")
    with pytest.raises(AlignmentInputError):
        enumerate_alignments(g, ["boy", "boy"], base_rule_set(), limit=limit)


def test_enumeration_needs_tokens_and_a_set_needs_a_candidate():
    g = parse_penman("(b / boy)")
    with pytest.raises(AlignmentInputError,
                       match=r"^token list may not be empty$"):
        enumerate_alignments(g, [], base_rule_set())
    with pytest.raises(AlignmentInputError,
                       match=r"^candidate list may not be empty$"):
        AlignmentSet(g, ["boy"], [])


def test_rule_monotonicity():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    base = base_rule_set()
    small = collect_records(g, FIGURE_TOKENS, base, res)
    big = collect_records(g, FIGURE_TOKENS, full_rule_set(res), res)
    for head in small:
        assert small[head] <= big[head]


def rule_shape_cases():
    """(graph, tokens) pairs: every sentence of the fixture corpora, of
    the benchmark's composed corpora at seed 1 and of the hard corpus (the
    sentence-free graph fixtures take their sense-stripped labels as
    tokens), then names wider than the sentence, one-token sentences,
    dates at the bounds of their widths, graphs with edges the updating
    rules must not follow, and the token and label forms that the context
    normalizes: case, number words, sense suffixes and hyphenated names."""
    docs = read_corpus(fixture_text("train_corpus.amr")) + \
        read_corpus(fixture_text("oracle_corpus.amr"))
    corpus_gen = bench_module("corpus_gen")
    for workload in ("compose-long", "compose-short"):
        docs += read_corpus(corpus_gen.generate(workload, 1))
    docs += read_corpus(hard_corpus(1, 24))
    cases = [(doc.graph, doc.tokens) for doc in docs]
    for doc in read_corpus(fixture_text("graphs.amr")):
        cases.append((doc.graph, [strip_sense(c.label)
                                  for c in doc.graph.concepts.values()]))
    city = '(c / city :name (n / name :op1 "New" :op2 "York" :op3 "City"))'
    for text, tokens in [(city, ["New", "York"]), (city, ["York"]),
                         ('(c / city :name (n / name :op1 "York"))', ["york"]),
                         ("(y / york-01 :quant 2)", ["York"]),
                         ("(y / york-01 :quant 2)", ["two"])]:
        cases.append((parse_penman(text), tokens))
    full = "(d / date-entity :year 2002 :month 1 :day 5)"
    mixed = "(d / date-entity :year 2002 :month 1 :day 5 :month 2)"
    for text, tokens in [
            # one full-date token for three attributes
            (full, ["on", "2002-01-05", "."]),
            # a month name and a year, one attribute each
            ("(d / date-entity :month 1 :year 2002)", ["in", "January", "2002"]),
            # a full date and a month name in one span
            (mixed, ["from", "2002-01-05", "February", "on"]),
            # two full dates: six attributes on the narrowest width
            ("(d / date-entity :year 2002 :month 1 :day 5 :year 2003 "
             ":month 2 :day 6)", ["2002-01-05", "2003-02-06"]),
            # more attributes than the sentence has tokens
            (full, ["2002"]),
            (mixed, ["2002-01-05"])]:
        cases.append((parse_penman(text), tokens))
    for text, tokens in [
            # a name reached by another role, or from a date
            ('(s / see-01 :ARG1 (n / name :op1 "Mary"))', ["see", "Mary"]),
            ('(d / date-entity :year 2002 :name (n / name :op1 "X"))',
             ["2002", "X"]),
            # a minus reached by another role, a quantity of no number
            ("(s / say-01 :ARG1 -)", ["not", "say"]),
            ("(m / monetary-quantity :quant (m2 / many))", ["many"])]:
        cases.append((parse_penman(text), tokens))
    # a number that is also a name's value belongs to the name fragment
    shared = AmrGraph({"q": Concept("q", "quantity", VARIABLE),
                       "n": Concept("n", "name", VARIABLE),
                       "l": Concept("l", "5", ATTRIBUTE)},
                      [Relation("q", "l", ":quant"), Relation("n", "l", ":op1"),
                       Relation("q", "n", ":mod")], "q")
    cases.append((shared, ["5"]))
    for text, tokens in [
            # mixed case, number words and a zero-padded numeral
            ("(q / monetary-quantity :quant 7 :mod (b / Boy) :mod (t / two)"
             " :mod (d / dog))",
             ["SEVEN", "007", "Boys", "Two", "2", "DOGS", "Monetary", "BOY"]),
            # sense suffixes, one of Unicode digits, on concepts and names
            ("(f / freeze-\u0663 :ARG1 (k / Korea-01) :ARG2 (d / dog-01-02))",
             ["Frozen", "KOREAN", "froze", "Freeze", "korea", "dog-01", "Dog"]),
            ('(c / country :name (n / name :op1 "North-\u0663" :op2 "Korea"))',
             ["north", "KOREA", "North-\u0663", "Korea", "NORTH"]),
            # a hyphenated name value, which every rule compares as written
            ('(a / aircraft :name (n / name :op1 "F-16"))',
             ["The", "F-16", "f", "F", "f-16", "jets"])]:
        cases.append((parse_penman(text), tokens))
    return cases


@pytest.mark.parametrize("extended", [False, True])
def test_rule_widths_give_the_guarded_reference_records(extended):
    res = fixture_resources()
    rules = full_rule_set(res) if extended else base_rule_set()
    matching = [r for r in rules if r.kind == MATCHING]
    for graph, tokens in rule_shape_cases():
        records = collect_records(graph, tokens, matching, res)
        assert records == reference_matching_records(
            graph, tokens, res, extended), tokens


def test_each_call_normalizes_with_its_own_resources():
    graph = parse_penman("(f / freeze-01 :ARG1 (l / lake))")
    tokens = ["the", "lake", "froze"]
    froze = {AlignmentRecord(Span(2, 3))}
    lemmas = Resources(lemmas=LemmaTable({"froze": {"freeze"}}))
    for rules in (base_rule_set(), full_rule_set(Resources())):
        found = [collect_records(graph, tokens, rules, res)["f"]
                 for res in (lemmas, Resources(), lemmas)]
        assert found == [froze, set(), froze]
    embeddings = load_embeddings(fixture("resources", "embeddings.txt"))
    found = []
    for threshold in (0.7, 0.9, 0.7):
        res = Resources(embeddings=embeddings, cosine_threshold=threshold)
        found.append(collect_records(graph, ["the", "lake", "frozen"],
                                     full_rule_set(res), res)["f"])
    assert found == [froze, set(), froze]


def test_rich_rules_compare_name_values_as_written():
    # the value keeps its suffix, so a lone "f" or "north" is no match
    res = Resources()
    rules = extended_rule_set(res)
    cases = [('(a / aircraft :name (n / name :op1 "F-16"))',
              ["The", "F-16", "f", "F", "f-16", "jets"], [(1, 2), (4, 5)]),
             ('(c / country :name (n / name :op1 "North-\u0663" :op2 "Korea"))',
              ["north", "KOREA", "North-\u0663", "Korea", "NORTH"], [(2, 4)])]
    for text, tokens, spans in cases:
        records = collect_records(parse_penman(text), tokens, rules, res)
        assert records["n"] == {AlignmentRecord(Span(*s)) for s in spans}


def test_morph_rules_read_the_lemmas_handed_to_collect_records():
    graph = parse_penman("(a / act-01)")
    rules = extended_rule_set(Resources(morph=MorphLinkTable({("action", "act")})))
    lemmas = Resources(lemmas=LemmaTable({"actions": {"action"}}))
    # "actions" reaches the link only through its lemma "action"
    records = collect_records(graph, ["actions"], rules, lemmas)
    assert records["a"] == {AlignmentRecord(Span(0, 1))}
    records = collect_records(graph, ["actions"], rules)
    assert records["a"] == set()


def every_span_records(graph, tokens, rules):
    """Records of guarded matching rules, each asked about every span."""
    ctx = AlignmentContext(graph, tokens, None)
    spans = [Span(start, end) for start in range(len(tokens))
             for end in range(start + 1, len(tokens) + 1)]
    return {f.head: {AlignmentRecord(span) for rule in rules
                     if rule.kind == MATCHING for span in spans
                     if rule.match(f, span, ctx)}
            for f in graph.fragments.values()}


def updating_reference_cases():
    """(graph, tokens, rules, resources, every-span matching records): the
    rule shape cases under base and full rules, then the ad-hoc trigger
    cases."""
    res = fixture_resources()
    for graph, tokens in rule_shape_cases():
        for extended in (False, True):
            rules = full_rule_set(res) if extended else base_rule_set()
            yield graph, tokens, rules, res, reference_matching_records(
                graph, tokens, res, extended)
    for graph, tokens, rules in (chain_trigger_case(), overlap_trigger_case()):
        yield graph, tokens, rules, None, every_span_records(graph, tokens, rules)
    graph, tokens, rules = dead_end_case()
    yield graph, tokens, rules, None, reference_matching_records(graph, tokens)


def test_rule_triggers_give_the_all_pairs_reference_records():
    for graph, tokens, rules, res, matching in updating_reference_cases():
        records = collect_records(graph, tokens, rules, res)
        assert records == reference_updating_records(
            graph, tokens, matching, rules, res), tokens


# hooks that no pipeline stage calls any more: the candidate search checks
# legality without `is_legal` (ROADMAP item 3 moves the tracing into the
# library and deletes it)
STALE_HOOKS = {"align.is_legal"}


def test_benchmark_hook_targets_exist(tmp_path, capsys):
    tracing = bench_module("tracing")
    for module, attr, _, _ in tracing.HOOKS:
        assert hasattr(module, attr), (module.__name__, attr)
    # every live hook sees a call in the CLI chain, so a refactor that
    # stops calling a hooked name through its module shows here
    files = {name: str(tmp_path / name) for name in (
        "aligned.amr", "tuned.amr", "traces.txt", "model.json", "parsed.amr")}
    resources = ["--embeddings", fixture("resources", "embeddings.txt"),
                 "--morph", fixture("resources", "morph.tsv"),
                 "--lemmas", fixture("resources", "lemmas.tsv")]
    chain = [
        ["align", "-i", fixture("train_corpus.amr"),
         "-o", files["aligned.amr"]] + resources,
        ["tune", "-i", files["aligned.amr"], "-o", files["tuned.amr"]],
        ["oracle", "-i", files["tuned.amr"], "-o", files["traces.txt"]],
        ["train", "--traces", files["traces.txt"], "--model",
         files["model.json"], "--epochs", "2"],
        ["parse", "-i", fixture("train_corpus.amr"), "-o",
         files["parsed.amr"], "--model", files["model.json"]],
    ]
    tracer = tracing.Tracer()
    with tracer.instrument():
        for argv in chain:
            assert amrtk.cli.main(argv) == 0, (argv, capsys.readouterr().err)
    calls = {name: tracer.totals.get(name, [0])[0] + tracer.counts.get(name, 0)
             for _, _, name, _ in tracing.HOOKS}
    assert [name for name, n in calls.items()
            if not n and name not in STALE_HOOKS] == []


def test_resource_tests_looked_up_at_call_time(monkeypatch):
    res = figure_resources()
    rules = full_rule_set(res)
    calls = {"semantic_match": 0, "morph_match": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(amrtk.align, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(amrtk.align, name, counted)
    collect_records(parse_penman(FIGURE_TEXT), FIGURE_TOKENS, rules, res)
    # the counts of the guarded rules: 8 single concepts x 13 tokens, then
    # each of the 12 two-token spans for "North Korea" until a value fails
    assert calls == {"semantic_match": 116, "morph_match": 117}


def test_candidate_ordering_is_deterministic():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    first = enumerate_alignments(g, FIGURE_TOKENS, full_rule_set(res), resources=res)
    second = enumerate_alignments(g, FIGURE_TOKENS, full_rule_set(res), resources=res)
    assert list(first) == list(second)
    counts = [sum(1 for span in c.values() if span is None)
              for c in first]
    assert counts == sorted(counts)


def test_limit_truncates():
    g = parse_penman(FIGURE_TEXT)
    res = figure_resources()
    aset = enumerate_alignments(g, FIGURE_TOKENS, full_rule_set(res),
                                limit=1, resources=res)
    assert len(aset) == 1 and aset.truncated


def test_alignment_f1_identity():
    cand = {"c": Span(0, 1)}
    assert alignment_f1(cand, cand) == (1.0, 1.0, 1.0)


def test_alignment_f1_partial():
    gold = {h: Span(i, i + 1) for i, h in enumerate(["a", "b", "c", "d"])}
    pred = {"a": Span(0, 1), "b": Span(1, 2), "c": None, "d": None}
    p, r, f1 = alignment_f1(pred, gold)
    assert (p, r) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3)


def test_alignment_f1_boundary_error():
    gold = {h: Span(i, i + 1) for i, h in enumerate(["a", "b", "c", "d", "e"])}
    pred = dict(gold)
    pred["e"] = Span(4, 6)  # span boundary error
    p, r, f1 = alignment_f1(pred, gold)
    assert p == 0.8 and r == 0.8
    assert f1 == pytest.approx(0.8)


def test_alignment_f1_mismatched_graphs():
    c1 = dict.fromkeys(parse_penman("(c / country)").fragments)
    c2 = dict.fromkeys(parse_penman("(d / dog)").fragments)
    with pytest.raises(AlignmentInputError):
        alignment_f1(c1, c2)
    # a map over only some of the other's heads is refused too; maps over
    # the same heads are scored whatever they align
    with pytest.raises(AlignmentInputError):
        alignment_f1(c1, {"c": None, "d": None})
    assert alignment_f1({"c": Span(0, 1)}, c1) == (0.0, 0.0, 0.0)
