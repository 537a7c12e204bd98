import itertools
import random

import pytest

import amrtk.smatch
from amrtk.corpus import read_corpus
from amrtk.graph import ATTRIBUTE, AmrGraph, Concept, parse_penman
from amrtk.smatch import (
    SmatchSizeError, TripleSet, _held, _hill_climb, _label_init, _match_count,
    _move_gain, _random_init, _swap_gain, _weight_table, exhaustive_counts,
    exhaustive_smatch, score_counts, search_counts, smatch_counts,
    smatch_score, to_triples, triple_count, upper_bound,
)
from helpers import (
    fixture_text, perturbed_pair, random_graph, random_graph_pair,
    reference_hill_climb, reference_smatch_counts,
)

FIGURE_TEXT = """
(f / freeze-01
    :ARG0 (c / country :name (n / name :op1 "North" :op2 "Korea"))
    :ARG1 (a / act-01 :poss c :mod (n2 / nucleus))
    :ARG2-of (e / exchange-01
        :ARG1 (r / reactor :quant 2 :mod (n3 / nucleus))))
"""

# FIGURE_TEXT with one concept relabeled, one edge re-roled and one
# attribute changed
FIGURE_PERTURBED = """
(f / freeze-01
    :ARG0 (c / country :name (n / name :op1 "North" :op2 "Korea"))
    :ARG1 (a / act-01 :mod c :mod (n2 / nucleus))
    :ARG2-of (e / exchange-01
        :ARG1 (r / plant :quant 3 :mod (n3 / nucleus))))
"""


def test_triples_single_concept():
    ts = to_triples(parse_penman("(c / country)"))
    assert ts.instances == {("c", "instance", "country")}
    assert ts.attributes == {("c", "TOP", "country")}
    assert not ts.relations


def test_triples_count_matches_structure():
    g = parse_penman(FIGURE_TEXT)
    ts = to_triples(g)
    assert triple_count(ts) == len(g.var_ids()) + len(g.relations) + 1


def test_triples_reentrancy():
    g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
    ts = to_triples(g)
    shared = [t for t in ts.relations if t[2] == "b"]
    assert len(shared) == 2
    assert sum(1 for t in ts.instances if t[0] == "b") == 1


def test_identity_scores_one():
    for text in ["(c / country)", FIGURE_TEXT,
                 "(s / sleep-01 :polarity - :ARG0 (i / i))"]:
        g = parse_penman(text)
        assert smatch_score(g, g).f1 == pytest.approx(1.0)


def test_disjoint_labels_score_zero():
    a = parse_penman("(a / apple)")
    b = parse_penman("(b / banana)")
    assert smatch_score(a, b).f1 == 0.0


def test_subset_gives_perfect_precision():
    full = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02))")
    partial = parse_penman("(w / want-01 :ARG0 (b / boy))")
    score = exhaustive_smatch(partial, full)
    assert score.precision == pytest.approx(1.0)
    assert score.recall < 1.0


def test_search_needs_a_restart():
    g = parse_penman("(b / boy)")
    with pytest.raises(ValueError, match=r"^restarts must be >= 1$"):
        search_counts(g, g, restarts=0)


def test_exhaustive_guard():
    rng = random.Random(7)
    big = random_graph(rng, 10)
    with pytest.raises(SmatchSizeError):
        exhaustive_smatch(big, big)


def test_hill_climbing_matches_exhaustive_on_small_pairs():
    rng = random.Random(42)
    agree = 0
    for _ in range(60):
        a, b = random_graph_pair(rng, max_vars=5)
        hc = smatch_score(a, b, restarts=4, seed=11).f1
        ex = exhaustive_smatch(a, b).f1
        assert hc <= ex + 1e-12
        if abs(hc - ex) < 1e-9:
            agree += 1
    assert agree >= 57  # 95%


def test_exhaustive_symmetric_f1():
    rng = random.Random(3)
    for _ in range(25):
        a, b = random_graph_pair(rng, max_vars=4)
        assert exhaustive_smatch(a, b).f1 == pytest.approx(
            exhaustive_smatch(b, a).f1, abs=1e-12)


def test_adding_correct_triple_never_lowers_match():
    # growing candidate toward the reference increases the matched count
    reference = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
    stages = [
        "(w / want-01)",
        "(w / want-01 :ARG0 (b / boy))",
        "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02))",
        "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))",
    ]
    last = -1.0
    for text in stages:
        score = exhaustive_smatch(parse_penman(text), reference)
        assert score.recall >= last
        last = score.recall


def test_seeded_determinism():
    rng = random.Random(5)
    a, b = random_graph_pair(rng, max_vars=5)
    first = smatch_score(a, b, restarts=4, seed=99)
    second = smatch_score(a, b, restarts=4, seed=99)
    assert first == second


# (x / a :r (y / b)) against its reverse: the bound counts the :r relation,
# which no mapping that keeps the labels can match, so every start climbs
REVERSED_PAIR = ("(x / a :r (y / b))", "(y / b :r (x / a))")


def test_hill_climb_recounts_once_per_start(monkeypatch):
    # gains come from the weight table; only each start is counted in full.
    # The FIGURE pair reaches its bound in the first climb; the reversed
    # pair never does, so all 1 + restarts starts climb
    calls = []
    climbed = []

    def counting(ta, tb, mapping):
        calls.append(1)
        return _match_count(ta, tb, mapping)

    def climbing(*args):
        climbed.append(1)
        return _hill_climb(*args)

    monkeypatch.setattr(amrtk.smatch, "_match_count", counting)
    monkeypatch.setattr(amrtk.smatch, "_hill_climb", climbing)
    for texts, counts, climbs in (
            ((FIGURE_TEXT, FIGURE_PERTURBED), (17, 20, 20), 1),
            (REVERSED_PAIR, (2, 4, 4), 5)):
        calls.clear()
        climbed.clear()
        a, b = (parse_penman(text) for text in texts)
        matched, n_a, n_b = smatch_counts(a, b, restarts=4)
        assert (matched, n_a, n_b) == counts
        assert 0 < matched < min(n_a, n_b)
        assert len(calls) <= 5
        assert len(climbed) == climbs


def test_reversed_pair_stays_below_its_bound():
    a, b = (parse_penman(text) for text in REVERSED_PAIR)
    assert upper_bound(to_triples(a), to_triples(b)) == 3
    assert exhaustive_counts(a, b)[0] == 2
    assert not search_counts(a, b).certified


def test_search_equals_reference_search():
    # stopping at the bound returns the counts of climbing every start
    rng = random.Random(29)
    certified = 0
    for max_vars in (3, 5, 7):
        for restarts, seed in ((4, 1), (2, 7), (1, 3)):
            for _ in range(250):
                a, b = random_graph_pair(rng, max_vars=max_vars)
                found = search_counts(a, b, restarts=restarts, seed=seed)
                assert found[:3] == smatch_counts(a, b, restarts, seed) == \
                    reference_smatch_counts(a, b, restarts=restarts, seed=seed)
                certified += found.certified
    # both outcomes are exercised
    assert 0 < certified < 2250


def test_upper_bound_bounds_exhaustive_and_certifies_it():
    rng = random.Random(31)
    pairs = [random_graph_pair(rng, max_vars=5) for _ in range(200)]
    pairs += [perturbed_pair(rng, rng.randint(2, 6)) for _ in range(100)]
    certified = 0
    for a, b in pairs:
        bound = upper_bound(to_triples(a), to_triples(b))
        counts = exhaustive_counts(a, b)
        exact = counts.matched
        assert bound >= exact
        found = search_counts(a, b, restarts=4, seed=1)
        # either graph may be the larger: each order counts its own totals
        assert counts[1:3] == found[1:3]
        assert exhaustive_counts(b, a) == \
            (exact, counts.total_b, counts.total_a, counts.certified)
        assert found.certified == (found.matched == bound)
        if found.certified:
            certified += 1
            assert found.matched == exact
    assert certified >= 50


def test_f1_never_falls_as_the_matched_count_rises():
    # the premise of `oracle.tune`'s skips: the F1 of the `upper_bound`
    # count bounds the F1 of every count below it, and no F1 exceeds 1.0
    for n_a in range(31):
        for n_b in range(31):
            f1s = [score_counts(matched, n_a, n_b, False).f1
                   for matched in range(min(n_a, n_b) + 1)]
            assert f1s == sorted(f1s)
            assert f1s[-1] <= 1.0
            assert (f1s[-1] == 1.0) == (n_a == n_b > 0)


def test_certified_pair_builds_no_weight_table(monkeypatch):
    tables = []

    def counting(*args):
        tables.append(1)
        return _weight_table(*args)

    monkeypatch.setattr(amrtk.smatch, "_weight_table", counting)
    figure = parse_penman(FIGURE_TEXT)
    score = smatch_score(figure, figure)
    assert score.certified and score.f1 == 1.0
    assert not tables
    score = smatch_score(*(parse_penman(text) for text in REVERSED_PAIR))
    assert not score.certified
    assert len(tables) == 1


def test_hill_climb_matches_recount_reference():
    rng = random.Random(17)
    graphs = [doc.graph for doc in read_corpus(fixture_text("graphs.amr"))]
    pairs = [(a, b) for a in graphs for b in graphs]
    pairs += [perturbed_pair(rng, rng.randint(8, 15)) for _ in range(30)]
    pairs += [(random_graph(rng, rng.randint(8, 15)),
               random_graph(rng, rng.randint(8, 15))) for _ in range(20)]
    unequal = 0
    for a, b in pairs:
        ta, tb = to_triples(a), to_triples(b)
        vars_a, vars_b = a.var_ids(), b.var_ids()
        table = _weight_table(ta, tb, vars_a, vars_b)
        unequal += len(vars_a) != len(vars_b)
        labels_a = {v: a.concept(v).label for v in vars_a}
        labels_b = {v: b.concept(v).label for v in vars_b}
        starts = [_label_init(vars_a, vars_b, labels_a, labels_b)]
        starts += [_random_init(vars_a, vars_b, rng) for _ in range(2)]
        partial = _random_init(vars_a, vars_b, rng)
        for va in rng.sample(list(partial), len(partial) // 3):
            del partial[va]
        starts.append(partial)
        for start in starts:
            assert _hill_climb(vars_a, dict(start), table,
                               _match_count(ta, tb, start)) == \
                reference_hill_climb(ta, tb, vars_a, vars_b, dict(start))
    # unequal variable counts leave some variables unmapped, which is
    # where the order of the swaps decides ties
    assert unequal >= 200


def _assert_gains_match_recounts(ta, tb, vars_a, vars_b, mapping):
    table = _weight_table(ta, tb, vars_a, vars_b)
    held = _held(table, mapping)
    base = _match_count(ta, tb, mapping)
    used = set(mapping.values())
    for va in vars_a:
        for vb in vars_b + [None]:
            if vb in used and vb != mapping.get(va):
                continue
            moved = dict(mapping)
            if vb is None:
                moved.pop(va, None)
            else:
                moved[va] = vb
            assert _move_gain(table, mapping, held, va, vb) == \
                _match_count(ta, tb, moved) - base
    for va1, va2 in itertools.combinations(mapping, 2):
        swapped = dict(mapping)
        swapped[va1], swapped[va2] = mapping[va2], mapping[va1]
        assert _swap_gain(table, mapping, held, va1, va2) == \
            _match_count(ta, tb, swapped) - base


def test_move_and_swap_gains_equal_recount_differences():
    rng = random.Random(23)
    literal_root = AmrGraph({"k": Concept("k", "2", ATTRIBUTE)}, [], "k")
    graphs = [parse_penman(text) for text in (
        '(a / "x")', "(x / x)", FIGURE_TEXT, FIGURE_PERTURBED,
        "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")]
    graphs.append(literal_root)
    pairs = [(a, b) for a in graphs for b in graphs]
    pairs += [perturbed_pair(rng, rng.randint(8, 15)) for _ in range(10)]
    pairs += [random_graph_pair(rng, max_vars=9) for _ in range(10)]
    for a, b in pairs:
        ta, tb = to_triples(a), to_triples(b)
        vars_a, vars_b = a.var_ids(), b.var_ids()
        for _ in range(3):
            mapping = _random_init(vars_a, vars_b, rng)
            for va in rng.sample(list(mapping), len(mapping) // 4):
                del mapping[va]
            _assert_gains_match_recounts(ta, tb, vars_a, vars_b, mapping)
    # the Penman reader rejects self-loops; the table still counts them
    ta = TripleSet({("a", "instance", "x"), ("b", "instance", "y")},
                   {("a", "TOP", "x")},
                   {("a", ":mod", "a"), ("a", ":ARG0", "b")})
    tb = TripleSet({("p", "instance", "x"), ("q", "instance", "y"),
                    ("r", "instance", "x")},
                   {("r", "TOP", "x")},
                   {("p", ":mod", "p"), ("r", ":ARG0", "q"), ("q", ":mod", "q")})
    for image in itertools.permutations(["p", "q", "r", None], 2):
        mapping = {va: vb for va, vb in zip("ab", image) if vb is not None}
        _assert_gains_match_recounts(ta, tb, ["a", "b"], ["p", "q", "r"], mapping)
