import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from aranlp import synonymy
from aranlp.errors import (
    AranlpError,
    DuplicateSeed,
    EmptyInput,
    MalformedRow,
    SeedNotInGraphWarning,
    UnknownLanguageCode,
)
from aranlp.synonymy import (
    FuzzyResult,
    TermNode,
    _cycle_member_ids,
    build_graph,
    graph_from_pairs,
    syn_eval,
    syn_extract,
)


from _oracles import (
    digraph_as_graph as as_graph,
    one_object_per_value,
    oracle_cycle_scores as oracle_scores,
    random_digraph as random_graph,
    reference_cycle_members,
    reference_graph_from_pairs,
    reference_syn_eval,
    sparse_digraph,
)


class TestBuildGraph:
    def test_fixture_counts(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "طريق\tar\troad\ten\tlex1\t0\n"
            "road\ten\tسبيل\tar\tlex1\t0\n"
            "سبيل\tar\tطريق\tar\tlex1\t0\n",
            encoding="utf-8",
        )
        graph = build_graph(path)
        assert graph.node_count == 3
        assert graph.edge_count == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("", encoding="utf-8")
        graph = build_graph(path)
        assert graph.node_count == 0
        assert graph.edge_count == 0

    def test_duplicate_rows_collapse_with_merged_labels(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "a\tar\tb\tar\tlex1\t0\na\tar\tb\tar\tlex2\t0\n", encoding="utf-8"
        )
        graph = build_graph(path)
        assert graph.edge_count == 1
        key = (TermNode("a", "ar"), TermNode("b", "ar"))
        assert graph.edge_labels[key] == frozenset({"lex1", "lex2"})

    def test_symmetric_row_expands(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tar\tb\tar\tlex1\t1\n", encoding="utf-8")
        assert build_graph(path).edge_count == 2

    def test_self_loop_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tar\ta\tar\tlex1\t0\n", encoding="utf-8")
        graph = build_graph(path)
        assert graph.edge_count == 0
        assert graph.node_count == 1

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tar\tb\tar\tlex1\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            build_graph(path)

    def test_equal_terms_are_one_node(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "طريق\tar\troad\ten\tlex1\t1\n"
            "road\ten\tسبيل\tar\tlex1\t0\n"
            "سبيل\tar\tطريق\tar\tlex2\t0\n"
            "road\ten\tطريق\tar\tlex2\t0\n",
            encoding="utf-8",
        )
        handed = []
        build = synonymy.graph_from_pairs

        def spy(pairs):
            handed.extend(pairs)
            return build(handed)

        monkeypatch.setattr(synonymy, "graph_from_pairs", spy)
        graph = build_graph(path)
        assert one_object_per_value(node for src, dst, _, _ in handed for node in (src, dst))
        assert graph.node_count == 3

    def test_unknown_language_code(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tArabic\tb\tar\tlex1\t0\n", encoding="utf-8")
        with pytest.raises(UnknownLanguageCode):
            build_graph(path)


class TestSynExtract:
    def test_fixture_cycle(self, pair_graph):
        results = syn_extract(["طريق"], 2, pair_graph)
        assert results == [FuzzyResult(TermNode("سبيل", "ar"), Fraction(1, 1))]

    def test_isolated_seed(self, pair_graph):
        assert syn_extract(["قطة"], 2, pair_graph) == []

    def test_partial_support_is_half(self):
        a, b, c = (TermNode(s, "ar") for s in "abc")
        graph = graph_from_pairs(
            [(a, c, "lex", True), (b, b, "lex", False)]  # a <-> c cycle, b isolated
        )
        results = syn_extract(["a", "b"], 2, graph)
        assert results == [FuzzyResult(c, Fraction(1, 2))]

    def test_all_seeds_absent(self, pair_graph):
        with pytest.warns(SeedNotInGraphWarning):
            assert syn_extract(["غائب"], 2, pair_graph) == []

    def test_absent_seed_warns_but_counts_in_denominator(self, pair_graph):
        with pytest.warns(SeedNotInGraphWarning):
            results = syn_extract(["طريق", "غائب"], 2, pair_graph)
        assert results == [FuzzyResult(TermNode("سبيل", "ar"), Fraction(1, 2))]

    def test_language_filter(self, pair_graph):
        surfaces = {r.term.surface for r in syn_extract(["طريق"], 3, pair_graph)}
        assert "road" not in surfaces

    def test_duplicate_seed(self, pair_graph):
        with pytest.raises(DuplicateSeed):
            syn_extract(["طريق", "طريق"], 2, pair_graph)

    def test_duplicate_seeds_are_all_named(self, pair_graph):
        with pytest.raises(DuplicateSeed) as info:
            syn_extract(["طريق", "سبيل", "طريق", "قطة", "سبيل"], 2, pair_graph)
        assert str(info.value) == "duplicated term(s): ['سبيل', 'طريق']"

    def test_empty_seeds(self, pair_graph):
        with pytest.raises(EmptyInput):
            syn_extract([], 2, pair_graph)

    def test_level_monotonicity(self):
        rng = random.Random(29)
        for _ in range(80):
            nodes, edges = random_graph(rng)
            graph = as_graph(nodes, edges)
            seeds = [n.surface for n in nodes if n.language == "ar"][:2]
            if not seeds:
                continue
            level2 = {r.term for r in syn_extract(seeds, 2, graph, "ar")}
            level3 = {r.term for r in syn_extract(seeds, 3, graph, "ar")}
            assert level2 <= level3

    def test_ordering_is_total(self):
        a, b, c, d = (TermNode(s, "ar") for s in "abcd")
        graph = graph_from_pairs([
            (a, b, "lex", True), (a, c, "lex", True), (a, d, "lex", True),
        ])
        results = syn_extract(["a"], 2, graph)
        assert [r.term.surface for r in results] == ["b", "c", "d"]

    def test_oracle_equivalence_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(60):
            nodes, edges = random_graph(rng)
            graph = as_graph(nodes, edges)
            candidates = [n for n in nodes if n.language == "ar"]
            if not candidates:
                continue
            seeds = [n.surface for n in rng.sample(candidates, min(len(candidates), 2))]
            level = rng.choice((2, 3))
            mine = {r.term: r.score for r in syn_extract(seeds, level, graph, "ar")}
            seed_nodes = [TermNode(s, "ar") for s in seeds]
            assert mine == oracle_scores(nodes, edges, seed_nodes, level, "ar")

    def test_networkx_cross_check(self):
        import networkx as nx

        rng = random.Random(43)
        seen = Counter()
        for index in range(90):
            if index < 30:
                nodes, edges = random_graph(rng)
            else:
                nodes, edges = sparse_digraph(rng, max_nodes=30)
            graph = as_graph(nodes, edges)
            candidates = [n for n in nodes if n.language == "ar"]
            if not candidates:
                continue
            seed = candidates[0]
            dig = nx.DiGraph()
            dig.add_nodes_from(nodes)
            dig.add_edges_from(edges)
            for level in (1, 2, 3, 4):
                members = set()
                for cycle in nx.simple_cycles(dig, length_bound=2 * level):
                    if seed in cycle:
                        members.update(cycle)
                members.discard(seed)
                expected = {
                    node: Fraction(1, 1)
                    for node in members
                    if node.language == "ar"
                }
                mine = {r.term: r.score for r in syn_extract([seed.surface], level, graph, "ar")}
                assert mine == expected
                seen[f"level {level}"] += bool(expected)
            seen["over 20 nodes"] += len(nodes) > 20
        assert all(seen[key] for key in (
            "level 1", "level 2", "level 3", "level 4", "over 20 nodes",
        )), seen


class TestSynEval:
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("action, terms", [
        ("extract", ["طريق", "قطة"]),
        ("eval", ["طريق", "سبيل", "قطة"]),
    ])
    def test_results_render_the_syn_goldens(self, action, terms, level, pair_graph, data_dir):
        run = syn_extract if action == "extract" else syn_eval
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run(terms, level, pair_graph)
        for render, suffix in (("render_text", "txt"), ("render_records", "jsonl")):
            golden = data_dir / f"syn_{action}_level{level}_expected.{suffix}"
            assert "".join(getattr(r, render)() + "\n" for r in results) == golden.read_text(
                "utf-8")

    def test_a_third_renders_two_decimals_of_percent_and_a_full_float(self):
        result = FuzzyResult(TermNode("قطة", "ar"), Fraction(1, 3))
        assert result.render_text() == "قطة\t33.33%"
        assert result.render_records() == (
            '{"surface": "قطة", "language": "ar", "score": 0.3333333333333333}')

    def test_fixture_scores(self, pair_graph):
        results = syn_eval(["طريق", "سبيل", "قطة"], 2, pair_graph)
        scores = {r.term.surface: r.score for r in results}
        assert scores == {
            "طريق": Fraction(1, 2),
            "سبيل": Fraction(1, 2),
            "قطة": Fraction(0, 1),
        }

    def test_mutual_cycle_scores_one(self):
        a, b = TermNode("a", "ar"), TermNode("b", "ar")
        graph = graph_from_pairs([(a, b, "lex", True)])
        results = syn_eval(["a", "b"], 2, graph)
        assert all(r.score == 1 for r in results)

    def test_duplicate_term(self, pair_graph):
        with pytest.raises(DuplicateSeed):
            syn_eval(["طريق", "طريق"], 2, pair_graph)

    def test_duplicate_terms_are_all_named(self, pair_graph):
        with pytest.raises(DuplicateSeed) as info:
            syn_eval(["قطة", "طريق", "سبيل", "سبيل", "طريق"], 2, pair_graph)
        assert str(info.value) == "duplicated term(s): ['سبيل', 'طريق']"

    def test_requires_two_terms(self, pair_graph):
        with pytest.raises(EmptyInput):
            syn_eval(["طريق"], 2, pair_graph)

    def test_all_terms_returned(self, pair_graph):
        results = syn_eval(["طريق", "قطة"], 2, pair_graph)
        assert {r.term.surface for r in results} == {"طريق", "قطة"}

    def test_matches_extract_per_term(self, pair_graph):
        terms = ["طريق", "سبيل", "قطة"]
        results = {r.term.surface: r.score for r in syn_eval(terms, 2, pair_graph)}
        for term in terms:
            others = [t for t in terms if t != term]
            extracted = {
                r.term.surface: r.score for r in syn_extract(others, 2, pair_graph)
            }
            assert results[term] == extracted.get(term, Fraction(0, 1))

    def test_percent_rendering(self):
        result = FuzzyResult(TermNode("x", "ar"), Fraction(1, 2))
        assert result.percent == "50.00%"


def _outcome(call, *args):
    """The call's result, or the type and message of what it raised, plus
    the text, category and file of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call(*args)
        except (AranlpError, ValueError) as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(str(w.message), w.category, w.filename) for w in caught]


def _random_query(rng, nodes):
    """Surfaces from the graph and absent ones in one language, sometimes
    with a repeat, at level 0 (invalid) to 3."""
    pool = [n.surface for n in nodes] + ["absent1", "absent2"]
    terms = rng.sample(pool, rng.randint(1, min(5, len(pool))))
    if rng.random() < 0.1:
        terms.append(rng.choice(terms))
    level = 0 if rng.random() < 0.05 else rng.randint(1, 3)
    return terms, level, rng.choice(("ar", "en"))


class TestSeedSupport:
    """syn_extract and syn_eval share one count; both keep the results,
    errors and warnings of the code they replace."""

    def test_syn_eval_matches_the_all_pairs_reference(self):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(400):
            nodes, edges = random_graph(rng)
            graph = as_graph(nodes, edges)
            terms, level, language = _random_query(rng, nodes)
            mine, mine_warnings = _outcome(syn_eval, terms, level, graph, language)
            reference, reference_warnings = _outcome(
                reference_syn_eval, terms, level, graph, language
            )
            assert mine == reference
            assert mine_warnings == reference_warnings
            assert all(
                text.startswith("term ") and category is SeedNotInGraphWarning
                and filename == __file__
                for text, category, filename in mine_warnings
            )
            if isinstance(mine, tuple):
                seen[mine[0]] += 1
            else:
                seen[f"level {level}"] += 1
                seen["positive"] += any(r.score > 0 for r in mine)
            seen["warned"] += bool(mine_warnings)
        assert all(seen[key] for key in (
            ValueError, EmptyInput, DuplicateSeed, "level 1", "level 2", "level 3",
            "positive", "warned",
        )), seen

    def test_syn_extract_matches_the_cycle_oracle(self):
        rng = random.Random(67)
        seen = Counter()
        for _ in range(300):
            nodes, edges = random_graph(rng, max_nodes=6)
            graph = as_graph(nodes, edges)
            terms, level, language = _random_query(rng, nodes)
            mine, mine_warnings = _outcome(syn_extract, terms, level, graph, language)
            duplicates = sorted(t for t, n in Counter(terms).items() if n > 1)
            if level < 1:
                assert mine == (ValueError, f"level must be a positive integer, got {level}")
            elif duplicates:
                assert mine == (DuplicateSeed, f"duplicated term(s): {duplicates}")
            else:
                seed_nodes = [TermNode(t, language) for t in terms]
                expected = oracle_scores(nodes, edges, seed_nodes, level, language)
                assert mine == [
                    FuzzyResult(node, score) for node, score
                    in sorted(expected.items(), key=lambda item: (-item[1], item[0].surface))
                ]
                assert mine_warnings == [
                    (f"seed {t!r} ({language}) is not in the graph", SeedNotInGraphWarning,
                     __file__)
                    for t in terms if TermNode(t, language) not in nodes
                ]
                seen["positive"] += bool(mine)
                seen["warned"] += bool(mine_warnings)
                continue
            assert mine_warnings == []
        assert seen["positive"] and seen["warned"], seen


class TestLevel:
    @pytest.mark.parametrize("level, shown", [
        (2.5, "2.5"), (2.0, "2.0"), ("2", "'2'"), (None, "None"), (True, "True"),
        (False, "False"), (0, "0"), (-1, "-1"),
    ])
    @pytest.mark.parametrize("call", [syn_extract, syn_eval])
    def test_level_that_is_not_a_positive_int_is_rejected(self, call, level, shown, pair_graph):
        outcome, caught = _outcome(call, ["طريق", "سبيل"], level, pair_graph)
        assert outcome == (ValueError, f"level must be a positive integer, got {shown}")
        assert caught == []


def _random_rows(rng):
    """Pair rows over up to 30 nodes, with self-loops, symmetric rows and
    repeated (source, target) rows under the same or another lexicon."""
    count = rng.randint(1, 30)
    nodes = [TermNode(f"n{i}", rng.choice(("ar", "en"))) for i in range(count)]
    rows = []
    for _ in range(int(count * rng.uniform(0.4, 1.4))):
        src = rng.choice(nodes)
        dst = src if rng.random() < 0.05 else rng.choice(nodes)
        rows.append((src, dst, rng.choice(("lex1", "lex2", "lex3")), rng.random() < 0.3))
        if rng.random() < 0.1:
            rows.append(rng.choice(rows))
    return nodes, rows


def _cycles_through(graph, seed, max_length):
    """Each simple cycle through the seed of at most max_length edges, as
    its vertices from the seed on; for coverage counts only."""
    def walk(path):
        for nxt in graph.outgoing(path[-1]):
            if nxt == seed:
                if len(path) >= 2:
                    yield tuple(path)
            elif nxt not in path and len(path) < max_length:
                yield from walk(path + [nxt])

    return list(walk([seed]))


def _cycle_members(graph, seed, max_length):
    """_cycle_member_ids mapped to nodes; a seed absent from the graph has
    no members."""
    start = graph._node_ids.get(seed)
    if start is None:
        return set()
    return {graph._nodes_by_id[i] for i in _cycle_member_ids(graph, start, max_length)}


class TestIntegerIndex:
    """graph_from_pairs and _cycle_member_ids keep the public fields and
    the member sets of the TermNode-keyed code they replace."""

    def test_public_fields_match_the_reference_builder(self):
        rng = random.Random(71)
        seen = Counter()
        for _ in range(300):
            nodes, rows = _random_rows(rng)
            graph = graph_from_pairs(rows)
            expected_nodes, expected_successors, expected_labels = reference_graph_from_pairs(rows)
            assert graph.nodes == expected_nodes
            assert list(graph.successors.items()) == list(expected_successors.items())
            assert list(graph.edge_labels.items()) == list(expected_labels.items())
            # the id index: ids in order of first appearance, adjacency as outgoing
            order = list(dict.fromkeys(n for src, dst, _, _ in rows for n in (src, dst)))
            assert list(graph._nodes_by_id) == order
            assert graph._node_ids == {node: i for i, node in enumerate(order)}
            assert len(graph._adjacency) == graph.node_count
            for node, i in graph._node_ids.items():
                assert tuple(graph._nodes_by_id[j] for j in graph._adjacency[i]) == (
                    graph.outgoing(node)
                )
            # the predecessor index: every id with an edge into i, once
            assert len(graph._predecessors) == graph.node_count
            for i, sources in enumerate(graph._predecessors):
                into = graph._nodes_by_id[i]
                assert len(sources) == len(set(sources))
                assert {graph._nodes_by_id[j] for j in sources} == {
                    src for src, dst in graph.edge_labels if dst == into
                }
            pairs = Counter((src, dst) for src, dst, _, _ in rows)
            seen["repeated row"] += any(n > 1 for n in pairs.values())
            seen["symmetric"] += any(symmetric for *_, symmetric in rows)
            seen["self-loop"] += any(src == dst for src, dst, _, _ in rows)
            seen["merged labels"] += any(len(v) > 1 for v in graph.edge_labels.values())
            seen["node without edges"] += graph.node_count > len(
                {n for edge in graph.edge_labels for n in edge}
            )
        assert all(seen[key] for key in (
            "repeated row", "symmetric", "self-loop", "merged labels", "node without edges",
        )), seen

    def test_equal_label_sets_are_one_object(self):
        rng = random.Random(79)
        shared = 0
        for _ in range(100):
            nodes, rows = _random_rows(rng)
            labels = list(graph_from_pairs(rows).edge_labels.values())
            _, _, expected = reference_graph_from_pairs(rows)
            assert labels == list(expected.values())  # equal to fresh frozensets
            assert all(type(label) is frozenset for label in labels)
            assert len({id(label) for label in labels}) == len(set(labels))
            shared += len(set(labels)) < len(labels)
        assert shared

    def test_graph_is_unhashable_by_declaration(self):
        graph = graph_from_pairs([(TermNode("a", "ar"), TermNode("b", "ar"), "l", True)])
        with pytest.raises(TypeError, match="unhashable type: 'SynonymyGraph'"):
            hash(graph)
        assert graph == graph_from_pairs([(TermNode("a", "ar"), TermNode("b", "ar"), "l", True)])

    def test_graphs_differing_only_in_ids_are_equal(self):
        a, b, c = (TermNode(s, "ar") for s in "abc")
        rows = [(a, b, "lex", True), (b, c, "lex", False), (c, a, "lex", False)]
        forward, backward = graph_from_pairs(rows), graph_from_pairs(rows[::-1])
        assert forward._node_ids != backward._node_ids
        assert forward == backward
        assert forward._predecessors != backward._predecessors
        for name in ("_nodes_by_id", "_node_ids", "_adjacency", "_predecessors"):
            assert name not in repr(forward)

    def test_cycle_members_match_the_recursive_reference(self):
        rng = random.Random(73)
        seen = Counter()
        for _ in range(400):
            nodes, rows = _random_rows(rng)
            graph = graph_from_pairs(rows)
            seeds = rng.sample(nodes, min(len(nodes), 4)) + [TermNode("absent", "ar")]
            for seed in seeds:
                unbounded = reference_cycle_members(graph, seed, len(nodes) + 1)
                for max_length in range(0, 9):
                    mine = _cycle_members(graph, seed, max_length)
                    assert mine == reference_cycle_members(graph, seed, max_length)
                    cycles = _cycles_through(graph, seed, max_length)
                    seen["result"] += bool(mine)
                    seen["2-cycle"] += any(len(cycle) == 2 for cycle in cycles)
                    seen["cycle at the bound"] += any(len(cycle) == max_length for cycle in cycles)
                    seen["shared vertex"] += any(
                        set(x[1:]) & set(y[1:]) for x in cycles for y in cycles if x != y
                    )
                    seen["longer than the bound"] += bool(unbounded - mine)
        assert all(seen[key] for key in (
            "result", "2-cycle", "cycle at the bound", "shared vertex", "longer than the bound",
        )), seen

    def test_closing_steps_follow_edges_into_the_seed(self):
        # the triangle s -> a -> b -> s, and a spur s -> c with no way back
        s, a, b, c = (TermNode(x, "ar") for x in "sabc")
        graph = graph_from_pairs(
            [(s, a, "lex", False), (a, b, "lex", False), (b, s, "lex", False),
             (s, c, "lex", False)]
        )
        assert _cycle_members(graph, s, 2) == set()
        assert _cycle_members(graph, s, 3) == {a, b}
        for max_length in range(0, 9):
            assert c not in _cycle_members(graph, s, max_length)

    def test_deep_cycle_needs_no_recursion(self):
        # one directed cycle a0 -> a1 -> ... -> a1499 -> a0
        ring = [TermNode(f"a{i}", "ar") for i in range(1500)]
        graph = graph_from_pairs(
            [(ring[i], ring[(i + 1) % len(ring)], "lex", False) for i in range(len(ring))]
        )
        results = syn_extract(["a0"], 800, graph)
        assert len(results) == 1499
        assert {r.term for r in results} == set(ring[1:])
        assert all(r.score == 1 for r in results)
        assert syn_extract(["a0"], 749, graph) == []
