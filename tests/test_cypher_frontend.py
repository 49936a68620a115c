"""Tests for the Cypher lexer, parser, binder, and end-to-end execution."""

import time

import pytest

from repro.errors import CypherSyntaxError, CypherUnsupportedError, PlanError
from repro.frontend.cypher import compile_cypher, parse_cypher
from repro.frontend.cypher import ast
from repro.frontend.cypher.lexer import TokenType, normalize, tokenize
from repro.plan import (
    Aggregate,
    Expand,
    Filter,
    GetProperty,
    Limit,
    NodeByIdSeek,
    NodeScan,
    OrderBy,
    plan_summary,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("match RETURN Where")
        assert [t.value for t in tokens[:-1]] == ["MATCH", "RETURN", "WHERE"]

    def test_identifiers(self):
        tokens = tokenize("foo _bar x1")
        assert all(t.type is TokenType.IDENT for t in tokens[:-1])

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].type is TokenType.INT
        assert tokens[1].type is TokenType.FLOAT

    def test_range_not_a_float(self):
        tokens = tokenize("1..2")
        assert [t.value for t in tokens[:-1]] == ["1", "..", "2"]

    def test_strings_with_both_quotes(self):
        assert tokenize("'ab'")[0].value == "ab"
        assert tokenize('"cd"')[0].value == "cd"

    def test_string_escape(self):
        assert tokenize(r"'a\'b'")[0].value == "a'b"

    def test_unterminated_string(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("'oops")

    def test_params(self):
        token = tokenize("$personId")[0]
        assert token.type is TokenType.PARAM and token.value == "personId"

    def test_empty_param_rejected(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("$ x")

    def test_two_char_symbols(self):
        tokens = tokenize("<= >= <> -> <-")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "<>", "->", "<-"]

    def test_comment_skipped(self):
        tokens = tokenize("MATCH // a comment\nRETURN")
        assert [t.value for t in tokens[:-1]] == ["MATCH", "RETURN"]

    def test_junk_rejected(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("MATCH @")

    def test_non_ascii_digit_is_not_a_number(self):
        # '²'.isdigit() is True, and int('²3') raises a bare ValueError.
        text = "MATCH (p:Person) WHERE p.age > ²3 RETURN id(p)"
        with pytest.raises(CypherSyntaxError, match="unexpected character") as err:
            tokenize(text)
        assert err.value.position == text.index("²")

    def test_non_ascii_limit_rejected(self):
        # int('٣') == 3, so this LIMIT used to be read silently.
        text = "MATCH (p:Person) RETURN id(p) LIMIT ٣"
        with pytest.raises(CypherSyntaxError) as err:
            tokenize(text)
        assert err.value.position == text.index("٣")

    def test_positions_and_eof(self):
        tokens = tokenize("  a.b  // c\n$x ")
        assert [(t.value, t.position) for t in tokens] == [
            ("a", 2), (".", 3), ("b", 4), ("x", 12), ("", 15)
        ]

    def test_trailing_whitespace_is_linear(self):
        # A regex scan retried at each trailing blank is quadratic: 3,000
        # blanks took seconds that way, against well under a millisecond.
        text = "MATCH (p) WHERE p.a = 1" + " " * 3000
        started = time.perf_counter()
        assert tokenize(text)[-1].position == len(text)
        assert normalize(text)[1] == {"__lit0": 1}
        assert time.perf_counter() - started < 0.25

    def test_error_positions(self):
        for text, message, position in [
            ("RETURN  'oops", "unterminated string literal", 8),
            ("RETURN $ x", "empty parameter name", 7),
            ("RETURN a ~", "unexpected character '~'", 9),
        ]:
            with pytest.raises(CypherSyntaxError, match=message) as err:
                tokenize(text)
            assert err.value.position == position


class TestNormalize:
    def test_where_and_property_map_literals_lifted(self):
        text = (
            "MATCH (p:Person {id: 3})-[:KNOWS]->(f) "
            "WHERE f.age > 1.5 AND f.firstName = 'it\\'s' RETURN id(f)"
        )
        shape, values = normalize(text)
        assert shape == (
            "MATCH (p:Person {id: $__lit0})-[:KNOWS]->(f) "
            "WHERE f.age > $__lit1 AND f.firstName = $__lit2 RETURN id(f)"
        )
        assert values == {"__lit0": 3, "__lit1": 1.5, "__lit2": "it's"}

    def test_values_decode_like_tokens(self):
        text = "MATCH (p) WHERE p.a = 'a\\\\b' AND p.b = \"q\" AND p.c = 7 RETURN p"
        _, values = normalize(text)
        literals = [
            t.value for t in tokenize(text)
            if t.type in (TokenType.STRING, TokenType.INT)
        ]
        assert literals == ["a\\b", "q", "7"]
        assert values == {"__lit0": "a\\b", "__lit1": "q", "__lit2": 7}
        # A range is two INTs, not a float, in both consumers.
        assert normalize("MATCH (p) WHERE p.x = 1..2 RETURN p")[1] == {
            "__lit0": 1, "__lit1": 2
        }

    def test_with_where_lifted_projection_kept(self):
        text = "MATCH (p:Person) WITH p.age + 1 AS a WHERE a > 30 RETURN a, 2"
        shape, values = normalize(text)
        assert shape == "MATCH (p:Person) WITH p.age + 1 AS a WHERE a > $__lit0 RETURN a, 2"
        assert values == {"__lit0": 30}

    def test_structural_literals_kept(self):
        for text in [
            "MATCH (a:Person)-[:KNOWS*1..2]->(b) RETURN id(b)",
            "MATCH (a:Person) RETURN id(a) ORDER BY id(a) LIMIT 3",
            "MATCH (a:Person) RETURN a.age + 1",
        ]:
            assert normalize(text) == (text, {})

    def test_where_ends_at_next_clause(self):
        text = (
            "MATCH (a:Person) WHERE a.age > 1 WITH a "
            "MATCH (a)-[:KNOWS*1..2]->(b) RETURN id(b) LIMIT 2"
        )
        shape, values = normalize(text)
        assert shape == text.replace("> 1", "> $__lit0")
        assert values == {"__lit0": 1}

    def test_hidden_parameter_text_not_rewritten(self):
        text = "MATCH (a:Person) WHERE a.age > $__lit0 AND a.id = 4 RETURN id(a)"
        assert normalize(text) == (text, {})

    def test_junk_returned_unchanged(self):
        text = "MATCH (a:Person) WHERE a.age > 1 AND a.b = 'oops RETURN a"
        assert normalize(text) == (text, {})

    def test_comment_literals_untouched(self):
        text = "MATCH (a:Person) WHERE a.age > 1 // and 2\nRETURN id(a)"
        assert normalize(text) == (
            "MATCH (a:Person) WHERE a.age > $__lit0 // and 2\nRETURN id(a)",
            {"__lit0": 1},
        )


class TestParser:
    def test_simple_query_shape(self):
        query = parse_cypher("MATCH (p:Person) RETURN id(p)")
        assert len(query.clauses) == 2
        match, ret = query.clauses
        assert isinstance(match, ast.MatchClause)
        assert match.path.nodes[0].label == "Person"
        assert isinstance(ret, ast.ReturnClause)

    def test_relationship_directions(self):
        query = parse_cypher(
            "MATCH (a:Person)-[:KNOWS]->(b)<-[:HAS_CREATOR]-(m) RETURN id(m)"
        )
        rels = query.clauses[0].path.rels
        assert rels[0].direction == "out"
        assert rels[1].direction == "in"

    def test_variable_length(self):
        query = parse_cypher("MATCH (a:Person)-[:KNOWS*1..3]->(b) RETURN id(b)")
        rel = query.clauses[0].path.rels[0]
        assert (rel.min_hops, rel.max_hops) == (1, 3)

    def test_where_precedence(self):
        query = parse_cypher(
            "MATCH (a:Person) WHERE a.age > 1 AND a.age < 5 OR NOT a.age = 3 RETURN id(a)"
        )
        where = query.clauses[0].where
        assert isinstance(where, ast.BinaryOp) and where.op == "OR"
        assert isinstance(where.left, ast.BinaryOp) and where.left.op == "AND"

    def test_order_and_limit(self):
        query = parse_cypher(
            "MATCH (a:Person) RETURN a.age AS age ORDER BY age DESC LIMIT 7"
        )
        ret = query.clauses[-1]
        assert ret.order[0].ascending is False
        assert ret.limit == 7

    def test_aggregates(self):
        query = parse_cypher("MATCH (a:Person) RETURN count(*) AS n")
        agg = query.clauses[-1].items[0].expr
        assert isinstance(agg, ast.AggCall) and agg.arg is None

    def test_count_distinct(self):
        query = parse_cypher("MATCH (a:Person) RETURN count(DISTINCT a.age) AS n")
        agg = query.clauses[-1].items[0].expr
        assert agg.distinct

    def test_is_null(self):
        query = parse_cypher("MATCH (a:Person) WHERE a.age IS NOT NULL RETURN id(a)")
        where = query.clauses[0].where
        assert isinstance(where, ast.IsNullOp) and where.negate

    def test_missing_return_rejected(self):
        with pytest.raises(CypherUnsupportedError):
            parse_cypher("MATCH (a:Person)")

    def test_property_map_parsed(self):
        query = parse_cypher("MATCH (a:Person {id: 3, age: $x}) RETURN id(a)")
        node = query.clauses[0].path.nodes[0]
        assert set(node.properties) == {"id", "age"}

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher("MATCH (a:Person) RETURN id(a) nonsense")

    def test_with_clause(self):
        query = parse_cypher("MATCH (a:Person) WITH a WHERE a.age > 1 RETURN id(a)")
        assert isinstance(query.clauses[1], ast.WithClause)


class TestBinder:
    def test_id_seek_recognized(self, micro_schema):
        plan = compile_cypher(
            "MATCH (p:Person) WHERE id(p) = $pid RETURN id(p)", micro_schema
        )
        assert isinstance(plan.ops[0], NodeByIdSeek)

    def test_primary_key_property_seek(self, micro_schema):
        plan = compile_cypher(
            "MATCH (p:Person) WHERE p.id = 3 RETURN p.age", micro_schema
        )
        assert isinstance(plan.ops[0], NodeByIdSeek)

    def test_property_map_becomes_seek(self, micro_schema):
        plan = compile_cypher("MATCH (p:Person {id: $pid}) RETURN p.age", micro_schema)
        assert isinstance(plan.ops[0], NodeByIdSeek)

    def test_property_map_non_pk_becomes_filter(self, micro_schema, micro_engines):
        rows = micro_engines["GES_f*"].execute(
            "MATCH (p:Person {firstName: 'B'}) RETURN id(p) ORDER BY id(p)"
        ).rows
        assert rows == [(1,), (3,)]

    def test_property_map_on_expanded_node(self, micro_engines):
        rows = micro_engines["GES_f*"].execute(
            "MATCH (p:Person {id: 0})-[:KNOWS]->(f:Person {firstName: 'C'}) "
            "RETURN id(f)"
        ).rows
        assert rows == [(2,)]

    def test_scan_without_seek(self, micro_schema):
        plan = compile_cypher("MATCH (p:Person) RETURN id(p)", micro_schema)
        assert isinstance(plan.ops[0], NodeScan)

    def test_property_fetched_once(self, micro_schema):
        plan = compile_cypher(
            "MATCH (p:Person) WHERE p.age > 1 RETURN p.age ORDER BY p.age", micro_schema
        )
        getters = [op for op in plan.ops if isinstance(op, GetProperty)]
        assert len(getters) == 1

    def test_expand_labels_inferred(self, micro_schema):
        plan = compile_cypher(
            "MATCH (p:Person)<-[:HAS_CREATOR]-(m) RETURN id(m)", micro_schema
        )
        expands = [op for op in plan.ops if isinstance(op, Expand)]
        assert expands[0].to_label is None or expands[0].to_label == "Message"
        # label must resolve during binding for id(m) to find the pk
        assert any(isinstance(op, GetProperty) and op.prop == "id" for op in plan.ops)

    def test_aggregate_grouping(self, micro_schema):
        plan = compile_cypher(
            "MATCH (p:Person) RETURN p.firstName AS name, count(*) AS n", micro_schema
        )
        aggregates = [op for op in plan.ops if isinstance(op, Aggregate)]
        assert aggregates[0].group_by == ["p.firstName"]

    def test_unknown_property_rejected(self, micro_schema):
        with pytest.raises(Exception):
            compile_cypher("MATCH (p:Person) RETURN p.ghost", micro_schema)

    def test_unknown_variable_rejected(self, micro_schema):
        with pytest.raises(PlanError):
            compile_cypher("MATCH (p:Person) RETURN id(q)", micro_schema)

    def test_unlabeled_start_rejected(self, micro_schema):
        with pytest.raises(CypherUnsupportedError):
            compile_cypher("MATCH (p) RETURN id(p)", micro_schema)

    def test_order_by_unreturned_key_rejected(self, micro_schema):
        with pytest.raises(CypherUnsupportedError):
            compile_cypher(
                "MATCH (p:Person) RETURN id(p) ORDER BY p.age", micro_schema
            )

    def test_revisited_variable_rejected(self, micro_schema):
        with pytest.raises(CypherUnsupportedError):
            compile_cypher(
                "MATCH (p:Person)-[:KNOWS]->(q)-[:KNOWS]->(p) RETURN id(p)",
                micro_schema,
            )


class TestEndToEnd:
    def test_full_query_on_all_variants(self, micro_engines):
        query = """
        MATCH (p:Person)-[:KNOWS*1..2]->(f)
        WHERE id(p) = $pid
        MATCH (f)<-[:HAS_CREATOR]-(msg)
        WHERE msg.length > 125
        RETURN id(f) AS fid, id(msg) AS mid, msg.length AS len
        ORDER BY len DESC, fid ASC
        LIMIT 2
        """
        results = {
            name: engine.execute(query, {"pid": 0}).rows
            for name, engine in micro_engines.items()
            if name != "Volcano"  # Volcano takes plans, not Cypher
        }
        expected = [(3, 103, 200), (1, 100, 140)]
        assert all(rows == expected for rows in results.values())

    def test_aggregate_query(self, micro_engines):
        query = """
        MATCH (p:Person)<-[:HAS_CREATOR]-(m)
        RETURN p.firstName AS name, count(*) AS n
        ORDER BY n DESC, name ASC
        LIMIT 3
        """
        rows = micro_engines["GES_f*"].execute(query).rows
        assert rows == [("B", 3), ("C", 2), ("E", 1)]

    def test_with_distinct(self, micro_engines):
        query = """
        MATCH (p:Person)
        WITH DISTINCT p.firstName AS name
        RETURN name ORDER BY name
        """
        rows = micro_engines["GES"].execute(query).rows
        assert rows == [("A",), ("B",), ("C",), ("E",)]
