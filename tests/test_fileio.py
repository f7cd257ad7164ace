import random

import pytest
from hypothesis import example, given, settings, strategies as st

from triplesys import (
    ParseError,
    TripleSystem,
    analyze_half_degree,
    complete_triple_system,
    construct_complete_k_partite,
    find_c5_witness,
    parse_hypergraph,
    serialize_hypergraph,
)
from triplesys.fileio import dump_json, result_from_json, result_to_json

from conftest import random_host, reference_parse_hypergraph

# Host-file texts for the oracle test, built from tokens at the edges of the
# grammar: decimal digits with leading zeros, and "\u0663" (ARABIC-INDIC
# THREE), which the grammar accepts; signs, underscores, "\u00b2"
# (SUPERSCRIPT TWO) and letters, which it rejects; tabs, double spaces and
# padded lines; and the line ends \r\n, \r, \x0c and \x1c, which
# str.splitlines splits on as it does on \n.
_VERTEX = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["00", "03", "007", "+1", "-1", "1_0", "\u0663", "\u00b2", "x", ""]),
)
_SEP = st.sampled_from([" ", " ", " ", "  ", "\t"])
_PAD = st.sampled_from(["", "", " ", "\t", "  "])
_EDGE = st.lists(st.integers(0, 6), min_size=3, max_size=3, unique=True).map(
    lambda t: " ".join(map(str, sorted(t)))
)
_ANY_TRIPLE = st.lists(st.integers(0, 8), min_size=3, max_size=3).map(
    lambda t: " ".join(map(str, t))
)
_MESSY_EDGE = st.lists(st.tuples(_VERTEX, _SEP), min_size=1, max_size=4).map(
    lambda fields: "".join(v + sep for v, sep in fields[:-1]) + fields[-1][0]
)
_LINE = st.tuples(
    _PAD,
    st.one_of(
        _EDGE,
        _ANY_TRIPLE,
        _MESSY_EDGE,
        st.sampled_from(["#", "# note", "#0 1 2", "", "n 4", "n 6", "n 05", "n 0", "n 70", "n  4"]),
    ),
    _PAD,
).map("".join)
_HOST_TEXTS = st.tuples(
    st.sampled_from(["n 4", "n 6", "n 7", "n 7", "n 05", "n 0", "n 70", "# only", ""]),
    st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c"])), max_size=8),
).map(lambda parts: parts[0] + "\n" + "".join(line + end for line, end in parts[1]))


def _parse_outcome(parse, text):
    """A parse's result in comparable form: the host's fields, or the error's."""
    try:
        host = parse(text)
    except ParseError as err:
        return ("error", err.line, str(err))
    return ("host", host.n, host.edges, host.pair_masks)


class TestHostFormat:
    def test_round_trip_examples(self):
        rng = random.Random(64)
        for host in (
            TripleSystem(3, [(0, 1, 2)]),
            TripleSystem(5),
            construct_complete_k_partite(9, 3)[0],
            construct_complete_k_partite(40, 3)[0],
            random_host(64, rng, density=0.005),  # the vertex-count cap
        ):
            assert parse_hypergraph(serialize_hypergraph(host)) == host

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 10), st.randoms(use_true_random=False))
    def test_round_trip_random(self, n, rng):
        host = random_host(n, rng)
        assert parse_hypergraph(serialize_hypergraph(host)) == host

    def test_comments_and_blank_lines(self):
        text = "# a fixture\nn 4\n\n0 1 2\n# trailing note\n1 2 3\n"
        host = parse_hypergraph(text)
        assert host.edges == ((0, 1, 2), (1, 2, 3))

    def test_serialization_is_sorted_ascii_lf(self):
        host = TripleSystem(4, [(1, 2, 3), (0, 1, 2)])
        assert serialize_hypergraph(host) == "n 4\n0 1 2\n1 2 3\n"

    _PARSE_ERRORS = [
        ("0 1 2\n", 1, "line 1: expected header 'n <count>', got '0 1 2'"),
        ("n 4\n0 1\n", 2, "line 2: expected three space-separated integers, got '0 1'"),
        ("n 4\n2 1 0\n", 2, "line 2: vertices must be distinct and ascending: '2 1 0'"),
        ("n 4\n0 1 2\n0 1 2\n", 3, "line 3: duplicate edge '0 1 2'"),
        ("n 4\n0 1 9\n", 2, "line 2: vertex 9 out of range 0..3"),
        ("n 70\n", 1, "line 1: vertex count 70 exceeds the cap of 64"),
        ("n 4\n0  1 2\n", 2, "line 2: expected three space-separated integers, got '0  1 2'"),
        ("n 4\n0 1 2 3\n", 2, "line 2: expected three space-separated integers, got '0 1 2 3'"),
        ("n 4\n0 1 x\n", 2, "line 2: expected three space-separated integers, got '0 1 x'"),
        ("n 4\n0 1 +2\n", 2, "line 2: expected three space-separated integers, got '0 1 +2'"),
        ("n 4\n0 1 \u00b2\n", 2, "line 2: expected three space-separated integers, got '0 1 \u00b2'"),
    ]

    @pytest.mark.parametrize(
        "text,line,message",
        _PARSE_ERRORS,
        ids=[f"{text}-{line}" for text, line, _ in _PARSE_ERRORS],  # name a case by text and line
    )
    def test_parse_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert err.value.line == line
        assert str(err.value) == message

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("")
        assert (err.value.line, str(err.value)) == (1, "line 1: missing header 'n <count>'")

    @settings(max_examples=400, deadline=None)
    @given(_HOST_TEXTS)
    @example("n 05\n0 1 2\n0 2 4\n")
    @example("n 0\n")
    @example("n 70\n0 1 2\n")
    @example("# a comment\n  # an indented one\n")
    @example("n 4\r\n 0 1 2\t\r1 2 3\x0c0 2 3\x1c")
    @example("n 4\n0 1 \u0663\n")
    @example("n 4\n0 1 \u00b2\n")
    def test_parser_matches_the_reference(self, text):
        assert _parse_outcome(parse_hypergraph, text) == _parse_outcome(
            reference_parse_hypergraph, text
        )


class TestCertificateJson:
    def test_embedding_round_trip(self):
        host = complete_triple_system(6)
        emb = find_c5_witness(host)
        data = result_to_json(emb)
        back = result_from_json(data, host)
        assert back.map == emb.map and back.pattern is emb.pattern

    def test_structure_round_trip(self):
        host, _ = construct_complete_k_partite(8, 4)
        cert = analyze_half_degree(host)
        data = result_to_json(cert)
        assert data["conclusion"] == "n divisible by 4"
        back = result_from_json(data, host)
        assert back == cert

    def test_structure_with_classes_round_trip(self):
        # A host whose literal cell structure around (0,1,2,3) carries a
        # nonempty apex B-cell {10, 11} split into two paired singleton
        # classes; certificate validation does not involve the co-degree
        # precondition, only the recorded set facts.
        from triplesys import StructureCertificate, complete_triple_system

        missing = [
            (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7), (0, 2, 4), (0, 2, 5),
            (0, 2, 6), (0, 2, 8), (0, 3, 4), (0, 3, 5), (0, 3, 6), (0, 3, 9),
            (1, 2, 7), (1, 2, 8), (1, 2, 10), (1, 2, 11), (1, 3, 7), (1, 3, 9),
            (1, 3, 10), (1, 3, 11), (2, 3, 8), (2, 3, 9), (2, 3, 10), (2, 3, 11),
        ]
        host = parse_hypergraph(
            serialize_hypergraph(
                TripleSystem(12, set(complete_triple_system(12).edges) - set(missing))
            )
        )
        cert = StructureCertificate(
            host=host,
            base=(0, 1, 2, 3),
            a_sets=(
                frozenset({0, 4, 5, 6}), frozenset({1, 7}),
                frozenset({2, 8}), frozenset({3, 9}),
            ),
            b_sets=(frozenset({10, 11}), frozenset(), frozenset(), frozenset()),
            q=2,
            r0=2,
            classes=(frozenset({10}), frozenset({11})),
            pairing=((0, 1),),
        )
        assert cert.verify()
        data = result_to_json(cert)
        assert data["classes"] == [[10], [11]] and data["pairing"] == [[0, 1]]
        assert result_from_json(data, host) == cert
        # breaking the pairing or the classes must fail validation
        import dataclasses

        assert not dataclasses.replace(cert, pairing=((0, 0),)).verify()
        assert not dataclasses.replace(
            cert, classes=(frozenset({10, 11}),), pairing=()
        ).verify()
        assert not dataclasses.replace(cert, r0=4).verify()

    def test_tampered_embedding_rejected(self):
        host = complete_triple_system(6)
        data = result_to_json(find_c5_witness(host))
        data["map"][0] = data["map"][1]
        with pytest.raises(ValueError):
            result_from_json(data, host)

    def test_embedding_edges_must_match_its_map(self):
        host = complete_triple_system(6)
        data = result_to_json(find_c5_witness(host))
        image = {tuple(e) for e in data["edges"]}
        other = next(e for e in host.edges if e not in image)
        data["edges"][0] = list(other)  # the map still validates; the edges do not
        with pytest.raises(ValueError, match="do not match its map"):
            result_from_json(data, host)

    def test_tampered_structure_rejected(self):
        host, _ = construct_complete_k_partite(8, 4)
        data = result_to_json(analyze_half_degree(host))
        data["q"] += 1
        with pytest.raises(ValueError):
            result_from_json(data, host)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            result_from_json({"kind": "mystery"}, complete_triple_system(4))

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "embedding"},
            {"kind": "embedding", "pattern": "nope", "map": [0, 1, 2, 3, 4], "edges": []},
            {"kind": "embedding", "pattern": "c5", "map": ["a", 1, 2, 3, 4], "edges": []},
            {"kind": "embedding", "pattern": "c5", "map": 5, "edges": []},
            {"kind": "structure"},
            {"kind": "structure", "base": [0, 1, 2, 3], "A": 5, "B": [], "q": 0, "r0": 0,
             "classes": [], "pairing": []},
            [],
            None,
        ],
        ids=["no-pattern", "unknown-pattern", "str-in-map", "int-map", "no-base", "int-A",
             "list", "none"],
    )
    def test_malformed_payload_is_a_value_error(self, data):
        with pytest.raises(ValueError, match="malformed certificate payload"):
            result_from_json(data, complete_triple_system(6))

    def test_dump_json_stable(self):
        assert dump_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
