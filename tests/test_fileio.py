import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from triplesys import (
    K4,
    ParseError,
    StructureCertificate,
    TripleSystem,
    analyze_half_degree,
    construct_complete_k_partite,
    find_c5_witness,
    find_embedding,
    parse_hypergraph,
    serialize_hypergraph,
)
from triplesys import fileio
from triplesys.core import MAX_VERTICES
from triplesys.fileio import dump_json, result_from_json, result_to_json

from conftest import (
    AG23_LINES,
    FANO_LINES,
    complete_triple_system,
    random_host,
    reference_parse_hypergraph,
    reference_serialize_hypergraph,
    steiner_join,
)

# Host-file texts for the oracle test, built from tokens at the edges of the
# grammar: decimal digits with leading zeros, indices of 64 and more, and
# "\u0663" (ARABIC-INDIC THREE), which the grammar accepts; signs,
# underscores, "\u00b2" (SUPERSCRIPT TWO) and letters, which it rejects;
# tabs, double spaces and padded lines; and the line ends \r\n, \r, \x0c
# and \x1c, which str.splitlines splits on as it does on \n.
_VERTEX = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(
        ["00", "03", "007", "64", "064", "99", "+1", "-1", "1_0", "\u0663", "\u00b2", "x", ""]
    ),
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
_LINE_TEXTS = st.tuples(
    st.sampled_from(["n 4", "n 6", "n 7", "n 7", "n 05", "n 0", "n 64", "n 70", "# only", ""]),
    st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c"])), max_size=8),
).map(lambda parts: parts[0] + "\n" + "".join(line + end for line, end in parts[1]))

# Edits to a serialized host.  The first six keep each line in the writer's
# spelling (but for an index set to n = 64), so the block pass's checks
# decide, or for a line moved ahead of a smaller first vertex's lines, its
# grouping; two lines of one first vertex swapped stay in one block.  The
# rest send the file to the line loop.
_EDITS = ("none", "swap-fields", "repeat-line", "index-n", "swap-lines", "move-ahead",
          "double-space", "comment", "blank-line", "leading-zero", "crlf", "no-final-newline",
          "drop-first-field")


@st.composite
def _serialized_texts(draw):
    """serialize_hypergraph of a random host on up to 64 vertices, whole or
    with one edit."""
    n = draw(st.integers(0, MAX_VERTICES))
    density = draw(st.sampled_from([0.002, 0.01, 0.05]))
    rng = random.Random(draw(st.integers(0, 2**32)))  # a seed draws faster than st.randoms
    lines = serialize_hypergraph(random_host(n, rng, density)).splitlines()
    edit = draw(st.sampled_from(_EDITS))
    if edit == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if edit == "no-final-newline":
        return "\n".join(lines)
    if edit in ("comment", "blank-line"):
        lines.insert(draw(st.integers(1, len(lines))), "# note" if edit == "comment" else "")
    elif edit == "move-ahead" and len(lines) > 1:
        # the last line goes first: ahead of every smaller first vertex's lines
        lines.insert(1, lines.pop())
    elif edit == "swap-lines":
        # two lines of one first vertex, when some first vertex has two
        firsts = [line.split(" ")[0] for line in lines]
        same = [i for i in range(1, len(lines) - 1) if firsts[i] == firsts[i + 1]]
        if same:
            i = draw(st.sampled_from(same))
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif edit != "none" and len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(" ")
        at = draw(st.integers(0, 2))
        if edit == "swap-fields":
            other = (at + draw(st.integers(1, 2))) % 3
            fields[at], fields[other] = fields[other], fields[at]
        elif edit == "repeat-line":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif edit == "index-n":
            fields[at] = str(n)
        elif edit == "double-space":
            fields.insert(1 + at % 2, "")
        elif edit == "drop-first-field":
            del fields[0]
        else:
            fields[at] = "0" + fields[at]
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


_HOST_TEXTS = st.one_of(_LINE_TEXTS, _serialized_texts())
# A 64-vertex file whose last line repeats its first edge: the block pass
# reads every block before its count of edges declines the file.
_REPEATED_LAST = serialize_hypergraph(construct_complete_k_partite(64, 4)[0]) + "0 16 32\n"


def _parse_outcome(parse, text):
    """A parse's result in comparable form: the host's fields, or the error's."""
    try:
        host = parse(text)
    except ParseError as err:
        return ("error", err.line, str(err))
    return ("host", host.n, host.edges, host.edge_count, host.pair_masks)


def _classes_certificate():
    """The r0 = 2 certificate of a 12-vertex host whose cells around the base
    (0, 1, 2, 3) carry a nonempty apex B-cell {10, 11}, split into two paired
    singleton classes.  Validation does not involve the co-degree
    precondition, only the recorded set facts."""
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
    return StructureCertificate(
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


def _partite_certificate():
    """The r0 = 0 certificate of the balanced 4-partite host on 8 vertices."""
    host, _ = construct_complete_k_partite(8, 4)
    return analyze_half_degree(host)


def _exchange(cells, i, j):
    """The cells with the largest members of cells i and j exchanged."""
    a, b = max(cells[i]), max(cells[j])
    cells = list(cells)
    cells[i], cells[j] = cells[i] - {a} | {b}, cells[j] - {b} | {a}
    return tuple(cells)


def _fano_certificate():
    """The certificate of the 12-vertex Fano join: q = 1, r0 = 4, and four
    singleton classes paired two and two."""
    return analyze_half_degree(steiner_join(FANO_LINES, 12))


def _with_cell(cells, i, cell):
    return cells[:i] + (frozenset(cell),) + cells[i + 1:]


def _float_member(cells):
    """The cells with the least member of the first nonempty one a float."""
    i = next(i for i, cell in enumerate(cells) if cell)
    v = min(cells[i])
    return _with_cell(cells, i, cells[i] - {v} | {float(v)})


# Each breaks one invariant of StructureCertificate.verify.  These apply to
# any certificate; the base (0, 1, 2, 4) is not a K4 in either host.
_TAMPER_ANY = [
    ("base-repeats-a-vertex", lambda c: replace(c, base=c.base[:3] + c.base[2:3])),
    ("base-of-five-entries", lambda c: replace(c, base=c.base + c.base[3:])),
    ("base-outside-the-host", lambda c: replace(c, base=c.base[:3] + (c.host.n,))),
    ("base-float-vertex", lambda c: replace(c, base=c.base[:3] + (float(c.base[3]),))),
    ("base-not-a-k4", lambda c: replace(c, base=(0, 1, 2, 4))),
    ("three-b-cells", lambda c: replace(c, b_sets=c.b_sets[:3])),
    ("five-a-cells", lambda c: replace(c, a_sets=c.a_sets + (frozenset(),))),
    (
        "vertex-in-two-cells",
        lambda c: replace(c, a_sets=_with_cell(c.a_sets, 1, c.a_sets[1] | {c.base[0]})),
    ),
    (
        "vertex-in-no-cell",
        lambda c: replace(
            c, a_sets=_with_cell(c.a_sets, 1, c.a_sets[1] - {max(c.a_sets[1])} | {c.base[0]})
        ),
    ),
    ("a-cells-exchange-members", lambda c: replace(c, a_sets=_exchange(c.a_sets, 1, 2))),
    ("q-off-by-one", lambda c: replace(c, q=c.q + 1)),
    ("a-cells-none", lambda c: replace(c, a_sets=None)),
    ("b-cells-none", lambda c: replace(c, b_sets=None)),
    ("classes-none", lambda c: replace(c, classes=None)),
    ("pairing-none", lambda c: replace(c, pairing=None)),
]
# For the r0 = 2 certificate, whose apex B-cell {10, 11} is split into two
# paired singleton classes.
_TAMPER_ONE_B = [
    ("b-cell-moved", lambda c: replace(c, b_sets=c.b_sets[1:] + c.b_sets[:1])),
    ("r0-off", lambda c: replace(c, r0=4)),
    ("r0-zero", lambda c: replace(c, r0=0)),
    ("empty-class", lambda c: replace(c, classes=c.classes + (frozenset(),))),
    ("overlapping-classes", lambda c: replace(c, classes=(frozenset({10}), frozenset({10, 11})))),
    ("classes-miss-a-b-vertex", lambda c: replace(c, classes=c.classes[:1])),
    ("classes-joined", lambda c: replace(c, classes=(frozenset({10, 11}),), pairing=())),
    (
        "classes-split-an-empty-pair",
        lambda c: replace(
            c, host=TripleSystem(c.host.n, [e for e in c.host.edges if not {10, 11} <= set(e)])
        ),
    ),
    ("pairing-fixes-a-class", lambda c: replace(c, pairing=((0, 0),))),
    ("pairing-repeats-a-class", lambda c: replace(c, pairing=((0, 1), (1, 0)))),
    ("pairing-out-of-range", lambda c: replace(c, pairing=((0, 2),))),
    ("pairing-misses-a-class", lambda c: replace(c, pairing=())),
    # entries that are not two int class indices, a member that is not an
    # int, and classes that are not frozensets
    ("pairing-entry-of-three", lambda c: replace(c, pairing=((0, 1, 1),))),
    ("pairing-entry-of-one", lambda c: replace(c, pairing=((0,),))),
    ("pairing-float-index", lambda c: replace(c, pairing=((0, 1.0),))),
    ("class-float-member", lambda c: replace(c, classes=(frozenset({10.0}), frozenset({11})))),
    ("classes-as-tuples", lambda c: replace(c, classes=((10,), (11,)))),
    ("classes-as-lists", lambda c: replace(c, classes=([10], [11]))),
    ("classes-as-sets", lambda c: replace(c, classes=({10}, {11}))),
]
# For the r0 = 0 certificate, which has no nonempty B-cell.
_TAMPER_NO_B = [
    ("r0-without-a-b-cell", lambda c: replace(c, r0=2)),
    ("classes-without-a-b-cell", lambda c: replace(c, classes=(frozenset({0}),))),
]
# Values equal to the right int but of another type (1.0 == 1, {0.0} == {0}),
# for every certificate; then for those with a nonempty B-cell; then for the
# Fano join's, whose q is 1 (True == 1).
_TAMPER_TYPE = [
    ("q-and-r0-floats", lambda c: replace(c, q=float(c.q), r0=float(c.r0))),
    ("a-cell-float-member", lambda c: replace(c, a_sets=_float_member(c.a_sets))),
]
_TAMPER_TYPE_B = _TAMPER_TYPE + [
    ("b-cell-float-member", lambda c: replace(c, b_sets=_float_member(c.b_sets)))
]
_TAMPER_TYPE_FANO = _TAMPER_TYPE_B + [("q-bool", lambda c: replace(c, q=True))]


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, MAX_VERTICES), st.sampled_from([0.002, 0.05, 0.5]), st.integers(0, 2**32))
    @example(0, 0.5, 0)
    @example(MAX_VERTICES, 1.0, 0)  # every triple: the writer's longest file
    def test_serializer_matches_the_reference(self, n, density, seed):
        host = random_host(n, random.Random(seed), density)
        assert serialize_hypergraph(host) == reference_serialize_hypergraph(host)
        # the writer reads the table, so it must not build the edge tuple
        fresh = TripleSystem._from_masks([row[:] for row in host.pair_masks])
        serialize_hypergraph(fresh)
        assert fresh._edges is None

    _PARSE_ERRORS = [
        ("0 1 2\n", 1, "line 1: expected header 'n <count>', got '0 1 2'"),
        ("n 4\n0 1\n", 2, "line 2: expected three space-separated integers, got '0 1'"),
        ("n 4\n2 1 0\n", 2, "line 2: vertices must be distinct and ascending: '2 1 0'"),
        ("n 4\n0 1 2\n0 1 2\n", 3, "line 3: duplicate edge '0 1 2'"),
        ("n 4\n0 1 9\n", 2, "line 2: vertex 9 out of range 0..3"),
        ("n 64\n0 1 64\n", 2, "line 2: vertex 64 out of range 0..63"),
        ("n 0\n0 1 2\n", 2, "line 2: vertex 2 out of range: the host has no vertices"),
        ("n 64\n0 01 64\n", 2, "line 2: vertex 64 out of range 0..63"),
        ("n 4\n1 0 3\n", 2, "line 2: vertices must be distinct and ascending: '1 0 3'"),
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

    def test_serialized_hosts_never_reach_the_line_loop(self, monkeypatch):
        # every other test passes with a block pass that declines every file
        def line_loop(lines):
            raise AssertionError("the line loop read a serialized host")

        monkeypatch.setattr(fileio, "_parse_lines", line_loop)
        rng = random.Random(25)
        hosts = [
            complete_triple_system(64),
            construct_complete_k_partite(64, 4)[0],
            steiner_join(FANO_LINES, 64),
            steiner_join(AG23_LINES, 64),
        ]
        # each field width of the cube, 3 to 6 bits, at its least and
        # greatest n; n = 0 and 1 have no edges, and neither has the last
        hosts += [random_host(n, rng, 0.3) for n in (0, 1, 8, 9, 16, 17, 32, 33)]
        hosts.append(TripleSystem(8))
        for host in hosts:
            assert parse_hypergraph(serialize_hypergraph(host)) == host

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
    # one per check the block pass makes after its blocks: a repeated edge,
    # a line that is not ascending, a vertex >= n that fits the cube (n = 6
    # gives 3-bit fields), and a repeated edge on the last of 16,386 lines
    @example("n 6\n0 1 2\n1 2 3\n0 1 2\n")
    @example("n 6\n0 1 2\n3 2 1\n")
    @example("n 6\n0 1 2\n0 1 7\n")
    @example(_REPEATED_LAST)
    # a line of two fields at the end of a block, one after its lead
    @example("n 8\n0 1 2\n1 2\n")
    @example("n 8\n0 1 2\n0 3\n")
    # no final newline after a last line that would be an edge without its last digit
    @example("n 24\n0 1 23")
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
        cert = _classes_certificate()
        assert cert.verify()
        data = result_to_json(cert)
        assert data["classes"] == [[10], [11]] and data["pairing"] == [[0, 1]]
        assert result_from_json(data, cert.host) == cert

    @pytest.mark.parametrize(
        "certificate, tamper",
        [(_classes_certificate, t) for _, t in _TAMPER_ANY + _TAMPER_ONE_B + _TAMPER_TYPE_B]
        + [(_partite_certificate, t) for _, t in _TAMPER_ANY + _TAMPER_NO_B + _TAMPER_TYPE]
        + [(_fano_certificate, t) for _, t in _TAMPER_TYPE_FANO],
        ids=[f"r0=2-{name}" for name, _ in _TAMPER_ANY + _TAMPER_ONE_B + _TAMPER_TYPE_B]
        + [f"r0=0-{name}" for name, _ in _TAMPER_ANY + _TAMPER_NO_B + _TAMPER_TYPE]
        + [f"fano-{name}" for name, _ in _TAMPER_TYPE_FANO],
    )
    def test_broken_invariant_fails_verification(self, certificate, tamper):
        cert = certificate()
        assert cert.verify()
        assert not tamper(cert).verify()

    def test_tampered_embedding_rejected(self):
        host = complete_triple_system(6)
        data = result_to_json(find_c5_witness(host))
        data["map"][0] = data["map"][1]
        with pytest.raises(ValueError):
            result_from_json(data, host)

    def test_embedding_entries_must_be_ints(self):
        # bools and floats compare equal to the right ints, but a payload
        # that holds them is not the certificate result_to_json writes
        host = complete_triple_system(6)
        good = result_to_json(find_embedding(host, K4))
        assert good["map"] == [0, 1, 2, 3]
        for key, value in [
            ("map", [False, True, 2, 3]),
            ("map", [0.0, 1, 2, 3]),
            ("edges", good["edges"][:-1] + [good["edges"][-1][:2] + [3.0]]),
            ("edges", [[True] + e[1:] for e in good["edges"]]),
        ]:
            with pytest.raises(ValueError, match="map and edge entries must be ints"):
                result_from_json(dict(good, **{key: value}), host)

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
        good = result_to_json(analyze_half_degree(host))
        # a wrong q, three B-cells, the base's last vertex repeated, and a q,
        # an r0 and an A-cell given as floats equal to the right ints
        for key, value in [
            ("q", good["q"] + 1),
            ("B", good["B"][:3]),
            ("base", good["base"] + good["base"][3:]),
            ("q", float(good["q"])),
            ("r0", float(good["r0"])),
            ("A", [[float(v) for v in good["A"][0]]] + good["A"][1:]),
        ]:
            with pytest.raises(ValueError, match="structure certificate failed validation"):
                result_from_json(dict(good, **{key: value}), host)

    @pytest.mark.parametrize("pairing", [[[0, 1, 1]], [[0]], [[0, 1.0]]])
    def test_malformed_pairing_fails_validation(self, pairing):
        cert = _classes_certificate()
        data = dict(result_to_json(cert), pairing=pairing)
        with pytest.raises(ValueError, match="structure certificate failed validation"):
            result_from_json(data, cert.host)

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
