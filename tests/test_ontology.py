import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_parser

from cqretrofit.ontology import (
    EmptyLocalNameError,
    OntologyError,
    OntologySyntaxError,
    Statement,
    Term,
    TermKind,
    UnsupportedConstructError,
    derive_label,
    filter_statements,
    format_for_path,
    is_opaque_label,
    parse_ontology,
    to_ntriples,
)

from conftest import FIXTURES

SUBCLASS_TRIPLE = (
    "<http://ex.org/g#Multiplayer> "
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf> "
    "<http://ex.org/g#Achievement> ."
)


class TestDeriveLabel:
    def test_fragment(self):
        assert derive_label("http://ex.org/onto#Multiplayer") == "Multiplayer"

    def test_path_segment_preserves_underscores(self):
        assert (
            derive_label("http://ex.org/solar/Solar_System_Satellite")
            == "Solar_System_Satellite"
        )

    def test_last_path_segment(self):
        assert derive_label("http://www.wikidata.org/entity/Q42") == "Q42"

    def test_trailing_slash_uses_last_nonempty_segment(self):
        assert derive_label("http://ex.org/a/b/") == "b"

    def test_percent_decoding(self):
        assert derive_label("http://ex.org/x#Foo%20Bar") == "Foo Bar"

    @pytest.mark.parametrize(
        "iri", ["http://ex.org/onto#", "http://ex.org/", "http://ex.org"]
    )
    def test_empty_local_name(self, iri):
        with pytest.raises(EmptyLocalNameError):
            derive_label(iri)

    def test_deterministic(self):
        iri = "http://ex.org/onto#Thing"
        assert derive_label(iri) == derive_label(iri)


class TestOpaqueLabel:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("Q42", True),  # letter + digits, Wikidata style
            ("Multiplayer", False),
            ("123456", True),  # no alphabetic character
            ("550e8400-e29b-41d4-a716-446655440000", True),  # uuid shape
            ("Solar_System_Satellite", False),
            ("hasUsername", False),
            ("P1", True),
            ("v1.0", False),  # has letters beyond the first
            ("___", True),
        ],
    )
    def test_heuristic(self, label, expected):
        assert is_opaque_label(label) is expected


class TestNTriplesParsing:
    def test_paper_subclass_triple(self):
        statements = parse_ontology(SUBCLASS_TRIPLE, "ntriples")
        assert len(statements) == 1
        st = statements[0]
        assert st.subject.label == "Multiplayer"
        assert st.predicate.label == "subClassOf"
        assert st.object.label == "Achievement"
        assert st.ordinal == 0

    def test_empty_document(self):
        assert parse_ontology("", "ntriples") == []
        assert parse_ontology("# only a comment\n", "ntriples") == []

    def test_blank_subject_reported_not_filtered(self):
        statements = parse_ontology(
            "_:b0 <http://ex.org/p> <http://ex.org/o> .", "ntriples"
        )
        assert len(statements) == 1
        assert statements[0].subject.kind is TermKind.BLANK
        assert statements[0].subject.lexical == "b0"
        assert statements[0].subject.label is None

    def test_literal_lexical_form_preserved(self):
        statements = parse_ontology(
            '<http://ex.org/s> <http://ex.org/p> "a \\"quoted\\"\\nvalue" .',
            "ntriples",
        )
        assert statements[0].object.lexical == 'a "quoted"\nvalue'

    def test_datatype_and_lang_are_dropped(self):
        doc = (
            '<http://ex.org/s> <http://ex.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#int> .\n'
            '<http://ex.org/s> <http://ex.org/q> "hi"@en .'
        )
        statements = parse_ontology(doc, "ntriples")
        assert [st.object.lexical for st in statements] == ["5", "hi"]
        assert all(st.object.kind is TermKind.LITERAL for st in statements)

    def test_duplicate_triples_kept_once(self):
        doc = SUBCLASS_TRIPLE + "\n" + SUBCLASS_TRIPLE
        assert len(parse_ontology(doc, "ntriples")) == 1

    def test_ordinals_are_document_order(self):
        doc = (
            "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n"
            "<http://ex.org/c> <http://ex.org/p> <http://ex.org/d> .\n"
        )
        statements = parse_ontology(doc, "ntriples")
        assert [st.ordinal for st in statements] == [0, 1]
        assert statements[0].subject.label == "a"

    def test_unicode_escape(self):
        statements = parse_ontology(
            '<http://ex.org/s> <http://ex.org/p> "caf\\u00e9" .', "ntriples"
        )
        assert statements[0].object.lexical == "café"

    @pytest.mark.parametrize(
        "escape,code",
        [("\\UFFFFFFFF", "FFFFFFFF"), ("\\U00110000", "110000"), ("\\uD800", "D800")],
    )
    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    def test_out_of_range_unicode_escape_is_located(self, escape, code, fmt):
        # Above U+10FFFF used to raise OverflowError or a bare ValueError
        # from chr(); a surrogate parsed and then failed to encode.
        doc = f'<http://a/s> <http://a/p> "x{escape}" .\n<http://a/s{escape}> <http://a/p> "y" .'
        with pytest.raises(OntologySyntaxError, match=f"bad unicode escape: U\\+{code} ") as err:
            parse_ontology(doc, fmt)
        assert (err.value.line, err.value.column) == (1, 29)
        with pytest.raises(OntologySyntaxError, match="bad unicode escape") as err:
            parse_ontology(doc.split("\n")[1], fmt)
        assert (err.value.line, err.value.column) == (1, 12)

    def test_highest_unicode_escapes_parse(self):
        doc = '<http://a/s\\U0010FFFF> <http://a/p> "\\uD7FF\\uE000" .'
        st_ = parse_ontology(doc, "nt")[0]
        assert st_.subject.lexical == "http://a/s\U0010ffff"
        assert st_.object.lexical == "\ud7ff\ue000"

    def test_syntax_error_has_location(self):
        with pytest.raises(OntologySyntaxError) as err:
            parse_ontology("<http://ex.org/s> <http://ex.org/p> .", "ntriples")
        assert err.value.line == 1
        assert err.value.column > 1

    def test_missing_dot(self):
        with pytest.raises(OntologySyntaxError):
            parse_ontology(
                "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o>", "ntriples"
            )

    def test_directive_rejected(self):
        with pytest.raises(OntologySyntaxError):
            parse_ontology("@prefix ex: <http://ex.org/> .", "ntriples")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_ontology("", "rdfxml")


class TestTurtleParsing:
    def test_subset_fixture_equals_ntriples_twin(self):
        ttl = parse_ontology(
            (FIXTURES / "vicinity_sample.ttl").read_text(), "turtle"
        )
        nt = parse_ontology(
            (FIXTURES / "vicinity_sample.nt").read_text(), "ntriples"
        )
        assert len(ttl) == len(nt)
        for a, b in zip(ttl, nt):
            assert a == b

    def test_a_keyword_is_rdf_type(self):
        doc = "@prefix ex: <http://ex.org/g#> .\nex:Hippocamp a ex:Solar_System_Satellite ."
        st = parse_ontology(doc, "turtle")[0]
        assert st.predicate.lexical == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        assert st.predicate.label == "type"

    def test_object_and_predicate_lists(self):
        doc = (
            "@prefix ex: <http://ex.org/> .\n"
            "ex:s ex:p ex:a , ex:b ; ex:q ex:c ."
        )
        statements = parse_ontology(doc, "turtle")
        triples = [
            (st.subject.label, st.predicate.label, st.object.label)
            for st in statements
        ]
        assert triples == [("s", "p", "a"), ("s", "p", "b"), ("s", "q", "c")]

    def test_sparql_style_prefix(self):
        doc = "PREFIX ex: <http://ex.org/>\nex:s ex:p ex:o ."
        assert len(parse_ontology(doc, "turtle")) == 1

    def test_undeclared_prefix(self):
        with pytest.raises(OntologySyntaxError, match="undeclared prefix"):
            parse_ontology("ex:s ex:p ex:o .", "turtle")

    @pytest.mark.parametrize(
        "doc,construct",
        [
            ("@prefix ex: <http://e/> .\nex:s ex:p [ ex:q ex:o ] .", "anonymous blank node"),
            ("@prefix ex: <http://e/> .\nex:s ex:p ( ex:a ex:b ) .", "collection"),
            ("@base <http://e/> .", "@base"),
            ("@prefix ex: <http://e/> .\nex:s ex:p 5 .", "numeric literal"),
            ("@prefix ex: <http://e/> .\nex:s ex:p true .", "boolean literal"),
            ('@prefix ex: <http://e/> .\nex:s ex:p """long""" .', "triple-quoted"),
            ("@prefix ex: <http://e/> .\n<< ex:a ex:b ex:c >> ex:p ex:o .", "quoted triple"),
        ],
    )
    def test_unsupported_constructs_are_named(self, doc, construct):
        with pytest.raises(UnsupportedConstructError) as err:
            parse_ontology(doc, "turtle")
        assert construct.split()[0].lstrip("@") in err.value.construct

    def test_single_quoted_literal(self):
        doc = "@prefix ex: <http://e/> .\nex:s ex:p 'plain' ."
        assert parse_ontology(doc, "turtle")[0].object.lexical == "plain"

    def test_local_name_with_interior_dot(self):
        doc = "@prefix ex: <http://e/> .\nex:v1.5 ex:p ex:o ."
        assert parse_ontology(doc, "turtle")[0].subject.lexical == "http://e/v1.5"

    @pytest.mark.parametrize(
        "doc,line,column",
        [
            ("<x> <p>", 1, 8),
            ("<x> <p> ", 1, 9),
            ("<x>", 1, 4),
            ("@prefix : <http://e/> .\n:a :b", 2, 6),
            ("@prefix : <http://e/> .\n:a :b :c ;", 2, 11),
            ("@prefix : <http://e/> .\n:a :b :c ,", 2, 11),
        ],
    )
    def test_truncated_statement_is_syntax_error(self, doc, line, column):
        with pytest.raises(OntologySyntaxError, match="end of input") as err:
            parse_ontology(doc, "turtle")
        assert (err.value.line, err.value.column) == (line, column)


# Valid documents of both syntaxes, cut short and spliced with fragments,
# so that generated inputs reach deep into the readers instead of failing
# on their first character.
_VALID = [
    (FIXTURES / name).read_text(encoding="utf-8")
    for name in ("vicinity_sample.ttl", "vicinity_sample.nt")
]
_FRAGMENTS = st.sampled_from(
    [
        "<http://e/a>", "<", ">", "_:b", "_:", '"', "'", '"x"', "@en", "@", "^^",
        "^^<http://e/t>", "core:", ":", "a", "core:a", "@prefix", "PREFIX", "@base",
        " ", "\n", ".", ";", ",", "#c\n", "[", "(", "<<", "5", "true", "\\u00", "\\",
    ]
)


@st.composite
def _documents(draw):
    doc = draw(st.sampled_from(_VALID))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(doc)))
        doc = doc[:i] + draw(st.one_of(_FRAGMENTS, st.text(max_size=3))) + doc[i:]
    return doc[: draw(st.integers(0, len(doc)))]


class TestParserFuzz:
    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    @given(text=st.one_of(st.text(max_size=80), _documents()))
    @settings(max_examples=300, deadline=None)
    def test_raises_only_ontology_errors(self, fmt, text):
        try:
            parse_ontology(text, fmt)
        except OntologyError:
            pass


def _escaped(text: str) -> str:
    return "".join(f"\\U{ord(ch):08X}" for ch in text)


def _outcome(parse, text: str, fmt: str):
    """The statements, or the error's class, message and location."""
    try:
        return parse(text, fmt)
    except OntologyError as exc:
        return (type(exc), str(exc), exc.line, exc.column)


_IRI_RAW = st.characters(blacklist_characters='<>"{}|^`\\ \n\r')
_STRING_ESCAPE = st.sampled_from(["\\t", "\\n", '\\"', "\\'", "\\\\", "\\r", "\\b", "\\f"])


@st.composite
def _escape(draw):
    """A \\u or \\U escape, now and then of a surrogate or above U+10FFFF."""
    code = draw(st.integers(0, 0x10FFFF) | st.sampled_from([0xD800, 0xDFFF, 0x110000, 0xFFFFFFFF]))
    if code <= 0xFFFF and draw(st.booleans()):
        return f"\\u{code:04X}"
    return f"\\U{code:08X}"


@st.composite
def _sometimes_escaped(draw, text, escapes):
    """``text`` with, one time in four, an escape spliced in: a token
    without a backslash takes the regex path, one with it the walk."""
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(escapes) + text[i:]
    return text


@st.composite
def _iriref(draw):
    local = draw(st.text(_IRI_RAW, max_size=6))
    return f"<http://e/{draw(_sometimes_escaped(local, _escape()))}>"


@st.composite
def _literal(draw, quote='"'):
    body = draw(st.text(st.characters(blacklist_characters=f"\\\n\r{quote}"), max_size=6))
    body = draw(_sometimes_escaped(body, _escape() | _STRING_ESCAPE))
    suffix = draw(st.sampled_from(["", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#string>"]))
    return f"{quote}{body}{quote}{suffix}"


# Dots inside, doubled and at the end of a local name: only a dot that a
# name character follows belongs to the name.
_PNAME_LOCAL = st.lists(st.sampled_from(["a", "Z9", "_", "-", "%20", ".", ".."]), max_size=4).map("".join)
_BLANK = st.from_regex(r"_:[A-Za-z0-9_-]{1,4}", fullmatch=True)


@st.composite
def _ntriples_documents(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        s = draw(_iriref() | _BLANK)
        o = draw(_iriref() | _BLANK | _literal() | st.sampled_from(['""', '"""x"""', "''"]))
        gap = draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(f"{s}{gap}{draw(_iriref())}{gap}{o} .{draw(st.sampled_from(['', ' # c']))}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


# Prefix names that collide with keywords, so that ``true:x`` or
# ``a:b`` reach the readers' keyword checks.
_PREFIXES = ["ex", "", "true", "false", "a", "prefix", "base"]
# Terms outside the supported subset, or next to a valid one.
_ODD_OBJECTS = st.sampled_from(['"""x"""', "'''x'''", '""', "''", "true", "false", "5", "[]"])


@st.composite
def _turtle_documents(draw):
    declared = draw(st.permutations(_PREFIXES))
    out = [
        draw(st.sampled_from([f"@prefix {p}: <http://e/{p}#> .", f"PREFIX {p}: <http://e/{p}#>",
                              f"prefix {p}:<http://e/{p}#>"]))
        for p in declared
    ]
    name = st.builds("{}:{}".format, st.sampled_from(declared + ["und"]), _PNAME_LOCAL)
    term = name | _iriref()
    for _ in range(draw(st.integers(0, 3))):
        subject = draw(term | _BLANK)
        pairs = []
        for _ in range(draw(st.integers(1, 3))):
            verb = draw(term | st.just("a"))
            objs = draw(st.lists(term | _BLANK | _literal() | _literal("'") | _ODD_OBJECTS,
                                 min_size=1, max_size=3))
            pairs.append(f"{verb} {' , '.join(objs)}")
        body = " ;\n  ".join(pairs) + draw(st.sampled_from(["", " ;"]))
        out.append(f"{subject} {body} .")
    return "\n".join(out)


# Characters and pieces that end or break a token.
_TROUBLE = st.sampled_from(
    list(" <>\"'{}|^`\\\n\r\t.:;,@_#-%") + ["..", '""', "''", "\\u", "\\U00", "^^", "true"]
)


@st.composite
def _near_valid(draw, documents):
    """A generated valid document with one to three pieces spliced in."""
    doc = draw(documents)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(doc)))
        doc = doc[:i] + draw(_TROUBLE) + doc[i:]
    return doc


# Generated valid documents per format: N-Triples is also Turtle.
_VALID_DOCUMENTS = {
    "nt": _ntriples_documents(),
    "ttl": st.one_of(_ntriples_documents(), _turtle_documents()),
}


def _assert_same_outcome(text: str, fmt: str) -> None:
    assert _outcome(parse_ontology, text, fmt) == _outcome(oracle_parser.parse_ontology, text, fmt)


class TestParserMatchesOracle:
    """The regex token readers against the character-by-character
    reference parser: same statements, or the same error class, message,
    line and column."""

    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    @given(text=st.one_of(st.text(), _documents()))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_and_spliced_fixture_text(self, fmt, text):
        _assert_same_outcome(text, fmt)

    @pytest.mark.parametrize("fmt", ["nt", "ttl"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_documents(self, fmt, data):
        valid = _VALID_DOCUMENTS[fmt]
        doc = data.draw(st.one_of(valid, _near_valid(valid), _near_valid(valid)))
        _assert_same_outcome(doc, fmt)
        _assert_same_outcome(doc[: data.draw(st.integers(0, len(doc)))], fmt)

    @pytest.mark.parametrize("name", ["videogame_20.nt", "vicinity_sample.nt", "vicinity_sample.ttl"])
    def test_fixtures(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        fmt = format_for_path(name)
        assert parse_ontology(text, fmt) == oracle_parser.parse_ontology(text, fmt)


class TestFilterStatements:
    def _iri(self, local):
        return Term.iri(f"http://ex.org/onto#{local}")

    def _st(self, s, p, o, ordinal=0):
        return Statement(s, p, o, ordinal)

    def test_blank_node_exclusion(self):
        p = self._iri("p")
        raw = [
            self._st(self._iri("a"), p, self._iri("b"), 0),
            self._st(Term.blank("b0"), p, self._iri("c"), 1),
            self._st(self._iri("d"), p, self._iri("e"), 2),
        ]
        result = filter_statements(raw)
        assert result.counts.parsed == 3
        assert result.counts.excluded_blank == 1
        assert result.counts.kept == 2
        assert [st.ordinal for st in result.statements] == [0, 1]

    def test_identity_when_nothing_to_filter(self):
        p = self._iri("p")
        raw = [self._st(self._iri("a"), p, self._iri("b"), 0)]
        result = filter_statements(raw)
        assert result.counts.kept == result.counts.parsed == 1

    def test_opaque_object_excluded(self):
        p = self._iri("p")
        raw = [
            self._st(
                self._iri("a"), p, Term.iri("http://www.wikidata.org/entity/Q42"), 0
            )
        ]
        result = filter_statements(raw)
        assert result.counts.excluded_opaque == 1
        assert result.counts.kept == 0

    def test_unlabelable_iri_counts_as_opaque(self):
        p = self._iri("p")
        raw = [self._st(self._iri("a"), p, Term.iri("http://ex.org/"), 0)]
        assert filter_statements(raw).counts.excluded_opaque == 1

    def test_non_http_iri_counts_as_opaque(self):
        p = self._iri("p")
        raw = [self._st(self._iri("a"), p, Term.iri("urn:uuid:abc"), 0)]
        assert filter_statements(raw).counts.excluded_opaque == 1

    def test_literal_objects_kept(self):
        p = self._iri("hasUsername")
        raw = [self._st(self._iri("Player"), p, Term.literal("42"), 0)]
        assert filter_statements(raw).counts.kept == 1

    def test_counts_identity(self):
        p = self._iri("p")
        raw = [
            self._st(self._iri("a"), p, self._iri("b"), 0),
            self._st(Term.blank("x"), p, self._iri("c"), 1),
            self._st(self._iri("d"), p, Term.iri("http://e.org/entity/Q7"), 2),
        ]
        c = filter_statements(raw).counts
        assert c.parsed == c.excluded_blank + c.excluded_opaque + c.kept

    def test_no_blank_terms_after_filter(self):
        raw = parse_ontology((FIXTURES / "vicinity_sample.nt").read_text(), "ntriples")
        result = filter_statements(raw)
        for st in result.statements:
            for term in (st.subject, st.predicate, st.object):
                assert term.kind is not TermKind.BLANK

    def test_filtering_is_idempotent(self):
        raw = parse_ontology((FIXTURES / "videogame_20.nt").read_text(), "ntriples")
        once = filter_statements(raw, "vg")
        twice = filter_statements(once.statements, "vg")
        assert twice.statements == once.statements
        assert twice.counts.kept == twice.counts.parsed


class TestRoundTrip:
    def test_fixture_round_trip(self):
        doc = (FIXTURES / "videogame_20.nt").read_text()
        first = parse_ontology(doc, "ntriples")
        second = parse_ontology(to_ntriples(first), "ntriples")
        assert first == second

    def test_iri_with_escaped_space_round_trips(self):
        # <http://a/s x> was written out raw and could not be read back.
        doc = "<http://a/s\\u0020x> <http://a/p> <http://a/o> .\n"
        first = parse_ontology(doc, "ntriples")
        assert first[0].subject.lexical == "http://a/s x"
        assert "\\u0020" in to_ntriples(first)
        assert parse_ontology(to_ntriples(first), "ntriples") == first

    @given(local=st.text(min_size=1), literal=st.text())
    @settings(max_examples=200, deadline=None)
    def test_any_iri_and_literal_round_trip(self, local, literal):
        # Every character written as an escape, so any text makes a valid document.
        doc = f"<http://a/{_escaped(local)}> <http://a/p> \"{_escaped(literal)}\" .\n"
        first = parse_ontology(doc, "ntriples")
        assert (first[0].subject.lexical, first[0].object.lexical) == ("http://a/" + local, literal)
        assert parse_ontology(to_ntriples(first), "ntriples") == first

    def test_escapes_round_trip(self):
        doc = (
            '<http://ex.org/s> <http://ex.org/p> "tab\\there \\"and\\" newline\\n" .\n'
        )
        first = parse_ontology(doc, "ntriples")
        second = parse_ontology(to_ntriples(first), "ntriples")
        assert first == second


def test_format_for_path():
    assert format_for_path("x.nt") == "ntriples"
    assert format_for_path("x.TTL") == "turtle"
    with pytest.raises(ValueError):
        format_for_path("x.owl")
