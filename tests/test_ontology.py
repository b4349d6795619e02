import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
