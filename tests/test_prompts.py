import pytest

from cqretrofit.ontology import Statement, Term
from cqretrofit.prompts import (
    BadTemplateError,
    MissingLabelError,
    PromptTemplate,
    UnknownTemplateError,
    get_template,
    list_templates,
    load_template_file,
    render_prompt,
)


def _statement(s, p, o, ordinal=0):
    base = "http://ex.org/onto#"
    return Statement(
        Term.iri(base + s), Term.iri(base + p), Term.iri(base + o), ordinal
    )


MULTIPLAYER = _statement("Multiplayer", "subClassOf", "Achievement")
_SLOT_ONLY = PromptTemplate("slot", "<statement>")


def _bracketed(statement):
    """The statement's rendering, read back from a prompt holding only the slot."""
    rendered = render_prompt(_SLOT_ONLY, statement).rendered
    first, second = rendered[: len(rendered) // 2], rendered[len(rendered) // 2 + 1:]
    assert rendered == f"{first} {second}" and first == second
    return first


class TestRenderStatement:
    def test_bracketed_form(self):
        assert (
            _bracketed(MULTIPLAYER)
            == "['Multiplayer', 'subClassOf', 'Achievement']"
        )

    def test_underscore_labels(self):
        st = Statement(
            Term.iri("http://ex.org/solar/Hippocamp"),
            Term.iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            Term.iri("http://ex.org/solar/Solar_System_Satellite"),
            0,
        )
        assert _bracketed(st) == "['Hippocamp', 'type', 'Solar_System_Satellite']"

    def test_self_loop(self):
        st = _statement("A", "p", "A")
        assert _bracketed(st) == "['A', 'p', 'A']"

    def test_literal_object_uses_lexical_form(self):
        st = Statement(
            Term.iri("http://ex.org/onto#Player"),
            Term.iri("http://ex.org/onto#hasUsername"),
            Term.literal("username"),
            0,
        )
        assert _bracketed(st) == "['Player', 'hasUsername', 'username']"

    def test_missing_label_error(self):
        st = Statement(
            Term.blank("b0"),
            Term.iri("http://ex.org/onto#p"),
            Term.iri("http://ex.org/onto#o"),
            0,
        )
        with pytest.raises(MissingLabelError):
            _bracketed(st)


class TestTemplates:
    def test_exactly_three_in_order(self):
        assert [t.id for t in list_templates()] == ["P1", "P2", "P3"]

    def test_each_body_has_one_slot(self):
        for t in list_templates():
            assert t.body.count("<statement>") == 1

    def test_p2_includes_cq_definition(self):
        body = get_template("P2").body
        assert "generate a list of competency question. Definition of competency questions: the questions that outline the scope of an ontology" in body

    def test_p3_role_framing(self):
        assert get_template("P3").body.startswith(
            "As an ontology engineer, generate a list of competency questions"
        )

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplateError):
            get_template("P4")

    def test_slot_count_enforced(self):
        with pytest.raises(BadTemplateError):
            PromptTemplate("bad", "no slot here")
        with pytest.raises(BadTemplateError):
            PromptTemplate("bad", "<statement> twice <statement>")

    def test_load_template_file(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("Ask about <statement> please\n")
        t = load_template_file(path)
        assert t.id == "extra"
        assert "<statement>" in t.body


class TestRenderPrompt:
    def test_p1_full_rendering(self):
        instance = render_prompt("P1", MULTIPLAYER)
        assert instance.rendered == (
            "Based on ['Multiplayer', 'subClassOf', 'Achievement'], generate a "
            "list of relevant question ['Multiplayer', 'subClassOf', 'Achievement']"
        )
        assert instance.template_id == "P1"
        assert instance.statement_ordinal == 0

    def test_p3_opening(self):
        instance = render_prompt("P3", MULTIPLAYER)
        assert instance.rendered.startswith(
            "As an ontology engineer, generate a list of competency questions based on the"
        )

    def test_statement_substituted_and_appended(self):
        rendered = render_prompt("P2", MULTIPLAYER).rendered
        assert rendered.count("['Multiplayer', 'subClassOf', 'Achievement']") == 2
        assert rendered.endswith("['Multiplayer', 'subClassOf', 'Achievement']")

    def test_deterministic(self):
        a = render_prompt("P1", MULTIPLAYER)
        b = render_prompt("P1", MULTIPLAYER)
        assert a == b

    def test_injective_over_distinct_statements(self):
        other = _statement("Multiplayer", "subClassOf", "Reward")
        seen = {
            render_prompt(tid, st).rendered
            for tid in ("P1", "P2", "P3")
            for st in (MULTIPLAYER, other)
        }
        assert len(seen) == 6

    def test_unknown_template_error(self):
        with pytest.raises(UnknownTemplateError):
            render_prompt("P9", MULTIPLAYER)
