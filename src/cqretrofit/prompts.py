"""Prompt templates and rendering.

Three fixed templates ship with the tool: a general question request
(P1), one that adds the competency-question definition (P2), and one
that also frames the request with an ontology-engineer role (P3). Their
wording is fixed, including minor grammatical quirks; do not normalise
it. A statement is rendered as a bracketed label list and appears twice
in every rendered prompt: substituted into the instruction sentence and
appended after it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .ontology import Statement

STATEMENT_SLOT = "<statement>"


class PromptError(Exception):
    """Base class for prompt rendering errors."""


class UnknownTemplateError(PromptError):
    def __init__(self, template_id: str) -> None:
        known = ", ".join(t.id for t in list_templates())
        super().__init__(f"unknown template {template_id!r} (shipped: {known})")
        self.template_id = template_id


class MissingLabelError(PromptError):
    def __init__(self, statement: Statement) -> None:
        super().__init__(
            f"statement {statement.ordinal} has a term without a readable label; "
            "filter the statement set before rendering"
        )
        self.statement = statement


class BadTemplateError(PromptError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str

    def __post_init__(self) -> None:
        n = self.body.count(STATEMENT_SLOT)
        if n != 1:
            raise BadTemplateError(
                f"template {self.id!r} must contain exactly one "
                f"{STATEMENT_SLOT!r} slot, found {n}"
            )


P1 = PromptTemplate(
    "P1",
    "Based on <statement>, generate a list of relevant question",
)
P2 = PromptTemplate(
    "P2",
    "Based on the <statement>, generate a list of competency question. "
    "Definition of competency questions: the questions that outline the scope "
    "of an ontology and provide an idea about the knowledge that needs to be "
    "entailed in the ontology.",
)
P3 = PromptTemplate(
    "P3",
    "As an ontology engineer, generate a list of competency questions based "
    "on the <statement>. Definition of competency questions: the questions "
    "that outline the scope of ontology and provide an idea about the "
    "knowledge that needs to be entailed in the ontology",
)

_SHIPPED = (P1, P2, P3)


def list_templates() -> tuple[PromptTemplate, ...]:
    """The shipped templates, in order P1, P2, P3."""
    return _SHIPPED


def get_template(template_id: str) -> PromptTemplate:
    for t in _SHIPPED:
        if t.id == template_id:
            return t
    raise UnknownTemplateError(template_id)


def load_template_file(path: Union[str, Path]) -> PromptTemplate:
    """Load a user-supplied template; the file stem becomes its id."""
    p = Path(path)
    return PromptTemplate(p.stem, p.read_text(encoding="utf-8-sig").strip())


@dataclass(frozen=True)
class PromptInstance:
    template_id: str
    statement_ordinal: int
    rendered: str
    labels: tuple[str, str, str]


def _labels(statement: Statement) -> tuple[str, str, str]:
    labels = (statement.subject.readable(), statement.predicate.readable(),
              statement.object.readable())
    if None in labels:
        raise MissingLabelError(statement)
    return labels


def render_prompt(
    template: Union[str, PromptTemplate], statement: Statement
) -> PromptInstance:
    """Instantiate a template for one statement.

    The statement's bracketed label list, e.g. ``['Hippocamp', 'type',
    'Solar_System_Satellite']`` (a literal object by its lexical form),
    replaces the slot and is appended once more after the template text,
    separated by a single space.
    """
    if isinstance(template, str):
        template = get_template(template)
    labels = _labels(statement)
    rendered_statement = "['{}', '{}', '{}']".format(*labels)
    rendered = (
        template.body.replace(STATEMENT_SLOT, rendered_statement)
        + " "
        + rendered_statement
    )
    return PromptInstance(template.id, statement.ordinal, rendered, labels)
