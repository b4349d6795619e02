"""RDF statement ingestion.

Parses N-Triples documents (and a documented Turtle subset) into
(subject, predicate, object) statements, derives human-readable labels
from HTTP(S) IRI local names, and filters out statements that cannot be
verbalised: blank-node subjects/objects and opaque local names.

Turtle support covers: ``@prefix``/``PREFIX`` declarations, the ``a``
keyword, predicate-object lists (``;``), object lists (``,``), IRIs and
prefixed names, plain/typed/language-tagged literals, and labelled blank
nodes (``_:b0``). Anything else (collections, anonymous blank nodes,
``@base``, numeric/boolean shorthand, long strings, quoted triples)
raises :class:`UnsupportedConstructError` naming the construct.

Literal datatype and language tags are validated syntactically and then
dropped: a term keeps only its lexical form.
"""
from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


class OntologyError(Exception):
    """Base class for ingestion errors."""


class EmptyLocalNameError(OntologyError):
    """IRI ends in '#' or '/' with no local name to derive."""

    def __init__(self, iri: str) -> None:
        super().__init__(f"no readable local name in IRI: {iri!r}")
        self.iri = iri


class OntologySyntaxError(OntologyError):
    """Malformed document, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedConstructError(OntologySyntaxError):
    """Syntactically valid Turtle outside the supported subset."""

    def __init__(self, construct: str, line: int, column: int) -> None:
        super().__init__(f"unsupported construct: {construct}", line, column)
        self.construct = construct


class TermKind(str, Enum):
    IRI = "iri"
    LITERAL = "literal"
    BLANK = "blank"


@dataclass(frozen=True)
class Term:
    """One RDF term: an IRI, a literal, or a blank node.

    ``lexical`` holds the full IRI text, the literal's lexical form, or
    the blank-node id (without the ``_:`` sigil). ``label`` is the
    derived readable local name and is only ever set for IRI terms.
    """

    kind: TermKind
    lexical: str
    label: Optional[str] = None

    @staticmethod
    def iri(lexical: str) -> "Term":
        label = None
        if lexical.startswith(("http://", "https://")):
            try:
                label = derive_label(lexical)
            except EmptyLocalNameError:
                label = None
        return Term(TermKind.IRI, lexical, label)

    @staticmethod
    def literal(lexical: str) -> "Term":
        return Term(TermKind.LITERAL, lexical)

    @staticmethod
    def blank(node_id: str) -> "Term":
        return Term(TermKind.BLANK, node_id)

    def readable(self) -> Optional[str]:
        """Display label: the derived name for IRIs, the lexical form
        for literals, nothing for blank nodes."""
        if self.kind is TermKind.LITERAL:
            return self.lexical
        return self.label

    def key(self) -> tuple:
        return (self.kind.value, self.lexical)


@dataclass(frozen=True)
class Statement:
    """One asserted triple with its 0-based extraction ordinal."""

    subject: Term
    predicate: Term
    object: Term
    ordinal: int


@dataclass(frozen=True)
class IngestCounts:
    parsed: int
    excluded_blank: int
    excluded_opaque: int
    kept: int


@dataclass(frozen=True)
class StatementSet:
    """Immutable, filtered statement list plus ingestion bookkeeping."""

    statements: tuple[Statement, ...]
    source_id: str
    counts: IngestCounts

    def __len__(self) -> int:
        return len(self.statements)


def derive_label(iri: str) -> str:
    """Readable local name of an absolute HTTP(S) IRI.

    The fragment after the last '#' when one exists, otherwise the last
    non-empty '/' path segment. Percent-encoding is decoded; underscores
    and casing are preserved.

    Raises:
        EmptyLocalNameError: No fragment/segment to use.
    """
    if "#" in iri:
        fragment = iri.rsplit("#", 1)[1]
        if not fragment:
            raise EmptyLocalNameError(iri)
        return urllib.parse.unquote(fragment)
    rest = iri.split("://", 1)[1] if "://" in iri else iri
    rest = rest.split("?", 1)[0]
    if "/" not in rest:
        raise EmptyLocalNameError(iri)
    path = rest.split("/", 1)[1]
    segments = [seg for seg in path.split("/") if seg]
    if not segments:
        raise EmptyLocalNameError(iri)
    return urllib.parse.unquote(segments[-1])


_LETTER_DIGITS_RE = re.compile(r"^[A-Za-z][0-9]+$")
_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)


def is_opaque_label(label: str) -> bool:
    """True for local names with no human-readable meaning: a single
    letter plus digits (Wikidata-style Q-items), digit/punctuation-only
    tokens, or UUID-shaped tokens."""
    if _LETTER_DIGITS_RE.match(label):
        return True
    if not any(ch.isalpha() for ch in label):
        return True
    return bool(_UUID_RE.match(label))


def _statement_is_opaque(st: Statement, opaque: dict[Optional[str], bool]) -> bool:
    """``opaque`` holds the verdict per IRI label seen so far."""
    for term in (st.subject, st.predicate, st.object):
        if term.kind is TermKind.IRI:
            label = term.label
            if label not in opaque:
                opaque[label] = label is None or is_opaque_label(label)
            if opaque[label]:
                return True
    return False


def filter_statements(raw: Iterable[Statement], source_id: str = "") -> StatementSet:
    """Drop blank-node statements, then opaque-labelled ones, and
    renumber what remains with consecutive ordinals.

    A statement is excluded as blank when its subject or object is a
    blank node, and as opaque when any IRI term has no derivable label
    or an opaque one. Idempotent: re-filtering a kept set changes
    nothing.
    """
    kept: list[Statement] = []
    parsed = 0
    excluded_blank = 0
    excluded_opaque = 0
    opaque: dict[Optional[str], bool] = {}
    for st in raw:
        parsed += 1
        if st.subject.kind is TermKind.BLANK or st.object.kind is TermKind.BLANK:
            excluded_blank += 1
            continue
        if _statement_is_opaque(st, opaque):
            excluded_opaque += 1
            continue
        kept.append(Statement(st.subject, st.predicate, st.object, len(kept)))
    counts = IngestCounts(parsed, excluded_blank, excluded_opaque, len(kept))
    return StatementSet(tuple(kept), source_id, counts)


# Token patterns, each anchored at the scanner's offset. A token that
# does not match (it holds an escape, or it is malformed) is read again
# one character at a time, which decodes the escape or raises the error
# at the offending character.
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_IRIREF = re.compile(r'<([^\n\r "{}|^`<>\\]*)>')
_STRING = {
    '"': re.compile(r'"(?!"")([^"\\\n\r]*)"'),
    "'": re.compile(r"'(?!'')([^'\\\n\r]*)'"),
}
_BLANK_LABEL = re.compile(r"_:([A-Za-z0-9_\-]+)")
_LANGTAG = re.compile(r"@((?:[^\W_]|-)*)")  # [^\W_] is exactly str.isalnum
_PNAME = re.compile(r"([A-Za-z0-9_\-]*)(?::([A-Za-z0-9_\-%]*(?:\.[A-Za-z0-9_\-%]+)*))?")
_BOOLEAN = re.compile(r"(?:true|false)(?![A-Za-z0-9_\-:])")


class _Scanner:
    """Cursor over the document; the 1-based line and column of an
    offset are worked out only when an error is built."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def advance(self) -> str:
        self.pos += 1
        return self.text[self.pos - 1]

    def match(self, pattern: re.Pattern) -> Optional[re.Match]:
        """Match ``pattern`` at the cursor and move past the match."""
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def skip_trivia(self) -> None:
        """Skip whitespace and '#' comments (to end of line)."""
        self.match(_TRIVIA)

    def location(self, pos: Optional[int] = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def error(self, message: str, pos: Optional[int] = None) -> "OntologySyntaxError":
        return OntologySyntaxError(message, *self.location(pos))

    def unsupported(self, construct: str) -> "UnsupportedConstructError":
        return UnsupportedConstructError(construct, *self.location())

    def expect(self, ch: str, what: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {what}, found {self.peek()!r}")
        self.advance()


_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _read_unicode_escape(sc: _Scanner, width: int) -> str:
    digits = ""
    for _ in range(width):
        ch = sc.peek()
        if not ch or ch not in "0123456789abcdefABCDEF":
            raise sc.error(f"bad unicode escape: expected {width} hex digits")
        digits += sc.advance()
    code = int(digits, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise sc.error(
            f"bad unicode escape: U+{code:04X} is not a Unicode scalar value",
            sc.pos - width - 2,  # at the backslash
        )
    return chr(code)


def _read_iriref(sc: _Scanner) -> str:
    m = sc.match(_IRIREF)
    if m:
        return m.group(1)
    sc.expect("<", "'<'")
    out: list[str] = []
    while True:
        if sc.at_end():
            raise sc.error("unterminated IRI")
        ch = sc.peek()
        if ch == ">":
            sc.advance()
            return "".join(out)
        if ch in "\n\r":
            raise sc.error("unterminated IRI")
        if ch == "\\":
            sc.advance()
            esc = sc.peek()
            if esc == "u":
                sc.advance()
                out.append(_read_unicode_escape(sc, 4))
            elif esc == "U":
                sc.advance()
                out.append(_read_unicode_escape(sc, 8))
            else:
                raise sc.error(f"bad escape in IRI: \\{esc}")
            continue
        if ch in ' "{}|^`<':
            raise sc.error(f"character {ch!r} not allowed in IRI")
        out.append(sc.advance())


def _read_string(sc: _Scanner) -> str:
    quote = sc.peek()
    m = sc.match(_STRING[quote])
    if m:
        return m.group(1)
    sc.advance()
    if sc.peek() == quote and sc.peek(1) == quote:
        raise sc.unsupported("triple-quoted string literal")
    out: list[str] = []
    while True:
        if sc.at_end():
            raise sc.error("unterminated string literal")
        ch = sc.peek()
        if ch == quote:
            sc.advance()
            return "".join(out)
        if ch in "\n\r":
            raise sc.error("unterminated string literal")
        if ch == "\\":
            sc.advance()
            esc = sc.peek()
            if esc == "u":
                sc.advance()
                out.append(_read_unicode_escape(sc, 4))
            elif esc == "U":
                sc.advance()
                out.append(_read_unicode_escape(sc, 8))
            elif esc in _STRING_ESCAPES:
                sc.advance()
                out.append(_STRING_ESCAPES[esc])
            else:
                raise sc.error(f"bad escape in string: \\{esc}")
            continue
        out.append(sc.advance())


def _read_blank_label(sc: _Scanner) -> str:
    m = sc.match(_BLANK_LABEL)
    if m:
        return m.group(1)
    sc.expect("_", "'_'")
    sc.expect(":", "':' after '_'")
    raise sc.error("empty blank node label")


def _read_langtag(sc: _Scanner) -> None:
    tag = sc.match(_LANGTAG).group(1)
    if not tag or not tag[0].isalpha():
        raise sc.error("bad language tag")


def _finish_literal(sc: _Scanner, lexical: str, prefixes: Optional[dict]) -> tuple:
    """Consume an optional datatype or language tag, then drop it."""
    if sc.text.startswith("^^", sc.pos):
        sc.pos += 2
        if sc.peek() == "<":
            _read_iriref(sc)
        elif prefixes is not None:
            _read_prefixed_name(sc, prefixes)
        else:
            raise sc.error("expected datatype IRI after '^^'")
    elif sc.peek() == "@":
        _read_langtag(sc)
    return ("literal", lexical)


_PNAME_START = re.compile(r"[A-Za-z_]")
_PNAME_CHARS = re.compile(r"[A-Za-z0-9_\-]")


def _read_prefixed_name(sc: _Scanner, prefixes: dict) -> str:
    """Read ``prefix:local`` and expand it. A trailing dot belongs to
    the statement, not the local name, unless another name char follows."""
    prefix, local = sc.match(_PNAME).groups()
    if local is None:
        raise sc.error(f"expected ':' in prefixed name after {prefix!r}")
    if prefix not in prefixes:
        raise sc.error(f"undeclared prefix {prefix + ':'!r}")
    return prefixes[prefix] + local


# The readers below return a term as a ``(kind, lexical)`` tuple, which
# is also its ``Term.key()``; ``parse_ontology`` builds the Terms.
def _read_turtle_subject(sc: _Scanner, prefixes: dict) -> tuple:
    if sc.at_end():
        raise sc.error("expected subject, found end of input")
    ch = sc.peek()
    if ch == "[":
        raise sc.unsupported("anonymous blank node '[]'")
    if ch == "(":
        raise sc.unsupported("collection '()'")
    if ch == "_":
        return ("blank", _read_blank_label(sc))
    if ch in "\"'":
        raise sc.error("literal not allowed as subject")
    if ch == "<":
        if sc.peek(1) == "<":
            raise sc.unsupported("quoted triple '<<'")
        return ("iri", _read_iriref(sc))
    if _PNAME_START.match(ch) or ch == ":":
        return ("iri", _read_prefixed_name(sc, prefixes))
    raise sc.error(f"expected subject, found {ch!r}")


def _read_turtle_verb(sc: _Scanner, prefixes: dict) -> tuple:
    if sc.at_end():
        raise sc.error("expected predicate, found end of input")
    ch = sc.peek()
    if ch == "a" and not _PNAME_CHARS.match(sc.peek(1) or " ") and sc.peek(1) != ":":
        sc.advance()
        return ("iri", RDF_TYPE_IRI)
    if ch == "<":
        return ("iri", _read_iriref(sc))
    if _PNAME_START.match(ch) or ch == ":":
        return ("iri", _read_prefixed_name(sc, prefixes))
    raise sc.error(f"expected predicate, found {ch!r}")


def _read_turtle_object(sc: _Scanner, prefixes: dict) -> tuple:
    if sc.at_end():
        raise sc.error("expected object, found end of input")
    ch = sc.peek()
    if ch == "[":
        raise sc.unsupported("anonymous blank node '[]'")
    if ch == "(":
        raise sc.unsupported("collection '()'")
    if ch == "<" and sc.peek(1) == "<":
        raise sc.unsupported("quoted triple '<<'")
    if ch == "<":
        return ("iri", _read_iriref(sc))
    if ch == "_":
        return ("blank", _read_blank_label(sc))
    if ch in "\"'":
        lexical = _read_string(sc)
        return _finish_literal(sc, lexical, prefixes)
    if ch.isdigit() or ch in "+-.":
        raise sc.unsupported("numeric literal shorthand")
    if _PNAME_START.match(ch) or ch == ":":
        if sc.match(_BOOLEAN):
            raise sc.unsupported("boolean literal shorthand")
        return ("iri", _read_prefixed_name(sc, prefixes))
    raise sc.error(f"expected object, found {ch!r}")


def _read_bare_word(sc: _Scanner) -> str:
    out: list[str] = []
    while not sc.at_end() and sc.peek().isalpha():
        out.append(sc.advance())
    return "".join(out)


def _parse_prefix_declaration(sc: _Scanner, prefixes: dict, needs_dot: bool) -> None:
    sc.skip_trivia()
    prefix_chars: list[str] = []
    while not sc.at_end() and _PNAME_CHARS.match(sc.peek()):
        prefix_chars.append(sc.advance())
    sc.expect(":", "':' ending the prefix name")
    sc.skip_trivia()
    iri = _read_iriref(sc)
    prefixes["".join(prefix_chars)] = iri
    if needs_dot:
        sc.skip_trivia()
        sc.expect(".", "'.' ending the @prefix directive")


def _parse_turtle(text: str) -> list[tuple]:
    sc = _Scanner(text)
    prefixes: dict[str, str] = {}
    triples: list[tuple] = []
    while True:
        sc.skip_trivia()
        if sc.at_end():
            return triples
        ch = sc.peek()
        if ch == "@":
            sc.advance()
            word = _read_bare_word(sc)
            if word == "prefix":
                _parse_prefix_declaration(sc, prefixes, needs_dot=True)
                continue
            if word == "base":
                raise sc.unsupported("@base directive")
            raise sc.error(f"unknown directive @{word}")
        if ch == "{":
            raise sc.unsupported("graph block '{'")
        # Only letters that upper-case to 'P' or 'B' can start PREFIX/BASE.
        if ch in "pPbB":
            mark = sc.pos
            word = _read_bare_word(sc)
            if word.upper() == "PREFIX" and sc.peek() != ":":
                _parse_prefix_declaration(sc, prefixes, needs_dot=False)
                continue
            if word.upper() == "BASE" and sc.peek() != ":":
                raise sc.unsupported("BASE directive")
            sc.pos = mark
        _parse_turtle_statement(sc, prefixes, triples)


def _parse_turtle_statement(sc: _Scanner, prefixes: dict, triples: list[tuple]) -> None:
    subject = _read_turtle_subject(sc, prefixes)
    while True:
        sc.skip_trivia()
        verb = _read_turtle_verb(sc, prefixes)
        while True:
            sc.skip_trivia()
            obj = _read_turtle_object(sc, prefixes)
            triples.append((subject, verb, obj))
            sc.skip_trivia()
            if sc.peek() == ",":
                sc.advance()
                continue
            break
        if sc.peek() == ";":
            while sc.peek() == ";":
                sc.advance()
                sc.skip_trivia()
            if sc.peek() == ".":
                sc.advance()
                return
            continue
        if sc.peek() == ".":
            sc.advance()
            return
        raise sc.error(f"expected ',', ';' or '.', found {sc.peek()!r}")


def _parse_ntriples(text: str) -> list[tuple]:
    sc = _Scanner(text)
    triples: list[tuple] = []
    while True:
        sc.skip_trivia()
        if sc.at_end():
            return triples
        ch = sc.peek()
        if ch == "<":
            subject = ("iri", _read_iriref(sc))
        elif ch == "_":
            subject = ("blank", _read_blank_label(sc))
        elif ch == "@":
            raise sc.error("directives are not allowed in N-Triples")
        else:
            raise sc.error(f"expected subject IRI or blank node, found {ch!r}")
        sc.skip_trivia()
        if sc.peek() != "<":
            raise sc.error(f"expected predicate IRI, found {sc.peek()!r}")
        predicate = ("iri", _read_iriref(sc))
        sc.skip_trivia()
        ch = sc.peek()
        if ch == "<":
            obj = ("iri", _read_iriref(sc))
        elif ch == "_":
            obj = ("blank", _read_blank_label(sc))
        elif ch == '"':
            lexical = _read_string(sc)
            obj = _finish_literal(sc, lexical, prefixes=None)
        elif ch == "'":
            raise sc.error("single-quoted literals are not allowed in N-Triples")
        else:
            raise sc.error(f"expected object term, found {ch!r}")
        sc.skip_trivia()
        sc.expect(".", "'.' ending the triple")
        triples.append((subject, predicate, obj))


_TERM_OF_KIND = {"iri": Term.iri, "literal": Term.literal, "blank": Term.blank}


class _Terms(dict):
    """The one Term of each ``(kind, lexical)`` key met in one parse."""

    def __missing__(self, key: tuple) -> Term:
        kind, lexical = key
        term = self[key] = _TERM_OF_KIND[kind](lexical)
        return term


def parse_ontology(source_text: str, format: str) -> list[Statement]:
    """Parse a document into raw statements, in document order.

    No blank-node or opaque-name filtering happens here; that is
    :func:`filter_statements`' job. A triple asserted more than once is
    reported once (an RDF graph is a set of triples).

    Args:
        source_text: Full document text.
        format: ``"ntriples"`` or ``"turtle"`` (aliases ``nt``/``ttl``).

    Raises:
        OntologySyntaxError: Malformed input, with line/column.
        UnsupportedConstructError: Turtle outside the supported subset.
    """
    fmt = format.lower()
    if fmt in ("ntriples", "nt", "n-triples"):
        raw = _parse_ntriples(source_text)
    elif fmt in ("turtle", "ttl"):
        raw = _parse_turtle(source_text)
    else:
        raise ValueError(f"unknown format {format!r}; use 'ntriples' or 'turtle'")
    terms = _Terms()
    return [
        Statement(terms[s], terms[p], terms[o], ordinal)
        for ordinal, (s, p, o) in enumerate(dict.fromkeys(raw))
    ]


_NT_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape_literal(lexical: str) -> str:
    return "".join(_NT_ESCAPES.get(ch, ch) for ch in lexical)


# Characters that may not appear raw in an IRIREF: written as \uXXXX.
_IRI_UNSAFE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _term_to_ntriples(term: Term) -> str:
    if term.kind is TermKind.IRI:
        return "<" + _IRI_UNSAFE.sub(lambda m: f"\\u{ord(m.group()):04X}", term.lexical) + ">"
    if term.kind is TermKind.BLANK:
        return f"_:{term.lexical}"
    return f'"{_escape_literal(term.lexical)}"'


def to_ntriples(statements: Iterable[Statement]) -> str:
    """Serialize statements as N-Triples text (one triple per line).
    IRI characters that the parser rejects are written as ``\\uXXXX``."""
    lines = [
        f"{_term_to_ntriples(st.subject)} {_term_to_ntriples(st.predicate)} "
        f"{_term_to_ntriples(st.object)} ."
        for st in statements
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def format_for_path(path: str) -> str:
    """Infer the parse format from a file extension."""
    lower = str(path).lower()
    if lower.endswith(".nt"):
        return "ntriples"
    if lower.endswith(".ttl"):
        return "turtle"
    raise ValueError(f"cannot infer format from {path!r}; pass --format")
