"""Reference parser: the character-by-character N-Triples/Turtle reader
that ``cqretrofit.ontology`` replaced with anchored regex token readers.

It tracks line and column on every character and reads each token one
character at a time. The differential tests in ``test_ontology.py``
require ``cqretrofit.ontology.parse_ontology`` to return the same
statements as :func:`parse_ontology` here, or to raise the same exception
class with the same message, line and column.
"""
from __future__ import annotations

import re
from typing import Optional

from cqretrofit.ontology import (
    RDF_TYPE_IRI,
    OntologySyntaxError,
    Statement,
    Term,
    UnsupportedConstructError,
)


class _Scanner:
    """Character scanner with 1-based line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def checkpoint(self) -> tuple[int, int, int]:
        return (self.pos, self.line, self.col)

    def restore(self, mark: tuple[int, int, int]) -> None:
        self.pos, self.line, self.col = mark

    def skip_trivia(self) -> None:
        """Skip whitespace and '#' comments (to end of line)."""
        while not self.at_end():
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "#":
                while not self.at_end() and self.peek() != "\n":
                    self.advance()
            else:
                return

    def error(self, message: str) -> "OntologySyntaxError":
        return OntologySyntaxError(message, self.line, self.col)

    def unsupported(self, construct: str) -> "UnsupportedConstructError":
        return UnsupportedConstructError(construct, self.line, self.col)

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
        # Reported at the backslash: the escape never spans a line.
        raise OntologySyntaxError(
            f"bad unicode escape: U+{code:04X} is not a Unicode scalar value",
            sc.line,
            sc.col - width - 2,
        )
    return chr(code)


def _read_iriref(sc: _Scanner) -> str:
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


_BLANK_CHARS = re.compile(r"[A-Za-z0-9_\-]")


def _read_blank_label(sc: _Scanner) -> str:
    sc.expect("_", "'_'")
    sc.expect(":", "':' after '_'")
    out: list[str] = []
    while not sc.at_end() and _BLANK_CHARS.match(sc.peek()):
        out.append(sc.advance())
    if not out:
        raise sc.error("empty blank node label")
    return "".join(out)


def _read_langtag(sc: _Scanner) -> str:
    sc.expect("@", "'@'")
    out: list[str] = []
    while not sc.at_end() and (sc.peek().isalnum() or sc.peek() == "-"):
        out.append(sc.advance())
    tag = "".join(out)
    if not tag or not tag[0].isalpha():
        raise sc.error("bad language tag")
    return tag


def _finish_literal(sc: _Scanner, lexical: str, prefixes: Optional[dict]) -> Term:
    """Consume an optional datatype or language tag, then drop it."""
    if sc.peek() == "^" and sc.peek(1) == "^":
        sc.advance()
        sc.advance()
        if sc.peek() == "<":
            _read_iriref(sc)
        elif prefixes is not None:
            _read_prefixed_name(sc, prefixes)
        else:
            raise sc.error("expected datatype IRI after '^^'")
    elif sc.peek() == "@":
        _read_langtag(sc)
    return Term.literal(lexical)


_PNAME_START = re.compile(r"[A-Za-z_]")
_PNAME_CHARS = re.compile(r"[A-Za-z0-9_\-]")
_LOCAL_CHARS = re.compile(r"[A-Za-z0-9_\-%]")


def _read_prefixed_name(sc: _Scanner, prefixes: dict) -> str:
    """Read ``prefix:local`` and expand it. A trailing dot belongs to
    the statement, not the local name, unless another name char follows."""
    prefix_chars: list[str] = []
    while not sc.at_end() and _PNAME_CHARS.match(sc.peek()):
        prefix_chars.append(sc.advance())
    if sc.peek() != ":":
        raise sc.error(f"expected ':' in prefixed name after {''.join(prefix_chars)!r}")
    sc.advance()
    prefix = "".join(prefix_chars)
    local_chars: list[str] = []
    while not sc.at_end():
        ch = sc.peek()
        if _LOCAL_CHARS.match(ch):
            local_chars.append(sc.advance())
        elif ch == "." and _LOCAL_CHARS.match(sc.peek(1) or " "):
            local_chars.append(sc.advance())
        else:
            break
    if prefix not in prefixes:
        raise sc.error(f"undeclared prefix {prefix + ':'!r}")
    return prefixes[prefix] + "".join(local_chars)


def _read_turtle_subject(sc: _Scanner, prefixes: dict) -> Term:
    if sc.at_end():
        raise sc.error("expected subject, found end of input")
    ch = sc.peek()
    if ch == "[":
        raise sc.unsupported("anonymous blank node '[]'")
    if ch == "(":
        raise sc.unsupported("collection '()'")
    if ch == "_":
        return Term.blank(_read_blank_label(sc))
    if ch in "\"'":
        raise sc.error("literal not allowed as subject")
    if ch == "<":
        if sc.peek(1) == "<":
            raise sc.unsupported("quoted triple '<<'")
        return Term.iri(_read_iriref(sc))
    if _PNAME_START.match(ch) or ch == ":":
        return Term.iri(_read_prefixed_name(sc, prefixes))
    raise sc.error(f"expected subject, found {ch!r}")


def _read_turtle_verb(sc: _Scanner, prefixes: dict) -> Term:
    if sc.at_end():
        raise sc.error("expected predicate, found end of input")
    ch = sc.peek()
    if ch == "a" and not _PNAME_CHARS.match(sc.peek(1) or " ") and sc.peek(1) != ":":
        sc.advance()
        return Term.iri(RDF_TYPE_IRI)
    if ch == "<":
        return Term.iri(_read_iriref(sc))
    if _PNAME_START.match(ch) or ch == ":":
        return Term.iri(_read_prefixed_name(sc, prefixes))
    raise sc.error(f"expected predicate, found {ch!r}")


def _read_turtle_object(sc: _Scanner, prefixes: dict) -> Term:
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
        return Term.iri(_read_iriref(sc))
    if ch == "_":
        return Term.blank(_read_blank_label(sc))
    if ch in "\"'":
        lexical = _read_string(sc)
        return _finish_literal(sc, lexical, prefixes)
    if ch.isdigit() or ch in "+-.":
        raise sc.unsupported("numeric literal shorthand")
    if _PNAME_START.match(ch) or ch == ":":
        mark = sc.checkpoint()
        word_chars: list[str] = []
        while not sc.at_end() and _PNAME_CHARS.match(sc.peek()):
            word_chars.append(sc.advance())
        word = "".join(word_chars)
        if sc.peek() != ":" and word in ("true", "false"):
            raise sc.unsupported("boolean literal shorthand")
        sc.restore(mark)
        return Term.iri(_read_prefixed_name(sc, prefixes))
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


def _parse_turtle(text: str) -> list[tuple[Term, Term, Term]]:
    sc = _Scanner(text)
    prefixes: dict[str, str] = {}
    triples: list[tuple[Term, Term, Term]] = []
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
        if ch.isalpha():
            mark = sc.checkpoint()
            word = _read_bare_word(sc)
            if word.upper() == "PREFIX" and sc.peek() != ":":
                _parse_prefix_declaration(sc, prefixes, needs_dot=False)
                continue
            if word.upper() == "BASE" and sc.peek() != ":":
                raise sc.unsupported("BASE directive")
            sc.restore(mark)
        _parse_turtle_statement(sc, prefixes, triples)


def _parse_turtle_statement(
    sc: _Scanner, prefixes: dict, triples: list[tuple[Term, Term, Term]]
) -> None:
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


def _parse_ntriples(text: str) -> list[tuple[Term, Term, Term]]:
    sc = _Scanner(text)
    triples: list[tuple[Term, Term, Term]] = []
    while True:
        sc.skip_trivia()
        if sc.at_end():
            return triples
        ch = sc.peek()
        if ch == "<":
            subject: Term = Term.iri(_read_iriref(sc))
        elif ch == "_":
            subject = Term.blank(_read_blank_label(sc))
        elif ch == "@":
            raise sc.error("directives are not allowed in N-Triples")
        else:
            raise sc.error(f"expected subject IRI or blank node, found {ch!r}")
        sc.skip_trivia()
        if sc.peek() != "<":
            raise sc.error(f"expected predicate IRI, found {sc.peek()!r}")
        predicate = Term.iri(_read_iriref(sc))
        sc.skip_trivia()
        ch = sc.peek()
        if ch == "<":
            obj: Term = Term.iri(_read_iriref(sc))
        elif ch == "_":
            obj = Term.blank(_read_blank_label(sc))
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
    seen: set[tuple] = set()
    statements: list[Statement] = []
    for s, p, o in raw:
        key = (s.key(), p.key(), o.key())
        if key in seen:
            continue
        seen.add(key)
        statements.append(Statement(s, p, o, ordinal=len(statements)))
    return statements
