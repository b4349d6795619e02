"""Seeded synthetic inputs for the benchmark workloads.

Everything is built from two random streams. The *structure* stream is
seeded by the sizes alone: it fixes how many statements of each kind
exist, which statements share a subject, which are blank-node or
opaque-name noise, and how many questions each cell holds. The
*content* stream is seeded by the workload seed and only picks which
words fill those slots. Every word has the same length, so all seeds
give inputs of the same size and shape and the work the program does
barely depends on the seed; the bytes still differ from seed to seed.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Six-letter nouns: every label is one or two of these, so label
# lengths (and so parse, edit-distance and embedding costs) do not
# depend on the seed.
WORDS = tuple(
    """
    sensor device player server record market letter window garden planet
    engine cobalt member museum artist studio ticket flight doctor patient
    farmer family friend leader writer singer dancer banker lawyer mentor
    pirate knight wizard archer healer hunter trader sailor tenant vendor
    branch bridge bucket button camera candle carpet castle cellar cheese
    church circle coffee cotton county course cousin crayon dinner domain
    effect empire energy engine escort estate expert fabric falcon figure
    filter finger forest format fossil fridge galaxy gadget glider hammer
    harbor helmet island jacket jersey jungle kernel kettle ladder laptop
    lesson lizard locker magnet mammal manner marble meadow method mirror
    module monkey motion nation needle number object office orange
    oxygen palace parcel pencil pepper permit pillow pocket poetry police
    policy prison profit puzzle rabbit racket reader region remedy report
    result ribbon rocket saddle salmon school screen script season secret
    signal silver sister sketch socket source spirit spring square stable
    statue stream street string summer supply switch symbol system tablet
    target temple thread throne timber toggle tomato trophy tunnel turtle
    valley vessel violin volume walnut weapon weight wallet widget winter
    """.split()
)
WORDS = tuple(w for w in dict.fromkeys(WORDS) if len(w) == 6)

NS = "http://example.org/onto#"
OPAQUE_NS = "http://www.wikidata.org/entity/"
RDFS_SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# Question frames over (subject, object) labels. The first five are
# also mock-provider frames, so candidates and design CQs written with
# them validate; the rest are phrasings the mock never produces.
FRAMES = (
    "Which {o} is associated with a {s}?",
    "How does {s} relate to {o}?",
    "Does every {s} have a {o}?",
    "What types of {o} can a {s} have?",
    "Is {s} a kind of {o}?",
    "What {o} does a {s} need?",
    "Who maintains the {o} of a {s}?",
    "When is a {o} assigned to a {s}?",
)
# Design CQs that no statement grounds: the share of design CQs the
# paper reports as unmatched aggregation or ungrounded questions.
UNGROUNDED_FRAMES = (
    "How many {s} were counted last {o} season?",
    "What is the average {s} per {o} budget?",
)


@dataclass(frozen=True)
class Triple:
    """One statement as N-Triples term strings plus its readable labels
    (``None`` labels mark noise the program must exclude)."""

    s: str
    p: str
    o: str
    s_label: str | None
    p_label: str | None
    o_label: str | None

    @property
    def kept(self) -> bool:
        return None not in (self.s_label, self.p_label, self.o_label)


def make_ontology(seed: int, n: int, noise_share: float = 0.1) -> list[Triple]:
    """``n`` statements grouped by subject, with ``noise_share`` of them
    blank-node or opaque-name (``Q12345``) statements."""
    structure = random.Random(f"structure:{n}:{noise_share}")
    content = random.Random(f"content:{seed}")
    n_classes = max(8, n * 3 // 5)
    pairs = content.sample(range(len(WORDS) ** 2), n_classes)
    classes = [WORDS[k // len(WORDS)].capitalize() + WORDS[k % len(WORDS)].capitalize()
               for k in pairs]
    predicates = ["has" + w.capitalize() for w in content.sample(WORDS, 24)]
    literal_words = content.sample(WORDS, 40)

    by_subject: dict[str, list[Triple]] = {}
    n_noise = round(n * noise_share)
    noise_at = set(structure.sample(range(n), n_noise))
    seen: set[tuple[str, str, str]] = set()
    for i in range(n):
        # Zipf-like subject reuse: a few classes carry many statements.
        si = min(int(structure.paretovariate(1.2)) - 1, n_classes - 1)
        si = (si * 7 + i % 3) % n_classes
        oi = (si + 1 + structure.randrange(n_classes - 1)) % n_classes
        kind = structure.random()
        pi = structure.randrange(len(predicates))
        lw = structure.randrange(len(literal_words)), structure.randrange(len(literal_words))
        noise = structure.random() < 0.5
        s_name, o_name = classes[si], classes[oi]
        s, s_label = f"<{NS}{s_name}>", s_name
        o, o_label = f"<{NS}{o_name}>", o_name
        if kind < 0.25:
            p, p_label = f"<{RDFS_SUBCLASS}>", "subClassOf"
        elif kind < 0.40:
            p, p_label = f"<{RDF_TYPE}>", "type"
        else:
            p_label = predicates[pi]
            p = f"<{NS}{p_label}>"
            if kind > 0.88:
                o_label = f"{literal_words[lw[0]]} {literal_words[lw[1]]}"
                o = f'"{o_label}"'
        if i in noise_at:
            if noise:
                o, o_label = f"_:b{i}", None
            else:
                s, s_label = f"<{OPAQUE_NS}Q{10000 + i % 90000}>", None
        if (s, p, o) in seen:
            continue
        seen.add((s, p, o))
        by_subject.setdefault(s, []).append(Triple(s, p, o, s_label, p_label, o_label))
    return [t for group in by_subject.values() for t in group]


def to_ntriples(triples: list[Triple]) -> str:
    return "".join(f"{t.s} {t.p} {t.o} .\n" for t in triples)


def _turtle_term(term: str) -> str:
    for prefix, ns in (("ex", NS), ("wd", OPAQUE_NS)):
        if term.startswith(f"<{ns}"):
            return f"{prefix}:{term[len(ns) + 1:-1]}"
    if term == f"<{RDFS_SUBCLASS}>":
        return "rdfs:subClassOf"
    if term == f"<{RDF_TYPE}>":
        return "a"
    return term


def to_turtle(triples: list[Triple]) -> str:
    """Same statements, same order: predicate-object lists per subject
    and object lists for repeated predicates."""
    out = [
        f"@prefix ex: <{NS}> .\n",
        f"@prefix wd: <{OPAQUE_NS}> .\n",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\n",
    ]
    i = 0
    while i < len(triples):
        j = i
        while j < len(triples) and triples[j].s == triples[i].s:
            j += 1
        parts: list[tuple[str, list[str]]] = []
        for t in triples[i:j]:
            if parts and parts[-1][0] == t.p:
                parts[-1][1].append(_turtle_term(t.o))
            else:
                parts.append((t.p, [_turtle_term(t.o)]))
        body = " ;\n    ".join(
            f"{_turtle_term(p)} {' , '.join(objs)}" for p, objs in parts
        )
        out.append(f"{_turtle_term(triples[i].s)} {body} .\n")
        i = j
    return "".join(out)


def design_cqs(seed: int, kept: list[Triple], n: int) -> list[str]:
    """``n`` design CQs: most are drawn from kept statements (some with
    mock frames, so they validate), a tenth are ungrounded."""
    structure = random.Random(f"design:{len(kept)}:{n}")
    content = random.Random(f"design:{seed}")
    out = []
    for k in range(n):
        t = kept[structure.randrange(len(kept))]
        if k % 10 == 9:
            frame = UNGROUNDED_FRAMES[structure.randrange(len(UNGROUNDED_FRAMES))]
            out.append(frame.format(s=content.choice(WORDS), o=content.choice(WORDS)))
        else:
            frame = FRAMES[structure.randrange(len(FRAMES))]
            out.append(frame.format(s=t.s_label, o=t.o_label))
    return out


def questions_csv(texts: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Questions"])
    for text in texts:
        writer.writerow([text])
    return buf.getvalue()


TEMPLATES = ("P1", "P2", "P3")
MODELS = ("gpt-3.5-turbo", "gpt-4", "llama-2-70b")


def write_cells(
    directory: Path, seed: int, pool: list[Triple], focus: list[Triple],
    n_candidates: int, n_questions: int,
) -> None:
    """Paper-shaped evaluate input: one ``questions_<template>_<model>.csv``
    plus JSON sidecar per cell of the 3 templates x 3 models grid.
    Candidates ask about statements of ``pool``; a fifth of them ask
    about the ``focus`` statements the design CQs were drawn from, so a
    realistic share validates."""
    directory.mkdir(parents=True, exist_ok=True)
    for template in TEMPLATES:
        for model in MODELS:
            structure = random.Random(f"cell:{template}:{model}:{n_candidates}")
            content = random.Random(f"cell:{seed}:{template}:{model}")
            spread = max(1, n_candidates // 20)
            texts = []
            for _ in range(n_candidates + structure.randint(-spread, spread)):
                source = focus if structure.random() < 0.2 else pool
                t = source[structure.randrange(len(source))]
                frame = FRAMES[structure.randrange(len(FRAMES))]
                texts.append(frame.format(s=t.s_label, o=t.o_label))
            content.shuffle(texts)
            stem = f"questions_{template}_{model}"
            (directory / f"{stem}.csv").write_text(questions_csv(texts), encoding="utf-8")
            sidecar = {
                "ontology": "ingest",
                "template": template,
                "provider": model.split("-")[0],
                "model": model,
                "n_triples": len(pool),
                "n_questions": n_questions + structure.randint(-spread, spread),
                "n_candidates": len(texts),
            }
            (directory / f"{stem}.json").write_text(
                json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
