"""Acceptance suite.

One test per shipped guarantee, each printing a PASS line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Published-table
audits check the metric formulas against the reported numbers; pipeline
guarantees run offline against the bundled fixtures with the mock
provider and the lexical matcher backend.
"""
import json
import math
import random

import pytest

from cqretrofit.cli import main
from cqretrofit.filtration import (
    FiltrationConfig,
    RemovalReason,
    Strictness,
    filter_questions,
    kept_questions,
)
from cqretrofit.gateway import GenerationRecord, generate_records, mock_provider
from cqretrofit.matcher import (
    DesignCQSet,
    MatcherConfig,
    embed,
    match_candidates,
    similarity,
)
from cqretrofit.metrics import (
    compute_metrics,
    mean_questions_per_triple,
    metrics_from_counts,
    precision_from_labels,
    unmatched_stats,
)
from cqretrofit.metrics import ValidationLabels, Verdict
from cqretrofit.ontology import (
    Statement,
    Term,
    filter_statements,
    parse_ontology,
    to_ntriples,
)

from conftest import FIXTURES

TOLERANCE_METRIC = 5e-4
TOLERANCE_TABLE4 = 2e-4
TOLERANCE_QT = 0.01


def ok(criterion: str) -> None:
    print(f"[PASS] {criterion}")


# Published per-(ontology, prompt, model) results:
# (ontology, prompt, model, n_questions, mean_qt, candidates, validated,
#  precision, recall, f1, unmatched design CQs).
# The Dem@care/P1/gpt-4 candidate count is printed as 2789, but both its
# printed precision (0.8348) and F1 (0.9084) reconcile only with 2798
# (digit transposition); the reconciling count is used here and the
# mismatch of the printed one is asserted below.
TABLE_ROWS = [
    ("Video Game", "P1", "gpt-3.5-turbo", 549, 1.51, 375, 204, 0.5440, 0.9622, 0.6950, 8),
    ("Video Game", "P1", "gpt-4", 1373, 3.79, 1306, 1115, 0.8537, 0.9955, 0.9192, 5),
    ("Video Game", "P1", "Llama-2-70b-chat", 497, 1.37, 439, 399, 0.9088, 0.9925, 0.9488, 3),
    ("Video Game", "P2", "gpt-3.5-turbo", 1129, 3.11, 902, 532, 0.5898, 0.9943, 0.7404, 3),
    ("Video Game", "P2", "gpt-4", 4536, 12.49, 1591, 1406, 0.8837, 0.9985, 0.9376, 2),
    ("Video Game", "P2", "Llama-2-70b-chat", 2456, 6.76, 1050, 917, 0.8733, 0.9989, 0.9319, 1),
    ("Video Game", "P3", "gpt-3.5-turbo", 1078, 2.97, 812, 487, 0.5997, 0.9898, 0.7469, 5),
    ("Video Game", "P3", "gpt-4", 4180, 11.51, 1738, 1398, 0.8043, 0.9971, 0.8904, 4),
    ("Video Game", "P3", "Llama-2-70b-chat", 2323, 6.39, 1060, 796, 0.7509, 0.9962, 0.8563, 3),
    ("VICINITY Core", "P1", "gpt-3.5-turbo", 620, 0.71, 538, 280, 0.5204, 0.9722, 0.6779, 8),
    ("VICINITY Core", "P1", "gpt-4", 830, 0.95, 565, 453, 0.8017, 0.9956, 0.8882, 2),
    ("VICINITY Core", "P1", "Llama-2-70b-chat", 560, 0.64, 225, 135, 0.6000, 0.9712, 0.7417, 4),
    ("VICINITY Core", "P2", "gpt-3.5-turbo", 900, 1.03, 690, 273, 0.3956, 0.9545, 0.5594, 13),
    ("VICINITY Core", "P2", "gpt-4", 2926, 3.35, 1109, 710, 0.6402, 0.9847, 0.7759, 11),
    ("VICINITY Core", "P2", "Llama-2-70b-chat", 1843, 2.11, 680, 380, 0.5588, 0.9819, 0.7122, 7),
    ("VICINITY Core", "P3", "gpt-3.5-turbo", 934, 1.06, 512, 236, 0.4609, 0.9593, 0.6226, 10),
    ("VICINITY Core", "P3", "gpt-4", 1726, 1.98, 778, 428, 0.5501, 0.9861, 0.7062, 6),
    ("VICINITY Core", "P3", "Llama-2-70b-chat", 2269, 2.59, 698, 448, 0.6418, 0.9911, 0.7791, 4),
    ("Dem@care", "P1", "gpt-3.5-turbo", 1900, 0.84, 1485, 998, 0.6720, 0.9920, 0.8012, 8),
    ("Dem@care", "P1", "gpt-4", 4289, 1.92, 2798, 2336, 0.8348, 0.9961, 0.9084, 9),
    ("Dem@care", "P1", "Llama-2-70b-chat", 2453, 1.09, 1566, 1246, 0.7956, 0.9928, 0.8833, 9),
    ("Dem@care", "P2", "gpt-3.5-turbo", 3439, 1.54, 1372, 1006, 0.7332, 0.9940, 0.8439, 6),
    ("Dem@care", "P2", "gpt-4", 4159, 1.86, 2342, 2022, 0.8633, 0.9970, 0.9254, 6),
    ("Dem@care", "P2", "Llama-2-70b-chat", 2414, 1.07, 1500, 1220, 0.8133, 0.9934, 0.8944, 8),
    ("Dem@care", "P3", "gpt-3.5-turbo", 3590, 1.60, 1248, 856, 0.6858, 0.9907, 0.8106, 8),
    ("Dem@care", "P3", "gpt-4", 4843, 2.16, 2874, 2580, 0.8977, 0.9984, 0.9454, 4),
    ("Dem@care", "P3", "Llama-2-70b-chat", 2413, 1.08, 1586, 1321, 0.8329, 0.9947, 0.9066, 7),
]

TRIPLE_COUNTS = {"Video Game": 363, "VICINITY Core": 873, "Dem@care": 2238}

SOLAR_ROWS = [  # (model, n_questions, mean_qt, candidates, validated, precision)
    ("gpt-3.5-turbo", 604, 1.79, 206, 180, 0.8737),
    ("gpt-4", 1194, 3.54, 800, 609, 0.7612),
    ("Llama-2-70b-chat", 1856, 5.51, 1108, 995, 0.9074),
]
SOLAR_TRIPLES = 337


def test_criterion_1_table2_formula_audit():
    assert len(TABLE_ROWS) == 27
    for row in TABLE_ROWS:
        _, _, _, n_q, _, candidates, validated, p, r, f1, unmatched = row
        m = metrics_from_counts(
            tp=validated,
            fp=candidates - validated,
            fn=unmatched,
            n_questions=n_q,
            n_triples=TRIPLE_COUNTS[row[0]],
        )
        assert m.precision == pytest.approx(p, abs=TOLERANCE_METRIC), row
        assert m.recall == pytest.approx(r, abs=TOLERANCE_METRIC), row
        assert m.f1 == pytest.approx(f1, abs=TOLERANCE_METRIC), row
    # spot anchors
    assert 204 / 375 == pytest.approx(0.5440, abs=TOLERANCE_METRIC)
    assert 204 / (204 + 8) == pytest.approx(0.9622, abs=TOLERANCE_METRIC)
    assert metrics_from_counts(204, 171, 8, 1, 1).f1 == pytest.approx(
        0.6950, abs=TOLERANCE_METRIC
    )
    assert 1406 / 1591 == pytest.approx(0.8837, abs=TOLERANCE_METRIC)
    assert 2580 / (2580 + 4) == pytest.approx(0.9984, abs=TOLERANCE_METRIC)
    # the one printed count that does not reconcile: 2336/2789 misses the
    # printed 0.8348 by ~28e-4, while 2336/2798 lands within 1e-4
    assert abs(2336 / 2789 - 0.8348) > TOLERANCE_METRIC
    assert 2336 / 2798 == pytest.approx(0.8348, abs=1e-4)
    ok("criterion 1: Table 2 precision/recall/F1 audit over all 27 rows")


def test_criterion_2_mean_questions_per_triple_audit():
    for row in TABLE_ROWS:
        ontology, _, _, n_q, printed_qt, *_ = row
        computed = mean_questions_per_triple(n_q, TRIPLE_COUNTS[ontology])
        assert computed == pytest.approx(printed_qt, abs=TOLERANCE_QT), row
    # known near-boundary case: 1900/2238 = 0.849 printed as 0.84
    assert mean_questions_per_triple(1900, 2238) == pytest.approx(0.84, abs=TOLERANCE_QT)
    for _, n_q, printed_qt, *_ in SOLAR_ROWS:
        assert mean_questions_per_triple(n_q, SOLAR_TRIPLES) == pytest.approx(
            printed_qt, abs=TOLERANCE_QT
        )
    ok("criterion 2: Mean Q/T audit, Table 2 + developer-study rows")


def _label_fixture(n_candidates, n_valid):
    candidates = [f"Candidate question {i} about orbit {i}?" for i in range(n_candidates)]
    labels = ValidationLabels(
        tuple(
            (q, Verdict.VALID if i < n_valid else Verdict.INVALID)
            for i, q in enumerate(candidates)
        )
    )
    return candidates, labels


def test_criterion_3_table4_audit():
    candidates, labels = _label_fixture(206, 180)
    assert precision_from_labels(candidates, labels) == pytest.approx(
        0.8737, abs=TOLERANCE_TABLE4
    )
    candidates, labels = _label_fixture(800, 609)
    assert precision_from_labels(candidates, labels) == pytest.approx(
        0.7612, abs=TOLERANCE_TABLE4
    )
    candidates, labels = _label_fixture(1108, 995)
    ours = precision_from_labels(candidates, labels)
    assert ours == pytest.approx(0.8980, abs=TOLERANCE_TABLE4)
    delta = abs(ours - 0.9074)
    assert delta > TOLERANCE_METRIC  # documented discrepancy in the printed row
    ok(
        "criterion 3: Table 4 audit (0.8737, 0.7612 reproduced; "
        f"995/1108 printed 0.9074 flagged, delta={delta:.4f})"
    )


def test_criterion_4_unmatched_statistics():
    row = unmatched_stats([8, 8, 9, 9, 9], 66).rounded()
    assert (
        row["n_unmatched"],
        row["pct_unmatched"],
        row["mean"],
        row["std"],
        row["min"],
        row["p25"],
        row["p50"],
        row["max"],
    ) == (5, 8, 8.6, 0.55, 8, 8.0, 9.0, 9)
    single = unmatched_stats([9], 66).rounded()
    assert single["std"] is None
    assert (single["n_unmatched"], single["pct_unmatched"]) == (1, 2)
    assert single["mean"] == single["min"] == single["p25"] == single["p50"] == single["max"] == 9

    rng = random.Random(20240229)
    for _ in range(1000):
        values = [rng.randint(1, 40) for _ in range(rng.randint(1, 25))]
        shuffled = values[:]
        rng.shuffle(shuffled)
        a = unmatched_stats(values, 100)
        b = unmatched_stats(shuffled, 100)
        assert a == b
        assert a.min <= a.p25 <= a.p50 <= a.max
    ok("criterion 4: Table 3 statistics exact rows + 1000-case property")


def _run_pipeline(base, tag):
    out = base / f"out_{tag}"
    cache = base / f"cache_{tag}"
    argv = [
        "--output-dir", str(out), "--cache-dir", str(cache), "--seed", "13",
        "generate", str(FIXTURES / "videogame_20.nt"),
    ]
    assert main(argv) == 0
    argv = [
        "--output-dir", str(out),
        "evaluate", "--design", str(FIXTURES / "design_cqs.txt"), "--tau", "0.7",
    ]
    assert main(argv) == 0
    return out


def test_criterion_5_end_to_end_determinism(tmp_path):
    first = _run_pipeline(tmp_path, "a")
    second = _run_pipeline(tmp_path, "b")
    names = sorted(p.name for p in first.glob("questions_*.csv"))
    assert len(names) == 3  # P1, P2, P3 x mock
    for name in names + ["report.json", "summary.csv"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    ok(f"criterion 5: byte-identical outputs across runs ({len(names) + 2} files)")


def _synthetic_instance():
    raw = parse_ontology((FIXTURES / "videogame_20.nt").read_text(), "ntriples")
    sset = filter_statements(raw, "vg")
    records = generate_records(sset.statements[:14], ["P1"], [mock_provider()], seed=11)
    candidates = [c.text for c in kept_questions(filter_questions(records))][:50]
    design = DesignCQSet(tuple(candidates[2:14]))  # exact subset, 12 questions
    return candidates, design


def _brute_force_counts(candidate_texts, design, tau):
    from cqretrofit.filtration import normalize_question
    from cqretrofit.matcher import EmptyTextError

    def vec(text):
        try:
            return embed(normalize_question(text))
        except EmptyTextError:
            return None

    cand_vecs = [vec(t) for t in candidate_texts]
    design_vecs = [vec(t) for t in design.questions]
    # A pair with a zero vector (no content tokens) is never a hit, even
    # at threshold 0, as in match_candidates.
    matrix = [
        [
            None if (a is None or b is None) else math.fsum(x * y for x, y in zip(a, b))
            for b in design_vecs
        ]
        for a in cand_vecs
    ]

    def hit(sim):
        return sim is not None and sim >= tau - 1e-9

    validated = sum(1 for row in matrix if any(hit(sim) for sim in row))
    matched = sum(
        1 for j in range(len(design.questions)) if any(hit(row[j]) for row in matrix)
    )
    return validated, matched


def test_criterion_6_synthetic_recall_oracle():
    candidates, design = _synthetic_instance()
    assert len(candidates) <= 50 and len(design.questions) <= 20
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
        cfg = MatcherConfig(similarity_threshold=tau)
        report = match_candidates(candidates, design, cfg)
        m = compute_metrics(report, n_questions=len(candidates), n_triples=14)
        assert report.design_coverage.count == len(design.questions), tau
        assert m.fn == 0
        assert m.recall == 1.0, tau
        brute_validated, brute_matched = _brute_force_counts(candidates, design, tau)
        assert report.validated_count == brute_validated
        assert report.design_coverage.count == brute_matched

    # dropping k design-matching candidates loses exactly k validations
    tau = 0.99
    cfg = MatcherConfig(similarity_threshold=tau)
    before = match_candidates(candidates, design, cfg).validated_count
    k = 4
    removed = list(design.questions[:k])
    remaining = [c for c in candidates if c not in removed]
    after = match_candidates(remaining, design, cfg).validated_count
    assert before - after == k
    brute_after, _ = _brute_force_counts(remaining, design, tau)
    assert after == brute_after
    ok("criterion 6: synthetic recall oracle (recall=1 at every tau, drop-by-k exact)")


ENVISION = (
    "Could you envision a future where multiplayer games abandon traditional "
    "achievements in favour of more dynamic, player-driven goals and "
    "objectives? Why or why not?"
)


def test_criterion_7_filtration_properties():
    raw = parse_ontology((FIXTURES / "videogame_20.nt").read_text(), "ntriples")
    sset = filter_statements(raw, "vg")
    records = generate_records(sset, ["P1", "P2"], [mock_provider()], seed=5)
    out = filter_questions(records)
    n_input = sum(len(r.questions) for r in records)
    assert len(out) == n_input
    kept = kept_questions(out)
    assert len(kept) + sum(1 for c in out if not c.kept) == n_input

    again = filter_questions(
        [
            GenerationRecord(c.statement_ordinal, c.template_id, c.provider_id, (c.text,))
            for c in kept
        ]
    )
    assert all(c.kept for c in again)

    rng = random.Random(7)
    vocab = "player game reward guild badge level score arena what how which".split()
    questions = [
        " ".join(rng.choices(vocab, k=rng.randint(2, 6))) + "?" for _ in range(60)
    ]
    records = [GenerationRecord(i, "P1", "m", (q,)) for i, q in enumerate(questions)]

    def dup_count(threshold):
        cfg = FiltrationConfig(
            dedup_ratio_threshold=threshold, strictness=Strictness.OFF
        )
        return sum(
            1
            for c in filter_questions(records, cfg)
            if c.removal_reason is RemovalReason.DUPLICATE
        )

    counts = [dup_count(t) for t in range(0, 101, 5)]
    assert counts == sorted(counts, reverse=True)

    verbatim = filter_questions(
        [
            GenerationRecord(0, "P1", "m", ("Is Multiplayer a class?",)),
            GenerationRecord(1, "P1", "m", (ENVISION,)),
        ]
    )
    assert verbatim[0].removal_reason is RemovalReason.MODELLING_PRIMITIVE
    assert verbatim[1].removal_reason is RemovalReason.SUBJECTIVE_NARRATIVE
    ok("criterion 7: filtration idempotence, partition, monotonicity, verbatim removals")


def test_criterion_8_parser_suite():
    rng = random.Random(99)
    nouns = "Planet Moon Orbit Star Ring Comet Dust Cloud Belt Giant".split()
    preds = "orbits contains influences neighbours shadows".split()
    lines = []
    seen = set()
    while len(lines) < 200:
        s = f"http://space.example.org/astro#{rng.choice(nouns)}_{len(lines)}"
        p = f"http://space.example.org/astro#{rng.choice(preds)}"
        if rng.random() < 0.2:
            o = f'"measured value {len(lines)}\\n\\"quoted\\""'
        else:
            o = f"<http://space.example.org/astro#{rng.choice(nouns)}>"
        line = f"<{s}> <{p}> {o} ."
        if line not in seen:
            seen.add(line)
            lines.append(line)
    corpus = "\n".join(lines) + "\n"
    first = parse_ontology(corpus, "ntriples")
    assert len(first) == 200
    second = parse_ontology(to_ntriples(first), "ntriples")
    assert first == second

    base = "http://ex.org/onto#"
    crafted = [
        Statement(Term.iri(base + "A"), Term.iri(base + "p"), Term.iri(base + "B"), 0),
        Statement(Term.blank("b0"), Term.iri(base + "p"), Term.iri(base + "C"), 1),
        Statement(Term.iri(base + "D"), Term.iri(base + "p"), Term.blank("b1"), 2),
        Statement(
            Term.iri(base + "E"),
            Term.iri(base + "p"),
            Term.iri("http://www.wikidata.org/entity/Q42"),
            3,
        ),
        Statement(Term.iri(base + "F"), Term.iri(base + "p"), Term.iri(base + "G"), 4),
    ]
    counts = filter_statements(crafted).counts
    assert (counts.parsed, counts.excluded_blank, counts.excluded_opaque, counts.kept) == (
        5,
        2,
        1,
        2,
    )

    ttl = parse_ontology((FIXTURES / "vicinity_sample.ttl").read_text(), "turtle")
    nt = parse_ontology((FIXTURES / "vicinity_sample.nt").read_text(), "ntriples")
    assert ttl == nt
    ok("criterion 8: N-Triples round-trip (200 lines), exclusion counts, Turtle twin")


def test_criterion_9_matcher_numerics():
    candidates, design = _synthetic_instance()
    texts = list(candidates) + list(design.questions)
    import numpy as np

    vectors = [embed(t) for t in texts]
    for v in vectors:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6
        assert similarity(v, v) == pytest.approx(1.0, abs=1e-6)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.choice(vectors), rng.choice(vectors)
        assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-12)

    previous = None
    for tau in [round(0.1 * k, 1) for k in range(1, 10)]:
        count = match_candidates(
            candidates, design, MatcherConfig(similarity_threshold=tau)
        ).validated_count
        if previous is not None:
            assert count <= previous
        previous = count
    ok("criterion 9: unit norms, cosine symmetry, self-similarity, tau monotonicity")
