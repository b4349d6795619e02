import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqretrofit.filtration import CandidateCQ
from cqretrofit.matcher import (
    BestMatches,
    DesignCQSet,
    MatchReport,
    MatcherConfig,
    match_candidates,
)
from cqretrofit.metrics import (
    MissingVerdictError,
    ValidationLabels,
    Verdict,
    ZeroTripleError,
    compute_metrics,
    load_validation_labels,
    mean_questions_per_triple,
    metrics_from_counts,
    percentile_linear,
    precision_from_labels,
    round_half_up,
    unmatched_stats,
    word_count,
)


class TestComputeMetrics:
    def test_videogame_p1_gpt35_row(self):
        m = metrics_from_counts(204, 171, 8, 549, 363, n_design=66)
        assert m.precision == pytest.approx(0.5440, abs=5e-4)
        assert m.recall == pytest.approx(0.9622, abs=5e-4)
        assert m.f1 == pytest.approx(0.6950, abs=5e-4)
        assert m.tp + m.fp == m.n_candidates == 375

    def test_videogame_p1_gpt4_row(self):
        m = metrics_from_counts(1115, 1306 - 1115, 5, 1373, 363)
        assert m.precision == pytest.approx(0.8537, abs=5e-4)
        assert m.recall == pytest.approx(0.9955, abs=5e-4)
        assert m.f1 == pytest.approx(0.9192, abs=5e-4)

    def test_perfect_matching(self):
        m = metrics_from_counts(10, 0, 0, 10, 10)
        assert m.precision == m.recall == m.f1 == 1.0

    def test_degenerate_counts_flagged(self):
        m = metrics_from_counts(0, 0, 0, 0, 10)
        assert m.precision == m.recall == m.f1 == 0.0

    def test_from_match_report(self):
        design = DesignCQSet(("What is X?", "Who owns Y?"))
        report = match_candidates(
            ["What is X?", "Unrelated volcano question?"],
            design,
            MatcherConfig(similarity_threshold=0.9),
        )
        m = compute_metrics(report, n_questions=4, n_triples=2)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.n_design == 2
        assert m.mean_q_per_triple == 2.0

    def test_counts_from_best_match_arrays(self):
        def side(hits):
            n = len(hits)
            return BestMatches(np.zeros(n, dtype=int), np.zeros(n), np.array(hits, dtype=bool))

        report = MatchReport(
            side([True, False, True, True, False]),
            side([True, False, False]),
            ("A?", "B?", "C?"),
            0.7,
            "lexical_fallback",
        )
        m = compute_metrics(report, n_questions=6, n_triples=3)
        assert (m.tp, m.fp, m.fn, m.n_candidates, m.n_design) == (3, 2, 2, 5, 3)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=200)
    def test_identities(self, tp, fp, fn):
        m = metrics_from_counts(tp, fp, fn, n_questions=1, n_triples=1)
        if tp + fp:
            assert m.precision == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert m.recall == pytest.approx(tp / (tp + fn))
        if m.precision + m.recall:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        lo, hi = sorted((m.precision, m.recall))
        assert lo - 1e-12 <= m.f1 <= hi + 1e-12
        assert (m.f1 == 0.0) == (tp == 0)


class TestMeanQuestionsPerTriple:
    def test_videogame(self):
        assert round_half_up(mean_questions_per_triple(549, 363), 2) == 1.51

    def test_zero_questions(self):
        assert mean_questions_per_triple(0, 100) == 0.0

    def test_solar_system(self):
        assert round_half_up(mean_questions_per_triple(604, 337), 2) == 1.79

    def test_zero_triples(self):
        with pytest.raises(ZeroTripleError):
            mean_questions_per_triple(5, 0)


class TestWordCount:
    @pytest.mark.parametrize(
        "q,n",
        [
            ("Does every player have a username?", 6),
            ("Why?", 1),
            ("Is Multiplayer a class?", 4),
            ("  spaced   out  ?", 2),
        ],
    )
    def test_examples(self, q, n):
        assert word_count(q) == n


class TestUnmatchedStats:
    def test_table3_videogame_p1_gpt4_row(self):
        row = unmatched_stats([8, 8, 9, 9, 9], 66)
        r = row.rounded()
        assert r["n_unmatched"] == 5
        assert r["pct_unmatched"] == 8
        assert r["mean"] == 8.6
        assert r["std"] == 0.55
        assert (r["min"], r["p25"], r["p50"], r["max"]) == (8, 8.0, 9.0, 9)

    def test_single_value_row_has_no_std(self):
        row = unmatched_stats([9], 66)
        r = row.rounded()
        assert r["n_unmatched"] == 1
        assert r["pct_unmatched"] == 2
        assert r["std"] is None
        assert r["mean"] == r["min"] == r["p25"] == r["p50"] == r["max"] == 9

    def test_empty_is_all_absent(self):
        row = unmatched_stats([], 66)
        assert row.n_unmatched == 0
        assert row.mean is row.std is row.min is row.max is None

    def test_no_design_cqs_rejected(self):
        with pytest.raises(ValueError, match="n_design must be positive"):
            unmatched_stats([3], n_design=0)

    def test_percentile_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            percentile_linear([], 0.5)

    def test_constant_multiset_std_zero(self):
        row = unmatched_stats([4, 4, 4], 57)
        assert row.std == 0.0

    def test_pct_against_design_count(self):
        assert unmatched_stats([5] * 13, 57).rounded()["pct_unmatched"] == 23

    def test_order_insensitive(self):
        rng = random.Random(42)
        values = [rng.randint(1, 20) for _ in range(9)]
        rows = {
            unmatched_stats(perm, 100)
            for perm in (values, sorted(values), list(reversed(values)))
        }
        assert len(rows) == 1

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_quartile_ordering(self, values):
        row = unmatched_stats(values, 100)
        assert row.min <= row.p25 <= row.p50 <= row.max
        assert row.min <= row.mean <= row.max


def _labels(pairs):
    return ValidationLabels(tuple((t, Verdict(v)) for t, v in pairs))


class TestPrecisionFromLabels:
    def _candidates(self, n):
        return [f"Question number {i} about topic {i}?" for i in range(n)]

    def test_solar_system_gpt35_row(self):
        candidates = self._candidates(206)
        labels = _labels(
            [(q, "valid") for q in candidates[:170]]
            + [(q, "hindsight_valid") for q in candidates[170:180]]
            + [(q, "invalid") for q in candidates[180:]]
        )
        p = precision_from_labels(candidates, labels)
        assert p == pytest.approx(180 / 206)
        assert round_half_up(p, 4) == 0.8738
        assert p == pytest.approx(0.8737, abs=2e-4)

    def test_solar_system_gpt4_row(self):
        candidates = self._candidates(800)
        labels = _labels(
            [(q, "valid") for q in candidates[:609]]
            + [(q, "invalid") for q in candidates[609:]]
        )
        assert precision_from_labels(candidates, labels) == pytest.approx(
            0.7612, abs=2e-4
        )

    def test_no_candidates_is_zero(self):
        assert precision_from_labels([], _labels([("What is X?", "valid")])) == 0.0

    def test_zero_valid(self):
        candidates = self._candidates(5)
        labels = _labels([(q, "invalid") for q in candidates])
        assert precision_from_labels(candidates, labels) == 0.0

    def test_missing_verdict_lists_candidates(self):
        candidates = self._candidates(3)
        labels = _labels([(candidates[0], "valid")])
        with pytest.raises(MissingVerdictError) as err:
            precision_from_labels(candidates, labels)
        assert len(err.value.unlabeled) == 2

    def test_matching_is_normalized(self):
        labels = _labels([("what is x?", "valid")])
        assert precision_from_labels(["What  is X?"], labels) == 1.0

    def test_accepts_candidatecq_objects(self):
        cand = CandidateCQ("What is X?", 0, "P1", "m")
        labels = _labels([("What is X?", "valid")])
        assert precision_from_labels([cand], labels) == 1.0


class TestLoadValidationLabels:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            'question,verdict\n"What is X?",valid\n"Who is Y?",hindsight_valid\n'
            '"Bad one?",invalid\n'
        )
        labels = load_validation_labels(path)
        assert labels.entries == (
            ("What is X?", Verdict.VALID),
            ("Who is Y?", Verdict.HINDSIGHT_VALID),
            ("Bad one?", Verdict.INVALID),
        )
        assert precision_from_labels(["What is X?", "who is y?"], labels) == 1.0
        assert precision_from_labels(["bad one?"], labels) == 0.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("text,label\nx,valid\n")
        with pytest.raises(Exception):
            load_validation_labels(path)


class TestRounding:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (0.96226415, 4, 0.9623),
            (0.5440, 4, 0.544),
            (0.87378640, 4, 0.8738),
            (8.6, 2, 8.6),
            (0.54771, 2, 0.55),
            (0.125, 2, 0.13),  # half-up, not banker's
            (7.5757, 0, 8.0),
        ],
    )
    def test_half_up(self, value, places, expected):
        assert round_half_up(value, places) == expected
