"""Evaluation metrics and descriptive statistics.

Counting conventions: a validated candidate is a true positive; an
unvalidated candidate a false positive; an unmatched design CQ a false
negative. Precision is validated/candidates, recall is
validated/(validated + unmatched design CQs), and F1 their harmonic
mean. Display values round half-up (4 decimals for metrics, 2 for rates
and word statistics, whole percents); raw quotients are kept alongside.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .filtration import CandidateCQ, normalize_question
from .matcher import MatchReport


class MetricsError(Exception):
    pass


class ZeroTripleError(MetricsError):
    def __init__(self) -> None:
        super().__init__("cannot compute a questions-per-triple rate over 0 triples")


class MissingVerdictError(MetricsError):
    def __init__(self, unlabeled: Sequence[str], source_path: str = "") -> None:
        preview = "; ".join(unlabeled[:5])
        where = f"{source_path}: " if source_path else ""
        super().__init__(
            f"{where}{len(unlabeled)} candidate(s) have no verdict, e.g.: {preview}"
        )
        self.unlabeled = list(unlabeled)


def round_half_up(value: float, places: int) -> float:
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class EvalMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    n_questions: int
    n_triples: int
    mean_q_per_triple: float
    n_candidates: int
    n_design: Optional[int]

    def rounded(self) -> dict:
        """Display values, Table-2 style."""
        return {
            "mean_q_per_triple": round_half_up(self.mean_q_per_triple, 2),
            "precision": round_half_up(self.precision, 4),
            "recall": round_half_up(self.recall, 4),
            "f1": round_half_up(self.f1, 4),
        }


def mean_questions_per_triple(n_questions: int, n_triples: int) -> float:
    if n_triples <= 0:
        raise ZeroTripleError()
    return n_questions / n_triples


def metrics_from_counts(
    tp: int,
    fp: int,
    fn: int,
    n_questions: int,
    n_triples: int,
    n_design: Optional[int] = None,
) -> EvalMetrics:
    """Assemble metrics from raw counts (the audit path: no matching).
    A quotient whose denominator is 0 is undefined and reported as 0.0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalMetrics(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        n_questions=n_questions,
        n_triples=n_triples,
        mean_q_per_triple=mean_questions_per_triple(n_questions, n_triples),
        n_candidates=tp + fp,
        n_design=n_design,
    )


def compute_metrics(
    report: MatchReport, n_questions: int, n_triples: int
) -> EvalMetrics:
    """Metrics for one (template, provider) cell from its match report."""
    tp = report.validated_count
    fp = len(report.candidate_matches) - tp
    n_design = len(report.design_coverage)
    fn = n_design - report.design_coverage.count
    return metrics_from_counts(tp, fp, fn, n_questions, n_triples, n_design=n_design)


def word_count(question: str) -> int:
    """Whitespace tokens after stripping the terminal '?'."""
    text = question.strip()
    while text.endswith("?"):
        text = text[:-1].rstrip()
    return len(text.split())


def percentile_linear(sorted_values: Sequence[float], p: float) -> float:
    """Percentile by linear interpolation at index p x (n - 1)."""
    if not sorted_values:
        raise ValueError("empty input")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = p * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(sorted_values[lower])
    fraction = position - lower
    return sorted_values[lower] + (sorted_values[upper] - sorted_values[lower]) * fraction


@dataclass(frozen=True)
class StatsRow:
    """Word-count statistics of the unmatched design CQs. ``std`` is the
    sample (n-1) standard deviation and is absent for a single value;
    every field but the count is absent for an empty input."""

    n_unmatched: int
    pct_unmatched: Optional[float]
    mean: Optional[float]
    std: Optional[float]
    min: Optional[int]
    p25: Optional[float]
    p50: Optional[float]
    max: Optional[int]

    def rounded(self) -> dict:
        def r2(v: Optional[float]) -> Optional[float]:
            return None if v is None else round_half_up(v, 2)

        return {
            "n_unmatched": self.n_unmatched,
            "pct_unmatched": None
            if self.pct_unmatched is None
            else int(round_half_up(self.pct_unmatched, 0)),
            "mean": r2(self.mean),
            "std": r2(self.std),
            "min": self.min,
            "p25": r2(self.p25),
            "p50": r2(self.p50),
            "max": self.max,
        }


def unmatched_stats(word_counts: Iterable[int], n_design: int) -> StatsRow:
    """Descriptive statistics over unmatched-CQ word counts.

    Order-insensitive in the input multiset. ``pct_unmatched`` is taken
    against the design CQ count, not the candidate count.
    """
    if n_design <= 0:
        raise ValueError("n_design must be positive")
    values = sorted(word_counts)
    n = len(values)
    if n == 0:
        return StatsRow(0, None, None, None, None, None, None, None)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std: Optional[float] = math.sqrt(variance)
    else:
        std = None
    return StatsRow(
        n_unmatched=n,
        pct_unmatched=100.0 * n / n_design,
        mean=mean,
        std=std,
        min=values[0],
        p25=percentile_linear(values, 0.25),
        p50=percentile_linear(values, 0.50),
        max=values[-1],
    )


class Verdict(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    HINDSIGHT_VALID = "hindsight_valid"


@dataclass(frozen=True)
class ValidationLabels:
    """Developer verdicts keyed by candidate text (normalized)."""

    entries: tuple[tuple[str, Verdict], ...]
    source_path: str = ""


def load_validation_labels(path: Union[str, Path]) -> ValidationLabels:
    """CSV with header ``question,verdict``. A wrong header, or a row
    without a known verdict, raises :class:`MetricsError`; the row's
    message gives its number, counting the header as row 1."""
    entries = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [
            f.strip().lower() for f in reader.fieldnames[:2]
        ] != ["question", "verdict"]:
            raise MetricsError(
                f"expected CSV header 'question,verdict', found {reader.fieldnames}"
            )
        for i, row in enumerate(reader, 2):
            try:  # a short row has no verdict: None
                entries.append((row["question"], Verdict((row["verdict"] or "").strip())))
            except ValueError as exc:
                raise MetricsError(f"row {i}: {exc}") from None
    return ValidationLabels(tuple(entries), source_path=str(path))


def precision_from_labels(
    candidates: Sequence[Union[CandidateCQ, str]], labels: ValidationLabels
) -> float:
    """Human-validation precision: the share of kept candidates marked
    valid (including hindsight-valid) by the developer."""
    if not candidates:
        return 0.0
    verdicts = {
        normalize_question(text): verdict for text, verdict in labels.entries
    }
    unlabeled = []
    valid = 0
    for c in candidates:
        text = c.text if isinstance(c, CandidateCQ) else c
        verdict = verdicts.get(normalize_question(text))
        if verdict is None:
            unlabeled.append(text)
        elif verdict in (Verdict.VALID, Verdict.HINDSIGHT_VALID):
            valid += 1
    if unlabeled:
        raise MissingVerdictError(unlabeled, labels.source_path)
    return valid / len(candidates)
