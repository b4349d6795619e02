"""Similarity matching of candidate CQs against design CQs.

Questions are embedded as unit vectors and compared by cosine (dot
product). The default backend is a fully offline lexical fallback:
feature-hashed bag-of-tokens vectors. A remote sentence-embedding
service can be plugged in through the ``http_embedding`` backend
(request ``{"texts": [...]}``, response ``{"vectors": [[...], ...]}``).

A candidate is validated when its best similarity against the design
set reaches the threshold; a design CQ is matched when some candidate
reaches the threshold against it. Matching is many-to-one: several
candidates may validate against the same design CQ.
"""
from __future__ import annotations

import csv
import hashlib
import io
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import requests

from .filtration import CandidateCQ, normalize_question

DEFAULT_DIMENSION = 512
DEFAULT_SIMILARITY_THRESHOLD = 0.70

# Absolute slack on the >= threshold comparison so identical texts
# (mathematical cosine 1.0) still validate at threshold 1.0 despite
# float rounding in the normalization.
SIMILARITY_EPS = 1e-9

_STOP_WORDS = frozenset(
    """a an the is are was were be been do does did what which who whom whose
    how when where why of in on at to for with and or it its this that these
    those there their his her they them""".split()
)

_TOKEN_RE = re.compile(r"[^a-z0-9]+")


class MatcherError(Exception):
    pass


class EmptyTextError(MatcherError):
    """Nothing left to embed after tokenization and stop-word removal."""


class DimensionMismatchError(MatcherError):
    pass


class EmbeddingEndpointError(MatcherError):
    pass


class MatcherBackend(str, Enum):
    LEXICAL_FALLBACK = "lexical_fallback"
    HTTP_EMBEDDING = "http_embedding"


@dataclass
class MatcherConfig:
    backend: MatcherBackend = MatcherBackend.LEXICAL_FALLBACK
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    endpoint_url: Optional[str] = None
    dimension: int = DEFAULT_DIMENSION
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        self.backend = MatcherBackend(self.backend)
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.backend is MatcherBackend.HTTP_EMBEDDING and not self.endpoint_url:
            raise ValueError("http_embedding backend needs endpoint_url")


@dataclass(frozen=True)
class DesignCQSet:
    """The ontology engineers' original questions, in file order."""

    questions: tuple[str, ...]
    source_path: str = ""

    def __len__(self) -> int:
        return len(self.questions)


def load_design_cqs(path: Union[str, Path]) -> DesignCQSet:
    """Read design CQs from a text file (one question per line) or a
    CSV whose header row is ``Questions``."""
    p = Path(path)
    raw = p.read_text(encoding="utf-8")
    lines = [line for line in raw.splitlines() if line.strip()]
    questions: list[str]
    if lines and lines[0].strip().strip('"').lower() == "questions":
        reader = csv.reader(io.StringIO(raw))
        rows = [row for row in reader if row and row[0].strip()]
        questions = [row[0].strip() for row in rows[1:]]
    else:
        questions = [line.strip() for line in lines]
    return DesignCQSet(tuple(questions), source_path=str(p))


def _tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


def _hash_token(token: str, dimension: int) -> int:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


def embed(text: str, cfg: Optional[MatcherConfig] = None) -> np.ndarray:
    """Unit-norm embedding of one text.

    The lexical fallback hashes content tokens (stop words removed) into
    a fixed-size count vector and L2-normalizes it, so identical token
    bags give identical vectors regardless of word order.

    Raises:
        EmptyTextError: No content tokens survive tokenization.
    """
    cfg = cfg or MatcherConfig()
    if cfg.backend is MatcherBackend.HTTP_EMBEDDING:
        return embed_batch([text], cfg)[0]
    tokens = [t for t in _tokenize(text) if t not in _STOP_WORDS]
    if not tokens:
        raise EmptyTextError(f"no content tokens in {text!r}")
    vec = np.zeros(cfg.dimension, dtype=np.float64)
    for token in tokens:
        vec[_hash_token(token, cfg.dimension)] += 1.0
    return vec / np.linalg.norm(vec)


def embed_batch(texts: Sequence[str], cfg: Optional[MatcherConfig] = None) -> np.ndarray:
    """Embed many texts into one (n, dimension) matrix of unit rows.

    Texts with no content tokens become zero rows under the lexical
    fallback (they can never validate or match); direct single-text
    :func:`embed` calls raise instead.
    """
    cfg = cfg or MatcherConfig()
    if cfg.backend is MatcherBackend.HTTP_EMBEDDING:
        return _embed_http(texts, cfg)
    rows = np.zeros((len(texts), cfg.dimension), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            rows[i] = embed(text, cfg)
        except EmptyTextError:
            pass
    return rows


def _embed_http(texts: Sequence[str], cfg: MatcherConfig) -> np.ndarray:
    try:
        resp = requests.post(
            cfg.endpoint_url,
            json={"texts": list(texts)},
            timeout=cfg.request_timeout_s,
        )
        resp.raise_for_status()
        vectors = resp.json()["vectors"]
    except (requests.RequestException, ValueError, KeyError) as exc:
        raise EmbeddingEndpointError(f"embedding endpoint failed: {exc}")
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(texts):
        raise EmbeddingEndpointError(
            f"endpoint returned shape {matrix.shape}, expected ({len(texts)}, d)"
        )
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors (their dot product)."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


@dataclass(frozen=True)
class CandidateMatch:
    candidate_index: int
    text: str
    best_design_index: Optional[int]
    similarity: float
    validated: bool


@dataclass(frozen=True)
class DesignCoverage:
    design_index: int
    text: str
    best_candidate_index: Optional[int]
    similarity: float
    matched: bool


@dataclass(frozen=True)
class MatchReport:
    candidate_matches: tuple[CandidateMatch, ...]
    design_coverage: tuple[DesignCoverage, ...]
    similarity_threshold: float
    backend: str

    @property
    def validated_count(self) -> int:
        return sum(1 for m in self.candidate_matches if m.validated)

    @property
    def matched_design_count(self) -> int:
        return sum(1 for d in self.design_coverage if d.matched)

    @property
    def unmatched_design_count(self) -> int:
        return sum(1 for d in self.design_coverage if not d.matched)

    def unmatched_design_questions(self) -> list[str]:
        return [d.text for d in self.design_coverage if not d.matched]


def match_candidates(
    candidates: Sequence[Union[CandidateCQ, str]],
    design: DesignCQSet,
    cfg: Optional[MatcherConfig] = None,
) -> MatchReport:
    """Compute the full candidate x design similarity matrix and flag
    validated candidates and matched design CQs at the threshold.

    Both sides are compared on their normalized text. The report is
    deterministic for fixed inputs and backend.
    """
    cfg = cfg or MatcherConfig()
    if not design.questions:
        raise ValueError("design CQ set is empty")
    tau = cfg.similarity_threshold
    candidate_texts = [c.text if isinstance(c, CandidateCQ) else c for c in candidates]
    design_matrix = embed_batch(
        [normalize_question(q) for q in design.questions], cfg
    )
    if not candidate_texts:
        coverage = tuple(
            DesignCoverage(j, q, None, 0.0, False)
            for j, q in enumerate(design.questions)
        )
        return MatchReport((), coverage, tau, cfg.backend.value)
    candidate_matrix = embed_batch(
        [normalize_question(t) for t in candidate_texts], cfg
    )
    if candidate_matrix.shape[1] != design_matrix.shape[1]:
        raise DimensionMismatchError(
            f"candidate dimension {candidate_matrix.shape[1]} != "
            f"design dimension {design_matrix.shape[1]}"
        )
    sims = candidate_matrix @ design_matrix.T
    # A zero row (no content tokens) never validates or matches, even at
    # threshold 0, where its similarity of 0 would reach the threshold.
    hits = (sims >= tau - SIMILARITY_EPS) & np.outer(
        candidate_matrix.any(axis=1), design_matrix.any(axis=1)
    )
    validated = hits.any(axis=1)
    matched = hits.any(axis=0)

    matches = []
    for i, text in enumerate(candidate_texts):
        j = int(np.argmax(sims[i]))
        matches.append(
            CandidateMatch(i, text, j, float(sims[i, j]), bool(validated[i]))
        )
    coverage = []
    for j, q in enumerate(design.questions):
        i = int(np.argmax(sims[:, j]))
        coverage.append(
            DesignCoverage(j, q, i, float(sims[i, j]), bool(matched[j]))
        )
    return MatchReport(tuple(matches), tuple(coverage), tau, cfg.backend.value)
