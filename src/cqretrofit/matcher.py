"""Similarity matching of candidate CQs against design CQs.

Questions are embedded as unit vectors and compared by cosine (dot
product). The default backend is a fully offline lexical fallback:
feature-hashed bag-of-tokens vectors (Weinberger et al., "Feature
Hashing for Large Scale Multitask Learning", ICML 2009). One vectorised
path, :func:`embed_batch`, builds them for a whole batch; :func:`embed`
is its one-text case. A remote sentence-embedding service can be
plugged in through the ``http_embedding`` backend (request
``{"texts": [...]}``, response ``{"vectors": [[...], ...]}``); a
response of another shape, or with non-numeric or non-finite values,
raises :class:`EmbeddingEndpointError`.

A candidate is validated when its best similarity against the design
set reaches the threshold; a design CQ is matched when some candidate
reaches the threshold against it. Matching is many-to-one: several
candidates may validate against the same design CQ. A
:class:`MatchReport` keeps one :class:`BestMatches` record per side:
parallel numpy arrays of each question's best index, best similarity and
hit flag, with no per-question objects.
"""
from __future__ import annotations

import csv
import hashlib
import io
import re
from array import array
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
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
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
    """Unit-norm embedding of one text: ``embed_batch([text], cfg)[0]``.

    Raises:
        EmptyTextError: Under the lexical fallback, no content tokens
            survive tokenization. The ``http_embedding`` backend does not
            raise it: it returns the endpoint's vector normalized, or a
            zero vector if the endpoint sent one.
    """
    cfg = cfg or MatcherConfig()
    vec = embed_batch([text], cfg)[0]
    if cfg.backend is MatcherBackend.LEXICAL_FALLBACK and not vec.any():
        raise EmptyTextError(f"no content tokens in {text!r}")
    return vec


def embed_batch(texts: Sequence[str], cfg: Optional[MatcherConfig] = None) -> np.ndarray:
    """Embed many texts into one (n, dimension) matrix of unit rows.

    The lexical fallback hashes each text's content tokens (stop words
    removed) into a count vector and L2-normalizes it, so identical
    token bags give identical rows regardless of word order. The whole
    batch is one vectorised pass: each distinct token is hashed once,
    every count is one ``np.bincount`` over ``row * dimension + bucket``
    and the rows are normalized in place. Counts are small integers, so
    the sums of squares are exact and a row does not depend on the rest
    of the batch. Texts with no content tokens become zero rows (they
    can never validate or match); :func:`embed` raises for them instead.
    """
    cfg = cfg or MatcherConfig()
    if cfg.backend is MatcherBackend.HTTP_EMBEDDING:
        return _embed_http(texts, cfg)
    dim = cfg.dimension
    buckets: dict[str, int] = {}
    index = array("q")
    for i, text in enumerate(texts):
        base = i * dim
        for token in _tokenize(text):
            if token in _STOP_WORDS:
                continue
            bucket = buckets.get(token)
            if bucket is None:
                bucket = buckets[token] = _hash_token(token, dim)
            index.append(base + bucket)
    if not index:
        # bincount of no indices returns int64 even with weights=.
        return np.zeros((len(texts), dim))
    # weights= makes bincount return float64 directly: no int64 copy to cast.
    rows = np.bincount(
        np.frombuffer(index, dtype=np.int64),
        weights=np.ones(len(index)),
        minlength=len(texts) * dim,
    ).reshape(len(texts), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    norms[norms == 0.0] = 1.0
    rows /= norms[:, None]
    return rows


def embed_questions(
    questions: Sequence[str], cfg: Optional[MatcherConfig] = None
) -> np.ndarray:
    """:func:`embed_batch` of the questions' normalized texts, the form
    :func:`match_candidates` compares."""
    return embed_batch([normalize_question(q) for q in questions], cfg)


def _embed_http(texts: Sequence[str], cfg: MatcherConfig) -> np.ndarray:
    try:
        resp = requests.post(
            cfg.endpoint_url,
            json={"texts": list(texts)},
            timeout=cfg.request_timeout_s,
        )
        resp.raise_for_status()
        matrix = np.asarray(resp.json()["vectors"])
    except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
        # ValueError: invalid JSON or ragged vectors; TypeError: a body
        # that is not a JSON object.
        raise EmbeddingEndpointError(f"embedding endpoint failed: {exc}")
    # Strings, booleans, nulls and nested objects give other dtypes; so do
    # ragged vectors under numpy < 1.24, which builds an object array.
    if matrix.dtype.kind not in "iuf":
        raise EmbeddingEndpointError(
            f"embedding endpoint returned non-numeric vectors (dtype {matrix.dtype})"
        )
    if matrix.ndim != 2 or matrix.shape[0] != len(texts):
        raise EmbeddingEndpointError(
            f"embedding endpoint returned shape {matrix.shape}, expected ({len(texts)}, d)"
        )
    matrix = matrix.astype(np.float64, copy=False)
    if not np.isfinite(matrix).all():
        raise EmbeddingEndpointError("embedding endpoint returned non-finite vector values")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors (their dot product)."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


@dataclass(frozen=True)
class BestMatches:
    """One side of a match report as three parallel arrays, one entry per
    question of that side, in input order: ``index`` is the first
    position of its most similar question on the other side,
    ``similarity`` that similarity, and ``hit`` whether it reaches the
    threshold against some question on the other side, neither text
    being a zero row. A candidate hit is validated; a design hit is
    matched."""

    index: np.ndarray
    similarity: np.ndarray
    hit: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def count(self) -> int:
        """How many questions of this side are hits."""
        return int(np.count_nonzero(self.hit))


def _best_per_row(sims: np.ndarray, hits: np.ndarray) -> BestMatches:
    index = sims.argmax(axis=1)
    return BestMatches(index, sims[np.arange(len(index)), index], hits.any(axis=1))


@dataclass(frozen=True)
class MatchReport:
    candidate_matches: BestMatches
    design_coverage: BestMatches
    design_questions: tuple[str, ...]
    similarity_threshold: float
    backend: str

    @property
    def validated_count(self) -> int:
        return self.candidate_matches.count

    def unmatched_design_questions(self) -> list[str]:
        hits = self.design_coverage.hit.tolist()
        return [q for q, hit in zip(self.design_questions, hits) if not hit]


def match_candidates(
    candidates: Sequence[Union[CandidateCQ, str]],
    design: DesignCQSet,
    cfg: Optional[MatcherConfig] = None,
    design_matrix: Optional[np.ndarray] = None,
) -> MatchReport:
    """Compute the full candidate x design similarity matrix and flag
    validated candidates and matched design CQs at the threshold.

    Both sides are compared on their normalized text. ``design_matrix``
    is ``embed_questions(design.questions, cfg)``; it is computed when
    omitted, and a caller matching many candidate sets against one
    design set passes it to embed the design CQs once. Each best index
    is the first maximum. With no candidates, every design CQ has index
    -1, similarity 0.0 and no hit. The report is deterministic for fixed
    inputs and backend.
    """
    cfg = cfg or MatcherConfig()
    if not design.questions:
        raise ValueError("design CQ set is empty")
    tau = cfg.similarity_threshold
    candidate_texts = [c.text if isinstance(c, CandidateCQ) else c for c in candidates]
    if design_matrix is None:
        design_matrix = embed_questions(design.questions, cfg)
    elif design_matrix.ndim != 2 or design_matrix.shape[0] != len(design):
        raise ValueError(
            f"design matrix shape {design_matrix.shape} does not fit "
            f"{len(design)} design CQs"
        )
    if not candidate_texts:
        n = len(design)
        empty = np.zeros((0, n))
        coverage = BestMatches(np.full(n, -1), np.zeros(n), np.zeros(n, dtype=bool))
        return MatchReport(
            _best_per_row(empty, empty), coverage, design.questions, tau, cfg.backend.value
        )
    candidate_matrix = embed_questions(candidate_texts, cfg)
    if candidate_matrix.shape[1] != design_matrix.shape[1]:
        raise DimensionMismatchError(
            f"candidate dimension {candidate_matrix.shape[1]} != "
            f"design dimension {design_matrix.shape[1]}"
        )
    sims = candidate_matrix @ design_matrix.T
    # A zero row (no content tokens) never validates or matches, even at
    # threshold 0, where its similarity of 0 would reach the threshold.
    nonzero = np.outer(candidate_matrix.any(axis=1), design_matrix.any(axis=1))
    # Free the (n, dimension) candidate matrix before the design side's
    # argmax makes its transposed copy of sims, so evaluate's peak memory
    # does not rise.
    del candidate_matrix
    hits = (sims >= tau - SIMILARITY_EPS) & nonzero
    return MatchReport(
        _best_per_row(sims, hits),
        _best_per_row(sims.T, hits.T),
        design.questions,
        tau,
        cfg.backend.value,
    )
