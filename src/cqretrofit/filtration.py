"""Question filtration: duplicates, modelling-primitive questions, and
subjective/narrative questions.

Rules apply in a fixed order (malformed, duplicate, modelling-primitive,
subjective/narrative) and the first matching rule supplies the removal
reason. Pattern tables are data, not code: a plain text file (one regex
per line, '#' comments) replaces either default table below.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .gateway import GenerationRecord

DEFAULT_DEDUP_THRESHOLD = 90

# Questions that interrogate the representation machinery rather than
# the domain. Matched against normalized (lowercased) text.
DEFAULT_PRIMITIVE_PATTERNS: tuple[str, ...] = (
    r"\bis \w[\w\s-]* a class\b",
    r"\bwhat class does\b",
    r"\bhave any subclasses\b",
    r"\bwhat is the subclass of\b",
    r"\bsubclass(es)? of\b",
    r"\bin the ontology\b",
    r"\bis \w[\w\s-]* a property\b",
    r"\bdomain of\b",
    r"\brange of\b",
    r"\bis \w[\w\s-]* an (instance|individual)\b",
    r"\bhierarchical relationship between\b",
)

_STRICT_PRIMITIVE_KEYWORDS = (
    "class",
    "subclass",
    "property",
    "ontology",
    "instance",
    "individual",
    "triple",
)

# Questions needing subjective assessment or narrative text generation.
DEFAULT_NARRATIVE_PATTERNS: tuple[str, ...] = (
    r"^could you envision\b",
    r"^can you design\b",
    r"\bcan you name\b.*\bdescribe\b",
    r"\bwhy or why not\b",
    r"\bwhat do you do to\b",
    r"\bdo you use\b",
    r"\bin your opinion\b",
    r"\bhow do you measure your\b",
    r"[.!?] .+\?",  # a second interrogative sentence after a break
)


class Strictness(str, Enum):
    OFF = "off"
    LENIENT = "lenient"
    STRICT = "strict"


class RemovalReason(str, Enum):
    DUPLICATE = "duplicate"
    MODELLING_PRIMITIVE = "modelling_primitive"
    SUBJECTIVE_NARRATIVE = "subjective_narrative"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class CandidateCQ:
    """One generated question with provenance and filtration outcome."""

    text: str
    statement_ordinal: int
    template_id: str
    provider_id: str
    removal_reason: Optional[RemovalReason] = None
    model_name: str = ""

    @property
    def kept(self) -> bool:
        return self.removal_reason is None

    @property
    def status(self) -> str:
        return "kept" if self.kept else "removed"

    def removed(self, reason: RemovalReason) -> "CandidateCQ":
        return replace(self, removal_reason=reason)


@dataclass
class FiltrationConfig:
    dedup_ratio_threshold: int = DEFAULT_DEDUP_THRESHOLD
    primitive_patterns: tuple[str, ...] = DEFAULT_PRIMITIVE_PATTERNS
    narrative_patterns: tuple[str, ...] = DEFAULT_NARRATIVE_PATTERNS
    strictness: Strictness = Strictness.LENIENT
    global_dedup: bool = False
    _primitive_res: tuple[re.Pattern, ...] = field(init=False, repr=False)
    _narrative_res: tuple[re.Pattern, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.dedup_ratio_threshold <= 100:
            raise ValueError("dedup_ratio_threshold must be in [0, 100]")
        self.strictness = Strictness(self.strictness)
        primitive = [re.compile(p) for p in self.primitive_patterns]
        if self.strictness is Strictness.STRICT:
            primitive += [
                re.compile(rf"\b{kw}\b") for kw in _STRICT_PRIMITIVE_KEYWORDS
            ]
        self._primitive_res = tuple(primitive)
        self._narrative_res = tuple(re.compile(p) for p in self.narrative_patterns)
        if self.strictness is Strictness.OFF:  # after compiling: a bad pattern still fails
            self._primitive_res = self._narrative_res = ()


_DEFAULT_CONFIG = FiltrationConfig()


def load_pattern_file(path: Union[str, Path]) -> tuple[str, ...]:
    """Read one regex per line; blank lines and '#' comments skipped.
    A line that does not compile raises :class:`re.error`."""
    patterns = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            re.compile(stripped)
            patterns.append(stripped)
    return tuple(patterns)


_TERMINAL_PUNCT = ".,!;:"


def normalize_question(text: str) -> str:
    """Comparison form: lowercased, whitespace-collapsed, terminal
    punctuation other than '?' stripped. Stored questions keep their
    original casing; this form is only for matching."""
    t = " ".join(text.split()).lower()
    while t and t[-1] in _TERMINAL_PUNCT:
        t = t[:-1].rstrip()
    return t


def _match_masks(s: str) -> dict[str, int]:
    """Map each character of ``s`` to the bitmask of its positions."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in s:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _levenshtein(a: str, b: str, a_masks: Optional[dict[str, int]] = None) -> int:
    """Edit distance by Myers' bit-parallel algorithm (JACM 1999), in
    Hyyrö's form for whole-string distance. One column of the DP matrix
    over ``a`` is held as vertical +1/-1 delta bit vectors in Python ints,
    so ``a`` may be any length. ``a_masks`` is ``_match_masks(a)``, for
    callers that compare one ``a`` with many strings."""
    m = len(a)
    if m == 0:
        return len(b)
    if a_masks is None:
        a_masks = _match_masks(a)
    get = a_masks.get
    full = (1 << m) - 1  # ``full ^ x`` is the m-bit complement of x
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for ch in b:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of the matrix is 0, 1, 2, ...: its horizontal delta is +1.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | (full ^ (xv | ph))) & full
        mv = ph & xv
    return score


def _token_sorted(text: str) -> str:
    tokens = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
    return " ".join(sorted(tokens))


def is_duplicate(a: str, b: str, threshold: int = DEFAULT_DEDUP_THRESHOLD) -> bool:
    """True when :func:`dedup` of the pair at ``threshold`` removes ``b``."""
    pair = [CandidateCQ(a, 0, "", ""), CandidateCQ(b, 1, "", "")]
    return not dedup(pair, FiltrationConfig(dedup_ratio_threshold=threshold))[1].kept


def is_modelling_primitive(q: str, cfg: Optional[FiltrationConfig] = None) -> bool:
    """True when the (normalized) question asks about a modelling
    construct instead of the domain. Always false at strictness=off."""
    cfg = cfg or _DEFAULT_CONFIG
    return any(p.search(q) for p in cfg._primitive_res)


def is_subjective_narrative(q: str, cfg: Optional[FiltrationConfig] = None) -> bool:
    """True when the (normalized) question calls for opinion, personal
    habits, or free-form narrative. Always false at strictness=off."""
    cfg = cfg or _DEFAULT_CONFIG
    return any(p.search(q) for p in cfg._narrative_res)


def _pool_key(c: CandidateCQ, cfg: FiltrationConfig) -> tuple:
    return () if cfg.global_dedup else (c.template_id, c.provider_id, c.model_name)


# Token-sorted forms hold only these characters (see _token_sorted), so
# a form's character counts fit one row with a column per character.
_ALPHABET = b" 0123456789abcdefghijklmnopqrstuvwxyz"
_COLUMN = bytes.maketrans(_ALPHABET, bytes(range(len(_ALPHABET))))


def _count_rows(forms: Sequence[str]) -> np.ndarray:
    """One row of character counts per form, in one ``bincount``."""
    width, lengths = len(_ALPHABET), [len(s) for s in forms]
    codes = np.frombuffer("".join(forms).encode("ascii").translate(_COLUMN), np.uint8)
    cells = np.repeat(np.arange(len(forms)) * width, lengths) + codes
    counts = np.bincount(cells, minlength=len(forms) * width).reshape(-1, width)
    # int16 holds a count up to 32767; a longer form needs int32.
    return counts.astype(np.int16 if max(lengths, default=0) < 2**15 else np.int32)


def _near_form(
    s: str, row: np.ndarray, kept: Sequence[str], counts: np.ndarray,
    lengths: np.ndarray, threshold: int,
) -> bool:
    """True when ``s`` is within ``threshold`` of a kept form, by the
    ratio test of :func:`dedup`; ``counts`` holds the kept forms' count
    rows as columns and ``lengths`` their lengths."""
    n = len(s)
    longest = np.maximum(lengths, n)
    bound = longest - np.minimum(counts, row[:, None]).sum(0)
    near = np.flatnonzero(100.0 * (1.0 - bound / longest) >= threshold)
    masks = _match_masks(s)
    return any(
        100.0 * (1.0 - _levenshtein(s, kept[j], masks) / max(n, len(kept[j]))) >= threshold
        for j in near.tolist()
    )


def dedup(
    candidates: Sequence[CandidateCQ], cfg: Optional[FiltrationConfig] = None
) -> list[CandidateCQ]:
    """Mark near-duplicates of earlier kept questions as removed.

    Scans in order; the first occurrence stays as the kept
    representative and later questions are compared against kept
    representatives only. By default questions are pooled per
    (template, provider, model); ``cfg.global_dedup`` uses one pool. A
    question is a near-duplicate when ``100 * (1 - d / longest)`` reaches
    the threshold. ``d`` is the edit distance between the token-sorted
    forms (the lowercased text's ``[a-z0-9]+`` tokens, sorted and joined
    by spaces), ``longest`` the longer form's length; equal forms have
    ratio 100.

    Each pool keeps a character-count column per kept token-sorted form.
    Against all of them at once, the frequency distance of Kahveci & Singh
    (VLDB 2001), ``(sum |h_s - h_t| + |len s - len t|) // 2``, which is
    ``max(len s, len t) - sum min(h_s, h_t)``, bounds the edit distance
    from below. Only forms whose bound passes the ratio test go on to
    Myers' edit distance. The prune is the exact test's float expression
    with the bound for the distance, so it rounds the same way and skips
    no match; ``bound <= longest * (1 - threshold / 100)`` would not
    (50 * (1 - 0.9) is 4.999...).
    """
    cfg = cfg or _DEFAULT_CONFIG
    threshold = cfg.dedup_ratio_threshold
    keys = [_pool_key(c, cfg) if c.kept else None for c in candidates]
    # _token_sorted lowercases and splits on non-alphanumerics, so the
    # raw text and its normalized form give the same sorted form.
    forms = [_token_sorted(c.text) if c.kept else "" for c in candidates]
    rows = _count_rows(forms)
    sizes = Counter(keys)
    # Per pool: the kept forms, the set of them (an identical form has
    # ratio 100), and their count columns and lengths, filled in keep
    # order up to the pool's number of candidates.
    pools: dict[tuple, tuple[list[str], set[str], np.ndarray, np.ndarray]] = {}
    out: list[CandidateCQ] = []
    for c, key, s, row in zip(candidates, keys, forms, rows):
        if key is None:
            out.append(c)
            continue
        if key not in pools:
            size = sizes[key]
            pools[key] = ([], set(), np.empty((rows.shape[1], size), rows.dtype),
                          np.empty(size, np.intp))
        kept, seen, counts, lengths = pools[key]
        k = len(kept)
        if s in seen or _near_form(s, row, kept, counts[:, :k], lengths[:k], threshold):
            out.append(c.removed(RemovalReason.DUPLICATE))
        else:
            counts[:, k], lengths[k] = row, len(s)
            kept.append(s)
            seen.add(s)
            out.append(c)
    return out


def filter_questions(
    records: Iterable[GenerationRecord], cfg: Optional[FiltrationConfig] = None
) -> list[CandidateCQ]:
    """Run the full filtration pipeline over generation records.

    Every input question comes back exactly once, in order, either kept
    or removed with the single reason of the first matching rule
    (malformed, then duplicate, then modelling-primitive, then
    subjective/narrative). The kept subset is the candidate CQ set.
    """
    cfg = cfg or _DEFAULT_CONFIG
    candidates = [
        CandidateCQ(
            q, r.statement_ordinal, r.template_id, r.provider_id, model_name=r.model_name
        )
        for r in records
        for q in r.questions
    ]
    normalized = [normalize_question(c.text) for c in candidates]
    staged = [
        c.removed(RemovalReason.MALFORMED) if len(n) < 2 or not n.endswith("?") else c
        for c, n in zip(candidates, normalized)
    ]
    staged = dedup(staged, cfg)
    out = []
    for c, n in zip(staged, normalized):
        if c.kept:
            if is_modelling_primitive(n, cfg):
                c = c.removed(RemovalReason.MODELLING_PRIMITIVE)
            elif is_subjective_narrative(n, cfg):
                c = c.removed(RemovalReason.SUBJECTIVE_NARRATIVE)
        out.append(c)
    return out


def kept_questions(candidates: Iterable[CandidateCQ]) -> list[CandidateCQ]:
    return [c for c in candidates if c.kept]
