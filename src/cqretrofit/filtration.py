"""Question filtration: duplicates, modelling-primitive questions, and
subjective/narrative questions.

Rules apply in a fixed order (malformed, duplicate, modelling-primitive,
subjective/narrative) and the first matching rule supplies the removal
reason. Pattern tables are data, not code: both lexicons can be replaced
from plain text files (one regex per line, '#' comments) to extend the
defaults below.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

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


_DEFAULT_CONFIG = FiltrationConfig()


def load_pattern_file(path: Union[str, Path]) -> tuple[str, ...]:
    """Read one regex per line; blank lines and '#' comments skipped."""
    patterns = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
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


def token_sort_ratio(a: str, b: str) -> float:
    """Similarity on a 0-100 scale: 100 x (1 - edit distance between the
    token-sorted strings, normalized by the longer one)."""
    sa = _token_sorted(a)
    sb = _token_sorted(b)
    longest = max(len(sa), len(sb))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - _levenshtein(sa, sb) / longest)


def is_duplicate(a: str, b: str, threshold: int = DEFAULT_DEDUP_THRESHOLD) -> bool:
    return token_sort_ratio(a, b) >= threshold


def is_modelling_primitive(q: str, cfg: Optional[FiltrationConfig] = None) -> bool:
    """True when the (normalized) question asks about a modelling
    construct instead of the domain. Always false at strictness=off."""
    cfg = cfg or _DEFAULT_CONFIG
    if cfg.strictness is Strictness.OFF:
        return False
    return any(p.search(q) for p in cfg._primitive_res)


def is_subjective_narrative(q: str, cfg: Optional[FiltrationConfig] = None) -> bool:
    """True when the (normalized) question calls for opinion, personal
    habits, or free-form narrative. Always false at strictness=off."""
    cfg = cfg or _DEFAULT_CONFIG
    if cfg.strictness is Strictness.OFF:
        return False
    return any(p.search(q) for p in cfg._narrative_res)


def _pool_key(c: CandidateCQ, cfg: FiltrationConfig) -> tuple:
    return () if cfg.global_dedup else (c.template_id, c.provider_id, c.model_name)


def _near_kept(
    s: str, kept: Sequence[tuple[str, dict[str, int]]], threshold: int
) -> bool:
    """True when ``s`` is within ``threshold`` of a kept token-sorted
    form, by the same ratio test as :func:`token_sort_ratio`."""
    n = len(s)
    for t, masks in kept:
        m = len(t)
        longest = max(n, m)
        # The length gap is a lower bound on the distance and the ratio
        # falls as the distance grows, so this skips no match.
        if 100.0 * (1.0 - abs(n - m) / longest) < threshold:
            continue
        if 100.0 * (1.0 - _levenshtein(t, s, masks) / longest) >= threshold:
            return True
    return False


def dedup(
    candidates: Sequence[CandidateCQ], cfg: Optional[FiltrationConfig] = None
) -> list[CandidateCQ]:
    """Mark near-duplicates of earlier kept questions as removed.

    Scans in order; the first occurrence stays as the kept
    representative and later questions are compared against kept
    representatives only. By default questions are pooled per
    (template, provider, model); ``cfg.global_dedup`` uses one pool. The
    decisions are those of :func:`is_duplicate` on normalized questions.
    """
    cfg = cfg or _DEFAULT_CONFIG
    threshold = cfg.dedup_ratio_threshold
    # Per pool: the set of kept token-sorted forms (an identical form has
    # ratio 100) and each kept form with its match masks.
    pools: dict[tuple, tuple[set[str], list[tuple[str, dict[str, int]]]]] = {}
    out: list[CandidateCQ] = []
    for c in candidates:
        if not c.kept:
            out.append(c)
            continue
        # _token_sorted lowercases and splits on non-alphanumerics, so the
        # raw text and its normalized form give the same sorted form.
        s = _token_sorted(c.text)
        seen, kept = pools.setdefault(_pool_key(c, cfg), (set(), []))
        if s in seen or _near_kept(s, kept, threshold):
            out.append(c.removed(RemovalReason.DUPLICATE))
        else:
            seen.add(s)
            kept.append((s, _match_masks(s)))
            out.append(c)
    return out


def _is_malformed(normalized: str) -> bool:
    return len(normalized) < 2 or not normalized.endswith("?")


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
        c.removed(RemovalReason.MALFORMED) if _is_malformed(n) else c
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
