"""Reference implementations of near-duplicate filtering.

``oracle_dedup`` is the all-pairs reference: a full-matrix edit distance
between every question and every earlier kept question of its pool.
``scan_dedup`` is the kept-pool scan that ``filtration.dedup`` ran before
it gained the character-count bound: Myers' edit distance against every
kept form, skipping only forms whose length gap alone fails the ratio
test. It is fast enough to check paper-sized cells against.
"""
import re

from cqretrofit.filtration import (
    RemovalReason,
    _levenshtein,
    _match_masks,
    _token_sorted,
    normalize_question,
)


def oracle_levenshtein(a: str, b: str) -> int:
    """Full-matrix DP, independent of the bit-parallel implementation."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def oracle_ratio(a: str, b: str) -> float:
    def sort_tokens(s):
        return " ".join(sorted(t for t in re.split(r"[^a-z0-9]+", s.lower()) if t))

    sa, sb = sort_tokens(a), sort_tokens(b)
    longest = max(len(sa), len(sb))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - oracle_levenshtein(sa, sb) / longest)


def _pool_key(c, cfg):
    return () if cfg.global_dedup else (c.template_id, c.provider_id, c.model_name)


def oracle_dedup(candidates, cfg):
    """All-pairs reference: each kept question against every earlier kept
    question of its pool, by the oracle ratio."""
    pools = {}
    out = []
    for c in candidates:
        if not c.kept:
            out.append(c)
            continue
        pool = pools.setdefault(_pool_key(c, cfg), [])
        q = normalize_question(c.text)
        if any(oracle_ratio(q, seen) >= cfg.dedup_ratio_threshold for seen in pool):
            out.append(c.removed(RemovalReason.DUPLICATE))
        else:
            pool.append(q)
            out.append(c)
    return out


def _near_kept(s, kept, threshold):
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


def scan_dedup(candidates, cfg):
    """Kept-pool scan reference: each kept question against every kept
    token-sorted form of its pool by Myers' distance, with the length-gap
    skip; an identical form is found in a set."""
    pools = {}
    out = []
    for c in candidates:
        if not c.kept:
            out.append(c)
            continue
        s = _token_sorted(c.text)
        seen, kept = pools.setdefault(_pool_key(c, cfg), (set(), []))
        if s in seen or _near_kept(s, kept, cfg.dedup_ratio_threshold):
            out.append(c.removed(RemovalReason.DUPLICATE))
        else:
            seen.add(s)
            kept.append((s, _match_masks(s)))
            out.append(c)
    return out
