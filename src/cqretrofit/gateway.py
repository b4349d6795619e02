"""Chat-completion dispatch, caching, and question extraction.

Providers are either real HTTP chat-completion endpoints (one user-role
message per request, common JSON schema) or the built-in deterministic
mock used for offline runs and tests. Responses are cached on disk,
keyed by a digest of the model name, the rendered prompt and the request
parameters that change the response (the mock's seed; an HTTP request's
``max_tokens`` and ``temperature``), so a warm-cache run performs zero
network calls.
"""
from __future__ import annotations

import email.utils
import hashlib
import json
import logging
import os
import random
import re
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import requests

from . import prompts
from .ontology import Statement, StatementSet
from .prompts import PromptInstance, PromptTemplate

logger = logging.getLogger(__name__)

MOCK_PROVIDER_ID = "mock"

# Requested-token ceilings per model family.
MODEL_TOKEN_PRESETS = {
    "gpt-3.5": 4096,
    "gpt-4": 8192,
}
DEFAULT_MAX_TOKENS = 4096

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
_BACKOFF_CAP_S = 30.0


class GatewayError(Exception):
    """Base class for provider dispatch errors."""


class AuthError(GatewayError):
    pass


class RateLimitError(GatewayError):
    pass


class RequestTimeoutError(GatewayError):
    pass


class MalformedResponseError(GatewayError):
    pass


class _Abandoned(Exception):
    """A retry given up, unsent, because its dispatch already failed."""


class DispatchSlots(threading.Semaphore):
    """The request slots one dispatch shares among its prompts, and the
    event its first failing prompt sets."""

    def __init__(self, value: int) -> None:
        super().__init__(value)
        self.failed = threading.Event()


def preset_max_tokens(model_name: str) -> int:
    """Token ceiling for a model name, by family prefix match."""
    lowered = model_name.lower()
    for family, ceiling in MODEL_TOKEN_PRESETS.items():
        if family in lowered:
            return ceiling
    return DEFAULT_MAX_TOKENS


@dataclass(frozen=True)
class ProviderConfig:
    """One chat-completion provider. ``endpoint_url=None`` selects the
    built-in mock; ``max_tokens=None`` the model family's preset."""

    provider_id: str
    model_name: str
    endpoint_url: Optional[str] = None
    max_tokens: Optional[int] = None
    temperature: Optional[float] = None
    request_timeout_s: float = 60.0
    max_retries: int = 3
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_tokens is None:
            object.__setattr__(self, "max_tokens", preset_max_tokens(self.model_name))
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def is_mock(self) -> bool:
        return self.endpoint_url is None

    def api_key_env_var(self) -> str:
        suffix = re.sub(r"[^A-Za-z0-9]", "_", self.provider_id).upper()
        return f"RETROFIT_API_KEY_{suffix}"


def mock_provider(model_name: str = "mock-small") -> ProviderConfig:
    return ProviderConfig(provider_id=MOCK_PROVIDER_ID, model_name=model_name)


@dataclass(frozen=True)
class RawResponse:
    prompt_digest: str
    provider_id: str
    model_name: str
    text: str
    from_cache: bool = False
    latency_ms: Optional[int] = None
    truncated: bool = False


def prompt_digest(model_name: str, rendered_prompt: str, salt: str = "") -> str:
    """Cache key: SHA-256 over the model name and the exact prompt text.

    ``salt`` folds request parameters that change the response for the
    same prompt (the mock's seed, or an HTTP request's ``max_tokens`` and
    ``temperature``) into the key.
    """
    h = hashlib.sha256()
    for part in (model_name, rendered_prompt, salt):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# ``mkstemp`` creates files with mode 0600; written files get the mode
# ``open()`` would give them instead.
_FILE_MODE = 0o666 & ~_current_umask()


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` (UTF-8) through a uniquely named temp
    file in the same directory and a rename, so neither readers nor other
    writers, in this process or another, ever see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class ResponseCache:
    """Content-addressed response store, one JSON file per digest.

    Reads are lock-free; writes go through :func:`atomic_write_text`, so
    concurrent workers never observe a torn entry.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        """The entry under ``digest``; None if absent or not an object with a string ``text``."""
        path = self._path(digest)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError):  # invalid JSON or UTF-8, or nested too deep
            entry = None
        if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
            logger.warning("discarding unreadable cache entry %s", path)
            return None
        return entry

    def put(self, digest: str, payload: dict) -> None:
        atomic_write_text(
            self._path(digest), json.dumps(payload, sort_keys=True, ensure_ascii=False)
        )


# Question frames for the mock provider. Two are intentionally shaped so
# the default filtration rules remove them (modelling-primitive and
# subjective), keeping end-to-end runs representative.
_MOCK_FRAMES = (
    "What is a {s} {o}?",
    "Is {s} a kind of {o}?",
    "How does {s} relate to {o}?",
    "Does every {s} have a {o}?",
    "Which {o} is associated with a {s}?",
    "What types of {o} can a {s} have?",
    "What is the subclass of {s}?",
    "In your opinion, what makes a {s} important?",
)


_BRACKETED_STATEMENT_RE = re.compile(r"\['(.*?)', '(.*?)', '(.*?)'\]")


def _mock_complete(prompt: PromptInstance, seed: int) -> str:
    """Deterministic offline stand-in for a provider response: a
    numbered list of 2-5 questions over the prompt's statement labels,
    chosen by a PRNG seeded from (seed, statement ordinal, template id)."""
    match = _BRACKETED_STATEMENT_RE.search(prompt.rendered)
    if not match:
        raise MalformedResponseError(
            "mock provider could not find a bracketed statement in the prompt"
        )
    s, p, o = match.groups()
    rng = random.Random(f"{seed}:{prompt.statement_ordinal}:{prompt.template_id}")
    count = rng.randint(2, 5)
    frames = rng.sample(_MOCK_FRAMES, count)
    lines = []
    for i, frame in enumerate(frames, start=1):
        question = frame.format(s=s, p=p, o=o)
        lines.append(f"{i}. {question}")
    return "\n".join(lines)


def complete(
    prompt: PromptInstance,
    cfg: ProviderConfig,
    cache: Optional[ResponseCache] = None,
    *,
    mock_seed: int = 0,
    slots: Optional[DispatchSlots] = None,
) -> RawResponse:
    """Resolve one prompt against a provider, cache-first.

    A cache hit returns immediately with ``from_cache=True`` and no
    network call. Transient failures (429, 5xx, timeouts, connection
    resets) are retried up to ``cfg.max_retries`` times with exponential
    backoff. A 429 or 503 that carries a valid ``Retry-After`` (seconds
    or an HTTP-date) waits that long instead, at most ``_BACKOFF_CAP_S``.
    Each HTTP attempt holds one of ``slots`` (without it, a set of one of
    its own) for the request alone; the backoff before a retry holds none,
    and ends early when ``slots.failed`` is set, giving the prompt up unsent.

    Raises:
        AuthError: The endpoint rejected the credential (401/403).
        RateLimitError: 429 persisted past the retry budget.
        RequestTimeoutError: Timeouts persisted past the retry budget.
        MalformedResponseError: The response body was not the expected
            chat-completion JSON.
        GatewayError: Any other non-retryable HTTP failure.
    """
    if cfg.is_mock:
        salt = f"seed={mock_seed}"
    else:
        salt = f"max_tokens={cfg.max_tokens} temperature={cfg.temperature}"
    digest = prompt_digest(cfg.model_name, prompt.rendered, salt)
    hit = cache.get(digest) if cache is not None else None
    latency_ms = None
    if hit is not None:
        text, truncated = hit["text"], bool(hit.get("truncated", False))
    elif cfg.is_mock:
        text, truncated = _mock_complete(prompt, mock_seed), False
    else:
        text, truncated, latency_ms = _http_complete(prompt, cfg, slots or DispatchSlots(1))
    if cache is not None and hit is None:
        cache.put(digest, {"model": cfg.model_name, "text": text, "truncated": truncated})
    return RawResponse(
        prompt_digest=digest,
        provider_id=cfg.provider_id,
        model_name=cfg.model_name,
        text=text,
        from_cache=hit is not None,
        latency_ms=latency_ms,
        truncated=truncated,
    )


def _http_complete(
    prompt: PromptInstance,
    cfg: ProviderConfig,
    slots: DispatchSlots,
) -> tuple[str, bool, int]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env_var())
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload: dict = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt.rendered}],
        "max_tokens": cfg.max_tokens,
    }
    if cfg.temperature is not None:
        payload["temperature"] = cfg.temperature

    started = time.monotonic()
    failure: Optional[GatewayError] = None  # what the last attempt raises
    retry_after: Optional[float] = None
    for attempt in range(cfg.max_retries + 1):
        if attempt > 0:
            delay = retry_after
            if delay is None:
                delay = min(cfg.retry_backoff_s * (2 ** (attempt - 1)), _BACKOFF_CAP_S)
            logger.info(
                "retrying %s (attempt %d/%d) after %.2fs",
                cfg.provider_id,
                attempt,
                cfg.max_retries,
                delay,
            )
            if slots.failed.wait(delay):
                raise _Abandoned()
        retry_after = None
        try:
            with slots:
                resp = requests.post(
                    cfg.endpoint_url,
                    json=payload,
                    headers=headers,
                    timeout=cfg.request_timeout_s,
                )
        except requests.Timeout:
            failure = RequestTimeoutError(
                f"{cfg.provider_id}: request timed out after {cfg.max_retries + 1} attempts"
            )
            continue
        except requests.ConnectionError as exc:
            failure = GatewayError(f"{cfg.provider_id}: connection failed: {exc}")
            continue
        except requests.RequestException as exc:  # a bad URL, too many redirects, ...
            raise GatewayError(f"{cfg.provider_id}: request failed: {exc}") from exc

        if resp.status_code == 200:
            return _parse_completion(resp, cfg, started)
        if resp.status_code in (401, 403):
            raise AuthError(
                f"{cfg.provider_id}: HTTP {resp.status_code}; check the "
                f"{cfg.api_key_env_var()} environment variable"
            )
        if resp.status_code not in _RETRYABLE_STATUS:
            raise GatewayError(
                f"{cfg.provider_id}: HTTP {resp.status_code}: {resp.text[:200]}"
            )
        if resp.status_code in (429, 503):
            retry_after = _retry_after_s(resp.headers.get("Retry-After"))
        if resp.status_code == 429:
            failure = RateLimitError(
                f"{cfg.provider_id}: rate limited after {cfg.max_retries + 1} attempts"
            )
        else:
            failure = GatewayError(
                f"{cfg.provider_id}: HTTP {resp.status_code} persisted after "
                f"{cfg.max_retries + 1} attempts"
            )
    raise failure


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """Seconds a ``Retry-After`` header asks to wait (delta-seconds or an
    HTTP-date), capped at ``_BACKOFF_CAP_S``; ``None`` when it is absent
    or unparsable."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        delay = float(value)
    else:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):  # TypeError on Python 3.10
            return None
        if when.tzinfo is None:  # "-0000": an HTTP-date is always UTC
            when = when.replace(tzinfo=timezone.utc)
        delay = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(delay, 0.0), _BACKOFF_CAP_S)


def _parse_completion(
    resp: requests.Response, cfg: ProviderConfig, started: float
) -> tuple[str, bool, int]:
    try:
        data = resp.json()
        choice = data["choices"][0]
        text = choice["message"]["content"]
        finish_reason = choice.get("finish_reason")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponseError(
            f"{cfg.provider_id}: unexpected response shape: {exc}"
        )
    if not isinstance(text, str):
        raise MalformedResponseError(f"{cfg.provider_id}: message content is not text")
    latency_ms = int((time.monotonic() - started) * 1000)
    return text, finish_reason == "length", latency_ms


_ENUM_MARKERS_RE = re.compile(r"(?:(?:\d+[.)]|[-*•])\s*)*")
_QUOTE_PAIRS = (('"', '"'), ("'", "'"), ("“", "”"))


def _clean_line(line: str) -> Optional[str]:
    text = line.strip()
    text = text[_ENUM_MARKERS_RE.match(text).end():]
    for opener, closer in _QUOTE_PAIRS:
        if len(text) >= 2 and text.startswith(opener) and text.endswith(closer):
            text = text[1:-1].strip()
    text = " ".join(text.split())
    idx = text.find("?")
    if idx <= 0:
        # no interrogative, or a bare "?": drop the line
        return None
    return text[: idx + 1]


def extract_questions(response: Union[RawResponse, str]) -> list[str]:
    """Pull the cleaned question list out of a provider response.

    Each line is stripped of enumeration markers and surrounding quotes,
    whitespace runs collapse to single spaces, and anything after the
    first '?' is discarded (downstream matching works on single
    interrogatives). Lines with no '?' at all (preambles, sign-offs) are
    dropped. Idempotent on its own output.
    """
    text = response.text if isinstance(response, RawResponse) else response
    questions = []
    for line in text.splitlines():
        cleaned = _clean_line(line)
        if cleaned is not None:
            questions.append(cleaned)
    return questions


@dataclass(frozen=True)
class GenerationRecord:
    """Questions extracted for one (statement, template, provider), and
    whether the response came from the cache."""

    statement_ordinal: int
    template_id: str
    provider_id: str
    questions: tuple[str, ...]
    model_name: str = ""
    from_cache: bool = False


def generate_records(
    statements: Union[StatementSet, Sequence[Statement]],
    templates: Iterable[Union[str, PromptTemplate]],
    providers: Iterable[ProviderConfig],
    *,
    cache: Optional[ResponseCache] = None,
    seed: int = 0,
    parallelism: int = 4,
) -> list[GenerationRecord]:
    """Run the full (provider x template x statement) product.

    Mock prompts run inline. Every HTTP prompt of the product goes through
    one pool of ``2 * parallelism`` threads, and at most ``parallelism``
    HTTP attempts, across all templates and providers, are in flight at
    once. A retry waits out its backoff without holding one of those
    slots, so up to ``parallelism`` prompts can back off while as many
    others are sent. Records come back sorted by (statement ordinal,
    template id, provider id, model name) no matter how requests complete.

    The first failing prompt stops dispatch: prompts not yet started are
    not sent, and prompts waiting out a retry backoff give up unsent. Its
    error is re-raised as the same :class:`GatewayError` subclass,
    prefixed with the ontology (when ``statements`` is a
    :class:`StatementSet`), template, provider and statement ordinal.
    Responses completed before the failure stay in ``cache``, so a rerun
    resumes from them.

    Raises:
        ValueError: ``parallelism`` is less than 1.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, not {parallelism}")
    if isinstance(statements, StatementSet):
        source = f"ontology={statements.source_id} "
        statements = statements.statements
    else:
        source = ""
    stmts = list(statements)
    templates = list(templates)
    jobs = [
        (provider, prompts.render_prompt(template, st))
        for provider in providers
        for template in templates
        for st in stmts
    ]
    slots = DispatchSlots(parallelism)

    def record(provider: ProviderConfig, p: PromptInstance) -> GenerationRecord:
        try:
            response = complete(p, provider, cache, mock_seed=seed, slots=slots)
        except GatewayError as exc:
            raise type(exc)(
                f"[{source}template={p.template_id} provider={provider.provider_id} "
                f"statement={p.statement_ordinal}] {exc}"
            ) from exc
        return GenerationRecord(
            statement_ordinal=p.statement_ordinal,
            template_id=p.template_id,
            provider_id=provider.provider_id,
            questions=tuple(extract_questions(response)),
            model_name=provider.model_name,
            from_cache=response.from_cache,
        )

    def pooled(job: tuple[ProviderConfig, PromptInstance]) -> Optional[GenerationRecord]:
        if slots.failed.is_set():
            return None  # another prompt failed; its error is raised below
        try:
            return record(*job)
        except _Abandoned:
            return None  # its backoff ended on another prompt's failure
        except BaseException:
            slots.failed.set()
            raise

    # Inline, not pooled: pooling mock prompts made mock generate runs 1.3-1.4x slower (2 CPUs).
    records = [record(*job) for job in jobs if job[0].is_mock]
    http_jobs = [job for job in jobs if not job[0].is_mock]
    if http_jobs:
        with ThreadPoolExecutor(max_workers=2 * parallelism) as pool:
            # map raises the first error in input order and cancels the
            # prompts no thread has started.
            records.extend(pool.map(pooled, http_jobs))
    records.sort(
        key=lambda r: (r.statement_ordinal, r.template_id, r.provider_id, r.model_name)
    )
    return records
