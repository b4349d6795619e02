"""Command-line pipeline: extract, generate, filter, evaluate, report.

One CSV per (template, model) cell, named ``questions_<template>_<model>.csv``
with the single header ``Questions``, plus a JSON sidecar carrying full
provenance (statement ordinals, removal reasons, cache hits, counts).
All file writes are atomic (unique temp file + rename). With the mock provider,
a fixed seed, and the lexical matcher backend, repeated runs are
byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import logging
import os
import re
import sys
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from . import filtration, gateway, matcher, metrics, ontology, prompts

logger = logging.getLogger(__name__)

QUESTIONS_CSV_HEADER = "Questions"
_T = TypeVar("_T")


class ConfigError(ValueError):
    """An input file that its role cannot read; the message names the file."""


@dataclass
class RunConfig:
    """Full pipeline configuration; CLI flags override.

    The keys of a JSON config file map 1:1 onto these fields, and those
    of its ``providers``, ``filtration`` and ``matcher`` objects onto the
    fields of :class:`~cqretrofit.gateway.ProviderConfig`,
    :class:`~cqretrofit.filtration.FiltrationConfig` and
    :class:`~cqretrofit.matcher.MatcherConfig`. An unknown key, a missing
    required key, a section that is not an object or a value of the wrong
    type raises :class:`ConfigError` naming the key.
    """

    ontology_paths: list[str] = field(default_factory=list)
    templates: list[str] = field(default_factory=lambda: ["P1", "P2", "P3"])
    providers: list[gateway.ProviderConfig] = field(
        default_factory=lambda: [gateway.mock_provider()]
    )
    filtration: filtration.FiltrationConfig = field(
        default_factory=filtration.FiltrationConfig
    )
    matcher: matcher.MatcherConfig = field(default_factory=matcher.MatcherConfig)
    design_cq_path: Optional[str] = None
    output_dir: str = "out"
    cache_dir: Optional[str] = None
    parallelism: int = 4
    seed: int = 0
    template_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    def resolved_templates(self) -> list[prompts.PromptTemplate]:
        resolved = [prompts.get_template(t) for t in self.templates]
        if self.template_file:
            resolved.append(_read_input(self.template_file, prompts.load_template_file))
        return resolved


# The largest count a float holds exactly, so no quotient of counts overflows.
_MAX_COUNT = 2**53


@dataclass(frozen=True, kw_only=True)
class Sidecar:
    """What ``evaluate`` reads of a cell's sidecar; ``n_candidates`` counts its
    CSV's rows and ``csv_sha256`` is the SHA-256 of its CSV's bytes."""

    ontology: str = ""
    template: str = ""
    provider: str = ""
    model: str = ""
    n_questions: int
    n_triples: int
    n_candidates: Optional[int] = None
    csv_sha256: Optional[str] = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            low = int(name == "n_triples")  # a rate per triple needs a triple
            if isinstance(value, int) and not low <= value <= _MAX_COUNT:
                raise ValueError(f"{name} must be in [{low}, 2**53]")


@dataclass(frozen=True, kw_only=True)
class CountsEntry(Sidecar):
    """One entry of a counts fixture (``evaluate --counts-fixture``)."""

    n_candidates: int = field()  # required: no default from Sidecar
    n_validated: int
    n_unmatched: int
    n_design: Optional[int] = None
    unmatched_word_counts: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_validated > self.n_candidates:
            raise ValueError("n_validated must be <= n_candidates")
        for i, count in enumerate(self.unmatched_word_counts or ()):
            if not 0 <= count <= _MAX_COUNT:
                raise ValueError(f"unmatched_word_counts[{i}] must be in [0, 2**53]")


@dataclass(frozen=True)
class ReportCell:
    """A ``report.json`` cell, as ``evaluate`` writes it and ``report`` reads
    it; a field that the cell's evaluate mode does not set is ``None``."""

    ontology: str = ""
    template: str = ""
    provider: str = ""
    model: str = ""
    n_questions: Optional[int] = None
    n_triples: Optional[int] = None
    n_candidates: Optional[int] = None
    mean_q_per_triple: Optional[float] = None
    n_design: Optional[int] = None
    n_validated: Optional[int] = None
    n_unmatched_design: Optional[int] = None
    precision: Optional[float] = None
    recall: Optional[float] = None
    f1: Optional[float] = None
    human_precision: Optional[float] = None
    unmatched_design_cqs: Optional[list[str]] = None
    rounded: dict[str, float] = field(default_factory=dict)
    unmatched_stats: Optional[metrics.StatsRow] = None

    def to_json(self) -> dict:
        """The fields that are set; only the stats record is converted (no deep copy)."""
        return {k: dataclasses.asdict(v) if isinstance(v, metrics.StatsRow) else v
                for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True)
class Report:
    """What ``report`` shows of a ``report.json``."""

    backend: Optional[str] = None
    similarity_threshold: Optional[float] = None
    cells: tuple[ReportCell, ...] = ()


# Resolving a dataclass's annotations costs far more than converting a value.
_type_hints = functools.cache(typing.get_type_hints)


def _from_json(tp, value, key: str = "", lenient: bool = False):
    """``value`` (decoded JSON) as an instance of the annotated type
    ``tp``: a dataclass, a list or tuple of one item type, a ``dict`` with
    string keys, ``Optional`` of a type, or a scalar. An enum field takes
    its string value, which the dataclass converts and checks. An object
    key that ``tp`` does not declare is an error unless ``lenient``.
    ``key`` is the path of ``value`` for error messages."""
    if typing.get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    origin = typing.get_origin(tp)
    if dataclasses.is_dataclass(tp) or origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(
                f"{key or 'top level'} must be a JSON object, not {type(value).__name__}"
            )
        prefix = f"{key}." if key else ""
        if origin is dict:
            item = typing.get_args(tp)[1]
            return {k: _from_json(item, v, prefix + k, lenient) for k, v in value.items()}
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        for name in value:
            if name not in fields and not lenient:
                raise ConfigError(f"unknown key {prefix}{name}")
        for name, f in fields.items():
            required = f.default is dataclasses.MISSING
            if required and f.default_factory is dataclasses.MISSING and name not in value:
                raise ConfigError(f"missing required key {prefix}{name}")
        hints = _type_hints(tp)
        kwargs = {n: _from_json(hints[n], v, prefix + n, lenient) for n, v in value.items()
                  if n in fields}
        try:
            return tp(**kwargs)
        except (ValueError, re.error) as exc:  # range checks in __post_init__
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from None
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{key or 'top level'} must be a list, not {type(value).__name__}")
        item = typing.get_args(tp)[0]
        return origin(_from_json(item, v, f"{key}[{i}]", lenient) for i, v in enumerate(value))
    if issubclass(tp, Enum):
        tp = str
    # JSON has one number type: an integer is a valid float if a float
    # holds it; a bool is no number.
    allowed = (int, float) if tp is float else tp
    if not isinstance(value, allowed) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{key} must be {tp.__name__}, not {type(value).__name__}")
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite float")
    return value


def _read_input(path: Union[str, Path], read: Callable[[Union[str, Path]], _T]) -> _T:
    """``read(path)`` for an input file. What its content can raise there
    (invalid UTF-8, a malformed CSV or ontology, a bad regex, JSON nested
    too deep, a value the file's role rejects) is raised as
    :class:`ConfigError` naming the file."""
    try:
        return read(path)
    except (ValueError, csv.Error, re.error, RecursionError, ontology.OntologyError,
            prompts.PromptError, metrics.MetricsError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_json(path: Union[str, Path], tp, lenient: bool = False):
    """The JSON file ``path`` as a ``tp`` (see :func:`_from_json`); data
    files load ``lenient``. Invalid JSON or UTF-8, or a value that does not
    fit ``tp``, raises :class:`ConfigError` naming the file."""
    return _read_input(path, lambda p: _from_json(
        tp, json.loads(Path(p).read_text(encoding="utf-8")), lenient=lenient))


def _first_column(path: Union[str, Path]) -> list[str]:
    """The first field of each non-empty row of a CSV file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return [row[0] for row in csv.reader(fh) if row]


def _safe_name(name: str) -> str:
    """Replace filesystem-unsafe characters in a filename component."""
    return re.sub(r"[^A-Za-z0-9._\-]", "_", name)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_cell(csv_path: Path, candidates: Sequence[filtration.CandidateCQ], **meta) -> None:
    """Write the kept questions' CSV and, beside it, the sidecar: ``meta``,
    the counts, the CSV's SHA-256 and every question's decision."""
    kept = filtration.kept_questions(candidates)
    text = _csv_text([[QUESTIONS_CSV_HEADER]] + [[c.text] for c in kept])
    gateway.atomic_write_text(csv_path, text)
    questions = [
        {"text": c.text, "status": c.status, "statement_ordinal": c.statement_ordinal,
         "removal_reason": c.removal_reason.value if c.removal_reason else None}
        for c in candidates
    ]
    sidecar = {**meta, "n_questions": len(candidates), "n_candidates": len(kept),
               "csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
               "questions": questions}
    gateway.atomic_write_text(csv_path.with_suffix(".json"), _dump_json(sidecar))
    logger.info("wrote %s (%d kept of %d questions)", csv_path, len(kept), len(candidates))


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_TSV_SPECIAL = re.compile(r"[\\\t\n\r]")


def _tsv_row(fields: Sequence[str]) -> str:
    """One TSV line; a backslash, TAB, LF or CR in a field is written as
    ``\\\\``, ``\\t``, ``\\n`` or ``\\r``."""
    # One search per row: translating every field costs several times more.
    if _TSV_SPECIAL.search("".join(fields)):
        fields = [f.translate(_TSV_ESCAPES) for f in fields]
    return "\t".join(fields)


def _load_statement_set(path: str, format_override: Optional[str]) -> ontology.StatementSet:
    fmt = format_override or ontology.format_for_path(path)
    raw = _read_input(path, lambda p: ontology.parse_ontology(
        Path(p).read_text(encoding="utf-8-sig"), fmt))
    return ontology.filter_statements(raw, source_id=Path(path).stem)


def _ingest_counts(counts: ontology.IngestCounts) -> str:
    """The counts as ``extract`` prints them: ``parsed=2 excluded_blank=1 ...``."""
    return " ".join(f"{k}={v}" for k, v in dataclasses.asdict(counts).items())


def _reject_shared_outputs(what: str, inputs: Sequence[str], outputs: Sequence[object]) -> None:
    """Raise ``ValueError`` naming the first two inputs that write one
    output, or the first input listed twice."""
    first: dict[object, str] = {}
    for name, out in zip(inputs, outputs):
        if first.get(out) == name:
            raise ValueError(f"{what}{name} is listed twice")
        if out in first:
            raise ValueError(f"{what}{first[out]} and {name} both write to {out}")
        first[out] = name


def _ontology_out_dirs(cfg: RunConfig) -> list[Path]:
    """Each ontology's output directory: the output directory, or with
    several ontologies its subdirectory named after the file's stem."""
    base = Path(cfg.output_dir)
    if len(cfg.ontology_paths) < 2:
        return [base] * len(cfg.ontology_paths)
    dirs = [base / _safe_name(Path(path).stem) for path in cfg.ontology_paths]
    _reject_shared_outputs("ontologies ", cfg.ontology_paths, dirs)
    return dirs


def run_extract(cfg: RunConfig, format_override: Optional[str] = None) -> list[Path]:
    """Write one ``statements.tsv`` per ontology; ingestion counts go to
    stderr."""
    written = []
    for path, out_dir in zip(cfg.ontology_paths, _ontology_out_dirs(cfg)):
        sset = _load_statement_set(path, format_override)
        rows = [
            _tsv_row(
                [
                    str(st.ordinal),
                    st.subject.label or "",
                    st.predicate.label or "",
                    st.object.readable() or "",
                    st.subject.lexical,
                    st.predicate.lexical,
                    st.object.lexical,
                ]
            )
            for st in sset.statements
        ]
        out_path = out_dir / "statements.tsv"
        gateway.atomic_write_text(out_path, "\n".join(rows) + ("\n" if rows else ""))
        print(f"{path}: {_ingest_counts(sset.counts)}", file=sys.stderr)
        written.append(out_path)
    return written


def run_generate(cfg: RunConfig, format_override: Optional[str] = None) -> list[Path]:
    """Per (ontology, template, provider): generate, filter, and write
    the questions CSV plus its provenance sidecar. Each ontology's whole
    (template x provider) grid is generated in one dispatch, so a failing
    ontology writes no CSVs; its completed responses stay in the cache.
    With ``cfg.filtration.global_dedup`` an ontology's cells are filtered
    together, so a question repeated in another cell is a duplicate."""
    templates = cfg.resolved_templates()
    cells = [(t, p) for t in templates for p in cfg.providers]
    keys = [(t.id, p.provider_id, p.model_name) for t, p in cells]
    stems = [f"questions_{_safe_name(t.id)}_{_safe_name(p.model_name)}" for t, p in cells]
    _reject_shared_outputs(
        "generate: ", ["template {}, provider {}, model {}".format(*key) for key in keys],
        [f"{stem}.csv" for stem in stems],
    )
    out_dirs = _ontology_out_dirs(cfg)
    cache = gateway.ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    written = []
    for path, out_dir in zip(cfg.ontology_paths, out_dirs):
        sset = _load_statement_set(path, format_override)
        if not sset.statements:  # no cell could report a rate per triple
            raise ValueError(f"{path}: no statements to prompt ({_ingest_counts(sset.counts)})")
        grid = gateway.generate_records(
            sset, templates, cfg.providers,
            cache=cache, seed=cfg.seed, parallelism=cfg.parallelism,
        )
        by_cell: dict[tuple, list[gateway.GenerationRecord]] = {key: [] for key in keys}
        for r in grid:
            by_cell[(r.template_id, r.provider_id, r.model_name)].append(r)
        # One pass: dedup pools each cell's questions, or with global dedup all cells'.
        pool = iter(filtration.filter_questions(itertools.chain(*by_cell.values()), cfg.filtration))
        for (template, provider), stem, records in zip(cells, stems, by_cell.values()):
            n_questions = sum(len(r.questions) for r in records)
            csv_path = out_dir / f"{stem}.csv"
            _write_cell(
                csv_path, list(itertools.islice(pool, n_questions)),
                ontology=sset.source_id, template=template.id, provider=provider.provider_id,
                model=provider.model_name, seed=cfg.seed, n_triples=sset.counts.kept,
                ingest_counts=dataclasses.asdict(sset.counts),
                cache_hits=sum(r.from_cache for r in records),
            )
            written.append(csv_path)
    return written


def run_filter(
    cfg: RunConfig, input_csv: Union[str, Path], output_csv: Optional[Path] = None
) -> Path:
    """Standalone filtration of an existing questions CSV. When the input has
    a sidecar, the output's sidecar carries its cell and triple count, so
    ``evaluate`` reads the output as one more cell."""
    in_path = Path(input_csv)
    rows = [q for q in _read_input(in_path, _first_column) if q.strip()]
    if rows and rows[0].strip() == QUESTIONS_CSV_HEADER:
        rows = rows[1:]
    records = [
        gateway.GenerationRecord(i, "-", "-", (q,)) for i, q in enumerate(rows)
    ]
    out_path = output_csv or in_path.with_name(in_path.stem + "_filtered.csv")
    sidecar_path, meta = in_path.with_suffix(".json"), {}
    if sidecar_path.exists():
        source = load_json(sidecar_path, Sidecar, lenient=True)
        meta = {k: getattr(source, k)
                for k in ("ontology", "template", "provider", "model", "n_triples")}
    _write_cell(out_path, filtration.filter_questions(records, cfg.filtration),
                input=str(in_path), **meta)
    return out_path


def _read_cell(csv_path: Path) -> tuple[Sidecar, list[str]]:
    """A cell's sidecar and the kept questions of its CSV."""
    sidecar_path = csv_path.with_suffix(".json")
    if not sidecar_path.exists():
        raise FileNotFoundError(
            f"missing sidecar {sidecar_path} for {csv_path}; re-run generate"
        )
    meta = load_json(sidecar_path, Sidecar, lenient=True)
    rows = _read_input(csv_path, _first_column)
    if not rows or rows[0] != QUESTIONS_CSV_HEADER:
        raise ValueError(f"{csv_path}: expected header {QUESTIONS_CSV_HEADER!r}")
    kept = rows[1:]
    if meta.n_candidates not in (None, len(kept)):
        raise ValueError(f"{csv_path}: n_candidates {meta.n_candidates} in {sidecar_path}, "
                         f"but {len(kept)} rows; re-run generate")
    if meta.csv_sha256 is not None and (
            meta.csv_sha256 != hashlib.sha256(csv_path.read_bytes()).hexdigest()):
        raise ValueError(f"{csv_path}: SHA-256 differs from csv_sha256 in {sidecar_path}; "
                         "re-run generate")
    return meta, kept


def _discover_cells(candidates_dir: Path) -> list[tuple[Sidecar, list[str]]]:
    csv_paths = sorted(candidates_dir.rglob("questions_*.csv"))
    if not csv_paths:
        raise FileNotFoundError(f"no questions_*.csv under {candidates_dir}")
    return [_read_cell(p) for p in csv_paths]


def _report_cell(
    meta: Sidecar,
    m: metrics.EvalMetrics,
    matched: bool,
    unmatched: Optional[list[str]] = None,
    word_counts: Optional[Sequence[int]] = None,
    human_precision: Optional[float] = None,
) -> ReportCell:
    """One ``report.json`` cell from a sidecar or counts-fixture entry
    (``meta``) and its metrics. Without matching, only the question
    counts and rate are reported."""
    rounded = m.rounded()
    if not matched:
        rounded = {"mean_q_per_triple": rounded["mean_q_per_triple"]}
    scores = {"n_design": m.n_design, "n_validated": m.tp, "n_unmatched_design": m.fn,
              "precision": m.precision, "recall": m.recall, "f1": m.f1} if matched else {}
    if human_precision is not None:
        rounded["human_precision"] = metrics.round_half_up(human_precision, 4)
    stats = None
    if word_counts is not None:
        stats = metrics.StatsRow(**metrics.unmatched_stats(word_counts, m.n_design).rounded())
    return ReportCell(
        ontology=meta.ontology, template=meta.template, provider=meta.provider, model=meta.model,
        n_questions=m.n_questions, n_triples=m.n_triples, n_candidates=m.n_candidates,
        mean_q_per_triple=m.mean_q_per_triple, unmatched_design_cqs=unmatched,
        human_precision=human_precision, rounded=rounded, unmatched_stats=stats, **scores,
    )


# The columns of summary.csv and ``report``: (header, the value's path in
# a ReportCell, its format). An unset value is shown as "-".
_COLUMNS = (
    ("Ontology", "ontology", "{}"),
    ("Prompt", "template", "{}"),
    ("LLM", "model", "{}"),
    ("No. Q.", "n_questions", "{}"),
    ("Mean Q/T", "rounded.mean_q_per_triple", "{:.2f}"),
    ("No. Candidate CQs", "n_candidates", "{}"),
    ("No. Validated CQs", "n_validated", "{}"),
    ("Precision", "rounded.precision", "{:.4f}"),
    ("Recall", "rounded.recall", "{:.4f}"),
    ("F1", "rounded.f1", "{:.4f}"),
    ("Unmatched CQs", "unmatched_stats.n_unmatched", "{}"),
    ("Unmatched %", "unmatched_stats.pct_unmatched", "{}%"),
    ("Mean", "unmatched_stats.mean", "{:.2f}"),
    ("Std", "unmatched_stats.std", "{:.2f}"),
    ("Min", "unmatched_stats.min", "{}"),
    ("0.25", "unmatched_stats.p25", "{:.2f}"),
    ("0.50", "unmatched_stats.p50", "{:.2f}"),
    ("Max", "unmatched_stats.max", "{}"),
)


def _summary_table(cells: Sequence[ReportCell]) -> list[list[str]]:
    """The header and one row per cell, as in summary.csv."""
    table = [[header for header, _, _ in _COLUMNS]]
    for cell in cells:
        row = []
        for _, path, pattern in _COLUMNS:
            value = cell
            for name in path.split("."):
                value = value.get(name) if isinstance(value, dict) else getattr(value, name, None)
            row.append("-" if value is None else pattern.format(value))
        table.append(row)
    return table


def run_evaluate(
    cfg: RunConfig,
    candidates_dir: Optional[Path] = None,
    counts_fixture: Optional[Path] = None,
    validation_labels: Optional[Path] = None,
) -> tuple[Path, Path]:
    """Match candidates against design CQs and write ``report.json`` and
    ``summary.csv``. A counts fixture bypasses matching and audits the
    metric formulas over given counts; validation labels compute the
    human-validated precision instead of (or alongside) matching."""
    out_dir = Path(cfg.output_dir)
    labels = (
        _read_input(validation_labels, metrics.load_validation_labels)
        if validation_labels
        else None
    )
    cells = []
    if counts_fixture is not None:
        for f in load_json(counts_fixture, list[CountsEntry], lenient=True):
            m = metrics.metrics_from_counts(
                f.n_validated, f.n_candidates - f.n_validated, f.n_unmatched,
                f.n_questions, f.n_triples, n_design=f.n_design,
            )
            word_counts = f.unmatched_word_counts if f.n_design else None
            cells.append(_report_cell(f, m, matched=True, word_counts=word_counts))
    else:
        design = None
        if cfg.design_cq_path:
            design = _read_input(cfg.design_cq_path, matcher.load_design_cqs)
        if design is None and labels is None:
            raise ValueError(
                "evaluate needs --design, --validation-labels, or --counts-fixture"
            )
        design_matrix = None
        for meta, kept in _discover_cells(candidates_dir or out_dir):
            unmatched = word_counts = None
            if design is None:
                m = metrics.metrics_from_counts(0, len(kept), 0, meta.n_questions, meta.n_triples)
            else:
                if design_matrix is None:
                    design_matrix = matcher.embed_questions(design.questions, cfg.matcher)
                report = matcher.match_candidates(kept, design, cfg.matcher, design_matrix)
                m = metrics.compute_metrics(report, meta.n_questions, meta.n_triples)
                unmatched = report.unmatched_design_questions()
                word_counts = [metrics.word_count(q) for q in unmatched]
            human = None if labels is None else metrics.precision_from_labels(kept, labels)
            cells.append(_report_cell(meta, m, design is not None, unmatched, word_counts, human))

    report = {
        "backend": cfg.matcher.backend.value,
        "similarity_threshold": cfg.matcher.similarity_threshold,
        "cells": [cell.to_json() for cell in cells],
    }
    report_path = out_dir / "report.json"
    gateway.atomic_write_text(report_path, _dump_json(report))
    summary_path = out_dir / "summary.csv"
    gateway.atomic_write_text(summary_path, _csv_text(_summary_table(cells)))
    return report_path, summary_path


def run_report(report_path: Path) -> str:
    """Human-readable rendering of a report.json: summary.csv's table."""
    report = load_json(report_path, Report, lenient=True)
    lines = [f"backend={report.backend} threshold={report.similarity_threshold}"]
    table = _summary_table(report.cells)
    widths = [max(map(len, column)) for column in zip(*table)]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqretrofit",
        description="Retrofit candidate competency questions onto existing ontologies.",
    )
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--output-dir", help="output directory (default: out)")
    parser.add_argument("--cache-dir", help="response cache directory")
    parser.add_argument("--seed", type=int, help="mock provider seed")
    parser.add_argument("--parallelism", type=int, help="max in-flight requests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="parse ontologies into statements.tsv")
    p_extract.add_argument("ontology_paths", nargs="+", metavar="ontologies")
    p_extract.add_argument("--format", choices=list(ontology.FORMATS))

    p_generate = sub.add_parser("generate", help="generate and filter questions")
    p_generate.add_argument("ontology_paths", nargs="*", metavar="ontologies")
    p_generate.add_argument("--format", choices=list(ontology.FORMATS))
    p_generate.add_argument("--templates", nargs="+", help="default: all three",
                            choices=[t.id for t in prompts.list_templates()])
    p_generate.add_argument("--template-file", help="extra template file with a <statement> slot")
    _add_filtration_flags(p_generate)

    p_filter = sub.add_parser("filter", help="filter an existing questions CSV")
    p_filter.add_argument("input_csv")
    p_filter.add_argument("--output")
    _add_filtration_flags(p_filter)

    p_eval = sub.add_parser("evaluate", help="match candidates and compute metrics")
    p_eval.add_argument("--design", dest="design_cq_path", metavar="DESIGN",
                        help="design CQ file (text or CSV)")
    p_eval.add_argument("--candidates-dir", help="directory with questions_*.csv")
    p_eval.add_argument("--tau", type=float, dest="matcher.similarity_threshold", metavar="TAU",
                        help="similarity threshold")
    p_eval.add_argument("--backend", choices=[b.value for b in matcher.MatcherBackend],
                        dest="matcher.backend")
    p_eval.add_argument("--embedding-url", dest="matcher.endpoint_url", metavar="EMBEDDING_URL",
                        help="http_embedding endpoint")
    p_eval.add_argument(
        "--counts-fixture", help="JSON counts file: audit formulas, skip matching"
    )
    p_eval.add_argument("--validation-labels", help="CSV question,verdict")

    p_report = sub.add_parser("report", help="pretty-print a report.json")
    p_report.add_argument("report_json", nargs="?")

    p_templates = sub.add_parser("templates", help="prompt template operations")
    p_templates.add_argument("action", choices=["list"])
    p_templates.add_argument("--template-file")
    return parser


def _add_filtration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strictness", choices=[s.value for s in filtration.Strictness],
                        dest="filtration.strictness")
    parser.add_argument("--dedup-threshold", type=int, dest="filtration.dedup_ratio_threshold",
                        metavar="DEDUP_THRESHOLD")
    parser.add_argument("--primitive-lexicon", dest="filtration.primitive_patterns",
                        metavar="PRIMITIVE_LEXICON", help="pattern file, one regex per line")
    parser.add_argument("--narrative-patterns", dest="filtration.narrative_patterns",
                        metavar="NARRATIVE_PATTERNS", help="pattern file, one regex per line")
    parser.add_argument("--global-dedup", action="store_true", default=None,
                        dest="filtration.global_dedup")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's configuration (or the defaults) with every
    given flag overlaid. A flag's dest names the field it sets: a RunConfig
    field, or ``filtration.<field>`` / ``matcher.<field>``. An empty value
    counts as not given."""
    cfg = load_json(args.config, RunConfig) if args.config else RunConfig()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    given: dict[str, dict] = {"": {}, "filtration": {}, "matcher": {}}
    for dest, value in vars(args).items():
        section, _, name = dest.rpartition(".")
        if (section or name in fields) and value not in (None, "", []):
            if dest.endswith("_patterns"):  # --primitive-lexicon, --narrative-patterns
                value = _read_input(value, filtration.load_pattern_file)
            given[section][name] = value
    top = given.pop("")
    sections = {s: dataclasses.replace(getattr(cfg, s), **kw) for s, kw in given.items()}
    return dataclasses.replace(cfg, **top, **sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("CQRETROFIT_LOG", "WARNING"))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "extract":
            run_extract(cfg, format_override=args.format)
        elif args.command == "generate":
            if not cfg.ontology_paths:
                parser.error("generate needs ontology paths (argument or --config)")
            run_generate(cfg, format_override=args.format)
        elif args.command == "filter":
            out = run_filter(
                cfg, args.input_csv, Path(args.output) if args.output else None
            )
            print(out)
        elif args.command == "evaluate":
            paths = (args.candidates_dir, args.counts_fixture, args.validation_labels)
            report_path, summary_path = run_evaluate(cfg, *(Path(p) if p else None for p in paths))
            print(report_path)
            print(summary_path)
        elif args.command == "report":
            path = Path(args.report_json or Path(cfg.output_dir) / "report.json")
            print(run_report(path))
        elif args.command == "templates":
            cfg = dataclasses.replace(cfg, templates=[t.id for t in prompts.list_templates()])
            for t in cfg.resolved_templates():
                print(f"{t.id}: {t.body}")
    except (
        prompts.PromptError,
        gateway.GatewayError,
        matcher.MatcherError,
        metrics.MetricsError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)  # one line
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
