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
from typing import Iterator, Optional, Sequence, Union

from . import filtration, gateway, matcher, metrics, ontology, prompts

logger = logging.getLogger(__name__)

QUESTIONS_CSV_HEADER = "Questions"


class ConfigError(ValueError):
    """A JSON run configuration that does not fit :class:`RunConfig`."""


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
            resolved.append(prompts.load_template_file(self.template_file))
        return resolved


def _from_json(tp, value, key: str = ""):
    """``value`` (decoded JSON) as an instance of the annotated type
    ``tp``: a config dataclass, a list or tuple of one item type,
    ``Optional`` of a type, or a scalar. An enum field takes its string
    value, which the dataclass converts and checks. ``key`` is the dotted
    path of ``value`` for error messages."""
    if typing.get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(
                f"{key or 'config'} must be a JSON object, not {type(value).__name__}"
            )
        prefix = f"{key}." if key else ""
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        for name in value:
            if name not in fields:
                raise ConfigError(f"unknown key {prefix}{name}")
        for name, f in fields.items():
            required = f.default is dataclasses.MISSING
            if required and f.default_factory is dataclasses.MISSING and name not in value:
                raise ConfigError(f"missing required key {prefix}{name}")
        hints = typing.get_type_hints(tp)
        kwargs = {n: _from_json(hints[n], v, prefix + n) for n, v in value.items()}
        try:
            return tp(**kwargs)
        except (ValueError, re.error) as exc:  # range checks in __post_init__
            raise ConfigError(f"{key or 'config'}: {exc}") from None
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, not {type(value).__name__}")
        item = typing.get_args(tp)[0]
        return origin(_from_json(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if issubclass(tp, Enum):
        tp = str
    # JSON has one number type: an integer is a valid float; a bool is no number.
    allowed = (int, float) if tp is float else tp
    if not isinstance(value, allowed) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{key} must be {tp.__name__}, not {type(value).__name__}")
    return value


def load_run_config(path: Union[str, Path]) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = _from_json(RunConfig, raw)
    except (ConfigError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # A provider without max_tokens gets its model family's preset.
    if "providers" in raw:
        cfg.providers = [
            p if "max_tokens" in r
            else dataclasses.replace(p, max_tokens=gateway.preset_max_tokens(p.model_name))
            for p, r in zip(cfg.providers, raw["providers"])
        ]
    return cfg


def _safe_name(name: str) -> str:
    """Replace filesystem-unsafe characters in a filename component."""
    return re.sub(r"[^A-Za-z0-9._\-]", "_", name)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _questions_csv(texts: Sequence[str]) -> str:
    return _csv_text([[QUESTIONS_CSV_HEADER]] + [[t] for t in texts])


def _question_row(c: filtration.CandidateCQ) -> dict:
    reason = c.removal_reason.value if c.removal_reason else None
    return {"text": c.text, "status": c.status, "removal_reason": reason}


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
    try:
        raw = ontology.parse_ontology(Path(path).read_text(encoding="utf-8"), fmt)
    except (ontology.OntologyError, UnicodeDecodeError) as exc:
        raise ontology.OntologyError(f"{path}: {exc}") from exc
    return ontology.filter_statements(raw, source_id=Path(path).stem)


def _ontology_out_dir(cfg: RunConfig, source_id: str, multi: bool) -> Path:
    base = Path(cfg.output_dir)
    return base / _safe_name(source_id) if multi else base


def run_extract(cfg: RunConfig, format_override: Optional[str] = None) -> list[Path]:
    """Write one ``statements.tsv`` per ontology; ingestion counts go to
    stderr."""
    written = []
    multi = len(cfg.ontology_paths) > 1
    for path in cfg.ontology_paths:
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
        out_path = _ontology_out_dir(cfg, sset.source_id, multi) / "statements.tsv"
        gateway.atomic_write_text(out_path, "\n".join(rows) + ("\n" if rows else ""))
        c = sset.counts
        print(
            f"{path}: parsed={c.parsed} excluded_blank={c.excluded_blank} "
            f"excluded_opaque={c.excluded_opaque} kept={c.kept}",
            file=sys.stderr,
        )
        written.append(out_path)
    return written


def run_generate(cfg: RunConfig, format_override: Optional[str] = None) -> list[Path]:
    """Per (ontology, template, provider): generate, filter, and write
    the questions CSV plus its provenance sidecar. Each ontology's whole
    (template x provider) grid is generated in one dispatch, so a failing
    ontology writes no CSVs; its completed responses stay in the cache.
    With ``cfg.filtration.global_dedup`` an ontology's cells are filtered
    together, so a question repeated in another cell is a duplicate."""
    cache = gateway.ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    templates = cfg.resolved_templates()
    cells = [(t, p) for t in templates for p in cfg.providers]
    keys = [(t.id, p.provider_id, p.model_name) for t, p in cells]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(
                "generate: template {}, provider {}, model {} is listed twice".format(*key)
            )
    written = []
    multi = len(cfg.ontology_paths) > 1
    for path in cfg.ontology_paths:
        sset = _load_statement_set(path, format_override)
        out_dir = _ontology_out_dir(cfg, sset.source_id, multi)
        grid = gateway.generate_records(
            sset, templates, cfg.providers,
            cache=cache, seed=cfg.seed, parallelism=cfg.parallelism,
        )
        for template, provider, records, candidates in _filtered_cells(cfg, cells, grid):
            kept = filtration.kept_questions(candidates)
            stem = f"questions_{_safe_name(template.id)}_{_safe_name(provider.model_name)}"
            csv_path = out_dir / f"{stem}.csv"
            gateway.atomic_write_text(csv_path, _questions_csv([c.text for c in kept]))
            n_questions = sum(len(r.questions) for r in records)
            sidecar = {
                "ontology": sset.source_id,
                "template": template.id,
                "provider": provider.provider_id,
                "model": provider.model_name,
                "seed": cfg.seed,
                "n_triples": sset.counts.kept,
                "ingest_counts": dataclasses.asdict(sset.counts),
                "n_questions": n_questions,
                "n_candidates": len(kept),
                "cache_hits": sum(r.from_cache for r in records),
                "questions": [
                    {**_question_row(c), "statement_ordinal": c.statement_ordinal}
                    for c in candidates
                ],
            }
            gateway.atomic_write_text(out_dir / f"{stem}.json", _dump_json(sidecar))
            written.append(csv_path)
            logger.info(
                "wrote %s (%d kept of %d questions)", csv_path, len(kept), n_questions
            )
    return written


def _filtered_cells(
    cfg: RunConfig,
    cells: Sequence[tuple[prompts.PromptTemplate, gateway.ProviderConfig]],
    grid: Sequence[gateway.GenerationRecord],
) -> Iterator[tuple]:
    """(template, provider, records, candidates) per cell, in order, from
    the records of one ontology's grid. Each cell is filtered on its own;
    with global dedup all cells are filtered in one pass."""
    by_cell: dict[tuple[str, str, str], list[gateway.GenerationRecord]] = {
        (t.id, p.provider_id, p.model_name): [] for t, p in cells
    }
    for r in grid:
        by_cell[(r.template_id, r.provider_id, r.model_name)].append(r)
    per_cell = list(by_cell.values())
    if not cfg.filtration.global_dedup:
        for (template, provider), records in zip(cells, per_cell):
            yield template, provider, records, filtration.filter_questions(records, cfg.filtration)
        return
    pooled = iter(filtration.filter_questions([r for rs in per_cell for r in rs], cfg.filtration))
    for (template, provider), records in zip(cells, per_cell):
        n_questions = sum(len(r.questions) for r in records)
        yield template, provider, records, list(itertools.islice(pooled, n_questions))


def run_filter(
    cfg: RunConfig, input_csv: Union[str, Path], output_csv: Optional[Path] = None
) -> Path:
    """Standalone filtration of an existing questions CSV."""
    in_path = Path(input_csv)
    with open(in_path, newline="", encoding="utf-8") as fh:
        rows = [row[0] for row in csv.reader(fh) if row and row[0].strip()]
    if rows and rows[0].strip() == QUESTIONS_CSV_HEADER:
        rows = rows[1:]
    records = [
        gateway.GenerationRecord(i, "-", "-", (q,)) for i, q in enumerate(rows)
    ]
    candidates = filtration.filter_questions(records, cfg.filtration)
    kept = filtration.kept_questions(candidates)
    out_path = output_csv or in_path.with_name(in_path.stem + "_filtered.csv")
    gateway.atomic_write_text(out_path, _questions_csv([c.text for c in kept]))
    sidecar = {
        "input": str(in_path),
        "n_questions": len(rows),
        "n_candidates": len(kept),
        "questions": [_question_row(c) for c in candidates],
    }
    gateway.atomic_write_text(out_path.with_suffix(".json"), _dump_json(sidecar))
    return out_path


def _read_cell(csv_path: Path) -> dict:
    sidecar_path = csv_path.with_suffix(".json")
    if not sidecar_path.exists():
        raise FileNotFoundError(
            f"missing sidecar {sidecar_path} for {csv_path}; re-run generate"
        )
    try:
        meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from None
    for key in ("n_questions", "n_triples"):
        if key not in meta:
            raise ValueError(f"{sidecar_path}: missing key {key!r}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row[0] for row in reader if row]
    if not rows or rows[0] != QUESTIONS_CSV_HEADER:
        raise ValueError(f"{csv_path}: expected header {QUESTIONS_CSV_HEADER!r}")
    meta["kept_questions"] = rows[1:]
    meta["csv_path"] = str(csv_path)
    return meta


def _discover_cells(candidates_dir: Path) -> list[dict]:
    csv_paths = sorted(candidates_dir.rglob("questions_*.csv"))
    if not csv_paths:
        raise FileNotFoundError(f"no questions_*.csv under {candidates_dir}")
    return [_read_cell(p) for p in csv_paths]


def _report_entry(
    meta: dict,
    m: metrics.EvalMetrics,
    matched: bool = True,
    unmatched_word_counts: Optional[Sequence[int]] = None,
) -> dict:
    """One ``report.json`` cell from a sidecar or counts-fixture entry
    (``meta``) and its metrics. Without matching, only the question
    counts and rate are reported."""
    entry = {
        "ontology": meta.get("ontology", ""),
        "template": meta.get("template", ""),
        "provider": meta.get("provider", ""),
        "model": meta.get("model", ""),
        "n_questions": m.n_questions,
        "n_triples": m.n_triples,
        "n_candidates": m.n_candidates,
        "mean_q_per_triple": m.mean_q_per_triple,
        "rounded": m.rounded(),
    }
    if not matched:
        entry["rounded"] = {"mean_q_per_triple": entry["rounded"]["mean_q_per_triple"]}
        return entry
    entry.update(
        {
            "n_design": m.n_design,
            "n_validated": m.tp,
            "n_unmatched_design": m.fn,
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
        }
    )
    if unmatched_word_counts is not None:
        stats = metrics.unmatched_stats(unmatched_word_counts, m.n_design)
        entry["unmatched_stats"] = stats.rounded()
    return entry


_SUMMARY_COLUMNS = [
    "Ontology",
    "Prompt",
    "LLM",
    "No. Q.",
    "Mean Q/T",
    "No. Candidate CQs",
    "No. Validated CQs",
    "Precision",
    "Recall",
    "F1",
    "Unmatched CQs",
    "Unmatched %",
    "Mean",
    "Std",
    "Min",
    "0.25",
    "0.50",
    "Max",
]


def _summary_row(entry: dict) -> list[str]:
    rounded = entry.get("rounded", {})

    def fmt(value, pattern: str) -> str:
        return "-" if value is None else pattern.format(value)

    stats = entry.get("unmatched_stats") or {}
    return [
        entry.get("ontology", ""),
        entry.get("template", ""),
        entry.get("model", ""),
        str(entry.get("n_questions", "")),
        fmt(rounded.get("mean_q_per_triple"), "{:.2f}"),
        str(entry.get("n_candidates", "")),
        fmt(entry.get("n_validated"), "{}"),
        fmt(rounded.get("precision"), "{:.4f}"),
        fmt(rounded.get("recall"), "{:.4f}"),
        fmt(rounded.get("f1"), "{:.4f}"),
        fmt(stats.get("n_unmatched"), "{}"),
        fmt(stats.get("pct_unmatched"), "{}%"),
        fmt(stats.get("mean"), "{:.2f}"),
        fmt(stats.get("std"), "{:.2f}"),
        fmt(stats.get("min"), "{}"),
        fmt(stats.get("p25"), "{:.2f}"),
        fmt(stats.get("p50"), "{:.2f}"),
        fmt(stats.get("max"), "{}"),
    ]


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
        metrics.load_validation_labels(validation_labels)
        if validation_labels
        else None
    )
    entries = []
    if counts_fixture is not None:
        fixture = json.loads(Path(counts_fixture).read_text(encoding="utf-8"))
        for i, f in enumerate(fixture):
            n_design = f.get("n_design")
            try:
                tp = f["n_validated"]
                counts = (f["n_candidates"] - tp, f["n_unmatched"], f["n_questions"], f["n_triples"])
            except KeyError as exc:
                raise ValueError(
                    f"{counts_fixture}: entry {i}: missing key {exc.args[0]!r}"
                ) from None
            m = metrics.metrics_from_counts(tp, *counts, n_design=n_design)
            word_counts = f.get("unmatched_word_counts") if n_design else None
            entries.append(_report_entry(f, m, unmatched_word_counts=word_counts))
    else:
        design = None
        if cfg.design_cq_path:
            design = matcher.load_design_cqs(cfg.design_cq_path)
            if not design.questions:
                raise ValueError(f"design CQ set {cfg.design_cq_path} is empty")
        if design is None and labels is None:
            raise ValueError(
                "evaluate needs --design, --validation-labels, or --counts-fixture"
            )
        design_matrix = None
        for cell in _discover_cells(candidates_dir or out_dir):
            kept = cell["kept_questions"]
            n_questions, n_triples = cell["n_questions"], cell["n_triples"]
            if design is None:
                m = metrics.metrics_from_counts(0, len(kept), 0, n_questions, n_triples)
                entry = _report_entry(cell, m, matched=False)
            else:
                if design_matrix is None:
                    design_matrix = matcher.embed_questions(design.questions, cfg.matcher)
                report = matcher.match_candidates(kept, design, cfg.matcher, design_matrix)
                m = metrics.compute_metrics(report, n_questions, n_triples)
                unmatched = report.unmatched_design_questions()
                entry = _report_entry(
                    cell, m, unmatched_word_counts=[metrics.word_count(q) for q in unmatched]
                )
                entry["unmatched_design_cqs"] = unmatched
            if labels is not None:
                human = metrics.precision_from_labels(kept, labels)
                entry["human_precision"] = human
                entry["rounded"]["human_precision"] = metrics.round_half_up(human, 4)
            entries.append(entry)

    report = {
        "backend": cfg.matcher.backend.value,
        "similarity_threshold": cfg.matcher.similarity_threshold,
        "cells": entries,
    }
    report_path = out_dir / "report.json"
    gateway.atomic_write_text(report_path, _dump_json(report))
    summary_path = out_dir / "summary.csv"
    gateway.atomic_write_text(
        summary_path, _csv_text([_SUMMARY_COLUMNS] + [_summary_row(e) for e in entries])
    )
    return report_path, summary_path


def run_report(report_path: Path) -> str:
    """Human-readable rendering of a report.json."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    lines = [
        f"backend={report.get('backend')} "
        f"threshold={report.get('similarity_threshold')}"
    ]
    header = _SUMMARY_COLUMNS
    rows = [_summary_row(entry) for entry in report.get("cells", [])]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for r in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)))
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
    p_extract.add_argument("ontologies", nargs="+")
    p_extract.add_argument("--format", choices=["ntriples", "turtle"])

    p_generate = sub.add_parser("generate", help="generate and filter questions")
    p_generate.add_argument("ontologies", nargs="*")
    p_generate.add_argument("--format", choices=["ntriples", "turtle"])
    p_generate.add_argument(
        "--templates", nargs="+", choices=["P1", "P2", "P3"], help="default: all three"
    )
    p_generate.add_argument("--template-file", help="extra template file with a <statement> slot")
    _add_filtration_flags(p_generate)

    p_filter = sub.add_parser("filter", help="filter an existing questions CSV")
    p_filter.add_argument("input_csv")
    p_filter.add_argument("--output")
    _add_filtration_flags(p_filter)

    p_eval = sub.add_parser("evaluate", help="match candidates and compute metrics")
    p_eval.add_argument("--design", help="design CQ file (text or CSV)")
    p_eval.add_argument("--candidates-dir", help="directory with questions_*.csv")
    p_eval.add_argument("--tau", type=float, help="similarity threshold")
    p_eval.add_argument(
        "--backend", choices=["lexical_fallback", "http_embedding"]
    )
    p_eval.add_argument("--embedding-url", help="http_embedding endpoint")
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
    parser.add_argument("--strictness", choices=["off", "lenient", "strict"])
    parser.add_argument("--dedup-threshold", type=int)
    parser.add_argument("--primitive-lexicon", help="pattern file, one regex per line")
    parser.add_argument("--narrative-patterns", help="pattern file, one regex per line")
    parser.add_argument("--global-dedup", action="store_true", default=None)


def _given(**values) -> dict:
    """The keyword arguments that are not None."""
    return {k: v for k, v in values.items() if v is not None}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    flags = vars(args)

    def pattern_file(flag: str) -> Optional[tuple[str, ...]]:
        path = flags.get(flag)
        return filtration.load_pattern_file(path) if path else None

    return dataclasses.replace(
        cfg,
        **_given(
            ontology_paths=flags.get("ontologies") or None,
            output_dir=args.output_dir or None,
            cache_dir=args.cache_dir or None,
            seed=args.seed,
            parallelism=args.parallelism,
            templates=flags.get("templates") or None,
            template_file=flags.get("template_file") or None,
            design_cq_path=flags.get("design") or None,
        ),
        filtration=dataclasses.replace(
            cfg.filtration,
            **_given(
                strictness=flags.get("strictness"),
                dedup_ratio_threshold=flags.get("dedup_threshold"),
                primitive_patterns=pattern_file("primitive_lexicon"),
                narrative_patterns=pattern_file("narrative_patterns"),
                global_dedup=flags.get("global_dedup"),
            ),
        ),
        matcher=dataclasses.replace(
            cfg.matcher,
            **_given(
                backend=flags.get("backend"),
                similarity_threshold=flags.get("tau"),
                endpoint_url=flags.get("embedding_url") or None,
            ),
        ),
    )


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
            report_path, summary_path = run_evaluate(
                cfg,
                candidates_dir=Path(args.candidates_dir)
                if args.candidates_dir
                else None,
                counts_fixture=Path(args.counts_fixture)
                if args.counts_fixture
                else None,
                validation_labels=Path(args.validation_labels)
                if args.validation_labels
                else None,
            )
            print(report_path)
            print(summary_path)
        elif args.command == "report":
            path = Path(args.report_json or Path(cfg.output_dir) / "report.json")
            print(run_report(path))
        elif args.command == "templates":
            shipped = list(prompts.list_templates())
            if args.template_file:
                shipped.append(prompts.load_template_file(args.template_file))
            for t in shipped:
                print(f"{t.id}: {t.body}")
    except (
        ontology.OntologyError,
        prompts.PromptError,
        gateway.GatewayError,
        matcher.MatcherError,
        metrics.MetricsError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
