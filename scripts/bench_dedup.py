"""Time near-duplicate filtering on paper-sized cells against the
kept-pool scan it replaced, and check that both make the same decisions.

Each cell is the mock provider's P1 questions for the first 100, 400 and
800 kept statements of the benchmark's synthetic ontology
(``perfbench/inputs.make_ontology(1, 3000)``): about 339, 1,357 and 2,754
questions. ``filtration.dedup`` and the reference ``scan_dedup`` of
``tests/oracle_dedup.py`` run in one process on the same candidates. The
result, with the machine it ran on, goes to a JSON file; the exit status
is 1 when any decision differs.

    python scripts/bench_dedup.py [--out BENCH_dedup.json]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import numpy as np

from cqretrofit import filtration, gateway, ontology
from cqretrofit.filtration import CandidateCQ, FiltrationConfig
from oracle_dedup import scan_dedup
from perfbench.inputs import make_ontology, to_ntriples

STATEMENTS = (100, 400, 800)
# The reference takes about 20 s on the largest cell, so it runs once.
DEDUP_RUNS, REFERENCE_RUNS = 5, 1


def mock_cell(statements) -> list[CandidateCQ]:
    records = gateway.generate_records(statements, ["P1"], [gateway.mock_provider()])
    return [
        CandidateCQ(q, r.statement_ordinal, r.template_id, r.provider_id, model_name=r.model_name)
        for r in records
        for q in r.questions
    ]


def timed(fn, candidates, cfg, runs: int):
    """The last result of ``runs`` calls and the median wall time."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        out = fn(candidates, cfg)
        times.append(time.perf_counter() - start)
    return out, statistics.median(times)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_dedup.json"))
    args = parser.parse_args(argv)
    cfg = FiltrationConfig()
    raw = ontology.parse_ontology(to_ntriples(make_ontology(1, 3000)), "ntriples")
    statements = ontology.filter_statements(raw, "bench").statements
    cells = []
    for n in STATEMENTS:
        candidates = mock_cell(statements[:n])
        got, dedup_s = timed(filtration.dedup, candidates, cfg, DEDUP_RUNS)
        want, reference_s = timed(scan_dedup, candidates, cfg, REFERENCE_RUNS)
        cells.append({
            "statements": n,
            "questions": len(candidates),
            "kept": sum(c.kept for c in got),
            "decisions_identical": got == want,
            "dedup_median_s": round(dedup_s, 4),
            "reference_median_s": round(reference_s, 4),
        })
        print(json.dumps(cells[-1]), flush=True)
    result = {
        "script": "scripts/bench_dedup.py",
        "input": "perfbench/inputs.make_ontology(1, 3000), mock provider, template P1",
        "threshold": cfg.dedup_ratio_threshold,
        "dedup_runs": DEDUP_RUNS,
        "reference_runs": REFERENCE_RUNS,
        "reference": "tests/oracle_dedup.py scan_dedup",
        "cells": cells,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if not all(c["decisions_identical"] for c in cells):
        print("error: dedup and the reference disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
