"""Time ``extract`` on the benchmark's 10k-statement ontology against a
base revision, and check the parser and the statement filter against the
reference of ``tests/oracle_parser.py``.

The input is ``perfbench/inputs.make_ontology(1, 10000)`` written as
N-Triples and as Turtle. Without ``--base`` the script checks that
``parse_ontology``, ``filter_statements`` and ``load_statement_set`` give
what the reference gives on both files, and times them in this process.

With ``--base <rev>`` it also exports ``src/`` of that revision into a
temporary directory (``git archive``; no network, removed at exit) and
runs ``--pairs`` pairs of processes, one per tree, swapping which tree
goes first in each pair. Each process runs ``cli.main(["extract", ...])``
on both files ``--repeats`` times, then ``parse_ontology`` and
``filter_statements`` on each file, and reports the median of each. The
result, with the machine it ran on, goes to a JSON file. The exit status
is 1 when the reference disagrees or the two trees write different
``statements.tsv`` bytes.

    python scripts/bench_ingest.py [--base REV --pairs N] [--out BENCH_ingest.json]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import numpy as np

from cqretrofit import ontology
import oracle_parser
from perfbench.inputs import make_ontology, to_ntriples, to_turtle

SEED, STATEMENTS = 1, 10000
# Run in a fresh process per tree, with only that tree's src on the path.
# Prints one JSON line: the median time of each step.
_TIMED_RUN = r"""
import json, statistics, sys, time
from pathlib import Path
from cqretrofit import cli, ontology

out, repeats, files = sys.argv[1], int(sys.argv[2]), sys.argv[3:]


def median_s(fn):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def extract():
    if cli.main(["--output-dir", out, "extract", *files]) != 0:
        raise SystemExit("extract failed")


result = {"extract_s": median_s(extract)}
for path in files:
    text, fmt = Path(path).read_text(encoding="utf-8"), ontology.format_for_path(path)
    raw = ontology.parse_ontology(text, fmt)
    result[f"parse_ontology_s.{fmt}"] = median_s(lambda: ontology.parse_ontology(text, fmt))
    result[f"filter_statements_s.{fmt}"] = median_s(lambda: ontology.filter_statements(raw))
print(json.dumps(result))
"""


def write_inputs(directory: Path) -> list[Path]:
    triples = make_ontology(SEED, STATEMENTS)
    files = [directory / "ingest_nt.nt", directory / "ingest_ttl.ttl"]
    files[0].write_text(to_ntriples(triples), encoding="utf-8")
    files[1].write_text(to_turtle(triples), encoding="utf-8")
    return files


def median_s(fn, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 5)


def oracle_check(files: list[Path]) -> dict:
    """Whether each public ingest call equals the reference on each file,
    and its median time in this process, taken before the reference runs."""
    out = {}
    for path in files:
        text, fmt = path.read_text(encoding="utf-8"), ontology.format_for_path(path.name)
        raw = ontology.parse_ontology(text, fmt)
        times = {
            "parse_ontology_s": median_s(lambda: ontology.parse_ontology(text, fmt)),
            "filter_statements_s": median_s(lambda: ontology.filter_statements(raw, path.stem)),
            "load_statement_set_s": median_s(lambda: ontology.load_statement_set(text, fmt, path.stem)),
        }
        want_raw = oracle_parser.parse_ontology(text, fmt)
        want = oracle_parser.filter_statements(want_raw, path.stem)
        got = ontology.filter_statements(raw, path.stem)
        out[fmt] = {
            "statements_parsed": got.counts.parsed,
            "statements_kept": got.counts.kept,
            "parse_ontology_identical": raw == want_raw,
            "filter_statements_identical": got == want,
            "load_statement_set_identical": ontology.load_statement_set(text, fmt, path.stem) == want,
            **times,
        }
    return out


def export_src(rev: str, dest: Path) -> str:
    """Write ``src/`` of ``rev`` under ``dest``; return the full revision."""
    full = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = dest / "src.tar"
    git("archive", f"--output={archive}", full, "src")
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return full


def timed_run(src: Path, out: Path, files: list[Path], repeats: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_RUN, str(out), str(repeats), *map(str, files)],
        cwd=out.parent, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def compare(base_src: Path, work: Path, files: list[Path], pairs: int, repeats: int) -> dict:
    trees = {"base": base_src, "change": ROOT / "src"}
    outs = {name: work / f"out_{name}" for name in trees}
    for name, src in trees.items():  # untimed: compiles each tree's bytecode
        timed_run(src, outs[name], files, 1)
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            runs[name].append(timed_run(trees[name], outs[name], files, repeats))
        print(json.dumps({name: runs[name][-1]["extract_s"] for name in trees}), flush=True)
    ratios = [c["extract_s"] / b["extract_s"] for b, c in zip(runs["base"], runs["change"])]
    identical = all(
        (outs["base"] / path.stem / "statements.tsv").read_bytes()
        == (outs["change"] / path.stem / "statements.tsv").read_bytes()
        for path in files
    )
    return {
        "pairs": pairs,
        "repeats": repeats,
        **{name: {key: summary([run[key] for run in runs[name]]) for key in runs[name][0]}
           for name in trees},
        "extract_pair_ratio_median": round(statistics.median(ratios), 4),
        "extract_pairs_won": sum(r < 1 for r in ratios),
        "statements_tsv_identical": identical,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def git_revision() -> str:
    try:
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5, help="extract calls per process")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ingest.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        parser.error("--pairs and --repeats must be at least 1")
    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as tmp:
        work = Path(tmp)
        files = write_inputs(work)
        result = {
            "script": "scripts/bench_ingest.py",
            "input": f"perfbench/inputs.make_ontology({SEED}, {STATEMENTS}) as N-Triples "
                     "and as Turtle, extracted by one command",
            "reference": "tests/oracle_parser.py parse_ontology and filter_statements",
            "oracle": oracle_check(files),
        }
        print(json.dumps(result["oracle"]), flush=True)
        if args.base:
            result["base_revision"] = export_src(args.base, work)
            result.update(compare(work / "src", work, files, args.pairs, args.repeats))
    result.update({
        "change_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    failed = [f"{fmt} {key}" for fmt, checks in result["oracle"].items()
              for key, ok in checks.items() if key.endswith("_identical") and not ok]
    if not result.get("statements_tsv_identical", True):
        failed.append("statements.tsv of the two trees")
    if failed:
        print(f"error: differs: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
