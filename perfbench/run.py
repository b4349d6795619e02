"""Benchmark of the cqretrofit pipeline (extract, generate, filter, evaluate).

Run from the root of a checkout:

    python3 perfbench/run.py --workload mock_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Each run builds its inputs from the seed, starts a job process that
imports ``cqretrofit`` from ``src/`` (and, for ``http_stub``, a stub
chat-completion server), and then repeats the workload's command
sequence through ``cli.main`` until ``--seconds`` have passed:
``extract``, a ``generate`` on an empty response cache, the same
``generate`` again on the cache the first one left, and ``evaluate``.
Set-up is done several times and timed each time.

Every command's outputs are hashed. Each iteration must reproduce the
first iteration's bytes; for the default seed the questions CSVs,
``statements.tsv`` and ``summary.csv`` must also match the digests in
``digests.json``. A nonzero exit or a mismatch is a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the run's samples). With ``--trace 1`` every other
iteration runs with the span recorder installed and the last line
reports per-layer metrics (medians over the traced iterations) plus the
tracing overhead. A readable table with sample counts goes to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUPS = 3
# Hard stop well inside the 180 s a run may take.
WATCHDOG_S = 170
# The program's own seed (the mock provider's) is fixed: the benchmark
# seed only shapes the generated inputs.
PROGRAM_SEED = "0"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``extract`` reads the whole ontology of
    ``statements``; ``generate`` runs on its first ``generate_statements``
    kept statements, because filtration cost grows with the square of
    the questions per cell. Each iteration runs ``extract`` and
    ``evaluate`` ``repeats`` times and the cold/warm ``generate`` pair
    ``generate_repeats`` times, so that short commands get about as
    many samples as long ones."""

    statements: int
    generate_statements: int
    design: int
    repeats: int = 1
    generate_repeats: int = 1
    stub: bool = False
    latency_s: float = 0.0
    fail_every: int = 0
    cells: tuple[int, int, int] = (0, 0, 0)  # candidates, "No. Q.", triples per cell
    focus: int = 0  # ingest_eval: statements the design CQs are drawn from


WORKLOADS = {
    # Filtration (near-duplicate removal) carries generate: a dedup fix shows here.
    "mock_grid": Spec(statements=300, generate_statements=10, design=40, repeats=8),
    # Gateway waits, retries and cache writes carry the cold pass; the
    # warm pass reads the same cache and makes no HTTP calls.
    "http_stub": Spec(statements=300, generate_statements=13, design=40, repeats=8, stub=True,
                      latency_s=0.05, fail_every=10),
    # Parsing and embedding carry this one; generate is a 4-statement pilot.
    "ingest_eval": Spec(statements=10000, generate_statements=4, design=100, generate_repeats=3,
                        cells=(2500, 4000, 1500), focus=200),
}
TINY = {
    "mock_grid": Spec(statements=20, generate_statements=5, design=4, repeats=2),
    "http_stub": Spec(statements=20, generate_statements=5, design=4, repeats=2, stub=True,
                      latency_s=0.01, fail_every=3),
    "ingest_eval": Spec(statements=200, generate_statements=3, design=10, generate_repeats=2,
                        cells=(40, 60, 30), focus=10),
}

END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "rerun_s": "s",
    "extract_s": "s",
    "evaluate_s": "s",
    "questions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "filtration.filter_questions_s": "s",
    "filtration.dedup_s": "s",
    "filtration.dedup_share_of_generate": "1",
    "filtration.pairs_compared": "count",
    "filtration.rules_s": "s",
    "filtration.kept_ratio": "1",
    "filtration.removed.duplicate": "count",
    "filtration.removed.modelling_primitive": "count",
    "filtration.removed.subjective_narrative": "count",
    "filtration.removed.malformed": "count",
    "gateway.complete_s": "s",
    "gateway.requests": "count",
    "gateway.http_wait_s": "s",
    "gateway.http_attempts": "count",
    "gateway.http_retries": "count",
    "gateway.http_failed": "count",
    "gateway.cache_put_s": "s",
    "gateway.cache_get_s": "s",
    "gateway.cache_hit_ratio.cold": "1",
    "gateway.cache_hit_ratio.warm": "1",
    "gateway.extract_questions_s": "s",
    "gateway.questions_extracted": "count",
    "prompts.render_s": "s",
    "prompts.prompts_rendered": "count",
    "ontology.parse_s": "s",
    "ontology.parse_mb_per_s": "MB/s",
    "ontology.filter_statements_s": "s",
    "ontology.statements_parsed": "count",
    "ontology.kept_ratio": "1",
    "matcher.embed_batch_s": "s",
    "matcher.texts_embedded": "count",
    "matcher.match_s": "s",
    "matcher.validated_ratio": "1",
    "metrics.compute_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "stub.attempts": "count",
    "trace.overhead_ratio": "1",
}
# Files whose digests are recorded for the default seed, per job.
DIGESTED = {
    "extract": ("statements.tsv",),
    "generate_cold": (".csv",),
    "evaluate": ("summary.csv",),
}


class BenchError(Exception):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# --------------------------------------------------------------- inputs


@dataclass
class Inputs:
    extract: list[str]
    generate: str
    design: str
    candidates: str | None = None
    plan: str | None = None
    config: str | None = None
    prompts: int = 0
    failing_prompts: int = 0
    warm_ontology: str = ""
    warm_design: str = ""


def build_inputs(name: str, spec: Spec, seed: int, d: Path) -> Inputs:
    d.mkdir(parents=True)
    triples = inputs.make_ontology(seed, spec.statements)
    kept = [t for t in triples if t.kept]
    gen = kept[: spec.generate_statements]
    focus = kept[: spec.focus] if spec.focus else gen
    design = d / "design.txt"
    design.write_text("\n".join(inputs.design_cqs(seed, focus, spec.design)) + "\n")
    warm = inputs.make_ontology(seed, 4)
    (d / "warm.nt").write_text(inputs.to_ntriples(warm))
    (d / "warm_design.txt").write_text(
        "\n".join(inputs.design_cqs(seed, [t for t in warm if t.kept], 2)) + "\n"
    )
    common = dict(design=str(design), warm_ontology=str(d / "warm.nt"),
                  warm_design=str(d / "warm_design.txt"))
    if name == "ingest_eval":
        (d / "ingest_nt.nt").write_text(inputs.to_ntriples(triples))
        (d / "ingest_ttl.ttl").write_text(inputs.to_turtle(triples))
        (d / "pilot.nt").write_text(inputs.to_ntriples(gen))
        n_candidates, n_questions, n_triples = spec.cells
        inputs.write_cells(d / "cells", seed, kept[:n_triples], focus, n_candidates, n_questions)
        return Inputs(
            extract=[str(d / "ingest_nt.nt"), str(d / "ingest_ttl.ttl")],
            generate=str(d / "pilot.nt"), candidates=str(d / "cells"), **common,
        )
    if not spec.stub:
        (d / "grid.nt").write_text(inputs.to_ntriples(triples))
        (d / "grid_gen.nt").write_text(inputs.to_ntriples(gen))
        return Inputs(extract=[str(d / "grid.nt")], generate=str(d / "grid_gen.nt"), **common)
    (d / "stub.ttl").write_text(inputs.to_turtle(triples))
    (d / "stub_gen.ttl").write_text(inputs.to_turtle(gen))
    failing = gen[:: spec.fail_every]
    plan = {
        "latency_s": spec.latency_s,
        "fail_first": [[t.s_label, t.p_label, t.o_label] for t in failing],
    }
    (d / "plan.json").write_text(json.dumps(plan))
    n_templates = len(inputs.TEMPLATES)
    return Inputs(
        extract=[str(d / "stub.ttl")], generate=str(d / "stub_gen.ttl"),
        plan=str(d / "plan.json"), config=str(d / "config.json"), prompts=len(gen) * n_templates,
        failing_prompts=len(failing) * n_templates, **common,
    )


def write_stub_config(path: str, port: int) -> None:
    config = {
        "providers": [{
            "provider_id": "stub",
            "model_name": "stub-chat",
            "endpoint_url": f"http://127.0.0.1:{port}/v1/chat/completions",
            "max_retries": 3,
            "retry_backoff_s": 0.2,
            "request_timeout_s": 30.0,
        }]
    }
    Path(path).write_text(json.dumps(config, indent=2))


# ------------------------------------------------------------ processes


class Stub:
    """The stub server process and a client for its stats endpoints."""

    def __init__(self, plan: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), plan],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise BenchError("stub server did not start")
        self.port = int(line.split()[1])
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with self._opener.open(urllib.request.Request(url, data=data), timeout=10) as resp:
            return json.loads(resp.read())

    def stats_and_reset(self) -> dict:
        stats = self._call("/stats")
        self._call("/reset", data=b"{}")
        return stats

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()


class Worker:
    """The job process (see worker.py)."""

    def __init__(self, root: Path, run_dir: Path, tag: str) -> None:
        env = dict(os.environ, NO_PROXY="127.0.0.1,localhost",
                   no_proxy="127.0.0.1,localhost")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root / "src"),
             str(run_dir / f"worker-{tag}.log"), str(run_dir / f"spans-{tag}.jsonl")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        if not self._recv().get("ready"):
            raise BenchError("job process did not start")

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("job process exited early")
        return json.loads(line)

    def run(self, job: str, argv: list[str], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"job": job, "argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self) -> float:
        """Stop the process; returns its peak RSS in MB."""
        self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
        self.proc.stdin.close()
        peak = self._recv()["peak_rss_mb"]
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return peak

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()


# ------------------------------------------------------------------ run


@dataclass
class Run:
    """Iteration state of one run: counts, samples and output digests."""

    spec: Spec
    run_dir: Path
    check_recorded: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    traced_samples: dict[str, list[float]] = field(default_factory=dict)
    layers: list[dict] = field(default_factory=list)
    reference: dict[str, dict[str, str]] = field(default_factory=dict)
    n_questions: int = 0

    def commands(self, inp: Inputs, it: Path) -> list[tuple[str, list[str], Path]]:
        """(job, argv, output dir) in the order they run."""
        extract = ("extract", ["--output-dir", str(it / "extract"), "extract", *inp.extract],
                   it / "extract")
        candidates = inp.candidates or str(it / "cold0")
        evaluate = ("evaluate", ["--output-dir", str(it / "eval"), "evaluate", "--design",
                                 inp.design, "--candidates-dir", candidates], it / "eval")
        jobs = [extract] * self.spec.repeats
        for r in range(self.spec.generate_repeats):
            gen = ["--seed", PROGRAM_SEED, "--cache-dir", str(it / f"cache{r}")]
            if inp.config:
                gen = ["--config", inp.config, "--parallelism", "2", *gen]
            for job, out in (("generate_cold", it / f"cold{r}"),
                             ("generate_warm", it / f"warm{r}")):
                jobs.append((job, ["--output-dir", str(out), *gen, "generate", inp.generate], out))
        return jobs + [evaluate] * self.spec.repeats

    def check(self, job: str, out: Path, recorded: dict) -> list[str]:
        """Problems with a command's outputs (empty when they are right)."""
        got = _digests(out)
        if not got:
            return [f"{job}: wrote no files"]
        problems = []
        if got != self.reference.setdefault(job, got):
            problems.append(f"{job}: outputs differ from this seed's first run")
        if job == "generate_warm":
            cold = {k: v for k, v in self.reference["generate_cold"].items() if k.endswith(".csv")}
            if cold != {k: v for k, v in got.items() if k.endswith(".csv")}:
                problems.append("generate_warm: CSVs differ from the cold-cache pass")
        if job == "extract" and len(got) == 2 and len(set(got.values())) != 1:
            problems.append("extract: N-Triples and Turtle statements differ")
        if self.check_recorded and job in DIGESTED:
            mine = {k: v for k, v in got.items() if k.endswith(DIGESTED[job])}
            if mine != recorded.get(job):
                problems.append(f"{job}: outputs differ from the recorded digests")
        return problems

    def iteration(self, index: int, worker: Worker, stub: Stub | None, inp: Inputs,
                  recorded: dict, traced: bool) -> None:
        it = self.run_dir / f"it{index}"
        job_layers: dict[str, dict] = {}
        walls: dict[str, float] = {}
        bytes_written = stub_attempts = 0
        for job, argv, out in self.commands(inp, it):
            reply = worker.run(job, argv, traced)
            problems = (self.check(job, out, recorded) if reply["rc"] == 0
                        else [f"{job}: exit code {reply['rc']} (see worker log)"])
            if stub and job.startswith("generate"):
                stats = stub.stats_and_reset()
                stub_attempts += stats["attempts"]
                problems += self.check_stub(job, stats, inp, reply["layers"])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            bytes_written += _dir_bytes(out) if out.exists() else 0
            samples = self.samples
            if traced:
                samples = self.traced_samples
                walls[job] = walls.get(job, 0) + reply["wall_s"]
                acc = job_layers.setdefault(job, {})
                for key, value in reply["layers"].items():
                    acc[key] = acc.get(key, 0) + value
            samples.setdefault(job, []).append(reply["wall_s"])
        if index == 0:
            self.n_questions = sum(
                json.loads(p.read_text())["n_questions"] for p in (it / "cold0").glob("*.json")
            )
        if traced:
            self.layers.append(self.layer_metrics(job_layers, walls, bytes_written, stub_attempts))
        shutil.rmtree(it)

    def check_stub(self, job: str, stats: dict, inp: Inputs, layers: dict | None) -> list[str]:
        """Server-side counts: the cold pass sends every prompt once and
        retries exactly the failing ones; the warm pass sends nothing."""
        problems = []
        want = {}
        if job == "generate_cold":
            want = {"200": inp.prompts, "503": inp.failing_prompts}
        want = {k: v for k, v in want.items() if v}
        if stats["statuses"] != want:
            problems.append(f"{job}: stub saw statuses {stats['statuses']}, expected {want}")
        client = (layers or {}).get("requests.post.calls", 0)
        if layers is not None and client != stats["attempts"]:
            problems.append(
                f"{job}: client made {client} HTTP attempts, stub saw {stats['attempts']}")
        return problems

    def layer_metrics(self, jobs: dict[str, dict], walls: dict[str, float],
                      bytes_written: int, stub_attempts: int) -> dict[str, float]:
        s: dict[str, float] = {}
        for layers in jobs.values():
            for key, value in layers.items():
                s[key] = s.get(key, 0) + value

        def g(key: str) -> float:
            return s.get(key, 0)

        cold, warm = jobs["generate_cold"], jobs["generate_warm"]
        m = {
            "filtration.filter_questions_s": g("filtration.filter_questions.busy_s"),
            "filtration.dedup_s": g("filtration.dedup.busy_s"),
            "filtration.dedup_share_of_generate":
                _ratio(cold.get("filtration.dedup.busy_s", 0), walls["generate_cold"]),
            "filtration.pairs_compared": g("filtration.is_duplicate.calls"),
            "filtration.rules_s": g("filtration.is_modelling_primitive.busy_s")
            + g("filtration.is_subjective_narrative.busy_s"),
            "filtration.kept_ratio": _ratio(g("filtration.filter_questions.kept"),
                                            g("filtration.filter_questions.questions")),
            "gateway.complete_s": g("gateway.complete.busy_s"),
            "gateway.requests": g("gateway.complete.calls"),
            "gateway.http_wait_s": g("requests.post.busy_s"),
            "gateway.http_attempts": g("requests.post.calls"),
            "gateway.http_retries": g("requests.post.calls") - g("gateway.complete.http_sent"),
            "gateway.http_failed": g("gateway.complete.failed"),
            "gateway.cache_put_s": g("gateway.ResponseCache.put.busy_s"),
            "gateway.cache_get_s": g("gateway.ResponseCache.get.busy_s"),
            "gateway.cache_hit_ratio.cold": _ratio(cold.get("gateway.complete.hit", 0),
                                                   cold.get("gateway.complete.calls", 0)),
            "gateway.cache_hit_ratio.warm": _ratio(warm.get("gateway.complete.hit", 0),
                                                   warm.get("gateway.complete.calls", 0)),
            "gateway.extract_questions_s": g("gateway.extract_questions.busy_s"),
            "gateway.questions_extracted": g("gateway.extract_questions.questions"),
            "prompts.render_s": g("prompts.render_prompt.busy_s"),
            "prompts.prompts_rendered": g("prompts.render_prompt.calls"),
            "ontology.parse_s": g("ontology.parse_ontology.busy_s"),
            "ontology.parse_mb_per_s": _ratio(g("ontology.parse_ontology.bytes") / 1e6,
                                              g("ontology.parse_ontology.busy_s")),
            "ontology.filter_statements_s": g("ontology.filter_statements.busy_s"),
            "ontology.statements_parsed": g("ontology.parse_ontology.statements"),
            "ontology.kept_ratio": _ratio(g("ontology.filter_statements.kept"),
                                          g("ontology.filter_statements.parsed")),
            "matcher.embed_batch_s": g("matcher.embed_batch.busy_s"),
            "matcher.texts_embedded": g("matcher.embed_batch.texts"),
            "matcher.match_s": g("matcher.match_candidates.self_s"),
            "matcher.validated_ratio": _ratio(g("matcher.match_candidates.validated"),
                                              g("matcher.match_candidates.candidates")),
            "metrics.compute_s": g("metrics.compute_metrics.busy_s")
            + g("metrics.unmatched_stats.busy_s"),
            "cli.self_s": sum(
                g(f"cli.run_{c}.self_s") for c in ("extract", "generate", "evaluate")),
            "cli.bytes_written": bytes_written,
            "stub.attempts": stub_attempts,
        }
        for reason in ("duplicate", "modelling_primitive", "subjective_narrative", "malformed"):
            m[f"filtration.removed.{reason}"] = g(f"filtration.filter_questions.removed.{reason}")
        return m


def _setup(name: str, spec: Spec, seed: int, root: Path, run_dir: Path, tag: str):
    """Build inputs, start the stub and the job process, and warm the
    package with a tiny mock pipeline."""
    inp_dir = run_dir / "inputs"
    shutil.rmtree(inp_dir, ignore_errors=True)
    inp = build_inputs(name, spec, seed, inp_dir)
    stub = Stub(inp.plan) if spec.stub else None
    worker = None
    try:
        if stub:
            write_stub_config(inp.config, stub.port)
        worker = Worker(root, run_dir, tag)
        warm = run_dir / "warmup"
        for argv in (
            ["--output-dir", str(warm), "extract", inp.warm_ontology],
            ["--output-dir", str(warm), "--seed", PROGRAM_SEED, "generate", inp.warm_ontology],
            ["--output-dir", str(warm), "evaluate", "--design", inp.warm_design],
        ):
            if worker.run("warmup", argv, False)["rc"] != 0:
                raise BenchError(f"warm-up command failed: {argv}")
        shutil.rmtree(warm)
    except BaseException:
        if worker:
            worker.kill()
        if stub:
            stub.close()
        raise
    return inp, stub, worker


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 spec: Spec | None = None) -> dict:
    spec = spec or WORKLOADS[name]
    run_dir = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    recorded = json.loads((HERE / "digests.json").read_text()).get(name, {})
    run = Run(spec, run_dir, check_recorded=seed == DEFAULT_SEED and spec == WORKLOADS[name])

    setup_times = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        inp, stub, worker = _setup(name, spec, seed, root, run_dir, f"setup{k}")
        setup_times.append(time.perf_counter() - t0)
        if k < SETUPS - 1:
            try:
                worker.close()
            finally:
                if stub:
                    stub.close()

    try:
        deadline = time.perf_counter() + seconds
        index = 0
        while index < (2 if trace else 1) or time.perf_counter() < deadline:
            run.iteration(index, worker, stub, inp, recorded, traced=trace and index % 2 == 1)
            index += 1
        peak_rss_mb = worker.close()
    except BaseException:
        worker.kill()
        raise
    finally:
        if stub:
            stub.close()

    if trace:
        metrics = {k: _median([it[k] for it in run.layers]) for k in run.layers[0]}
        metrics["trace.overhead_ratio"] = _ratio(
            _median(run.traced_samples["generate_cold"]), _median(run.samples["generate_cold"]))
        units, counts = PER_LAYER, {k: len(run.layers) for k in metrics}
    else:
        samples = {
            "setup_s": setup_times,
            "generate_s": run.samples["generate_cold"],
            "rerun_s": run.samples["generate_warm"],
            "extract_s": run.samples["extract"],
            "evaluate_s": run.samples["evaluate"],
            "questions_per_s": [run.n_questions / w for w in run.samples["generate_cold"]],
        }
        metrics = {k: _median(v) for k, v in samples.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        units, counts = END_TO_END, {k: len(v) for k, v in samples.items()}
        counts["peak_rss_mb"] = 1
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "samples": run.samples, "problems": run.problems, "setup_s": setup_times,
         "digests": {job: {k: v for k, v in run.reference.get(job, {}).items() if k.endswith(ends)}
                     for job, ends in DIGESTED.items()}}, indent=2))
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    _report(f"workload={name} seed={seed} trace={int(trace)}", result, counts, run)
    return result


def _report(title: str, result: dict, counts: dict, run: Run) -> None:
    err = sys.stderr
    print(title, file=err)
    for key, metric in result["metrics"].items():
        print(f"  {key:<42} {metric['value']:>14.6g} {metric['unit']:<6} n={counts.get(key, 0)}",
              file=err)
    ratio = _ratio(result["failed"], result["attempted"])
    print(f"  {'failed_ratio':<42} {ratio:>14.6g} {'1':<6} n={result['attempted']}", file=err)
    verdict = "ok" if result["correct"] else "MISMATCH"
    basis = "recorded digests and " if run.check_recorded else ""
    print(f"  output check: {verdict} ({basis}this seed's first run)", file=err)
    for problem in sorted(set(run.problems)):
        print(f"    {problem}", file=err)


def selftest(root: Path) -> int:
    """Every workload once at tiny size, untraced and traced: all named
    metrics must be printed and every output check must pass."""
    bad = 0
    for name, spec in TINY.items():
        for trace in (False, True):
            result = run_workload(name, DEFAULT_SEED, 0, trace, root, spec)
            want = PER_LAYER if trace else END_TO_END
            missing = set(want) - set(result["metrics"])
            ok = result["correct"] and not missing and result["failed"] == 0
            bad += not ok
            print(f"selftest {name} trace={int(trace)}: {'ok' if ok else 'FAILED'}"
                  + (f" missing {sorted(missing)}" if missing else ""))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "cqretrofit" / "cli.py").is_file():
        print("error: run from the root of a cqretrofit checkout (no src/cqretrofit)",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(root)
    if not args.workload:
        parser.error("--workload is required")

    def abort(signum, frame):
        raise BenchError(f"stopped by {signal.Signals(signum).name} (time limit {WATCHDOG_S} s)")

    signal.signal(signal.SIGALRM, abort)
    signal.signal(signal.SIGTERM, abort)
    signal.alarm(WATCHDOG_S)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
