import csv
import json
import re
from pathlib import Path

import pytest

from cqretrofit.cli import _build_parser, _config_from_args, load_run_config, main

from conftest import FIXTURES

VG = str(FIXTURES / "videogame_20.nt")


def run(argv):
    return main([str(a) for a in argv])


class TestExtract:
    def test_writes_statements_tsv(self, tmp_path, capsys):
        assert run(["--output-dir", tmp_path, "extract", VG]) == 0
        rows = (tmp_path / "statements.tsv").read_text().splitlines()
        assert len(rows) == 20
        first = rows[0].split("\t")
        assert first[0] == "0"
        assert first[1] == "Multiplayer"
        assert first[2] == "subClassOf"
        assert first[3] == "Achievement"
        err = capsys.readouterr().err
        assert "parsed=20" in err and "kept=20" in err

    def test_blank_node_excluded_and_counted(self, tmp_path, capsys):
        onto = tmp_path / "blank.nt"
        onto.write_text(
            "<http://e.org/g#A> <http://e.org/g#p> <http://e.org/g#B> .\n"
            "_:b0 <http://e.org/g#p> <http://e.org/g#C> .\n"
        )
        assert run(["--output-dir", tmp_path, "extract", onto]) == 0
        rows = (tmp_path / "statements.tsv").read_text().splitlines()
        assert len(rows) == 1
        assert "excluded_blank=1" in capsys.readouterr().err

    def test_turtle_matches_ntriples_twin(self, tmp_path):
        out_ttl = tmp_path / "ttl"
        out_nt = tmp_path / "nt"
        assert run(["--output-dir", out_ttl, "extract", FIXTURES / "vicinity_sample.ttl"]) == 0
        assert run(["--output-dir", out_nt, "extract", FIXTURES / "vicinity_sample.nt"]) == 0
        assert (
            (out_ttl / "statements.tsv").read_text()
            == (out_nt / "statements.tsv").read_text()
        )

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://e.org/a> <http://e.org/p> .\n")
        assert run(["--output-dir", tmp_path, "extract", bad]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fields_are_escaped_one_statement_per_row(self, tmp_path):
        onto = tmp_path / "esc.nt"
        onto.write_text(
            '<http://e.org/g#A> <http://e.org/g#p> "tab\\there newline\\nend \\\\ cr\\r" .\n'
            "<http://e.org/g#A\\u0009B> <http://e.org/g#p> <http://e.org/g#C> .\n"
        )
        assert run(["--output-dir", tmp_path, "extract", onto]) == 0
        rows = (tmp_path / "statements.tsv").read_text().split("\n")
        assert rows[2] == "" and len(rows) == 3
        first, second = (row.split("\t") for row in rows[:2])
        assert len(first) == len(second) == 7
        assert first[3] == first[6] == "tab\\there newline\\nend \\\\ cr\\r"
        assert second[1] == "A\\tB" and second[4] == "http://e.org/g#A\\tB"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("<http://e.org/a> <http://e.org/p> .\n", "expected object term, found '.' (line 1, column 35)"),
            ('<http://e.org/a> <http://e.org/p> "x\\UFFFFFFFF" .\n', "bad unicode escape: U+FFFFFFFF"),
            ('<http://e.org/a> <http://e.org/p> "x\\U00110000" .\n', "(line 1, column 37)"),
            ('<http://e.org/a> <http://e.org/p> "x\\uD800" .\n', "bad unicode escape: U+D800"),
            (b"<http://e.org/a> <http://e.org/p> \"\xff\" .\n", "codec can't decode byte 0xff"),
        ],
    )
    def test_error_names_the_failing_ontology(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.nt"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run(["--output-dir", tmp_path, "extract", VG, bad]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {bad}: ") and message in err
        assert "Traceback" not in err

    def test_multi_ontology_subdirectories(self, tmp_path):
        assert (
            run(
                [
                    "--output-dir",
                    tmp_path,
                    "extract",
                    VG,
                    FIXTURES / "vicinity_sample.nt",
                ]
            )
            == 0
        )
        assert (tmp_path / "videogame_20" / "statements.tsv").exists()
        assert (tmp_path / "vicinity_sample" / "statements.tsv").exists()


class TestGenerate:
    def test_filenames_and_header(self, tmp_path):
        out = tmp_path / "out"
        assert (
            run(
                ["--output-dir", out, "--seed", 7, "generate", VG, "--templates", "P1"]
            )
            == 0
        )
        csv_path = out / "questions_P1_mock-small.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "Questions"
        assert all(q.endswith("?") or q.endswith('?"') for q in lines[1:])

    def test_template_provider_product(self, tmp_path):
        config = {
            "providers": [
                {"provider_id": "mock", "model_name": "mock-a"},
                {"provider_id": "mock", "model_name": "mock-b"},
            ],
            "templates": ["P1", "P2"],
            "ontology_paths": [VG],
            "output_dir": str(tmp_path / "out"),
            "seed": 3,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["--config", cfg_path, "generate"]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("questions_*.csv"))
        assert names == [
            "questions_P1_mock-a.csv",
            "questions_P1_mock-b.csv",
            "questions_P2_mock-a.csv",
            "questions_P2_mock-b.csv",
        ]

    def test_sidecar_provenance(self, tmp_path):
        out = tmp_path / "out"
        run(["--output-dir", out, "--seed", 7, "generate", VG, "--templates", "P1"])
        sidecar = json.loads((out / "questions_P1_mock-small.json").read_text())
        assert sidecar["template"] == "P1"
        assert sidecar["model"] == "mock-small"
        assert sidecar["n_triples"] == 20
        assert sidecar["n_questions"] >= sidecar["n_candidates"]
        statuses = {q["status"] for q in sidecar["questions"]}
        assert statuses == {"kept", "removed"}
        reasons = {
            q["removal_reason"] for q in sidecar["questions"] if q["status"] == "removed"
        }
        assert reasons <= {
            "duplicate",
            "modelling_primitive",
            "subjective_narrative",
            "malformed",
        }
        ordinals = {q["statement_ordinal"] for q in sidecar["questions"]}
        assert ordinals == set(range(20))

    def test_model_name_sanitized_in_filename(self, tmp_path):
        config = {
            "providers": [{"provider_id": "mock", "model_name": "meta/llama:2"}],
            "templates": ["P1"],
            "ontology_paths": [VG],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["--config", cfg_path, "generate"]) == 0
        assert (tmp_path / "out" / "questions_P1_meta_llama_2.csv").exists()

    def test_custom_template_file(self, tmp_path):
        extra = tmp_path / "P9.txt"
        extra.write_text("List questions for <statement>\n")
        out = tmp_path / "out"
        assert (
            run(
                [
                    "--output-dir",
                    out,
                    "generate",
                    VG,
                    "--templates",
                    "P1",
                    "--template-file",
                    extra,
                ]
            )
            == 0
        )
        assert (out / "questions_P9_mock-small.csv").exists()

    def test_sidecar_counts_cache_hits(self, tmp_path):
        argv = ["--output-dir", tmp_path / "out", "--cache-dir", tmp_path / "cache"]
        argv += ["generate", VG, "--templates", "P1"]
        hits = []
        for _ in range(2):
            assert run(argv) == 0
            sidecar = json.loads((tmp_path / "out" / "questions_P1_mock-small.json").read_text())
            hits.append(sidecar["cache_hits"])
        assert hits == [0, 20]

    def test_global_dedup_removes_duplicates_across_templates(self, tmp_path):
        def removals(out):
            assert run(["--output-dir", out, "--seed", 1, "generate", *flags[out.name], VG]) == 0
            return {
                t: [q["removal_reason"] for q in json.loads(
                    (out / f"questions_{t}_mock-small.json").read_text())["questions"]]
                for t in ("P1", "P2", "P3")
            }

        flags = {"cells": [], "pooled": ["--global-dedup"]}
        cells, pooled = removals(tmp_path / "cells"), removals(tmp_path / "pooled")
        # The first cell has nothing earlier to repeat; later cells lose
        # questions that an earlier template already asked.
        assert pooled["P1"] == cells["P1"]
        for t in ("P2", "P3"):
            assert len(pooled[t]) == len(cells[t])
            assert pooled[t].count("duplicate") > cells[t].count("duplicate")

    def test_repeated_cell_is_an_error(self, tmp_path, capsys):
        assert run(["--output-dir", tmp_path, "generate", VG, "--templates", "P1", "P1"]) == 1
        assert "template P1, provider mock, model mock-small is listed twice" in (
            capsys.readouterr().err
        )

    def test_gateway_error_names_the_failing_prompt(self, tmp_path, capsys, http_server):
        server = http_server(lambda path, body, headers: (401, {"error": "no"}))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "providers": [{"provider_id": "fake", "model_name": "m", "endpoint_url": server.url}],
            "templates": ["P2"],
        }))
        out = tmp_path / "out"
        assert run(["--config", cfg_path, "--output-dir", out, "generate", VG]) == 1
        err = capsys.readouterr().err
        assert re.match(
            r"error: \[ontology=videogame_20 template=P2 provider=fake statement=\d+\] "
            r"fake: HTTP 401", err
        )
        assert "Traceback" not in err
        assert not out.exists()

    def test_template_file_from_config(self, tmp_path):
        extra = tmp_path / "P9.txt"
        extra.write_text("List questions for <statement>\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"templates": ["P1"], "template_file": str(extra)}))
        cfg = load_run_config(cfg_path)
        assert [t.id for t in cfg.resolved_templates()] == ["P1", "P9"]


class TestConfig:
    def test_every_field_loads(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ontology_paths": [VG],
                    "providers": [
                        {"provider_id": "openai", "model_name": "gpt-4", "temperature": 0.2},
                        {"provider_id": "x", "model_name": "m", "max_tokens": 100},
                    ],
                    "filtration": {"strictness": "strict", "primitive_patterns": ["a"]},
                    "matcher": {"similarity_threshold": 0.5, "request_timeout_s": 5},
                    "parallelism": 2,
                    "seed": 9,
                    "cache_dir": None,
                }
            )
        )
        cfg = load_run_config(cfg_path)
        assert cfg.ontology_paths == [VG]
        assert [(p.model_name, p.max_tokens) for p in cfg.providers] == [
            ("gpt-4", 8192),
            ("m", 100),
        ]
        assert cfg.providers[0].temperature == 0.2
        assert cfg.filtration.strictness.value == "strict"
        assert cfg.filtration.primitive_patterns == ("a",)
        assert cfg.matcher.request_timeout_s == 5
        assert (cfg.parallelism, cfg.seed, cfg.cache_dir) == (2, 9, None)

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"filtration": {"dedup_threshold": 80}}, "unknown key filtration.dedup_threshold"),
            ({"matcher": {"tau": 0.5}}, "unknown key matcher.tau"),
            ({"providers": [{"provider_id": "x"}]}, "missing required key providers[0].model_name"),
            ([1, 2], "config must be a JSON object"),
            ({"filtration": []}, "filtration must be a JSON object"),
            ({"filtration": {"dedup_ratio_threshold": "high"}}, "filtration.dedup_ratio_threshold"),
            ({"seed": 1.5}, "seed must be int"),
            ({"templates": "P1"}, "templates must be a list"),
            ({"filtration": {"strictness": "loud"}}, "filtration: 'loud'"),
            ({"matcher": {"dimension": 0}}, "matcher: dimension must be >= 1"),
            ({"parallelism": 0}, "config: parallelism must be >= 1"),
            (
                {"providers": [{"provider_id": "x", "model_name": "m", "retry_backoff_s": -1}]},
                "providers[0]: retry_backoff_s must be >= 0",
            ),
            (
                {"providers": [{"provider_id": "x", "model_name": "m", "request_timeout_s": 0}]},
                "providers[0]: request_timeout_s must be positive",
            ),
        ],
    )
    def test_bad_config_names_the_key(self, tmp_path, capsys, config, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["--config", cfg_path, "extract", VG]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_parallelism_flag_below_one_is_an_error(self, tmp_path, capsys, value):
        argv = ["--output-dir", tmp_path, "--parallelism", value, "generate", VG]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: parallelism must be >= 1\n"
        assert not (tmp_path / "questions_P1_mock-small.csv").exists()

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{bad")
        assert run(["--config", cfg_path, "extract", VG]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: Expecting property name")

    def test_tau_keeps_request_timeout_from_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"matcher": {"request_timeout_s": 5.0}}))
        argv = ["--config", str(cfg_path), "evaluate", "--tau", "0.5"]
        cfg = _config_from_args(_build_parser().parse_args(argv))
        assert cfg.matcher.similarity_threshold == 0.5
        assert cfg.matcher.request_timeout_s == 5.0


class TestFilterCommand:
    def test_filters_csv(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text(
            "Questions\n"
            '"Is Multiplayer a class?"\n'
            '"What is a Multiplayer Achievement?"\n'
            '"What is a Multiplayer Achievement?"\n'
        )
        assert run(["filter", src]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        lines = out_path.read_text().splitlines()
        assert lines == ["Questions", "What is a Multiplayer Achievement?"]
        sidecar = json.loads(out_path.with_suffix(".json").read_text())
        reasons = [q["removal_reason"] for q in sidecar["questions"]]
        assert reasons == ["modelling_primitive", None, "duplicate"]

    def test_strictness_off(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nIs Multiplayer a class?\n")
        assert run(["filter", src, "--strictness", "off"]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert len(out_path.read_text().splitlines()) == 2


class TestEvaluate:
    def _generate(self, tmp_path, templates=("P1",)):
        out = tmp_path / "out"
        argv = ["--output-dir", out, "--seed", 7, "generate", VG, "--templates"]
        argv += list(templates)
        assert run(argv) == 0
        return out

    def test_end_to_end_with_design(self, tmp_path):
        out = self._generate(tmp_path)
        assert (
            run(
                [
                    "--output-dir",
                    out,
                    "evaluate",
                    "--design",
                    FIXTURES / "design_cqs.txt",
                    "--tau",
                    "0.7",
                ]
            )
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["similarity_threshold"] == 0.7
        cell = report["cells"][0]
        assert cell["n_design"] == 6
        assert cell["n_validated"] + cell["n_unmatched_design"] >= 0
        assert cell["n_triples"] == 20
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith(
            "Ontology,Prompt,LLM,No. Q.,Mean Q/T,No. Candidate CQs,"
            "No. Validated CQs,Precision,Recall,F1"
        )
        assert len(summary) == 2

    def test_candidates_equal_design_gives_perfect_row(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        design = tmp_path / "design.txt"
        questions = ["What is a Multiplayer Achievement?", "Who owns the guild?"]
        design.write_text("\n".join(questions) + "\n")
        (out / "questions_P1_m.csv").write_text(
            "Questions\n" + "\n".join(f'"{q}"' for q in questions) + "\n"
        )
        (out / "questions_P1_m.json").write_text(
            json.dumps(
                {
                    "ontology": "x",
                    "template": "P1",
                    "provider": "m",
                    "model": "m",
                    "n_questions": 2,
                    "n_triples": 2,
                }
            )
        )
        assert run(["--output-dir", out, "evaluate", "--design", design]) == 0
        cell = json.loads((out / "report.json").read_text())["cells"][0]
        assert cell["precision"] == 1.0
        assert cell["recall"] == 1.0
        assert cell["f1"] == 1.0

    def test_counts_fixture_audit_row(self, tmp_path):
        fixture = tmp_path / "counts.json"
        fixture.write_text(
            json.dumps(
                [
                    {
                        "ontology": "Video Game",
                        "template": "P1",
                        "model": "gpt-3.5-turbo",
                        "n_questions": 549,
                        "n_triples": 363,
                        "n_candidates": 375,
                        "n_validated": 204,
                        "n_unmatched": 8,
                        "n_design": 66,
                    }
                ]
            )
        )
        out = tmp_path / "out"
        assert (
            run(["--output-dir", out, "evaluate", "--counts-fixture", fixture]) == 0
        )
        summary = (out / "summary.csv").read_text().splitlines()[1]
        fields = summary.split(",")
        assert fields[4] == "1.51"
        assert fields[7] == "0.5440"
        assert fields[8] == "0.9623"
        assert fields[9] == "0.6951"

    @pytest.mark.parametrize(
        "key", ["n_validated", "n_candidates", "n_unmatched", "n_questions", "n_triples"]
    )
    def test_counts_fixture_missing_key(self, tmp_path, capsys, key):
        full = {k: 1 for k in ("n_validated", "n_candidates", "n_unmatched", "n_questions", "n_triples")}
        entry = {k: v for k, v in full.items() if k != key}
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps([full, entry]))
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {fixture}: entry 1: missing key '{key}'\n"

    def test_validation_labels_mode(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        questions = [f"Question number {i} about planets?" for i in range(206)]
        (out / "questions_P1_gpt.csv").write_text(
            "Questions\n" + "\n".join(f'"{q}"' for q in questions) + "\n"
        )
        (out / "questions_P1_gpt.json").write_text(
            json.dumps(
                {
                    "ontology": "solar",
                    "template": "P1",
                    "provider": "x",
                    "model": "gpt",
                    "n_questions": 604,
                    "n_triples": 337,
                }
            )
        )
        labels = tmp_path / "labels.csv"
        rows = ["question,verdict"]
        rows += [f'"{q}",valid' for q in questions[:180]]
        rows += [f'"{q}",invalid' for q in questions[180:]]
        labels.write_text("\n".join(rows) + "\n")
        assert (
            run(
                [
                    "--output-dir",
                    out,
                    "evaluate",
                    "--validation-labels",
                    labels,
                ]
            )
            == 0
        )
        cell = json.loads((out / "report.json").read_text())["cells"][0]
        assert cell["rounded"]["human_precision"] == 0.8738
        assert cell["rounded"]["mean_q_per_triple"] == 1.79

    def test_missing_design_and_labels_is_error(self, tmp_path, capsys):
        out = self._generate(tmp_path)
        assert run(["--output-dir", out, "evaluate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_sidecar_is_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "questions_P1_m.csv").write_text("Questions\n")
        assert (
            run(
                [
                    "--output-dir",
                    out,
                    "evaluate",
                    "--design",
                    FIXTURES / "design_cqs.txt",
                ]
            )
            == 1
        )
        assert "sidecar" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key,message",
        [
            ("n_questions", "missing key 'n_questions'"),
            ("n_triples", "missing key 'n_triples'"),
            (None, "Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_bad_sidecar_is_error(self, tmp_path, capsys, key, message):
        self._generate(tmp_path)
        sidecar = tmp_path / "out" / "questions_P1_mock-small.json"
        meta = json.loads(sidecar.read_text())
        meta.pop(key, None)
        sidecar.write_text(json.dumps(meta) if key else "")
        argv = ["--output-dir", tmp_path / "out", "evaluate", "--design", FIXTURES / "design_cqs.txt"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {sidecar}: {message}\n"


class TestReportCommand:
    def test_renders_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(["--output-dir", out, "--seed", 7, "generate", VG, "--templates", "P1"])
        run(
            [
                "--output-dir",
                out,
                "evaluate",
                "--design",
                FIXTURES / "design_cqs.txt",
            ]
        )
        capsys.readouterr()
        assert run(["report", out / "report.json"]) == 0
        text = capsys.readouterr().out
        assert "Precision" in text
        assert "videogame_20" in text


class TestTemplatesCommand:
    def test_list(self, capsys):
        assert run(["templates", "list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P1: Based on <statement>")
        assert "P2: " in out and "P3: " in out

    def test_list_with_extra(self, tmp_path, capsys):
        extra = tmp_path / "mine.txt"
        extra.write_text("Ask about <statement>")
        assert run(["templates", "list", "--template-file", extra]) == 0
        assert "mine: Ask about <statement>" in capsys.readouterr().out
