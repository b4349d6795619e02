import csv
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cqretrofit.cli import RunConfig, _build_parser, _config_from_args, load_json, main
from cqretrofit.filtration import FiltrationConfig, filter_questions, load_pattern_file
from cqretrofit.gateway import generate_records, mock_provider
from cqretrofit.matcher import load_design_cqs
from cqretrofit.metrics import load_validation_labels
from cqretrofit.ontology import filter_statements, parse_ontology
from cqretrofit.prompts import load_template_file

from conftest import FIXTURES, chat_payload

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

    def test_each_cell_keeps_the_decisions_of_filtering_it_alone(self, tmp_path):
        templates, models = ["P1", "P2", "P3"], ["mock-a", "mock-b"]
        config = {
            "providers": [{"provider_id": "mock", "model_name": m} for m in models],
            "templates": templates,
            "ontology_paths": [VG],
            "output_dir": str(tmp_path),
            "seed": 5,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["--config", cfg_path, "generate"]) == 0
        sset = filter_statements(parse_ontology(Path(VG).read_text(), "ntriples"), "videogame_20")
        grid = generate_records(sset, templates, [mock_provider(m) for m in models], seed=5)
        for t in templates:
            for m in models:
                # The mock's questions do not depend on the model, so pooling
                # the two models' cells would mark every mock-b question a
                # duplicate.
                alone = filter_questions(
                    [r for r in grid if (r.template_id, r.model_name) == (t, m)], FiltrationConfig()
                )
                expected = [
                    [c.text, c.status, c.removal_reason and c.removal_reason.value] for c in alone
                ]
                sidecar = json.loads((tmp_path / f"questions_{t}_{m}.json").read_text())
                decisions = [
                    [q["text"], q["status"], q["removal_reason"]] for q in sidecar["questions"]
                ]
                assert decisions == expected, (t, m)

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
        cfg = load_json(cfg_path, RunConfig)
        assert [t.id for t in cfg.resolved_templates()] == ["P1", "P9"]

    def test_ontology_with_no_statement_left_is_an_error(self, tmp_path, capsys):
        onto = tmp_path / "empty.nt"
        onto.write_text("_:a <http://x.org/p> _:b .\n")
        out = tmp_path / "out"
        assert run(["--output-dir", out, "generate", onto]) == 1
        assert capsys.readouterr().err == (
            f"error: {onto}: no statements to prompt "
            "(parsed=1 excluded_blank=1 excluded_opaque=0 kept=0)\n"
        )
        assert not list(tmp_path.rglob("*.csv"))

    def test_request_failure_names_the_provider(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "providers": [{"provider_id": "p", "model_name": "m", "endpoint_url": "not a url"}],
            "templates": ["P1"],
        }))
        out = tmp_path / "out"
        assert run(["--config", cfg_path, "--output-dir", out, "generate", VG]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: \[ontology=videogame_20 template=P1 provider=p statement=\d+\] "
            r"p: request failed: Invalid URL 'not a url'[^\n]*\n", err
        ), err
        assert not out.exists()

    def test_mock_named_provider_with_an_endpoint_sends_http(self, tmp_path, http_server):
        server = http_server(lambda path, body, headers: (200, chat_payload("1. Sent over HTTP?")))
        onto = tmp_path / "one.nt"
        onto.write_text("<http://e.org/g#A> <http://e.org/g#p> <http://e.org/g#B> .\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "providers": [{"provider_id": "mock", "model_name": "m", "endpoint_url": server.url}],
            "templates": ["P1"],
        }))
        assert run(["--config", cfg_path, "--output-dir", tmp_path, "generate", onto]) == 0
        assert server.request_count == 1
        assert (tmp_path / "questions_P1_m.csv").read_text() == "Questions\nSent over HTTP?\n"

    def test_no_ontology_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--output-dir", tmp_path, "generate"])
        assert info.value.code == 2
        assert "error: generate needs ontology paths (argument or --config)" in (
            capsys.readouterr().err
        )
        assert not list(tmp_path.iterdir())


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
        cfg = load_json(cfg_path, RunConfig)
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
            ([1, 2], "run.json: top level must be a JSON object, not list"),
            ({"filtration": []}, "filtration must be a JSON object"),
            ({"filtration": {"dedup_ratio_threshold": "high"}}, "filtration.dedup_ratio_threshold"),
            ({"seed": 1.5}, "seed must be int"),
            ({"templates": "P1"}, "templates must be a list"),
            ({"filtration": {"strictness": "loud"}}, "filtration: 'loud'"),
            ({"matcher": {"dimension": 0}}, "matcher: dimension must be >= 1"),
            (
                {"matcher": {"backend": "http_embedding", "endpoint_url": "http://localhost:1/e",
                             "request_timeout_s": 0}},
                "run.json: matcher: request_timeout_s must be positive",
            ),
            (
                {"filtration": {"strictness": "off", "narrative_patterns": ["("]}},
                "run.json: filtration: missing ), unterminated subpattern at position 0",
            ),
            ({"parallelism": 0}, "run.json: parallelism must be >= 1"),
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

    def test_invalid_utf8_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b"\xff{}")
        assert run(["--config", cfg_path, "extract", VG]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: 'utf-8' codec")

    def test_deeply_nested_json_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["--config", cfg_path, "templates", "list"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    def test_sidecar_rows_carry_the_input_position(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        questions = ["Who wrote it?", "Is Multiplayer a class?", "Who wrote it?", "Why so?"]
        src.write_text("Questions\n" + "".join(f"{q}\n\n" for q in questions))
        assert run(["filter", src]) == 0
        sidecar = json.loads(Path(capsys.readouterr().out.strip()).with_suffix(".json").read_text())
        rows = [(q["statement_ordinal"], q["text"]) for q in sidecar["questions"]]
        assert rows == list(enumerate(questions))

    def test_strictness_off(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nIs Multiplayer a class?\n")
        assert run(["filter", src, "--strictness", "off"]) == 0
        out_path = Path(capsys.readouterr().out.strip())
        assert len(out_path.read_text().splitlines()) == 2


class TestPatternFiles:
    """``--primitive-lexicon`` and ``--narrative-patterns`` each replace
    their built-in table with one regex per line of a file."""

    def test_each_file_replaces_its_table(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nIs Multiplayer a class?\nWhich zebras race?\n"
                       "Could you envision a game?\nWhat is a Multiplayer Achievement?\n")
        primitive = tmp_path / "primitive.txt"
        primitive.write_text("# comments and blank lines are skipped\n\n  zebra  \n")
        narrative = tmp_path / "narrative.txt"
        narrative.write_text("\n#class\nachievement\n")
        argv = ["filter", src, "--primitive-lexicon", primitive, "--narrative-patterns", narrative]
        assert run(argv) == 0
        out_path = Path(capsys.readouterr().out.strip())
        sidecar = json.loads(out_path.with_suffix(".json").read_text())
        reasons = [q["removal_reason"] for q in sidecar["questions"]]
        assert reasons == [None, "modelling_primitive", None, "subjective_narrative"]

    @pytest.mark.parametrize("flag,field", [("--primitive-lexicon", "primitive_patterns"),
                                            ("--narrative-patterns", "narrative_patterns")])
    def test_generate_flag_loads_its_file(self, tmp_path, flag, field):
        patterns = tmp_path / "p.txt"
        patterns.write_text("# c\n\nfoo\n  bar\\b  \n")
        cfg = _config_from_args(_build_parser().parse_args(["generate", VG, flag, str(patterns)]))
        assert getattr(cfg.filtration, field) == ("foo", r"bar\b")
        (other,) = {"primitive_patterns", "narrative_patterns"} - {field}
        assert getattr(cfg.filtration, other) == getattr(FiltrationConfig(), other)

    @pytest.mark.parametrize("command", [["generate", VG], ["filter", "input.csv"]])
    @pytest.mark.parametrize("flag", ["--primitive-lexicon", "--narrative-patterns"])
    def test_bad_regex_names_the_file(self, tmp_path, capsys, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)
        Path("input.csv").write_text("Questions\nWhat is A?\n")
        Path("bad.txt").write_text("what (\n")
        assert run(["--output-dir", "out", *command, flag, "bad.txt"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad.txt: missing ), unterminated subpattern at position 5\n"
        assert not Path("out").exists()

    def test_strictness_off_ignores_the_files(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nWhich zebras race?\nWhat is an achievement?\n")
        primitive = tmp_path / "primitive.txt"
        primitive.write_text("zebra\n")
        narrative = tmp_path / "narrative.txt"
        narrative.write_text("achievement\n")
        argv = ["filter", src, "--strictness", "off", "--primitive-lexicon", primitive,
                "--narrative-patterns", narrative]
        assert run(argv) == 0
        out_path = Path(capsys.readouterr().out.strip())
        sidecar = json.loads(out_path.with_suffix(".json").read_text())
        assert [q["removal_reason"] for q in sidecar["questions"]] == [None, None]


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
        assert err == f"error: {fixture}: missing required key [1].{key}\n"

    @pytest.mark.parametrize(
        "update,message",
        [
            ({"n_validated": "1"}, "n_validated must be int, not str"),
            ({"n_triples": True}, "n_triples must be int, not bool"),
            ({"n_candidates": 2.0}, "n_candidates must be int, not float"),
            ({"n_design": "66"}, "n_design must be int, not str"),
            ({"n_design": 3, "unmatched_word_counts": "abc"},
             "unmatched_word_counts must be a list, not str"),
            ({"n_design": 3, "unmatched_word_counts": [4, "5"]},
             "unmatched_word_counts[1] must be int, not str"),
        ],
    )
    def test_counts_fixture_wrong_type(self, tmp_path, capsys, update, message):
        full = {k: 1 for k in ("n_validated", "n_candidates", "n_unmatched", "n_questions", "n_triples")}
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps([{**full, **update}]))
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 1
        assert capsys.readouterr().err == f"error: {fixture}: [0].{message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ('{"n_validated": 1}', "top level must be a list, not dict"),
            ("[1, 2]", "[0] must be a JSON object, not int"),
            ('[{"n_validated": 1, "n_candidates": 1, "n_unmatched": 0, "n_questions": 1, '
             '"n_triples": 1}, "x"]', "[1] must be a JSON object, not str"),
        ],
    )
    def test_malformed_counts_fixture(self, tmp_path, capsys, text, message):
        fixture = tmp_path / "counts.json"
        fixture.write_text(text)
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 1
        assert capsys.readouterr().err == f"error: {fixture}: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "update,message",
        [
            ({"n_validated": 5, "n_candidates": 2}, "n_validated must be <= n_candidates"),
            ({"n_unmatched": -5}, "n_unmatched must be in [0, 2**53]"),
            ({"n_questions": 10**400}, "n_questions must be in [0, 2**53]"),
            ({"n_candidates": 2**53 + 1}, "n_candidates must be in [0, 2**53]"),
            ({"n_triples": 0}, "n_triples must be in [1, 2**53]"),
            ({"n_design": -1}, "n_design must be in [0, 2**53]"),
            ({"n_design": 3, "unmatched_word_counts": [4, -1]},
             "unmatched_word_counts[1] must be in [0, 2**53]"),
            ({"n_design": 3, "unmatched_word_counts": [10**400]},
             "unmatched_word_counts[0] must be in [0, 2**53]"),
        ],
    )
    def test_counts_fixture_count_out_of_range(self, tmp_path, capsys, update, message):
        full = {k: 1 for k in ("n_validated", "n_candidates", "n_unmatched", "n_questions", "n_triples")}
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps([full, {**full, **update}]))
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 1
        assert capsys.readouterr().err == f"error: {fixture}: [1]: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_counts_fixture_counts_up_to_2_to_the_53(self, tmp_path):
        big = 2**53
        entry = {"n_validated": big, "n_candidates": big, "n_unmatched": big,
                 "n_questions": big, "n_triples": big, "n_design": big,
                 "unmatched_word_counts": [big, 0]}
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps([entry]))
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 0
        cell = json.loads((tmp_path / "report.json").read_text())["cells"][0]
        assert cell["rounded"] == {
            "mean_q_per_triple": 1.0, "precision": 1.0, "recall": 0.5, "f1": 0.6667
        }

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

    def test_empty_design_file_is_error(self, tmp_path, capsys):
        out = self._generate(tmp_path)
        design = tmp_path / "design.txt"
        design.write_text("\n  \n")
        assert run(["--output-dir", out, "evaluate", "--design", design]) == 1
        assert capsys.readouterr().err == f"error: {design}: design CQ set is empty\n"
        assert not (out / "report.json").exists()

    def test_filter_output_is_one_more_cell(self, tmp_path, capsys):
        out = self._generate(tmp_path, templates=("P1", "P2", "P3"))
        src = out / "questions_P1_mock-small.csv"
        assert run(["filter", src, "--strictness", "strict"]) == 0
        filtered = Path(capsys.readouterr().out.strip())
        source = json.loads(src.with_suffix(".json").read_text())
        meta = json.loads(filtered.with_suffix(".json").read_text())
        for key in ("ontology", "template", "provider", "model", "n_triples"):
            assert meta[key] == source[key]
        assert meta["n_questions"] == source["n_candidates"]  # the questions filter read
        argv = ["--output-dir", out, "evaluate", "--design", FIXTURES / "design_cqs.txt"]
        assert run(argv) == 0
        rows = list(csv.DictReader(io.StringIO((out / "summary.csv").read_text())))
        assert [r["Prompt"] for r in rows] == ["P1", "P1", "P2", "P3"]
        row = rows[1]  # questions_P1_mock-small_filtered.csv sorts after its input
        assert (row["LLM"], row["No. Q."]) == ("mock-small", str(source["n_candidates"]))
        assert row["No. Candidate CQs"] == str(meta["n_candidates"])

    def test_filter_input_without_sidecar_keeps_its_sidecar_keys(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nWho wrote it?\n")
        assert run(["filter", src]) == 0
        meta = json.loads(Path(capsys.readouterr().out.strip()).with_suffix(".json").read_text())
        assert set(meta) == {"input", "n_questions", "n_candidates", "csv_sha256", "questions"}

    def test_missing_design_and_labels_is_error(self, tmp_path, capsys):
        out = self._generate(tmp_path)
        assert run(["--output-dir", out, "evaluate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_without_cells_is_error(self, tmp_path, capsys):
        cells = tmp_path / "cells"
        cells.mkdir()
        (cells / "notes.csv").write_text("Questions\nWhat is A?\n")
        design = tmp_path / "design.txt"
        design.write_text("What is A?\n")
        argv = ["--output-dir", tmp_path, "evaluate", "--design", design, "--candidates-dir", cells]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: no questions_*.csv under {cells}\n"
        assert not (tmp_path / "report.json").exists()

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
            ("n_questions", "missing required key n_questions"),
            ("n_triples", "missing required key n_triples"),
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


    @pytest.mark.parametrize(
        "update,message",
        [
            ({"n_triples": "20"}, "n_triples must be int, not str"),
            ({"n_questions": None}, "n_questions must be int, not NoneType"),
            ({"model": 5}, "model must be str, not int"),
            ({"n_candidates": 2.5}, "n_candidates must be int, not float"),
            ({"n_triples": 0}, "n_triples must be in [1, 2**53]"),
            ({"n_questions": -1}, "n_questions must be in [0, 2**53]"),
        ],
    )
    def test_bad_sidecar_value_is_error(self, tmp_path, capsys, update, message):
        self._generate(tmp_path)
        sidecar = tmp_path / "out" / "questions_P1_mock-small.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **update}))
        argv = ["--output-dir", tmp_path / "out", "evaluate", "--design", FIXTURES / "design_cqs.txt"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {sidecar}: {message}\n"

    def test_csv_out_of_step_with_its_sidecar_is_error(self, tmp_path, capsys):
        out = self._generate(tmp_path)
        csv_path = out / "questions_P1_mock-small.csv"
        sidecar = csv_path.with_suffix(".json")
        n_candidates = json.loads(sidecar.read_text())["n_candidates"]
        assert n_candidates > 2
        csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:3]) + "\n")
        argv = ["--output-dir", out, "evaluate", "--design", FIXTURES / "design_cqs.txt"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path}: n_candidates {n_candidates} in {sidecar}, but 2 rows; "
            "re-run generate\n"
        )
        assert not (out / "report.json").exists()

    def test_csv_of_as_many_other_rows_is_error(self, tmp_path, capsys):
        out = self._generate(tmp_path)
        csv_path = out / "questions_P1_mock-small.csv"
        sidecar = csv_path.with_suffix(".json")
        assert json.loads(sidecar.read_text())["csv_sha256"] == hashlib.sha256(
            csv_path.read_bytes()).hexdigest()
        other = tmp_path / "other"
        run(["--output-dir", other, "--seed", 8, "generate", VG, "--templates", "P1"])
        rows = (other / csv_path.name).read_text().splitlines()
        n_rows = len(csv_path.read_text().splitlines())
        rows = (rows + rows)[:n_rows]  # another run's questions, as many rows
        csv_path.write_text("\n".join(rows) + "\n")
        argv = ["--output-dir", out, "evaluate", "--design", FIXTURES / "design_cqs.txt"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path}: SHA-256 differs from csv_sha256 in {sidecar}; re-run generate\n"
        )
        assert not (out / "report.json").exists()
        meta = json.loads(sidecar.read_text())
        del meta["csv_sha256"]  # a sidecar without the digest is not checked
        sidecar.write_text(json.dumps(meta))
        assert run(argv) == 0


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


    @pytest.mark.parametrize(
        "text,message",
        [
            ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ('[{"cells": 1}]', "top level must be a JSON object, not list"),
            ('{"cells": 5}', "cells must be a list, not int"),
            ('{"cells": [{}, 1]}', "cells[1] must be a JSON object, not int"),
            ('{"cells": [{"rounded": 5}]}', "cells[0].rounded must be a JSON object, not int"),
            ('{"cells": [{"rounded": null}]}',
             "cells[0].rounded must be a JSON object, not NoneType"),
            ('{"cells": [{}, {"unmatched_stats": [1]}]}',
             "cells[1].unmatched_stats must be a JSON object, not list"),
            ('{"cells": [{}, {"rounded": {"precision": "x"}}]}',
             "cells[1].rounded.precision must be float, not str"),
            ('{"cells": [{"rounded": {"f1": 1%s}}]}' % ("0" * 400),
             "cells[0].rounded.f1 must be a finite float"),
            ('{"cells": [{"unmatched_stats": {"n_unmatched": 1}}]}',
             "missing required key cells[0].unmatched_stats.pct_unmatched"),
        ],
    )
    def test_malformed_report_is_error(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert run(["report", report]) == 1
        assert capsys.readouterr().err == f"error: {report}: {message}\n"


    def test_null_unmatched_stats_renders(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"cells": [{"model": "m", "rounded": {}, "unmatched_stats": null}]}')
        assert run(["report", report]) == 0
        assert "m" in capsys.readouterr().out


class TestOSErrors:
    """Any file that cannot be read ends in ``error: ...`` naming it, exit 1."""

    COMMANDS = [
        pytest.param(["extract", "--format", "ntriples", "{path}"], id="extract"),
        pytest.param(["generate", "--format", "turtle", "{path}"], id="generate"),
        pytest.param(["evaluate", "--design", "{path}"], id="evaluate-design"),
        pytest.param(["evaluate", "--counts-fixture", "{path}"], id="evaluate-counts-fixture"),
        pytest.param(
            ["evaluate", "--design", FIXTURES / "design_cqs.txt", "--validation-labels", "{path}"],
            id="evaluate-validation-labels",
        ),
        pytest.param(["report", "{path}"], id="report"),
    ]

    @staticmethod
    def _argv(tmp_path, command, path):
        return ["--output-dir", tmp_path / "out"] + [
            str(path) if a == "{path}" else a for a in command
        ]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_path(self, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run(self._argv(tmp_path, command, folder)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unreadable_file(self, tmp_path, capsys, monkeypatch, command):
        locked = tmp_path / "locked"
        locked.write_text("[]")
        denied = PermissionError(13, "Permission denied", str(locked))

        def refuse_locked(opener):
            def wrapped(file, *args, **kwargs):
                if Path(file) == locked:
                    raise denied
                return opener(file, *args, **kwargs)
            return wrapped

        # The file opens for its owner whatever its mode when tests run as
        # root, so the refusal is simulated at both ways the CLI reads.
        monkeypatch.setattr(Path, "read_text", refuse_locked(Path.read_text))
        monkeypatch.setattr("builtins.open", refuse_locked(open))
        assert run(self._argv(tmp_path, command, locked)) == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{locked}'\n"


class TestHelp:
    """Each flag's dest names the config field it sets; ``--help`` still
    shows the flag's own name."""

    @pytest.mark.parametrize(
        "command,shown",
        [
            ([], ["--output-dir OUTPUT_DIR", "--cache-dir CACHE_DIR", "--seed SEED",
                  "--parallelism PARALLELISM"]),
            (["extract"], ["ontologies [ontologies ...]", "\n  ontologies\n"]),
            (["generate"], ["[ontologies ...]", "\n  ontologies\n", "--template-file TEMPLATE_FILE",
                            "--templates {P1,P2,P3}", "--strictness {off,lenient,strict}",
                            "--dedup-threshold DEDUP_THRESHOLD",
                            "--primitive-lexicon PRIMITIVE_LEXICON",
                            "--narrative-patterns NARRATIVE_PATTERNS", "[--global-dedup]"]),
            (["filter"], ["--strictness {off,lenient,strict}", "--dedup-threshold DEDUP_THRESHOLD",
                          "--primitive-lexicon PRIMITIVE_LEXICON",
                          "--narrative-patterns NARRATIVE_PATTERNS", "[--global-dedup]"]),
            (["evaluate"], ["--design DESIGN", "--tau TAU",
                            "--backend {lexical_fallback,http_embedding}",
                            "--embedding-url EMBEDDING_URL"]),
        ],
    )
    def test_help_shows_flag_names(self, capsys, monkeypatch, command, shown):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for text in shown:
            assert text in out
        for dest in ("ONTOLOGY_PATHS", "ontology_paths", "DESIGN_CQ_PATH", "MATCHER.", "FILTRATION."):
            assert dest not in out


# Unbounded, with the edges of the count range drawn often.
_INTS = st.integers() | st.sampled_from([0, -1, 2**53, 2**53 + 1, 10**400])
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _near(base: dict):
    """Arbitrary JSON, or ``base`` with some keys dropped and some values
    replaced by arbitrary JSON, often an integer."""
    keys = st.sampled_from(sorted(base))
    varied = st.builds(
        lambda drop, update: {k: v for k, v in {**base, **update}.items() if k not in drop},
        st.sets(keys, max_size=1),
        st.dictionaries(keys, _INTS | _JSON, max_size=3),
    )
    return varied | _JSON


_COUNTS = {"ontology": "o", "template": "P1", "model": "m", "n_questions": 9, "n_triples": 3,
           "n_candidates": 4, "n_validated": 2, "n_unmatched": 1, "n_design": 3,
           "unmatched_word_counts": [5]}
_SIDECAR = {"ontology": "o", "template": "P1", "provider": "p", "model": "m",
            "n_questions": 3, "n_triples": 2, "n_candidates": 2}
_CELL = {"ontology": "o", "template": "P1", "model": "m", "n_questions": 9, "n_candidates": 4,
         "n_validated": 2}
_ROUNDED = {"mean_q_per_triple": 3.0, "precision": 0.5, "recall": 0.6667, "f1": 0.5714}
_STATS = {"n_unmatched": 1, "pct_unmatched": 33, "mean": 5.0, "std": None, "min": 5,
          "p25": 5.0, "p50": 5.0, "max": 5}
_REPORT_CELL = st.builds(
    lambda cell, rounded, stats: {**cell, "rounded": rounded, "unmatched_stats": stats}
    if isinstance(cell, dict) else cell,
    _near(_CELL), _near(_ROUNDED), _near(_STATS),
)
_REPORT = st.builds(
    lambda top, cells: {**top, "cells": cells} if isinstance(top, dict) else top,
    _near({"backend": "lexical_fallback", "similarity_threshold": 0.7}),
    st.lists(_REPORT_CELL, max_size=2) | _JSON,
)

_ANY_JSON = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _check(capsys, rc, *paths):
    """Exit 0, or exit 1 with one ``error:`` line naming one of ``paths``."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith(tuple(f"error: {p}" for p in paths)), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


class TestArbitraryJson:
    """Whatever JSON a data file holds, the CLI exits 0, or exits 1 with
    one ``error:`` line naming the file; never a traceback."""

    @_ANY_JSON
    @given(st.lists(_near(_COUNTS), min_size=1, max_size=3) | _JSON)
    def test_counts_fixture(self, tmp_path, capsys, value):
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps(value))
        rc = run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture])
        _check(capsys, rc, fixture)

    @_ANY_JSON
    @given(_near(_SIDECAR))
    def test_sidecar(self, tmp_path, capsys, value):
        design = tmp_path / "design.txt"
        design.write_text("What is A?\nWho is B?\n")
        csv_path = tmp_path / "cells" / "questions_P1_m.csv"
        csv_path.parent.mkdir(exist_ok=True)
        csv_path.write_text("Questions\nWhat is A?\nWhat is C?\n")
        sidecar = csv_path.with_suffix(".json")
        sidecar.write_text(json.dumps(value))
        argv = ["--output-dir", tmp_path, "evaluate", "--design", design,
                "--candidates-dir", csv_path.parent]
        _check(capsys, run(argv), csv_path, sidecar)

    @_ANY_JSON
    @given(_REPORT)
    def test_report(self, tmp_path, capsys, value):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(value))
        _check(capsys, run(["report", report]), report)

    @_ANY_JSON
    @given(_near({"model": "mock-small", "text": "1. What is A?", "truncated": False}))
    def test_cache_entry(self, tmp_path, capsys, value):
        onto = tmp_path / "one.nt"
        onto.write_text("<http://e.org/g#A> <http://e.org/g#p> <http://e.org/g#B> .\n")
        cache = tmp_path / "cache"
        argv = ["--output-dir", tmp_path / "out", "--cache-dir", cache, "generate", onto,
                "--templates", "P1"]
        if not cache.exists():
            assert run(argv) == 0
        (entry,) = cache.glob("*.json")
        entry.write_text(json.dumps(value))
        assert run(argv) == 0
        _check(capsys, 0)
        sidecar = json.loads((tmp_path / "out" / "questions_P1_mock-small.json").read_text())
        hit = isinstance(value, dict) and isinstance(value.get("text"), str)
        assert sidecar["cache_hits"] == int(hit)


# Pieces that break a text reader: invalid UTF-8, NUL, a line longer than
# the csv module's field limit, regex metacharacters and short rows.
_TEXT_PIECES = st.sampled_from(
    [b"\xff", b"\xc3", b"\x00", b"W" * 131_073, b"(", b")", b"[", b"*", b"+?", b"\\", b"{2,1}",
     b"(?P<a>", b"\n", b"\r\n", b",", b'"', b"What is A?", b"valid", b"maybe", b"<statement>"]
)
_TEXT = st.lists(_TEXT_PIECES | st.binary(max_size=6), max_size=6).map(b"".join)


@st.composite
def _text_file(draw, header: bytes = b""):
    """Arbitrary bytes, half the time after the role's header line."""
    return (header if draw(st.booleans()) else b"") + draw(_TEXT)


def _any_text(test):
    """Arbitrary-text settings, plus inputs that each break a text reader
    (invalid UTF-8, an oversized CSV field, a short or unknown labels row,
    NUL, a bad regex), after each role's header line or none."""
    for header in (b"", b"Questions\n", b"question,verdict\n"):
        for body in (b"\xff\n", b"W" * 131_073 + b"\n", b"What is A?\n", b"What is A?,maybe\n",
                     b"What is A?\x00\n", b"what (\n"):
            test = example(data=header + body)(test)
    return settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )(test)


class TestArbitraryText:
    """Whatever bytes a text input holds, the CLI exits 0, or exits 1 with
    one ``error:`` line naming the file; never a traceback."""

    @staticmethod
    def _cell(tmp_path, questions=b"Questions\nWhat is A?\n"):
        csv_path = tmp_path / "cells" / "questions_P1_m.csv"
        csv_path.parent.mkdir(exist_ok=True)
        csv_path.write_bytes(questions)
        csv_path.with_suffix(".json").write_text('{"n_questions": 3, "n_triples": 2}')
        return csv_path

    @_any_text
    @given(data=_text_file(b"Questions\n"))
    def test_design(self, tmp_path, capsys, data):
        design = tmp_path / "design.txt"
        design.write_bytes(data)
        argv = ["--output-dir", tmp_path, "evaluate", "--design", design,
                "--candidates-dir", self._cell(tmp_path).parent]
        _check(capsys, run(argv), design)

    @_any_text
    @given(data=_text_file(b"question,verdict\n"))
    def test_validation_labels(self, tmp_path, capsys, data):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(data)
        argv = ["--output-dir", tmp_path, "evaluate", "--validation-labels", labels,
                "--candidates-dir", self._cell(tmp_path).parent]
        _check(capsys, run(argv), labels)

    @_any_text
    @given(data=_text_file(b"Questions\n"))
    def test_candidates_csv(self, tmp_path, capsys, data):
        design = tmp_path / "design.txt"
        design.write_text("What is A?\n")
        csv_path = self._cell(tmp_path, data)
        argv = ["--output-dir", tmp_path, "evaluate", "--design", design,
                "--candidates-dir", csv_path.parent]
        _check(capsys, run(argv), csv_path)

    @_any_text
    @given(data=_text_file(b"Questions\n"))
    def test_filter_input(self, tmp_path, capsys, data):
        src = tmp_path / "input.csv"
        src.write_bytes(data)
        _check(capsys, run(["filter", src, "--output", tmp_path / "out.csv"]), src)

    @pytest.mark.parametrize("flag", ["--primitive-lexicon", "--narrative-patterns"])
    @_any_text
    @given(data=_text_file())
    def test_pattern_file(self, tmp_path, capsys, data, flag):
        src = tmp_path / "input.csv"
        src.write_text("Questions\nWhat is A?\nCould you envision B?\n")
        patterns = tmp_path / "patterns.txt"
        patterns.write_bytes(data)
        argv = ["filter", src, "--output", tmp_path / "out.csv", flag, patterns]
        _check(capsys, run(argv), patterns)

    @_any_text
    @given(data=_text_file())
    def test_template_file(self, tmp_path, capsys, data):
        template = tmp_path / "mine.txt"
        template.write_bytes(data)
        _check(capsys, run(["templates", "list", "--template-file", template]), template)


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

    def test_list_with_template_file_from_config(self, tmp_path, capsys):
        extra = tmp_path / "mine.txt"
        extra.write_text("Ask about <statement>")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"templates": ["P2"], "template_file": str(extra)}))
        assert run(["--config", cfg_path, "templates", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["P1", "P2", "P3", "mine"]
        assert lines[-1] == "mine: Ask about <statement>"


class TestOutputCollisions:
    """Two inputs that would write one output path are one ``error:`` line,
    exit 1, before any prompt is sent or any file is written."""

    @pytest.mark.parametrize("command", ["extract", "generate"])
    @pytest.mark.parametrize("first,second", [("a/onto.nt", "b/onto.nt"), ("onto.nt", "onto.ttl")])
    def test_ontologies_sharing_a_stem(self, tmp_path, capsys, monkeypatch, command, first, second):
        monkeypatch.chdir(tmp_path)
        for name in (first, second):
            source = FIXTURES / "vicinity_sample.ttl" if name.endswith(".ttl") else Path(VG)
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_text(source.read_text())
        assert run(["--output-dir", "out", "--cache-dir", "cache", command, first, second]) == 1
        assert capsys.readouterr().err == (
            f"error: ontologies {first} and {second} both write to {Path('out', 'onto')}\n"
        )
        assert not Path("out").exists() and not Path("cache").exists()

    @pytest.mark.parametrize("command", ["extract", "generate"])
    def test_ontology_listed_twice(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("a.nt").write_text(Path(VG).read_text())
        assert run(["--output-dir", "out", "--cache-dir", "cache", command, "a.nt", "a.nt"]) == 1
        assert capsys.readouterr().err == "error: ontologies a.nt is listed twice\n"
        assert not Path("out").exists() and not Path("cache").exists()

    @pytest.mark.parametrize("models", [("meta/llama:2", "meta_llama_2"), ("m", "m")])
    def test_cells_sharing_a_file(self, tmp_path, capsys, models):
        config = {
            "providers": [{"provider_id": p, "model_name": m} for p, m in zip("ab", models)],
            "templates": ["P1"],
            "ontology_paths": [VG],
            "output_dir": str(tmp_path / "out"),
            "cache_dir": str(tmp_path / "cache"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["--config", cfg_path, "generate"]) == 1
        assert capsys.readouterr().err == (
            f"error: generate: template P1, provider a, model {models[0]} and template P1, "
            f"provider b, model {models[1]} both write to questions_P1_{models[1]}.csv\n"
        )
        assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def _filter_result(path):
    out = path.with_name("out.csv")
    assert run(["filter", path, "--output", out]) == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    del sidecar["input"]
    return sidecar, out.read_text()


def _extract_result(path):
    assert run(["--output-dir", path.parent / "out", "extract", path]) == 0
    return (path.parent / "out" / "statements.tsv").read_text()


def _evaluate_result(path):
    path.with_suffix(".json").write_text('{"n_questions": 3, "n_triples": 2}')
    design = path.with_name("design.txt")
    design.write_text("What is A?\n")
    argv = ["--output-dir", path.parent / "out", "evaluate", "--design", design,
            "--candidates-dir", path.parent]
    assert run(argv) == 0
    return (path.parent / "out" / "report.json").read_text()


# role: (file name, content, what the program reads of the file)
_BOM_ROLES = {
    "design CSV": ("design.csv", 'Questions\n"What is A, or B?"\nWho is C?\n',
                   lambda p: load_design_cqs(p).questions),
    "design text": ("design.txt", "What is A?\nWho is C?\n",
                    lambda p: load_design_cqs(p).questions),
    "validation labels": ("labels.csv", "question,verdict\nWhat is A?,valid\n",
                          lambda p: load_validation_labels(p).entries),
    "filter input": ("input.csv", "Questions\nWhat is A?\nWho is B?\n", _filter_result),
    "candidates CSV": ("questions_P1_m.csv", "Questions\nWhat is A?\nWho is B?\n",
                       _evaluate_result),
    "ontology": ("onto.nt", "<http://e.org/g#A> <http://e.org/g#p> <http://e.org/g#B> .\n",
                 _extract_result),
    "pattern file": ("patterns.txt", "^what\n# comment\nwho\n", load_pattern_file),
    "template file": ("mine.txt", "Ask about <statement>.\n",
                      lambda p: (load_template_file(p).id, load_template_file(p).body)),
}


@pytest.mark.parametrize("role", sorted(_BOM_ROLES))
def test_byte_order_mark_is_skipped(tmp_path, role):
    name, text, read = _BOM_ROLES[role]
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / f"bom{len(bom)}" / name
        path.parent.mkdir()
        path.write_bytes(bom + text.encode())
        results.append(read(path))
    assert results[0] == results[1]
    assert "\ufeff" not in repr(results[1])


_CELL_KEYS = {"ontology", "template", "provider", "model", "n_questions", "n_triples",
              "n_candidates", "mean_q_per_triple", "rounded"}
_SCORE_KEYS = {"n_design", "n_validated", "n_unmatched_design", "precision", "recall", "f1"}
_ROUNDED_SCORES = {"mean_q_per_triple", "precision", "recall", "f1"}
_VIDEO_GAME = {"ontology": "Video Game", "template": "P1", "model": "gpt-3.5-turbo",
               "n_questions": 549, "n_triples": 363, "n_candidates": 375, "n_validated": 204,
               "n_unmatched": 8}
_SUMMARY_HEADER = ("Ontology,Prompt,LLM,No. Q.,Mean Q/T,No. Candidate CQs,No. Validated CQs,"
                   "Precision,Recall,F1,Unmatched CQs,Unmatched %,Mean,Std,Min,0.25,0.50,Max")


class TestReportShape:
    """The keys of a report.json cell in each evaluate mode, and ``report``
    showing summary.csv's table."""

    # mode: (the evaluate flags, each cell's (keys, rounded keys))
    MODES = {
        "design": (["--design", FIXTURES / "design_cqs.txt"], 2 * [(
            _CELL_KEYS | _SCORE_KEYS | {"unmatched_stats", "unmatched_design_cqs"},
            _ROUNDED_SCORES)]),
        "labels": (["--validation-labels", "labels.csv"], 2 * [(
            _CELL_KEYS | {"human_precision"}, {"mean_q_per_triple", "human_precision"})]),
        "design+labels": (
            ["--design", FIXTURES / "design_cqs.txt", "--validation-labels", "labels.csv"],
            2 * [(_CELL_KEYS | _SCORE_KEYS | {"unmatched_stats", "unmatched_design_cqs",
                                              "human_precision"},
                  _ROUNDED_SCORES | {"human_precision"})]),
        "counts": (["--counts-fixture", "counts.json"], [
            (_CELL_KEYS | _SCORE_KEYS | {"unmatched_stats"}, _ROUNDED_SCORES),
            (_CELL_KEYS | _SCORE_KEYS | {"unmatched_stats"}, _ROUNDED_SCORES),
            (_CELL_KEYS | _SCORE_KEYS, _ROUNDED_SCORES),
            (_CELL_KEYS | (_SCORE_KEYS - {"n_design"}), _ROUNDED_SCORES),
        ]),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_cell_keys_and_report_rows(self, tmp_path, capsys, monkeypatch, mode):
        monkeypatch.chdir(tmp_path)
        argv = ["--output-dir", "cells", "--seed", 7, "generate", VG, "--templates", "P1", "P2"]
        assert run(argv) == 0
        kept = [row[0] for p in sorted(Path("cells").glob("questions_*.csv"))
                for row in list(csv.reader(io.StringIO(p.read_text())))[1:]]
        Path("labels.csv").write_text(
            "question,verdict\n" + "".join(f'"{q}",valid\n' for q in kept))
        Path("counts.json").write_text(json.dumps([
            {**_VIDEO_GAME, "n_design": 66, "unmatched_word_counts": [8, 8, 9, 9, 9]},
            {**_VIDEO_GAME, "n_design": 66, "unmatched_word_counts": []},
            {**_VIDEO_GAME, "n_design": 66},
            _VIDEO_GAME,
        ]))
        flags, expected = self.MODES[mode]
        assert run(["--output-dir", "out", "evaluate", "--candidates-dir", "cells", *flags]) == 0
        cells = json.loads(Path("out", "report.json").read_text())["cells"]
        assert [(set(cell), set(cell["rounded"])) for cell in cells] == expected
        assert all(value is not None for cell in cells for value in cell.values())
        capsys.readouterr()
        assert run(["report", Path("out", "report.json")]) == 0
        shown = capsys.readouterr().out.splitlines()[1:]
        table = list(csv.reader(io.StringIO(Path("out", "summary.csv").read_text())))
        widths = [max(map(len, column)) for column in zip(*table)]
        assert shown == ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]

    def test_counts_fixture_summary_row(self, tmp_path):
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps(
            [{**_VIDEO_GAME, "n_design": 66, "unmatched_word_counts": [8, 8, 9, 9, 9]}]))
        assert run(["--output-dir", tmp_path, "evaluate", "--counts-fixture", fixture]) == 0
        assert (tmp_path / "summary.csv").read_text().splitlines() == [
            _SUMMARY_HEADER,
            "Video Game,P1,gpt-3.5-turbo,549,1.51,375,204,0.5440,0.9623,0.6951,"
            "5,8%,8.60,0.55,8,8.00,9.00,9",
        ]

    @pytest.mark.parametrize("cell,message", [
        ({"n_triples": "x"}, "cells[0].n_triples must be int, not str"),
        ({"precision": True}, "cells[0].precision must be float, not bool"),
        ({"unmatched_design_cqs": [1]}, "cells[0].unmatched_design_cqs[0] must be str, not int"),
        ({"human_precision": "0.5"}, "cells[0].human_precision must be float, not str"),
    ])
    def test_report_checks_every_cell_key(self, tmp_path, capsys, cell, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"cells": [cell]}))
        assert run(["report", report]) == 1
        assert capsys.readouterr().err == f"error: {report}: {message}\n"
