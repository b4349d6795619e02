import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqretrofit import cli, matcher
from cqretrofit.filtration import normalize_question
from cqretrofit.matcher import (
    BestMatches,
    DesignCQSet,
    DimensionMismatchError,
    EmbeddingEndpointError,
    EmptyTextError,
    MatcherBackend,
    MatcherConfig,
    _STOP_WORDS,
    _hash_token,
    embed,
    embed_batch,
    embed_questions,
    load_design_cqs,
    match_candidates,
    similarity,
)


# --- independent oracle ---------------------------------------------------

_TOKEN_RE = re.compile(r"[^a-z0-9]+")


def _tokenize(text):
    """Split-based tokeniser, independent of embed_batch's findall."""
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


def reference_embed(text, cfg=None):
    """The lexical embedding one text at a time: a count vector over the
    hashed content tokens, divided by its norm. Independent of the
    vectorised bincount path of embed_batch/embed."""
    cfg = cfg or MatcherConfig()
    tokens = [t for t in _tokenize(text) if t not in _STOP_WORDS]
    if not tokens:
        raise EmptyTextError(f"no content tokens in {text!r}")
    vec = np.zeros(cfg.dimension, dtype=np.float64)
    for token in tokens:
        vec[_hash_token(token, cfg.dimension)] += 1.0
    return vec / np.linalg.norm(vec)


def reference_rows(texts, cfg=None):
    cfg = cfg or MatcherConfig()
    rows = np.zeros((len(texts), cfg.dimension), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            rows[i] = reference_embed(text, cfg)
        except EmptyTextError:
            pass
    return rows


def reference_best(candidate_texts, design_texts, cfg):
    """Best index and similarity per candidate and per design CQ, by a
    per-row and a per-column np.argmax loop over the similarity matrix."""
    candidates = reference_rows([normalize_question(t) for t in candidate_texts], cfg)
    design = reference_rows([normalize_question(t) for t in design_texts], cfg)
    sims = candidates @ design.T
    per_candidate = []
    for i in range(len(candidate_texts)):
        j = int(np.argmax(sims[i]))
        per_candidate.append((j, float(sims[i, j])))
    if not candidate_texts:
        return [], [(-1, 0.0)] * len(design_texts)
    per_design = []
    for j in range(len(design_texts)):
        i = int(np.argmax(sims[:, j]))
        per_design.append((i, float(sims[i, j])))
    return per_candidate, per_design


def oracle_matrix(candidate_texts, design_texts, cfg):
    """Similarity matrix via plain Python loops over reference_embed()
    outputs, independent of the vectorised embed/matmul/argmax path.
    A pair where either text has no content tokens is ``None``."""
    rows = []
    for c in candidate_texts:
        row = []
        try:
            vc = reference_embed(normalize_question(c), cfg)
        except EmptyTextError:
            vc = None
        for d in design_texts:
            try:
                vd = reference_embed(normalize_question(d), cfg)
            except EmptyTextError:
                vd = None
            if vc is None or vd is None:
                row.append(None)
            else:
                row.append(math.fsum(float(x) * float(y) for x, y in zip(vc, vd)))
        rows.append(row)
    return rows


def oracle_flags(candidate_texts, design_texts, cfg):
    """Validated and matched flags from oracle_matrix(); a pair with a
    zero vector is never a hit, even at threshold 0."""
    matrix = oracle_matrix(candidate_texts, design_texts, cfg)
    tau = cfg.similarity_threshold

    def hit(sim):
        return sim is not None and sim >= tau - 1e-9

    validated = [any(hit(sim) for sim in row) for row in matrix]
    matched = [any(hit(row[j]) for row in matrix) for j in range(len(design_texts))]
    return validated, matched


# Content words, stop words, a non-ASCII word and repeats, so drawn texts
# hold repeated tokens, stop-word-only and empty texts, and ties.
_WORDS = "planet moon orbit guild badge the of what is Überflug ÉTOILE planet".split()

DESIGN = DesignCQSet(
    (
        "What is a Multiplayer Achievement?",
        "Does every player have a username?",
        "Which rewards can a player earn?",
        "How does a guild recruit new members?",
    )
)


class TestEmbed:
    def test_deterministic(self):
        a = embed("what is a planet?")
        b = embed("what is a planet?")
        assert np.array_equal(a, b)

    def test_order_insensitive_bag(self):
        assert np.array_equal(embed("what is a planet?"), embed("planet what is a?"))

    def test_unit_norm(self):
        for text in ("what is a planet?", "guild guild guild?", "x y z w?"):
            assert abs(np.linalg.norm(embed(text)) - 1.0) <= 1e-6

    def test_dimension(self):
        assert embed("planets?").shape == (512,)
        assert embed("planets?", MatcherConfig(dimension=64)).shape == (64,)

    def test_empty_after_tokenization(self):
        with pytest.raises(EmptyTextError):
            embed("the of and?")
        with pytest.raises(EmptyTextError):
            embed("???")

    def test_batch_zero_row_for_empty_text(self):
        rows = embed_batch(["planet?", "the of?"])
        assert np.linalg.norm(rows[0]) == pytest.approx(1.0)
        assert np.linalg.norm(rows[1]) == 0.0

    def test_embed_is_the_one_text_batch(self):
        cfg = MatcherConfig(dimension=64)
        for text in ("what is a planet?", "guild guild badge?", "Ünïcode ßtar?"):
            assert np.array_equal(embed(text, cfg), embed_batch([text], cfg)[0])
            assert np.array_equal(embed(text, cfg), reference_embed(text, cfg))

    def test_empty_batch(self):
        for dim in (1, 512):
            rows = embed_batch([], MatcherConfig(dimension=dim))
            assert rows.shape == (0, dim) and rows.dtype == np.float64

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=40),
                st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
            ),
            max_size=12,
        ),
        st.sampled_from([1, 7, 64, 512]),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_reference_bitwise(self, texts, dim):
        cfg = MatcherConfig(dimension=dim)
        rows = embed_batch(texts, cfg)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, reference_rows(texts, cfg))

    @pytest.mark.parametrize("dim", [7, 512])
    def test_large_batch_equals_reference_bitwise(self, dim):
        rng = random.Random(10)
        words = _WORDS + ["Ωmega", "naïve", "x2", "orbit's", "ring_dust", "İnfo", "ｆｕｌｌ"]
        separators = [" ", "  ", "-", ", ", "\t", "?", "_", "\n"]
        texts = []
        for i in range(3200):
            if i % 50 == 0:
                texts.append("")
            elif i % 50 == 1:
                texts.append(" ".join(rng.choices(sorted(_STOP_WORDS), k=rng.randint(1, 6))) + "?")
            else:
                parts = rng.choices(words, k=rng.randint(1, 12))
                texts.append("".join(w + rng.choice(separators) for w in parts))
        cfg = MatcherConfig(dimension=dim)
        rows = embed_batch(texts, cfg)
        assert rows.shape == (3200, dim) and rows.dtype == np.float64
        assert not rows[::50].any() and not rows[1::50].any()
        assert np.array_equal(rows, reference_rows(texts, cfg))

    @given(st.lists(st.text(), max_size=8), st.sampled_from([7, 512]))
    @settings(max_examples=200, deadline=None)
    def test_embed_questions_equals_batch_of_normalized_texts(self, questions, dim):
        cfg = MatcherConfig(dimension=dim)
        expected = embed_batch([normalize_question(q) for q in questions], cfg)
        assert np.array_equal(embed_questions(questions, cfg), expected)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            MatcherConfig(dimension=0)

    @given(
        st.lists(
            st.sampled_from("planet moon orbit star ring guild comet dust".split()),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_unit_norm_property(self, tokens):
        vec = embed(" ".join(tokens))
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6


class TestSimilarity:
    def test_self_similarity(self):
        v = embed("what is a planet?")
        assert similarity(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self):
        a = embed("what is a planet?")
        b = embed("which moons orbit neptune?")
        assert similarity(a, b) == pytest.approx(similarity(b, a))

    def test_orthogonal_disjoint_tokens(self):
        # pick token sets verified to occupy disjoint hash buckets
        left, right = ["planet", "orbit"], ["guild", "badge"]
        buckets_l = {_hash_token(t, 512) for t in left}
        buckets_r = {_hash_token(t, 512) for t in right}
        assert not buckets_l & buckets_r
        assert similarity(embed(" ".join(left)), embed(" ".join(right))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            similarity(
                embed("planet?"), embed("planet?", MatcherConfig(dimension=64))
            )

    def test_range(self):
        texts = ["planet moon?", "moon orbit?", "guild player badge?", "planet?"]
        for a in texts:
            for b in texts:
                s = similarity(embed(a), embed(b))
                assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9


def _pairs(side):
    """(best index, similarity) per question of one report side."""
    return list(zip(side.index.tolist(), side.similarity.tolist()))


def _same(a, b):
    """Two match reports hold equal arrays and equal scalar fields."""
    sides = ("candidate_matches", "design_coverage")
    return all(
        np.array_equal(getattr(getattr(a, s), f), getattr(getattr(b, s), f))
        for s in sides
        for f in ("index", "similarity", "hit")
    ) and (a.design_questions, a.similarity_threshold, a.backend) == (
        b.design_questions, b.similarity_threshold, b.backend
    )


class TestMatchCandidates:
    def test_verbatim_candidates_all_validated_any_tau(self):
        for tau in (0.1, 0.5, 0.9, 1.0):
            cfg = MatcherConfig(similarity_threshold=tau)
            report = match_candidates(list(DESIGN.questions), DESIGN, cfg)
            assert report.validated_count == len(DESIGN)
            assert report.design_coverage.count == len(DESIGN)

    def test_zero_vectors_never_validate_or_match(self):
        # "What is it?" has only stop words: a zero vector, similarity 0.
        cfg = MatcherConfig(similarity_threshold=0.0)
        design = DesignCQSet(("What is a Multiplayer Achievement?", "What is it?"))
        report = match_candidates(["What is it?", "Which guild?"], design, cfg)
        assert report.candidate_matches.hit.tolist() == [False, True]
        assert report.design_coverage.hit.tolist() == [True, False]

    def test_empty_candidates(self):
        report = match_candidates([], DESIGN, MatcherConfig())
        assert report.validated_count == 0
        assert len(report.candidate_matches) == 0
        assert report.design_coverage.count == 0
        assert len(report.design_coverage) == len(DESIGN)
        assert report.design_coverage.index.tolist() == [-1] * len(DESIGN)
        assert report.design_coverage.similarity.tolist() == [0.0] * len(DESIGN)
        assert report.unmatched_design_questions() == list(DESIGN.questions)

    def test_one_unrelated_candidate_at_high_tau(self):
        cfg = MatcherConfig(similarity_threshold=0.99)
        candidates = list(DESIGN.questions) + [
            "Entirely different topic about volcanic geology?"
        ]
        report = match_candidates(candidates, DESIGN, cfg)
        validated, matched = oracle_flags(candidates, DESIGN.questions, cfg)
        assert report.candidate_matches.hit.tolist() == validated
        assert report.design_coverage.hit.tolist() == matched
        assert report.validated_count == len(DESIGN)  # exactly one unvalidated

    def test_flags_match_bruteforce_oracle(self):
        candidates = [
            "What is a Multiplayer Achievement?",
            "What rewards exist?",
            "Does every player have a username?",
            "Guild recruiting new members how?",
            "Unrelated cheese question?",
        ]
        for tau in (0.2, 0.5, 0.8):
            cfg = MatcherConfig(similarity_threshold=tau)
            report = match_candidates(candidates, DESIGN, cfg)
            validated, matched = oracle_flags(candidates, DESIGN.questions, cfg)
            assert report.candidate_matches.hit.tolist() == validated
            assert report.design_coverage.hit.tolist() == matched

    def test_tau_monotonicity(self):
        candidates = [
            "What is a Multiplayer Achievement?",
            "Which rewards can a player earn?",
            "What rewards can players earn?",
            "Unrelated cheese question?",
        ]
        previous_validated = None
        previous_matched = None
        for tau in [round(0.1 * k, 1) for k in range(1, 10)]:
            report = match_candidates(
                candidates, DESIGN, MatcherConfig(similarity_threshold=tau)
            )
            if previous_validated is not None:
                assert report.validated_count <= previous_validated
                assert report.design_coverage.count <= previous_matched
            previous_validated = report.validated_count
            previous_matched = report.design_coverage.count

    def test_empty_design_set_rejected(self):
        with pytest.raises(ValueError):
            match_candidates(["q?"], DesignCQSet(()), MatcherConfig())

    def test_stopword_only_candidate_never_validates(self):
        report = match_candidates(
            ["the of and?", "What is a Multiplayer Achievement?"],
            DESIGN,
            MatcherConfig(similarity_threshold=0.1),
        )
        assert report.candidate_matches.hit.tolist() == [False, True]

    @given(
        st.lists(st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join), max_size=10),
        st.lists(st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join), min_size=1, max_size=6),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.sampled_from([1, 7, 64]),
    )
    @example(["planet"], ["", "planet"], 0.0, 64)
    @settings(max_examples=200, deadline=None)
    def test_best_indices_equal_per_row_argmax_loop(self, candidates, design, tau, dim):
        cfg = MatcherConfig(similarity_threshold=tau, dimension=dim)
        report = match_candidates(candidates, DesignCQSet(tuple(design)), cfg)
        per_candidate, per_design = reference_best(candidates, design, cfg)
        assert _pairs(report.candidate_matches) == per_candidate
        assert _pairs(report.design_coverage) == per_design
        validated, matched = oracle_flags(candidates, design, cfg)
        assert report.candidate_matches.hit.tolist() == validated
        assert report.design_coverage.hit.tolist() == matched

    def test_ties_take_the_first_maximum(self):
        design = DesignCQSet(("Which guild?", "Which guild?", "What is it?"))
        report = match_candidates(["guild", "guild", "the of", "moon"], design)
        assert report.candidate_matches.index.tolist() == [0, 0, 0, 0]
        assert report.design_coverage.index.tolist() == [0, 0, 0]
        assert report.design_coverage.hit.tolist() == [True, True, False]

    def test_precomputed_design_matrix(self):
        cfg = MatcherConfig(similarity_threshold=0.5)
        candidates = ["What rewards exist?", "Does every player have a username?"]
        matrix = embed_questions(DESIGN.questions, cfg)
        assert _same(
            match_candidates(candidates, DESIGN, cfg, matrix),
            match_candidates(candidates, DESIGN, cfg),
        )
        with pytest.raises(ValueError, match="design matrix shape"):
            match_candidates(candidates, DESIGN, cfg, matrix[:2])

    def test_reproducible(self):
        candidates = list(DESIGN.questions) + ["Another question about planets?"]
        a = match_candidates(candidates, DESIGN, MatcherConfig())
        b = match_candidates(candidates, DESIGN, MatcherConfig())
        assert _same(a, b)


class TestBestMatches:
    def _side(self):
        return BestMatches(
            np.array([2, 0, 1]), np.array([0.9, 0.1, 0.8]), np.array([True, False, True])
        )

    def test_len_and_count(self):
        side = self._side()
        assert len(side) == 3
        assert side.count == 2
        assert type(side.count) is int

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self._side().hit = np.zeros(3, dtype=bool)

    def test_report_arrays_are_parallel_and_typed(self):
        candidates = ["What rewards exist?", "Does every player have a username?", "the of"]
        report = match_candidates(candidates, DESIGN, MatcherConfig())
        for side, n in (
            (report.candidate_matches, len(candidates)),
            (report.design_coverage, len(DESIGN)),
        ):
            assert len(side) == n
            assert side.index.shape == side.similarity.shape == side.hit.shape == (n,)
            assert side.index.dtype.kind == "i"
            assert side.similarity.dtype == np.float64
            assert side.hit.dtype == np.bool_

    def test_empty_candidates_arrays_are_typed(self):
        report = match_candidates([], DESIGN, MatcherConfig())
        assert report.candidate_matches.index.shape == (0,)
        assert report.candidate_matches.count == 0
        assert report.design_coverage.index.dtype.kind == "i"
        assert report.design_coverage.hit.dtype == np.bool_

    def test_verbatim_candidates_point_at_their_design_cq(self):
        order = [2, 0, 1]
        candidates = [DESIGN.questions[j] for j in order]
        report = match_candidates(candidates, DESIGN, MatcherConfig(similarity_threshold=1.0))
        assert report.candidate_matches.index.tolist() == order
        assert report.candidate_matches.similarity == pytest.approx([1.0] * 3)
        assert report.design_coverage.index.tolist()[:3] == [1, 2, 0]

    def test_validated_count_is_candidate_hit_count(self):
        candidates = list(DESIGN.questions[:2]) + ["Another question about planets?"]
        report = match_candidates(candidates, DESIGN, MatcherConfig(similarity_threshold=0.9))
        assert report.validated_count == report.candidate_matches.count == 2

    def test_unmatched_design_questions_keep_design_order(self):
        candidates = [DESIGN.questions[2], DESIGN.questions[0]]
        report = match_candidates(candidates, DESIGN, MatcherConfig(similarity_threshold=0.99))
        hits = report.design_coverage.hit.tolist()
        assert report.unmatched_design_questions() == [
            q for q, hit in zip(DESIGN.questions, hits) if not hit
        ]
        assert DESIGN.questions[0] not in report.unmatched_design_questions()
        assert DESIGN.questions[1] in report.unmatched_design_questions()


class TestDesignCQLoading:
    def test_plain_lines(self, tmp_path):
        path = tmp_path / "cqs.txt"
        path.write_text("What is X?\n\nWho owns Y?\n")
        design = load_design_cqs(path)
        assert design.questions == ("What is X?", "Who owns Y?")
        assert design.source_path == str(path)

    def test_questions_csv(self, tmp_path):
        path = tmp_path / "cqs.csv"
        path.write_text('Questions\n"What is X?"\nWho owns Y?\n')
        design = load_design_cqs(path)
        assert design.questions == ("What is X?", "Who owns Y?")

    def test_empty_set_is_rejected_on_construction(self):
        with pytest.raises(ValueError, match="^design CQ set is empty$"):
            DesignCQSet(())


class _FakeEmbeddingResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class TestHttpEmbeddingBackend:
    def _cfg(self, url, tau=0.7):
        return MatcherConfig(
            backend=MatcherBackend.HTTP_EMBEDDING,
            similarity_threshold=tau,
            endpoint_url=url,
        )

    def test_endpoint_vectors_are_normalized(self, http_server):
        def handler(path, body, headers):
            vectors = [[3.0, 4.0] for _ in body["texts"]]
            return 200, {"vectors": vectors}

        server = http_server(handler)
        rows = embed_batch(["a?", "b?"], self._cfg(server.url))
        assert rows.shape == (2, 2)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_endpoint_receives_normalized_questions(self, http_server):
        sent = []

        def handler(path, body, headers):
            sent.extend(body["texts"])
            return 200, {"vectors": [[1.0, 0.0] for _ in body["texts"]]}

        server = http_server(handler)
        embed_questions(["  What IS\tX.  ", "Who owns Y?!"], self._cfg(server.url))
        assert sent == ["what is x", "who owns y?"]

    def test_match_via_endpoint(self, http_server):
        table = {
            "what is x?": [1.0, 0.0],
            "who owns y?": [0.0, 1.0],
            "what is x": [1.0, 0.0],
        }

        def handler(path, body, headers):
            return 200, {"vectors": [table.get(t, [0.7, 0.7]) for t in body["texts"]]}

        server = http_server(handler)
        design = DesignCQSet(("What is X?",))
        report = match_candidates(
            ["What is X?", "Who owns Y?"], design, self._cfg(server.url, tau=0.9)
        )
        assert report.validated_count == 1
        assert report.backend == "http_embedding"

    def test_endpoint_failure(self, http_server):
        server = http_server(lambda path, body, headers: (500, {"error": "down"}))
        with pytest.raises(EmbeddingEndpointError):
            embed_batch(["a?"], self._cfg(server.url))

    def test_bad_shape_rejected(self, http_server):
        server = http_server(lambda path, body, headers: (200, {"vectors": [[1.0]]}))
        with pytest.raises(EmbeddingEndpointError):
            embed_batch(["a?", "b?"], self._cfg(server.url))

    @pytest.mark.parametrize(
        "payload",
        [
            {"vectors": [[{}]]},
            {"vectors": [[{}], [{}]]},
            {"vectors": [[1.0, 2.0], [1.0]]},  # ragged
            {"vectors": [["a", "b"], ["c", "d"]]},
            {"vectors": [["1.5", "2"], ["3", "4"]]},  # numbers as strings
            {"vectors": [[True, False], [False, True]]},
            {"vectors": [[1.0, 2.0], [3.0, None]]},
            {"vectors": [[float("nan"), 1.0], [0.0, 1.0]]},
            {"vectors": [[float("inf"), 1.0], [0.0, 1.0]]},
            {"vectors": None},
            {"vectors": [[[1.0]], [[2.0]]]},  # three dimensions
            [[1.0, 2.0], [3.0, 4.0]],  # a list, not an object
            "vectors",
        ],
    )
    def test_malformed_vectors_raise_typed_error(self, monkeypatch, payload):
        monkeypatch.setattr(
            matcher.requests, "post", lambda *a, **k: _FakeEmbeddingResponse(payload)
        )
        with pytest.raises(EmbeddingEndpointError, match="embedding endpoint"):
            embed_batch(["a?", "b?"], self._cfg("http://127.0.0.1:9/embed"))

    def test_invalid_json_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            matcher.requests, "post",
            lambda *a, **k: _FakeEmbeddingResponse(ValueError("Expecting value")),
        )
        with pytest.raises(EmbeddingEndpointError, match="Expecting value"):
            embed_batch(["a?"], self._cfg("http://127.0.0.1:9/embed"))

    def test_malformed_vectors_exit_1_without_traceback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            matcher.requests, "post", lambda *a, **k: _FakeEmbeddingResponse({"vectors": [[{}]]})
        )
        design = tmp_path / "design.txt"
        design.write_text("What is X?\n")
        argv = ["--output-dir", str(tmp_path), "evaluate", "--design", str(design),
                "--backend", "http_embedding", "--embedding-url", "http://127.0.0.1:9/embed",
                "--candidates-dir", str(tmp_path)]
        (tmp_path / "questions_P1_m.csv").write_text("Questions\nWhat is Y?\n")
        (tmp_path / "questions_P1_m.json").write_text('{"n_questions": 1, "n_triples": 1}')
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: embedding endpoint returned non-numeric")
        assert "Traceback" not in err

    def test_integer_vectors_are_accepted(self, monkeypatch):
        monkeypatch.setattr(
            matcher.requests, "post",
            lambda *a, **k: _FakeEmbeddingResponse({"vectors": [[3, 4], [0, 2]]}),
        )
        rows = embed_batch(["a?", "b?"], self._cfg("http://127.0.0.1:9/embed"))
        assert rows.dtype == np.float64
        assert np.array_equal(rows, [[0.6, 0.8], [0.0, 1.0]])

    def test_http_backend_returns_zero_vectors_without_raising(self, monkeypatch):
        monkeypatch.setattr(
            matcher.requests, "post",
            lambda *a, **k: _FakeEmbeddingResponse({"vectors": [[0.0, 0.0]]}),
        )
        vec = embed("the of?", self._cfg("http://127.0.0.1:9/embed"))
        assert np.array_equal(vec, [0.0, 0.0])

    def test_endpoint_required(self):
        with pytest.raises(ValueError):
            MatcherConfig(backend=MatcherBackend.HTTP_EMBEDDING)


def test_tau_range_validated():
    with pytest.raises(ValueError):
        MatcherConfig(similarity_threshold=1.5)


def test_tokenize_splits_non_alphanumerics():
    text = "What's a Solar_System_Satellite?"
    assert _tokenize(text) == [
        "what",
        "s",
        "a",
        "solar",
        "system",
        "satellite",
    ]
    assert matcher._WORD_RE.findall(text.lower()) == _tokenize(text)
