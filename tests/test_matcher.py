import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqretrofit.filtration import normalize_question
from cqretrofit.matcher import (
    DesignCQSet,
    DimensionMismatchError,
    EmbeddingEndpointError,
    EmptyTextError,
    MatcherBackend,
    MatcherConfig,
    _hash_token,
    _tokenize,
    embed,
    embed_batch,
    load_design_cqs,
    match_candidates,
    similarity,
)


# --- independent oracle ---------------------------------------------------

def oracle_matrix(candidate_texts, design_texts, cfg):
    """Similarity matrix via plain Python loops over embed() outputs,
    independent of the vectorised matmul/argmax path."""
    rows = []
    for c in candidate_texts:
        row = []
        try:
            vc = embed(normalize_question(c), cfg)
        except EmptyTextError:
            vc = None
        for d in design_texts:
            try:
                vd = embed(normalize_question(d), cfg)
            except EmptyTextError:
                vd = None
            if vc is None or vd is None:
                row.append(0.0)
            else:
                row.append(math.fsum(float(x) * float(y) for x, y in zip(vc, vd)))
        rows.append(row)
    return rows


def oracle_flags(candidate_texts, design_texts, cfg):
    matrix = oracle_matrix(candidate_texts, design_texts, cfg)
    tau = cfg.similarity_threshold
    validated = [max(row) >= tau - 1e-9 for row in matrix]
    matched = [
        max(matrix[i][j] for i in range(len(matrix))) >= tau - 1e-9
        for j in range(len(design_texts))
    ]
    return validated, matched


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


class TestMatchCandidates:
    def test_verbatim_candidates_all_validated_any_tau(self):
        for tau in (0.1, 0.5, 0.9, 1.0):
            cfg = MatcherConfig(similarity_threshold=tau)
            report = match_candidates(list(DESIGN.questions), DESIGN, cfg)
            assert report.validated_count == len(DESIGN)
            assert report.matched_design_count == len(DESIGN)

    def test_zero_vectors_never_validate_or_match(self):
        # "What is it?" has only stop words: a zero vector, similarity 0.
        cfg = MatcherConfig(similarity_threshold=0.0)
        design = DesignCQSet(("What is a Multiplayer Achievement?", "What is it?"))
        report = match_candidates(["What is it?", "Which guild?"], design, cfg)
        assert [m.validated for m in report.candidate_matches] == [False, True]
        assert [d.matched for d in report.design_coverage] == [True, False]

    def test_empty_candidates(self):
        report = match_candidates([], DESIGN, MatcherConfig())
        assert report.validated_count == 0
        assert report.matched_design_count == 0
        assert len(report.design_coverage) == len(DESIGN)
        assert all(not d.matched for d in report.design_coverage)
        assert report.unmatched_design_questions() == list(DESIGN.questions)

    def test_one_unrelated_candidate_at_high_tau(self):
        cfg = MatcherConfig(similarity_threshold=0.99)
        candidates = list(DESIGN.questions) + [
            "Entirely different topic about volcanic geology?"
        ]
        report = match_candidates(candidates, DESIGN, cfg)
        validated, matched = oracle_flags(candidates, DESIGN.questions, cfg)
        assert [m.validated for m in report.candidate_matches] == validated
        assert [d.matched for d in report.design_coverage] == matched
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
            assert [m.validated for m in report.candidate_matches] == validated
            assert [d.matched for d in report.design_coverage] == matched

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
                assert report.matched_design_count <= previous_matched
            previous_validated = report.validated_count
            previous_matched = report.matched_design_count

    def test_empty_design_set_rejected(self):
        with pytest.raises(ValueError):
            match_candidates(["q?"], DesignCQSet(()), MatcherConfig())

    def test_stopword_only_candidate_never_validates(self):
        report = match_candidates(
            ["the of and?", "What is a Multiplayer Achievement?"],
            DESIGN,
            MatcherConfig(similarity_threshold=0.1),
        )
        assert report.candidate_matches[0].validated is False
        assert report.candidate_matches[1].validated is True

    def test_reproducible(self):
        candidates = list(DESIGN.questions) + ["Another question about planets?"]
        a = match_candidates(candidates, DESIGN, MatcherConfig())
        b = match_candidates(candidates, DESIGN, MatcherConfig())
        assert a == b


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

    def test_endpoint_required(self):
        with pytest.raises(ValueError):
            MatcherConfig(backend=MatcherBackend.HTTP_EMBEDDING)


def test_tau_range_validated():
    with pytest.raises(ValueError):
        MatcherConfig(similarity_threshold=1.5)


def test_tokenize_splits_non_alphanumerics():
    assert _tokenize("What's a Solar_System_Satellite?") == [
        "what",
        "s",
        "a",
        "solar",
        "system",
        "satellite",
    ]
