import dataclasses
import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqretrofit import filtration, gateway, ontology
from cqretrofit.filtration import (
    DEFAULT_NARRATIVE_PATTERNS,
    DEFAULT_PRIMITIVE_PATTERNS,
    CandidateCQ,
    FiltrationConfig,
    RemovalReason,
    Strictness,
    dedup,
    filter_questions,
    is_duplicate,
    is_modelling_primitive,
    is_subjective_narrative,
    kept_questions,
    normalize_question,
)
from cqretrofit.gateway import GenerationRecord

from conftest import FIXTURES
from oracle_dedup import oracle_dedup, oracle_levenshtein, oracle_ratio, scan_dedup


# The Video Game candidate questions for the subClassOf triple, per model
# and prompt, used as a realistic filtration corpus.
GPT35_QUESTIONS = [
    ("P1", "What is a Multiplayer Achievement?"),
    ("P1", "What types of Achievements can be earned in a Multiplayer game?"),
    ("P1", "How do Multiplayer Achievements compare to Single Player Achievements?"),
    ("P2", "What strategies do you use to succeed in multiplayer games?"),
    ("P2", "What techniques do you use to maximize your achievements in multiplayer games?"),
    ("P2", "How do you measure your progress in multiplayer games?"),
    ("P2", "What do you do to stay ahead of the competition in multiplayer games?"),
    ("P3", "What is the definition of a Multiplayer Achievement?"),
    ("P3", "How does a Multiplayer Achievement differ from a single-player Achievement?"),
    ("P3", "What strategies can be used to successfully complete a Multiplayer Achievement?"),
    ("P3", "How can Multiplayer Achievements be tracked and monitored?"),
]


def records_for(questions):
    return [
        GenerationRecord(i, template_id, "gpt-3.5-turbo", (text,))
        for i, (template_id, text) in enumerate(questions)
    ]


class TestCandidateCQ:
    def _candidate(self):
        return CandidateCQ("What is a guild?", 3, "P1", "gpt-4", model_name="gpt-4-0613")

    def test_new_candidate_is_kept(self):
        c = self._candidate()
        assert (c.kept, c.status, c.removal_reason) == (True, "kept", None)

    def test_removed_sets_reason_and_derives_status(self):
        c = self._candidate()
        out = c.removed(RemovalReason.DUPLICATE)
        assert (out.kept, out.status, out.removal_reason) == (
            False, "removed", RemovalReason.DUPLICATE
        )
        assert c.kept  # the original is unchanged
        assert dataclasses.replace(out, removal_reason=None) == c

    def test_status_is_not_stored(self):
        assert "status" not in {f.name for f in dataclasses.fields(CandidateCQ)}
        with pytest.raises(TypeError):
            CandidateCQ("What is a guild?", 0, "P1", "gpt-4", status="removed")


class TestDefaultConfig:
    QUESTIONS = [
        "What is the domain of hasPlayer?",
        "What strategies do you use to succeed in multiplayer games?",
        "Which guild does a player belong to?",
    ]

    def test_is_a_default_module_constant(self):
        assert filtration._DEFAULT_CONFIG == FiltrationConfig()

    def test_omitted_config_uses_the_default(self):
        cfg = FiltrationConfig()
        for q in map(normalize_question, self.QUESTIONS):
            assert is_modelling_primitive(q) == is_modelling_primitive(q, cfg)
            assert is_subjective_narrative(q) == is_subjective_narrative(q, cfg)
        records = records_for(GPT35_QUESTIONS)
        assert filter_questions(records) == filter_questions(records, cfg)


class TestPatternCompileWarnings:
    @pytest.mark.parametrize("field", ["primitive_patterns", "narrative_patterns"])
    def test_config_raises_a_warning_as_an_error(self, field):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(re.error, match="^Possible nested set at position 1$"):
                FiltrationConfig(**{field: ("what", "[[b]")})
        assert caught == []

    def test_pattern_file_raises_a_warning_as_an_error(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("what\n[[b]\n")
        with pytest.raises(re.error, match="^Possible nested set at position 1$"):
            filtration.load_pattern_file(path)

    @staticmethod
    def _compile_without_warning(pattern):
        """What another caller may have done before: ``re`` caches the
        pattern and does not repeat its warning for it."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re.compile(pattern)

    @pytest.mark.parametrize("field", ["primitive_patterns", "narrative_patterns"])
    def test_config_raises_after_the_process_compiled_the_pattern(self, field):
        self._compile_without_warning("[[c]")
        for _ in range(2):
            with pytest.raises(re.error, match="^Possible nested set at position 1$"):
                FiltrationConfig(**{field: ("what", "[[c]")})

    def test_pattern_file_raises_after_the_process_compiled_the_pattern(self, tmp_path):
        self._compile_without_warning("[[d]")
        path = tmp_path / "p.txt"
        path.write_text("what\n[[d]\n")
        for _ in range(2):
            with pytest.raises(re.error, match="^Possible nested set at position 1$"):
                filtration.load_pattern_file(path)


class TestNormalizeQuestion:
    def test_whitespace_and_case(self):
        assert (
            normalize_question("What is a  Multiplayer Achievement?")
            == "what is a multiplayer achievement?"
        )

    def test_upper(self):
        assert normalize_question("WHAT IS X?") == "what is x?"

    def test_terminal_punctuation_other_than_qmark_stripped(self):
        assert normalize_question("What is X?!") == "what is x?"
        assert normalize_question("Statement.") == "statement"

    @given(st.text(max_size=120))
    def test_idempotent(self, text):
        once = normalize_question(text)
        assert normalize_question(once) == once


class TestTokenSortRatio:
    """The ratio on token-sorted forms by which :func:`dedup` decides, seen
    through :func:`is_duplicate`, its decision on one pair."""

    def test_identical(self):
        q = "what is a multiplayer achievement?"
        assert is_duplicate(q, q, 100)

    def test_table2_pair_not_duplicate_at_90(self):
        a = "what is a multiplayer achievement?"
        b = "how do multiplayer achievements compare to single player achievements?"
        assert oracle_ratio(a, b) < 90
        assert not is_duplicate(a, b, 90)

    def test_username_paraphrase_duplicate_at_70(self):
        a = "what is the username of the player?"
        b = "what is the player's username?"
        # token-sorted forms: "is of player the the username what" vs
        # "is player s the username what"; edit distance 6, longer 34
        assert oracle_levenshtein(
            "is of player the the username what", "is player s the username what"
        ) == 6
        assert oracle_ratio(a, b) == pytest.approx(100.0 * (1.0 - 6 / 34))
        assert is_duplicate(a, b, 70)
        assert not is_duplicate(a, b, 90)

    def test_word_order_insensitive(self):
        assert is_duplicate("a planet what is?", "what is a planet?", 100)

    @pytest.mark.parametrize("threshold", [-1, 101, 150])
    def test_threshold_outside_0_100_is_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"dedup_ratio_threshold must be in \[0, 100\]"):
            is_duplicate("a?", "a?", threshold)

    # The letter-and-space alphabets make token-sorted forms run past the
    # 64 bits of a machine word.
    _long_text = st.one_of(
        st.text(max_size=200),
        st.text(alphabet="abcd e1.?", max_size=200),
        st.text(alphabet="ab ", min_size=60, max_size=200),
    )

    @given(_long_text, _long_text)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, a, b):
        sa, sb = filtration._token_sorted(a), filtration._token_sorted(b)
        assert filtration._levenshtein(sa, sb) == oracle_levenshtein(sa, sb)
        for threshold in (0, 50, 70, 90, 100):
            assert is_duplicate(a, b, threshold) == (oracle_ratio(a, b) >= threshold)


class TestDedup:
    def _mk(self, texts):
        return [CandidateCQ(t, i, "P1", "m") for i, t in enumerate(texts)]

    def test_exact_pair(self):
        out = dedup(self._mk(["What is X?", "What is X?"]))
        assert out[0].kept
        assert out[1].removal_reason is RemovalReason.DUPLICATE

    def test_all_distinct_kept(self):
        out = dedup(self._mk(["What is X?", "Who owns Y?", "Where is Z located?"]))
        assert all(c.kept for c in out)

    def test_chain_compared_to_kept_representative(self):
        q1 = "what is the username of the player?"
        q2 = "what is the player's username?"
        q3 = "the username of the player is what?"
        cfg = FiltrationConfig(dedup_ratio_threshold=70)
        out = dedup(self._mk([q1, q2, q3]), cfg)
        assert [c.kept for c in out] == [True, False, False]

    def test_pools_are_per_template_provider_and_model(self):
        cands = [
            CandidateCQ("What is X?", 0, "P1", "m"),
            CandidateCQ("What is X?", 1, "P2", "m"),
            CandidateCQ("What is X?", 2, "P1", "other"),
            CandidateCQ("What is X?", 3, "P1", "m", model_name="gpt-4"),
        ]
        out = dedup(cands)
        assert all(c.kept for c in out)
        cfg = FiltrationConfig(global_dedup=True)
        out_global = dedup(cands, cfg)
        assert [c.kept for c in out_global] == [True, False, False, False]

    def test_removed_items_are_not_representatives(self):
        cands = [
            CandidateCQ("What is X?", 0, "P1", "m").removed(RemovalReason.MALFORMED),
            CandidateCQ("What is X?", 1, "P1", "m"),
        ]
        out = dedup(cands)
        assert out[1].kept  # earlier malformed copy is not a kept representative


_dedup_word = st.sampled_from(
    "a an the player players game gaming achievement reward guild what who".split()
)
# Near-duplicates from a small vocabulary, punctuation-only texts whose
# token-sorted form is empty, and free text; up to 14 words runs past 64
# characters.
_dedup_text = st.one_of(
    st.lists(_dedup_word, max_size=14).map(lambda ws: " ".join(ws) + "?"),
    st.sampled_from(["?", "", "...?", "What?!"]),
    st.text(max_size=40),
)
_dedup_candidate = st.builds(
    lambda text, template, provider, model, malformed: (
        CandidateCQ(text, 0, template, provider, model_name=model).removed(
            RemovalReason.MALFORMED
        )
        if malformed
        else CandidateCQ(text, 0, template, provider, model_name=model)
    ),
    _dedup_text,
    st.sampled_from(["P1", "P2"]),
    st.sampled_from(["m", "n"]),
    st.sampled_from(["", "gpt-4"]),
    st.booleans(),
)


@pytest.fixture(scope="module")
def mock_cells():
    """Mock questions for the Video Game fixture: three templates, two
    models and three seeds, so each (template, provider, model) cell holds
    about 200 questions; every seventh is pre-removed as malformed."""
    raw = ontology.parse_ontology((FIXTURES / "videogame_20.nt").read_text(), "ntriples")
    statements = ontology.filter_statements(raw, "vg").statements
    providers = [gateway.mock_provider("a"), gateway.mock_provider("b")]
    cells = [
        CandidateCQ(q, r.statement_ordinal, r.template_id, r.provider_id, model_name=r.model_name)
        for seed in (0, 1, 2)
        for r in gateway.generate_records(statements, ["P1", "P2", "P3"], providers, seed=seed)
        for q in r.questions
    ]
    return [c.removed(RemovalReason.MALFORMED) if i % 7 == 6 else c for i, c in enumerate(cells)]


class TestDedupOracle:
    @given(
        st.lists(_dedup_candidate, max_size=10),
        st.integers(min_value=0, max_value=100),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_reference(self, candidates, threshold, global_dedup):
        cfg = FiltrationConfig(dedup_ratio_threshold=threshold, global_dedup=global_dedup)
        got = dedup(candidates, cfg)
        want = oracle_dedup(candidates, cfg)
        assert [(c.kept, c.removal_reason) for c in got] == [
            (c.kept, c.removal_reason) for c in want
        ]

    @pytest.mark.parametrize("global_dedup", [False, True])
    @pytest.mark.parametrize("threshold", [0, 50, 70, 90, 100])
    def test_mock_cells_match_scan_reference(self, mock_cells, threshold, global_dedup):
        cfg = FiltrationConfig(dedup_ratio_threshold=threshold, global_dedup=global_dedup)
        assert dedup(mock_cells, cfg) == scan_dedup(mock_cells, cfg)

    def test_mock_cells_grow_pools_past_a_hundred_forms(self, mock_cells):
        out = dedup(mock_cells, FiltrationConfig(dedup_ratio_threshold=90))
        kept_per_cell = Counter((c.template_id, c.model_name) for c in out if c.kept)
        assert min(kept_per_cell.values()) >= 100

    def test_bound_equal_to_distance_at_threshold_is_a_duplicate(self):
        # 50-character forms five substitutions apart: the ratio is
        # 100 * (1 - 5/50) == 90.0, but 50 * (1 - 0.9) is 4.999..., so a
        # prune on that cut-off would drop this pair.
        a = "aaaaaaaaaa bbbbbbbbb ccccccccc ddddddddd eeeeeeeee?"
        b = "aaaaaaaaaz bbbbbbbbz ccccccccz ddddddddz eeeeeeeez?"
        sa, sb = filtration._token_sorted(a), filtration._token_sorted(b)
        assert len(sa) == len(sb) == 50
        assert oracle_levenshtein(sa, sb) == 5
        ca, cb = Counter(sa), Counter(sb)
        assert (sum(((ca - cb) + (cb - ca)).values()) + abs(len(sa) - len(sb))) // 2 == 5
        assert 50 * (1 - 90 / 100) < 5
        out = dedup([CandidateCQ(a, 0, "P1", "m"), CandidateCQ(b, 1, "P1", "m")])
        assert out[1].removal_reason is RemovalReason.DUPLICATE

    def test_counts_past_int16_keep_the_decision(self):
        # 33,000 copies of one letter do not fit an int16 count.
        a, b = "a" * 33000 + "?", "a" * 33000 + " b?"
        out = dedup([CandidateCQ(a, 0, "P1", "m"), CandidateCQ(b, 1, "P1", "m")])
        assert out[1].removal_reason is RemovalReason.DUPLICATE

    def test_long_forms_at_threshold_boundary(self):
        # 71-character token-sorted forms one edit apart: ratio 100 * 70/71.
        base = " ".join(["achievement"] * 5 + ["guild"] * 2)
        a, b = base + "?", base.replace("guild", "guilt", 1) + "?"
        assert oracle_ratio(a, b) == pytest.approx(100.0 * 70 / 71)
        for threshold, removed in ((98, True), (99, False)):
            cfg = FiltrationConfig(dedup_ratio_threshold=threshold)
            out = dedup([CandidateCQ(a, 0, "P1", "m"), CandidateCQ(b, 1, "P1", "m")], cfg)
            assert (not out[1].kept) is removed


class TestPrimitive:
    @pytest.mark.parametrize(
        "q",
        [
            "is multiplayer a class?",
            "what class does multiplayer belong to?",
            "does the achievement have any subclasses?",
            "what is the subclass of multiplayer?",
            "which concepts are subclass of achievement?",
            "is there a hierarchical relationship between multiplayer and achievement?",
            "what specific class is under the achievement class in the ontology?",
            "what is the domain of hasusername?",
            "is username a property?",
            "is hippocamp an instance of satellite?",
        ],
    )
    def test_primitive_true(self, q):
        assert is_modelling_primitive(q)

    @pytest.mark.parametrize(
        "q",
        [
            "what is a multiplayer achievement?",
            "what is the relationship between multiplayer and achievement?",
            "how do multiplayer achievements compare to single player achievements?",
        ],
    )
    def test_primitive_false(self, q):
        assert not is_modelling_primitive(q)

    def test_strict_matches_bare_keywords(self):
        cfg = FiltrationConfig(strictness=Strictness.STRICT)
        assert is_modelling_primitive("tell me about this ontology?", cfg)
        assert is_modelling_primitive("what individual owns the guild?", cfg)
        assert not is_modelling_primitive("what is a multiplayer achievement?", cfg)

    def test_off_never_matches(self):
        cfg = FiltrationConfig(strictness=Strictness.OFF)
        assert not is_modelling_primitive("is multiplayer a class?", cfg)


ENVISION = (
    "could you envision a future where multiplayer games abandon traditional "
    "achievements in favour of more dynamic, player-driven goals and "
    "objectives? why or why not?"
)


class TestNarrative:
    @pytest.mark.parametrize(
        "q",
        [
            ENVISION,
            "can you design a multiplayer game mode that incorporates "
            "achievements as rewards for collaboration and teamwork?",
            "can you name an example of a multiplayer game that has a strong "
            "focus on achievements and describe how they are used in the game?",
            "what strategies do you use to succeed in multiplayer games?",
            "how do you measure your progress in multiplayer games?",
            "what do you do to stay ahead of the competition in multiplayer games?",
            "in your opinion, which achievement matters most?",
            "how do players earn this achievement in the game? are there "
            "specific requirements or challenges that must be completed?",
        ],
    )
    def test_narrative_true(self, q):
        assert is_subjective_narrative(q)

    @pytest.mark.parametrize(
        "q",
        [
            "what is the definition of a multiplayer achievement?",
            "how do multiplayer games typically incorporate achievements into "
            "their gameplay mechanics?",
            "in what ways can multiplayer games use achievements to encourage "
            "player engagement and competition?",
        ],
    )
    def test_narrative_false(self, q):
        assert not is_subjective_narrative(q)

    def test_off_never_matches(self):
        cfg = FiltrationConfig(strictness=Strictness.OFF)
        assert not is_subjective_narrative(ENVISION, cfg)


def oracle_pattern_outcomes(questions):
    """Apply the default pattern tables row by row, independently of the
    pipeline, returning the expected removal reason per question."""
    primitive = [re.compile(p) for p in DEFAULT_PRIMITIVE_PATTERNS]
    narrative = [re.compile(p) for p in DEFAULT_NARRATIVE_PATTERNS]
    outcomes = []
    for _, text in questions:
        q = normalize_question(text)
        if any(p.search(q) for p in primitive):
            outcomes.append(RemovalReason.MODELLING_PRIMITIVE)
        elif any(p.search(q) for p in narrative):
            outcomes.append(RemovalReason.SUBJECTIVE_NARRATIVE)
        else:
            outcomes.append(None)
    return outcomes


class TestFilterQuestions:
    def test_table2_gpt35_rows_against_pattern_oracle(self):
        # All four P2 questions probe the reader's habits ("do you use",
        # "how do you measure your", "what do you do to") and fall to the
        # narrative table; the P1/P3 rows survive.
        expected = oracle_pattern_outcomes(GPT35_QUESTIONS)
        out = filter_questions(records_for(GPT35_QUESTIONS))
        assert [c.removal_reason for c in out] == expected
        removed_texts = {c.text for c in out if not c.kept}
        assert removed_texts == {
            "What strategies do you use to succeed in multiplayer games?",
            "What techniques do you use to maximize your achievements in multiplayer games?",
            "How do you measure your progress in multiplayer games?",
            "What do you do to stay ahead of the competition in multiplayer games?",
        }
        assert all(
            c.removal_reason is RemovalReason.SUBJECTIVE_NARRATIVE
            for c in out
            if not c.kept
        )

    def test_section_3_3_examples_removed_with_reasons(self):
        records = [
            GenerationRecord(0, "P1", "m", ("Is Multiplayer a class?",)),
            GenerationRecord(1, "P1", "m", (ENVISION,)),
        ]
        out = filter_questions(records)
        assert out[0].removal_reason is RemovalReason.MODELLING_PRIMITIVE
        assert out[1].removal_reason is RemovalReason.SUBJECTIVE_NARRATIVE

    def test_malformed(self):
        records = [GenerationRecord(0, "P1", "m", ("not a question", "", "Real one?"))]
        out = filter_questions(records)
        assert out[0].removal_reason is RemovalReason.MALFORMED
        assert out[1].removal_reason is RemovalReason.MALFORMED
        assert out[2].kept

    def test_duplicate_of_primitive_counts_as_duplicate(self):
        records = [
            GenerationRecord(0, "P1", "m", ("What is the subclass of Multiplayer?",)),
            GenerationRecord(1, "P1", "m", ("What is the subclass of Multiplayer?",)),
        ]
        out = filter_questions(records)
        assert out[0].removal_reason is RemovalReason.MODELLING_PRIMITIVE
        assert out[1].removal_reason is RemovalReason.DUPLICATE

    def test_empty_input(self):
        assert filter_questions([]) == []

    def test_partition_identity(self):
        out = filter_questions(records_for(GPT35_QUESTIONS))
        assert len(out) == len(GPT35_QUESTIONS)
        assert len(kept_questions(out)) + sum(1 for c in out if not c.kept) == len(out)

    def test_refiltering_kept_is_identity(self):
        out = filter_questions(records_for(GPT35_QUESTIONS))
        kept = kept_questions(out)
        records = [
            GenerationRecord(c.statement_ordinal, c.template_id, c.provider_id, (c.text,))
            for c in kept
        ]
        again = filter_questions(records)
        assert all(c.kept for c in again)
        assert [c.text for c in again] == [c.text for c in kept]

    def test_exactly_one_reason_per_removal(self):
        out = filter_questions(records_for(GPT35_QUESTIONS))
        for c in out:
            assert (c.status == "removed") == (c.removal_reason is not None)

    def test_off_and_threshold_100_removes_only_exact_dupes_and_malformed(self):
        cfg = FiltrationConfig(dedup_ratio_threshold=100, strictness=Strictness.OFF)
        records = [
            GenerationRecord(0, "P1", "m", ("Is Multiplayer a class?",)),
            GenerationRecord(1, "P1", "m", ("Is Multiplayer a class?",)),
            GenerationRecord(2, "P1", "m", (ENVISION,)),
            GenerationRecord(3, "P1", "m", ("no quesion mark",)),
        ]
        out = filter_questions(records, cfg)
        assert out[0].kept
        assert out[1].removal_reason is RemovalReason.DUPLICATE
        assert out[2].kept
        assert out[3].removal_reason is RemovalReason.MALFORMED


_word = st.sampled_from(
    "player game achievement reward guild score level what how badge".split()
)
_question = st.lists(_word, min_size=1, max_size=6).map(lambda ws: " ".join(ws) + "?")


class TestProperties:
    @given(st.lists(_question, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_partition(self, questions):
        out = filter_questions(
            [GenerationRecord(i, "P1", "m", (q,)) for i, q in enumerate(questions)]
        )
        assert len(out) == len(questions)
        assert sum(c.kept for c in out) + sum(not c.kept for c in out) == len(out)

    @given(st.lists(_question, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_idempotence(self, questions):
        out = filter_questions(
            [GenerationRecord(i, "P1", "m", (q,)) for i, q in enumerate(questions)]
        )
        kept = kept_questions(out)
        again = filter_questions(
            [
                GenerationRecord(c.statement_ordinal, "P1", "m", (c.text,))
                for c in kept
            ]
        )
        assert all(c.kept for c in again)

    @given(
        st.lists(_question, max_size=12),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_dedup_threshold_monotonicity(self, questions, t1, t2):
        low, high = sorted((t1, t2))
        records = [
            GenerationRecord(i, "P1", "m", (q,)) for i, q in enumerate(questions)
        ]

        def removed_as_dup(threshold):
            cfg = FiltrationConfig(
                dedup_ratio_threshold=threshold, strictness=Strictness.OFF
            )
            return sum(
                1
                for c in filter_questions(records, cfg)
                if c.removal_reason is RemovalReason.DUPLICATE
            )

        assert removed_as_dup(high) <= removed_as_dup(low)
