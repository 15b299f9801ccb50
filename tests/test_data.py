import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrec.data import (
    DataFormatError,
    SyntheticSpec,
    build_corpus,
    generate_synthetic,
    parse_jsonl,
    parse_mind_behaviors,
    parse_mind_news,
    read_jsonl,
    serialize_jsonl,
    split_by_time,
    subsample_users,
    unresolved_ids,
)
from flowrec.errors import ConfigError

NEWS_LINE = "N1\tsports\tsoccer\tTitle A\tAbstract A\thttp://x\t[]\t[]"
BEHAVIOR_LINE = "1\tU1\t11/11/2019 9:05:58 AM\tN10 N11\tN20-1 N21-0"


class TestMindNews:
    def test_single_line(self):
        result = parse_mind_news([NEWS_LINE])
        assert not result.errors
        (article,) = result.articles
        assert article.article_id == "N1"
        assert article.title == "Title A"
        assert article.body == "Abstract A"
        assert article.attributes == {"category": "sports", "subcategory": "soccer"}

    def test_empty_stream(self):
        result = parse_mind_news([])
        assert result.articles == [] and result.errors == []

    def test_short_line_errors_and_parsing_continues(self):
        lines = ["N9\tcat\tsub", NEWS_LINE]
        result = parse_mind_news(lines)
        assert len(result.articles) == 1
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 1

    def test_duplicate_id_is_record_error(self):
        result = parse_mind_news([NEWS_LINE, NEWS_LINE])
        assert len(result.articles) == 1
        assert "duplicate" in result.errors[0].message

    def test_totals_match_line_counts(self):
        lines = [NEWS_LINE, "bad", "N2\tc\ts\tT\tA\tu\t[]\t[]", "N2\tc\ts\tT\tA\tu\t[]\t[]"]
        result = parse_mind_news(lines)
        assert len(result.articles) + len(result.errors) == len(lines)


class TestMindBehaviors:
    def test_single_line(self):
        result = parse_mind_behaviors([BEHAVIOR_LINE])
        assert not result.errors
        (imp,) = result.impressions
        assert imp.user_id == "U1"
        assert imp.history == ["N10", "N11"]
        assert imp.candidates == [("N20", 1), ("N21", 0)]
        assert imp.timestamp > 0

    def test_empty_history(self):
        result = parse_mind_behaviors(["1\tU1\t11/11/2019 9:05:58 AM\t\tN20-1"])
        (imp,) = result.impressions
        assert imp.history == []

    def test_bad_candidate_suffix(self):
        result = parse_mind_behaviors(["1\tU1\t11/11/2019 9:05:58 AM\tN10\tN20-2"])
        assert not result.impressions
        assert "N20-2" in result.errors[0].message

    def test_history_order_preserved(self):
        result = parse_mind_behaviors(["1\tU1\t0\tN3 N1 N2\tN5-0 N4-1"])
        assert result.impressions[0].history == ["N3", "N1", "N2"]


@pytest.mark.parametrize("parse,line", [(parse_mind_news, NEWS_LINE), (parse_mind_behaviors, BEHAVIOR_LINE)],
                         ids=["news", "behaviors"])
def test_mind_line_not_utf8_is_one_error(parse, line):
    result = parse([line.encode() + b"\n", b"\n", line.encode().replace(b"1", b"\xff") + b"\n"])
    assert len(result.articles) + len(result.impressions) == 1
    (error,) = result.errors
    assert error.line_no == 3 and "not UTF-8" in error.message


class TestJsonl:
    def test_article_record(self):
        line = json.dumps({"kind": "article", "id": "a1", "title": "t", "body": "b",
                           "attributes": {"position": "engineer"}})
        result = parse_jsonl([line])
        (article,) = result.articles
        assert article.attributes["position"] == "engineer"

    def test_impression_record(self):
        line = json.dumps({"kind": "impression", "id": "i1", "user": "u1", "timestamp": 0,
                           "history": [], "candidates": [["a1", 1]]})
        result = parse_jsonl([line])
        (imp,) = result.impressions
        assert imp.candidates == [("a1", 1)]

    def test_unknown_kind_is_error(self):
        result = parse_jsonl([json.dumps({"kind": "x"})])
        assert not result.articles and not result.impressions
        assert "unknown kind" in result.errors[0].message

    def test_bad_label_is_error(self):
        line = json.dumps({"kind": "impression", "id": "i", "user": "u", "timestamp": 0,
                           "history": [], "candidates": [["a1", 2]]})
        result = parse_jsonl([line])
        assert result.errors

    def test_round_trip_is_normalizing(self):
        messy = [
            json.dumps({"title": "t", "id": "a1", "kind": "article", "body": "b",
                        "attributes": {"z": "1", "a": "2"}}),
            json.dumps({"kind": "impression", "user": "u", "id": "i1", "candidates": [["a1", 0]],
                        "history": ["a1"], "timestamp": 3}),
        ]
        once = parse_jsonl(messy)
        normalized = list(serialize_jsonl(once.articles, once.impressions))
        twice = parse_jsonl(normalized)
        assert list(serialize_jsonl(twice.articles, twice.impressions)) == normalized

    def test_summary_survives_round_trip(self):
        result = parse_jsonl([json.dumps({"kind": "article", "id": "a", "title": "t",
                                          "body": "b", "summary": "s"})])
        line = list(serialize_jsonl(result.articles, []))[0]
        assert parse_jsonl([line]).articles[0].summary == "s"


ARTICLE = {"kind": "article", "id": "a1", "title": "t", "body": "b", "summary": "s", "attributes": {"c": "x"}}
IMPRESSION = {"kind": "impression", "id": "i1", "user": "u", "timestamp": 3, "history": ["a1"],
              "candidates": [["a1", 1]]}

# Each record once parsed to a wrong value or raised out of parse_jsonl.
BAD_RECORDS = {
    "list-line": ([ARTICLE], "must be a JSON object"),
    "string-line": ("article", "must be a JSON object"),
    "attributes-a-list": ({**ARTICLE, "attributes": ["c"]}, "attributes must be an object"),
    "summary-a-number": ({**ARTICLE, "summary": 3}, "summary must be"),
    "no-candidates": ({**IMPRESSION, "candidates": []}, "non-empty list"),
    "candidate-not-a-pair": ({**IMPRESSION, "candidates": [["a1", 1, 0]]}, r"\[id, label\] pairs"),
    "label-a-fraction": ({**IMPRESSION, "candidates": [["a1", 0.7]]}, "labels must be 0 or 1"),
    "label-a-string": ({**IMPRESSION, "candidates": [["a1", "1"]]}, "labels must be 0 or 1"),
    "history-a-string": ({**IMPRESSION, "history": "abc"}, "history must be a list"),
    "timestamp-a-float": ({**IMPRESSION, "timestamp": 1.5}, "timestamp must be an integer"),
    "timestamp-infinite": ({**IMPRESSION, "timestamp": math.inf}, "timestamp must be an integer"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

# Fields of which tab-joined lists are sometimes MIND records.
MIND_FIELDS = (st.sampled_from(["N1", "U1", "0", "11/11/2019 9:05:58 AM", "N1 N2", "N1-1 N2-0", ""])
               | st.text(max_size=6))


def near(record):
    """Records like ``record`` with each field kept, dropped or replaced by an arbitrary value."""
    return st.fixed_dictionaries({}, optional={k: st.just(v) | JSON_VALUES for k, v in record.items()})


class TestJsonlRecordErrors:
    @pytest.mark.parametrize("record,message", BAD_RECORDS.values(), ids=BAD_RECORDS)
    def test_bad_record_is_one_error(self, record, message):
        result = parse_jsonl([json.dumps(ARTICLE), json.dumps(record)])
        assert len(result.articles) == 1 and not result.impressions
        (error,) = result.errors
        assert error.line_no == 2
        assert re.search(message, error.message)

    def test_line_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(json.dumps(ARTICLE).encode() + b"\n" + b'{"kind": "\xff"}\n\n'
                         + json.dumps(IMPRESSION).encode() + b"\n")
        result = read_jsonl(path)
        assert len(result.articles) == len(result.impressions) == 1
        (error,) = result.errors
        assert error.line_no == 2 and "not UTF-8" in error.message

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(near(ARTICLE).map(json.dumps) | near(IMPRESSION).map(json.dumps)
                    | JSON_VALUES.map(json.dumps) | st.text(max_size=20) | st.binary(max_size=20), max_size=8))
    def test_every_non_blank_line_is_a_record_or_an_error(self, lines):
        assert_every_non_blank_line_is_a_record_or_an_error(parse_jsonl, lines)


def assert_every_non_blank_line_is_a_record_or_an_error(parse, lines):
    def blank(line):
        try:
            return not (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
        except UnicodeDecodeError:
            return False

    result = parse(lines)
    assert len(result.articles) + len(result.impressions) + len(result.errors) == sum(
        not blank(line) for line in lines)
    assert len({e.line_no for e in result.errors}) == len(result.errors)


@pytest.mark.parametrize("parse", [parse_mind_news, parse_mind_behaviors], ids=["news", "behaviors"])
@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.sampled_from([NEWS_LINE, BEHAVIOR_LINE]) | st.text(max_size=20) | st.binary(max_size=20)
                | st.lists(MIND_FIELDS, max_size=7).map("\t".join), max_size=8))
def test_every_non_blank_mind_line_is_a_record_or_an_error(parse, lines):
    assert_every_non_blank_line_is_a_record_or_an_error(parse, lines)


class TestCorpusUtilities:
    def test_build_corpus_rejects_duplicates(self):
        from conftest import make_article
        with pytest.raises(DataFormatError):
            build_corpus([make_article("a"), make_article("a")])

    def test_unresolved_ids(self):
        from conftest import make_article, make_impression
        corpus = build_corpus([make_article("a1")])
        imps = [make_impression("i", history=["a1", "ghost"], candidates=[("a1", 1), ("gone", 0)])]
        assert unresolved_ids(corpus, imps) == {"ghost", "gone"}

    def test_subsample_users_deterministic(self):
        from conftest import make_impression
        imps = [make_impression(f"i{k}", user=f"u{k % 7}") for k in range(30)]
        first = subsample_users(imps, 3, seed=4)
        second = subsample_users(imps, 3, seed=4)
        assert [i.impression_id for i in first] == [i.impression_id for i in second]
        assert len({i.user_id for i in first}) == 3

    def test_split_by_time_takes_latest(self):
        from conftest import make_impression
        imps = [make_impression(f"i{k}", timestamp=k) for k in range(20)]
        train, val = split_by_time(imps, 0.1)
        assert len(val) == 2
        assert {i.timestamp for i in val} == {18, 19}


# Each world's spec and the SHA-256 of its JSONL lines plus its sorted truth JSON.
PINNED_WORLDS = {
    "planted-bilinear": (dict(n_users=7, n_articles=30, n_impressions=25, topic_count=5, seed=3,
                              click_rule="planted-bilinear", history_length=5, candidates_per_impression=7),
                         "da60af4733ae88923ad5eaa26d27191a0b1dba23882f5860fcb0078658538761"),
    "topic-affinity": (dict(n_users=7, n_articles=30, n_impressions=25, topic_count=5, seed=3,
                            click_rule="topic-affinity", history_length=5, candidates_per_impression=7),
                       "880b0c454cf8319fb652ea179fa40c781758bce48601d7a6832f21dc2ebe43e1"),
    "flow-mix": (dict(n_users=7, n_articles=30, n_impressions=25, topic_count=5, seed=3,
                      click_rule="flow-mix", history_length=5, candidates_per_impression=7),
                 "27b2577db0d78bd8c101f1e505fdd6a29d3035032b4d8e9fdba55cbabac8be6f"),
    "flow-mix-empty-topics": (dict(n_users=4, n_articles=3, n_impressions=10, topic_count=9, seed=5,
                                   click_rule="flow-mix", history_length=2, candidates_per_impression=4),
                              "c31a2ae6f469e235727366c042907cf8629b4b5f04af1d133545fcfa6a5e3dd6"),
    "recover-desk": (dict(n_users=50, n_articles=200, n_impressions=2500, topic_count=8, seed=7,
                          click_rule="planted-bilinear"),
                     "6461648ba101a0c02df9b1a20e60835f4e7976a6f72d7394732e6cb6ca135036"),
}


@pytest.mark.parametrize("name", PINNED_WORLDS)
def test_synthetic_world_is_pinned(name):
    """Each world is byte for byte the one the planted-recovery bars were set on.

    The recover-desk AUC bar and the recovery and ablation criteria of
    ``test_acceptance.py`` were calibrated on these exact worlds, so a change to
    the generator's draw order, or a numpy release that changes ``Generator``
    streams, would move those bars too; this test says so first.
    """
    spec, want = PINNED_WORLDS[name]
    ds = generate_synthetic(SyntheticSpec(**spec))
    digest = hashlib.sha256()
    for line in serialize_jsonl(ds.articles, ds.impressions):
        digest.update(line.encode("utf-8") + b"\n")
    digest.update(json.dumps(ds.truth, sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == want


class TestSynthetic:
    def test_same_seed_byte_identical(self):
        spec = SyntheticSpec(n_users=6, n_articles=30, n_impressions=40, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(SyntheticSpec(n_users=6, n_articles=30, n_impressions=40, seed=9))
        assert "\n".join(serialize_jsonl(a.articles, a.impressions)) == \
               "\n".join(serialize_jsonl(b.articles, b.impressions))

    def test_single_topic_shares_category(self):
        ds = generate_synthetic(SyntheticSpec(n_users=3, n_articles=10, n_impressions=5,
                                              topic_count=1, seed=2))
        assert {a.attributes["category"] for a in ds.articles} == {"topic0"}

    def test_all_ids_resolve(self):
        ds = generate_synthetic(SyntheticSpec(n_users=5, n_articles=25, n_impressions=30, seed=3))
        assert not unresolved_ids(ds.corpus, ds.impressions)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError, match="n_users"):
            SyntheticSpec(n_users=0).validate()
        with pytest.raises(ConfigError, match="seed"):
            SyntheticSpec(seed=-1).validate()
        with pytest.raises(ConfigError, match="click_rule"):
            SyntheticSpec(click_rule="nope").validate()

    @pytest.mark.parametrize("rule", ["planted-bilinear", "topic-affinity", "flow-mix"])
    def test_positive_rate_matches_planted_mean(self, rule):
        # Monte-Carlo oracle: labels are Bernoulli draws of the recorded
        # planted probabilities, so the empirical rate must sit within a few
        # standard errors of their mean.
        spec = SyntheticSpec(n_users=50, n_articles=200, n_impressions=500, seed=7,
                             click_rule=rule)
        ds = generate_synthetic(spec)
        labels = [y for imp in ds.impressions for _, y in imp.candidates]
        planted = [p for probs in ds.truth["candidate_probs"] for p in probs]
        assert len(labels) == len(planted)
        analytic_mean = sum(planted) / len(planted)
        empirical = sum(labels) / len(labels)
        assert abs(empirical - analytic_mean) < 0.05

    def test_flow_mix_probabilities_follow_rule(self):
        # Independent re-evaluation of the flow-mix logit from the truth dump.
        spec = SyntheticSpec(n_users=8, n_articles=40, n_impressions=30, seed=11,
                             click_rule="flow-mix")
        ds = generate_synthetic(spec)
        truth = ds.truth
        pars = truth["flow_mix_params"]
        topics = truth["article_topics"]
        engagement = truth["article_engagement"]
        art_index = {a.article_id: i for i, a in enumerate(ds.articles)}
        for imp, probs in zip(ds.impressions, truth["candidate_probs"]):
            user_k = int(imp.user_id[1:])
            fav = truth["position_topic"][truth["user_position"][user_k]]
            for (cand_id, _), recorded in zip(imp.candidates, probs):
                z = topics[art_index[cand_id]]
                same = [art_index[h] for h in imp.history if topics[art_index[h]] == z]
                logit = pars["bias"] + pars["beta_profile"] * (z == fav)
                if same:
                    mean_eng = sum(engagement[i] for i in same) / len(same)
                    logit += pars["beta_instant"] * (2.0 * mean_eng - 1.0)
                assert math.isclose(recorded, 1.0 / (1.0 + math.exp(-logit)), rel_tol=1e-12)
