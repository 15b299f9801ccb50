import json
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import make_article
from flowrec.errors import ConfigError
from flowrec.summarize import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    MODEL_ENV,
    TEMPLATES,
    CompletionError,
    ProfileProvider,
    RemoteCompletionClient,
    ReplayCompletionClient,
    StubCompletionClient,
    SummaryCache,
    TemplateError,
    completion_key,
    prompt_sha,
    render_user_profile_prompt,
    summarize_article,
    summarize_corpus,
    summarize_user,
)
from flowrec.text import word_count


class TestTemplates:
    def test_mind_profile_prompt_exact(self):
        history = [make_article("a", title="T1"), make_article("b", title="T2")]
        prompt = render_user_profile_prompt(history, {}, TEMPLATES["user_profile_mind"])
        assert prompt == ("Please summarize the user's news browsing content. "
                          "Here is the browsing history: T1\nT2")

    def test_ata_profile_prompt_fills_user_attrs(self):
        history = [make_article("a", title="T1")]
        attrs = {"position": "engineer", "organization": "infra", "skill": "search"}
        prompt = render_user_profile_prompt(history, attrs, TEMPLATES["user_profile_ata"])
        assert "I am a engineer from infra" in prompt
        assert "my skills are search" in prompt

    def test_mind_summary_prompt_fills_category_and_body(self):
        article = make_article("a", title="T", body="B.", category="sports")
        prompt = TEMPLATES["article_summary_mind"].render(
            {"article_title": article.title, "article_body": article.body,
             **article.attributes})
        assert prompt.startswith("This is an article about sports,")
        assert prompt.endswith("piquing the reader's interest: B.")

    def test_missing_placeholder_named_in_error(self):
        history = [make_article("a", title="T1")]
        with pytest.raises(TemplateError, match=r"\[position\]"):
            render_user_profile_prompt(history, {"organization": "o", "skill": "s"},
                                       TEMPLATES["user_profile_ata"])

    def test_empty_history_rejected(self):
        with pytest.raises(TemplateError):
            render_user_profile_prompt([], {}, TEMPLATES["user_profile_mind"])

    def test_summaries_included_when_present(self):
        history = [make_article("a", title="T1")]
        history[0].summary = "S1"
        prompt = render_user_profile_prompt(history, {}, TEMPLATES["user_profile_mind"],
                                            include_summaries=True)
        assert "T1: S1" in prompt


class TestStubClient:
    def test_short_body_returned_verbatim(self):
        article = make_article("a", title="Head", body="tiny body.", category="c")
        client = StubCompletionClient(summary_budget=50)
        assert summarize_article(article, TEMPLATES["article_summary_mind"], client) == "tiny body."

    def test_long_body_prefixed_with_title_and_budgeted(self):
        body = " ".join(f"w{i} token." for i in range(200))
        article = make_article("a", title="Head Line", body=body, category="c")
        client = StubCompletionClient(summary_budget=20, lead_sentences=2)
        summary = summarize_article(article, TEMPLATES["article_summary_mind"], client)
        assert summary.startswith("Head Line.")
        assert word_count(summary) <= 20

    def test_budget_never_exceeded(self):
        client = StubCompletionClient(summary_budget=12, lead_sentences=5)
        for n in (3, 12, 40, 300):
            body = " ".join(f"tok{i}" for i in range(n)) + "."
            article = make_article("a", title="T", body=body, category="c")
            out = summarize_article(article, TEMPLATES["article_summary_mind"], client)
            assert word_count(out) <= 12

    def test_profile_contains_frequent_tokens(self):
        history = [make_article(f"a{i}", title="rust compiler notes") for i in range(3)]
        client = StubCompletionClient(profile_top_n=3)
        text = summarize_user(history, {}, TEMPLATES["user_profile_mind"], client)
        assert "rust" in text and "compiler" in text

    def test_profile_mentions_user_attrs(self):
        history = [make_article("a", title="t")]
        client = StubCompletionClient()
        text = summarize_user(history, {"position": "analyst", "organization": "org1",
                                        "skill": "sql"},
                              TEMPLATES["user_profile_ata"], client)
        assert "analyst" in text

    def test_deterministic_across_calls(self):
        article = make_article("a", title="T", body="one two. three four. five.", category="c")
        client = StubCompletionClient(summary_budget=4)
        first = summarize_article(article, TEMPLATES["article_summary_mind"], client)
        second = summarize_article(article, TEMPLATES["article_summary_mind"], client)
        assert first == second

    def test_empty_body_rejected(self):
        article = make_article("a", body="", category="c")
        with pytest.raises(CompletionError) as err:
            summarize_article(article, TEMPLATES["article_summary_mind"], StubCompletionClient())
        assert err.value.article_id == "a"


class TestCache:
    def test_second_call_served_from_cache(self, tmp_path):
        article = make_article("a", title="T", body="body text here.", category="c")
        cache = SummaryCache(tmp_path / "cache.jsonl")
        client = StubCompletionClient()
        first = summarize_article(article, TEMPLATES["article_summary_mind"], client, cache)
        assert client.calls == 1
        second = summarize_article(article, TEMPLATES["article_summary_mind"], client, cache)
        assert client.calls == 1
        assert first == second

    def test_cache_survives_restart(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        article = make_article("a", title="T", body="body text here.", category="c")
        summarize_article(article, TEMPLATES["article_summary_mind"], StubCompletionClient(), SummaryCache(path))
        fresh_client = StubCompletionClient()
        out = summarize_article(article, TEMPLATES["article_summary_mind"], fresh_client, SummaryCache(path))
        assert fresh_client.calls == 0
        assert out == "body text here."

    def test_cache_file_is_append_only_jsonl(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SummaryCache(path)
        cache.put("k1", "prompt one", "done")
        cache.put("k1", "prompt one", "overwritten?")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec == {"key": "k1", "prompt_sha": prompt_sha("prompt one"), "completion": "done"}

    def test_torn_last_line_is_dropped_and_overwritten(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SummaryCache(path)
        cache.put("k1", "prompt one", "one")
        cache.put("k2", "prompt two", "two")
        intact = path.read_bytes()
        path.write_bytes(intact[:-9])  # a crash cut the second record mid-append
        with pytest.warns(UserWarning, match="torn last line"):
            torn = SummaryCache(path)
        assert torn.get("k1") == "one" and torn.get("k2") is None
        torn.put("k3", "prompt three", "three")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = SummaryCache(path)
        assert (len(reloaded), reloaded.get("k1"), reloaded.get("k3")) == (2, "one", "three")

    def test_bad_line_mid_file_is_config_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SummaryCache(path)
        cache.put("k1", "prompt one", "one")
        cache.put("k2", "prompt two", "two")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:-5] + "\n" + lines[1])
        with pytest.raises(ConfigError, match="line 1"):
            SummaryCache(path)


class TestReplayClient:
    def _fixture(self, tmp_path, template, prompt, completion):
        path = tmp_path / "fixture.jsonl"
        rec = {"key": completion_key(template, prompt), "prompt_sha": prompt_sha(prompt),
               "completion": completion}
        path.write_text(json.dumps(rec) + "\n")
        return path

    def test_replays_fixture_verbatim(self, tmp_path):
        article = make_article("a", title="T", body="B.", category="c")
        prompt = TEMPLATES["article_summary_mind"].render(
            {"category": "c", "article_body": "B."})
        path = self._fixture(tmp_path, "article_summary_mind", prompt, "recorded words")
        client = ReplayCompletionClient(path)
        assert summarize_article(article, TEMPLATES["article_summary_mind"], client) == "recorded words"

    def test_missing_prompt_errors(self, tmp_path):
        path = self._fixture(tmp_path, "article_summary_mind", "other prompt", "x")
        article = make_article("a", title="T", body="B.", category="c")
        with pytest.raises(CompletionError):
            summarize_article(article, TEMPLATES["article_summary_mind"], ReplayCompletionClient(path))


class _FakeCompletionHandler(BaseHTTPRequestHandler):
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({"path": self.path, "body": body,
                                "auth": self.headers.get("Authorization")})
        raw = json.dumps({"text": "remote summary"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, fmt, *args):
        pass


class _StatusHandler(BaseHTTPRequestHandler):
    """Answers every POST with ``status`` and counts the requests it saw."""

    status = 500
    hits = 0

    def do_POST(self):
        type(self).hits += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        raw = b'{"error": "no"}'
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, fmt, *args):
        pass


class TestRemoteClient:
    def test_missing_credential_fails_before_network(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        monkeypatch.setenv(ENDPOINT_ENV, "http://localhost:1/never")
        monkeypatch.setenv(MODEL_ENV, "m")
        with pytest.raises(ConfigError, match=API_KEY_ENV):
            RemoteCompletionClient()

    def test_wire_format(self, monkeypatch):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeCompletionHandler)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            monkeypatch.setenv(ENDPOINT_ENV, f"http://127.0.0.1:{port}/v1/chat")
            monkeypatch.setenv(MODEL_ENV, "test-model")
            monkeypatch.setenv(API_KEY_ENV, "sekrit")
            client = RemoteCompletionClient(retries=1)
            out = client.complete("article_summary_mind", "hello prompt", {})
            assert out == "remote summary"
            request = _FakeCompletionHandler.seen[-1]
            assert request["body"] == {"model": "test-model",
                                       "messages": [{"role": "user", "content": "hello prompt"}]}
            assert request["auth"] == "Bearer sekrit"
        finally:
            server.shutdown()
            server.server_close()

    def test_retries_then_error_carries_article_id(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:9/unreachable")
        monkeypatch.setenv(MODEL_ENV, "m")
        monkeypatch.setenv(API_KEY_ENV, "k")
        client = RemoteCompletionClient(retries=2, timeout=0.2, backoff=0.0)
        article = make_article("a77", title="T", body="B.", category="c")
        with pytest.raises(CompletionError) as err:
            summarize_article(article, TEMPLATES["article_summary_mind"], client)
        assert err.value.article_id == "a77"

    @pytest.mark.parametrize("status,attempts", [(400, 1), (401, 1), (404, 1), (408, 3), (429, 3),
                                                (500, 3), (503, 3)])
    def test_client_errors_are_not_retried(self, monkeypatch, status, attempts):
        handler = type("Handler", (_StatusHandler,), {"status": status, "hits": 0})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv(ENDPOINT_ENV, f"http://127.0.0.1:{server.server_address[1]}/v1/chat")
            monkeypatch.setenv(MODEL_ENV, "m")
            monkeypatch.setenv(API_KEY_ENV, "k")
            client = RemoteCompletionClient(retries=3, timeout=5.0, backoff=0.0)
            with pytest.raises(CompletionError, match=str(status)):
                client.complete("article_summary_mind", "prompt", {})
        finally:
            server.shutdown()
            server.server_close()
        assert handler.hits == attempts


class TestCorpusSummarization:
    def test_summaries_shorter_than_long_bodies(self):
        long_body = " ".join(f"w{i}." for i in range(120))
        articles = [make_article(f"a{i}", title=f"T{i}", body=long_body, category="c")
                    for i in range(8)]
        client = StubCompletionClient(summary_budget=30)
        summaries, errors = summarize_corpus(articles, TEMPLATES["article_summary_mind"], client)
        assert not errors
        for article in articles:
            assert word_count(summaries[article.article_id]) < word_count(article.body)

    def test_concurrent_equals_serial(self, tmp_path):
        articles = [make_article(f"a{i}", title=f"T{i}",
                                 body=" ".join(f"s{i}w{j}." for j in range(90)), category="c")
                    for i in range(10)]
        serial, _ = summarize_corpus(articles, TEMPLATES["article_summary_mind"],
                                     StubCompletionClient(summary_budget=25))
        threaded, _ = summarize_corpus(articles, TEMPLATES["article_summary_mind"],
                                       StubCompletionClient(summary_budget=25),
                                       SummaryCache(tmp_path / "c.jsonl"), max_workers=4)
        assert serial == threaded

    def test_empty_bodies_reported(self):
        articles = [make_article("ok", body="fine.", category="c"),
                    make_article("empty", body="", category="c")]
        summaries, errors = summarize_corpus(articles, TEMPLATES["article_summary_mind"],
                                             StubCompletionClient())
        assert "ok" in summaries
        assert errors[0].article_id == "empty"

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_template_error_stops_before_any_completion(self, max_workers):
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(200)]
        articles[0].attributes.clear()  # the template's [category] has no value
        client = StubCompletionClient()
        with pytest.raises(TemplateError, match=r"\[category\]"):
            summarize_corpus(articles, TEMPLATES["article_summary_mind"], client, max_workers=max_workers)
        assert client.calls == 0

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_client_bug_cancels_completions_not_started(self, max_workers):
        client = _FirstArticleFails()
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(200)]
        with pytest.raises(RuntimeError, match="client bug"):
            summarize_corpus(articles, TEMPLATES["article_summary_mind"], client, max_workers=max_workers)
        # the failed call, plus at most one started call per worker before the cancel
        assert client.calls <= max_workers + 1

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_completion_errors_are_collected_per_article(self, max_workers):
        client = _SomeArticlesFail(lambda title: int(title[1:]) % 3 == 1)
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(10)]
        summaries, errors = summarize_corpus(articles, TEMPLATES["article_summary_mind"], client,
                                             max_workers=max_workers)
        assert list(summaries) == [f"a{i}" for i in range(10) if i % 3 != 1]
        assert [e.article_id for e in errors] == ["a1", "a4", "a7"]
        assert client.calls == 10

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_client_bug_in_one_worker_stops_the_others(self, max_workers):
        """The failing article is the second one its worker takes; every other
        worker stops before its next completion."""
        client = _SomeArticlesFail(lambda title: title == f"T{max_workers + 1}", bug=True)
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(200)]
        with pytest.raises(RuntimeError, match="client bug"):
            summarize_corpus(articles, TEMPLATES["article_summary_mind"], client, max_workers=max_workers)
        assert client.calls <= 3 * max_workers + 1

    @pytest.mark.parametrize("n_articles", [0, 2])
    def test_starts_at_most_one_thread_per_article(self, monkeypatch, n_articles):
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(n_articles)]
        summaries, errors = summarize_corpus(articles, TEMPLATES["article_summary_mind"], StubCompletionClient(),
                                             max_workers=6)
        assert (len(summaries), errors) == (n_articles, [])
        assert len(started) <= n_articles

    def test_many_workers_under_fast_switching_match_serial(self):
        client = _SomeArticlesFail(lambda title: int(title[1:]) % 7 == 3)
        client.delay = 0.0
        articles = [make_article(f"a{i}", title=f"T{i}", body="words.", category="c") for i in range(300)]
        serial = summarize_corpus(articles, TEMPLATES["article_summary_mind"], client)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = summarize_corpus(articles, TEMPLATES["article_summary_mind"], client, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded[0] == serial[0] and len(serial[0]) == 300 - 43
        assert [e.article_id for e in threaded[1]] == [e.article_id for e in serial[1]]
        assert client.calls == 600


class _SomeArticlesFail:
    """Fails the articles whose title ``fails`` picks: with a CompletionError,
    or, with ``bug``, with an error that is not one; the other calls take ``delay`` s."""

    def __init__(self, fails, bug=False):
        self.fails, self.bug, self.calls, self.delay = fails, bug, 0, 0.02
        self._lock = threading.Lock()

    def complete(self, template_name, prompt, context):
        with self._lock:
            self.calls += 1
        if self.fails(context["title"]):
            raise (RuntimeError("client bug") if self.bug else CompletionError("no completion"))
        time.sleep(self.delay)
        return f"summary of {context['title']}"


class _FirstArticleFails:
    """Fails the first article with an error that is not a CompletionError;
    every other call takes long enough for the failure to be seen first."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, template_name, prompt, context):
        with self._lock:
            self.calls += 1
        if context["title"] == "T0":
            raise RuntimeError("client bug")
        time.sleep(0.3)
        return "summary"


class TestProfileProvider:
    def test_empty_history_is_empty_profile(self, toy_corpus):
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"], StubCompletionClient())
        assert provider.profile_text("u1", []) == ""

    def test_instruct_off_uses_raw_titles(self, toy_corpus):
        provider = ProfileProvider(toy_corpus, TEMPLATES["user_profile_mind"], client=None)
        assert provider.visited_text("u1", ["a1", "a2"]) == "alpha news\nbeta news"
        assert provider.visited_text("u1", ["ghost"]) == ""
