"""Article-body summarization and user-profile text generation.

A pluggable completion client produces the condensed article body and the
constant-interest profile sentence for a user's click history. Three client
flavors exist:

  * ``StubCompletionClient``: deterministic extractive fallback, used by the
    offline test suite and desk-scale runs.
  * ``ReplayCompletionClient``: serves recorded completions keyed by prompt
    hash; a previous run's cache file is a valid fixture file.
  * ``RemoteCompletionClient``: JSON-over-HTTP chat-completion endpoint,
    configured through environment variables.

Article summaries and profiles go through one completion path: render the
prompt, look it up in an optional append-only ``SummaryCache``, else ask the
client and store its non-empty answer, so a corpus is summarized at most
once per distinct prompt, across runs too. ``ProfileProvider`` keeps no memo:
``flowrec.encode.FeatureSource`` asks it once per (user, history), for the
completion profile or, with ``use_instruct_u`` off, the visited-article list.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .data import Article, in_corpus
from .errors import ConfigError
from .text import split_sentences, terms, truncate_words, word_count


class TemplateError(ValueError):
    """A prompt template placeholder could not be filled."""


class CompletionError(RuntimeError):
    """The completion client failed or returned an unusable answer."""

    def __init__(self, message: str, article_id: str | None = None):
        super().__init__(message)
        self.article_id = article_id


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    template: str

    def placeholders(self) -> list[str]:
        return re.findall(r"\[([a-z_]+)\]", self.template)

    def render(self, values: dict[str, str]) -> str:
        out = self.template
        for ph in self.placeholders():
            if ph not in values or values[ph] is None:
                raise TemplateError(f"template {self.name!r} is missing a value for placeholder [{ph}]")
            out = out.replace(f"[{ph}]", values[ph])
        return out


TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        PromptTemplate(
            "article_summary_mind",
            "This is an article about [category], please summarize it in a short "
            "sentence by piquing the reader's interest: [article_body]",
        ),
        PromptTemplate(
            "user_profile_mind",
            "Please summarize the user's news browsing content. "
            "Here is the browsing history: [visited_articles]",
        ),
        PromptTemplate(
            "article_summary_ata",
            "Given an article, the title is [article_title] and the article content "
            "is [article_body], please generate a 200-word summarization according "
            "to the article.",
        ),
        PromptTemplate(
            "user_profile_ata",
            "Given the visited articles: [visited_articles], I am a [position] from "
            "[organization], and my skills are [skill]. Please write a summary of "
            "about 150 words based on the visited articles.",
        ),
    )
}


def completion_key(template_name: str, prompt: str) -> str:
    """Stable cache/replay key for a rendered prompt."""
    digest = hashlib.sha256()
    digest.update(template_name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


def prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _read_cache_file(path) -> tuple[list[dict], int | None]:
    """The records of a cache-format JSONL file, and where a torn last line starts.

    A record is written together with its newline in one append, so a last
    line without a newline was cut short mid-append: it is dropped with a
    warning, and its byte offset is returned (``None`` when there is none).
    Any other line that is not a record raises :class:`ConfigError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    torn_at = None
    if end < len(data):
        warnings.warn(f"{path}: dropping a torn last line ({len(data) - end} bytes without a newline)",
                      stacklevel=2)
        torn_at = end
    records = []
    for number, line in enumerate(data[:end].split(b"\n")[:-1], start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"{path}, line {number}: not JSON ({exc})") from None
        if not (isinstance(rec, dict) and isinstance(rec.get("key"), str)
                and isinstance(rec.get("completion"), str)):
            raise ConfigError(f"{path}, line {number}: not a record with a string key and completion")
        records.append(rec)
    return records, torn_at


class SummaryCache:
    """Append-only JSONL store of completions, survives process restarts.

    Writes are serialized with a lock so concurrent client calls stay safe.
    A torn last line left by a crash is dropped on load and cut off the file
    before the next record is appended.
    """

    def __init__(self, path=None):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        self._torn_at: int | None = None
        if path is not None and os.path.exists(path):
            records, self._torn_at = _read_cache_file(path)
            for rec in records:
                self._entries[rec["key"]] = rec["completion"]

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, prompt: str, completion: str) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = completion
            if self.path is not None:
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)  # the next record starts on a line of its own
                    self._torn_at = None
                rec = {"key": key, "prompt_sha": prompt_sha(prompt), "completion": completion}
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Completion clients
# ---------------------------------------------------------------------------

class StubCompletionClient:
    """Deterministic extractive stand-in for a real language model.

    Article summaries are the title plus the leading body sentences, cut to
    the word budget; a body already inside the budget is returned verbatim.
    Profiles are a sentence listing the most frequent non-stopword tokens
    across the history titles (ties broken alphabetically).
    """

    def __init__(self, summary_budget: int = 60, lead_sentences: int = 3, profile_top_n: int = 6):
        self.summary_budget = summary_budget
        self.lead_sentences = lead_sentences
        self.profile_top_n = profile_top_n
        self.calls = 0

    def complete(self, template_name: str, prompt: str, context: dict) -> str:
        self.calls += 1
        if template_name.startswith("article_summary"):
            return self._summarize_article(context["title"], context["body"])
        if template_name.startswith("user_profile"):
            return self._summarize_user(context["titles"], context.get("attrs", {}))
        raise CompletionError(f"stub client does not understand template {template_name!r}")

    def _summarize_article(self, title: str, body: str) -> str:
        if word_count(body) <= self.summary_budget:
            return body
        lead = " ".join(split_sentences(body)[: self.lead_sentences])
        headline = title if title.endswith((".", "!", "?")) else title + "."
        return truncate_words(f"{headline} {lead}", self.summary_budget)

    def _summarize_user(self, titles: list[str], attrs: dict[str, str]) -> str:
        counts = collections.Counter(terms("\n".join(titles)))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        top = [tok for tok, _ in ranked[: self.profile_top_n]]
        sentence = ("This reader mostly follows " + " ".join(top) + "."
                    if top else "This reader has no stated interests.")
        mention = " ".join(attrs[k] for k in ("position", "organization", "skill") if k in attrs)
        return f"{sentence} Works as {mention}." if mention else sentence


class ReplayCompletionClient:
    """Serves completions recorded in a cache-format fixture file."""

    def __init__(self, fixture_path):
        self.calls = 0
        self._by_key = {rec["key"]: rec["completion"] for rec in _read_cache_file(fixture_path)[0]}

    def complete(self, template_name: str, prompt: str, context: dict) -> str:
        self.calls += 1
        key = completion_key(template_name, prompt)
        if key in self._by_key:
            return self._by_key[key]
        raise CompletionError(f"no recorded completion for prompt (key {key[:12]}...)")


ENDPOINT_ENV = "FLOWREC_LLM_ENDPOINT"
MODEL_ENV = "FLOWREC_LLM_MODEL"
API_KEY_ENV = "FLOWREC_LLM_API_KEY"


class RemoteCompletionClient:
    """Chat-completion client: POST {model, messages:[{role,content}]} -> {text}.

    Endpoint, model name and credential come from the environment
    (``FLOWREC_LLM_ENDPOINT``, ``FLOWREC_LLM_MODEL``, ``FLOWREC_LLM_API_KEY``)
    unless passed explicitly. Missing configuration fails before any network
    traffic happens.
    """

    def __init__(self, endpoint: str | None = None, model: str | None = None,
                 api_key: str | None = None, retries: int = 3, timeout: float = 30.0,
                 backoff: float = 0.5):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.model = model or os.environ.get(MODEL_ENV)
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.endpoint:
            raise ConfigError(f"remote completion endpoint not configured (set {ENDPOINT_ENV})")
        if not self.model:
            raise ConfigError(f"remote completion model not configured (set {MODEL_ENV})")
        if not self.api_key:
            raise ConfigError(f"remote completion credential not configured (set {API_KEY_ENV})")
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.calls = 0

    def complete(self, template_name: str, prompt: str, context: dict) -> str:
        self.calls += 1
        payload = json.dumps(
            {"model": self.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries):
            request = urllib.request.Request(
                self.endpoint,
                data=payload,
                headers={
                    "Content-Type": "application/json",
                    "Authorization": f"Bearer {self.api_key}",
                },
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = json.loads(response.read().decode("utf-8"))
                return str(body["text"])
            except (urllib.error.URLError, KeyError, json.JSONDecodeError, TimeoutError) as exc:
                # A 4xx refuses the request itself: sent again, it gets the same answer.
                # 408 (timeout) and 429 (rate limit) say the same request may succeed later.
                refused = isinstance(exc, urllib.error.HTTPError) and 400 <= exc.code < 500
                if refused and exc.code not in (408, 429):
                    raise CompletionError(f"remote completion refused with HTTP {exc.code}: {exc.reason}") from exc
                last_error = exc
                if attempt + 1 < self.retries:
                    time.sleep(self.backoff * (attempt + 1))
        raise CompletionError(f"remote completion failed after {self.retries} attempts: {last_error}")


# ---------------------------------------------------------------------------
# Summarization operations
# ---------------------------------------------------------------------------

def _article_values(article: Article) -> dict[str, str]:
    values = {"article_title": article.title, "article_body": article.body}
    values.update(article.attributes)
    return values


def _complete(template: PromptTemplate, prompt: str, context: dict, client,
              cache: SummaryCache | None, article_id: str | None = None) -> str:
    """The completion of a rendered prompt: from ``cache`` when it holds one,
    else from ``client``, stored in ``cache`` once it is known to be non-empty."""
    key = completion_key(template.name, prompt) if cache is not None else None
    if cache is not None and (hit := cache.get(key)) is not None:
        return hit
    try:
        completion = client.complete(template.name, prompt, context)
    except CompletionError as exc:
        raise CompletionError(str(exc), article_id) from exc
    if not completion.strip():
        raise CompletionError(f"{template.name} completion was empty", article_id)
    if cache is not None:
        cache.put(key, prompt, completion)
    return completion


def summarize_article(article: Article, template: PromptTemplate, client,
                      cache: SummaryCache | None = None) -> str:
    """Produce the condensed body text for one article."""
    if not article.body:
        raise CompletionError("cannot summarize an article with an empty body", article.article_id)
    prompt = template.render(_article_values(article))
    return _complete(template, prompt, {"title": article.title, "body": article.body}, client, cache,
                     article.article_id)


def render_visited_articles(history: list[Article], include_summaries: bool = False) -> str:
    lines = []
    for article in history:
        if include_summaries and article.summary:
            lines.append(f"{article.title}: {article.summary}")
        else:
            lines.append(article.title)
    return "\n".join(lines)


def render_user_profile_prompt(history: list[Article], user_attrs: dict[str, str],
                               template: PromptTemplate, include_summaries: bool = False) -> str:
    """Fill a profile template with the visited-article list and user attributes."""
    if not history:
        raise TemplateError("cannot render a user profile prompt for an empty history")
    values = dict(user_attrs)
    values["visited_articles"] = render_visited_articles(history, include_summaries)
    return template.render(values)


def summarize_user(history: list[Article], user_attrs: dict[str, str], template: PromptTemplate,
                   client, cache: SummaryCache | None = None, include_summaries: bool = False) -> str:
    """Produce the constant-interest profile text for one user history."""
    prompt = render_user_profile_prompt(history, user_attrs, template, include_summaries)
    return _complete(template, prompt, {"titles": [a.title for a in history], "attrs": dict(user_attrs)},
                     client, cache)


def summarize_corpus(articles: list[Article], template: PromptTemplate, client,
                     cache: SummaryCache | None = None,
                     max_workers: int = 1) -> tuple[dict[str, str], list[CompletionError]]:
    """Summarize every article with a non-empty body; collect per-item errors.

    Returns (article_id -> summary, errors). All prompts are rendered first,
    so a template error stops the run before any client call; completions
    run on ``max(max_workers, 1)`` threads, and any error other than a
    :class:`CompletionError` cancels those not yet started.
    """
    todo = [a for a in articles if a.body]
    errors = [CompletionError("article has an empty body", a.article_id) for a in articles if not a.body]
    prompts = [template.render(_article_values(a)) for a in todo]
    summaries: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=max(max_workers, 1)) as pool:
        futures = [pool.submit(_complete, template, p, {"title": a.title, "body": a.body}, client, cache,
                               a.article_id) for a, p in zip(todo, prompts)]
        try:
            for article, future in zip(todo, futures):
                try:
                    summaries[article.article_id] = future.result()
                except CompletionError as exc:
                    errors.append(exc)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return summaries, errors


@dataclass
class ProfileProvider:
    """Computes the profile texts of one (user, history): :meth:`profile_text`,
    the completion profile, and :meth:`visited_text`, the newline-joined visited
    articles, which needs no client. The model config's ``use_instruct_u`` picks
    one, in :class:`~flowrec.encode.FeatureSource`, which asks once per ``(user,
    history)`` key; the provider keeps no memo, and a ``cache``, when given,
    keeps completions across runs.
    """

    corpus: dict[str, Article]
    template: PromptTemplate
    client: object | None = None
    cache: SummaryCache | None = None
    include_summaries: bool = False
    user_attrs: dict[str, dict[str, str]] = field(default_factory=dict)

    def profile_text(self, user_id: str, history_ids: list[str]) -> str:
        history = [self.corpus[a] for a in in_corpus(self.corpus, history_ids)]
        if not history:
            return ""
        if self.client is None:
            raise ConfigError("a completion profile requires a completion client")
        return summarize_user(history, self.user_attrs.get(user_id, {}), self.template,
                              self.client, self.cache, self.include_summaries)

    def visited_text(self, user_id: str, history_ids: list[str]) -> str:
        history = [self.corpus[a] for a in in_corpus(self.corpus, history_ids)]
        return render_visited_articles(history, self.include_summaries)
