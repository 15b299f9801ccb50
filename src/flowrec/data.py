"""Corpus ingestion: MIND-style TSV logs, a canonical JSONL interchange
format, and seeded synthetic datasets with planted click rules.

Parsers are record-level fault tolerant: each line is decoded on its own,
and a line that is not UTF-8 or is malformed is reported with its line
number while parsing continues. Totals therefore always satisfy
``len(records) + len(errors) == non-blank input lines``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, replacing


class DataFormatError(ValueError):
    """Raised for unrecoverable dataset-level problems (not per-record ones)."""


@dataclass
class Article:
    article_id: str
    title: str
    body: str = ""
    summary: str | None = None
    attributes: dict[str, str] = field(default_factory=dict)

    def body_text(self, use_summary: bool) -> str:
        """The body slice the encoder should see."""
        if use_summary and self.summary is not None:
            return self.summary
        return self.body


@dataclass
class Impression:
    impression_id: str
    user_id: str
    timestamp: int
    history: list[str]                 # article ids, oldest first
    candidates: list[tuple[str, int]]  # (article id, 0/1 label)

    @property
    def labels(self) -> list[int]:
        return [label for _, label in self.candidates]


@dataclass
class ParseError:
    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


@dataclass
class ParseResult:
    articles: list[Article] = field(default_factory=list)
    impressions: list[Impression] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


# ---------------------------------------------------------------------------
# MIND TSV parsers
# ---------------------------------------------------------------------------

_MIND_TIME_FORMATS = ("%m/%d/%Y %I:%M:%S %p", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S")


def _parse_timestamp(raw: str) -> int:
    raw = raw.strip()
    if raw.isdigit() or (raw[:1] == "-" and raw[1:].isdigit()):
        return int(raw)
    for fmt in _MIND_TIME_FORMATS:
        try:
            return int(datetime.strptime(raw, fmt).replace(tzinfo=timezone.utc).timestamp())
        except ValueError:
            continue
    raise ValueError(f"unrecognized timestamp {raw!r}")


def _parse_lines(lines: Iterable[str | bytes], parse: Callable[[str], Article | Impression]) -> ParseResult:
    """The records ``parse`` makes of each non-blank line, decoded on its own and
    without its line end. A line that is not UTF-8, or that ``parse`` rejects
    with a ValueError or KeyError, becomes one :class:`ParseError` with its number."""
    out = ParseResult()
    for line_no, line in enumerate(lines, start=1):
        try:
            text = (line.decode("utf-8") if isinstance(line, bytes) else line).rstrip("\r\n")
            if text.strip():
                rec = parse(text)
                (out.articles if isinstance(rec, Article) else out.impressions).append(rec)
        except UnicodeDecodeError as exc:
            out.errors.append(ParseError(line_no, f"not UTF-8: {exc.reason} at byte {exc.start}"))
        except json.JSONDecodeError as exc:
            out.errors.append(ParseError(line_no, f"invalid JSON: {exc.msg}"))
        except KeyError as exc:
            out.errors.append(ParseError(line_no, f"missing field {exc}"))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            out.errors.append(ParseError(line_no, str(exc)))
    return out


def parse_mind_news(lines: Iterable[str | bytes]) -> ParseResult:
    """Parse news TSV lines: id, category, subcategory, title, abstract, ...

    The abstract column is kept as the article body; url and entity columns
    are ignored. Duplicate ids are rejected per record, first one wins.
    """
    seen: set[str] = set()

    def parse(line: str) -> Article:
        fields = line.split("\t")
        if len(fields) < 5:
            raise ValueError(f"expected >= 5 tab-separated fields, got {len(fields)}")
        article_id, category, subcategory, title, abstract = fields[:5]
        if not article_id:
            raise ValueError("empty article id")
        if article_id in seen:
            raise ValueError(f"duplicate article id {article_id!r}")
        if not title:
            raise ValueError(f"article {article_id!r} has an empty title")
        seen.add(article_id)
        return Article(article_id, title, abstract, attributes={"category": category, "subcategory": subcategory})

    return _parse_lines(lines, parse)


def _parse_behavior(line: str) -> Impression:
    fields = line.split("\t")
    if len(fields) < 5:
        raise ValueError(f"expected 5 tab-separated fields, got {len(fields)}")
    imp_id, user_id, raw_time, raw_history, raw_candidates = fields[:5]
    timestamp = _parse_timestamp(raw_time)
    candidates: list[tuple[str, int]] = []
    for token in raw_candidates.split():
        art_id, dash, label = token.rpartition("-")
        if not dash or label not in ("0", "1") or not art_id:
            raise ValueError(f"candidate token {token!r} must look like '<id>-0' or '<id>-1'")
        candidates.append((art_id, int(label)))
    if not candidates:
        raise ValueError("impression has no candidates")
    return Impression(imp_id, user_id, timestamp, raw_history.split(), candidates)


def parse_mind_behaviors(lines: Iterable[str | bytes]) -> ParseResult:
    """Parse behavior TSV lines: id, user, time, history, labeled candidates.

    History is consumed as given (oldest first). Candidate tokens must end
    in ``-0`` or ``-1``.
    """
    return _parse_lines(lines, _parse_behavior)


# ---------------------------------------------------------------------------
# Canonical JSONL interchange format
# ---------------------------------------------------------------------------

def parse_jsonl(lines: Iterable[str | bytes]) -> ParseResult:
    """Parse the canonical one-object-per-line format.

    Records carry ``kind: "article"`` or ``kind: "impression"``. A line that
    is not UTF-8 or not a JSON object, a record of another kind, and a record
    with a field missing or of the wrong type are record-level errors.
    """
    seen: set[str] = set()

    def parse(line: str) -> Article | Impression:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("a record must be a JSON object")
        kind = rec.get("kind")
        if kind == "article":
            article_id, attributes, summary = str(rec["id"]), rec.get("attributes", {}), rec.get("summary")
            if not isinstance(attributes, dict):
                raise ValueError("attributes must be an object")
            if not isinstance(summary, (str, type(None))):
                raise ValueError("summary must be a string or null")
            if article_id in seen:
                raise ValueError(f"duplicate article id {article_id!r}")
            seen.add(article_id)
            return Article(article_id, str(rec["title"]), str(rec.get("body", "")), summary,
                           {str(k): str(v) for k, v in attributes.items()})
        if kind == "impression":
            history, candidates, timestamp = rec.get("history", []), rec["candidates"], rec.get("timestamp", 0)
            if not isinstance(history, list):
                raise ValueError("history must be a list")
            if not (isinstance(candidates, list) and candidates
                    and all(isinstance(c, list) and len(c) == 2 for c in candidates)):
                raise ValueError("candidates must be a non-empty list of [id, label] pairs")
            if any(type(y) is not int or y not in (0, 1) for _, y in candidates):
                raise ValueError("labels must be 0 or 1")
            if type(timestamp) is not int:
                raise ValueError("timestamp must be an integer")
            return Impression(str(rec["id"]), str(rec["user"]), timestamp,
                              [str(h) for h in history], [(str(a), y) for a, y in candidates])
        raise ValueError(f"unknown kind {kind!r}")

    return _parse_lines(lines, parse)


def article_to_json(article: Article) -> str:
    rec: dict = {
        "kind": "article",
        "id": article.article_id,
        "title": article.title,
        "body": article.body,
    }
    if article.summary is not None:
        rec["summary"] = article.summary
    rec["attributes"] = dict(sorted(article.attributes.items()))
    return json.dumps(rec, ensure_ascii=False)


def impression_to_json(impression: Impression) -> str:
    rec = {
        "kind": "impression",
        "id": impression.impression_id,
        "user": impression.user_id,
        "timestamp": impression.timestamp,
        "history": impression.history,
        "candidates": [[a, y] for a, y in impression.candidates],
    }
    return json.dumps(rec, ensure_ascii=False)


def serialize_jsonl(articles: Iterable[Article], impressions: Iterable[Impression]) -> Iterator[str]:
    for article in articles:
        yield article_to_json(article)
    for impression in impressions:
        yield impression_to_json(impression)


def write_jsonl(path, articles: Iterable[Article], impressions: Iterable[Impression]) -> None:
    """Write the records to ``path``; an error partway leaves an existing file untouched."""
    with replacing(path, "w", encoding="utf-8") as fh:
        for line in serialize_jsonl(articles, impressions):
            fh.write(line + "\n")


def read_jsonl(path) -> ParseResult:
    with open(path, "rb") as fh:  # each line is decoded on its own: one that is not UTF-8 is its error
        return parse_jsonl(fh)


# ---------------------------------------------------------------------------
# Corpus utilities
# ---------------------------------------------------------------------------

def build_corpus(articles: Iterable[Article]) -> dict[str, Article]:
    corpus: dict[str, Article] = {}
    for article in articles:
        if article.article_id in corpus:
            raise DataFormatError(f"duplicate article id {article.article_id!r}")
        corpus[article.article_id] = article
    return corpus


def unresolved_ids(corpus: dict[str, Article], impressions: Iterable[Impression]) -> set[str]:
    """Ids referenced by impressions that the corpus does not contain."""
    missing: set[str] = set()
    for imp in impressions:
        for art_id in imp.history:
            if art_id not in corpus:
                missing.add(art_id)
        for art_id, _ in imp.candidates:
            if art_id not in corpus:
                missing.add(art_id)
    return missing


def in_corpus(corpus, items, id_of=None) -> list:
    """The ``items`` whose article id (the item, or ``id_of(item)``) is a key of
    ``corpus``, in order: the one offline rule for an id outside the corpus, in
    a history or among an impression's candidates, is that it is dropped."""
    return [x for x in items if (x if id_of is None else id_of(x)) in corpus]


def subsample_users(impressions: list[Impression], n_users: int, seed: int) -> list[Impression]:
    """Keep the impressions of a seeded random subset of users.

    Users are drawn without replacement from the sorted unique user list so
    the subsample is stable across platforms.
    """
    users = sorted({imp.user_id for imp in impressions})
    if n_users >= len(users):
        return list(impressions)
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(np.array(users, dtype=object), size=n_users, replace=False).tolist())
    return [imp for imp in impressions if imp.user_id in keep]


def split_by_time(impressions: list[Impression], holdout_fraction: float = 0.05) -> tuple[list[Impression], list[Impression]]:
    """Last-by-timestamp holdout split (ties broken by impression id)."""
    if not 0.0 < holdout_fraction < 1.0:
        raise DataFormatError("holdout_fraction must be in (0, 1)")
    ordered = sorted(impressions, key=lambda i: (i.timestamp, i.impression_id))
    n_holdout = max(1, int(round(len(ordered) * holdout_fraction))) if ordered else 0
    cut = len(ordered) - n_holdout
    return ordered[:cut], ordered[cut:]


# ---------------------------------------------------------------------------
# Synthetic datasets with planted preferences
# ---------------------------------------------------------------------------

CLICK_RULES = ("planted-bilinear", "topic-affinity", "flow-mix")


@dataclass
class SyntheticSpec:
    n_users: int = 50
    n_articles: int = 200
    n_impressions: int = 2000
    embed_dim: int = 16
    topic_count: int = 8
    seed: int = 7
    click_rule: str = "planted-bilinear"
    history_length: int = 12
    candidates_per_impression: int = 6

    def validate(self) -> None:
        counts = {
            "n_users": self.n_users,
            "n_articles": self.n_articles,
            "n_impressions": self.n_impressions,
            "embed_dim": self.embed_dim,
            "topic_count": self.topic_count,
            "history_length": self.history_length,
            "candidates_per_impression": self.candidates_per_impression,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.click_rule not in CLICK_RULES:
            raise ConfigError(f"click_rule must be one of {CLICK_RULES}, got {self.click_rule!r}")


@dataclass
class SyntheticDataset:
    articles: list[Article]
    impressions: list[Impression]
    truth: dict

    @property
    def corpus(self) -> dict[str, Article]:
        return build_corpus(self.articles)


def _make_articles(rng: np.random.Generator, spec: SyntheticSpec) -> tuple[list[Article], np.ndarray, np.ndarray]:
    """Articles whose text and attributes express a planted topic plus a
    planted engagement level (visible only through attributes)."""
    topics = rng.integers(0, spec.topic_count, size=spec.n_articles)
    engagement = rng.integers(0, 2, size=spec.n_articles)  # 0 = low, 1 = high
    articles = []
    for j, (z, high) in enumerate(zip(topics.tolist(), engagement.tolist())):
        tok, flavor = f"topic{z}", f"t{z}w{int(rng.integers(0, 5))}"
        body = f"{tok} {tok} {flavor} coverage of {tok} for readers. More on {flavor} and {tok}."
        articles.append(Article(f"a{j}", f"{tok} piece{j}", body,
                                attributes={"category": tok, "engagement": "high" if high else "low"}))
    return articles, topics, engagement


class _World:
    """A seeded planted world and its article draws: the articles with their
    topics and engagement, each user's preferred topics (two, or one with one
    topic), and ``pools[z]``, topic ``z``'s articles, built once; a topic with
    no articles draws from ``everything``. ``matched[u, j]`` says whether
    article ``j``'s topic is one of user ``u``'s preferred topics.
    """

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.articles, self.topics, self.engagement = _make_articles(self.rng, spec)
        n_pref = min(2, spec.topic_count)
        self.user_prefs = np.stack(
            [self.rng.choice(spec.topic_count, size=n_pref, replace=False) for _ in range(spec.n_users)])
        self.everything = np.arange(spec.n_articles)
        pools = [np.flatnonzero(self.topics == z) for z in range(spec.topic_count)]
        self.pools = [pool if len(pool) else self.everything for pool in pools]
        self.matched = (self.topics[None, :, None] == self.user_prefs[:, None, :]).any(axis=2)

    def draw(self, pool) -> int:
        return int(pool[self.rng.integers(0, len(pool))])

    def pick(self, pool, taken: list[int]) -> int:
        """Up to four draws from ``pool``: the first not in ``taken``, else the last."""
        for _ in range(4):
            j = self.draw(pool)
            if j not in taken:
                break
        return j

    def history(self, stable_topics) -> list[int]:
        """History articles: the stable topics in turn, a little uniform noise, shuffled."""
        n = self.spec.history_length
        n_stable = n - max(1, n // 6)
        picks = [self.draw(self.pools[stable_topics[k % len(stable_topics)]]) for k in range(n_stable)]
        picks += [self.draw(self.everything) for _ in range(n - n_stable)]
        self.rng.shuffle(picks)
        return picks


# A click rule takes the world and the truth dump and returns its candidate
# plan, ``plan(user, history)`` yielding one pool per candidate slot, and its
# click probabilities, ``probs(user, history, candidates)``, which draw nothing.

def _preferred_plan(w: _World):
    """The first half of the slots from the user's preferred topics in turn, the rest from any article."""
    def plan(user, history):
        prefs, n = w.user_prefs[user], w.spec.candidates_per_impression
        return (w.pools[prefs[k % len(prefs)]] if k < n // 2 else w.everything for k in range(n))
    return plan


def _topic_affinity(w: _World, truth: dict):
    def probs(user, history, cands):
        return np.where(w.matched[user, cands], truth["p_hi"], truth["p_lo"]).tolist()
    return _preferred_plan(w), probs


def _planted_bilinear(w: _World, truth: dict):
    d = w.spec.embed_dim
    centroids = w.rng.normal(size=(w.spec.topic_count, d))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    mixing = np.eye(d) + 0.1 * w.rng.normal(size=(d, d)) / math.sqrt(d)
    user_vecs = centroids[w.user_prefs].sum(axis=1)
    raw = user_vecs @ mixing @ centroids[w.topics].T  # (n_users, n_articles)
    hi = raw[w.matched].mean() if w.matched.any() else 1.0
    lo = raw[~w.matched].mean() if not w.matched.all() else hi - 1.0
    scale = 8.0 / max(hi - lo, 1e-9)  # affinity gap of ~8 logits
    shift = -(hi + lo) / 2.0
    logits = scale * (raw + shift)
    truth.update(user_vectors=user_vecs.tolist(), mixing_matrix=mixing.tolist(),
                 logit_scale=float(scale), logit_shift=float(shift))

    def probs(user, history, cands):
        return [1.0 / (1.0 + math.exp(-x)) for x in logits[user, cands].tolist()]
    return _preferred_plan(w), probs


def _flow_mix(w: _World, truth: dict):
    # The stable-preference signal is planted on a user attribute (position ->
    # favorite topic, via a seeded permutation) so that it is only observable
    # through the profile text, never through the click history; the
    # history-conditioned signal is planted on the articles' engagement
    # attribute, which titles never mention.
    spec = w.spec
    position_topic = w.rng.permutation(spec.topic_count)
    user_position = w.rng.integers(0, spec.topic_count, size=spec.n_users)
    favorite = position_topic[user_position]
    pars = {"beta_profile": 2.6, "beta_instant": 2.9, "bias": -1.3}
    truth.update(position_topic=position_topic.tolist(), user_position=user_position.tolist(),
                 user_attrs={f"u{k}": {"position": f"position{p}", "organization": f"org{p % 3}",
                                       "skill": f"skill{p}"} for k, p in enumerate(user_position.tolist())},
                 flow_mix_params=pars)

    def plan(user, history):
        n = spec.candidates_per_impression
        hist_topics = sorted({int(w.topics[i]) for i in history})
        for k in range(n):
            if k < max(1, n // 3):
                yield w.pools[favorite[user]]
            elif k < max(2, 2 * n // 3):  # the topic is drawn before its article
                yield w.pools[hist_topics[int(w.rng.integers(0, len(hist_topics)))]]
            else:
                yield w.everything

    def probs(user, history, cands):
        seen = np.bincount(w.topics[history], minlength=spec.topic_count)
        high = np.bincount(w.topics[history], weights=w.engagement[history], minlength=spec.topic_count)
        z = w.topics[cands]
        # No same-topic history article: 0.5, so the instant term is zero.
        mean_eng = np.divide(high[z], seen[z], out=np.full(len(z), 0.5), where=seen[z] > 0)
        logit = (pars["bias"] + pars["beta_profile"] * (z == favorite[user])
                 + pars["beta_instant"] * (2.0 * mean_eng - 1.0))
        return [1.0 / (1.0 + math.exp(-x)) for x in logit.tolist()]
    return plan, probs


_RULES = {"planted-bilinear": _planted_bilinear, "topic-affinity": _topic_affinity, "flow-mix": _flow_mix}


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Deterministically generate a corpus plus labeled impressions.

    Click rules:
      * ``topic-affinity``: P(click) is ``p_hi`` when the candidate topic is
        one of the user's preferred topics, else ``p_lo``.
      * ``planted-bilinear``: label = 1 iff ``sigmoid(u . M . v)`` exceeds a
        uniform draw, with per-user topic-preference vectors ``u``, per-topic
        article vectors ``v`` and a planted mixing matrix ``M``.
      * ``flow-mix``: the click logit adds a stable-preference term (candidate
        topic among the user's two dominant topics) and a history-conditioned
        term (mean planted engagement of same-topic history articles). The
        two terms are recoverable by different model components which makes
        this rule suitable for ablation experiments.

    Each impression draws its user, its history, its candidates and then
    their labels, each after its probability. That draw order is part of the
    contract: ``tests/test_data.py`` pins worlds byte for byte.
    """
    spec.validate()
    w = _World(spec)
    truth: dict = {"click_rule": spec.click_rule, "article_topics": w.topics.tolist(),
                   "article_engagement": w.engagement.tolist(), "user_preferred_topics": w.user_prefs.tolist(),
                   "candidate_probs": [], "p_hi": 0.95, "p_lo": 0.05}
    plan, probs = _RULES[spec.click_rule](w, truth)
    impressions: list[Impression] = []
    for t in range(spec.n_impressions):
        user = int(w.rng.integers(0, spec.n_users))
        hist_idx = w.history(w.user_prefs[user])
        cand_idx: list[int] = []
        for pool in plan(user, hist_idx):
            cand_idx.append(w.pick(pool, cand_idx))
        cand_probs = probs(user, hist_idx, cand_idx)
        truth["candidate_probs"].append(cand_probs)
        labels = [int(w.rng.random() < p) for p in cand_probs]
        impressions.append(Impression(f"i{t}", f"u{user}", t, [w.articles[i].article_id for i in hist_idx],
                                      [(w.articles[j].article_id, y) for j, y in zip(cand_idx, labels)]))
    return SyntheticDataset(articles=w.articles, impressions=impressions, truth=truth)
