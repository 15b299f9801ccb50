"""Command-line entry point.

Subcommands wire the pipeline end to end::

    synth -> ingest -> summarize -> train -> eval -> precompute -> serve

plus ``encode`` (article representations only) and ``diagnose`` (per-user
attention and similarity dumps). Runs are driven by one declarative JSON
config file; individual values can be overridden with ``--set key.path=value``.
An article without a summary is encoded from its raw body by every command,
and each command that encodes articles warns once with their count.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import signal
import sys
from dataclasses import asdict

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import serve as serve_mod
from .encode import HashedTextEmbedder, PrecomputedTextEmbedder, build_vocabs
from .errors import ConfigError, UnknownIdError, replacing
from .model import ModelConfig, Scorer, constant_rep, init_model_params
from .summarize import (
    TEMPLATES,
    CompletionError,
    ProfileProvider,
    RemoteCompletionClient,
    ReplayCompletionClient,
    StubCompletionClient,
    SummaryCache,
    TemplateError,
    summarize_corpus,
)
from .train import TrainConfig, TrainingError, evaluate_params, train

# The model and training sections take their defaults from ModelConfig and
# TrainConfig: ModelConfig's integers are "dims", its booleans are "flags".
_MODEL_DEFAULTS = ModelConfig().to_dict()

DEFAULT_CONFIG: dict = {
    "seed": TrainConfig.seed,
    "dims": {k: v for k, v in _MODEL_DEFAULTS.items() if type(v) is int},
    "flags": {k: v for k, v in _MODEL_DEFAULTS.items() if type(v) is bool},
    "attrs": _MODEL_DEFAULTS["attr_names"],
    "train": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
    "summarizer": {
        "client": "stub",
        "article_template": "article_summary_mind",
        "profile_template": "user_profile_mind",
        "budget_tokens": 60,
        "lead_sentences": 3,
        "profile_top_n": 6,
        "replay_path": None,
        "cache_path": None,
        "profile_include_summaries": False,
        "max_workers": 1,
    },
    "embedder": {"kind": "hashed", "path": None},
}


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _fits(value, default) -> bool:
    """Whether ``value`` may replace ``default``: a value of the same JSON type,
    an integer for a number, or a string for a key that defaults to null."""
    if default is None:
        return value is None or isinstance(value, str)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def _merge_checked(base: dict, override: dict, path: str = "", defaults: dict = DEFAULT_CONFIG) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        default = defaults[key]
        if not _fits(value, default):
            kind = "a string or null" if default is None else _JSON_KINDS[type(default)]
            raise ConfigError(f"config key {where!r} must be {kind}, got {json.dumps(value)}")
        out[key] = _merge_checked(base[key], value, where, default) if isinstance(default, dict) else value
    return out


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{what} {path!r} is not JSON ({exc})") from None


def _read_json_object(path: str, what: str) -> dict:
    raw = _read_json(path, what)
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path!r} is not a JSON object")
    return raw


def load_run_config(path: str | None, overrides: list[str] | None = None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        config = _merge_checked(config, _read_json_object(path, "config file"))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node: dict = {}
        leaf = node
        keys = dotted.split(".")
        for key in keys[:-1]:
            leaf[key] = {}
            leaf = leaf[key]
        leaf[keys[-1]] = value
        config = _merge_checked(config, node)
    model_config_from_run(config).validate()
    train_config_from_run(config).validate()
    for key in ("article_template", "profile_template"):
        if config["summarizer"][key] not in TEMPLATES:
            raise ConfigError(f"unknown summarizer.{key} {config['summarizer'][key]!r}; "
                              f"known: {', '.join(sorted(TEMPLATES))}")
    return config


def model_config_from_run(config: dict) -> ModelConfig:
    return ModelConfig(attr_names=list(config["attrs"]), **config["dims"], **config["flags"])


def train_config_from_run(config: dict) -> TrainConfig:
    return TrainConfig(seed=config["seed"], **config["train"])


def make_embedder(config: dict, dim: int):
    """The run config's text embedder; a hashed one is ``dim`` wide."""
    emb = config["embedder"]
    if emb["kind"] == "hashed":
        return HashedTextEmbedder(dim)
    if emb["kind"] == "precomputed":
        if not emb["path"]:
            raise ConfigError("precomputed embedder needs embedder.path")
        return PrecomputedTextEmbedder.from_file(emb["path"])  # its dim is checked by FeatureSource
    raise ConfigError(f"unknown embedder kind {emb['kind']!r}")


def make_client(config: dict):
    s = config["summarizer"]
    if s["client"] == "stub":
        return StubCompletionClient(s["budget_tokens"], s["lead_sentences"], s["profile_top_n"])
    if s["client"] == "replay":
        if not s["replay_path"]:
            raise ConfigError("replay client needs summarizer.replay_path")
        return ReplayCompletionClient(s["replay_path"])
    if s["client"] == "remote":
        return RemoteCompletionClient()
    raise ConfigError(f"unknown summarizer client {s['client']!r}")


def make_profile_provider(config: dict, corpus, user_attrs=None) -> ProfileProvider:
    s = config["summarizer"]
    cache = SummaryCache(s["cache_path"]) if s["cache_path"] else None
    return ProfileProvider(
        corpus=corpus,
        template=TEMPLATES[s["profile_template"]],
        client=make_client(config),
        cache=cache,
        include_summaries=s["profile_include_summaries"],
        user_attrs=user_attrs or {},
    )


def load_user_attrs(path: str | None) -> dict:
    """Optional {user_id: {attr: value}} JSON for profile templates that
    mention user attributes (position, organization, skill)."""
    if not path:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"user attrs file {path!r} does not exist")
    raw = _read_json_object(path, "user attrs file")
    if not all(isinstance(attrs, dict) and all(isinstance(v, str) for v in attrs.values())
               for attrs in raw.values()):
        raise ConfigError(f"user attrs file {path!r} is not an object of {{user_id: {{attr: string}}}}")
    return raw


def _read_manifest(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "manifest.json")
    entries = _read_json(path, "manifest") if os.path.exists(path) else []
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"manifest {path!r} is not a JSON list of objects")
    return entries


def _out_dir(args) -> str:
    """``--out``, made if missing, with its manifest checked before anything is written."""
    os.makedirs(args.out, exist_ok=True)
    _read_manifest(args.out)
    return args.out


def _write_manifest(out_dir: str, entry: dict) -> None:
    """Record one entry per command; output paths are stored relative to the
    out dir so reruns into different directories stay byte-identical."""
    if "outputs" in entry:
        entry["outputs"] = {k: os.path.relpath(v, out_dir) for k, v in entry["outputs"].items()}
    path = os.path.join(out_dir, "manifest.json")
    entries = [e for e in _read_manifest(out_dir) if e.get("command") != entry["command"]]
    entries.append(entry)
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _frozen_inputs(args, config: dict, corpus, model_config: ModelConfig):
    """The text embedder and, with constant flow on, the profile provider; with
    ``use_summaries`` on, one warning counts the articles encoded from a raw body."""
    unsummarized = sum(bool(a.body) and a.summary is None for a in corpus.values())
    if model_config.use_summaries and unsummarized:
        print(f"warning: {unsummarized} of {len(corpus)} articles have a body but no summary; "
              "their raw bodies are encoded (run the summarize command first)", file=sys.stderr)
    embedder = make_embedder(config, model_config.embed_dim)
    provider = (make_profile_provider(config, corpus, load_user_attrs(args.user_attrs))
                if model_config.constant_flow else None)
    return embedder, provider


def _load_dataset(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"dataset file {path!r} does not exist")
    result = data_mod.read_jsonl(path)
    for err in result.errors[:5]:
        print(f"warning: {err}", file=sys.stderr)
    return data_mod.build_corpus(result.articles), result.impressions


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = load_run_config(args.config, args.set)
    out = _out_dir(args)
    spec = data_mod.SyntheticSpec(
        n_users=args.users, n_articles=args.articles, n_impressions=args.impressions,
        topic_count=args.topics, seed=args.seed if args.seed is not None else config["seed"],
        click_rule=args.rule,
    )
    dataset = data_mod.generate_synthetic(spec)
    data_path = os.path.join(out, "dataset.jsonl")
    data_mod.write_jsonl(data_path, dataset.articles, dataset.impressions)
    truth_path = os.path.join(out, "truth.json")
    with replacing(truth_path, "w", encoding="utf-8") as fh:
        json.dump(dataset.truth, fh, sort_keys=True)
    outputs = {"dataset": data_path, "truth": truth_path}
    if "user_attrs" in dataset.truth:
        attrs_path = os.path.join(out, "user_attrs.json")
        with replacing(attrs_path, "w", encoding="utf-8") as fh:
            json.dump(dataset.truth["user_attrs"], fh, sort_keys=True)
        outputs["user_attrs"] = attrs_path
    print(f"users={spec.n_users} articles={spec.n_articles} impressions={spec.n_impressions} rule={spec.click_rule}")
    _write_manifest(out, {"command": "synth", "outputs": outputs, "spec": spec.__dict__})
    return 0


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    if args.format == "mind":
        if not args.news or not args.behaviors:
            raise ConfigError("mind format needs --news and --behaviors")
        for path in (args.news, args.behaviors):
            if not os.path.exists(path):
                raise ConfigError(f"input file {path!r} does not exist")
        with open(args.news, "rb") as fh:  # each line is decoded on its own, as in read_jsonl
            news = data_mod.parse_mind_news(fh)
        with open(args.behaviors, "rb") as fh:
            behaviors = data_mod.parse_mind_behaviors(fh)
        articles, impressions = news.articles, behaviors.impressions
        errors = news.errors + behaviors.errors
    else:
        if not args.input:
            raise ConfigError("jsonl format needs --input")
        if not os.path.exists(args.input):
            raise ConfigError(f"input file {args.input!r} does not exist")
        result = data_mod.read_jsonl(args.input)
        articles, impressions, errors = result.articles, result.impressions, result.errors

    if args.max_users is not None:
        impressions = data_mod.subsample_users(impressions, args.max_users, args.seed or 0)

    for err in errors[:10]:
        print(f"warning: {err}", file=sys.stderr)
    corpus = data_mod.build_corpus(articles)
    users = {imp.user_id for imp in impressions}
    missing = data_mod.unresolved_ids(corpus, impressions)
    data_path = os.path.join(out, "dataset.jsonl")
    data_mod.write_jsonl(data_path, articles, impressions)
    stats = {
        "articles": len(articles),
        "impressions": len(impressions),
        "users": len(users),
        "rejected_records": len(errors),
        "unresolved_ids": len(missing),
    }
    print(json.dumps(stats, sort_keys=True))
    _write_manifest(out, {"command": "ingest", "outputs": {"dataset": data_path}, "stats": stats})
    return 0


def cmd_summarize(args) -> int:
    config = load_run_config(args.config, args.set)
    out = _out_dir(args)
    corpus, impressions = _load_dataset(args.data)
    s = config["summarizer"]
    cache_path = s["cache_path"] or os.path.join(out, "summary_cache.jsonl")
    cache = SummaryCache(cache_path)
    client = make_client(config)
    template = TEMPLATES[s["article_template"]]
    summaries, errors = summarize_corpus(
        list(corpus.values()), template, client, cache, max_workers=s["max_workers"]
    )
    for art_id, summary in summaries.items():
        corpus[art_id].summary = summary
    for err in errors[:10]:
        print(f"warning: article {err.article_id}: {err}", file=sys.stderr)
    data_path = os.path.join(out, "dataset.jsonl")
    data_mod.write_jsonl(data_path, list(corpus.values()), impressions)
    stats = {"summarized": len(summaries), "errors": len(errors), "cache_entries": len(cache)}
    print(json.dumps(stats, sort_keys=True))
    _write_manifest(out, {"command": "summarize", "outputs": {"dataset": data_path, "cache": cache_path},
                          "stats": stats})
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.set)
    out = _out_dir(args)
    corpus, impressions = _load_dataset(args.data)
    if not impressions:
        raise data_mod.DataFormatError("dataset has no impressions to train on")
    model_config = model_config_from_run(config)
    vocabs = build_vocabs(list(corpus.values()), model_config.attr_names)
    params = init_model_params(model_config, vocabs, seed=config["seed"])
    embedder, provider = _frozen_inputs(args, config, corpus, model_config)
    result = train(params, corpus, impressions, train_config_from_run(config), embedder, provider)
    ckpt_path = os.path.join(out, "checkpoint.bin")
    tag = ckpt.save_checkpoint(ckpt_path, result.params)
    log_path = os.path.join(out, "train_log.csv")
    result.write_log(log_path)
    stats = {
        "steps_run": result.steps_run,
        "best_val_auc": result.best_val_auc,
        "version_tag": tag,
        "n_parameters": result.params.n_parameters(),
    }
    print(json.dumps(stats, sort_keys=True))
    _write_manifest(out, {"command": "train", "outputs": {"checkpoint": ckpt_path, "log": log_path},
                          "stats": stats})
    return 0


def cmd_eval(args) -> int:
    config, out, corpus, impressions, params, embedder, provider = _checkpoint_inputs(args)
    if args.holdout:
        _, impressions = data_mod.split_by_time(impressions, config["train"]["holdout_fraction"])
    report = evaluate_params(params, embedder, corpus, impressions, provider,
                             include_global_auc=args.global_auc)
    report.ablation_flags = {
        name: getattr(params.config, name)
        for name in ("instant_flow", "constant_flow", "flow_gate", "use_instruct_u", "use_summaries")
    }
    report_path = os.path.join(out, "eval_report.json")
    with replacing(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())
    _write_manifest(out, {"command": "eval", "outputs": {"report": report_path},
                          "stats": {"n_impressions": report.n_impressions}})
    return 0


def _checkpoint_inputs(args):
    """What every command that uses a trained model starts from: run config,
    out dir, dataset, checkpoint, text embedder and, with constant flow on,
    the profile provider."""
    config = load_run_config(args.config, args.set)
    out = _out_dir(args)
    corpus, impressions = _load_dataset(args.data)
    params = ckpt.load_checkpoint(args.checkpoint)
    embedder, provider = _frozen_inputs(args, config, corpus, params.config)
    return config, out, corpus, impressions, params, embedder, provider


def cmd_precompute(args) -> int:
    """``precompute`` and ``encode``: the rep store of the users ``args.users_of``
    picks from the impressions, written to ``args.store_file``."""
    _, out, corpus, impressions, params, embedder, provider = _checkpoint_inputs(args)
    store = serve_mod.precompute(params, embedder, corpus, args.users_of(impressions), provider)
    store_path = os.path.join(out, args.store_file)
    serve_mod.save_store(store_path, store)
    stats = {
        "articles": len(store.article_ids),
        "users": len(store.users),
        "version_tag": store.version_tag,
    }
    print(json.dumps(stats, sort_keys=True))
    _write_manifest(out, {"command": args.command, "outputs": {"store": store_path}, "stats": stats})
    return 0


def cmd_serve(args) -> int:
    params = ckpt.load_checkpoint(args.checkpoint)
    store = serve_mod.load_store(args.store)
    server = serve_mod.create_server(store, params, args.host, args.port)
    actual_port = server.server_address[1]
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # SIGTERM shuts down as Ctrl-C does
    try:  # a signal sent as soon as the banner is read may arrive before print returns
        print(f"serving on http://{args.host}:{actual_port} (model {store.version_tag[:12]})", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_diagnose(args) -> int:
    _, out, corpus, impressions, params, embedder, provider = _checkpoint_inputs(args)
    imp = serve_mod.latest_impressions(impressions).get(args.user)
    if imp is None:
        raise UnknownIdError(f"unknown user {args.user!r}")
    hist_ids = data_mod.in_corpus(corpus, imp.history)
    if not hist_ids:
        raise data_mod.DataFormatError(f"user {args.user!r} has no history in the dataset")
    scorer = Scorer(params, embedder, corpus, provider)
    scored = scorer.score(imp)
    hist = scorer.reps[scorer.features.rows(hist_ids)]
    profile = scorer.features.profile_embedding(imp.user_id, hist_ids)

    def cosine(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        return float(x @ y / (nx * ny)) if nx > 0 and ny > 0 else 0.0

    path = os.path.join(out, "diagnostics.csv")
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("candidate_index,candidate_id,step,history_article_id,alpha,cos_instant,cos_constant\n")
        for rank_idx, sc in enumerate(scored):
            cand_vec = scorer.rep(sc.article_id)
            h_ins = sc.attention @ hist if len(sc.attention) else np.zeros(params.config.article_dim)
            h_cons = (constant_rep(params, profile, cand_vec)
                      if params.config.constant_flow else np.zeros_like(h_ins))
            for step, hist_id in enumerate(hist_ids):
                alpha = sc.attention[step] if len(sc.attention) else ""
                fh.write(
                    f"{rank_idx},{sc.article_id},{step},{hist_id},{alpha},"
                    f"{cosine(hist[step], h_ins)},{cosine(hist[step], h_cons)}\n"
                )
    print(f"wrote {path}")
    _write_manifest(out, {"command": "diagnose", "outputs": {"diagnostics": path},
                          "stats": {"user": args.user, "candidates": len(scored)}})
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="flowrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True, checkpoint=False, user_attrs=False):
        p.add_argument("--config", help="JSON run config file")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override one config value (JSON-parsed)")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="canonical JSONL dataset")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint file")
        if user_attrs:
            p.add_argument("--user-attrs", default=None,
                           help="JSON file of {user_id: {attr: value}} for profile prompts")

    p = sub.add_parser("synth", help="generate a synthetic dataset with a planted click rule")
    common(p, data=False)
    p.add_argument("--rule", default="planted-bilinear", choices=data_mod.CLICK_RULES)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--articles", type=int, default=200)
    p.add_argument("--impressions", type=int, default=2000)
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse raw logs into the canonical JSONL format")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["mind", "jsonl"], required=True)
    p.add_argument("--news", help="news TSV (mind format)")
    p.add_argument("--behaviors", help="behaviors TSV (mind format)")
    p.add_argument("--input", help="JSONL file (jsonl format)")
    p.add_argument("--max-users", type=int, default=None, help="seeded user subsample")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize",
                       help="attach summarized bodies to every article (a failed one keeps its raw body)")
    common(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("train", help="train a model, write checkpoint + log")
    common(p, user_attrs=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="ranking metrics for a checkpoint on a dataset")
    common(p, checkpoint=True, user_attrs=True)
    p.add_argument("--holdout", action="store_true", help="evaluate only the time-based holdout")
    p.add_argument("--global-auc", action="store_true", help="also report pooled AUC")
    p.set_defaults(func=cmd_eval)

    for name, users_of, store_file, help_text in (
            ("encode", lambda impressions: [], "article_reps.bin", "precompute every article's rep only"),
            ("precompute", serve_mod.users_from_impressions, "store.bin",
             "build the serving rep store (every article + each user's latest history)")):
        p = sub.add_parser(name, help=help_text)
        common(p, checkpoint=True, user_attrs=True)
        p.set_defaults(func=cmd_precompute, users_of=users_of, store_file=store_file)

    p = sub.add_parser("serve", help="run the rerank HTTP service")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("diagnose", help="dump attention weights and rep similarities for one user")
    common(p, checkpoint=True, user_attrs=True)
    p.add_argument("--user", required=True)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, TemplateError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (data_mod.DataFormatError, UnknownIdError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, CompletionError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
