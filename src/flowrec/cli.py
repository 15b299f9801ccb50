"""Command-line entry point.

Subcommands wire the pipeline end to end::

    synth -> ingest -> summarize -> train -> eval -> precompute -> serve

plus ``encode`` (article representations only) and ``diagnose`` (per-user
attention and similarity dumps). Runs are driven by one declarative JSON
config file; individual values can be overridden with ``--set key.path=value``.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import serve as serve_mod
from .encode import HashedTextEmbedder, PrecomputedTextEmbedder, build_vocabs
from .errors import ConfigError
from .metrics import evaluate_rankings
from .model import ModelConfig, Scorer, constant_rep, init_model_params, instant_rep
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
from .train import TrainConfig, TrainingError, train

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "out",
    "dims": {
        "embed_dim": 256,
        "text_proj_dim": 128,
        "attr_embed_dim": 16,
        "attr_hidden_dim": 64,
        "attr_out_dim": 64,
    },
    "flags": {
        "instant_flow": True,
        "constant_flow": True,
        "flow_gate": True,
        "use_instruct_u": True,
        "use_summaries": True,
        "batch_norm": True,
    },
    "attrs": ["category"],
    "train": {
        "learning_rate": 1e-5,
        "batch_size": 512,
        "dropout": 0.1,
        "max_steps": 600_000,
        "eval_every": 1000,
        "patience": 5,
        "neg_sample_ratio": 0,
        "holdout_fraction": 0.05,
        "log_every": 50,
    },
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


def _merge_checked(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge_checked(base[key], value, where)
        else:
            out[key] = value
    return out


def load_run_config(path: str | None, overrides: list[str] | None = None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            config = _merge_checked(config, json.load(fh))
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
    return config


def model_config_from_run(config: dict) -> ModelConfig:
    return ModelConfig(
        attr_names=list(config["attrs"]),
        dropout=config["train"]["dropout"],
        **config["dims"],
        **config["flags"],
    )


def make_embedder(config: dict):
    emb = config["embedder"]
    if emb["kind"] == "hashed":
        return HashedTextEmbedder(config["dims"]["embed_dim"])
    if emb["kind"] == "precomputed":
        if not emb["path"]:
            raise ConfigError("precomputed embedder needs embedder.path")
        embedder = PrecomputedTextEmbedder.from_file(emb["path"])
        if embedder.dim != config["dims"]["embed_dim"]:
            raise ConfigError(
                f"precomputed embeddings have dim {embedder.dim}, config says {config['dims']['embed_dim']}"
            )
        return embedder
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
        use_instruct_u=config["flags"]["use_instruct_u"],
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
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {str(u): {str(k): str(v) for k, v in attrs.items()} for u, attrs in raw.items()}


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_manifest(out_dir: str, entry: dict) -> None:
    """Record one entry per command; output paths are stored relative to the
    out dir so reruns into different directories stay byte-identical."""
    if "outputs" in entry:
        entry["outputs"] = {k: os.path.relpath(v, out_dir) for k, v in entry["outputs"].items()}
    path = os.path.join(out_dir, "manifest.json")
    entries = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    entries = [e for e in entries if e.get("command") != entry["command"]]
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(dataset.truth, fh, sort_keys=True)
    outputs = {"dataset": data_path, "truth": truth_path}
    if "user_attrs" in dataset.truth:
        attrs_path = os.path.join(out, "user_attrs.json")
        with open(attrs_path, "w", encoding="utf-8") as fh:
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
        with open(args.news, "r", encoding="utf-8") as fh:
            news = data_mod.parse_mind_news(fh)
        with open(args.behaviors, "r", encoding="utf-8") as fh:
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
    if model_config.use_summaries and not any(a.summary for a in corpus.values()):
        print("warning: use_summaries is on but no article carries a summary; "
              "raw bodies will be encoded (run the summarize command first)", file=sys.stderr)
    vocabs = build_vocabs(list(corpus.values()), model_config.attr_names)
    params = init_model_params(model_config, vocabs, seed=config["seed"])
    embedder = make_embedder(config)
    provider = (make_profile_provider(config, corpus, load_user_attrs(args.user_attrs))
                if model_config.constant_flow else None)
    train_config = TrainConfig(seed=config["seed"], **config["train"])

    result = train(params, corpus, impressions, train_config, embedder, provider)
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
    scorer = Scorer(params, embedder, corpus, provider)
    rankings = [([s.probability for s in scorer.score(imp)], imp.labels) for imp in impressions]
    report = evaluate_rankings(rankings, include_global_auc=args.global_auc)
    report.ablation_flags = {
        name: getattr(params.config, name)
        for name in ("instant_flow", "constant_flow", "flow_gate", "use_instruct_u", "use_summaries")
    }
    report_path = os.path.join(out, "eval_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
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
    embedder = make_embedder(config)
    provider = (make_profile_provider(config, corpus, load_user_attrs(args.user_attrs))
                if params.config.constant_flow else None)
    return config, out, corpus, impressions, params, embedder, provider


def _store_from_args(args, articles_only=False):
    """Precompute the rep store for a checkpoint; returns the out dir and the store."""
    _, out, corpus, impressions, params, embedder, provider = _checkpoint_inputs(args)
    users = [] if articles_only else serve_mod.users_from_impressions(impressions)
    return out, serve_mod.precompute(params, embedder, corpus, users, provider,
                                     allow_partial=args.allow_partial)


def cmd_encode(args) -> int:
    out, store = _store_from_args(args, articles_only=True)
    store_path = os.path.join(out, "article_reps.bin")
    serve_mod.save_store(store_path, store)
    print(json.dumps({"articles": len(store.article_ids), "errors": len(store.errors)}, sort_keys=True))
    _write_manifest(out, {"command": "encode", "outputs": {"store": store_path},
                          "stats": {"articles": len(store.article_ids)}})
    return 0


def cmd_precompute(args) -> int:
    out, store = _store_from_args(args)
    store_path = os.path.join(out, "store.bin")
    serve_mod.save_store(store_path, store)
    stats = {
        "articles": len(store.article_ids),
        "users": len(store.users),
        "partial": store.partial,
        "errors": len(store.errors),
        "version_tag": store.version_tag,
    }
    print(json.dumps(stats, sort_keys=True))
    _write_manifest(out, {"command": "precompute", "outputs": {"store": store_path}, "stats": stats})
    return 0


def cmd_serve(args) -> int:
    params = ckpt.load_checkpoint(args.checkpoint)
    store = serve_mod.load_store(args.store)
    server = serve_mod.create_server(store, params, args.host, args.port)
    actual_port = server.server_address[1]
    print(f"serving on http://{args.host}:{actual_port} (model {store.version_tag[:12]})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_diagnose(args) -> int:
    _, out, corpus, impressions, params, embedder, provider = _checkpoint_inputs(args)
    mine = [imp for imp in impressions if imp.user_id == args.user]
    if not mine:
        raise KeyError(f"unknown user {args.user!r}")
    imp = max(mine, key=lambda i: i.timestamp)
    if not imp.history:
        raise data_mod.DataFormatError(f"user {args.user!r} has an empty history")
    scorer = Scorer(params, embedder, corpus, provider)
    scored = scorer.score(imp)

    hist_ids = [a for a in imp.history if a in corpus]
    hist = np.stack([scorer.rep(a) for a in hist_ids])
    profile = scorer.features.profile_embedding(imp.user_id, hist_ids)

    def cosine(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        return float(x @ y / (nx * ny)) if nx > 0 and ny > 0 else 0.0

    path = os.path.join(out, "diagnostics.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("candidate_index,candidate_id,step,history_article_id,alpha,cos_instant,cos_constant\n")
        for rank_idx, sc in enumerate(scored):
            cand_vec = scorer.rep(sc.article_id)
            h_ins = instant_rep(params, cand_vec, hist)
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
    p.add_argument("--config", help="JSON run config file")
    p.add_argument("--set", action="append")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["mind", "jsonl"], required=True)
    p.add_argument("--news", help="news TSV (mind format)")
    p.add_argument("--behaviors", help="behaviors TSV (mind format)")
    p.add_argument("--input", help="JSONL file (jsonl format)")
    p.add_argument("--max-users", type=int, default=None, help="seeded user subsample")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize", help="attach summarized bodies to every article")
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

    p = sub.add_parser("encode", help="precompute article representations only")
    common(p, checkpoint=True, user_attrs=True)
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("precompute", help="build the serving rep store (articles + users)")
    common(p, checkpoint=True, user_attrs=True)
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(func=cmd_precompute)

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
    except (data_mod.DataFormatError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, CompletionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
