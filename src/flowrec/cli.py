"""Command-line entry point.

Subcommands wire the pipeline end to end::

    synth -> ingest -> summarize -> train -> eval -> precompute -> serve

plus ``encode`` (article representations only) and ``diagnose`` (per-user
attention and similarity dumps). Runs are driven by one declarative JSON
config file; individual values can be overridden with ``--set key.path=value``.
An article without a summary is encoded from its raw body by every command,
and each command that encodes articles warns once with their count.

One table, ``COMMANDS``, names the files each command reads and writes: from it
``main()`` builds the file flags, checks and digests the inputs, hands the output
paths to the command and writes its one manifest entry.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import signal
import sys
from dataclasses import asdict

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import serve as serve_mod
from .encode import FeatureSource, HashedTextEmbedder, PrecomputedTextEmbedder, build_vocabs
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

# The key that picks each section's embedder kind or client; the file key each choice reads, if any.
_KINDS = {
    "embedder": ("kind", {"hashed": None, "precomputed": "path"}),
    "summarizer": ("client", {"stub": None, "replay": "replay_path", "remote": None}),
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
        for key in reversed(dotted.split(".")):
            value = {key: value}
        config = _merge_checked(config, value)
    model_config_from_run(config).validate()
    train_config_from_run(config).validate()
    for key in ("article_template", "profile_template"):
        if config["summarizer"][key] not in TEMPLATES:
            raise ConfigError(f"unknown summarizer.{key} {config['summarizer'][key]!r}; "
                              f"known: {', '.join(sorted(TEMPLATES))}")
    for key in ("budget_tokens", "lead_sentences", "profile_top_n"):
        if config["summarizer"][key] < 1:
            raise ConfigError(f"summarizer.{key} must be at least 1, got {config['summarizer'][key]}")
    for section, (key, kinds) in _KINDS.items():
        kind = config[section][key]
        if kind not in kinds:
            raise ConfigError(f"unknown {section}.{key} {kind!r}; known: {', '.join(kinds)}")
        if kinds[kind] and not config[section][kinds[kind]]:
            raise ConfigError(f"{section}.{key} {kind!r} needs {section}.{kinds[kind]}")
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
    return PrecomputedTextEmbedder.from_file(emb["path"])  # its dim is checked by FeatureSource


def make_client(config: dict):
    s = config["summarizer"]
    if s["client"] == "stub":
        return StubCompletionClient(s["budget_tokens"], s["lead_sentences"], s["profile_top_n"])
    if s["client"] == "replay":
        return ReplayCompletionClient(s["replay_path"])
    return RemoteCompletionClient()


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


def _write_manifest(out_dir: str, entry: dict) -> None:
    """Replace the command's entry in ``out_dir``'s manifest: ``command``, ``inputs`` (the SHA-256
    of each file read, keyed by the flag or run config key naming it), ``config`` (the SHA-256 of
    the merged run config), ``outputs`` by role and ``stats``. Output paths are stored relative to
    ``out_dir``, so the same commands run into two directories write byte-identical manifests."""
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
    result = data_mod.read_jsonl(path)
    for err in result.errors[:5]:
        print(f"warning: {err}", file=sys.stderr)
    return data_mod.build_corpus(result.articles), result.impressions


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments, the run config (None for a
# command without one) and its output paths by role, and returns its stats.
# ---------------------------------------------------------------------------

def cmd_synth(args, config: dict, paths: dict) -> dict:
    spec = data_mod.SyntheticSpec(
        n_users=args.users, n_articles=args.articles, n_impressions=args.impressions,
        topic_count=args.topics, seed=args.seed if args.seed is not None else config["seed"],
        click_rule=args.rule,
    )
    dataset = data_mod.generate_synthetic(spec)
    data_mod.write_jsonl(paths["dataset"], dataset.articles, dataset.impressions)
    with replacing(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump(dataset.truth, fh, sort_keys=True)
    if "user_attrs" in dataset.truth:
        with replacing(paths["user_attrs"], "w", encoding="utf-8") as fh:
            json.dump(dataset.truth["user_attrs"], fh, sort_keys=True)
    else:
        del paths["user_attrs"]  # only a world with user attributes writes them
    print(f"users={spec.n_users} articles={spec.n_articles} impressions={spec.n_impressions} rule={spec.click_rule}")
    return spec.__dict__


def cmd_ingest(args, config: None, paths: dict) -> dict:
    if args.format == "mind":
        with open(args.news, "rb") as fh:  # each line is decoded on its own, as in read_jsonl
            news = data_mod.parse_mind_news(fh)
        with open(args.behaviors, "rb") as fh:
            behaviors = data_mod.parse_mind_behaviors(fh)
        articles, impressions = news.articles, behaviors.impressions
        errors = news.errors + behaviors.errors
    else:
        result = data_mod.read_jsonl(args.input)
        articles, impressions, errors = result.articles, result.impressions, result.errors

    if args.max_users is not None:
        impressions = data_mod.subsample_users(impressions, args.max_users, args.seed or 0)

    for err in errors[:10]:
        print(f"warning: {err}", file=sys.stderr)
    corpus = data_mod.build_corpus(articles)
    users = {imp.user_id for imp in impressions}
    missing = data_mod.unresolved_ids(corpus, impressions)
    data_mod.write_jsonl(paths["dataset"], articles, impressions)
    stats = {"articles": len(articles), "impressions": len(impressions), "users": len(users),
             "rejected_records": len(errors), "unresolved_ids": len(missing)}
    print(json.dumps(stats, sort_keys=True))
    return stats


def cmd_summarize(args, config: dict, paths: dict) -> dict:
    corpus, impressions = _load_dataset(args.data)
    s = config["summarizer"]
    if s["cache_path"]:
        paths["cache"] = s["cache_path"]
    cache = SummaryCache(paths["cache"])
    client = make_client(config)
    template = TEMPLATES[s["article_template"]]
    summaries, errors = summarize_corpus(
        list(corpus.values()), template, client, cache, max_workers=s["max_workers"]
    )
    for art_id, summary in summaries.items():
        corpus[art_id].summary = summary
    for err in errors[:10]:
        print(f"warning: article {err.article_id}: {err}", file=sys.stderr)
    data_mod.write_jsonl(paths["dataset"], list(corpus.values()), impressions)
    stats = {"summarized": len(summaries), "errors": len(errors), "cache_entries": len(cache)}
    print(json.dumps(stats, sort_keys=True))
    return stats


def cmd_train(args, config: dict, paths: dict) -> dict:
    corpus, impressions = _load_dataset(args.data)
    if not impressions:
        raise data_mod.DataFormatError("dataset has no impressions to train on")
    model_config = model_config_from_run(config)
    vocabs = build_vocabs(list(corpus.values()), model_config.attr_names)
    params = init_model_params(model_config, vocabs, seed=config["seed"])
    embedder, provider = _frozen_inputs(args, config, corpus, model_config)
    result = train(params, corpus, impressions, train_config_from_run(config), embedder, provider)
    tag = ckpt.save_checkpoint(paths["checkpoint"], result.params)
    result.write_log(paths["log"])
    stats = {"steps_run": result.steps_run, "best_val_auc": result.best_val_auc, "version_tag": tag,
             "n_parameters": result.params.n_parameters()}
    print(json.dumps(stats, sort_keys=True))
    return stats


def cmd_eval(args, config: dict, paths: dict) -> dict:
    impressions, params, features = _checkpoint_inputs(args, config)
    if args.holdout:
        _, impressions = data_mod.split_by_time(impressions, config["train"]["holdout_fraction"])
    report = evaluate_params(params, features, impressions, include_global_auc=args.global_auc)
    report.ablation_flags = {
        name: getattr(params.config, name)
        for name in ("instant_flow", "constant_flow", "flow_gate", "use_instruct_u", "use_summaries")
    }
    with replacing(paths["report"], "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())
    return {"n_impressions": report.n_impressions}


def _checkpoint_inputs(args, config: dict):
    """What every command that uses a trained model starts from: impressions,
    checkpoint and the dataset's frozen-feature table."""
    corpus, impressions = _load_dataset(args.data)
    params = ckpt.load_checkpoint(args.checkpoint)
    embedder, provider = _frozen_inputs(args, config, corpus, params.config)
    return impressions, params, FeatureSource(params, corpus, embedder, provider)


def cmd_precompute(args, config: dict, paths: dict) -> dict:
    """``precompute`` and ``encode``: the rep store of the users ``args.users_of``
    picks from the impressions."""
    impressions, params, features = _checkpoint_inputs(args, config)
    store = serve_mod.precompute(params, features, args.users_of(impressions))
    serve_mod.save_store(paths["store"], store)
    stats = {"articles": len(store.article_ids), "users": len(store.users), "version_tag": store.version_tag}
    print(json.dumps(stats, sort_keys=True))
    return stats


def cmd_serve(args, config: None, paths: dict) -> None:
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


def cmd_diagnose(args, config: dict, paths: dict) -> dict:
    impressions, params, features = _checkpoint_inputs(args, config)
    imp = serve_mod.latest_impressions(impressions).get(args.user)
    if imp is None:
        raise UnknownIdError(f"unknown user {args.user!r}")
    hist_ids = data_mod.in_corpus(features.row_of, imp.history)
    if not hist_ids:
        raise data_mod.DataFormatError(f"user {args.user!r} has no history in the dataset")
    scorer = Scorer(params, features)
    scored = scorer.score(imp)
    hist = scorer.reps[features.rows(hist_ids)]
    profile = features.profile_embedding(imp.user_id, hist_ids)

    def cosine(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        return float(x @ y / (nx * ny)) if nx > 0 and ny > 0 else 0.0

    with replacing(paths["diagnostics"], "w", encoding="utf-8") as fh:
        fh.write("candidate_index,candidate_id,step,history_article_id,alpha,cos_instant,cos_constant\n")
        for rank_idx, (cand_id, attention) in enumerate(zip(scored.article_ids, scored.attention)):
            cand_vec = scorer.rep(cand_id)
            h_ins = attention @ hist if len(attention) else np.zeros(params.config.article_dim)
            h_cons = (constant_rep(params, profile, cand_vec)
                      if params.config.constant_flow else np.zeros_like(h_ins))
            for step, hist_id in enumerate(hist_ids):
                alpha = attention[step] if len(attention) else ""
                fh.write(
                    f"{rank_idx},{cand_id},{step},{hist_id},{alpha},"
                    f"{cosine(hist[step], h_ins)},{cosine(hist[step], h_cons)}\n"
                )
    print(f"wrote {paths['diagnostics']}")
    return {"user": args.user, "candidates": len(scored.article_ids)}


# Each flag that names a file a command reads: whether a command that takes it
# needs it, and its help. ``--config`` also brings ``--set``.
INPUT_FLAGS = {
    "--config": (False, "JSON run config file"),
    "--data": (True, "canonical JSONL dataset"),
    "--checkpoint": (True, "model checkpoint file"),
    "--store": (True, "rep store file"),
    "--user-attrs": (False, "JSON file of {user_id: {attr: value}} for profile prompts"),
    "--news": (False, "news TSV (mind format)"),
    "--behaviors": (False, "behaviors TSV (mind format)"),
    "--input": (False, "JSONL file (jsonl format)"),
}

# Each command's (inputs, outputs). An input is a flag or a run config key that
# names a file the command reads; an output is the file of each role in --out.
# A command without outputs takes no --out and writes no manifest.
_FEATURE_INPUTS = ("--user-attrs", "embedder.path", "summarizer.replay_path")  # read by _frozen_inputs
_MODEL_INPUTS = ("--config", "--data", "--checkpoint", *_FEATURE_INPUTS)
COMMANDS = {
    "synth": (("--config",), {"dataset": "dataset.jsonl", "truth": "truth.json", "user_attrs": "user_attrs.json"}),
    "ingest": (("--news", "--behaviors", "--input"), {"dataset": "dataset.jsonl"}),
    "summarize": (("--config", "--data", "summarizer.replay_path"),
                  {"dataset": "dataset.jsonl", "cache": "summary_cache.jsonl"}),
    "train": (("--config", "--data", *_FEATURE_INPUTS), {"checkpoint": "checkpoint.bin", "log": "train_log.csv"}),
    "eval": (_MODEL_INPUTS, {"report": "eval_report.json"}),
    "encode": (_MODEL_INPUTS, {"store": "article_reps.bin"}),
    "precompute": (_MODEL_INPUTS, {"store": "store.bin"}),
    "diagnose": (_MODEL_INPUTS, {"diagnostics": "diagnostics.csv"}),
    "serve": (("--checkpoint", "--store"), None),
}


def _run(args) -> None:
    """The steps every command shares, in order: ingest's own checks, the run
    config, ``--out`` (made if missing, its manifest checked before anything is
    written), the input check and digests, the command, and its manifest entry."""
    inputs, outputs = COMMANDS[args.command]
    if args.command == "ingest":  # before --out is made; given only its format's inputs, it records no other
        for flag, value, least in (("--max-users", args.max_users, 1), ("--seed", args.seed, 0)):
            if value is not None and value < least:
                raise ConfigError(f"{flag} must be at least {least}, not {value}")
        for flag in ("news", "behaviors", "input"):
            wanted = (flag == "input") == (args.format == "jsonl")
            if (getattr(args, flag) is not None) != wanted:
                raise ConfigError(f"{args.format} format {'needs' if wanted else 'takes no'} --{flag}")
    config = load_run_config(args.config, args.set) if "--config" in inputs else None
    if outputs is not None:
        os.makedirs(args.out, exist_ok=True)
        _read_manifest(args.out)
    digests = {}
    for name in inputs:
        if name.startswith("--"):
            path = getattr(args, name[2:].replace("-", "_"))
        else:  # a run config key names a file when the chosen embedder kind or client reads it
            section, key = name.split(".")
            choice, kinds = _KINDS[section]
            path = config[section][key] if kinds[config[section][choice]] == key else None
        if path is not None and not os.path.isfile(path):
            raise ConfigError(f"{name} {path!r} is not an existing regular file")
        if path is not None and outputs is not None:  # serve records nothing
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digests[name] = digest.hexdigest()
    if outputs is None:
        return args.func(args, config, {})
    paths = {role: os.path.join(args.out, name) for role, name in outputs.items()}
    stats = args.func(args, config, paths)
    _write_manifest(args.out, {
        "command": args.command,
        "inputs": digests,
        "config": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest() if config else None,
        "outputs": paths,
        "stats": stats,
    })


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

    def command(name, func, help_text, **defaults):
        """A subparser with the ``--out`` and input flags that ``COMMANDS[name]`` gives it."""
        inputs, outputs = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if outputs is not None:
            p.add_argument("--out", required=True, help="output directory")
        for flag in (flag for flag in inputs if flag in INPUT_FLAGS):
            p.add_argument(flag, required=INPUT_FLAGS[flag][0], help=INPUT_FLAGS[flag][1])
        if "--config" in inputs:
            p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                           help="override one config value (JSON-parsed)")
        p.set_defaults(func=func, **defaults)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset with a planted click rule")
    p.add_argument("--rule", default="planted-bilinear", choices=data_mod.CLICK_RULES)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--articles", type=int, default=200)
    p.add_argument("--impressions", type=int, default=2000)
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)

    p = command("ingest", cmd_ingest, "parse raw logs into the canonical JSONL format")
    p.add_argument("--format", choices=["mind", "jsonl"], required=True)
    p.add_argument("--max-users", type=int, default=None, help="seeded user subsample")
    p.add_argument("--seed", type=int, default=None)

    command("summarize", cmd_summarize,
            "attach summarized bodies to every article (a failed one keeps its raw body)")
    command("train", cmd_train, "train a model, write checkpoint + log")

    p = command("eval", cmd_eval, "ranking metrics for a checkpoint on a dataset")
    p.add_argument("--holdout", action="store_true", help="evaluate only the time-based holdout")
    p.add_argument("--global-auc", action="store_true", help="also report pooled AUC")

    command("encode", cmd_precompute, "precompute every article's rep only", users_of=lambda impressions: [])
    command("precompute", cmd_precompute,
            "build the serving rep store (every article + each user's latest history)",
            users_of=serve_mod.users_from_impressions)

    p = command("serve", cmd_serve, "run the rerank HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)

    p = command("diagnose", cmd_diagnose, "dump attention weights and rep similarities for one user")
    p.add_argument("--user", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        _run(parser.parse_args(argv))
        return 0
    except (ConfigError, TemplateError, FileNotFoundError, IsADirectoryError) as exc:
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
