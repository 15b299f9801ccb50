import csv
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from flowrec import data as data_mod
from flowrec import serve as serve_mod
from flowrec.checkpoint import load_checkpoint, read_tensor_file, write_tensor_file
from flowrec.cli import (
    _write_manifest,
    load_run_config,
    load_user_attrs,
    main,
    make_profile_provider,
    model_config_from_run,
    train_config_from_run,
)
from flowrec.encode import FeatureSource, HashedTextEmbedder, write_embedding_file
from flowrec.errors import ConfigError
from flowrec.model import ModelConfig, Scorer, instant_rep
from flowrec.serve import load_store
from flowrec.train import TrainConfig

NEWS = (
    "N1\tsports\tsoccer\tTitle A\tAbstract A\thttp://x\t[]\t[]\n"
    "N2\tnews\tworld\tTitle B\tAbstract B\thttp://y\t[]\t[]\n"
    "N3\tnews\ttech\tTitle C\tAbstract C\thttp://z\t[]\t[]\n"
)
BEHAVIORS = (
    "1\tU1\t11/11/2019 9:05:58 AM\tN1\tN2-1 N3-0\n"
    "2\tU2\t11/12/2019 9:05:58 AM\tN1 N2\tN3-0 N1-1\n"
)


@pytest.fixture
def mind_dir(tmp_path):
    (tmp_path / "news.tsv").write_text(NEWS)
    (tmp_path / "behaviors.tsv").write_text(BEHAVIORS)
    return tmp_path


SMALL_OVERRIDES = [
    "dims.embed_dim=32", "dims.text_proj_dim=8", "dims.attr_embed_dim=4",
    "dims.attr_hidden_dim=8", "dims.attr_out_dim=4",
    "train.max_steps=40", "train.batch_size=16", "train.eval_every=20",
    "train.learning_rate=0.01",
    'attrs=["category", "engagement"]',
]


def run(*argv):
    return main([str(a) for a in argv])


def sets(extra=()):
    args = []
    for item in (*SMALL_OVERRIDES, *extra):
        args.extend(["--set", item])
    return args


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(ConfigError, match="not_a_key"):
            load_run_config(str(path))

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"warmup": 10}}))
        with pytest.raises(ConfigError, match="train.warmup"):
            load_run_config(str(path))

    def test_set_overrides(self):
        config = load_run_config(None, ["train.max_steps=7", "flags.flow_gate=false"])
        assert config["train"]["max_steps"] == 7
        assert config["flags"]["flow_gate"] is False

    def test_defaults_match_training_contract(self):
        config = load_run_config(None)
        assert config["train"]["learning_rate"] == 1e-5
        assert config["train"]["batch_size"] == 512
        assert config["train"]["dropout"] == 0.1
        assert config["train"]["max_steps"] == 600_000

    @pytest.mark.parametrize("text,message", [
        ("{bad", "is not JSON"),
        ("[1,2]", "is not a JSON object"),
        ('{"dims": 5}', "'dims' must be an object"),
        ('{"flags": {"batch_norm": 1}}', "'flags.batch_norm' must be true or false"),
    ])
    def test_bad_config_file_exits_one_naming_the_problem(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run("train", "--config", path, "--data", tmp_path / "d.jsonl", "--out", tmp_path / "o") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("item,message", [
        ("dims.embed_dim=abc", "'dims.embed_dim' must be an integer, got \"abc\""),
        ("train.batch_size=abc", "'train.batch_size' must be an integer"),
        ("train.max_steps=true", "'train.max_steps' must be an integer"),
        ("train.learning_rate=fast", "'train.learning_rate' must be a number"),
        ("summarizer.cache_path=3", "'summarizer.cache_path' must be a string or null"),
        ("seed.x=1", "'seed' must be an integer"),
    ])
    def test_mistyped_set_exits_one_naming_the_key(self, tmp_path, capsys, item, message):
        assert run("train", "--set", item, "--data", tmp_path / "d.jsonl", "--out", tmp_path / "o") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("item,key", [
        ("train.log_every=0", "log_every"),
        ("train.neg_sample_ratio=-3", "neg_sample_ratio"),
        ("train.holdout_fraction=2", "holdout_fraction"),
        ('summarizer.article_template="nope"', "summarizer.article_template"),
        ('summarizer.profile_template="nope"', "summarizer.profile_template"),
        ('attrs=["category", "category"]', "attr_names"),
        ("attrs=[1]", "attr_names"),
        ("dims.embed_dim=0", "embed_dim"),
        ("summarizer.budget_tokens=0", "summarizer.budget_tokens"),
        ("summarizer.lead_sentences=-1", "summarizer.lead_sentences"),
        ("summarizer.profile_top_n=-2", "summarizer.profile_top_n"),
        ("seed=-4", "seed"),
    ])
    def test_out_of_range_set_exits_one_before_data_is_read(self, tmp_path, capsys, item, key):
        with pytest.raises(ConfigError, match=key):
            load_run_config(None, [item])
        # The dataset does not exist: the run config is rejected before it is looked for.
        assert run("train", "--set", item, "--data", tmp_path / "d.jsonl", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert key in err and "d.jsonl" not in err

    def test_defaults_are_those_of_model_and_train_config(self):
        config = load_run_config(None)
        assert model_config_from_run(config) == ModelConfig()
        assert train_config_from_run(config) == TrainConfig()

    def test_numbers_take_integers_and_null_defaults_take_strings(self):
        config = load_run_config(None, ["train.learning_rate=1", "summarizer.cache_path=c.jsonl",
                                        "embedder.path=null"])
        assert config["train"]["learning_rate"] == 1
        assert config["summarizer"]["cache_path"] == "c.jsonl"
        assert config["embedder"]["path"] is None

    @pytest.mark.parametrize("text", ["{bad", "[1]", '{"u1": ["skill"]}', '{"u1": {"skill": 3}}'])
    def test_bad_user_attrs_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "attrs.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="user attrs file"):
            load_user_attrs(str(path))
        out = tmp_path / "run"
        assert run("synth", "--users", 3, "--articles", 10, "--impressions", 10, "--out", out) == 0
        assert run("train", "--data", out / "dataset.jsonl", "--out", out, "--user-attrs", path,
                   *sets()) == 1
        assert "user attrs file" in capsys.readouterr().err


class TestIngest:
    def test_mind_fixture_stats(self, mind_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--out", out)
        assert code == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["articles"] == 3
        assert stats["impressions"] == 2
        assert (out / "dataset.jsonl").exists()
        assert (out / "manifest.json").exists()

    def test_second_run_identical_output(self, mind_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                       "--behaviors", mind_dir / "behaviors.tsv", "--out", out) == 0
        assert (out_a / "dataset.jsonl").read_bytes() == (out_b / "dataset.jsonl").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_bad_path_exits_one(self, tmp_path, capsys):
        code = run("ingest", "--format", "mind", "--news", tmp_path / "missing.tsv",
                   "--behaviors", tmp_path / "missing2.tsv", "--out", tmp_path / "out")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_one(self, tmp_path):
        assert run("ingest", "--format", "mind", "--out", tmp_path / "out") == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_max_users_below_one_is_a_usage_error(self, mind_dir, tmp_path, capsys, n):
        code = run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--max-users", n, "--out", tmp_path / "out")
        assert code == 1
        assert "--max-users" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["mind", "jsonl"])
    def test_negative_seed_is_a_usage_error(self, mind_dir, tmp_path, capsys, fmt):
        data_mod.write_jsonl(tmp_path / "d.jsonl", [data_mod.Article("A1", "Title one")],
                             [data_mod.Impression("I1", "U1", 1, [], [("A1", 1)])])
        inputs = {"mind": ["--news", mind_dir / "news.tsv", "--behaviors", mind_dir / "behaviors.tsv"],
                  "jsonl": ["--input", tmp_path / "d.jsonl"]}[fmt]
        code = run("ingest", "--format", fmt, *inputs, "--max-users", 3, "--seed", -2, "--out", tmp_path / "out")
        assert code == 1
        assert "config error: --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [("--config", "run.json"), ("--set", "train.seed=1")])
    def test_run_config_options_are_rejected(self, mind_dir, tmp_path, option):
        # ingest reads no run config, so a config option given to it is a usage error.
        code = run("ingest", *option, "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--out", tmp_path / "out")
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_failed_manifest_write_leaves_previous_manifest(self, mind_dir, tmp_path):
        out = tmp_path / "out"
        assert run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--out", out) == 0
        before = (out / "manifest.json").read_bytes()
        # json.dump writes the earlier entries before it reaches the value it cannot encode.
        with pytest.raises(TypeError):
            _write_manifest(str(out), {"command": "zz", "stats": object()})
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl", "manifest.json"]


    @pytest.mark.parametrize("text", ["[{bad", '{"a": 1}', "[1]"])
    def test_bad_manifest_exits_one_and_is_left_as_it_was(self, mind_dir, tmp_path, capsys, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        code = run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--out", out)
        assert code == 1
        assert "manifest.json" in capsys.readouterr().err
        assert (out / "manifest.json").read_text() == text


    def test_mind_line_not_utf8_is_rejected_not_fatal(self, mind_dir, tmp_path, capsys):
        (mind_dir / "news.tsv").write_bytes(NEWS.encode() + b"N4\tnews\ttech\tTitle \xff\tAbstract\tu\t[]\t[]\n")
        assert run("ingest", "--format", "mind", "--news", mind_dir / "news.tsv",
                   "--behaviors", mind_dir / "behaviors.tsv", "--out", tmp_path / "out") == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.out.strip().splitlines()[-1])
        assert stats["rejected_records"] == 1 and stats["articles"] == 3
        assert "line 4: not UTF-8" in captured.err

    def test_bad_jsonl_records_are_rejected_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--users", 3, "--articles", 10, "--impressions", 10, "--out", out) == 0
        raw = tmp_path / "raw.jsonl"
        raw.write_bytes((out / "dataset.jsonl").read_bytes() + b'{"kind": "\xff"}\n'
                        + b'{"kind": "impression", "id": "i", "user": "u", "candidates": []}\n')
        assert run("ingest", "--format", "jsonl", "--input", raw, "--out", tmp_path / "in") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["rejected_records"] == 2
        assert "not UTF-8" in captured.err and "non-empty list" in captured.err
        assert (tmp_path / "in" / "dataset.jsonl").read_bytes() == (out / "dataset.jsonl").read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("text", ["[{bad", '{"a": 1}', "[1]"])
    def test_bad_manifest_stops_synth_before_it_writes(self, tmp_path, capsys, text):
        out = tmp_path / "d"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert run("synth", "--out", out) == 1
        assert "manifest.json" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == text

    @pytest.mark.parametrize("option,value,name", [
        ("--users", 0, "n_users"), ("--articles", -1, "n_articles"), ("--impressions", 0, "n_impressions"),
        ("--topics", 0, "topic_count"), ("--seed", -1, "seed"),
    ])
    def test_out_of_range_synth_value_exits_one_naming_it(self, tmp_path, capsys, option, value, name):
        assert run("synth", option, value, "--out", tmp_path / "o") == 1
        assert f"config error: {name} must be >= " in capsys.readouterr().err

    def test_a_bare_key_error_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        def broken(spec):
            raise KeyError("not an id")
        monkeypatch.setattr(data_mod, "generate_synthetic", broken)
        assert run("synth", "--out", tmp_path / "o") == 3
        assert "error: 'not an id'" in capsys.readouterr().err

    def test_text_missing_from_the_embedding_file_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--users", 3, "--articles", 10, "--impressions", 10, "--out", out) == 0
        emb = tmp_path / "emb.bin"
        write_embedding_file(emb, {"some other text": np.ones(32)}, 32)
        assert run("train", "--data", out / "dataset.jsonl", "--out", out, "--set", 'embedder.kind="precomputed"',
                   "--set", f"embedder.path={json.dumps(str(emb))}", *sets()) == 2
        assert "no precomputed embedding" in capsys.readouterr().err

    def test_an_empty_training_set_is_a_data_error(self, tmp_path, capsys):
        # Only the latest impression, which is held out, names an article in the corpus.
        articles = [data_mod.Article("A1", "Title one"), data_mod.Article("A2", "Title two")]
        impressions = [data_mod.Impression(f"I{t}", "U1", t, [], [(a, 1)])
                       for t, a in ((1, "X1"), (2, "X2"), (3, "A1"))]
        data_mod.write_jsonl(tmp_path / "dataset.jsonl", articles, impressions)
        assert run("train", "--data", tmp_path / "dataset.jsonl", "--out", tmp_path / "run", *sets()) == 2
        assert "data error: training set is empty" in capsys.readouterr().err


class TestPipeline:
    def test_failed_summarize_write_leaves_the_dataset_it_read(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run("synth", "--users", 3, "--articles", 10, "--impressions", 10, "--out", out) == 0
        before = (out / "dataset.jsonl").read_bytes()
        real = data_mod.serialize_jsonl

        def fail_partway(articles, impressions):
            for i, line in enumerate(real(articles, impressions)):
                if i == 5:
                    raise OSError("disk full")
                yield line

        monkeypatch.setattr(data_mod, "serialize_jsonl", fail_partway)
        assert run("summarize", "--data", out / "dataset.jsonl", "--out", out, *sets()) == 3
        assert (out / "dataset.jsonl").read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_synth_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("synth", "--rule", "topic-affinity", "--users", 5, "--articles", 20,
                       "--impressions", 15, "--seed", 3, "--out", out) == 0
        assert (out_a / "dataset.jsonl").read_bytes() == (out_b / "dataset.jsonl").read_bytes()
        assert (out_a / "truth.json").read_bytes() == (out_b / "truth.json").read_bytes()

    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--rule", "topic-affinity", "--users", 8, "--articles", 30,
                   "--impressions", 60, "--seed", 4, "--out", out) == 0
        data = out / "dataset.jsonl"

        assert run("summarize", "--data", data, "--out", out, *sets()) == 0
        summarized = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
        assert summarized["kind"] == "article"

        assert run("train", "--data", data, "--out", out, *sets()) == 0
        train_stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert train_stats["steps_run"] == 40
        ckpt = out / "checkpoint.bin"
        assert ckpt.exists()
        with open(out / "train_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"step", "loss", "val_auc", "val_mrr", "wall_ms"}

        assert run("eval", "--data", data, "--checkpoint", ckpt, "--out", out, *sets()) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert set(report["ablation_flags"]) == {"instant_flow", "constant_flow", "flow_gate",
                                                 "use_instruct_u", "use_summaries"}
        assert report["n_impressions"] > 0

        assert run("encode", "--data", data, "--checkpoint", ckpt, "--out", out, *sets()) == 0
        assert (out / "article_reps.bin").exists()

        assert run("precompute", "--data", data, "--checkpoint", ckpt, "--out", out, *sets()) == 0
        assert (out / "store.bin").exists()

        manifest = json.loads((out / "manifest.json").read_text())
        commands = {entry["command"] for entry in manifest}
        assert {"synth", "summarize", "train", "eval", "encode", "precompute"} <= commands

    def test_eval_dim_mismatch_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--rule", "topic-affinity", "--users", 5, "--articles", 20,
                   "--impressions", 30, "--seed", 4, "--out", out) == 0
        data = out / "dataset.jsonl"
        assert run("train", "--data", data, "--out", out, *sets()) == 0
        # the model's embed_dim comes from the checkpoint; a precomputed file of another width fails
        emb = out / "emb.bin"
        write_embedding_file(emb, {"some text": np.ones(64)}, 64)
        code = run("eval", "--data", data, "--checkpoint", out / "checkpoint.bin", "--out", out,
                   "--set", 'embedder.kind="precomputed"', "--set", f"embedder.path={json.dumps(str(emb))}")
        assert code == 1
        assert "text embedder dim 64 is not the model's embed_dim 32" in capsys.readouterr().err

    def test_checkpoint_commands_take_the_model_settings_from_the_checkpoint(self, tmp_path):
        # Trained with toy dims and raw-title profiles: given no run config, eval, encode,
        # precompute and diagnose read dims, flags and attrs from the checkpoint alone.
        out = tmp_path / "run"
        assert run("synth", "--rule", "topic-affinity", "--users", 6, "--articles", 25,
                   "--impressions", 40, "--seed", 9, "--out", out) == 0
        data = out / "dataset.jsonl"
        trained = sets(["flags.use_instruct_u=false"])
        assert run("summarize", "--data", data, "--out", out, *trained) == 0
        assert run("train", "--data", data, "--out", out, *trained) == 0
        files = {"eval": "eval_report.json", "encode": "article_reps.bin", "precompute": "store.bin",
                 "diagnose": "diagnostics.csv"}
        for where, settings in ((tmp_path / "bare", ()), (tmp_path / "set", trained)):
            for command in files:
                user = ("--user", _first_user(data)) if command == "diagnose" else ()
                assert run(command, "--data", data, "--checkpoint", out / "checkpoint.bin", "--out", where,
                           *user, *settings) == 0, command
        for name in files.values():
            assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "set" / name).read_bytes(), name
        report = json.loads((tmp_path / "bare" / "eval_report.json").read_text())
        assert report["ablation_flags"]["use_instruct_u"] is False
        titles = {a.article_id: a.title for a in data_mod.read_jsonl(str(data)).articles}
        served = load_store(tmp_path / "bare" / "store.bin").users.values()
        assert all(e.profile_text == "\n".join(titles[a] for a in e.history) for e in served)

    def test_diagnose_alpha_rows(self, tmp_path):
        out = tmp_path / "run"
        assert run("synth", "--rule", "topic-affinity", "--users", 6, "--articles", 25,
                   "--impressions", 40, "--seed", 9, "--out", out) == 0
        data = out / "dataset.jsonl"
        assert run("train", "--data", data, "--out", out, *sets()) == 0

        user = json.loads(next(l for l in data.read_text().splitlines()
                               if '"impression"' in l))["user"]
        assert run("diagnose", "--data", data, "--checkpoint", out / "checkpoint.bin",
                   "--out", out, "--user", user, *sets()) == 0
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        by_candidate = {}
        for row in rows:
            by_candidate.setdefault(row["candidate_index"], []).append(float(row["alpha"]))
        for alphas in by_candidate.values():
            assert abs(sum(alphas) - 1.0) < 1e-6

    def test_diagnose_unknown_user_exits_two(self, tmp_path):
        out = tmp_path / "run"
        assert run("synth", "--users", 5, "--articles", 20, "--impressions", 20,
                   "--seed", 2, "--out", out) == 0
        assert run("train", "--data", out / "dataset.jsonl", "--out", out, *sets()) == 0
        code = run("diagnose", "--data", out / "dataset.jsonl",
                   "--checkpoint", out / "checkpoint.bin", "--out", out,
                   "--user", "nobody", *sets())
        assert code == 2

    def test_truncated_checkpoint_exits_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--users", 5, "--articles", 20, "--impressions", 20,
                   "--seed", 2, "--out", out) == 0
        assert run("train", "--data", out / "dataset.jsonl", "--out", out, *sets()) == 0
        ckpt = out / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:10])  # inside the header length
        code = run("eval", "--data", out / "dataset.jsonl", "--checkpoint", ckpt, "--out", out,
                   *sets())
        assert code == 1
        assert "checkpoint.bin is truncated" in capsys.readouterr().err

    def test_missing_dataset_exits_one(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "o",
                   *sets()) == 1

    def test_flow_mix_user_attrs_flow(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--rule", "flow-mix", "--users", 6, "--articles", 30,
                   "--impressions", 50, "--seed", 3, "--out", out) == 0
        attrs_path = out / "user_attrs.json"
        assert attrs_path.exists()
        attrs = json.loads(attrs_path.read_text())
        assert all("position" in a for a in attrs.values())

        extra = ('summarizer.profile_template="user_profile_ata"',)
        assert run("train", "--data", out / "dataset.jsonl", "--out", out,
                   "--user-attrs", attrs_path, *sets(extra)) == 0
        assert run("eval", "--data", out / "dataset.jsonl",
                   "--checkpoint", out / "checkpoint.bin", "--out", out,
                   "--user-attrs", attrs_path, *sets(extra)) == 0

        # the ATA-style template requires the attrs: without them it must fail
        code = run("eval", "--data", out / "dataset.jsonl",
                   "--checkpoint", out / "checkpoint.bin", "--out", out, *sets(extra))
        assert code == 1


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A small summarized synthetic run with a trained checkpoint and its rep store."""
    out = tmp_path_factory.mktemp("trained")
    assert run("synth", "--rule", "topic-affinity", "--users", 6, "--articles", 25,
               "--impressions", 40, "--seed", 9, "--out", out) == 0
    assert run("summarize", "--data", out / "dataset.jsonl", "--out", out, *sets()) == 0
    assert run("train", "--data", out / "dataset.jsonl", "--out", out, *sets()) == 0
    assert run("precompute", "--data", out / "dataset.jsonl", "--checkpoint", out / "checkpoint.bin",
               "--out", out, *sets()) == 0
    return out


def _first_user(data):
    return json.loads(next(l for l in data.read_text().splitlines() if '"impression"' in l))["user"]


def _rewrite(src, dst, garble):
    """Write the container ``src`` to ``dst`` with its header and tensors passed through ``garble``."""
    header, tensors = read_tensor_file(src)
    write_tensor_file(dst, *garble(header, tensors))


def _without(key):
    return lambda h, t: ({k: v for k, v in h.items() if k != key}, t)


def _category_index_999(h, t):
    """The first token of the category vocab given an index past the vocab's end."""
    vocab = dict(h["vocabs"]["category"])
    vocab[next(iter(vocab))] = 999
    return {**h, "vocabs": {**h["vocabs"], "category": vocab}}, t


# Each garbled file, and the tensor or header key its error must name.
GARBLED_CHECKPOINTS = {
    "kind-and-version-only": (lambda h, t: ({"kind": "checkpoint", "format_version": 1}, t), "'config'"),
    "config-not-an-object": (lambda h, t: ({**h, "config": [1]}, t), "'config'"),
    "vocab-index-not-an-integer": (lambda h, t: ({**h, "vocabs": {"category": {"news": "1"}}}, t), "'category'"),
    "vocab-index-999": (_category_index_999, "'category'"),
    "no-title-w": (lambda h, t: (h, {k: v for k, v in t.items() if k != "title_w"}), "'title_w'"),
    "attr-w1-misshapen": (lambda h, t: (h, {**t, "attr_w1": t["attr_w1"][:, :-1]}), "'attr_w1'"),
    "extra-tensor": (lambda h, t: (h, {**t, "extra": np.zeros(3)}), "'extra'"),
    "head-b-edited": (lambda h, t: (h, {**t, "head_b": t["head_b"] + 1.0}), "version_tag"),
}

GARBLED_STORES = {
    "no-format-version": (_without("format_version"), "format version None"),
    "no-article-dim": (_without("article_dim"), "'article_dim'"),
    "ids-without-reps": (lambda h, t: (h, {k: v for k, v in t.items() if k != "article_reps"}), "'article_reps'"),
    "id-repeated": (lambda h, t: ({**h, "article_ids": h["article_ids"][:-1] + h["article_ids"][:1]}, t),
                    "'article_ids'"),
    "history-id-not-stored": (lambda h, t: ({**h, "users": {u: {**m, "history": ["ghost"]}
                                                             for u, m in h["users"].items()}}, t), "'users'"),
}


class TestCheckpointCommands:
    def test_serve_exits_zero_on_sigterm(self, trained_run):
        src = os.path.dirname(os.path.dirname(data_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, "-m", "flowrec", "serve", "--checkpoint", str(trained_run / "checkpoint.bin"),
               "--store", str(trained_run / "store.bin"), "--port", "0"]
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as server:
            try:
                assert server.stdout.readline().startswith("serving on http://127.0.0.1:")
                server.send_signal(signal.SIGTERM)
                assert server.wait(timeout=30) == 0, server.stderr.read()
            finally:
                server.kill()  # does nothing once the server has exited

    @pytest.mark.parametrize("flag", ["instant_flow", "constant_flow"])
    def test_diagnose_with_one_flow_off(self, trained_run, tmp_path, flag):
        data, extra = trained_run / "dataset.jsonl", (f"flags.{flag}=false",)
        assert run("train", "--data", data, "--out", tmp_path, *sets(extra)) == 0
        assert run("diagnose", "--data", data, "--checkpoint", tmp_path / "checkpoint.bin", "--out", tmp_path,
                   "--user", _first_user(data), *sets(extra)) == 0
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        off = "cos_instant" if flag == "instant_flow" else "cos_constant"
        assert all(float(row[off]) == 0.0 for row in rows)
        assert all((row["alpha"] == "") == (flag == "instant_flow") for row in rows)

    def test_diagnose_cos_instant_is_that_of_instant_rep(self, trained_run, tmp_path):
        data, ckpt = trained_run / "dataset.jsonl", trained_run / "checkpoint.bin"
        user = _first_user(data)
        assert run("diagnose", "--data", data, "--checkpoint", ckpt, "--out", tmp_path,
                   "--user", user, *sets()) == 0
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        dataset = data_mod.read_jsonl(str(data))
        corpus = data_mod.build_corpus(dataset.articles)
        imp = max((i for i in dataset.impressions if i.user_id == user), key=lambda i: i.timestamp)
        params = load_checkpoint(ckpt)
        scorer = Scorer(params, FeatureSource(params, corpus, HashedTextEmbedder(32)))
        hist = np.stack([scorer.rep(a) for a in imp.history if a in corpus])
        assert len(rows) == len(imp.candidates) * len(hist)
        for row in rows:
            h = instant_rep(params, scorer.rep(row["candidate_id"]), hist)
            x = hist[int(row["step"])]
            reference = x @ h / (np.linalg.norm(x) * np.linalg.norm(h))
            assert abs(float(row["cos_instant"]) - reference) <= 1e-12

    def test_encode_holds_the_reps_of_precompute(self, trained_run, tmp_path, capsys):
        args = ("--data", trained_run / "dataset.jsonl", "--checkpoint", trained_run / "checkpoint.bin",
                "--out", tmp_path, *sets())
        assert run("encode", *args) == 0
        encode_stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run("precompute", *args) == 0
        articles, full = load_store(tmp_path / "article_reps.bin"), load_store(tmp_path / "store.bin")
        assert articles.article_ids == full.article_ids
        assert np.array_equal(articles.reps, full.reps)
        assert articles.users == {} and full.users
        assert encode_stats["users"] == 0 and encode_stats["articles"] == len(full.article_ids)
        manifest = {e["command"]: e for e in json.loads((tmp_path / "manifest.json").read_text())}
        assert manifest["encode"]["stats"] == encode_stats
        assert manifest["encode"]["outputs"] == {"store": "article_reps.bin"}

    def test_precompute_keeps_an_article_without_a_summary(self, trained_run, tmp_path, capsys):
        # summarize tolerates a failed completion: that article is stored, encoded
        # from its raw body, and served with the scores evaluation gives it.
        dataset = data_mod.read_jsonl(str(trained_run / "dataset.jsonl"))
        latest = serve_mod.users_from_impressions(dataset.impressions)[0]
        corpus = data_mod.build_corpus(dataset.articles)
        unsummarized = latest.history[-1]
        corpus[unsummarized].summary = None
        data = tmp_path / "dataset.jsonl"
        data_mod.write_jsonl(data, dataset.articles, dataset.impressions)
        args = ("--data", data, "--checkpoint", trained_run / "checkpoint.bin", "--out", tmp_path, *sets())
        capsys.readouterr()
        assert run("precompute", *args, "--allow-partial") == 1
        assert run("precompute", *args) == 0
        assert f"warning: 1 of {len(corpus)} articles have a body but no summary" in capsys.readouterr().err

        store, params = load_store(tmp_path / "store.bin"), load_checkpoint(trained_run / "checkpoint.bin")
        assert store.article_ids == list(corpus)
        assert store.users[latest.user_id].history == latest.history
        provider = make_profile_provider(load_run_config(None, SMALL_OVERRIDES), corpus)
        scorer = Scorer(params, FeatureSource(params, corpus, HashedTextEmbedder(32), provider))
        ids = [unsummarized, *(a for a in list(corpus)[:7] if a != unsummarized)]
        imp = data_mod.Impression("p", latest.user_id, 0, latest.history, [(a, 0) for a in ids])
        scored = scorer.score(imp)
        offline = dict(zip(scored.article_ids, scored.probabilities.tolist()))
        online = serve_mod.rank(serve_mod.RankRequest(latest.user_id, ids), store, params)
        assert dict(online.results) == offline  # bit-identical

    def test_unknown_candidate_is_dropped_by_train_and_eval(self, trained_run, tmp_path):
        # The last impression, which the time-based holdout validates on, gets a
        # "ghost" candidate; a second copy of it has no known candidate at all.
        dataset = data_mod.read_jsonl(str(trained_run / "dataset.jsonl"))
        last = max(dataset.impressions, key=lambda i: (i.timestamp, i.impression_id))
        ghostly = [data_mod.Impression(last.impression_id, last.user_id, last.timestamp, last.history,
                                       [*last.candidates, ("ghost", 0)]),
                   data_mod.Impression("all-ghosts", last.user_id, last.timestamp, last.history, [("ghost", 1)])]
        data = tmp_path / "ghost.jsonl"
        data_mod.write_jsonl(data, dataset.articles, [i for i in dataset.impressions if i is not last] + ghostly)
        assert run("train", "--data", data, "--out", tmp_path / "t",
                   *sets(["train.eval_every=1", "train.max_steps=3"])) == 0
        assert (tmp_path / "t" / "checkpoint.bin").exists()

        reports = []
        for dataset_path in (trained_run / "dataset.jsonl", data):
            assert run("eval", "--data", dataset_path, "--checkpoint", trained_run / "checkpoint.bin",
                       "--out", tmp_path, *sets()) == 0
            reports.append(json.loads((tmp_path / "eval_report.json").read_text()))
        clean, ghost = reports
        assert ghost["n_excluded"] == clean["n_excluded"] + 1  # the impression with no known candidate
        assert ghost == {**clean, "n_excluded": clean["n_excluded"] + 1}  # the rest scored as without the ghost

    def test_diagnose_explains_the_history_precompute_stores(self, trained_run, tmp_path):
        # Two latest impressions with one timestamp: the one listed later is the user's latest.
        dataset = data_mod.read_jsonl(str(trained_run / "dataset.jsonl"))
        user, ids = _first_user(trained_run / "dataset.jsonl"), [a.article_id for a in dataset.articles]
        when = max(i.timestamp for i in dataset.impressions) + 1
        tied = [data_mod.Impression("tie-1", user, when, ids[:1], [(ids[5], 1)]),
                data_mod.Impression("tie-2", user, when, ids[2:4], [(ids[5], 1), (ids[6], 0)])]
        data = tmp_path / "tied.jsonl"
        data_mod.write_jsonl(data, dataset.articles, dataset.impressions + tied)
        args = ("--data", data, "--checkpoint", trained_run / "checkpoint.bin", "--out", tmp_path, *sets())
        assert run("precompute", *args) == 0
        assert run("diagnose", *args, "--user", user) == 0
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        explained = list(dict.fromkeys(row["history_article_id"] for row in rows))
        assert explained == load_store(tmp_path / "store.bin").users[user].history == ids[2:4]

    def test_eval_global_auc_is_the_pooled_auc(self, trained_run, tmp_path):
        data, ckpt = trained_run / "dataset.jsonl", trained_run / "checkpoint.bin"
        reports = []
        for option in ((), ("--global-auc",)):
            assert run("eval", "--data", data, "--checkpoint", ckpt, "--out", tmp_path, *option, *sets()) == 0
            reports.append(json.loads((tmp_path / "eval_report.json").read_text()))
        plain, pooled = reports
        dataset = data_mod.read_jsonl(str(data))
        corpus = data_mod.build_corpus(dataset.articles)
        provider = make_profile_provider(load_run_config(None, SMALL_OVERRIDES), corpus)
        params = load_checkpoint(ckpt)
        scorer = Scorer(params, FeatureSource(params, corpus, HashedTextEmbedder(32), provider))
        scores, labels = [], []
        for imp in dataset.impressions:
            scores += scorer.score(imp).probabilities.tolist()
            labels += imp.labels
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        wins = 0.0  # counted pair by pair, independent of flowrec.metrics
        for p in pos:
            for n in neg:
                if p > n:
                    wins += 1.0
                elif p == n:
                    wins += 0.5
        assert plain.pop("global_auc") is None
        assert pooled.pop("global_auc") == wins / (len(pos) * len(neg))
        assert pooled == plain

    @pytest.mark.parametrize("garble,named", GARBLED_CHECKPOINTS.values(), ids=GARBLED_CHECKPOINTS)
    def test_garbled_checkpoint_header_exits_one(self, trained_run, tmp_path, capsys, garble, named):
        path = tmp_path / "checkpoint.bin"
        _rewrite(trained_run / "checkpoint.bin", path, garble)
        assert run("eval", "--data", trained_run / "dataset.jsonl", "--checkpoint", path,
                   "--out", tmp_path, *sets()) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err

    @pytest.mark.parametrize("garble,named", GARBLED_STORES.values(), ids=GARBLED_STORES)
    def test_garbled_store_header_exits_one(self, trained_run, tmp_path, capsys, monkeypatch, garble, named):
        def not_reached(*args):
            raise AssertionError("the garbled store was loaded")
        monkeypatch.setattr(serve_mod, "create_server", not_reached)
        path = tmp_path / "store.bin"
        _rewrite(trained_run / "store.bin", path, garble)
        assert run("serve", "--checkpoint", trained_run / "checkpoint.bin", "--store", path, "--port", 0) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err
