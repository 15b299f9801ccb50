"""The benchmark's four workloads, each built so a different layer does most
of the work.

* ``train-paper``: one ``train()`` call at the paper's dims (the per-example
  forward/backward loop at full width, plus the frozen-feature build).
* ``recover-desk``: one ``train()`` call on the planted-bilinear world at
  desk dims, with validation inside the call (narrow matrices, so Python
  overhead and the evaluation path dominate); it must recover the rule.
* ``serve-long``: one ``POST /rank`` with 1000 candidates against a
  ``flowrec serve`` process built by the CLI pipeline (per-candidate scoring
  is nearly the whole request).

A workload is driven through ``setup`` (untimed by the loop, timed as
``setup_s``), then repeatedly ``prepare(i)`` (untimed) and ``run(args)``
(timed), and ``check(args, out)`` after the timed loop.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Paper dims: embed 256, text projection 128, attributes 16/64/64, article dim 320.
PAPER_DIMS = dict(embed_dim=256, text_proj_dim=128, attr_embed_dim=16,
                  attr_hidden_dim=64, attr_out_dim=64)
DESK_DIMS = dict(embed_dim=96, text_proj_dim=32, attr_embed_dim=8,
                 attr_hidden_dim=32, attr_out_dim=16)
ATTRS = ["category", "engagement"]


class SetupError(RuntimeError):
    """The workload could not be brought to its first timed operation."""


def _flowrec():
    """The package modules, imported only once ``src`` is on the path."""
    import flowrec  # noqa: F401  (loads every submodule)

    return {name: sys.modules[f"flowrec.{name}"]
            for name in ("data", "encode", "model", "summarize", "train", "checkpoint")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Training workloads (in process)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainRecipe:
    users: int
    articles: int
    impressions: int
    history: int
    dims: dict
    batch: int
    steps: int
    learning_rate: float
    eval_every: int
    holdout: float
    profile_top_n: int
    auc_bar: float | None = None
    world_seed: int | None = None  # a fixed world; the workload seed then drives init and batch order


# 90 impressions leave 86 after the 5% holdout, 516 examples: every step's
# batch of 512 is nearly the whole training set, so the loss falls within
# one four-step call on every seed instead of riding on batch composition.
TRAIN_PAPER = TrainRecipe(users=200, articles=1500, impressions=90, history=50,
                          dims=PAPER_DIMS, batch=512, steps=4, learning_rate=3e-3,
                          eval_every=10**9, holdout=0.05, profile_top_n=6)

# The criterion-4 world (seed 7) and recipe, capped at 200 steps: over init
# and batch-order seeds 0-23 the best validation AUC by then was 0.918-0.934.
# The world stays fixed because some seeded worlds cannot clear the bar at
# all: with the true click probabilities, world 401's holdout AUC is 0.910.
RECOVER_DESK = TrainRecipe(users=50, articles=200, impressions=2500, history=12,
                           dims=DESK_DIMS, batch=128, steps=200, learning_rate=0.005,
                           eval_every=100, holdout=0.08, profile_top_n=4, auc_bar=0.90,
                           world_seed=7)


class TrainWorkload:
    kind = "train"

    def __init__(self, name: str, seed: int, recipe: TrainRecipe):
        self.name = name
        self.seed = seed
        self.recipe = recipe
        self.fr = _flowrec()
        self.reference_figures: dict = {}
        self._frozen = None

    def setup(self, workdir: Path) -> None:
        """Generate the seeded world and load it back through the JSONL format."""
        r, data = self.recipe, self.fr["data"]
        spec = data.SyntheticSpec(n_users=r.users, n_articles=r.articles,
                                  n_impressions=r.impressions, topic_count=8,
                                  seed=self.seed if r.world_seed is None else r.world_seed,
                                  click_rule="planted-bilinear", history_length=r.history)
        world = data.generate_synthetic(spec)
        path = workdir / "dataset.jsonl"
        data.write_jsonl(path, world.articles, world.impressions)
        parsed = data.read_jsonl(path)
        if parsed.errors:
            raise SetupError(f"dataset round trip rejected {len(parsed.errors)} records")
        self.corpus = data.build_corpus(parsed.articles)
        self.impressions = parsed.impressions
        self.model_config = self.fr["model"].ModelConfig(attr_names=list(ATTRS), **r.dims)
        self.vocabs = self.fr["encode"].build_vocabs(parsed.articles, ATTRS)

    def _provider(self):
        s = self.fr["summarize"]
        return s.ProfileProvider(self.corpus, s.TEMPLATES["user_profile_mind"],
                                 s.StubCompletionClient(profile_top_n=self.recipe.profile_top_n))

    def prepare(self, index: int):
        r = self.recipe
        params = self.fr["model"].init_model_params(self.model_config, self.vocabs, seed=self.seed)
        config = self.fr["train"].TrainConfig(
            learning_rate=r.learning_rate, batch_size=r.batch, dropout=0.1, max_steps=r.steps,
            eval_every=r.eval_every, patience=8, holdout_fraction=r.holdout, seed=self.seed)
        embedder = self.fr["encode"].HashedTextEmbedder(self.model_config.embed_dim)
        return params, config, embedder, self._provider()

    def run(self, args):
        params, config, embedder, provider = args
        return self.fr["train"].train(params, self.corpus, self.impressions, config,
                                      embedder, provider)

    def items(self, args, out) -> int:
        return out.steps_run * self.recipe.batch

    def check(self, args, out) -> list[str]:
        r = self.recipe
        if r.auc_bar is None:
            return checks.check_training(out.params.tensors, out.losses, out.steps_run, r.steps)
        problems = [] if out.steps_run == r.steps else [f"ran {out.steps_run} of {r.steps} steps"]
        reached = [row.step for row in out.log if row.val_auc is not None and row.val_auc >= r.auc_bar]
        self.reference_figures["first_step_auc_ge_bar"] = min(reached) if reached else None
        return problems + checks.check_auc(self.holdout_auc(out.params), out.best_val_auc, r.auc_bar)

    def holdout_auc(self, params) -> float | None:
        """Brute-force AUC of the latest-by-time holdout, scored with the
        benchmark's own forward pass from the returned parameters."""
        if self._frozen is None:
            self._frozen = self._frozen_inputs()
        ids, attr_idx, title, body, holdout, profiles = self._frozen
        reps = checks.reference_article_reps(params.tensors, ATTRS, attr_idx, title, body)
        row = {a: i for i, a in enumerate(ids)}
        rankings = []
        for imp, profile in zip(holdout, profiles):
            hist = reps[[row[a] for a in imp.history if a in row]]
            cands = reps[[row[a] for a, _ in imp.candidates]]
            probs = checks.reference_probabilities(params.tensors, cands, hist, profile)
            rankings.append((probs.tolist(), [y for _, y in imp.candidates]))
        return checks.brute_force_auc(rankings)

    def _frozen_inputs(self):
        embedder = self.fr["encode"].HashedTextEmbedder(self.model_config.embed_dim)
        ids = list(self.corpus)
        arts = [self.corpus[a] for a in ids]
        attr_idx = np.array([[self.vocabs[n].get(a.attributes.get(n, ""), 0) for n in ATTRS]
                             for a in arts], dtype=np.int64)
        title = np.stack([embedder.embed(a.title) for a in arts])
        body = np.stack([embedder.embed(a.body_text(self.model_config.use_summaries)) for a in arts])
        ordered = sorted(self.impressions, key=lambda i: (i.timestamp, i.impression_id))
        holdout = ordered[len(ordered) - max(1, round(len(ordered) * self.recipe.holdout)):]
        provider = self._provider()
        profiles = []
        for imp in holdout:
            hist_ids = [a for a in imp.history if a in self.corpus]
            text = provider.profile_text(imp.user_id, hist_ids) if hist_ids else ""
            profiles.append(embedder.embed(text))
        return ids, attr_idx, title, body, holdout, profiles

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def warm_up(self) -> None:
        pass  # each operation is a fresh train() call; nothing carries over to warm

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Serving workloads (CLI pipeline plus a `flowrec serve` process)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeRecipe:
    users: int = TRAIN_PAPER.users
    articles: int = TRAIN_PAPER.articles
    impressions: int = TRAIN_PAPER.impressions
    settings: tuple = ()           # extra --set overrides (the toy recipe shrinks dims)
    candidates: int = 1000
    top_k: int = 10
    warmup: int = 5
    verify_share: float = 0.25


# `flowrec synth` has no history-length option, so the serving world keeps
# the CLI's history of 12; counts and seed follow the train-paper world.
SERVE_LONG = ServeRecipe()


class ServeWorkload:
    kind = "serve"
    STAGES = ("synth", "summarize", "train", "precompute")

    def __init__(self, name: str, seed: int, recipe: ServeRecipe):
        self.name = name
        self.seed = seed
        self.recipe = recipe
        self.server: subprocess.Popen | None = None
        self.workdir: Path | None = None
        self.stage_s: dict[str, float] = {}
        self._pool = None    # (article ids, user ids) that requests draw from
        self._store = None   # reference inputs, read at the first verified response
        self.reference_figures: dict = {}
        self._rng = np.random.default_rng([seed, 1])
        self._verify_rng = np.random.default_rng([seed, 2])

    def _command(self, argv: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "flowrec", *argv]
        return [sys.executable, str(BENCH_DIR / "boot.py"), str(spans), "--", *argv]

    def setup(self, workdir: Path, spans_dir: Path | None = None) -> None:
        """``synth -> summarize -> train -> precompute`` through the CLI, then
        start ``flowrec serve`` and wait for its ready banner."""
        r, out = self.recipe, workdir
        self.workdir = workdir
        data = str(out / "dataset.jsonl")
        settings = ["--set", f"seed={self.seed}", "--set", f"attrs={json.dumps(ATTRS)}",
                    "--set", "train.max_steps=1"]
        for item in r.settings:
            settings += ["--set", item]
        argvs = {
            "synth": ["synth", "--rule", "planted-bilinear", "--users", str(r.users),
                      "--articles", str(r.articles), "--impressions", str(r.impressions),
                      "--seed", str(self.seed), "--out", str(out)],
            "summarize": ["summarize", "--data", data, "--out", str(out), *settings],
            "train": ["train", "--data", data, "--out", str(out), *settings],
            "precompute": ["precompute", "--data", data, "--checkpoint", str(out / "checkpoint.bin"),
                           "--out", str(out), *settings],
        }
        for stage in self.STAGES:
            spans = spans_dir / f"{stage}.json" if spans_dir else None
            started = time.perf_counter()
            proc = subprocess.run(self._command(argvs[stage], spans), env=child_env(),
                                  capture_output=True, text=True, timeout=150)
            self.stage_s[stage] = time.perf_counter() - started
            if proc.returncode != 0:
                raise SetupError(f"flowrec {stage} exited {proc.returncode}: {proc.stderr.strip()}")
        started = time.perf_counter()
        self.start_server(None)
        self.stage_s["serve_ready"] = time.perf_counter() - started

    def start_server(self, spans: Path | None) -> None:
        argv = ["serve", "--checkpoint", str(self.workdir / "checkpoint.bin"),
                "--store", str(self.workdir / "store.bin"), "--port", "0"]
        self._stderr = open(self.workdir / "serve.stderr", "w", encoding="utf-8")
        self.server = subprocess.Popen(self._command(argv, spans), env=child_env(),
                                       stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        ready, _, _ = select.select([self.server.stdout], [], [], 120)
        banner = self.server.stdout.readline() if ready else ""
        if not banner.startswith("serving on http://"):
            self.stop_server()
            raise SetupError(f"flowrec serve printed no ready banner (got {banner!r})")
        self.port = int(banner.split("://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])

    def warm_up(self) -> None:
        """Untimed requests before timing, so the server's first calls pay no lazy costs."""
        for _ in range(self.recipe.warmup):
            status, payload = self.run(self._request())
            if status != 200:
                raise SetupError(f"warm-up request answered {status}: {payload}")

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            # SIGTERM, not SIGINT: a parent started in the background may pass
            # SIGINT down as ignored. boot.py turns SIGTERM into a clean exit.
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self._stderr.close()
        self.server = None

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("no VmHWM line for the server process")

    def _request(self):
        if self._pool is None:
            with open(self.workdir / "dataset.jsonl", "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            self._pool = (sorted(r["id"] for r in records if r["kind"] == "article"),
                          sorted({r["user"] for r in records if r["kind"] == "impression"}))
        articles, users = self._pool
        user = users[int(self._rng.integers(len(users)))]
        picks = self._rng.choice(len(articles), size=self.recipe.candidates, replace=False)
        cands = [articles[i] for i in picks]
        body = json.dumps({"user_id": user, "candidates": cands,
                           "top_k": self.recipe.top_k}).encode("utf-8")
        return user, cands, body

    def prepare(self, index: int):
        user, cands, body = self._request()
        return user, cands, body, bool(self._verify_rng.random() < self.recipe.verify_share)

    def run(self, args):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/rank", body=args[2], headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            raw = resp.read()
            self.reference_figures["http_version"] = resp.version
        finally:
            conn.close()
        return resp.status, json.loads(raw)

    def items(self, args, out) -> int:
        return len(args[1])

    def check(self, args, out) -> list[str]:
        user, cands, _, verify = args
        status, payload = out
        problems = checks.check_rank_response(status, payload, cands, self.recipe.top_k)
        if problems or not verify:
            return problems
        return checks.check_rank_reference(payload, cands, self.reference(user, cands))

    def reference(self, user: str, cands: list[str]) -> np.ndarray:
        """Probabilities from the checkpoint tensors and the store's rep matrix."""
        if self._store is None:
            self._load_reference_inputs()
        reps, row, users, profiles, tensors = self._store
        entry = users.get(user)
        if entry is None:
            hist = np.zeros((0, reps.shape[1]))
            profile = np.zeros(tensors["profile_w"].shape[1])
        else:
            hist = reps[[row[a] for a in entry[0] if a in row]]
            profile = profiles[entry[1]]
        return checks.reference_probabilities(tensors, reps[[row[a] for a in cands]], hist, profile)

    def _load_reference_inputs(self) -> None:
        read = sys.modules["flowrec.checkpoint"].read_tensor_file
        ckpt_header, tensors = read(self.workdir / "checkpoint.bin")
        flags = ckpt_header["config"]
        if not (flags["instant_flow"] and flags["constant_flow"] and flags["flow_gate"]):
            raise SetupError("the reference covers the model with both flows and the gate on")
        store_header, store = read(self.workdir / "store.bin")
        row = {a: i for i, a in enumerate(store_header["article_ids"])}
        users = {u: (meta["history"], i) for i, (u, meta) in enumerate(store_header["users"].items())}
        self._store = (store["article_reps"], row, users, store.get("profile_embs"), tensors)

    def file_mb(self, name: str) -> float:
        return (self.workdir / name).stat().st_size / 1e6

    def close(self) -> None:
        self.stop_server()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


RECIPES = {
    "train-paper": TRAIN_PAPER,
    "recover-desk": RECOVER_DESK,
    "serve-long": SERVE_LONG,
}


def make(name: str, seed: int, recipe=None):
    recipe = recipe or RECIPES[name]
    if isinstance(recipe, TrainRecipe):
        return TrainWorkload(name, seed, recipe)
    return ServeWorkload(name, seed, recipe)
