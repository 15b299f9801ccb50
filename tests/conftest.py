import struct

import numpy as np
import pytest

from flowrec.data import Article, Impression
from flowrec.encode import build_vocabs
from flowrec.model import ModelConfig, ModelParams, init_model_params


def make_article(art_id, title="a title", body="some body text.", **attrs):
    return Article(article_id=art_id, title=title, body=body, attributes=attrs)


def make_impression(imp_id, user="u1", history=(), candidates=(("a1", 1),), timestamp=0):
    return Impression(
        impression_id=imp_id, user_id=user, timestamp=timestamp,
        history=list(history), candidates=[(a, y) for a, y in candidates],
    )


TOY_CONFIG = dict(
    attr_names=["category"],
    embed_dim=5,
    text_proj_dim=3,
    attr_embed_dim=2,
    attr_hidden_dim=3,
    attr_out_dim=2,
    batch_norm=False,
)


@pytest.fixture
def toy_corpus():
    arts = [
        make_article("a1", title="alpha news", body="alpha body one.", category="x"),
        make_article("a2", title="beta news", body="beta body two.", category="y"),
        make_article("a3", title="gamma news", body="gamma body three.", category="x"),
        make_article("a4", title="delta news", body="delta body four.", category="z"),
    ]
    return {a.article_id: a for a in arts}


@pytest.fixture
def toy_params(toy_corpus):
    cfg = ModelConfig(**TOY_CONFIG)
    vocabs = build_vocabs(list(toy_corpus.values()), cfg.attr_names)
    return init_model_params(cfg, vocabs, seed=5)


def identity_text_params(params: ModelParams) -> ModelParams:
    """Zero the encoder so article reps are fully hand-predictable."""
    for name, t in params.tensors.items():
        params.tensors[name] = np.zeros_like(t)
    return params


def container_cuts(raw: bytes) -> dict[str, int]:
    """Lengths to cut a tensor container to, one inside each part of its layout
    (magic, header length, header, the first tensor's name, shape and data, the
    last tensor's data); walked from the byte layout, not with the reader."""
    (header_len,) = struct.unpack_from("<I", raw, 8)
    first = 8 + 4 + header_len + 4
    (name_len,) = struct.unpack_from("<H", raw, first)
    shape_at = first + 2 + name_len + 2
    data_at = shape_at + 4 * raw[shape_at - 1]
    return {"magic": 5, "header length": 10, "header": 14, "tensor name": first + 3,
            "tensor shape": shape_at + 2, "tensor data": data_at + 3, "last bytes": len(raw) - 7}
