"""Real-model seams (ST2 embedder / ST3-ST4 cross-encoder): load-once
contract, env-flag dispatch, graceful fallback without the package. Every
test passes both WITH and WITHOUT sentence-transformers installed (the
real-weights test skips when absent — no network in CI)."""

import os

import numpy as np
import pytest

import ray.data as rd

from graphiti_ray.stages.models import (
    CROSS_ENCODER_MODEL_ENV,
    EMBED_MODEL_ENV,
    auto_embedding,
    default_cross_encoder_loader,
    sentence_transformers_available,
    with_model_embedding,
)

HAVE_ST = sentence_transformers_available()


def _docs(n=6):
    return rd.from_items(
        [{"uuid": f"u{i}", "text": f"document number {i} about rayon"} for i in range(n)]
    )


def test_cross_encoder_stage_loads_model_once_per_actor(ray_session, tmp_path):
    """The load-once contract (bge_reranker_client.py:24-44): the model
    loader runs in the stage's __init__ — once per ACTOR — while __call__
    only scores. Proven end-to-end through a 1-actor pool fed many
    1-row batches: the file-based construction log must hold ONE line."""
    from graphiti_ray.pipelines.search import cross_encoder_rerank

    log = tmp_path / "loads.log"

    def loader(_path=str(log)):
        with open(_path, "a") as f:
            f.write("load\n")

        def score(query, passages):
            return [float(len(p)) for p in passages]

        return score

    out = cross_encoder_rerank(
        _docs(6),
        query="rayon",
        text_col="text",
        limit=3,
        model_loader=loader,
        concurrency=(1, 1),
    )
    # force multiple __call__s through the single actor
    assert out.count() == 3
    loads = log.read_text().strip().splitlines()
    assert len(loads) == 1, f"model constructed {len(loads)}x for one actor"


def test_auto_embedding_falls_back_without_package(ray_session, monkeypatch):
    """$GRAPHITI_RAY_EMBED_MODEL set but package absent → deterministic
    hashing embedder output, not a failure. (With the package installed
    this test instead pins the flag-off default path.)"""
    from graphiti_ray.stages.embed import with_embedding

    want = with_embedding(_docs(3), "text", "emb").to_pandas()
    if not HAVE_ST:
        monkeypatch.setenv(EMBED_MODEL_ENV, "all-MiniLM-L6-v2")
    else:
        monkeypatch.delenv(EMBED_MODEL_ENV, raising=False)
    got = auto_embedding(_docs(3), "text", "emb").to_pandas()
    want = want.sort_values("uuid").reset_index(drop=True)
    got = got.sort_values("uuid").reset_index(drop=True)
    assert got["uuid"].tolist() == want["uuid"].tolist()
    for a, b in zip(got["emb"], want["emb"]):
        assert np.allclose(np.asarray(a), np.asarray(b))


def test_auto_embedding_of_a_table(ray_session, monkeypatch):
    """A ``pa.Table`` comes back as a table: with a model selected it goes
    through the model path as a Dataset (``rd.from_arrow``); without one
    the hashing embedder runs on it in this process, with the values the
    Dataset path gives."""
    import pyarrow as pa

    from graphiti_ray.stages import models
    from graphiti_ray.stages.embed import with_embedding
    from graphiti_ray.state.checkpoint import fetch_table

    t = pa.table({"uuid": ["u0", "u1"], "text": ["document about rayon", "another"]})
    monkeypatch.delenv(EMBED_MODEL_ENV, raising=False)
    hashed = auto_embedding(t, "text", "emb")
    assert isinstance(hashed, pa.Table)
    assert hashed.equals(fetch_table(with_embedding(rd.from_arrow(t), "text", "emb").materialize()))

    seen = []

    def model_path(ds, text_col, out_col, model_name=None, **kw):
        seen.append((isinstance(ds, rd.Dataset), model_name))
        return ds.map_batches(
            lambda b: b.append_column(out_col, pa.array([1.0] * b.num_rows)),
            batch_format="pyarrow",
        )

    monkeypatch.setattr(models, "sentence_transformers_available", lambda: True)
    monkeypatch.setattr(models, "with_model_embedding", model_path)
    monkeypatch.setenv(EMBED_MODEL_ENV, "stub-model")
    out = auto_embedding(t, "text", "emb")
    assert seen == [(True, "stub-model")]
    assert isinstance(out, pa.Table) and out["emb"].to_pylist() == [1.0, 1.0]


def test_cross_encoder_loader_dispatch(monkeypatch):
    monkeypatch.delenv(CROSS_ENCODER_MODEL_ENV, raising=False)
    assert default_cross_encoder_loader() is None
    if not HAVE_ST:
        monkeypatch.setenv(CROSS_ENCODER_MODEL_ENV, "BAAI/bge-reranker-base")
        assert default_cross_encoder_loader() is None  # logged fallback


def test_with_model_embedding_raises_without_package():
    if HAVE_ST:
        pytest.skip("sentence-transformers installed; absence path untestable")
    with pytest.raises(ImportError):
        with_model_embedding(_docs(2), "text", "emb", model_name="any")


def test_model_embedder_seam_with_stub_module(monkeypatch):
    """The ST2 seam end-to-end WITHOUT the real package: a stub
    ``sentence_transformers`` module injected into sys.modules drives
    ModelEmbedder's actual code path — load once in __init__, batch
    encode in __call__, FixedSizeList float64 output. Proves the seam
    wiring the real-weights test (below) exercises when weights exist."""
    import sys
    import types

    import pyarrow as pa

    from graphiti_ray.stages.models import ModelEmbedder

    class _StubModel:
        def __init__(self, name):
            self.name = name

        def encode(self, texts, normalize_embeddings=True):
            # deterministic per-text vectors, L2-normalized like the real
            # encoder's normalize_embeddings=True
            out = np.stack(
                [
                    np.frombuffer(
                        __import__("hashlib").md5(t.encode()).digest(), np.uint8
                    ).astype(np.float64)
                    for t in texts
                ]
            )
            n = np.linalg.norm(out, axis=1, keepdims=True)
            n[n == 0] = 1
            return out / n

    stub = types.ModuleType("sentence_transformers")
    stub.SentenceTransformer = _StubModel
    monkeypatch.setitem(sys.modules, "sentence_transformers", stub)

    ModelEmbedder.LOAD_COUNTS.clear()
    emb = ModelEmbedder("text", "emb", model_name="stub-model")
    assert ModelEmbedder.LOAD_COUNTS == {"stub-model": 1}

    batch = pa.table({"text": pa.array(["alpha beta", "gamma", ""])})
    out1 = emb(batch)
    out2 = emb(batch)  # second batch: no re-load
    assert ModelEmbedder.LOAD_COUNTS == {"stub-model": 1}
    assert out1.column("emb").type == pa.list_(pa.float64(), 16)
    mat = np.stack(out1.column("emb").to_pylist())
    assert mat.shape == (3, 16)
    assert np.allclose(np.linalg.norm(mat, axis=1), 1.0)
    assert out1.column("emb").equals(out2.column("emb"))  # deterministic


@pytest.mark.skipif(not HAVE_ST, reason="sentence-transformers not installed")
def test_real_model_embedding_shape(ray_session, monkeypatch):
    """With the package installed: real encoder loads once per actor and
    emits fixed-width L2-normalized vectors."""
    from graphiti_ray.stages.models import ModelEmbedder

    monkeypatch.setenv(EMBED_MODEL_ENV, "all-MiniLM-L6-v2")
    out = auto_embedding(_docs(4), "text", "emb").to_pandas()
    mat = np.stack(out["emb"].map(np.asarray))
    assert mat.shape[0] == 4 and mat.shape[1] >= 128
    assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-5)
    assert ModelEmbedder.LOAD_COUNTS  # constructed through the seam


def test_openai_style_reranker_probability_classifier(ray_session):
    """ST4 concrete second scorer: per-passage boolean classifier whose
    scores are probabilities in (0, 1) (openai_reranker_client.py:34-121
    shape — independent classification, P(True) from log-odds), pluggable
    at the same model_loader seam as the BGE-style scorer."""
    import pyarrow as pa

    import ray.data as rd

    from graphiti_ray.pipelines.search import cross_encoder_rerank
    from graphiti_ray.stages.models import openai_reranker_loader

    score = openai_reranker_loader()()
    scores = score("alice smith", ["alice smith", "unrelated words here", ""])
    assert all(0.0 < s < 1.0 for s in scores)  # probabilities, never certain
    assert scores[0] > scores[1]  # full overlap outranks none
    # independent classification: a passage's score ignores the others
    assert score("alice smith", ["alice smith"])[0] == scores[0]

    ds = rd.from_arrow(
        pa.table(
            {
                "uuid": pa.array(["a", "b", "c"], pa.string()),
                "fact": pa.array(
                    ["alice smith works", "bob jones sleeps", "alice smith"],
                    pa.string(),
                ),
            }
        )
    )
    out = cross_encoder_rerank(
        ds, "alice smith", "fact", limit=3, model_loader=openai_reranker_loader()
    ).to_pandas()
    assert list(out["uuid"]) == ["c", "a", "b"]  # ranked by P(relevant)
    assert out["ce_score"].between(0, 1, inclusive="neither").all()
