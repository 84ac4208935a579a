"""Optional real-model loaders for the embedder / cross-encoder seams.

Reference parity: the reference loads its models once per client process —
``EmbedderClient`` (embedder/client.py:29-37) and the BGE reranker
(cross_encoder/bge_reranker_client.py:24-44, model construction in
``__init__``; scoring per call :46-64). Here the same load-once contract is
an ACTOR-POOL stage: the model constructs in the stage's ``__init__``
(once per actor) and every ``__call__`` only encodes a batch.

Everything is gated behind an import-try + env flags — this container
ships no model weights, so the deterministic hashing stand-ins
(stages/embed.py, pipelines/search.py::default_cross_encoder) remain the
default and the correctness oracles keep pinning them:

- ``GRAPHITI_RAY_EMBED_MODEL``        sentence-transformers model name for
                                      ST2 (e.g. ``all-MiniLM-L6-v2``)
- ``GRAPHITI_RAY_CROSS_ENCODER_MODEL`` CrossEncoder name for ST3/ST4
                                      (e.g. ``BAAI/bge-reranker-base``)

When the flag is set but the package is absent, callers fall back to the
deterministic stand-in (logged) rather than failing the pipeline.
"""

from __future__ import annotations

import logging
import os

import pyarrow as pa

import ray.data as rd

logger = logging.getLogger("graphiti_ray.models")

EMBED_MODEL_ENV = "GRAPHITI_RAY_EMBED_MODEL"
CROSS_ENCODER_MODEL_ENV = "GRAPHITI_RAY_CROSS_ENCODER_MODEL"


def sentence_transformers_available() -> bool:
    try:
        import sentence_transformers  # noqa: F401

        return True
    except ImportError:
        return False


class ModelEmbedder:
    """ST2 real-model actor-pool stage: a sentence-transformers encoder
    loaded ONCE per actor in ``__init__`` (embedder/client.py:29-37
    contract), batch-encoded per ``__call__``. Appends ``out_col`` as
    FixedSizeList<double>[model dim], L2-normalized like the reference
    (helpers.py:82-85)."""

    # per-process construction counter — lets tests assert load-once
    LOAD_COUNTS: dict[str, int] = {}

    def __init__(self, text_col: str, out_col: str, model_name: str | None = None):
        self.text_col = text_col
        self.out_col = out_col
        name = model_name or os.environ.get(EMBED_MODEL_ENV)
        if not name:
            raise ValueError(f"no model name (arg or ${EMBED_MODEL_ENV})")
        from sentence_transformers import SentenceTransformer

        self.model = SentenceTransformer(name)  # once per actor
        ModelEmbedder.LOAD_COUNTS[name] = ModelEmbedder.LOAD_COUNTS.get(name, 0) + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        texts = [t or "" for t in batch.column(self.text_col).to_pylist()]
        vecs = np.asarray(
            self.model.encode(texts, normalize_embeddings=True), dtype=np.float64
        )
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel(), pa.float64()), int(vecs.shape[1])
        )
        return batch.append_column(self.out_col, arr)


def with_model_embedding(
    ds: rd.Dataset,
    text_col: str,
    out_col: str,
    model_name: str | None = None,
    concurrency=None,
    batch_size: int = 64,
    num_gpus: float = 0,
) -> rd.Dataset:
    """Real-model variant of ``embed.with_embedding``: actor pool sized for
    model inference (small batches — activations, not rows, bound memory;
    set ``num_gpus`` per actor on a GPU cluster). Raises ImportError when
    sentence-transformers is absent — gate on
    :func:`sentence_transformers_available`."""
    if not sentence_transformers_available():
        raise ImportError("sentence-transformers is not installed")
    if concurrency is None:
        from graphiti_ray.stages.link import auto_pool

        concurrency = auto_pool(0.25)
    kwargs = dict(
        fn_constructor_kwargs={
            "text_col": text_col,
            "out_col": out_col,
            "model_name": model_name,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    return ds.map_batches(ModelEmbedder, **kwargs)


def auto_embedding(
    ds: rd.Dataset | pa.Table, text_col: str, out_col: str, **kw
) -> rd.Dataset | pa.Table:
    """Env-flag dispatch for ST2: ``$GRAPHITI_RAY_EMBED_MODEL`` set AND
    sentence-transformers importable → real model actor pool; otherwise the
    deterministic hashing embedder (logged fallback, never a failure).
    A ``pa.Table`` comes back as a table: the hashing embedder runs in
    this process, the model pool over ``rd.from_arrow(ds)``."""
    from graphiti_ray.stages.embed import with_embedding

    name = os.environ.get(EMBED_MODEL_ENV)
    if name:
        if sentence_transformers_available():
            if isinstance(ds, pa.Table):
                from graphiti_ray.state.checkpoint import fetch_table

                model = with_model_embedding(
                    rd.from_arrow(ds), text_col, out_col, model_name=name, **kw
                )
                return fetch_table(model.materialize())
            return with_model_embedding(ds, text_col, out_col, model_name=name, **kw)
        logger.warning(
            "%s=%s set but sentence-transformers is not installed; "
            "falling back to the deterministic hashing embedder",
            EMBED_MODEL_ENV,
            name,
        )
    return with_embedding(ds, text_col, out_col)


def cross_encoder_model_loader(model_name: str | None = None):
    """``model_loader`` for ``pipelines.search.CrossEncoderStage``: returns
    a ``(query, passages) -> scores`` callable backed by a
    sentence-transformers CrossEncoder. The CrossEncoder constructs when
    the loader RUNS — i.e. inside the stage's ``__init__``, once per actor
    (bge_reranker_client.py:24-44 contract). Raises ImportError when the
    package is absent."""
    name = model_name or os.environ.get(CROSS_ENCODER_MODEL_ENV)
    if not name:
        raise ValueError(f"no model name (arg or ${CROSS_ENCODER_MODEL_ENV})")

    def loader():
        from sentence_transformers import CrossEncoder

        model = CrossEncoder(name)  # once per actor

        def score(query: str, passages: list[str]) -> list[float]:
            if not passages:
                return []
            return [float(s) for s in model.predict([(query, p) for p in passages])]

        return score

    return loader


def openai_reranker_loader():
    """ST4: the reference's SECOND reranker family — a boolean-classifier
    reranker scored by token log-probabilities (cross_encoder/
    openai_reranker_client.py:34-121: one "is PASSAGE relevant to QUERY?"
    prompt per passage, max_tokens=1, logit_bias restricting the answer to
    True/False, score = P(True) recovered from top_logprobs). The
    deterministic stand-in keeps that exact SHAPE: each passage is
    classified INDEPENDENTLY (no pairwise model like the BGE scorer), the
    "logprob" is a bounded relevance log-odds from query-token overlap,
    and the returned score is the classifier's P(True) =
    sigmoid(log-odds) ∈ (0, 1) — downstream ranking consumes
    probabilities exactly as with the reference. A real OpenAI client
    plugs in at this same ``model_loader`` seam
    (pipelines/search.py::cross_encoder_rerank / CrossEncoderStage)."""

    def loader():
        import math

        def score(query: str, passages: list[str]) -> list[float]:
            q_toks = set(query.lower().split())
            out = []
            for p in passages:
                toks = (p or "").lower().split()
                overlap = sum(1 for t in toks if t in q_toks)
                # bounded log-odds in [-2, 2]: all-overlap → P ≈ .88,
                # no overlap → P ≈ .12; never exactly 0/1 (a logprob
                # classifier can't be certain from one token)
                log_odds = 4.0 * overlap / max(1, len(toks)) - 2.0
                out.append(1.0 / (1.0 + math.exp(-log_odds)))
            return out

        return score

    return loader


def default_cross_encoder_loader():
    """Env-flag dispatch for ST3/ST4: the real CrossEncoder loader when
    ``$GRAPHITI_RAY_CROSS_ENCODER_MODEL`` is set and importable, else None
    (CrossEncoderStage then uses the deterministic stand-in)."""
    name = os.environ.get(CROSS_ENCODER_MODEL_ENV)
    if name and sentence_transformers_available():
        return cross_encoder_model_loader(name)
    if name:
        logger.warning(
            "%s=%s set but sentence-transformers is not installed; "
            "falling back to the deterministic cross-encoder",
            CROSS_ENCODER_MODEL_ENV,
            name,
        )
    return None
