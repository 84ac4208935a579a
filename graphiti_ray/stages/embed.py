"""Embedding stage: deterministic hashing-trick text encoder (actor pool).

Reference parity: ``EmbedderClient`` (embedder/client.py:29-37) batches
name/fact strings through an embedding API and stores ``list<float>``
vectors on nodes/edges (nodes.py:647-668, edges.py:524-547). Here the
embedder is a *local deterministic* model — a char-3-gram hashing trick into
``EMBED_DIM`` dims, L2-normalized (helpers.py:82-85) — the canonical
actor-pool citizen: construction cost once per actor, vectorized batch work
per call. Swap the class for a sentence-transformers wrapper on a real
cluster; the pipeline shape is identical (ST2 in SURVEY §2.3).

Determinism: polynomial byte hashing (process-stable, and exactly
reproducible in the DuckDB search oracle via hugeint mod-2^64
arithmetic), so embeddings are identical across runs/workers — required
for reproducible cosine dedup and for value-exact hybrid-search checks.
float64 end to end: a real embedder would store float16/32; the
deterministic twin keeps doubles so oracle cosines match to 9 decimals.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

EMBED_DIM = 64

# same rolling-hash multiplier as stages/dedup.py (odd → bijective mod 2^64)
_POLY = np.uint64(1099511628211)
_POLY2 = np.uint64(pow(1099511628211, 2, 1 << 64))  # P² mod 2^64


def column_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """``list<float>`` / ``fixed_size_list<float>`` Arrow column → (n, dim)
    numpy matrix WITHOUT a per-row Python conversion: the child values
    buffer is reshaped directly (zero-copy from the object store when
    offsets are contiguous). Raises on ragged lists."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    if pa.types.is_fixed_size_list(col.type):
        # flatten, not .values: .values ignores a sliced array's offset
        vals = col.flatten().to_numpy(zero_copy_only=False)
        return vals.reshape(n, col.type.list_size).astype(dtype, copy=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    if not (widths == widths[0]).all():
        raise ValueError("ragged list column cannot form a matrix")
    vals = col.values.to_numpy(zero_copy_only=False)
    return (
        vals[offsets[0] : offsets[-1]]
        .reshape(n, int(widths[0]))
        .astype(dtype, copy=False)
    )


def embed_counts(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Raw signed 3-gram bucket counts for one text (pre-normalization):
    byte 3-grams of ``^lower(text)$`` hashed with a vectorized 2-step
    Horner (h = b0·P² + b1·P + b2 mod 2^64), bucket ``h % dim``, sign from
    bit 16 of ``h``."""
    b = np.frombuffer(
        f"^{text.lower()}$".encode("utf-8", "ignore"), dtype=np.uint8
    ).astype(np.uint64)
    out = np.zeros(dim, dtype=np.float64)
    m = len(b) - 2
    if m <= 0:
        return out
    h = b[0:m] * _POLY2 + b[1 : m + 1] * _POLY + b[2 : m + 2]
    sign = np.where((h >> np.uint64(16)) & np.uint64(1) == np.uint64(1), 1.0, -1.0)
    np.add.at(out, (h % np.uint64(dim)).astype(np.int64), sign)
    return out


def embed_texts(texts: list[str], dim: int = EMBED_DIM) -> np.ndarray:
    """Vector per text: byte 3-gram hashing trick, signed, L2-normalized
    (helpers.py:82-85 normalize parity), float64."""
    if not texts:
        return np.zeros((0, dim), dtype=np.float64)
    out = np.stack([embed_counts(t, dim) for t in texts])
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return out / norms


class HashingEmbedder:
    """Actor-pool stage: append ``<out_col>`` FixedSizeList<double>[dim]
    embedding of ``<text_col>`` to each batch."""

    def __init__(self, text_col: str, out_col: str, dim: int = EMBED_DIM):
        self.text_col = text_col
        self.out_col = out_col
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        vecs = embed_texts(texts, self.dim)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel(), pa.float64()), self.dim
        )
        return batch.append_column(self.out_col, arr)


def _embed_fn(batch: pa.Table, text_col=None, out_col=None, dim=EMBED_DIM) -> pa.Table:
    # stateless task mode: HashingEmbedder holds no heavy state, so tasks
    # (warm default workers, no pool spin-up) beat an actor pool locally
    return HashingEmbedder(text_col, out_col, dim)(batch)


def with_embedding(
    ds: rd.Dataset | pa.Table,
    text_col: str,
    out_col: str,
    dim: int = EMBED_DIM,
    concurrency=None,
    compute: str = "tasks",
) -> rd.Dataset | pa.Table:
    """``ds`` with ``out_col`` holding the hashing embedding of
    ``text_col``; tasks mode embeds a ``pa.Table`` in this process."""
    if compute == "tasks":
        import functools

        from graphiti_ray.stages.ops import map_table

        return map_table(
            ds,
            functools.partial(_embed_fn, text_col=text_col, out_col=out_col, dim=dim),
            zero_copy_batch=True,
        )
    if concurrency is None:
        from graphiti_ray.stages.link import auto_pool

        concurrency = auto_pool(0.25)
    return ds.map_batches(
        HashingEmbedder,
        fn_constructor_kwargs={"text_col": text_col, "out_col": out_col, "dim": dim},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )


# --- Johnson–Lindenstrauss random-sign projection ---------------------------

JL_OUT_DIM = 16
JL_QUANT = 1_000_000  # 1e-6 lattice: |e|·1e6 ≲ 2^22, ×64 terms « int64


def jl_sign(j: int, i: int) -> int:
    """±1 sign for (output dim j, input dim i), derived from md5 so the
    SQL twin reproduces it: +1 iff the first 8 hex chars of
    md5(f"{j}|{i}") are odd as an integer."""
    import hashlib

    h = int(hashlib.md5(f"{j}|{i}".encode()).hexdigest()[:8], 16)
    return 1 if h % 2 == 1 else -1


def jl_sign_matrix(out_dim: int, in_dim: int) -> np.ndarray:
    return np.array(
        [[jl_sign(j, i) for i in range(in_dim)] for j in range(out_dim)],
        dtype=np.int64,
    )


def jl_project(
    emb: "rd.Dataset",
    out_dim: int = JL_OUT_DIM,
    quant: int = JL_QUANT,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Johnson–Lindenstrauss dimensionality reduction with a ±1 sign
    matrix (Achlioptas 2003) on an EXACT integer lattice: inputs
    quantize to floor(e·quant) int64 and the projection is an integer
    matmul against the md5-derived sign matrix — associative integer
    addition, so the DuckDB twin's group-sum matches bit-for-bit (a
    float dot product would hash-diverge on summation order). The sign
    matrix is built once per process (out_dim×in_dim ints — parameter,
    not data) and rides into workers by closure capture; the corpus
    streams. Output long-form: (id, j, proj)."""
    import ray.data as rd  # noqa: F811

    signs: dict[int, np.ndarray] = {}

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        mat = column_to_matrix(batch.column(vec_col))
        n, d = mat.shape
        if d not in signs:
            signs[d] = jl_sign_matrix(out_dim, d)
        q = np.floor(mat * quant).astype(np.int64)
        proj = q @ signs[d].T  # (n, out_dim) exact int64
        return pa.table(
            {
                id_col: pa.concat_arrays(
                    [ids.combine_chunks()] * out_dim
                ) if out_dim > 1 else ids,
                "j": pa.array(
                    np.repeat(np.arange(out_dim, dtype=np.int64), n), pa.int64()
                ),
                "proj": pa.array(proj.T.reshape(-1), pa.int64()),
            }
        )

    return emb.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def group_centroids(
    emb: "rd.Dataset",
    group_col: str = "lang",
    vec_col: str = "embedding",
    quant: int = JL_QUANT,
):
    """Per-group vector centroids as EXACT integer moment sums — the
    vector-aggregation primitive behind class centroids / cluster
    means: each batch collapses to its per-group (count, Σ quantized
    component) partials via one dense ``np.add.at`` pass, one keyed
    reduce combines them (≤ |groups|·dim rows). The float centroid is
    sum_q / (n·quant) — derived, so the distributed part stays
    hash-exact. Output long-form: (group, j, sum_q, n)."""
    import ray.data as rd  # noqa: F811
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        groups = np.asarray(batch.column(group_col).to_pylist(), dtype=object)
        mat = column_to_matrix(batch.column(vec_col))
        empty = pa.table(
            {
                group_col: pa.array([], pa.string()),
                "j": pa.array([], pa.int64()),
                "p_s": pa.array([], pa.int64()),
                "p_n": pa.array([], pa.int64()),
            }
        )
        if len(groups) == 0:
            return empty
        q = np.floor(mat * quant).astype(np.int64)
        ug, gidx = np.unique(groups, return_inverse=True)
        d = q.shape[1]
        if len(ug) * d > 1 << 26:  # dense partial would exceed ~512 MB
            raise ValueError(
                "group_centroids: too many distinct groups per batch for "
                "the dense moment partial — shrink batch_size or "
                "pre-partition by the group column"
            )
        sums = np.zeros((len(ug), d), dtype=np.int64)
        np.add.at(sums, gidx, q)
        counts = np.bincount(gidx, minlength=len(ug)).astype(np.int64)
        return pa.table(
            {
                group_col: pa.array(np.repeat(ug, d).tolist(), pa.string()),
                "j": pa.array(np.tile(np.arange(d, dtype=np.int64), len(ug)), pa.int64()),
                "p_s": pa.array(sums.reshape(-1), pa.int64()),
                "p_n": pa.array(np.repeat(counts, d), pa.int64()),
            }
        )

    return (
        emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, "j"])
        .aggregate(Sum("p_s", alias_name="sum_q"), Sum("p_n", alias_name="n"))
    )


def neighbor_feature_sum(
    edges: "rd.Dataset",
    feats: "rd.Dataset",
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    quant: int = JL_QUANT,
):
    """One round of GNN-style neighbor aggregation (the distributed SpMV):
    for every node, the component-wise SUM of its neighbours' feature
    vectors on the exact 1e-6 integer lattice. Features explode to
    long-form (id, j, q) rows — the standard sparse shuffle layout — the
    symmetric edge list hash-joins on the source id, and one keyed
    reduce per (destination, dimension) completes the hop. Exact int64
    end to end.

    ``edges``: (a, b) undirected pairs. Output: (id, j, sum_q, n_nbrs).
    """
    import ray.data as rd  # noqa: F811
    from ray.data.aggregate import Sum

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    def feat_long(batch: pa.Table) -> pa.Table:
        mat = column_to_matrix(batch.column(vec_col))
        n, d = mat.shape
        q = np.floor(mat * quant).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.repeat(ids, d), pa.int64()),
                "j": pa.array(np.tile(np.arange(d, dtype=np.int64), n), pa.int64()),
                "q": pa.array(q.reshape(-1), pa.int64()),
            }
        )

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())]),
                "dst": pa.concat_arrays([b.cast(pa.int64()), a.cast(pa.int64())]),
            }
        )

    long = feats.map_batches(feat_long, batch_format="pyarrow", zero_copy_batch=True)
    sedges = edges.select_columns(["a", "b"]).map_batches(
        sym, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = safe_join(
        sedges,
        long,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("src",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["dst", "j", "q"]).group_by(["dst", "j"]).aggregate(
            [("q", "sum"), ([], "count_all")]
        )
        return t.rename_columns(["dst", "j", "p_s", "p_n"])

    out = (
        joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dst", "j"])
        .aggregate(Sum("p_s", alias_name="sum_q"), Sum("p_n", alias_name="n_nbrs"))
    )
    return out.rename_columns({"dst": id_col})
