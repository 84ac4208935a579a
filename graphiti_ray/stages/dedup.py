"""Document deduplication family — first-class training-data operators.

Not present in the reference (graphiti dedups *entities/facts*, not
documents), but required of a web-scale pipeline; the blocking/minhash
machinery here is the same one backing entity-linking candidate generation
(J1, SURVEY §2.4).

Operators
- ``exact_dedup_documents``      hash-partition + per-group winner (D1 shape)
- ``minhash_signatures``         char-shingle MinHash, vectorized numpy
                                 (one row per doc: signature + band hashes)
- ``minhash_near_dup``           LSH banding → candidate pairs → verify →
                                 connected components → cluster table
- ``simhash_signatures``         64-bit SimHash over tokens (vectorized)
- ``simhash_near_dup``           band-bucketed Hamming candidates
- ``ngram_jaccard``              exact n-gram Jaccard verification kernel
- ``ngram_jaccard_pairs``        exact-Jaccard near-dup pairs: rarity-
                                 filtered bottom-k sketch blocking (hub
                                 keys dropped, buckets ≤ NGRAM_HOT_DF by
                                 construction) + full-set intersection
- ``embedding_near_dup``         cosine near-dup over an embedding column
                                 (random-hyperplane LSH, data-scaled plane
                                 count, multi-table probing)
- ``embedding_near_dup_exact``   exact all-pairs variant: streamed batches ×
                                 broadcast corpus matrix (oracle baseline)
- ``connected_components``       min-label propagation over a pair list
                                 (driver union-find under SMALL_CC_LIMIT;
                                 distributed rounds with a DATASET-side
                                 changed-count convergence test above it)

Scale shape: signatures are computed per batch (stateless, vectorized
numpy — no per-character Python); collision detection runs over NARROW
(doc_id, band, band_hash) rows so signatures are never shipped through the
counting shuffle; only docs in colliding buckets re-attach their signature.
Oversized LSH buckets (hot shingles) are truncated at ``MAX_BUCKET``; every
truncation is counted driver-side (the bucket-size aggregate is already on
the driver) and logged via ``logging`` + ``TRUNCATION_STATS`` so recall
loss is observable, never silent.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Min

logger = logging.getLogger("graphiti_ray.dedup")

# MinHash parameters (pinned)
NUM_PERM = 64
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS
SHINGLE_K = 5
_MERSENNE = (1 << 61) - 1
MAX_BUCKET = 64  # pairs per LSH bucket cap: 64*63/2 candidates max
SMALL_CC_LIMIT = 1_000_000  # pairs; below → driver union-find
# exploded (doc × band) ROWS; below → LSH bucket counts via one narrow
# driver-side value_counts instead of a distributed groupby (same SMALL-path
# contract as the CC union-find: the shuffle exists for scale, not for 5k
# docs). 1M narrow rows ≈ 20-30 MB on the driver — bounded.
SMALL_LSH_COUNT_LIMIT = 1_000_000

# last-run truncation observability (per driver process): operator name →
# {"hot_buckets": n buckets over cap, "truncated_docs": doc slots dropped}
TRUNCATION_STATS: dict[str, dict[str, int]] = {}


def _record_truncation(
    op: str, counts: pd.Series, cap: int | None = None
) -> None:
    """Log + record bucket-cap drops from a driver-side bucket-size series."""
    cap = MAX_BUCKET if cap is None else cap
    over = counts[counts > cap]
    stats = {
        "hot_buckets": int(len(over)),
        "truncated_docs": int((over - cap).sum()),
    }
    TRUNCATION_STATS[op] = stats
    if stats["hot_buckets"]:
        logger.warning(
            "%s: %d LSH bucket(s) over cap=%d; %d doc slot(s) truncated "
            "(recall loss — raise the cap or add bands/planes)",
            op,
            stats["hot_buckets"],
            cap,
            stats["truncated_docs"],
        )


def _perm_params(num_perm: int = NUM_PERM, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


_A, _B = _perm_params()

# rolling polynomial hash multiplier (odd → bijective modulo 2^64)
_POLY = np.uint64(1099511628211)
_BAND_MIX = (np.arange(ROWS_PER_BAND, dtype=np.uint64) * np.uint64(2) + np.uint64(1))


def shingle_hash_seq(text: str, k: int = SHINGLE_K) -> np.ndarray:
    """POSITIONAL hashes of every k-byte shingle (one per start offset) —
    a k-step vectorized polynomial hash over the whole byte array (no
    per-position Python call; the former per-shingle ``zlib.crc32`` loop
    was the measured pipeline hotspot)."""
    t = text.lower().encode("utf-8", "ignore")
    if len(t) < k:
        t = t + b"\x00" * (k - len(t))
    b = np.frombuffer(t, dtype=np.uint8).astype(np.uint64)
    m = len(b) - k + 1
    h = np.zeros(m, dtype=np.uint64)
    for j in range(k):  # k tiny (5): 5 vectorized passes
        h = h * _POLY + b[j : j + m]
    return (h & np.uint64(_MERSENNE)).astype(np.int64)


def shingle_hashes(text: str, k: int = SHINGLE_K) -> np.ndarray:
    """Distinct (sorted) shingle hashes — the MinHash input set."""
    return np.unique(shingle_hash_seq(text, k))


def minhash_sig(text: str, num_perm: int = NUM_PERM) -> np.ndarray:
    h = shingle_hashes(text)
    # (num_perm, n_shingles) broadcast; min over shingles. int64 wraparound
    # is deterministic — this is a mixing function, not true modular hashing.
    vals = (_A[:num_perm, None] * h[None, :] + _B[:num_perm, None]) % _MERSENNE
    return vals.min(axis=1)


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


def ngram_jaccard(a: str, b: str, k: int = SHINGLE_K) -> float:
    """Exact char-k-gram Jaccard (verification kernel)."""
    sa, sb = set(map(int, shingle_hashes(a, k))), set(map(int, shingle_hashes(b, k)))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _band_hashes(sig_mat: np.ndarray) -> np.ndarray:
    """(n_docs, NUM_PERM) signatures → (n_docs, BANDS) int64 band hashes,
    fully vectorized (odd-multiplier mix per band row + wraparound sum)."""
    u = sig_mat.astype(np.uint64).reshape(-1, BANDS, ROWS_PER_BAND)
    mixed = (u * _POLY + _BAND_MIX[None, None, :]) * _BAND_MIX[None, None, :]
    return (mixed.sum(axis=2) & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


# --- exact dedup -----------------------------------------------------------


def md5_hex_column(col: pa.ChunkedArray | pa.Array) -> list[str]:
    """md5 hex digests over a string column's utf-8 payload straight out
    of the arrow buffers — no per-row Python str materialization / encode
    round-trip (the digest itself is C; this removes the object churn
    around it)."""
    import hashlib

    import pyarrow.compute as pc

    col = pc.cast(col, pa.large_binary())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    mv = memoryview(col.buffers()[2]) if col.buffers()[2] is not None else b""
    md5 = hashlib.md5
    return [md5(mv[offs[i] : offs[i + 1]]).hexdigest() for i in range(len(col))]


def exact_dedup_documents(
    docs: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """One winner (min id) per distinct text: hash column per batch
    (vectorized), then a hash aggregate keyed on the digest. Output:
    (text_hash, keep_id, dup_count)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "text_hash": pa.array(
                    md5_hex_column(batch.column(text_col)), pa.string()
                ),
                id_col: batch.column(id_col),
            }
        )

    return (
        docs.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("text_hash")
        .aggregate(
            Min(id_col, alias_name="keep_id"),
            Count(alias_name="dup_count"),
        )
    )


# --- minhash LSH -----------------------------------------------------------


class MinHashStage:
    """docs batch → ONE row per doc: (doc_id, sig bytes, band_hashes[16]).

    Signatures ride a single row per doc; the banding explode used for
    collision counting is a separate narrow pass (no 16× signature
    duplication through the shuffle)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        sigs = np.stack([minhash_sig(t) for t in texts]) if texts else np.zeros(
            (0, NUM_PERM), dtype=np.int64
        )
        bh = _band_hashes(sigs)
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "sig": pa.array(
                    [s.astype("<i8").tobytes() for s in sigs], pa.binary()
                ),
                "band_hashes": pa.array(bh.tolist(), pa.list_(pa.int64())),
            }
        )


def minhash_signatures(docs: rd.Dataset, text_col="text", id_col="doc_id") -> rd.Dataset:
    # task mode: the stage state is just column names; plain tasks skip the
    # actor-pool spin-up each execution
    def fn(batch, text_col=text_col, id_col=id_col):
        return MinHashStage(text_col, id_col)(batch)

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _explode_bands(sig_rows: rd.Dataset) -> rd.Dataset:
    """Per-doc signature rows → NARROW (doc_id, band, band_hash) rows for
    collision counting (signatures stay behind)."""

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        bh = np.asarray(batch.column("band_hashes").to_pylist(), dtype=np.int64)
        if n == 0:
            bh = bh.reshape(0, BANDS)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, BANDS), pa.int64()),
                "band": pa.array(np.tile(np.arange(BANDS), n), pa.int32()),
                "band_hash": pa.array(bh.reshape(-1), pa.int64()),
            }
        )

    return sig_rows.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def _colliding_counts(
    rows: rd.Dataset, keys: list[str], n_rows: int
) -> pd.DataFrame:
    """Bucket sizes (c ≥ 2 only) for narrow LSH key rows. Small inputs
    (≤ SMALL_LSH_COUNT_LIMIT exploded band rows — the bound is on ROWS,
    i.e. docs × bands, tens of MB of narrow ints at the limit) count
    driver-side in one pass, since a distributed groupby at that size is
    all fixed overhead; at scale the keyed aggregate runs (only colliding
    keys ever reach the driver)."""
    if n_rows <= SMALL_LSH_COUNT_LIMIT:
        df = rows.select_columns(keys).to_pandas()
        c = df.groupby(keys, sort=False).size()
        c = c[c >= 2]
        return c.rename("c").reset_index()
    return (
        rows.groupby(keys)
        .aggregate(Count(alias_name="c"))
        .filter(expr="c >= 2")
        .to_pandas()
    )


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _TRIU_CACHE:
        _TRIU_CACHE[n] = np.triu_indices(n, k=1)
    return _TRIU_CACHE[n]


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Start offsets of adjacent equal-key runs (plus final sentinel)."""
    n = len(cols[0])
    change = np.zeros(max(0, n - 1), dtype=bool)
    for c in cols:
        change |= c[1:] != c[:-1]
    return np.concatenate([[0], np.nonzero(change)[0] + 1, [n]])


def _run_pair_indices(starts: np.ndarray, cap: int = MAX_BUCKET):
    """Concatenated upper-triangle pair indices for every run (≥2 rows),
    each run capped at ``cap`` members."""
    px_l, py_l = [], []
    for s, e in zip(starts[:-1], starts[1:]):
        m = min(e - s, cap)
        if m < 2:
            continue
        x, y = _triu(m)
        px_l.append(x + s)
        py_l.append(y + s)
    if not px_l:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(px_l), np.concatenate(py_l)


def _minhash_block_pairs(tbl: pa.Table, threshold: float) -> pa.Table:
    """Vectorized pair kernel over ALL (band, band_hash) runs in a sorted
    block (sorted_run_map contract: runs are complete). Hot buckets are
    capped at MAX_BUCKET (drop counted + logged driver-side in
    candidate_pairs, which sees every bucket size).

    Cross-band dedup happens HERE, not in a later shuffle: a pair colliding
    in several bands is emitted only by its earliest colliding band (both
    docs' band-hash rows ride along), so the output is already globally
    distinct — one fewer all-to-all."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )
    n = tbl.num_rows
    if n < 2:
        return empty
    band = tbl.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
    bhash = tbl.column("band_hash").to_numpy(zero_copy_only=False)
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    px, py = _run_pair_indices(_run_starts(band, bhash))
    if len(px) == 0:
        return empty
    sig = np.frombuffer(
        b"".join(tbl.column("sig").to_pylist()), dtype="<i8"
    ).reshape(n, NUM_PERM)
    bh_mat = np.asarray(tbl.column("band_hashes").to_pylist(), dtype=np.int64)
    eq = bh_mat[px] == bh_mat[py]
    mine = eq.argmax(axis=1) == band[px]
    px, py = px[mine], py[mine]
    if len(px) == 0:
        return empty
    est = (sig[px] == sig[py]).mean(axis=1)
    keep = est >= threshold
    return pa.table(
        {
            "a": pa.array(doc[px[keep]].astype("int64"), pa.int64()),
            "b": pa.array(doc[py[keep]].astype("int64"), pa.int64()),
            "est_jaccard": pa.array(est[keep], pa.float64()),
        }
    )


def candidate_pairs(sig_rows: rd.Dataset, threshold: float = 0.8) -> rd.Dataset:
    """LSH banding: same (band, band_hash) bucket → pairwise candidates,
    kept if estimated jaccard ≥ threshold; distinct across bands.

    Buckets are overwhelmingly singletons (no collision); colliding bucket
    keys are found first with a vectorized count aggregate (filtered to
    c ≥ 2 BEFORE leaving the cluster — only colliding keys reach the
    driver) and per-doc signature rows are re-exploded only for those
    keys. Pair generation runs via ``sorted_run_map`` — one vectorized
    kernel per BLOCK over all its buckets, not a Python dispatch per
    bucket (real dup clusters collide in all 16 bands, so bucket count
    scales with dup count)."""
    import ray

    sig_rows = sig_rows.materialize()
    counts = _colliding_counts(
        _explode_bands(sig_rows), ["band", "band_hash"], sig_rows.count() * BANDS
    )
    _record_truncation(
        "minhash_lsh", counts.set_index(["band", "band_hash"])["c"]
        if len(counts)
        else pd.Series(dtype="int64"),
    )
    if counts.empty:
        return rd.from_items([]).map_batches(lambda t: t, batch_format="pandas")
    # per-band hot-hash arrays for vectorized membership tests in workers
    hot_by_band = {
        int(b): np.sort(grp["band_hash"].to_numpy(dtype=np.int64))
        for b, grp in counts.groupby("band")
    }
    ref = ray.put(hot_by_band)

    def explode_hot(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        hot = _cached_lut(_ref)
        n = batch.num_rows
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sigs = batch.column("sig").to_pylist()
        bh = np.asarray(batch.column("band_hashes").to_pylist(), dtype=np.int64)
        if n == 0:
            bh = bh.reshape(0, BANDS)
        o_id, o_band, o_hash, o_sig, o_bh = [], [], [], [], []
        for b, hashes in hot.items():
            mask = np.isin(bh[:, b], hashes, assume_unique=False)
            for i in np.nonzero(mask)[0]:
                o_id.append(int(ids[i]))
                o_band.append(b)
                o_hash.append(int(bh[i, b]))
                o_sig.append(sigs[i])
                o_bh.append(bh[i].tolist())
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "band": pa.array(o_band, pa.int32()),
                "band_hash": pa.array(o_hash, pa.int64()),
                "sig": pa.array(o_sig, pa.binary()),
                "band_hashes": pa.array(o_bh, pa.list_(pa.int64())),
            }
        )

    import functools

    from graphiti_ray.stages.ops import sorted_run_map

    colliding = sig_rows.map_batches(
        explode_hot, batch_format="pyarrow", zero_copy_batch=True
    )
    # already distinct across bands (first-colliding-band emission in the
    # kernel) — no pair-dedup shuffle needed
    return sorted_run_map(
        colliding,
        key_cols=["band", "band_hash"],
        order_cols=["doc_id"],
        block_fn=functools.partial(_minhash_block_pairs, threshold=threshold),
        # pair kernel caps every bucket at MAX_BUCKET rows and truncation
        # is counted in TRUNCATION_STATS — dropping a hot run's tail is
        # the documented recall/cost trade, not silent loss
        on_carry_overflow="truncate",
    )


_CC_SENTINEL = 1 << 62  # larger than any doc id: "no previous label"


def connected_components(
    pairs: rd.Dataset, max_rounds: int = 10
) -> rd.Dataset:
    """(a, b) pair list → (doc_id, component) labels, component = min id.

    Small candidate sets (the normal case — near-dups are rare) collapse on
    the driver with union-find; large ones run distributed min-label
    propagation rounds (GraphX-style CC; PAPERS.md BTS/GraphX) whose
    convergence test is a DATASET-side changed-count aggregate — labels
    never materialize on the driver (the former per-round ``take_all``
    was the scale bug flagged in round 1).
    """
    # one execution (materialize) decides the path; count() on the
    # materialized set is metadata-only. NOTE: to_pandas(limit=N) RAISES
    # when the dataset exceeds N rows (ray 2.49 semantics) — it must never
    # gate the large path, only run on the proven-small one.
    pairs = pairs.select_columns(["a", "b"]).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_items([])
    if n_pairs <= SMALL_CC_LIMIT:
        df = pairs.to_pandas()
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            return x

        # ids may be int64 doc ids or string uuids — comparisons and the
        # min-label convention work for both
        for a, b in zip(df["a"], df["b"]):
            ra, rb = find(a), find(b)
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        rows = [{"doc_id": x, "component": find(x)} for x in sorted(parent)]
        return rd.from_items(rows)

    # distributed: min-label propagation until fixpoint
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    sym = pairs.map_batches(
        lambda t: pa.table(
            {
                "x": pa.concat_arrays(
                    [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                ),
                "y": pa.concat_arrays(
                    [t.column("b").combine_chunks(), t.column("a").combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    labels = sym.groupby("x").aggregate(Min("y", alias_name="lbl")).map_batches(
        lambda t: pa.table(
            {
                "x": t.column("x"),
                "lbl": pc.min_element_wise(t.column("x"), t.column("lbl")),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    for _ in range(max_rounds):
        lab2 = labels.rename_columns({"x": "y", "lbl": "nlbl"})
        prop = safe_join(
            sym, lab2, join_type="inner", num_partitions=default_join_partitions(), on=("y",)
        ).select_columns(["x", "nlbl"])
        # tag the previous label so one Min-groupby yields BOTH the new
        # label and the old one (labels are monotone non-increasing):
        # changed rows are exactly new < old — no driver materialization.
        old_tagged = labels.map_batches(
            lambda t: pa.table(
                {"x": t.column("x"), "nlbl": t.column("lbl"), "old": t.column("lbl")}
            ),
            batch_format="pyarrow",
        )
        # sentinel sorts after every real label (ids may be int64 or string)
        sch = labels.schema()
        id_type = sch.types[sch.names.index("lbl")]
        sentinel = (
            "￿￿￿￿" if pa.types.is_string(id_type) else _CC_SENTINEL
        )
        prop_tagged = prop.map_batches(
            lambda t, _s=sentinel, _ty=id_type: t.append_column(
                "old", pa.array([_s] * t.num_rows, _ty)
            ),
            batch_format="pyarrow",
        )
        merged = (
            old_tagged.union(prop_tagged)
            .groupby("x")
            .aggregate(Min("nlbl", alias_name="lbl"), Min("old", alias_name="old_lbl"))
            .map_batches(
                lambda t: t.append_column(
                    "changed",
                    pc.cast(
                        pc.less(t.column("lbl"), t.column("old_lbl")), pa.int64()
                    ),
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        n_changed = merged.sum("changed")
        labels = merged.drop_columns(["old_lbl", "changed"]).materialize()
        if not n_changed:
            break
    return labels.rename_columns({"x": "doc_id", "lbl": "component"})


def minhash_near_dup(
    docs: rd.Dataset, threshold: float = 0.8, text_col="text", id_col="doc_id"
) -> rd.Dataset:
    """End-to-end near-dup clusters: signatures → LSH buckets → verified
    pairs → connected components (doc_id, component)."""
    sigs = minhash_signatures(docs, text_col, id_col)
    pairs = candidate_pairs(sigs, threshold)
    return connected_components(pairs)


# --- exact n-gram Jaccard near-dup ------------------------------------------
#
# MinHash ESTIMATES Jaccard from signature agreement; this operator computes
# it EXACTLY over the full distinct-shingle sets, with candidate generation
# by RARITY-FILTERED bottom-k sketch blocking: each doc's candidate keys are
# its NGRAM_CAND_KEYS smallest shingle hashes (Broder's bottom-k sketch —
# a uniform sample of the doc's shingles), and candidates whose
# candidate-document-frequency exceeds NGRAM_HOT_DF are dropped as hubs
# BEFORE bucketing. Buckets therefore never exceed NGRAM_HOT_DF ≤
# MAX_BUCKET — no truncation, no recall cliff on template-heavy corpora
# (the plain bottom-k variant lost 84% of true pairs on the synthetic
# corpus because corpus-common shingles are the minima of many docs).
# The shingle-set blob rides only into colliding buckets, and a pair is
# emitted exactly once — in the bucket of its smallest shared key.

NGRAM_CAND_KEYS = 32  # bottom-k sketch size (candidate blocking keys per doc)
NGRAM_HOT_DF = 64  # candidate keys in more docs than this are hub-dropped
_KEY_PAD = 1 << 62  # > any real shingle hash (< 2^61): "no key" slot


def _shingle_set_batch(
    batch: pa.Table, text_col: str, id_col: str, m: int
) -> pa.Table:
    """One row per doc: sorted distinct shingle hashes as an int64 blob,
    set size, and the bottom-m candidate keys padded to fixed width."""
    texts = batch.column(text_col).to_pylist()
    sets = [shingle_hashes(t) for t in texts]
    keys = np.full((len(sets), m), _KEY_PAD, dtype=np.int64)
    for i, s in enumerate(sets):
        keys[i, : min(m, len(s))] = s[:m]  # already sorted (np.unique)
    return pa.table(
        {
            "doc_id": batch.column(id_col),
            "sh": pa.array([s.astype("<i8").tobytes() for s in sets], pa.binary()),
            "n_sh": pa.array([len(s) for s in sets], pa.int64()),
            "keys": pa.array(keys.tolist(), pa.list_(pa.int64())),
        }
    )


def _ngram_block_pairs(
    tbl: pa.Table, threshold: float, measure: str = "jaccard"
) -> pa.Table:
    """Vectorized pair kernel over all key-hash runs in a sorted block
    (sorted_run_map contract; runs ≤ NGRAM_HOT_DF rows by construction, so
    the MAX_BUCKET cap never binds). Each pair is emitted only from the
    bucket of its SMALLEST shared surviving key (both docs' hub-filtered
    key lists ride along) — globally distinct without a later shuffle —
    then verified with an exact set intersection over the full shingle
    blobs.

    ``measure``: "jaccard" (resemblance, |∩|/|∪|) or "containment"
    (Broder 1997's subset detector, |∩|/min(|A|,|B|) — catches a short
    doc quoted inside a long one, which resemblance misses)."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            measure: pa.array([], pa.float64()),
        }
    )
    n = tbl.num_rows
    if n < 2:
        return empty
    hcol = tbl.column("h").to_numpy(zero_copy_only=False)
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    px, py = _run_pair_indices(_run_starts(hcol))
    if len(px) == 0:
        return empty
    keys = np.asarray(tbl.column("keys").to_pylist(), dtype=np.int64)
    # smallest key present in BOTH key lists (pad never matches a real
    # hash; kA==pad slots are masked out explicitly). The (chunk, M, M)
    # broadcast cube is bounded to a few MB per chunk — an unchunked
    # P×M×M allocation is ~1 KB per pair, GBs on template-heavy blocks
    # where every bucket sits at hot_df.
    m_w = keys.shape[1]
    min_shared = np.empty(len(px), dtype=np.int64)
    chunk = max(1, (1 << 22) // (m_w * m_w))
    for s in range(0, len(px), chunk):
        ka = keys[px[s : s + chunk]]
        kb = keys[py[s : s + chunk]]
        shared = (ka[:, :, None] == kb[:, None, :]).any(axis=2) & (ka != _KEY_PAD)
        min_shared[s : s + chunk] = np.where(shared, ka, _KEY_PAD).min(axis=1)
    mine = min_shared == hcol[px]
    px, py = px[mine], py[mine]
    if len(px) == 0:
        return empty
    blobs = tbl.column("sh").to_pylist()
    sets = [np.frombuffer(b_, dtype="<i8") for b_ in blobs]
    n_sh = tbl.column("n_sh").to_numpy(zero_copy_only=False)
    inter = np.fromiter(
        (
            np.intersect1d(sets[i], sets[j], assume_unique=True).size
            for i, j in zip(px, py)
        ),
        dtype=np.int64,
        count=len(px),
    )
    if measure == "containment":
        jac = inter / np.minimum(n_sh[px], n_sh[py])
    else:
        jac = inter / (n_sh[px] + n_sh[py] - inter)
    keep = jac >= threshold
    return pa.table(
        {
            "a": pa.array(doc[px[keep]].astype("int64"), pa.int64()),
            "b": pa.array(doc[py[keep]].astype("int64"), pa.int64()),
            measure: pa.array(jac[keep], pa.float64()),
        }
    )


def ngram_jaccard_pairs(
    docs: rd.Dataset,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    cand_keys: int = NGRAM_CAND_KEYS,
    hot_df: int = NGRAM_HOT_DF,
    measure: str = "jaccard",
) -> rd.Dataset:
    """Exact char-n-gram Jaccard near-dup pairs: (a, b, jaccard) with
    a < b and jaccard ≥ threshold, blocked on rarity-filtered bottom-k
    keys. Same two-phase shape as ``candidate_pairs``: narrow candidate
    rows → one count aggregate (only colliding keys reach the driver;
    hub keys with df > hot_df are DROPPED, so buckets are ≤ hot_df by
    construction and nothing truncates) → blob re-attach for colliding
    docs only → one ``sorted_run_map`` pass.

    ``measure="containment"`` switches the verify step to Broder
    containment |∩|/min(|A|,|B|) (see ``_ngram_block_pairs``) with the
    same blocking — the subset/quote detector."""
    import functools

    import ray

    from graphiti_ray.stages.ops import sorted_run_map

    assert hot_df <= MAX_BUCKET, "buckets must stay under the pair-kernel cap"

    def make_sets(batch, _t=text_col, _i=id_col, _m=cand_keys):
        return _shingle_set_batch(batch, _t, _i, _m)

    sets = docs.map_batches(
        make_sets, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def explode_keys(batch: pa.Table) -> pa.Table:
        km = np.asarray(batch.column("keys").to_pylist(), dtype=np.int64)
        if batch.num_rows == 0:
            km = km.reshape(0, cand_keys)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        real = km != _KEY_PAD
        rep = np.repeat(ids, real.sum(axis=1))
        return pa.table(
            {
                "h": pa.array(km[real], pa.int64()),
                "doc_id": pa.array(rep, pa.int64()),
            }
        )

    key_rows = sets.map_batches(
        explode_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    # one count pass gives BOTH the hub keys (df > hot_df → dropped) and
    # the surviving colliding buckets (2 ≤ df ≤ hot_df): removing a hub
    # KEY never removes a doc's other keys, so post-filter bucket sizes
    # equal the candidate counts for every non-hub key.
    counts = _colliding_counts(key_rows, ["h"], sets.count() * cand_keys)
    hubs = counts[counts["c"] > hot_df]
    TRUNCATION_STATS["ngram_jaccard"] = {
        "hub_keys": int(len(hubs)),
        "hub_key_rows": int(hubs["c"].sum()),
    }
    if len(hubs):
        logger.info(
            "ngram_jaccard: %d hub key(s) (df > %d) dropped from blocking "
            "(%d key rows) — hub-safe by construction, recall relies on the "
            "remaining bottom-k keys",
            len(hubs),
            hot_df,
            int(hubs["c"].sum()),
        )
    col = counts[counts["c"] <= hot_df]
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            measure: pa.array([], pa.float64()),
        }
    )
    if col.empty:
        return rd.from_arrow(empty)
    ref = ray.put(
        {
            "col": np.sort(col["h"].to_numpy(dtype=np.int64)),
            "hub": np.sort(hubs["h"].to_numpy(dtype=np.int64)),
        }
    )

    def explode_hot(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        lut = _cached_lut(_ref)
        km = np.asarray(batch.column("keys").to_pylist(), dtype=np.int64)
        if batch.num_rows == 0:
            km = km.reshape(0, cand_keys)
        # hub-filtered key lists ride along for the min-shared-key dedup
        filt = np.where(np.isin(km, lut["hub"]), _KEY_PAD, km)
        mask = np.isin(filt, lut["col"]) & (filt != _KEY_PAD)
        r, c = np.nonzero(mask)
        idx = pa.array(r, pa.int64())
        return pa.table(
            {
                "h": pa.array(filt[r, c], pa.int64()),
                "doc_id": batch.column("doc_id").take(idx),
                "sh": batch.column("sh").take(idx),
                "n_sh": batch.column("n_sh").take(idx),
                "keys": pa.array(filt[r].tolist(), pa.list_(pa.int64())),
            }
        )

    colliding = sets.map_batches(
        explode_hot, batch_format="pyarrow", zero_copy_batch=True
    )
    return sorted_run_map(
        colliding,
        key_cols=["h"],
        order_cols=["doc_id"],
        block_fn=functools.partial(
            _ngram_block_pairs, threshold=threshold, measure=measure
        ),
        # runs are ≤ hot_df ≤ MAX_BUCKET rows — carry overflow is impossible,
        # so the loud default stands
    )


def ngram_containment_pairs(
    docs: rd.Dataset,
    threshold: float = 0.9,
    **kw,
) -> rd.Dataset:
    """Broder containment pairs (a, b, containment ≥ threshold): the
    subset/quote near-dup detector — |A∩B|/min(|A|,|B|) over the same
    rarity-filtered bottom-k blocking as :func:`ngram_jaccard_pairs`."""
    return ngram_jaccard_pairs(
        docs, threshold=threshold, measure="containment", **kw
    )


# --- benchmark decontamination ----------------------------------------------

DECON_K = 8  # char n-gram width for train/test overlap detection


def decontaminate(
    docs: rd.Dataset,
    probe_texts: list[str],
    k: int = DECON_K,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Train/test decontamination: flag corpus docs sharing ANY distinct
    char k-gram with a benchmark probe set (the standard n-gram-overlap
    rule). The probe gram set is benchmark-sized — broadcast once via
    ``ray.put`` and probed with a vectorized ``np.isin`` per doc; the
    corpus streams, nothing shuffles. Output: (doc_id, n_shared_grams,
    contaminated)."""
    import ray

    probe = np.unique(
        np.concatenate(
            [shingle_hashes(t, k) for t in probe_texts]
            or [np.zeros(0, dtype=np.int64)]
        )
    )
    ref = ray.put(probe)

    def flag(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        probe_arr = _cached_lut(_ref)
        texts = batch.column(text_col).to_pylist()
        shared = [
            int(np.isin(shingle_hashes(t, k), probe_arr).sum()) for t in texts
        ]
        return pa.table(
            {
                "doc_id": batch.column(id_col),
                "n_shared_grams": pa.array(shared, pa.int64()),
                "contaminated": pa.array([int(s > 0) for s in shared], pa.int64()),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


# --- simhash ---------------------------------------------------------------

_BIT_IDX = np.arange(64, dtype=np.uint64)
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(arr: np.ndarray) -> np.ndarray:
    """Vectorized population count of a uint64 array (byte-LUT sum)."""
    if len(arr) == 0:
        return np.zeros(0, dtype=np.int64)
    return (
        _POPCNT8[np.ascontiguousarray(arr).view(np.uint8).reshape(len(arr), 8)]
        .sum(axis=1)
        .astype(np.int64)
    )


def _simhash_block_pairs(tbl: pa.Table, max_hamming: int) -> pa.Table:
    """Vectorized Hamming-verified pairs over all (band, band_val) runs in
    a sorted block; first-colliding-band emission dedups across bands."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64()),
        }
    )
    n = tbl.num_rows
    if n < 2:
        return empty
    band = tbl.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
    bval = tbl.column("band_val").to_numpy(zero_copy_only=False)
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    sh = tbl.column("simhash").to_numpy(zero_copy_only=False).astype(np.int64).view(
        np.uint64
    )
    px, py = _run_pair_indices(_run_starts(band, bval))
    if len(px) == 0:
        return empty
    d = _popcount64(sh[px] ^ sh[py])
    bands4 = np.stack(
        [((sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)) for b in range(4)], axis=1
    )
    eq = bands4[px] == bands4[py]
    keep = (eq.argmax(axis=1) == band[px]) & (d <= max_hamming)
    return pa.table(
        {
            "a": pa.array(doc[px[keep]].astype("int64"), pa.int64()),
            "b": pa.array(doc[py[keep]].astype("int64"), pa.int64()),
            "hamming": pa.array(d[keep], pa.int64()),
        }
    )


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """Deterministic 64-bit polynomial byte hash per token (Horner with
    multiplier ``_POLY`` mod 2^64), vectorized over a padded byte matrix.
    Chosen over siphash because the same arithmetic is exactly
    reproducible in the DuckDB oracle (hugeint mod-2^64), making the
    whole SimHash pipeline value-checkable end to end."""
    if not tokens:
        return np.zeros(0, dtype=np.uint64)
    bts = [t.encode("utf-8") for t in tokens]
    lens = np.array([len(b) for b in bts], dtype=np.int64)
    max_len = int(lens.max())
    if max_len == 0:
        return np.zeros(len(tokens), dtype=np.uint64)
    buf = b"".join(b.ljust(max_len, b"\x00") for b in bts)
    mat = np.frombuffer(buf, dtype=np.uint8).reshape(len(bts), max_len)
    h = np.zeros(len(bts), dtype=np.uint64)
    for j in range(max_len):
        live = lens > j
        h[live] = h[live] * _POLY + mat[live, j].astype(np.uint64)
    return h


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (weight 1), vectorized."""
    h = _token_hashes(text.lower().split())
    if len(h) == 0:
        return 0
    bits = (h[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)  # (n_tok, 64)
    acc = np.where(bits == 1, 1, -1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << _BIT_IDX).sum())


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class SimHashStage:
    def __init__(self, text_col="text", id_col="doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        texts = batch.column(self.text_col).to_pylist()
        # one flat hash pass over every token of the batch, reduceat per doc
        toks = [t.lower().split() for t in texts]
        lens = np.array([len(ts) for ts in toks], dtype=np.int64)
        flat = [w for ts in toks for w in ts]
        h = _token_hashes(flat)
        bits = (h[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)
        signed = np.where(bits == 1, 1, -1).astype(np.int32)
        offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
        acc = np.zeros((len(texts), 64), dtype=np.int64)
        nonempty = lens > 0
        if nonempty.any():
            sums = np.add.reduceat(signed, offsets[nonempty], axis=0)
            # reduceat with repeated offsets (empty docs) is avoided by the
            # nonempty mask; rows for empty docs stay 0 → simhash 0
            acc[nonempty] = sums
        arr = ((acc > 0).astype(np.uint64) << _BIT_IDX[None, :]).sum(axis=1)
        out = {"doc_id": ids, "simhash": pa.array(arr.astype("int64"), pa.int64())}
        # 4 bands of 16 bits: near-dups (hamming ≤ 3) share ≥ 1 band
        for b in range(4):
            out[f"band{b}"] = pa.array(
                ((arr >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype("int64"),
                pa.int64(),
            )
        return pa.table(out)


def simhash_signatures(docs: rd.Dataset, text_col="text", id_col="doc_id") -> rd.Dataset:
    def fn(batch, text_col=text_col, id_col=id_col):
        return SimHashStage(text_col, id_col)(batch)

    return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def simhash_near_dup(
    docs: rd.Dataset, max_hamming: int = 3, text_col="text", id_col="doc_id"
) -> rd.Dataset:
    """Candidate pairs by 16-bit band collision, verified by Hamming
    distance ≤ max_hamming. Output: (a, b, hamming).

    Same collision-prefilter shape as MinHash: one narrow explode counts
    (band, value) buckets, only colliding buckets group."""
    sigs = simhash_signatures(docs, text_col, id_col)
    return banded_hamming_pairs(sigs, max_hamming)


def banded_hamming_pairs(sigs: rd.Dataset, max_hamming: int) -> rd.Dataset:
    """64-bit-signature near-dup: candidate pairs by 16-bit band
    collision, Hamming-verified, first-colliding-band distinct emission.

    ``sigs`` columns: (doc_id, simhash int64 = signed view of the uint64
    signature, band0..band3 int64). The banding, hot-bucket prefilter,
    cap + truncation telemetry, and the sorted_run_map pair kernel are
    signature-agnostic."""
    import ray

    sigs = sigs.materialize()

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sh = batch.column("simhash").to_numpy(zero_copy_only=False)
        bands = np.stack(
            [batch.column(f"band{b}").to_numpy(zero_copy_only=False) for b in range(4)],
            axis=1,
        ) if n else np.zeros((0, 4), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "simhash": pa.array(np.repeat(sh, 4), pa.int64()),
                "band": pa.array(np.tile(np.arange(4), n), pa.int32()),
                "band_val": pa.array(bands.reshape(-1), pa.int64()),
            }
        )

    rows = sigs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    counts = _colliding_counts(rows, ["band", "band_val"], sigs.count() * 4)
    _record_truncation(
        "simhash_lsh",
        counts.set_index(["band", "band_val"])["c"]
        if len(counts)
        else pd.Series(dtype="int64"),
    )
    if counts.empty:
        return rd.from_items([]).map_batches(lambda t: t, batch_format="pandas")
    hot_by_band = {
        int(b): np.sort(grp["band_val"].to_numpy(dtype=np.int64))
        for b, grp in counts.groupby("band")
    }
    ref = ray.put(hot_by_band)

    def keep_hot(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        hot = _cached_lut(_ref)
        bands = batch.column("band").to_numpy(zero_copy_only=False)
        vals = batch.column("band_val").to_numpy(zero_copy_only=False)
        mask = np.zeros(len(bands), dtype=bool)
        for b, hashes in hot.items():
            sel = bands == b
            mask[sel] = np.isin(vals[sel], hashes)
        return batch.filter(pa.array(mask))

    import functools

    from graphiti_ray.stages.ops import sorted_run_map

    colliding = rows.map_batches(keep_hot, batch_format="pyarrow", zero_copy_batch=True)
    # first-colliding-band emission makes output distinct — no dedup shuffle
    return sorted_run_map(
        colliding,
        key_cols=["band", "band_val"],
        order_cols=["doc_id"],
        block_fn=functools.partial(_simhash_block_pairs, max_hamming=max_hamming),
        on_carry_overflow="truncate",  # bucket pair kernel caps at MAX_BUCKET
    )


# --- embedding cosine near-dup ---------------------------------------------


def _auto_planes(n: int, target_bucket: int = 32) -> int:
    """Scale hyperplane count with corpus size so the EXPECTED bucket is
    ~target_bucket vectors (2^planes buckets) — a fixed plane count turns
    every bucket into a MAX_BUCKET truncation at web scale."""
    return int(np.clip(np.ceil(np.log2(max(2.0, n / target_bucket))), 4, 24))


def embedding_near_dup(
    emb: rd.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_planes: int | None = None,
    seed: int = 42,
    n_tables: int = 2,
    max_bucket: int = MAX_BUCKET,
) -> rd.Dataset:
    """Cosine near-dup pairs via random-hyperplane LSH buckets.

    Sign pattern of ``n_planes`` random projections buckets vectors; exact
    cosine verifies within buckets. ``n_planes`` defaults to a data-scaled
    value (``_auto_planes``); ``n_tables`` independent hash tables
    (different seeds) are unioned for recall (multi-probe stand-in).
    Bucket truncations are counted + logged (TRUNCATION_STATS). Output:
    (a, b, cosine). Approximate by construction — the exact baseline is
    :func:`embedding_near_dup_exact`.

    Full-recall gate (the ``knn_ivf_full`` trick): ``n_planes=0,
    n_tables=1, max_bucket >= n`` collapses every vector into ONE bucket,
    so the candidate set is all pairs and the output must equal
    ``embedding_near_dup_exact`` value-for-value — the oracle row that
    certifies the whole LSH machinery (bucketize → union → sorted_run_map
    pair kernel → cross-table Max dedup). Partial-plane recall is the
    pytest-covered approximation knob.
    """
    emb = emb.materialize()
    if n_planes is None:
        n_planes = _auto_planes(emb.count())

    def bucketize(batch: pa.Table, table_idx: int) -> pa.Table:
        from graphiti_ray.stages.embed import column_to_matrix

        vecs = (
            column_to_matrix(batch.column(vec_col), np.float32)
            if batch.num_rows
            else np.zeros((0, 1), np.float32)
        )
        if len(vecs) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                    "vec": pa.array([], pa.binary()),
                }
            )
        planes = np.random.RandomState(seed + table_idx).randn(
            vecs.shape[1], n_planes
        )
        signs = (vecs @ planes) > 0
        bucket = (signs * (1 << np.arange(n_planes))).sum(axis=1)
        # table index folded into the bucket id keeps one groupby
        bucket = bucket * n_tables + table_idx
        # vec payload built from one contiguous buffer — no per-row tobytes
        raw = np.ascontiguousarray(vecs.astype("<f4"))
        width = raw.itemsize * raw.shape[1]
        offs = (np.arange(len(raw) + 1, dtype=np.int32) * width).tobytes()
        vec_arr = pa.Array.from_buffers(
            pa.binary(), len(raw), [None, pa.py_buffer(offs), pa.py_buffer(raw.tobytes())]
        )
        return pa.table(
            {
                "vec_id": batch.column(id_col),
                "bucket": pa.array(bucket.astype("int64"), pa.int64()),
                "vec": vec_arr,
            }
        )

    import functools

    tables = [
        emb.map_batches(
            functools.partial(bucketize, table_idx=t),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        for t in range(n_tables)
    ]
    rows = tables[0]
    for t in tables[1:]:
        rows = rows.union(t)
    rows = rows.materialize()
    counts = _colliding_counts(rows, ["bucket"], emb.count() * n_tables)
    _record_truncation(
        "embedding_lsh",
        counts.set_index("bucket")["c"] if len(counts) else pd.Series(dtype="int64"),
        cap=max_bucket,
    )

    from graphiti_ray.stages.ops import sorted_run_map

    pairs = sorted_run_map(
        rows,
        key_cols=["bucket"],
        order_cols=["vec_id"],
        block_fn=functools.partial(
            _embedding_block_pairs, threshold=threshold, max_bucket=max_bucket
        ),
        carry_cap=max(65536, max_bucket),
        on_carry_overflow="truncate",  # bucket pair kernel caps at max_bucket
    )
    # the same pair can fire in several hash TABLES → one small dedup agg
    from ray.data.aggregate import Max

    return pairs.groupby(["a", "b"]).aggregate(Max("cosine", alias_name="cosine"))


def _embedding_block_pairs(
    tbl: pa.Table, threshold: float, max_bucket: int = MAX_BUCKET
) -> pa.Table:
    """Vectorized cosine-verified pairs over all bucket runs in a sorted
    block (float64 + round(6) before thresholding, oracle-aligned)."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    n = tbl.num_rows
    if n < 2:
        return empty
    bucket = tbl.column("bucket").to_numpy(zero_copy_only=False)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    px, py = _run_pair_indices(_run_starts(bucket), cap=max_bucket)
    if len(px) == 0:
        return empty
    # zero-copy parse: equal-width rows stored in offset order → one view
    col = tbl.column("vec").combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
        col.offset : col.offset + n + 1
    ]
    mat = (
        np.frombuffer(col.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
        .view("<f4")
        .reshape(n, -1)
        .astype(np.float64)
    )
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1
    matn = mat / norms
    sims = np.round((matn[px] * matn[py]).sum(axis=1), 6)
    keep = sims >= threshold
    return pa.table(
        {
            "a": pa.array(ids[px[keep]].astype("int64"), pa.int64()),
            "b": pa.array(ids[py[keep]].astype("int64"), pa.int64()),
            "cosine": pa.array(sims[keep], pa.float64()),
        }
    )


def embedding_near_dup_exact(
    emb: rd.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """EXACT all-pairs cosine near-dup: the corpus matrix is normalized
    once, broadcast via ``ray.put``, and every batch computes its rows
    against the full matrix (same streamed-corpus shape as
    ``knn_brute_force``). O(n²) work distributed over batches — the oracle
    baseline and the small/medium-corpus default; use the LSH variant when
    n² flops are prohibitive. float64 + round(6) BEFORE thresholding keeps
    the boundary identical to the DuckDB oracle. Output: (a, b, cosine),
    a < b."""
    import ray

    full = emb.select_columns([id_col, vec_col]).to_pandas()
    all_ids = full[id_col].to_numpy(dtype=np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in full[vec_col]])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1
    ref = ray.put((all_ids, (mat / norms).T))  # (dim, n)

    def score(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        from graphiti_ray.stages.embed import column_to_matrix

        ids_all, matT = _cached_lut(_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        rows = (
            column_to_matrix(batch.column(vec_col), np.float64)
            if batch.num_rows
            else np.zeros((0, 1))
        )
        if len(rows) == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        n[n == 0] = 1
        sims = np.round((rows / n) @ matT, 6)  # (batch, n_all)
        ai, bi = np.nonzero(
            (sims >= threshold) & (ids[:, None] < ids_all[None, :])
        )
        return pa.table(
            {
                "a": pa.array(ids[ai].astype("int64"), pa.int64()),
                "b": pa.array(ids_all[bi].astype("int64"), pa.int64()),
                "cosine": pa.array(sims[ai, bi], pa.float64()),
            }
        )

    return emb.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# --- intra-corpus duplicated-span measurement --------------------------------

DUPSPAN_K = 32  # char n-gram width (Lee et al. 2022 use 50 BPE tokens; 32
#                 chars is the same order on this corpus's ~5-char words)


def duplicated_ngram_stats(
    docs: rd.Dataset,
    k: int = DUPSPAN_K,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-document duplicated-span measurement (the "Deduplicating
    Training Data Makes Language Models Better" diagnostic): for every doc,
    how many of its DISTINCT char-k-gram hashes occur in at least one
    OTHER document, and what fraction of the doc that is. Unlike
    :func:`decontaminate` (corpus vs a small probe set) this is
    corpus-vs-itself, so the gram df cannot be broadcast — it comes from
    :func:`~graphiti_ray.stages.ops.annotate_run_lengths`: one range sort
    of the gram stream (hub grams span blocks for one integer of carry
    each, no grouped materialization), then a per-batch combiner and one
    doc-keyed reduce whose input is already collapsed to ≤ one row per doc
    per batch. Docs shorter than ``k`` chars are excluded (cf. the
    ngram_jaccard_pairs convention; reference analogue: dedup candidate
    framing in graphiti_core/utils/bulk_utils.py:291-362).

    Output: (doc_id, n_grams, n_dup_grams, dup_fraction).
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.ops import annotate_run_lengths

    def explode(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.utf8_length(batch.column(text_col)), k)
        batch = batch.filter(keep)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs = [shingle_hashes(t, k) for t in texts]
        counts = np.array([len(h) for h in hs], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "h": pa.array(
                    np.concatenate(hs) if hs else np.zeros(0, np.int64), pa.int64()
                ),
                "n_grams": pa.array(np.repeat(counts, counts), pa.int64()),
            }
        )

    grams = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    flagged = annotate_run_lengths(grams, ["h"], out_col="df")

    def combine(batch: pa.Table) -> pa.Table:
        dup = pc.cast(pc.greater_equal(batch.column("df"), 2), pa.int64())
        t = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": batch.column("n_grams"),
                "dup": dup,
            }
        )
        return t.group_by(["doc_id", "n_grams"]).aggregate([("dup", "sum")])

    partial = flagged.map_batches(
        combine, batch_format="pyarrow", zero_copy_batch=True
    )
    total = partial.groupby(["doc_id", "n_grams"]).aggregate(
        Sum("dup_sum", alias_name="n_dup_grams")
    )

    def finish(batch: pa.Table) -> pa.Table:
        frac = pc.divide(
            pc.cast(batch.column("n_dup_grams"), pa.float64()),
            pc.cast(batch.column("n_grams"), pa.float64()),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": batch.column("n_grams"),
                "n_dup_grams": batch.column("n_dup_grams"),
                "dup_fraction": frac,
            }
        )

    return total.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def remove_duplicated_spans(
    docs: rd.Dataset,
    k: int = DUPSPAN_K,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Exact duplicated-span REMOVAL — the transform of "Deduplicating
    Training Data Makes Language Models Better" (Lee et al. 2022,
    arXiv:2107.06499), where :func:`duplicated_ngram_stats` is the
    diagnostic: every character covered by a char-``k``-gram that occurs
    at ≥2 positions ANYWHERE in the corpus (other docs or elsewhere in
    the same doc) is cut from the document.

    Dataflow (all corpus-sized steps streaming): positional gram hashes →
    :func:`~graphiti_ray.stages.ops.annotate_run_lengths` for the global
    occurrence count (one range sort, hub grams cost one carry each) →
    filter to duplicated starts → per-doc start lists via
    ``sorted_run_map`` (carried as ','-joined strings — the repo's ragged
    payload convention) → one hash LEFT join back onto the docs table →
    a vectorized coverage mask per doc (difference-array cumsum, no
    per-char Python). Only the duplicated-start rows — a small fraction
    of the gram stream — survive past the filter.

    Case/byte convention matches the rest of the shingle family: grams
    are hashed over ``lower(text)`` UTF-8 bytes, and removal is applied
    to the LOWERED text (byte-level; the corpus convention is ASCII, cf.
    the docs_dup_spans oracle).

    Output: (doc_id, cleaned_text, n_removed) — every input doc appears,
    untouched when nothing was duplicated or the doc is shorter than
    ``k``.
    """
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join
    from graphiti_ray.stages.ops import annotate_run_lengths, sorted_run_map

    def explode(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.utf8_length(batch.column(text_col)), k)
        batch = batch.filter(keep)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs = [shingle_hash_seq(t, k) for t in texts]
        counts = np.array([len(h) for h in hs], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "pos": pa.array(
                    np.concatenate([np.arange(c, dtype=np.int64) for c in counts])
                    if len(counts)
                    else np.zeros(0, np.int64),
                    pa.int64(),
                ),
                "h": pa.array(
                    np.concatenate(hs) if hs else np.zeros(0, np.int64), pa.int64()
                ),
            }
        )

    grams = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    flagged = annotate_run_lengths(grams, ["h"], out_col="df")
    dup_starts = flagged.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("df"), 2)).select(
            ["doc_id", "pos"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def collect(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        if tbl.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "starts_csv": pa.array([], pa.string()),
                }
            )
        starts = _table_run_starts(tbl, ["doc_id"])
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        pos = tbl.column("pos").to_numpy(zero_copy_only=False)
        out_ids, out_csv = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            out_ids.append(int(ids[s]))
            out_csv.append(",".join(map(str, pos[s:e])))
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "starts_csv": pa.array(out_csv, pa.string()),
            }
        )

    pos_lists = sorted_run_map(dup_starts, ["doc_id"], collect, order_cols=["pos"])

    left = docs.select_columns([id_col, text_col])
    if id_col != "doc_id":  # gram/pos rows hard-name the key; align the left side
        left = left.rename_columns({id_col: "doc_id"})
    joined = safe_join(
        left,
        pos_lists,
        join_type="left_outer",
        num_partitions=default_join_partitions(),
        on=("doc_id",),
    )

    def apply_mask(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        csvs = batch.column("starts_csv").to_pylist()
        cleaned, removed = [], np.zeros(len(ids), np.int64)
        for r, (t, csv) in enumerate(zip(texts, csvs)):
            tl = (t or "").lower()
            if not csv:
                cleaned.append(tl)
                continue
            tb = np.frombuffer(tl.encode("utf-8", "ignore"), dtype=np.uint8)
            starts = np.fromiter((int(x) for x in csv.split(",")), dtype=np.int64)
            d = np.zeros(len(tb) + 1, np.int64)
            np.add.at(d, starts, 1)
            np.add.at(d, np.minimum(starts + k, len(tb)), -1)
            covered = np.cumsum(d[:-1]) > 0
            removed[r] = int(covered.sum())
            cleaned.append(tb[~covered].tobytes().decode("utf-8", "ignore"))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cleaned_text": pa.array(cleaned, pa.string()),
                "n_removed": pa.array(removed, pa.int64()),
            }
        )

    return joined.map_batches(apply_mask, batch_format="pyarrow", zero_copy_batch=True)


def gram_novelty(
    docs: rd.Dataset,
    k: int = DUPSPAN_K,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-document NOVELTY profiling: how many of a doc's distinct
    char-``k``-gram hashes are FIRST SEEN in this doc (lowest ``doc_id``
    among all carriers) and what fraction of the doc that is — the
    marginal-contribution signal of a growing dedup corpus (each doc's
    novelty is its share of grams no earlier doc supplied; the dual of
    :func:`duplicated_ngram_stats`' dup_fraction).

    One range sort: ``sorted_run_map`` over the gram stream keyed on the
    hash with ``doc_id`` as the run order — the first row of each
    complete run IS the first-seen carrier (block-boundary runs are
    carried whole), so no groupby(h).min + join-back. The per-doc
    reduction is the usual per-block combiner → keyed sum. Docs shorter
    than ``k`` chars are excluded (the dup_spans convention).

    Output: (doc_id, n_grams, n_novel, novelty_fraction).
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.ops import sorted_run_map

    def explode(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.utf8_length(batch.column(text_col)), k)
        batch = batch.filter(keep)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs = [shingle_hashes(t, k) for t in texts]
        counts = np.array([len(h) for h in hs], dtype=np.int64)
        return pa.table(
            {
                "h": pa.array(
                    np.concatenate(hs) if hs else np.zeros(0, np.int64), pa.int64()
                ),
                "doc_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "n_grams": pa.array(np.repeat(counts, counts), pa.int64()),
            }
        )

    grams = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def first_flags(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        if tbl.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_grams": pa.array([], pa.int64()),
                    "novel": pa.array([], pa.int64()),
                }
            )
        starts = _table_run_starts(tbl, ["h"])
        flag = np.zeros(tbl.num_rows, np.int64)
        flag[starts[:-1]] = 1
        t = pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_grams": tbl.column("n_grams"),
                "novel": pa.array(flag, pa.int64()),
            }
        )
        # combiner: collapse to ≤ one row per doc per block before the reduce
        return t.group_by(["doc_id", "n_grams"]).aggregate([("novel", "sum")])

    partial = sorted_run_map(grams, ["h"], first_flags, order_cols=["doc_id"])
    total = partial.groupby(["doc_id", "n_grams"]).aggregate(
        Sum("novel_sum", alias_name="n_novel")
    )

    def finish(batch: pa.Table) -> pa.Table:
        frac = pc.divide(
            pc.cast(batch.column("n_novel"), pa.float64()),
            pc.cast(batch.column("n_grams"), pa.float64()),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": batch.column("n_grams"),
                "n_novel": batch.column("n_novel"),
                "novelty_fraction": frac,
            }
        )

    return total.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


CDC_K = 16      # rolling-window width (bytes) for boundary detection
CDC_MASK = 63   # boundary when gram hash % (CDC_MASK+1) == 0 → ~64-byte chunks


def cdc_chunks(
    docs: rd.Dataset,
    k: int = CDC_K,
    mask_bits: int = 6,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Content-defined chunking (the Rabin/Gear CDC family underlying
    LBFS/restic/borg-style dedup storage): a chunk boundary falls after
    every position whose rolling ``k``-byte hash satisfies
    ``h % 2^mask_bits == 0``, so INSERTIONS only reshuffle the chunks
    they touch — unlike fixed-grid chunking where one inserted byte
    shifts every downstream boundary.  This is the PURE mask rule
    (no min/max chunk clamps): position-independent, hence exactly
    SQL-expressible — the clamped FastCDC variant makes each boundary
    depend on the previous one, which no window function can express.

    Single streaming ``map_batches`` pass (the positional Horner hashes
    are the same :func:`shingle_hash_seq` kernel the whole dedup family
    uses, over ``lower(text)`` bytes); chunk digests via the vectorized
    Arrow md5 used by exact dedup — no shuffle at all, chunking is
    embarrassingly parallel.

    Output: one row per chunk — (doc_id, chunk_id, start, length,
    chunk_md5), ``start`` 1-based to match SQL ``substr``; docs shorter
    than ``k`` are a single whole-doc chunk.
    """
    mask = (1 << mask_bits) - 1

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        out_id, out_cid, out_start, out_len, out_txt = [], [], [], [], []
        for d, t in zip(ids, texts):
            tl = (t or "").lower()
            n = len(tl)
            if n >= k:
                hs = shingle_hash_seq(tl, k)
                # cut AFTER 0-based position i0+k-1 → end-exclusive i0+k,
                # dropped when it would land at/after the text end
                cuts = np.flatnonzero((hs & mask) == 0) + k
                cuts = cuts[cuts < n]
            else:
                cuts = np.zeros(0, np.int64)
            bounds = np.concatenate([[0], cuts, [n]])
            for ci, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
                out_id.append(int(d))
                out_cid.append(ci)
                out_start.append(int(s) + 1)
                out_len.append(int(e - s))
                out_txt.append(tl[s:e])
        t = pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "start": pa.array(out_start, pa.int64()),
                "length": pa.array(out_len, pa.int64()),
                "txt": pa.array(out_txt, pa.string()),
            }
        )
        md5s = md5_hex_column(t.column("txt"))
        return t.drop_columns(["txt"]).append_column(
            "chunk_md5", pa.array(md5s, pa.string())
        )

    return docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


# --- Levenshtein-verified near-dup pairs ------------------------------------
#
# The canonical two-stage near-dup refinement (candidate generation →
# exact verification; reference analogue: the dedup fixpoint family,
# graphiti_core/utils/bulk_utils.py:291-396, which re-scores fuzzy
# candidates before merging). MinHash-LSH proposes pairs; an exact
# edit-distance pass confirms them. Cost is bounded by the CANDIDATE
# count, never the corpus — the all-pairs matrix is never formed.

LEV_DRIVER_PAIR_LIMIT = 500_000  # pairs ≤ this → broadcast id prefilter


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance on code points (matches DuckDB's
    ``levenshtein``). Row-DP with the insertion recurrence cleared via
    the min-accumulate identity c[j] = min_k≤j (t[k] + (j-k)), so each
    DP row is O(|b|) numpy work instead of a per-cell Python loop."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return la or lb
    av = np.fromiter(map(ord, a), dtype=np.int64, count=la)
    bv = np.fromiter(map(ord, b), dtype=np.int64, count=lb)
    # strip the common prefix and suffix — exact (some optimal alignment
    # maps them 1:1), and the LSH candidates this kernel verifies are
    # near-clones, so the surviving DP core is usually a fraction of the
    # full strings
    m = min(la, lb)
    neq = av[:m] != bv[:m]
    p = int(neq.argmax()) if neq.any() else m
    neqs = av[::-1][:m] != bv[::-1][:m]
    s = int(neqs.argmax()) if neqs.any() else m
    s = min(s, m - p)
    av, bv = av[p : la - s], bv[p : lb - s]
    if av.size == 0 or bv.size == 0:
        return int(av.size or bv.size)
    if av.size > bv.size:  # loop the SHORTER string: fewer Python rows,
        av, bv = bv, av  # each row one longer vectorized kernel
    idx = np.arange(bv.size + 1, dtype=np.int64)
    prev = idx.copy()
    t = np.empty(bv.size + 1, np.int64)
    for i, oa in enumerate(av):
        t[0] = i + 1
        np.minimum(prev[1:] + 1, prev[:-1] + (bv != oa), out=t[1:])
        prev = np.minimum.accumulate(t - idx) + idx
    return int(prev[-1])


def _lev_verify_block(tbl: pa.Table, sim_pct: int) -> pa.Table:
    a_txt = tbl.column("text_a").to_pylist()
    b_txt = tbl.column("text_b").to_pylist()
    n = len(a_txt)
    lev = np.fromiter(
        (levenshtein_distance(x, y) for x, y in zip(a_txt, b_txt)),
        dtype=np.int64,
        count=n,
    )
    mx = np.fromiter(
        (max(len(x), len(y)) for x, y in zip(a_txt, b_txt)),
        dtype=np.int64,
        count=n,
    )
    # exact-integer similarity gate: normalized distance ≤ (100-sim_pct)%
    is_dup = lev * 100 <= (100 - sim_pct) * mx
    return pa.table(
        {
            "a": tbl.column("a"),
            "b": tbl.column("b"),
            "lev_dist": pa.array(lev, pa.int64()),
            "max_len": pa.array(mx, pa.int64()),
            "is_dup": pa.array(is_dup, pa.bool_()),
        }
    )


def levenshtein_verified_pairs(
    docs: rd.Dataset,
    threshold: float = 0.8,
    sim_pct: int = 80,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """MinHash-LSH candidates exact-verified by Levenshtein distance:
    (a, b, lev_dist, max_len, is_dup). Hydration of pair texts is a
    broadcast ``pc.is_in`` prefilter + two hash joins when the pair set
    is driver-small (≤ LEV_DRIVER_PAIR_LIMIT), else the prefilter is
    skipped and the hash joins alone carry it — either way no
    corpus-sized driver materialization."""
    import functools

    import ray

    from graphiti_ray.stages.link import (
        _cached_lut,
        default_join_partitions,
        safe_join,
    )

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "lev_dist": pa.array([], pa.int64()),
            "max_len": pa.array([], pa.int64()),
            "is_dup": pa.array([], pa.bool_()),
        }
    )
    sigs = minhash_signatures(docs, text_col, id_col)
    pairs = candidate_pairs(sigs, threshold).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(empty)
    texts = docs
    if text_col != "text" or id_col != "doc_id":
        texts = texts.rename_columns({id_col: "doc_id", text_col: "text"})
    texts = texts.select_columns(["doc_id", "text"])
    if n_pairs <= LEV_DRIVER_PAIR_LIMIT:
        pdf = pairs.select_columns(["a", "b"]).to_pandas()
        ids = np.unique(
            np.concatenate([pdf["a"].to_numpy(np.int64), pdf["b"].to_numpy(np.int64)])
        )
        ref = ray.put(pa.array(ids, pa.int64()))

        def keep(batch: pa.Table, _ref=ref) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.is_in(batch.column("doc_id"), value_set=_cached_lut(_ref))
            )

        texts = texts.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    parts = default_join_partitions()
    left = safe_join(
        pairs.select_columns(["a", "b"]),
        texts.rename_columns({"doc_id": "a", "text": "text_a"}),
        join_type="inner",
        num_partitions=parts,
        on=("a",),
    )
    both = safe_join(
        left,
        texts.rename_columns({"doc_id": "b", "text": "text_b"}),
        join_type="inner",
        num_partitions=parts,
        on=("b",),
    )
    return both.map_batches(
        functools.partial(_lev_verify_block, sim_pct=sim_pct),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# --- cross-corpus keep-first line dedup (CCNet paragraph dedup) --------------


def dedup_lines_corpus(
    docs: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """CCNet-style corpus-level line/paragraph deduplication as a TRANSFORM
    (Wenzek et al. 2020: hash every paragraph, keep one copy corpus-wide):
    a non-empty line survives iff it is the corpus-order FIRST occurrence
    of its content (order = (doc_id, line_no)); empty lines always survive
    (document structure is not dedup-able content). Returns the rewritten
    corpus (id, text) — docs whose every line was a duplicate drop out.

    Scale shape: explode → md5 per line (vectorized off the Arrow
    buffers) → ``head_k_per_key`` on the hash (ONE range sort; hub lines
    — a boilerplate sentence on 10^8 pages — cost a truncated carry, the
    kernel provably reads only run heads) → one more range sort to
    reconstruct documents. No groupby, no join."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import head_k_per_key, sorted_run_map

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        texts = t.column(text_col).to_pylist()
        out_id: list[int] = []
        out_no: list[int] = []
        out_line: list[str] = []
        for i, txt in enumerate(texts):
            lines = txt.split("\n")
            out_id.extend([int(ids[i])] * len(lines))
            out_no.extend(range(1, len(lines) + 1))
            out_line.extend(lines)
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "line_no": pa.array(out_no, pa.int64()),
                "line": pa.array(out_line, pa.string()),
            }
        )

    ex = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def split_nonempty(t: pa.Table) -> pa.Table:
        ne = t.filter(pc.not_equal(t.column("line"), ""))
        return ne.append_column(
            "line_md5", pa.array(md5_hex_column(ne.column("line")), pa.string())
        )

    nonempty = ex.map_batches(
        split_nonempty, batch_format="pyarrow", zero_copy_batch=True
    )
    empties = ex.map_batches(
        lambda t: t.filter(pc.equal(t.column("line"), "")),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    kept = head_k_per_key(
        nonempty, ["line_md5"], [id_col, "line_no"], k=1
    ).drop_columns(["line_md5"])

    def reconstruct(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    text_col: pa.array([], pa.string()),
                }
            )
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        lines = t.column("line").to_pylist()
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        bounds = np.append(starts, len(ids))
        return pa.table(
            {
                id_col: pa.array([int(ids[s]) for s in starts], pa.int64()),
                text_col: pa.array(
                    [
                        "\n".join(lines[bounds[i] : bounds[i + 1]])
                        for i in range(len(starts))
                    ],
                    pa.string(),
                ),
            }
        )

    return sorted_run_map(
        kept.union(empties), [id_col], reconstruct, order_cols=["line_no"]
    )


def sorted_neighborhood_pairs(
    docs: rd.Dataset,
    window: int = 4,
    key_len: int = 24,
    threshold_e6: int = 500_000,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Sorted-neighborhood (SNM) near-dup blocking — the classic entity-
    resolution alternative to hash/LSH blocking (Hernández & Stolfo 1995):
    sort the corpus ONCE by a cheap discriminating key (here the first
    ``key_len`` chars of the space-stripped lowercased text) and compare
    each record only with the ``window−1`` records immediately before it
    in the global sort order. Cost is one range sort + O(window·n) pair
    checks with NO shuffle join and no bucket skew by construction — a
    hub key degrades gracefully to window-bounded comparisons instead of
    an O(k²) bucket.

    Ray shape: the global sliding window is ``ops.sorted_lag_list`` over a
    constant partition (each block receives its predecessor's ≤window−1
    tail rows, so windows straddling block boundaries cost one tiny
    object exchange, never a groupby). Verification is exact distinct-
    token Jaccard on the 1e6 integer lattice — the SQL twin reproduces
    every pair bit-for-bit via row_number self-join + list_intersect.

    Output: (doc_a, doc_b, jacc_e6) with doc_a the earlier row in sort
    order, jacc_e6 = 1e6·|A∩B| // |A∪B| ≥ ``threshold_e6``.

    Reference analogue: dedup candidate generation in
    graphiti_core/utils/maintenance/dedup_helpers.py (MinHash blocking) —
    SNM trades its recall profile for a single sort and strictly bounded
    per-row work, the right tool when the corpus is already sort-friendly.
    """
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import sorted_lag_list

    sep = "\x01"

    def prep(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t.column(text_col))
        key = pc.utf8_slice_codeunits(
            pc.replace_substring(low, " ", ""), 0, key_len
        )
        ids = t.column(id_col).cast(pa.string())
        comp = pc.binary_join_element_wise(ids, low, sep)
        return pa.table(
            {
                "_snm_key": key,
                id_col: t.column(id_col),
                "_one": pa.array(
                    np.zeros(t.num_rows, np.int8), pa.int8()
                ),
                "comp": comp,
            }
        )

    prepped = docs.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    lagged = sorted_lag_list(
        prepped,
        ["_one"],
        ["_snm_key", id_col],
        "comp",
        k=window - 1,
        out_col="prev",
    )

    def toks(s: str) -> frozenset[str]:
        return frozenset(x for x in s.split(" ") if x)

    def pairs(t: pa.Table) -> pa.Table:
        comp = t.column("comp").to_pylist()
        prev = t.column("prev").to_pylist()
        a_ids, b_ids, jacc = [], [], []
        for cur, win in zip(comp, prev):
            cid, ctext = cur.split(sep, 1)
            ctoks = toks(ctext)
            for p in win or []:
                pid, ptext = p.split(sep, 1)
                ptoks = toks(ptext)
                inter = len(ctoks & ptoks)
                uni = len(ctoks) + len(ptoks) - inter
                if uni == 0:
                    continue
                j = (1_000_000 * inter) // uni
                if j >= threshold_e6:
                    a_ids.append(int(pid))
                    b_ids.append(int(cid))
                    jacc.append(j)
        return pa.table(
            {
                "doc_a": pa.array(a_ids, pa.int64()),
                "doc_b": pa.array(b_ids, pa.int64()),
                "jacc_e6": pa.array(jacc, pa.int64()),
            }
        )

    return lagged.map_batches(pairs, batch_format="pyarrow")


def minimizers(
    docs: rd.Dataset,
    k: int = SHINGLE_K,
    w: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """(w,k)-minimizer sampling (Roberts 2004 / minimap's sketch): per
    document, the positional k-byte rolling hashes ``shingle_hash_seq``
    already computes, then every length-w window contributes its minimum
    hash's LEFTMOST position — the distinct (doc_id, pos, h) set is the
    sketch. Guarantees: any two documents sharing a ≥(w+k−1)-byte
    substring share a minimizer, at an expected 2/(w+1) sampling rate —
    the density/recall dial large-scale substring dedup and overlap
    detection want when full positional grams are too heavy.

    Single streaming ``map_batches`` pass, numpy end to end: the window
    argmin is one ``sliding_window_view(...).argmin`` per doc (ties →
    first index = leftmost, the canonical tie rule); docs shorter than k
    are excluded on BOTH sides (padding semantics aren't SQL-expressible
    — the dedup_ngram convention). m ≤ w docs contribute their single
    global-argmin window. Hash arithmetic is byte-for-byte the MinHash
    shingle convention, so the SQL twin reuses the lead()-Horner CTE.
    """

    def per_batch(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        texts = t.column(text_col).to_pylist()
        out_id, out_pos, out_h = [], [], []
        for did, text in zip(ids, texts):
            if len(text.lower().encode("utf-8", "ignore")) < k:
                continue
            h = shingle_hash_seq(text, k)
            m = len(h)
            if m <= w:
                pos = np.array([int(h.argmin())], dtype=np.int64)
            else:
                win = np.lib.stride_tricks.sliding_window_view(h, w)
                pos = np.unique(win.argmin(axis=1) + np.arange(len(win)))
            out_id.append(np.full(len(pos), did, dtype=np.int64))
            out_pos.append(pos + 1)  # 1-based, the SQL substr convention
            out_h.append(h[pos])
        if not out_id:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "h": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "pos": pa.array(np.concatenate(out_pos), pa.int64()),
                "h": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )

    return docs.map_batches(per_batch, batch_format="pyarrow", zero_copy_batch=True)


MINIMIZER_HOT_DF = 32  # drop minimizer hashes shared by more docs (hub grams)


def minimizer_dedup_pairs(
    docs: rd.Dataset,
    k: int = SHINGLE_K,
    w: int = 8,
    min_shared: int = 3,
    hot_df: int = MINIMIZER_HOT_DF,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Minimizer-sketch near-dup candidate pairs: docs sharing ≥
    ``min_shared`` distinct (w,k)-minimizer hashes — the substring-level
    member of the dedup family (MinHash estimates set Jaccard, n-gram
    verifies it; minimizers catch LONG shared runs at 2/(w+1) the cost of
    full positional grams). Hub hashes with document frequency >
    ``hot_df`` are DROPPED, not capped — deterministic, skew-immune, and
    exactly mirrored by the twin's HAVING clause (the dedup_ngram
    convention; a capped bucket could not be value-exact).

    Shape: minimizers → distinct (doc, h) → ONE range sort on h → pair
    kernel over complete runs (``ops.sorted_run_map``; runs are ≤ hot_df
    rows by the drop rule, so the carry is bounded) → one keyed count.
    Output: (doc_a, doc_b, shared) with doc_a < doc_b.
    """
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import distinct_by_key, sorted_run_map

    m = minimizers(docs, k=k, w=w, id_col=id_col, text_col=text_col)

    def key(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": t.column("h"),
                id_col: t.column(id_col),
                "_k": pc.binary_join_element_wise(
                    pc.cast(t.column("h"), pa.string()),
                    pc.cast(t.column(id_col), pa.string()),
                    "\x01",
                ),
            }
        )

    mm = distinct_by_key(
        m.map_batches(key, batch_format="pyarrow"), "_k"
    ).drop_columns(["_k"])

    def pair_kernel(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        starts = _table_run_starts(tbl, ["h"])
        ax, bx = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            n = e - s
            if n < 2 or n > hot_df:
                continue
            x, y = _triu(n)
            ax.append(ids[s:e][x])
            bx.append(ids[s:e][y])
        if not ax:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                }
            )
        a = np.concatenate(ax)
        b = np.concatenate(bx)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "doc_a": pa.array(lo, pa.int64()),
                "doc_b": pa.array(hi, pa.int64()),
            }
        )

    # truncate is EXACT here: a truncated hub run still presents ≥
    # carry_cap (= 4·hot_df > hot_df) rows to the kernel, so it is dropped
    # exactly like its untruncated self; runs the kernel keeps (≤ hot_df)
    # are always carried whole
    pairs = sorted_run_map(
        mm,
        ["h"],
        pair_kernel,
        order_cols=[id_col],
        carry_cap=4 * hot_df,
        on_carry_overflow="truncate",
    )
    counted = pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Count(alias_name="shared")
    )
    return counted.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t.column("shared"), min_shared)
        ),
        batch_format="pyarrow",
    )


def incremental_near_dup(
    existing: rd.Dataset,
    new: rd.Dataset,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Incremental MinHash near-dup — the nightly-crawl production shape:
    the EXISTING corpus contributes its (persisted) signature rows, only
    the NEW batch computes signatures fresh, and a new document is
    flagged when it collides with anything — an existing doc or another
    new one. Reference analogue: the incremental upsert family
    (pipelines/incremental.py) applied to the dedup index.

    Candidates run through the SAME banded machinery as
    :func:`minhash_near_dup` over the unioned signature rows (band
    buckets co-locate both sides; old×old pairs inside shared buckets
    are pruned vectorized after the pair kernel — their cost is bounded
    by the bucket caps; a production variant tags sides and skips them
    inside the kernel).

    Output: one row per flagged NEW doc —
    (doc_id, n_partners, min_partner).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    sig_e = minhash_signatures(existing, text_col, id_col)
    sig_n = minhash_signatures(new, text_col, id_col)
    new_ids = pa.concat_arrays(
        [
            b.column(id_col).combine_chunks()
            for b in new.select_columns([id_col]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ]
    )
    import ray

    nref = ray.put(new_ids)
    pairs = candidate_pairs(sig_e.union(sig_n), threshold)

    def new_sides(batch: pa.Table, _ref=nref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        nids = _cached_lut(_ref)
        a, b = batch.column("a"), batch.column("b")
        a_new = pc.is_in(a, value_set=nids)
        b_new = pc.is_in(b, value_set=nids)
        left = pa.table({"doc_id": a, "partner": b}).filter(a_new)
        right = pa.table({"doc_id": b, "partner": a}).filter(b_new)
        tbl = pa.concat_tables([left, right])
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "partner": tbl.column("partner"),
                "one": pa.array(np.ones(tbl.num_rows, np.int64)),
            }
        )

    return (
        pairs.map_batches(new_sides, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(
            Sum("one", alias_name="n_partners"),
            Min("partner", alias_name="min_partner"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                    "n_partners": pc.cast(t.column("n_partners"), pa.int64()),
                    "min_partner": pc.cast(t.column("min_partner"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


# --- PPJoin-style prefix-filtered set-similarity join -------------------------


def _ppjoin_block_pairs(
    tbl: pa.Table, threshold: float, hub_sorted: np.ndarray
) -> pa.Table:
    """Pair kernel over prefix-key runs (sorted_run_map contract): a pair
    is emitted only from the bucket of the SMALLEST hash shared by both
    docs' hub-filtered PREFIXES (globally distinct without a shuffle),
    then verified with the exact Jaccard over the full shingle blobs.
    Prefixes are recomputed from the blobs (first |S| − ⌈t·|S|⌉ + 1
    sorted hashes), so no ragged key matrix ships through the sort."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    n = tbl.num_rows
    if n < 2:
        return empty
    hcol = tbl.column("h").to_numpy(zero_copy_only=False)
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    px, py = _run_pair_indices(_run_starts(hcol))
    if len(px) == 0:
        return empty
    blobs = tbl.column("sh").to_pylist()
    sets = [np.frombuffer(b_, dtype="<i8") for b_ in blobs]
    n_sh = tbl.column("n_sh").to_numpy(zero_copy_only=False)
    pref_len = n_sh - np.ceil(threshold * n_sh).astype(np.int64) + 1
    prefixes = []
    for s_, L in zip(sets, pref_len):
        p = s_[: max(int(L), 0)]
        if len(hub_sorted):
            p = p[~np.isin(p, hub_sorted)]
        prefixes.append(p)
    keep_a, keep_b = [], []
    for i, j in zip(px, py):
        shared = np.intersect1d(prefixes[i], prefixes[j], assume_unique=True)
        if len(shared) and shared[0] == hcol[i]:
            keep_a.append(i)
            keep_b.append(j)
    if not keep_a:
        return empty
    ia = np.array(keep_a, dtype=np.int64)
    ib = np.array(keep_b, dtype=np.int64)
    inter = np.fromiter(
        (
            len(np.intersect1d(sets[i], sets[j], assume_unique=True))
            for i, j in zip(ia, ib)
        ),
        dtype=np.int64,
        count=len(ia),
    )
    union = n_sh[ia] + n_sh[ib] - inter
    jacc = inter / np.maximum(union, 1)  # unrounded, like the bottom-k kernel
    ok = jacc >= threshold
    a_ids = np.minimum(doc[ia], doc[ib])[ok]
    b_ids = np.maximum(doc[ia], doc[ib])[ok]
    return pa.table(
        {
            "a": pa.array(a_ids, pa.int64()),
            "b": pa.array(b_ids, pa.int64()),
            "jaccard": pa.array(jacc[ok], pa.float64()),
        }
    )


def ngram_jaccard_ppjoin(
    docs: rd.Dataset,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    hot_df: int = NGRAM_HOT_DF,
) -> rd.Dataset:
    """Exact char-n-gram Jaccard pairs via PPJoin-style PREFIX FILTERING
    (Xiao et al. 2008) — the provably-complete blocking: under any fixed
    global token order, two sets with J ≥ t MUST share a token among
    each one's first |S| − ⌈t·|S|⌉ + 1 tokens, so blocking on exactly
    those prefixes loses nothing (the bottom-k blocking of
    :func:`ngram_jaccard_pairs` is the heuristic cousin; both are
    value-pinned to the same SQL twin). The global order here is hash
    order — free, already materialized by the sorted blobs.

    Same scale shape: narrow (prefix-hash, doc) rows → one collision
    count (hub keys with df > hot_df dropped AND LOGGED — the one
    departure from the formal guarantee, same engineering contract as
    the bottom-k path) → blob re-attach for colliding docs → one
    ``sorted_run_map`` pair kernel with smallest-shared-prefix-key
    dedup + exact verify.

    Output: (a, b, jaccard) with a < b, jaccard ≥ threshold.
    """
    import functools

    import ray

    from graphiti_ray.stages.ops import sorted_run_map

    def make_sets(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        sets = [shingle_hashes(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column(id_col),
                "sh": pa.array(
                    [s.astype("<i8").tobytes() for s in sets], pa.binary()
                ),
                "n_sh": pa.array([len(s) for s in sets], pa.int64()),
            }
        )

    sets = docs.map_batches(
        make_sets, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def explode_prefix(batch: pa.Table) -> pa.Table:
        blobs = batch.column("sh").to_pylist()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_sh = batch.column("n_sh").to_numpy(zero_copy_only=False)
        pref_len = n_sh - np.ceil(threshold * n_sh).astype(np.int64) + 1
        o_h, o_d = [], []
        for b_, i, L in zip(blobs, ids, pref_len):
            s_ = np.frombuffer(b_, dtype="<i8")[: max(int(L), 0)]
            o_h.append(s_)
            o_d.append(np.full(len(s_), i, dtype=np.int64))
        if not o_h:
            return pa.table(
                {"h": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "h": pa.array(np.concatenate(o_h), pa.int64()),
                "doc_id": pa.array(np.concatenate(o_d), pa.int64()),
            }
        )

    key_rows = sets.map_batches(
        explode_prefix, batch_format="pyarrow", zero_copy_batch=True
    )
    # prefix rows per doc ≈ (1−t)·|S|+1 — the n_rows bound scales the same
    avg_prefix = max(1, int((1 - threshold) * 256) + 1)
    counts = _colliding_counts(key_rows, ["h"], sets.count() * avg_prefix)
    hubs = counts[counts["c"] > hot_df]
    TRUNCATION_STATS["ngram_ppjoin"] = {
        "hub_keys": int(len(hubs)),
        "hub_key_rows": int(hubs["c"].sum()) if len(hubs) else 0,
    }
    if len(hubs):
        logger.info(
            "ngram_ppjoin: %d hub prefix key(s) (df > %d) dropped from "
            "blocking (%d key rows) — completeness now relies on the "
            "remaining prefix keys",
            len(hubs),
            hot_df,
            int(hubs["c"].sum()),
        )
    col = counts[counts["c"] <= hot_df]
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    if col.empty:
        return rd.from_arrow(empty)
    hub_sorted = np.sort(hubs["h"].to_numpy(dtype=np.int64))
    ref = ray.put(np.sort(col["h"].to_numpy(dtype=np.int64)))

    def explode_hot(batch: pa.Table, _ref=ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        col_keys = _cached_lut(_ref)
        blobs = batch.column("sh").to_pylist()
        ids = np.arange(batch.num_rows)
        n_sh = batch.column("n_sh").to_numpy(zero_copy_only=False)
        pref_len = n_sh - np.ceil(threshold * n_sh).astype(np.int64) + 1
        o_h, o_row = [], []
        for r, (b_, L) in enumerate(zip(blobs, pref_len)):
            s_ = np.frombuffer(b_, dtype="<i8")[: max(int(L), 0)]
            hit = s_[np.isin(s_, col_keys)]
            o_h.append(hit)
            o_row.append(np.full(len(hit), r, dtype=np.int64))
        if not o_h:
            return pa.table(
                {
                    "h": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "sh": pa.array([], pa.binary()),
                    "n_sh": pa.array([], pa.int64()),
                }
            )
        rows = np.concatenate(o_row)
        idx = pa.array(rows, pa.int64())
        return pa.table(
            {
                "h": pa.array(np.concatenate(o_h), pa.int64()),
                "doc_id": batch.column("doc_id").take(idx),
                "sh": batch.column("sh").take(idx),
                "n_sh": batch.column("n_sh").take(idx),
            }
        )

    colliding = sets.map_batches(
        explode_hot, batch_format="pyarrow", zero_copy_batch=True
    )
    return sorted_run_map(
        colliding,
        key_cols=["h"],
        order_cols=["doc_id"],
        block_fn=functools.partial(
            _ppjoin_block_pairs, threshold=threshold, hub_sorted=hub_sorted
        ),
    )
