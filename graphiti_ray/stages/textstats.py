"""Text-analysis operators over the documents table (training-data prep).

- ``token_stats``       whitespace + BPE-ish regex token counts, char stats
- ``quality_scores``    length / stopword-ratio / punct-ratio heuristics
- ``language_id``       stopword-profile n-gram heuristic language guess
- ``fingerprints``      winnowing document fingerprint (rolling hash window
                        minima) for plagiarism-style containment detection
- ``repetition_stats``  Gopher-style within-doc repetition signals
                        (duplicate-line and top-2-gram mass, integer counts)
- ``duplicate_lines``   CCNet-style cross-doc duplicate-line detection
                        (line-hash shuffle → lines shared by ≥2 docs)

All stateless vectorized ``map_batches`` stages (regexes compiled once per
actor); token/quality outputs are oracle-checked against DuckDB SQL twins
(__ray_entry__), language-id and fingerprints are pytest-covered (their
SQL is not expressible).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray.data as rd

# BPE-ish tokenization: words, numbers, or single non-space symbols.
# RE2-compatible so the DuckDB oracle can run the same pattern.
TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

STOPWORDS = {
    "en": frozenset("the a an and of to in is are was were for with on at by".split()),
    "de": frozenset("der die das und von zu in ist sind für mit auf bei".split()),
    "fr": frozenset("le la les et de du dans est sont pour avec sur".split()),
    "es": frozenset("el la los las y de del en es son para con sobre".split()),
}

WINNOW_K = 5  # shingle size for fingerprints
WINNOW_W = 4  # window of consecutive shingle hashes; min per window kept


class TokenStats:
    """→ doc_id, n_ws_tokens (whitespace), n_tokens (regex), n_chars."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.rx = re.compile(TOKEN_RE)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "n_ws_tokens": pa.array(
                    [len(t.split()) for t in texts], pa.int64()
                ),
                "n_tokens": pa.array(
                    [len(self.rx.findall(t)) for t in texts], pa.int64()
                ),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        )


class QualityScores:
    """→ doc_id, n_chars, mean_word_len, stopword_ratio, punct_ratio,
    upper_ratio. Heuristic quality features (C4/Gopher-style filters)."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.punct = re.compile(r"[^\w\s]")
        self.stop = STOPWORDS["en"]
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        mwl, sr, pr, ur = [], [], [], []
        for t in texts:
            words = t.split()
            n = max(1, len(words))
            mwl.append(round(sum(len(w) for w in words) / n, 6))
            sr.append(round(sum(1 for w in words if w.lower() in self.stop) / n, 6))
            nc = max(1, len(t))
            pr.append(round(len(self.punct.findall(t)) / nc, 6))
            ur.append(round(sum(1 for c in t if c.isupper()) / nc, 6))
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "mean_word_len": pa.array(mwl, pa.float64()),
                "stopword_ratio": pa.array(sr, pa.float64()),
                "punct_ratio": pa.array(pr, pa.float64()),
                "upper_ratio": pa.array(ur, pa.float64()),
            }
        )


class QualityCounts:
    """Integer-count variant of QualityScores for exact oracle comparison
    (float ratios are hash-hostile across engines): doc_id, n_chars,
    n_words, n_word_chars, n_stopwords, n_punct, n_upper."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.punct = re.compile(r"[^\w\s]")
        self.stop = STOPWORDS["en"]
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        nw, nwc, ns, np_, nu = [], [], [], [], []
        for t in texts:
            words = t.split()
            nw.append(len(words))
            nwc.append(sum(len(w) for w in words))
            ns.append(sum(1 for w in words if w.lower() in self.stop))
            np_.append(len(self.punct.findall(t)))
            nu.append(sum(1 for c in t if c.isupper()))
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "n_words": pa.array(nw, pa.int64()),
                "n_word_chars": pa.array(nwc, pa.int64()),
                "n_stopwords": pa.array(ns, pa.int64()),
                "n_punct": pa.array(np_, pa.int64()),
                "n_upper": pa.array(nu, pa.int64()),
            }
        )


class LanguageId:
    """→ doc_id, lang_pred, lang_hits, n_words: argmax stopword-hit-count
    across language profiles ('und' if no profile hits; ties break to the
    first profile in sorted order). Integer counts instead of a float
    hit-rate so the DuckDB oracle twin hashes identically (the rate shares
    one denominator per doc, so the argmax is unchanged)."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.profiles = STOPWORDS
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        langs, hits, n_words = [], [], []
        for t in texts:
            words = [w.lower() for w in t.split()]
            best_lang, best = "und", 0
            for lang in sorted(self.profiles):
                h = sum(1 for w in words if w in self.profiles[lang])
                if h > best:
                    best_lang, best = lang, h
            langs.append(best_lang)
            hits.append(best)
            n_words.append(len(words))
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "lang_pred": pa.array(langs, pa.string()),
                "lang_hits": pa.array(hits, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
            }
        )


def winnow_fingerprint(text: str, k: int = WINNOW_K, w: int = WINNOW_W) -> list[int]:
    """Winnowing (Schleimer et al.): min shingle-hash per sliding window,
    adjacent-deduped in order — a compact position-robust document
    fingerprint. Fully vectorized: the positional polynomial shingle
    hashes (``dedup.shingle_hash_seq`` — the same kernel MinHash uses, so
    the DuckDB oracle replicates it with the same hugeint arithmetic),
    a stride-view sliding min, and a change-mask dedup; the former
    per-shingle ``zlib.crc32`` + per-window Python loop is gone."""
    from graphiti_ray.stages.dedup import shingle_hash_seq

    hashes = shingle_hash_seq(text, k)
    if len(hashes) <= w:
        return [int(hashes.min())]
    wins = np.lib.stride_tricks.sliding_window_view(hashes, w).min(axis=1)
    keep = np.ones(len(wins), dtype=bool)
    keep[1:] = wins[1:] != wins[:-1]
    return wins[keep].tolist()


class Fingerprints:
    """→ doc_id, fp (list<int64>), fp_size."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        fps = [winnow_fingerprint(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "fp": pa.array(fps, pa.list_(pa.int64())),
                "fp_size": pa.array([len(f) for f in fps], pa.int64()),
            }
        )


class RepetitionStats:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1), integer
    counts so the DuckDB twin hashes identically: → doc_id, n_lines,
    n_dup_lines (occurrences of any line repeated within the doc),
    n_dup_line_chars (their character mass), top_2gram_count (occurrences
    of the most frequent lowercase word 2-gram), n_2grams."""

    def __init__(self, text_col="text", id_col="doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        texts = batch.column(self.text_col).to_pylist()
        nl, ndl, ndlc, tg, ng = [], [], [], [], []
        for t in texts:
            lines = t.split("\n")
            lc = Counter(lines)
            nl.append(len(lines))
            ndl.append(sum(c for c in lc.values() if c >= 2))
            ndlc.append(sum(c * len(ln) for ln, c in lc.items() if c >= 2))
            ws = t.lower().split()
            grams = Counter(
                f"{a} {b}" for a, b in zip(ws, ws[1:])
            )
            tg.append(max(grams.values()) if grams else 0)
            ng.append(max(0, len(ws) - 1))
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "n_lines": pa.array(nl, pa.int64()),
                "n_dup_lines": pa.array(ndl, pa.int64()),
                "n_dup_line_chars": pa.array(ndlc, pa.int64()),
                "top_2gram_count": pa.array(tg, pa.int64()),
                "n_2grams": pa.array(ng, pa.int64()),
            }
        )


def duplicate_lines(
    docs: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """Cross-doc duplicate-line detection (CCNet-shape): every doc's lines
    hash per batch (narrow md5/line rows; the text itself never shuffles),
    then one keyed aggregate finds lines appearing in ≥2 distinct docs.
    Output: (line_hash, n_docs, keep_doc) — keep_doc = min doc id, the
    canonical holder; downstream removal is an anti-join on
    (doc, line_hash) minus the keepers. Scale shape matches
    exact_dedup_documents: hash-partitioned, no all-pairs."""
    import hashlib

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, hashes = [], []
        ids = batch.column(id_col).to_pylist()
        for i, t in zip(ids, batch.column(text_col).to_pylist()):
            # distinct lines per doc so n_docs counts documents, not lines
            for ln in set(t.split("\n")):
                ids_out.append(i)
                hashes.append(hashlib.md5(ln.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "line_hash": pa.array(hashes, pa.string()),
                id_col: pa.array(ids_out, pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Min

    out = (
        docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("line_hash")
        .aggregate(Count(alias_name="n_docs"), Min(id_col, alias_name="keep_doc"))
        .filter(expr="n_docs >= 2")
    )
    # pin the schema so a 0-dup corpus still yields typed empty blocks
    from graphiti_ray.stages.graph import ensure_schema

    return ensure_schema(
        out,
        pa.schema(
            [
                ("line_hash", pa.string()),
                ("n_docs", pa.int64()),
                ("keep_doc", pa.int64()),
            ]
        ),
    )


# PII patterns kept to the RE2-compatible subset (no lookaround, no
# backreferences) so the DuckDB oracle applies the IDENTICAL regexes
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\+\d{7,15}"


class RedactPII:
    """→ doc_id, clean_text, n_emails, n_ips, n_phones. Sequential
    redaction (email → ipv4 → phone, each counted on the text as it
    stands when its pass runs) with compiled patterns held per actor."""

    def __init__(self, text_col="text", id_col="doc_id"):
        # re.ASCII: DuckDB's RE2 \d and \b are ASCII-only — without the
        # flag Python's Unicode-aware \d would match e.g. Arabic-Indic
        # digits that the oracle's identical pattern would not
        self.passes = [
            (re.compile(PII_EMAIL, re.ASCII), "<EMAIL>"),
            (re.compile(PII_IPV4, re.ASCII), "<IP>"),
            (re.compile(PII_PHONE, re.ASCII), "<PHONE>"),
        ]
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        counts = [[], [], []]
        out = []
        for t in texts:
            for i, (rx, token) in enumerate(self.passes):
                t, n = rx.subn(token, t)
                counts[i].append(n)
            out.append(t)
        return pa.table(
            {
                "doc_id": batch.column(self.id_col),
                "clean_text": pa.array(out, pa.string()),
                "n_emails": pa.array(counts[0], pa.int64()),
                "n_ips": pa.array(counts[1], pa.int64()),
                "n_phones": pa.array(counts[2], pa.int64()),
            }
        )


def redact_pii(docs, **kw):
    return _stage(RedactPII, docs, **kw)


CHUNK_SIZE = 512  # characters per training chunk
CHUNK_OVERLAP = 64  # characters shared between consecutive chunks


def chunk_text_windows(
    text: str, size: int = CHUNK_SIZE, overlap: int = CHUNK_OVERLAP
) -> list[str]:
    """Pure chunking kernel: fixed windows of ``size`` chars starting
    every ``size - overlap`` chars; an empty text still yields its one
    empty chunk. Grid starts stop at ``len - overlap`` so a tail that is
    PURE overlap (fully contained in the previous window) is never
    emitted as a duplicated training chunk. Invariants (property-
    tested): chunk[0] + the overlap-stripped tails reconstructs the text
    byte-for-byte, and no chunk is a suffix-subset of its predecessor."""
    assert 0 <= overlap < size
    step = size - overlap
    n = len(text)
    return [text[s : s + size] for s in range(0, max(n - overlap, 1), step)]


def chunk_documents(
    docs: rd.Dataset,
    size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Training-window chunking: each doc fans out into fixed character
    windows (``chunk_text_windows``) — the flat-map shape of LLM-training
    data prep. Output: (doc_id, chunk_idx, chunk_text, n_chars). The
    start grid is pure arithmetic, so a SQL twin reproduces it with
    range() + substr."""
    assert 0 <= overlap < size

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        o_id, o_ix, o_tx = [], [], []
        for d, t in zip(ids, texts):
            for ix, c in enumerate(chunk_text_windows(t, size, overlap)):
                o_id.append(d)
                o_ix.append(ix)
                o_tx.append(c)
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "chunk_idx": pa.array(o_ix, pa.int64()),
                "chunk_text": pa.array(o_tx, pa.string()),
                "n_chars": pa.array([len(t) for t in o_tx], pa.int64()),
            }
        )

    return docs.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )


def _stage(cls, docs: rd.Dataset, text_col="text", id_col="doc_id") -> rd.Dataset:
    return docs.map_batches(
        cls,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    )


def token_stats(docs, **kw):
    return _stage(TokenStats, docs, **kw)


def quality_scores(docs, **kw):
    return _stage(QualityScores, docs, **kw)


def quality_counts(docs, **kw):
    return _stage(QualityCounts, docs, **kw)


def language_id(docs, **kw):
    return _stage(LanguageId, docs, **kw)


def fingerprints(docs, **kw):
    return _stage(Fingerprints, docs, **kw)


def repetition_stats(docs, **kw):
    return _stage(RepetitionStats, docs, **kw)


# --- TF-IDF keyword extraction -----------------------------------------------

TFIDF_TOP_K = 3


def tfidf_keywords(
    docs: rd.Dataset,
    top_k: int = TFIDF_TOP_K,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-document TF-IDF keyword extraction: the ``top_k`` terms of each
    doc by ``round(tf * ln(N / df), 6)``, ties broken by term — the
    corpus-keyword operator a search/labeling pipeline wants next to BM25
    (reference analogue: the fulltext query path, search_utils.py's BM25
    family; this is its document-side dual).

    Fully distributed at every step — no vocabulary broadcast and no
    driver dict: term df comes from
    :func:`~graphiti_ray.stages.ops.annotate_run_lengths` (one term-sorted
    pass; rows are per-doc-distinct so the run length IS the df), the
    per-doc top-k from one ``sorted_run_map`` over (doc_id, -score) runs.
    Scores are rounded to 1e-6 BEFORE ranking on both the engine and the
    SQL twin, so the ordering never hinges on sub-ulp libm agreement.

    Output: (doc_id, rank, term, score), rank 1-based.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import annotate_run_lengths, sorted_run_map

    n_docs = float(docs.count())

    def explode_tf(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        ids = pd.Series(batch.column(id_col).to_pylist())
        toks = texts.str.lower().str.findall(r"\w+")
        ex = toks.explode().dropna()
        if not len(ex):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        tf = (
            pd.DataFrame({"d": ids.iloc[ex.index].to_numpy(), "t": ex.to_numpy()})
            .groupby(["d", "t"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        return pa.table(
            {
                "doc_id": pa.array(tf["d"].to_numpy(), pa.int64()),
                "term": pa.array(tf["t"].to_numpy(), pa.string()),
                "tf": pa.array(tf["tf"].to_numpy(), pa.int64()),
            }
        )

    tf_rows = docs.map_batches(explode_tf, batch_format="pyarrow", zero_copy_batch=True)
    with_df = annotate_run_lengths(tf_rows, ["term"], out_col="df")

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        df = batch.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        s = np.round(tf * np.log(n_docs / df), 6)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "term": batch.column("term"),
                "score": pa.array(s, pa.float64()),
                "neg_score": pa.array(-s, pa.float64()),
            }
        )

    scored = with_df.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)

    def top_block(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        if tbl.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            )
        starts = _table_run_starts(tbl, ["doc_id"])
        firsts, lens = starts[:-1], np.diff(starts)
        take_n = np.minimum(lens, top_k)
        idx = np.repeat(firsts, take_n) + (
            np.arange(int(take_n.sum()))
            - np.repeat(np.concatenate([[0], np.cumsum(take_n)[:-1]]), take_n)
        )
        rank = (
            np.arange(int(take_n.sum()))
            - np.repeat(np.concatenate([[0], np.cumsum(take_n)[:-1]]), take_n)
            + 1
        )
        out = tbl.take(pa.array(idx, pa.int64()))
        return pa.table(
            {
                "doc_id": out.column("doc_id"),
                "rank": pa.array(rank, pa.int64()),
                "term": out.column("term"),
                "score": out.column("score"),
            }
        )

    return sorted_run_map(
        scored,
        key_cols=["doc_id"],
        order_cols=["neg_score", "term"],
        block_fn=top_block,
    )


# --- bigram language-model quality scoring (CCNet-style) --------------------


def bigram_lm_scores(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """CCNet-style LM quality scoring (Wenzek et al. 2019,
    arXiv:1911.00359): score every document by the average log-probability
    of its token bigrams under a Laplace-smoothed bigram model trained on
    THE CORPUS ITSELF — the standard self-supervised quality signal when
    no external KenLM is available.  p(w2|w1) = (c(w1,w2) + 1) /
    (c(w1·) + V), with c(w1·) the count of w1 as a bigram context and V
    the corpus vocabulary size.

    Fully distributed: the bigram stream is counted by TWO
    :func:`~graphiti_ray.stages.ops.annotate_run_lengths` passes — (w1,w2)
    then its prefix (w1) — each one range sort + an O(num_blocks) boundary
    exchange, never a groupby+join-back; V comes from a distinct pass over
    per-block-deduped tokens.  No model table is ever driver-resident or
    broadcast: counts ride ON the occurrence rows.

    Determinism across engines: per-bigram log-probs are quantized to an
    integer 1e-6 lattice (lp6 = round(ln(p)·1e6)) BEFORE the per-doc sum,
    so the reduction is exact int64 addition — no float-associativity
    hazard between Ray's hash aggregation order and SQL's.  avg_logp is
    the rounded quotient of exact integers.

    Output: (doc_id, n_bigrams, sum_lp6, avg_logp) — docs with fewer than
    two tokens emit nothing (no bigrams, no score).

    Reference analogue: episode quality heuristics feeding extraction
    (graphiti_core prompts filter junk text ad hoc); this is the
    corpus-scale scoring operator a training-data pipeline gates on.
    """
    import pandas as pd

    from graphiti_ray.stages.ops import annotate_run_lengths, distinct_by_key

    def explode_bi(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        toks = texts.str.lower().str.findall(r"\w+")
        lens = toks.str.len().to_numpy()
        n_bi = np.maximum(lens - 1, 0)
        doc_rep = np.repeat(ids, n_bi)
        w1: list[str] = []
        w2: list[str] = []
        for t, m in zip(toks, n_bi):
            if m:
                w1.extend(t[:-1])
                w2.extend(t[1:])
        return pa.table(
            {
                "doc_id": pa.array(doc_rep, pa.int64()),
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
            }
        )

    bi = docs.map_batches(explode_bi, batch_format="pyarrow", zero_copy_batch=True)

    def explode_tokens_distinct(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        uniq = list({t for lst in toks for t in lst})
        return pa.table({"t": pa.array(uniq, pa.string())})

    vocab = int(
        distinct_by_key(
            docs.map_batches(
                explode_tokens_distinct, batch_format="pyarrow", zero_copy_batch=True
            ),
            "t",
        ).count()
    )

    with_c2 = annotate_run_lengths(bi, ["w1", "w2"], out_col="c2")
    with_c1 = annotate_run_lengths(with_c2, ["w1"], out_col="c1")

    def score(batch: pa.Table) -> pa.Table:
        c2 = batch.column("c2").to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False).astype(np.float64)
        lp6 = np.rint(np.log((c2 + 1.0) / (c1 + vocab)) * 1e6).astype(np.int64)
        # per-block partial (combiner) so the global reduce is doc-count-sized
        df = pd.DataFrame(
            {"doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False), "lp6": lp6}
        )
        g = df.groupby("doc_id", sort=False)["lp6"].agg(["count", "sum"]).reset_index()
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                "n": pa.array(g["count"].to_numpy(), pa.int64()),
                "s": pa.array(g["sum"].to_numpy(), pa.int64()),
            }
        )

    partial = with_c1.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    reduced = partial.groupby("doc_id").sum(["n", "s"])

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("sum(s)").to_numpy(zero_copy_only=False).astype(np.int64)
        # round-half-away-from-zero of s/n in EXACT integer arithmetic:
        # s/n can land exactly on a .5 lattice point (it's a ratio of
        # ints), where float round() rules diverge between engines
        q = (2 * np.abs(s) + n) // (2 * n)
        avg = np.where(s < 0, -q, q).astype(np.float64) / 1e6
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bigrams": pa.array(n, pa.int64()),
                "sum_lp6": pa.array(s, pa.int64()),
                "avg_logp": pa.array(avg, pa.float64()),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# --- DSIR importance weights (data-mixing / importance resampling) ----------


def dsir_importance_weights(
    docs: rd.Dataset,
    target_col: str = "lang",
    target_value: str = "en",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """DSIR-style importance weights (Xie et al. 2023, arXiv:2302.03169):
    score every document by how much more likely its tokens are under the
    TARGET domain's unigram distribution than under the raw corpus's —
    the importance-resampling signal used to up-sample target-like data
    into a training mix.  Both distributions are Laplace-smoothed over the
    shared vocabulary; the target set is the rows where ``target_col ==
    target_value`` (DSIR's hashed-n-gram features reduce to plain
    unigrams at this vocabulary size — documented substitution).

    log w(doc) = Σ_tokens [ ln p_target(t) − ln p_raw(t) ],
    p_target(t) = (c_t(t)+1)/(N_t+V),  p_raw(t) = (c_r(t)+1)/(N_r+V).

    Distribution counts ride ON the occurrence rows via two
    :func:`~graphiti_ray.stages.ops.annotate_run_lengths` passes —
    (token, is_target) then its prefix (token) — so c_t for a non-target
    row is ``c_r − c_group``; no count table is ever built, joined or
    broadcast.  Per-token log-ratios are quantized to an int 1e-6 lattice
    before the per-doc sum (exact int64 reduction, no float-associativity
    hazard), and the average uses exact-integer half-away-from-zero
    rounding like :func:`bigram_lm_scores`.

    Output: (doc_id, n_tokens, sum_liw6, avg_liw) — token-less docs emit
    nothing.
    """
    import pandas as pd

    from graphiti_ray.stages.ops import annotate_run_lengths, distinct_by_key

    def explode_occ(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        tgt = np.asarray(
            [v == target_value for v in batch.column(target_col).to_pylist()],
            dtype=bool,
        )
        toks = texts.str.lower().str.findall(r"\w+")
        lens = toks.str.len().to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, lens), pa.int64()),
                "tgt": pa.array(np.repeat(tgt, lens), pa.bool_()),
                "t": pa.array(
                    [w for lst in toks for w in lst], pa.string()
                ),
            }
        )

    occ = docs.map_batches(explode_occ, batch_format="pyarrow", zero_copy_batch=True)

    def distinct_tokens(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        return pa.table({"t": pa.array(list({w for lst in toks for w in lst}))})

    vocab = int(
        distinct_by_key(
            docs.map_batches(
                distinct_tokens, batch_format="pyarrow", zero_copy_batch=True
            ),
            "t",
        ).count()
    )
    import pyarrow.compute as pc

    n_raw = int(occ.count())
    n_tgt = int(
        occ.map_batches(
            lambda t: pa.table({"n": pa.array([pc.sum(pc.cast(t.column("tgt"), pa.int64())).as_py() or 0])}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).sum("n")
    )

    with_cg = annotate_run_lengths(occ, ["t", "tgt"], out_col="cg")
    with_cr = annotate_run_lengths(with_cg, ["t"], out_col="cr")

    def score(batch: pa.Table) -> pa.Table:
        cg = batch.column("cg").to_numpy(zero_copy_only=False).astype(np.float64)
        cr = batch.column("cr").to_numpy(zero_copy_only=False).astype(np.float64)
        tgt = batch.column("tgt").to_numpy(zero_copy_only=False)
        ct = np.where(tgt, cg, cr - cg)
        liw6 = np.rint(
            (
                np.log((ct + 1.0) / (n_tgt + vocab))
                - np.log((cr + 1.0) / (n_raw + vocab))
            )
            * 1e6
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False),
                "liw6": liw6,
            }
        )
        g = df.groupby("doc_id", sort=False)["liw6"].agg(["count", "sum"]).reset_index()
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                "n": pa.array(g["count"].to_numpy(), pa.int64()),
                "s": pa.array(g["sum"].to_numpy(), pa.int64()),
            }
        )

    partial = with_cr.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    reduced = partial.groupby("doc_id").sum(["n", "s"])

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("sum(s)").to_numpy(zero_copy_only=False).astype(np.int64)
        q = (2 * np.abs(s) + n) // (2 * n)
        avg = np.where(s < 0, -q, q).astype(np.float64) / 1e6
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n, pa.int64()),
                "sum_liw6": pa.array(s, pa.int64()),
                "avg_liw": pa.array(avg, pa.float64()),
            }
        )

    return reduced.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# --- PMI collocation mining --------------------------------------------------


def pmi_collocations(
    docs: rd.Dataset,
    top_k: int = 50,
    min_count: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Corpus-level collocation mining: the ``top_k`` adjacent token pairs
    by pointwise mutual information, support-gated at ``min_count`` —
    the classic phrase-discovery pass (Mikolov et al. 2013 build word2vec
    phrases this way) a tokenizer/vocab pipeline runs before training.

    pmi(w1,w2) = ln( c(w1,w2) · N / (c(w1,·) · c(·,w2)) ) over the
    corpus bigram stream of N occurrences.

    Distributed shape: per-block partial bigram counts (combiner) → ONE
    corpus-scale ``groupby(w1,w2).sum`` to the type table; the marginals
    are two groupbys OVER THE TYPE TABLE (types ≪ occurrences) joined
    back with hash joins; the support filter runs BEFORE the global
    sort+limit so only gated candidates shuffle.  PMI is quantized to an
    int 1e-6 lattice before ranking (ties → (w1, w2) order) — the same
    cross-engine determinism rule as TF-IDF.

    Returns a small pandas DataFrame (rank, w1, w2, n_pair, pmi) — the
    result is top_k rows by construction, the one legitimately
    driver-sized output in this family.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    def explode_pairs(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        w1: list[str] = []
        w2: list[str] = []
        for t in toks:
            if len(t) > 1:
                w1.extend(t[:-1])
                w2.extend(t[1:])
        tbl = pa.table(
            {"w1": pa.array(w1, pa.string()), "w2": pa.array(w2, pa.string())}
        )
        # combiner: collapse within-block duplicates before the shuffle
        return tbl.group_by(["w1", "w2"]).aggregate([([], "count_all")]).rename_columns(
            ["w1", "w2", "c"]
        )

    partial = docs.map_batches(
        explode_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    types = partial.groupby(["w1", "w2"]).sum("c")  # → w1, w2, sum(c)
    types = types.map_batches(
        lambda t: t.rename_columns(["w1", "w2", "n_pair"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    n_total = int(types.sum("n_pair"))
    left_marg = types.groupby("w1").sum("n_pair").map_batches(
        lambda t: t.rename_columns(["w1", "n_left"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    right_marg = types.groupby("w2").sum("n_pair").map_batches(
        lambda t: t.rename_columns(["w2", "n_right"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    gated = types.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n_pair"), min_count)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nparts = default_join_partitions()
    joined = safe_join(
        safe_join(
            gated, left_marg, join_type="inner", num_partitions=nparts, on=("w1",)
        ),
        right_marg,
        join_type="inner",
        num_partitions=nparts,
        on=("w2",),
    )

    def score(batch: pa.Table) -> pa.Table:
        c = batch.column("n_pair").to_numpy(zero_copy_only=False).astype(np.float64)
        a = batch.column("n_left").to_numpy(zero_copy_only=False).astype(np.float64)
        b = batch.column("n_right").to_numpy(zero_copy_only=False).astype(np.float64)
        pmi6 = np.rint(np.log(c * float(n_total) / (a * b)) * 1e6).astype(np.int64)
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n_pair": batch.column("n_pair"),
                "pmi6": pa.array(pmi6, pa.int64()),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    top = (
        scored.sort(["pmi6", "w1", "w2"], descending=[True, False, False])
        .limit(top_k)
        .to_pandas()
    )
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["pmi"] = top.pop("pmi6").astype(np.float64) / 1e6
    return top[["rank", "w1", "w2", "n_pair", "pmi"]]


def fixed_histogram(
    ds: rd.Dataset,
    value_col: str,
    lo: int,
    hi: int,
    n_bins: int,
    by: str | None = None,
) -> rd.Dataset:
    """Equi-width histogram with EXACT integer binning — the profiling
    staple. bin = (v − lo)·n_bins // (hi − lo) for integer v, clamped to
    −1 (underflow) / n_bins (overflow), so the SQL twin is pure integer
    division with no float boundary cases. Per-batch ``np.unique`` count
    partials → one keyed sum over ≤ |groups|·(n_bins+2) rows — the
    combiner-then-tiny-reduce shape, never a row-per-value shuffle.

    Output: (bin, n) or (by, bin, n)."""
    import numpy as np

    from ray.data.aggregate import Sum

    width = hi - lo
    assert width > 0 and n_bins > 0

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = (v - lo) * n_bins // width
        b = np.where(v < lo, -1, np.where(v >= hi, n_bins, b)).astype(np.int64)
        if by is None:
            ub, cnt = np.unique(b, return_counts=True)
            return pa.table(
                {"bin": pa.array(ub, pa.int64()), "p_n": pa.array(cnt, pa.int64())}
            )
        g = np.asarray(batch.column(by).to_pylist(), dtype=object)
        ug, gidx = np.unique(g, return_inverse=True)
        key = gidx * (n_bins + 2) + (b + 1)
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                by: pa.array(ug[uk // (n_bins + 2)].tolist(), pa.string()),
                "bin": pa.array(uk % (n_bins + 2) - 1, pa.int64()),
                "p_n": pa.array(cnt, pa.int64()),
            }
        )

    keys = ["bin"] if by is None else [by, "bin"]
    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys if len(keys) > 1 else keys[0])
        .aggregate(Sum("p_n", alias_name="n"))
    )


def basket_pairs(
    events: rd.Dataset,
    min_support: int = 2,
    key_col: str = "user_id",
    type_col: str = "event_type",
) -> rd.Dataset:
    """Level-2 frequent itemset mining (the Apriori pair census /
    'co-visit' statistic of recommender pipelines): each key's DISTINCT
    item set is a basket; a pair (a < b) is supported by every basket
    containing both. Emits the exact support counts a lift/confidence
    computation needs — all integers, floats stay derived.

    Scale shape: one distinct pass over (key, item) (sort + adjacent
    dedup), then per-key pair partials pre-counted per block
    (``sorted_run_map`` — baskets are item-vocabulary-bounded, so the
    pair fan-out per key is bounded) → one |items|²-keyed sum; per-item
    counts ride the same distinct pass and re-attach from a broadcast
    vocabulary-sized map.

    Output: (type_a, type_b, n_ab, n_a, n_b, n_keys) for n_ab ≥
    min_support.
    """
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count, Sum

    from graphiti_ray.stages.link import _cached_lut
    from graphiti_ray.stages.ops import distinct_by_key, sorted_run_map

    def keyed(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t.column(key_col), pa.string()),
            pc.cast(t.column(type_col), pa.string()),
            "\x00",
        )
        return pa.table(
            {
                "k": k,
                key_col: t.column(key_col),
                type_col: t.column(type_col),
            }
        )

    ut = distinct_by_key(
        events.select_columns([key_col, type_col]).map_batches(
            keyed, batch_format="pyarrow", zero_copy_batch=True
        ),
        "k",
    ).materialize()

    item_counts = {
        r[type_col]: int(r["n"])
        for r in ut.groupby(type_col).aggregate(Count(alias_name="n")).take_all()
    }
    n_keys = int(
        ut.groupby(key_col)
        .aggregate(Count(alias_name="c"))
        .count()
    )
    cref = ray.put((item_counts, n_keys))

    def pair_kernel(tbl: pa.Table) -> pa.Table:
        from graphiti_ray.stages.ops import _table_run_starts

        empty = pa.table(
            {
                "type_a": pa.array([], pa.string()),
                "type_b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        starts = _table_run_starts(tbl, [key_col])
        types = tbl.column(type_col).to_pylist()
        from collections import Counter

        cnt: Counter = Counter()
        for s, e in zip(starts[:-1], starts[1:]):
            basket = sorted(types[s:e])
            for i in range(len(basket)):
                for j in range(i + 1, len(basket)):
                    cnt[(basket[i], basket[j])] += 1
        if not cnt:
            return empty
        return pa.table(
            {
                "type_a": pa.array([k[0] for k in cnt], pa.string()),
                "type_b": pa.array([k[1] for k in cnt], pa.string()),
                "n": pa.array(list(cnt.values()), pa.int64()),
            }
        )

    pairs = (
        sorted_run_map(
            ut, key_cols=[key_col], order_cols=[type_col], block_fn=pair_kernel
        )
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n", alias_name="n_ab"))
    )

    def finish(t: pa.Table, _ref=cref) -> pa.Table:
        ic, nk = _cached_lut(_ref)
        ta = t.column("type_a").to_pylist()
        tb = t.column("type_b").to_pylist()
        nab = pc.cast(t.column("n_ab"), pa.int64())
        out = pa.table(
            {
                "type_a": t.column("type_a"),
                "type_b": t.column("type_b"),
                "n_ab": nab,
                "n_a": pa.array([ic[a] for a in ta], pa.int64()),
                "n_b": pa.array([ic[b] for b in tb], pa.int64()),
                "n_keys": pa.array([nk] * len(ta), pa.int64()),
            }
        )
        return out.filter(pc.greater_equal(out.column("n_ab"), min_support))

    return pairs.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)



def top_tokens_by_group(
    docs: rd.Dataset,
    k: int = 5,
    group_col: str = "lang",
    text_col: str = "text",
) -> rd.Dataset:
    """Exact per-group heavy hitters: the k most frequent tokens per
    group with deterministic ties (count desc, token asc) — the exact
    twin of the CMS sketch's approximate answer. Combiner shape: each
    batch collapses to its distinct (group, token) partial counts
    BEFORE the keyed shuffle, the global sum runs over vocabulary-sized
    keys, and the final top-k is ``ops.top_k_per_group`` (one range
    sort, head-k per complete run — hub groups cost nothing extra).

    Output: (group, token, n, rank)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.ops import top_k_per_group

    ws = re.compile(r"\s+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        gs, ts = [], []
        for g, t in zip(
            batch.column(group_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            for tok in ws.split(t or ""):
                if tok:
                    gs.append(g)
                    ts.append(tok)
        df = pd.DataFrame({group_col: gs, "token": ts})
        out = (
            df.groupby([group_col, "token"], sort=False)
            .size()
            .reset_index(name="p_n")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, "token"])
        .aggregate(Sum("p_n", alias_name="n"))
    )

    def neg(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column("neg_n", pc.negate(batch.column("n")))

    ranked = top_k_per_group(
        counts.map_batches(neg, batch_format="pyarrow", zero_copy_batch=True),
        keys=[group_col],
        order_cols=["neg_n", "token"],
        k=k,
    )
    return ranked.drop_columns(["neg_n"])


def token_entropy(
    docs: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """Per-doc Shannon entropy of the token distribution — the classic
    repetitiveness/quality signal (low entropy → template or babble) —
    on the repo's 1e-6 log lattice with the DIVISION CLEARED: each term
    c·ln(c) is individually quantized to rint(c·ln(c)·1e6), so

        hn_e6 = rint(n·ln(n)·1e6) − Σ_tok rint(c·ln(c)·1e6)

    is exact int64 addition (H = hn_e6 / (n·1e6) derived). One streaming
    pass, per-doc Counter inside the batch, no shuffle.

    Output: (id, n_tokens, hn_e6)."""
    from collections import Counter

    ws = re.compile(r"\s+", re.ASCII)

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        o_n, o_h = [], []
        for t in batch.column(text_col).to_pylist():
            toks = [x for x in ws.split(t or "") if x]
            n = len(toks)
            if n == 0:
                o_n.append(0)
                o_h.append(0)
                continue
            c = np.fromiter(Counter(toks).values(), dtype=np.float64)
            term = np.rint(c * np.log(c) * 1e6).astype(np.int64)
            hn = int(np.rint(n * np.log(n) * 1e6)) - int(term.sum())
            o_n.append(n)
            o_h.append(hn)
        return pa.table(
            {
                id_col: ids,
                "n_tokens": pa.array(o_n, pa.int64()),
                "hn_e6": pa.array(o_h, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def bpe_pair_stats(
    docs: rd.Dataset,
    text_col: str = "text",
    top_n: int = 200,
) -> rd.Dataset:
    """First-iteration BPE merge statistics over the corpus: count every
    ADJACENT CHARACTER PAIR inside ASCII word tokens (``[0-9A-Za-z_]+`` on
    the lowercased text — the repo's RE2-parity tokenization), the
    frequency table a byte/char-level BPE trainer computes before its
    first merge (Sennrich et al. 2016). Output: top ``top_n`` pairs by
    (count desc, pair asc) as (pair:string, n:int64).

    Kernel: tokens of a batch are joined with a NUL separator and viewed
    as a fixed-width UTF-32 codepoint array; adjacent pairs are a shifted
    zip packed into one uint64 (hi<<32|lo), counted per batch with
    ``np.unique`` — a per-batch combiner, so the global groupby shuffles
    pre-summed (pair_key, n) partials, never raw pairs. Decode back to
    2-char strings only for the final ``top_n`` rows."""
    import re as _re

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    tok_re = _re.compile(r"\w+", _re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(batch.column(text_col)).to_pylist()
        toks: list[str] = []
        for t in texts:
            toks.extend(tok_re.findall(t or ""))
        joined = "\x00".join(toks)
        if len(joined) < 2:
            return pa.table(
                {"pk": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())}
            )
        codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        a, b = codes[:-1].astype(np.uint64), codes[1:].astype(np.uint64)
        mask = (a != 0) & (b != 0)
        keys = (a[mask] << np.uint64(32)) | b[mask]
        uniq, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "pk": pa.array(uniq, pa.uint64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .aggregate(Sum("n", alias_name="n"))
    )

    def decode(batch: pa.Table) -> pa.Table:
        pk = batch.column("pk").to_numpy(zero_copy_only=False).astype(np.uint64)
        pairs = [chr(int(k) >> 32) + chr(int(k) & 0xFFFFFFFF) for k in pk]
        return pa.table(
            {
                "pair": pa.array(pairs, pa.string()),
                "n": pc.cast(batch.column("n"), pa.int64()),
            }
        )

    return (
        agg.sort(["n", "pk"], descending=[True, False])
        .limit(top_n)
        .map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)
    )


# --- blocklist (badword-ratio) gate ------------------------------------------

# Default blocklist for the synthetic corpus: words that actually occur in
# the generated vocabulary so the gate is non-vacuous at every sf.
BLOCKLIST_DEFAULT: tuple[str, ...] = ("slow", "stale", "legacy")

# keep iff n_bad * BLOCKLIST_DEN <= n_words  (ratio <= 1/DEN = 5%)
BLOCKLIST_DEN = 20


def blocklist_gate(
    docs: rd.Dataset,
    patterns: tuple[str, ...] = BLOCKLIST_DEFAULT,
    den: int = BLOCKLIST_DEN,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """C4-style blocklist gate (Raffel et al. 2020 §2.2 'bad words'
    filter, RefinedWeb/Gopher use the ratio variant): drop documents
    whose blocklisted-term density exceeds 1/``den`` of the whitespace
    token count. Reference analogue: the corpus-gating family around
    graphiti's ingest filters (utils/text_utils.py) — here generalized
    to the standard training-data blocklist shape.

    Kernel: ONE vectorized pass — ``pc.count_substring_regex`` with a
    single RE2 alternation ``\\b(w1|w2|...)\\b`` (compiled once inside
    Arrow, no per-row Python), token counts off the same batch, integer
    ratio test ``n_bad * den <= n_words`` (no float). The pattern list is
    a constant broadcast in the closure — at 100 TB this is a pure
    streaming map, no shuffle.

    Output: (id, n_bad, n_words) for KEPT documents only.
    """
    import pyarrow.compute as pc

    pat = r"\b(" + "|".join(patterns) + r")\b"

    def gate(batch: pa.Table, _pat=pat, _den=den) -> pa.Table:
        text = batch.column(text_col)
        n_bad = pc.cast(pc.count_substring_regex(text, _pat), pa.int64())
        n_words = pc.cast(
            pc.list_value_length(pc.split_pattern_regex(text, r"\s+")), pa.int64()
        )
        keep = pc.less_equal(pc.multiply(n_bad, _den), n_words)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bad": n_bad,
                "n_words": n_words,
            }
        ).filter(keep)

    return docs.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


# --- multinomial Naive Bayes language classifier ------------------------------

NB_TEST_MOD = 5  # doc_id % NB_TEST_MOD == 0 → test split, else train
NB_LN_SCALE = 1_000_000  # the repo's 1e-6 ln lattice (token_entropy convention)


def naive_bayes_lang(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    label_col: str = "lang",
    test_mod: int = NB_TEST_MOD,
    vocab_broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Multinomial Naive Bayes with Laplace smoothing (the fastText-shape
    linear text classifier; McCallum & Nigam 1998) trained distributed
    and applied streaming — the quality/language-classification stage a
    training-data pipeline runs corpus-wide. Reference analogue: the
    model-scoring seam family (stages/models.py); here the model is
    TRAINED inside the pipeline rather than loaded.

    Split: ``doc_id % test_mod == 0`` is the scored test set, the rest is
    the training set (the docs_split convention of deterministic
    arithmetic splits).

    Training (all dataset-side, combiner-shaped): per-batch (label,
    token) Counters → one vocabulary-sized keyed sum — the shuffle moves
    pre-summed partials, never raw tokens. The fitted model (per-class
    token log-counts, class totals, priors) is PARAMETER-sized
    (vocab × n_classes), broadcast once via ``ray.put``.

    Scoring, exact on the 1e-6 ln lattice so the SQL twin can replicate
    it with integer sums (each ln term individually quantized, the
    token_entropy convention):

        A(c,t)   = rint(1e6·ln(cnt(c,t)+1))
        L(c)     = rint(1e6·ln(n_c + V))
        prior(c) = rint(1e6·ln(docs_c)) − rint(1e6·ln(docs_total))
        score(d,c) = prior(c) − n_d·L(c) + Σ_t m_t·A(c,t)

    (unseen tokens contribute −L(c) each, folded into the n_d term).
    Prediction: argmax score, ties broken by label ascending.

    Two-path fit (the adamic_adar broadcast-bound convention): with at
    most ``vocab_broadcast_limit`` distinct (label, token) count rows the
    model fits on the driver and ships once via ``ray.put``; above it
    (raw 100-TB web vocabulary) the model STAYS a dataset — per-class A
    rows keyed by token — and scoring is a hash join of the test-split
    token occurrences against it plus a per-doc keyed sum and a top-1
    head (``ops.top_k_per_group``). Only class-sized statistics (priors,
    class totals, V) ever reach the driver on that path.

    Output: (id, pred_lang, score) for the test split.
    """
    from collections import Counter

    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    ws = re.compile(r"\s+", re.ASCII)

    is_test = lambda t: pa.array(  # noqa: E731
        (t.column(id_col).to_numpy(zero_copy_only=False) % test_mod) == 0
    )
    train = docs.map_batches(
        lambda t: t.filter(pc.invert(is_test(t))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    test = docs.map_batches(
        lambda t: t.filter(is_test(t)).select([id_col, text_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        dc: Counter = Counter()
        for lab, t in zip(
            batch.column(label_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            dc[lab] += 1
            for tok in ws.split(t or ""):
                if tok:
                    c[(lab, tok)] += 1
        keys = [f"{lab}\x00{tok}" for lab, tok in c]
        # per-class doc counts ride along as sentinel rows (token = "")
        keys += [f"{lab}\x00" for lab in dc]
        vals = list(c.values()) + list(dc.values())
        return pa.table(
            {"k": pa.array(keys, pa.string()), "n": pa.array(vals, pa.int64())}
        )

    counts_ds = (
        train.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    if counts_ds.count() > vocab_broadcast_limit:
        return _nb_dataset_resident(test, counts_ds, ws, id_col, text_col)
    counts = counts_ds.take_all()

    # fit the parameter-sized model on the driver (vocab × classes rows)
    tok_cnt: dict[str, dict[str, int]] = {}
    doc_cnt: dict[str, int] = {}
    vocab: set[str] = set()
    for row in counts:
        lab, tok = row["k"].split("\x00", 1)
        if tok == "":
            doc_cnt[lab] = int(row["n"])
        else:
            tok_cnt.setdefault(lab, {})[tok] = int(row["n"])
            vocab.add(tok)
    labels = sorted(doc_cnt)
    v_size = len(vocab)
    n_docs_total = sum(doc_cnt.values())
    n_c = np.array(
        [sum(tok_cnt.get(lab, {}).values()) for lab in labels], dtype=np.int64
    )
    big_l = np.rint(np.log(n_c + v_size) * NB_LN_SCALE).astype(np.int64)
    prior = np.rint(
        np.log(np.array([doc_cnt[lab] for lab in labels], np.float64)) * NB_LN_SCALE
    ).astype(np.int64) - np.int64(np.rint(np.log(n_docs_total) * NB_LN_SCALE))
    a_vec: dict[str, np.ndarray] = {}
    for tok in vocab:
        cnts = np.array(
            [tok_cnt.get(lab, {}).get(tok, 0) for lab in labels], np.float64
        )
        a_vec[tok] = np.rint(np.log(cnts + 1.0) * NB_LN_SCALE).astype(np.int64)
    model_ref = ray.put((labels, a_vec, big_l, prior))

    def predict(batch: pa.Table, _ref=model_ref) -> pa.Table:
        from graphiti_ray.stages.link import _cached_lut

        labels_, a_, l_, p_ = _cached_lut(_ref)
        out_pred, out_score = [], []
        for t in batch.column(text_col).to_pylist():
            toks = [x for x in ws.split(t or "") if x]
            score = p_ - np.int64(len(toks)) * l_
            for tok, m in Counter(toks).items():
                av = a_.get(tok)
                if av is not None:
                    score = score + np.int64(m) * av
            i = int(np.argmax(score))  # labels sorted asc → ties pick low label
            out_pred.append(labels_[i])
            out_score.append(int(score[i]))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "pred_lang": pa.array(out_pred, pa.string()),
                "score": pa.array(out_score, pa.int64()),
            }
        )

    return test.map_batches(predict, batch_format="pyarrow", zero_copy_batch=True)


def _nb_dataset_resident(
    test: rd.Dataset,
    counts_ds: rd.Dataset,
    ws,
    id_col: str,
    text_col: str,
) -> rd.Dataset:
    """Above-the-vocab-bound Naive-Bayes scoring: the fitted (label,
    token) → A table stays a DATASET (the BM25 dataset-resident-stats
    pattern, pipelines/search.py::build_bm25_index); only class-sized
    statistics reach the driver. Score = base rows (prior − n_d·L per
    class) unioned with the token-contribution rows from one hash join
    of test occurrences against the model table, keyed-summed per
    (doc, class), then a per-doc top-1 head. Value-identical to the
    broadcast path (tests pin the bound to 0 and compare)."""
    from collections import Counter

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from graphiti_ray.stages.link import default_join_partitions, safe_join
    from graphiti_ray.stages.ops import distinct_by_key, top_k_per_group

    def split_k(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("k"), "\x00", max_splits=1)
        return pa.table(
            {
                "lab": pc.list_element(parts, 0),
                "tok": pc.list_element(parts, 1),
                "n": pc.cast(t.column("n"), pa.int64()),
            }
        )

    kt = counts_ds.map_batches(
        split_k, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # class-sized statistics (|labels| rows each) — driver-safe at any scale
    doc_cnt: dict[str, int] = {}
    sentinels = kt.map_batches(
        # sentinel rows (token = "") carry per-class doc counts
        lambda t: t.filter(pc.equal(t.column("tok"), "")).select(["lab", "n"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    for r in sentinels.take_all():
        doc_cnt[r["lab"]] = int(r["n"])
    n_c_rows = (
        kt.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("tok"), "")).select(
                ["lab", "n"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("lab")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    v_size = distinct_by_key(
        kt.map_batches(
            lambda t: pa.table(
                {"tok": t.filter(pc.not_equal(t.column("tok"), "")).column("tok")}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "tok",
    ).count()

    labels = sorted(doc_cnt)
    lab_ix = {lab: i for i, lab in enumerate(labels)}
    n_c = np.zeros(len(labels), dtype=np.int64)
    for r in n_c_rows:
        n_c[lab_ix[r["lab"]]] = int(r["n"])
    n_docs_total = sum(doc_cnt.values())
    big_l = np.rint(np.log(n_c + v_size) * NB_LN_SCALE).astype(np.int64)
    prior = np.rint(
        np.log(np.array([doc_cnt[lab] for lab in labels], np.float64))
        * NB_LN_SCALE
    ).astype(np.int64) - np.int64(np.rint(np.log(n_docs_total) * NB_LN_SCALE))

    # the model DATASET: (tok, lab, a) — vocab × classes rows, distributed
    def to_a(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("tok"), ""))
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        a = np.rint(np.log(n + 1.0) * NB_LN_SCALE).astype(np.int64)
        return pa.table(
            {
                "tok": t.column("tok"),
                "lab": t.column("lab"),
                "a": pa.array(a, pa.int64()),
            }
        )

    model_ds = kt.map_batches(to_a, batch_format="pyarrow", zero_copy_batch=True)

    def occurrences(batch: pa.Table) -> pa.Table:
        ids, toks, ms = [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            for tok, m in Counter(
                x for x in ws.split(t or "") if x
            ).items():
                ids.append(i)
                toks.append(tok)
                ms.append(m)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "tok": pa.array(toks, pa.string()),
                "m": pa.array(ms, pa.int64()),
            }
        )

    def base_rows(batch: pa.Table) -> pa.Table:
        ids, labs, ss = [], [], []
        for i, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            n_d = sum(1 for x in ws.split(t or "") if x)
            for ci, lab in enumerate(labels):
                ids.append(i)
                labs.append(lab)
                ss.append(int(prior[ci]) - n_d * int(big_l[ci]))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "lab": pa.array(labs, pa.string()),
                "s": pa.array(ss, pa.int64()),
            }
        )

    occ = test.map_batches(
        occurrences, batch_format="pyarrow", zero_copy_batch=True
    )
    base = test.map_batches(
        base_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = safe_join(
        occ,
        model_ds,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("tok",),
    )

    def contrib_partial(t: pa.Table) -> pa.Table:
        part = (
            pa.table(
                {
                    id_col: t.column(id_col),
                    "lab": t.column("lab"),
                    "s": pc.multiply(t.column("m"), t.column("a")),
                }
            )
            .group_by([id_col, "lab"])
            .aggregate([("s", "sum")])
        )
        return pa.table(
            {
                id_col: part.column(id_col),
                "lab": part.column("lab"),
                "s": pc.cast(part.column("s_sum"), pa.int64()),
            }
        )

    scores = (
        joined.map_batches(
            contrib_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .union(base)
        .groupby([id_col, "lab"])
        .aggregate(Sum("s", alias_name="score"))
    )

    def neg(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col),
                "lab": t.column("lab"),
                "score": pc.cast(t.column("score"), pa.int64()),
                "neg_score": pc.negate_checked(
                    pc.cast(t.column("score"), pa.int64())
                ),
            }
        )

    top = top_k_per_group(
        scores.map_batches(neg, batch_format="pyarrow", zero_copy_batch=True),
        [id_col],
        ["neg_score", "lab"],
        k=1,
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col),
                "pred_lang": pc.cast(t.column("lab"), pa.string()),
                "score": pc.cast(t.column("score"), pa.int64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# --- trending / burst term detection ------------------------------------------

TREND_DAYS = 7
TREND_MIN_COUNT = 5
TREND_TOP_N = 200


def trending_terms(
    docs: rd.Dataset,
    n_days: int = TREND_DAYS,
    min_count: int = TREND_MIN_COUNT,
    top_n: int = TREND_TOP_N,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Burst/trending-term detection (Kleinberg 2002 in its simplest
    day-over-day ratio form — the freshness signal a web-corpus pipeline
    computes per crawl): token counts per (day, token), burst score vs
    the previous day on the exact integer lattice

        burst_micro = (c_day · 10^6) // (c_prev + 1)

    (the +1 smooths first appearances instead of dividing by zero; a
    token absent yesterday and frequent today maxes the score). The day
    bucket is ``doc_id % n_days`` — the fixture stand-in for
    ``date(warc_ts)`` at scale, the docs_epoch_shuffle convention.

    Scale shape: per-batch (day, token) Counter partials → ONE
    vocabulary×days-sized keyed sum → a self hash-join on (token,
    prev-day) — no driver-side tables; top_n by (burst desc, day, token)
    keeps the result bounded.

    Output: (day, token, c, c_prev, burst_micro) for day ≥ 1,
    c ≥ min_count.
    """
    from collections import Counter

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    ws = re.compile(r"\s+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        for i, t in zip(ids, batch.column(text_col).to_pylist()):
            day = int(i) % n_days
            for tok in ws.split(t or ""):
                if tok:
                    cnt[(day, tok)] += 1
        days = pa.array([k[0] for k in cnt], pa.int64())
        toks = pa.array([k[1] for k in cnt], pa.string())
        return pa.table(
            {"day": days, "token": toks, "n": pa.array(list(cnt.values()), pa.int64())}
        )

    counts = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["day", "token"])
        .aggregate(Sum("n", alias_name="c"))
        .materialize()
    )

    prev = counts.map_batches(
        lambda t: pa.table(
            {
                "day": pc.add(t.column("day"), 1),
                "token": t.column("token"),
                "c_prev": t.column("c"),
            }
        ),
        batch_format="pyarrow",
    )
    joined = safe_join(
        counts,
        prev,
        join_type="left_outer",
        num_partitions=default_join_partitions(),
        on=("day", "token"),
    )

    def score(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        cp = (
            pc.fill_null(pc.cast(t.column("c_prev"), pa.int64()), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        burst = (c * 1_000_000) // (cp + 1)
        day = t.column("day").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (day >= 1) & (c >= min_count)
        return pa.table(
            {
                "day": pa.array(day[keep], pa.int64()),
                "token": pc.cast(
                    t.column("token").filter(pa.array(keep)), pa.string()
                ),
                "c": pa.array(c[keep], pa.int64()),
                "c_prev": pa.array(cp[keep], pa.int64()),
                "burst_micro": pa.array(burst[keep], pa.int64()),
            }
        )

    return (
        joined.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["burst_micro", "day", "token"], descending=[True, False, False])
        .limit(top_n)
    )


# --- distribution drift (population stability index) --------------------------


def psi_by_bucket(
    docs: rd.Dataset,
    bucket_col: str = "lang",
    id_col: str = "doc_id",
    split_mod: int = 2,
) -> rd.Dataset:
    """Population-stability-index census — the distribution-drift check a
    data pipeline runs between corpus snapshots/splits: bucket counts on
    the two splits (here ``doc_id % split_mod`` — the fixture stand-in
    for crawl A vs crawl B), Laplace-smoothed shares, and each bucket's
    PSI term on the 1e-6 lattice

        term = (p_a − p_b) · ln(p_a / p_b),  p_x = (n_x+1)/(N_x+K)

    (PSI = Σ terms; > 0.2 conventionally flags drift). All counts exact
    int64; the float term is quantized per bucket (the token_entropy
    convention) so the SQL twin hash-matches. One combiner pass → one
    |buckets|-keyed sum → driver-side parameter-sized finish.

    Output: (bucket, n_a, n_b, psi_term_e6).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        side = (ids % split_mod) == 0
        bk = batch.column(bucket_col).to_pylist()
        from collections import Counter

        ca: Counter = Counter()
        cb: Counter = Counter()
        for b, s in zip(bk, side):
            (ca if s else cb)[b] += 1
        keys = sorted(set(ca) | set(cb))
        return pa.table(
            {
                "bucket": pa.array(keys, pa.string()),
                "n_a": pa.array([ca.get(k, 0) for k in keys], pa.int64()),
                "n_b": pa.array([cb.get(k, 0) for k in keys], pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum("n_a", alias_name="n_a"), Sum("n_b", alias_name="n_b"))
        .take_all()  # |buckets| rows — parameter-sized
    )
    k = len(agg)
    total_a = sum(int(r["n_a"]) for r in agg)
    total_b = sum(int(r["n_b"]) for r in agg)
    rows = []
    for r in sorted(agg, key=lambda x: x["bucket"]):
        na, nb = int(r["n_a"]), int(r["n_b"])
        p_a = (na + 1.0) / (total_a + k)
        p_b = (nb + 1.0) / (total_b + k)
        term = (p_a - p_b) * np.log(p_a / p_b)
        rows.append(
            {
                "bucket": r["bucket"],
                "n_a": na,
                "n_b": nb,
                "psi_term_e6": int(np.rint(term * 1e6)),
            }
        )
    return rd.from_items(rows)


def zipf_alpha(
    docs: rd.Dataset,
    cmin: int = 2,
    text_col: str = "text",
) -> rd.Dataset:
    """Hill MLE of the token-FREQUENCY power-law exponent (Zipf's law —
    the corpus-linguistics twin of the web-graph degree estimator
    ``graph.hill_alpha``, same Clauset-Shalizi-Newman arithmetic):
    α = 1 + n / Σ ln(c_i/cmin) over token counts c_i ≥ cmin, log terms
    on the int 1e-6 lattice, HUGEINT-exact division.

    Combiner token counts → one vocabulary-sized keyed sum → the two
    sufficient statistics. Output: (n_tail, s_e6, alpha_e6)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ws = re.compile(r"\s+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            for x in ws.split(t or ""):
                if x:
                    cnt[x] += 1
        return pa.table(
            {
                "token": pa.array(list(cnt), pa.string()),
                "n": pa.array(list(cnt.values()), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("n", alias_name="c"))
    )

    def tail_terms(t: pa.Table, _m=cmin) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False)
        c = c[c >= _m]
        li = np.rint(np.log(c.astype(np.float64)) * 1_000_000).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(c)], pa.int64()),
                "sl": pa.array([int(li.sum())], pa.int64()),
            }
        )

    stats = counts.map_batches(tail_terms, batch_format="pyarrow")
    n = stats.sum("n") or 0
    sl = stats.sum("sl") or 0
    lmin = int(np.rint(np.log(float(cmin)) * 1_000_000))
    s_e6 = sl - n * lmin
    alpha = 0 if (n == 0 or s_e6 <= 0) else 1_000_000 + (n * 10**12) // s_e6
    return rd.from_arrow(
        pa.table(
            {
                "n_tail": pa.array([n], pa.int64()),
                "s_e6": pa.array([s_e6], pa.int64()),
                "alpha_e6": pa.array([alpha], pa.int64()),
            }
        )
    )


class FleschKincaid:
    """Flesch–Kincaid grade-level readability on the exact integer lattice
    (Kincaid 1975; the standard difficulty feature for curriculum /
    quality filtering in web-corpus pipelines) →
    ``doc_id, n_words, n_sentences, n_syllables, fk_micro``.

    Deterministic sub-counts so the SQL twin is bit-exact:
      - words     = ``\\w+`` tokens of the lowercased text,
      - sentences = runs of ``[.!?]+`` in the raw text, min 1,
      - syllables = per word, vowel-group count ``[aeiouy]+``, min 1.
    The grade ``0.39·W/S + 11.8·Syl/W − 15.59`` is emitted as
    ``fk_micro = (1e6·(39·W² + 1180·Syl·S − 1559·S·W)) // (100·S·W)``
    — all-integer division truncating toward zero, as DuckDB's ``//``
    does (Python's ``//`` floors instead, which differs by one on a
    negative, inexact grade), no float lattice needed. Docs with zero
    words are dropped (both sides)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.word = re.compile(r"\w+")
        self.vowel = re.compile(r"[aeiouy]+")
        self.sent = re.compile(r"[.!?]+")
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col)
        keep_idx, nw, ns, nsyl = [], [], [], []
        vf, wf, sf = self.vowel.findall, self.word.findall, self.sent.findall
        for i, t in enumerate(texts):
            words = wf(t.lower())
            if not words:
                continue
            keep_idx.append(i)
            nw.append(len(words))
            ns.append(max(1, len(sf(t))))
            nsyl.append(sum(max(1, len(vf(w))) for w in words))
        w = np.asarray(nw, np.int64)
        s = np.asarray(ns, np.int64)
        syl = np.asarray(nsyl, np.int64)
        num = 1_000_000 * (39 * w * w + 1180 * syl * s - 1559 * s * w)
        den = 100 * s * w
        # den > 0, so truncation is the floor of |num| with num's sign
        fk = np.sign(num) * (np.abs(num) // den)
        return pa.table(
            {
                "doc_id": ids.take(pa.array(keep_idx, pa.int64())),
                "n_words": pa.array(w, pa.int64()),
                "n_sentences": pa.array(s, pa.int64()),
                "n_syllables": pa.array(syl, pa.int64()),
                "fk_micro": pa.array(fk, pa.int64()),
            }
        )


def readability_fk(
    docs: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """Per-doc Flesch–Kincaid readability: one stateless vectorized
    ``map_batches`` pass (compiled regexes held per task), no shuffle."""
    return docs.map_batches(
        FleschKincaid(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def skipgram_pairs(
    docs: rd.Dataset,
    window: int = 2,
    top_k: int = 200,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Skip-gram training-pair extraction (Mikolov et al. 2013): directed
    (center, context) co-occurrences within ``±window`` token positions —
    the pair stream a word2vec/GloVe-style embedding trainer consumes.
    Returns the ``top_k`` pairs by corpus count (rank, center, context,
    n_pair), ties → (center, context) order.

    Distributed shape mirrors ``pmi_collocations``: the window explode is
    vectorized per block (for offset d, zip(t[:-d], t[d:]) in both
    directions — no per-position Python), an in-block ``group_by``
    combiner collapses duplicates before the ONE corpus-scale
    ``groupby(center, context).sum`` to the type table, and only the
    type table (types ≪ occurrences) rides the final sort+limit. The SQL
    twin is a positional self-join gated on |Δpos| ≤ window."""
    import pandas as pd

    def explode(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        c_: list[str] = []
        x_: list[str] = []
        for t in toks:
            n = len(t)
            for d in range(1, window + 1):
                if d >= n:
                    break
                c_.extend(t[:-d])
                x_.extend(t[d:])
                c_.extend(t[d:])
                x_.extend(t[:-d])
        tbl = pa.table(
            {
                "center": pa.array(c_, pa.string()),
                "context": pa.array(x_, pa.string()),
            }
        )
        return (
            tbl.group_by(["center", "context"])
            .aggregate([([], "count_all")])
            .rename_columns(["center", "context", "c"])
        )

    types = (
        docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["center", "context"])
        .sum("c")
        .map_batches(
            lambda t: t.rename_columns(["center", "context", "n_pair"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    top = (
        types.sort(
            ["n_pair", "center", "context"], descending=[True, False, False]
        )
        .limit(top_k)
        .to_pandas()
    )
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top[["rank", "center", "context", "n_pair"]]


def llr_collocations(
    docs: rd.Dataset,
    top_k: int = 50,
    min_count: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Log-likelihood-ratio collocation mining (Dunning 1993): the
    ``top_k`` adjacent token pairs by the G² statistic over the 2×2
    bigram contingency table — the scorer Mahout/NLTK phrase miners use
    where PMI over-rewards rare pairs. Same distributed shape as
    :func:`pmi_collocations` (per-block combiner → one type-table groupby
    → marginals over the type table joined back); the score is quantized
    to the int 1e-6 lattice (``llr6``) with the SQL twin evaluating the
    bit-identical xlogx expression chain.

    G² = 2·(Σ xlx(k_ij) − Σ xlx(row/col sums) + xlx(N)), xlx(x)=x·ln x.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    def explode_pairs(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        w1: list[str] = []
        w2: list[str] = []
        for t in toks:
            if len(t) > 1:
                w1.extend(t[:-1])
                w2.extend(t[1:])
        tbl = pa.table(
            {"w1": pa.array(w1, pa.string()), "w2": pa.array(w2, pa.string())}
        )
        return (
            tbl.group_by(["w1", "w2"])
            .aggregate([([], "count_all")])
            .rename_columns(["w1", "w2", "c"])
        )

    types = (
        docs.map_batches(explode_pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["w1", "w2"])
        .sum("c")
        .map_batches(
            lambda t: t.rename_columns(["w1", "w2", "n_pair"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    n_total = int(types.sum("n_pair"))
    left_marg = types.groupby("w1").sum("n_pair").map_batches(
        lambda t: t.rename_columns(["w1", "n_left"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    right_marg = types.groupby("w2").sum("n_pair").map_batches(
        lambda t: t.rename_columns(["w2", "n_right"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    gated = types.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n_pair"), min_count)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    nparts = default_join_partitions()
    joined = safe_join(
        safe_join(
            gated, left_marg, join_type="inner", num_partitions=nparts, on=("w1",)
        ),
        right_marg,
        join_type="inner",
        num_partitions=nparts,
        on=("w2",),
    )

    def score(batch: pa.Table) -> pa.Table:
        c = batch.column("n_pair").to_numpy(zero_copy_only=False).astype(np.float64)
        ra = batch.column("n_left").to_numpy(zero_copy_only=False).astype(np.float64)
        ca = batch.column("n_right").to_numpy(zero_copy_only=False).astype(np.float64)
        nn = float(n_total)

        def xlx(x):
            return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)

        k11 = c
        k12 = ra - c
        k21 = ca - c
        k22 = nn - ra - ca + c
        s = (
            xlx(k11) + xlx(k12) + xlx(k21) + xlx(k22)
            - xlx(ra) - xlx(nn - ra) - xlx(ca) - xlx(nn - ca)
            + xlx(nn)
        )
        llr6 = np.rint((2.0 * s) * 1e6).astype(np.int64)
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n_pair": batch.column("n_pair"),
                "llr6": pa.array(llr6, pa.int64()),
            }
        )

    top = (
        joined.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["llr6", "w1", "w2"], descending=[True, False, False])
        .limit(top_k)
        .to_pandas()
    )
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    top["llr"] = top.pop("llr6").astype(np.float64) / 1e6
    return top[["rank", "w1", "w2", "n_pair", "llr"]]


def bpe_train(
    docs: rd.Dataset,
    n_merges: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """BPE tokenizer TRAINING (Sennrich et al. 2016) — not just the pair
    statistics (docs_bpe_pairs) but the full greedy merge loop: n_merges
    rounds of (count weighted adjacent symbol pairs over the word-type
    table → pick the most frequent pair, ties → (left, right) lexicographic
    → apply the merge corpus-wide). Returns the learned merge list
    (rank, lhs, rhs, pair_count) — the artifact a tokenizer ships.

    Scale shape: the corpus collapses ONCE to the word-TYPE histogram
    (the standard BPE reduction — passes thereafter are vocabulary-sized,
    not corpus-sized). Each round is one vectorized pair-count pass with
    an in-block combiner → one groupby → a driver top-1 (a single row of
    state), then one map applying the merge. Sequences are
    '|'-delimited symbol strings with leading/trailing separators, and
    the merge is literally ``str.replace('|l|r|', '|lr|')`` — Python and
    DuckDB replace() share non-overlapping left-to-right semantics, so
    the unrolled SQL twin is identical by construction."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def word_types(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch.column(text_col).to_pylist()).fillna("")
        toks = texts.str.lower().str.findall(r"\w+")
        words: list[str] = []
        for t in toks:
            words.extend(t)
        tbl = pa.table({"w": pa.array(words, pa.string())})
        return (
            tbl.group_by(["w"])
            .aggregate([([], "count_all")])
            .rename_columns(["w", "c"])
        )

    types = (
        docs.map_batches(word_types, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("w")
        .sum("c")
        .map_batches(
            lambda t: pa.table(
                {
                    "seq": pa.array(
                        ["|" + "|".join(w) + "|" for w in t.column("w").to_pylist()],
                        pa.string(),
                    ),
                    "c": t.column("sum(c)"),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):

        def pair_partial(t: pa.Table) -> pa.Table:
            seqs = t.column("seq").to_pylist()
            cnts = t.column("c").to_numpy(zero_copy_only=False)
            ls: list[str] = []
            rs: list[str] = []
            ws: list[int] = []
            for s, c in zip(seqs, cnts):
                syms = s.strip("|").split("|")
                for a, b in zip(syms[:-1], syms[1:]):
                    ls.append(a)
                    rs.append(b)
                    ws.append(int(c))
            tbl = pa.table(
                {
                    "l": pa.array(ls, pa.string()),
                    "r": pa.array(rs, pa.string()),
                    "n": pa.array(ws, pa.int64()),
                }
            )
            return (
                tbl.group_by(["l", "r"])
                .aggregate([("n", "sum")])
                .rename_columns(["l", "r", "n"])
            )

        top = (
            types.map_batches(pair_partial, batch_format="pyarrow")
            .groupby(["l", "r"])
            .sum("n")
            .map_batches(
                lambda t: t.rename_columns(["l", "r", "n"]),
                batch_format="pyarrow",
            )
            .sort(["n", "l", "r"], descending=[True, False, False])
            .limit(1)
            .take_all()
        )
        if not top:
            break
        l, r, n = top[0]["l"], top[0]["r"], int(top[0]["n"])
        merges.append((l, r, n))

        def apply_merge(t: pa.Table, _l=l, _r=r) -> pa.Table:
            seqs = [
                s.replace(f"|{_l}|{_r}|", f"|{_l}{_r}|")
                for s in t.column("seq").to_pylist()
            ]
            return pa.table(
                {"seq": pa.array(seqs, pa.string()), "c": t.column("c")}
            )

        types = types.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    return pa.table(
        {
            "rank": pa.array(range(1, len(merges) + 1), pa.int64()),
            "lhs": pa.array([m[0] for m in merges], pa.string()),
            "rhs": pa.array([m[1] for m in merges], pa.string()),
            "pair_count": pa.array([m[2] for m in merges], pa.int64()),
        }
    )
