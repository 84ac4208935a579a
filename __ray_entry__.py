"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash).

Design note: the KG pipeline's input ``pages`` table is synthesized from
``documents.parquet`` by *pure arithmetic on doc_id* (graphiti_ray/sources/
synth_spec.py, version pg1). That lets the DuckDB oracle re-derive the
expected output of the entire Ray chain — HTML render → byte-identical
text extraction → regex NER/relations → group-scoped entity linking →
edge merge → temporal invalidation sweep — *independently*, from the raw
documents table. Column names match exactly on both sides.

No ray.init()/ray.shutdown() here (driver owns the session).
"""

from __future__ import annotations

import os

from collections.abc import Callable
from typing import Any

from graphiti_ray.sources import synth_spec as spec


def _sql_str_list(items) -> str:
    return "[" + ",".join("'" + i + "'" for i in sorted(items)) + "]"


_TOKEN_RE_SQL = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
from graphiti_ray.stages.textstats import STOPWORDS as _SW

_STOPWORDS_SQL = _sql_str_list(_SW["en"])
_LANG_LISTS_SQL = {lang: _sql_str_list(ws) for lang, ws in _SW.items()}

from graphiti_ray.pipelines.corpus import (  # noqa: E402
    DEFAULT_MAX_CHARS as DEFAULT_MAX_CHARS_SQL,
    DEFAULT_MIN_CHARS as DEFAULT_MIN_CHARS_SQL,
    DEFAULT_MIN_WORDS as DEFAULT_MIN_WORDS_SQL,
)


def _read_sf(path: str, columns: list[str] | None = None):
    """An input parquet file as a Dataset whose blocks carry no schema
    metadata. The sf files carry pandas metadata, a dict, which makes a
    pyarrow schema unhashable: Ray then logs "Failed to hash the schemas"
    each time it unifies the schemas of several blocks."""
    import ray.data as rd

    return rd.read_parquet(path, columns=columns).map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def _read_embeddings(sf_dir: str, columns: list[str] | None = None):
    return _read_sf(f"{sf_dir}/embeddings.parquet", columns)


def _read_documents(sf_dir: str, columns: list[str] | None = None):
    return _read_sf(f"{sf_dir}/documents.parquet", columns)


# ---------------------------------------------------------------------------
# shared oracle CTEs (documents → derived pages/mentions/canonical entities)
# ---------------------------------------------------------------------------

_BASE_CTE = f"""
base AS (
  SELECT doc_id,
         {spec.SQL_GROUP_ID} AS group_id,
         {spec.SQL_URL} AS url,
         {spec.SQL_VALID_AT} AS valid_at,
         ({spec.SQL_SUBJ_SURFACE}) AS subj1,
         ({spec.SQL_PRED1}) AS pred1,
         ({spec.SQL_OBJ1_SURFACE}) AS obj1,
         ({spec.SQL_SUBJ2_SURFACE}) AS subj2,
         'LOCATED_IN' AS pred2,
         ({spec.SQL_OBJ2_SURFACE}) AS obj2,
         ({spec.SQL_FACT1}) AS fact1,
         ({spec.SQL_FACT2}) AS fact2,
         text
  FROM documents
)"""

# per-episode distinct mention surfaces (engine: MentionExtractor seen-set)
_MENTIONS_CTE = """
ment AS (
  SELECT DISTINCT md5(url) AS episode_uuid, group_id, name, valid_at FROM (
    SELECT url, group_id, subj1 AS name, valid_at FROM base
    UNION ALL SELECT url, group_id, obj1, valid_at FROM base
    UNION ALL SELECT url, group_id, subj2, valid_at FROM base
    UNION ALL SELECT url, group_id, obj2, valid_at FROM base
  )
)"""

# the engine's conditional alias-merge rule (stages/link.py resolve_group),
# replicated relationally: merge only when a unique in-group full form exists
_CANON_CTE = r"""
surf AS (SELECT group_id, name, count(*) AS mention_count
         FROM ment GROUP BY 1, 2),
fulls AS (SELECT DISTINCT group_id, name FROM surf
          WHERE name LIKE '% %' AND NOT regexp_matches(name, '^[A-Z]\. ')),
ff AS (SELECT group_id, split_part(name, ' ', 1) AS tok,
              min(name) AS full_name, count(DISTINCT name) AS c
       FROM fulls GROUP BY 1, 2),
fi AS (SELECT group_id, substr(name, 1, 1) AS ini,
              string_split(name, ' ')[-1] AS last_tok,
              min(name) AS full_name, count(DISTINCT name) AS c
       FROM fulls GROUP BY 1, 2, 3),
canon AS (
  SELECT s.group_id, s.name, s.mention_count,
    CASE
      WHEN s.name LIKE '% %' AND NOT regexp_matches(s.name, '^[A-Z]\. ')
        THEN s.name
      WHEN regexp_matches(s.name, '^[A-Z]\. ')
        THEN coalesce(CASE WHEN fi.c = 1 THEN fi.full_name END, s.name)
      ELSE coalesce(CASE WHEN ff.c = 1 THEN ff.full_name END, s.name)
    END AS canonical
  FROM surf s
  LEFT JOIN fi ON fi.group_id = s.group_id
              AND fi.ini = substr(s.name, 1, 1)
              AND fi.last_tok = string_split(s.name, ' ')[-1]
  LEFT JOIN ff ON ff.group_id = s.group_id AND ff.tok = s.name
)"""

# merge + temporal-invalidation tail, shared by every fixture's resolved
# head (text pages and message conversations produce the same edge algebra)
_MERGE_INV_TAIL = """
merged AS (
  SELECT group_id,
         md5(group_id || '|' || lower(subj_canonical)) AS subj_uuid,
         pred,
         md5(group_id || '|' || lower(obj_canonical)) AS obj_uuid,
         min(subj_canonical) AS subj_canonical,
         min(obj_canonical) AS obj_canonical,
         min(valid_at) AS valid_at,
         count(DISTINCT episode_uuid) AS episode_count
  FROM resolved
  GROUP BY 1, 2, 3, 4
),
merged_id AS (
  SELECT md5(group_id || '|' || subj_uuid || '|' || pred || '|' || obj_uuid)
           AS uuid, *
  FROM merged
),
pair_inv AS (
  SELECT uuid, lead(valid_at) OVER (
           PARTITION BY group_id, subj_uuid, obj_uuid
           ORDER BY valid_at, uuid) AS inv
  FROM merged_id WHERE pred IN ('LIKES', 'DISLIKES')
),
subj_inv AS (
  SELECT uuid, lead(valid_at) OVER (
           PARTITION BY group_id, subj_uuid, pred
           ORDER BY valid_at, uuid) AS inv
  FROM merged_id WHERE pred IN ('WORKS_AT', 'CEO_OF', 'LOCATED_IN')
)"""

_RESOLVED_CTE = (
    """
resolved AS (
  SELECT b.group_id, b.valid_at, md5(b.url) AS episode_uuid,
         cs.canonical AS subj_canonical, b.pred1 AS pred,
         co.canonical AS obj_canonical
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj1
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj1
  UNION ALL
  SELECT b.group_id, b.valid_at, md5(b.url),
         cs.canonical, b.pred2, co.canonical
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj2
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj2
),"""
    + _MERGE_INV_TAIL
)

# --- message-source fixture CTEs (sources/messages.py spec msg1): each doc
# yields a 2-message conversation; message k's episode uuid is
# md5(url || '#m<k>'), its event time valid_at + k minutes, and its SPEAKER
# (always a full person name) is extracted as a mention alongside the
# body's entities — so speakers join alias resolution, and the same
# _CANON_CTE + merge/invalidation tail apply unchanged.
_MSG_BASE_CTE = f"""
base AS (
  SELECT doc_id,
         {spec.SQL_GROUP_ID} AS group_id,
         {spec.SQL_URL} AS url,
         {spec.SQL_VALID_AT} AS valid_at0,
         {spec.SQL_VALID_AT} + INTERVAL 1 MINUTE AS valid_at1,
         {spec.PERSONS_FULL_SQL}[((doc_id + 5) % 8) + 1] AS speaker0,
         {spec.PERSONS_FULL_SQL}[((doc_id + 2) % 8) + 1] AS speaker1,
         ({spec.SQL_SUBJ_SURFACE}) AS subj1,
         ({spec.SQL_PRED1}) AS pred1,
         ({spec.SQL_OBJ1_SURFACE}) AS obj1,
         ({spec.SQL_SUBJ2_SURFACE}) AS subj2,
         'LOCATED_IN' AS pred2,
         ({spec.SQL_OBJ2_SURFACE}) AS obj2
  FROM documents
)"""

_MSG_MENTIONS_CTE = """
ment AS (
  SELECT DISTINCT episode_uuid, group_id, name, valid_at FROM (
    SELECT md5(url || '#m0') AS episode_uuid, group_id,
           speaker0 AS name, valid_at0 AS valid_at FROM base
    UNION ALL SELECT md5(url || '#m0'), group_id, subj1, valid_at0 FROM base
    UNION ALL SELECT md5(url || '#m0'), group_id, obj1, valid_at0 FROM base
    UNION ALL SELECT md5(url || '#m1'), group_id, speaker1, valid_at1 FROM base
    UNION ALL SELECT md5(url || '#m1'), group_id, subj2, valid_at1 FROM base
    UNION ALL SELECT md5(url || '#m1'), group_id, obj2, valid_at1 FROM base
  )
)"""

_MSG_RESOLVED_CTE = (
    """
resolved AS (
  SELECT b.group_id, b.valid_at0 AS valid_at, md5(b.url || '#m0') AS episode_uuid,
         cs.canonical AS subj_canonical, b.pred1 AS pred,
         co.canonical AS obj_canonical
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj1
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj1
  UNION ALL
  SELECT b.group_id, b.valid_at1, md5(b.url || '#m1'),
         cs.canonical, b.pred2, co.canonical
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj2
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj2
),"""
    + _MERGE_INV_TAIL
)


def _lpa_rounds_sql(n_rounds: int = 10, edge_table: str = "merged_id") -> str:
    """Unrolled synchronous label-propagation rounds over ``edge_table``
    (columns subj_uuid/obj_uuid pre-exposed).

    stages/graph.py::label_propagation is a deterministic synchronous
    update (plurality neighbor label weighted by edge multiplicity, ties →
    larger label) run to fixpoint with max_rounds=10; a fixpoint is stable
    under further applications, so exactly 10 unrolled SQL rounds
    reproduce it whether the engine converged early or not."""
    parts = [
        f"""
lpa_sym AS (
  SELECT subj_uuid AS x, obj_uuid AS y FROM {edge_table}
  UNION ALL SELECT obj_uuid, subj_uuid FROM {edge_table}
),
lpa_w AS (SELECT x, y, count(*)::BIGINT AS w FROM lpa_sym GROUP BY 1, 2),
r0 AS (SELECT DISTINCT x AS node, x AS community FROM lpa_w)"""
    ]
    for i in range(1, n_rounds + 1):
        parts.append(
            f""",
r{i} AS (
  SELECT x AS node, community FROM (
    SELECT w.x, p.community,
           row_number() OVER (PARTITION BY w.x
             ORDER BY sum(w.w) DESC, p.community DESC) AS rn
    FROM lpa_w w JOIN r{i - 1} p ON p.node = w.y
    GROUP BY w.x, p.community
  ) WHERE rn = 1
)"""
        )
    return "".join(parts).lstrip()


_LPA_CTE = _lpa_rounds_sql(10)

# hugeint constant lists for the hash-arithmetic oracles (simhash/minhash):
# Horner mod-2^64 == sum(byte_j * POLY^(len-1-j)) mod 2^64, so one final
# modulo over hugeint partial sums reproduces numpy's uint64 wraparound.
_POLY_INT = 1099511628211
_M64 = 1 << 64
from graphiti_ray.stages.dedup import MAX_BUCKET as _MAX_BUCKET_SQL  # noqa: E402
_POW64_SQL = "[" + ",".join(f"{pow(_POLY_INT, k, _M64)}::HUGEINT" for k in range(64)) + "]"
_POW2_SQL = "[" + ",".join(f"{1 << p}::HUGEINT" for p in range(64)) + "]"

# hashing-embedding CTE chain shared by the search_mmr and
# search_cross_encoder oracles: node names (+ the fixed query string as
# one extra embedded row) → signed 64-bucket counts → norms → query
# cosine (rel); absent bucket-join pairs mean dot 0 and are handled by
# the consumers' LEFT JOIN + coalesce
_NAME_EMBED_CTES = f"""nodes AS (
  SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
         min(canonical) AS name
  FROM canon GROUP BY group_id, md5(group_id || '|' || lower(canonical))
),
strs AS (
  SELECT uuid, '^' || lower(name) || '$' AS s FROM nodes
  UNION ALL SELECT '__query__', '^alice smith$'
),
h3 AS (
  SELECT uuid,
         (ord(substr(s, i, 1))::HUGEINT * {pow(_POLY_INT, 2, _M64)}::HUGEINT
          + ord(substr(s, i + 1, 1))::HUGEINT * {_POLY_INT}::HUGEINT
          + ord(substr(s, i + 2, 1))::HUGEINT)
           % 18446744073709551616::HUGEINT AS h
  FROM strs, LATERAL unnest(range(1, length(s) - 1)) AS u(i)
),
buck AS (
  SELECT uuid, (h % 64)::INT AS bucket,
         sum(CASE WHEN (h // 65536) % 2 = 1 THEN 1.0 ELSE -1.0 END) AS cnt
  FROM h3 GROUP BY 1, 2
),
nrm AS (SELECT uuid, sqrt(sum(cnt * cnt)) AS nrm FROM buck GROUP BY 1),
relv AS (
  SELECT c.uuid, sum(c.cnt * q.cnt) / (nc.nrm * nq.nrm) AS rel
  FROM buck c
  JOIN buck q ON q.uuid = '__query__' AND q.bucket = c.bucket
  JOIN nrm nc ON nc.uuid = c.uuid
  JOIN nrm nq ON nq.uuid = '__query__'
  WHERE c.uuid <> '__query__'
  GROUP BY c.uuid, nc.nrm, nq.nrm
)"""


def _minhash_pairs_prefix_sql() -> str:
    """Shared SQL prefix ending at the verified MinHash candidate-pair CTE
    (``pairs``): k-byte shingle rolling hash (lead() window Horner, mod
    2^64 then mod 2^61), 64 baked (a, b) permutations with
    numpy-int64-wraparound-faithful arithmetic, band hashes,
    bucket-collision candidates, first-colliding-band distinctness, and
    the signature-agreement threshold (ceil(0.8*64)=52 of 64 perms).
    Byte-exact vs stages/dedup.py (ASCII corpus: substr/ord are per
    character = per byte). Consumed by _minhash_oracle_sql (appends the
    connected-components tail) and the dedup_levenshtein oracle (appends
    the documents join + levenshtein verify)."""
    import math

    from graphiti_ray.stages.dedup import _A, _B, NUM_PERM, SHINGLE_K

    p_pow = [pow(_POLY_INT, k, _M64) for k in range(SHINGLE_K)]
    perms = "VALUES " + ",".join(
        f"({p}, {int(_A[p])}::HUGEINT, {int(_B[p])}::HUGEINT)"
        for p in range(NUM_PERM)
    )
    est_min = math.ceil(0.8 * NUM_PERM)
    shingle_terms = " + ".join(
        [f"b * {p_pow[SHINGLE_K - 1]}::HUGEINT"]
        + [
            f"lead(b, {j}) OVER w * {p_pow[SHINGLE_K - 1 - j]}::HUGEINT"
            for j in range(1, SHINGLE_K)
        ]
    )
    return rf"""
WITH RECURSIVE lt AS (SELECT doc_id, lower(text) AS t FROM documents),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id,
         ({shingle_terms}) % 18446744073709551616::HUGEINT AS h64,
         i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
shingles AS (
  SELECT DISTINCT doc_id, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {SHINGLE_K - 1}
),
perms AS (SELECT * FROM ({perms}) AS v(p, pa, pb)),
sigraw AS (
  SELECT s.doc_id, pm.p,
         ((pm.pa * s.h::HUGEINT + pm.pb) % 18446744073709551616::HUGEINT) AS t
  FROM shingles s CROSS JOIN perms pm
),
sigs AS (
  SELECT doc_id, p,
         min((((CASE WHEN t >= 9223372036854775808::HUGEINT
                     THEN t - 18446744073709551616::HUGEINT ELSE t END)
               % 2305843009213693951) + 2305843009213693951)
             % 2305843009213693951) AS sig
  FROM sigraw GROUP BY 1, 2
),
bandh AS (
  SELECT doc_id, (p // 4)::INT AS band,
         ((sum(((sig::HUGEINT * {_POLY_INT}::HUGEINT + (2 * (p % 4) + 1))
                * (2 * (p % 4) + 1)) % 18446744073709551616::HUGEINT)
           % 18446744073709551616::HUGEINT)
          % 9223372036854775808::HUGEINT)::BIGINT AS bh
  FROM sigs GROUP BY doc_id, p // 4
),
hot AS (SELECT band, bh FROM bandh GROUP BY 1, 2 HAVING count(*) >= 2),
rk AS (
  SELECT h.*, row_number() OVER (PARTITION BY h.band, h.bh
                                 ORDER BY h.doc_id) AS rk
  FROM bandh h JOIN hot USING (band, bh)
),
-- engine semantics mirrored exactly: buckets capped at their first
-- MAX_BUCKET members by doc_id, and a pair counts only from its FIRST
-- shared band — so the oracle stays value-exact even when hot buckets
-- truncate at larger scales
cand AS (
  SELECT DISTINCT a.doc_id AS a, b.doc_id AS b, a.band
  FROM rk a JOIN rk b
    ON a.band = b.band AND a.bh = b.bh AND a.doc_id < b.doc_id
   AND a.rk <= {_MAX_BUCKET_SQL} AND b.rk <= {_MAX_BUCKET_SQL}
),
fb AS (
  SELECT c.a, c.b, c.band, min(x.band) AS fband
  FROM cand c
  JOIN bandh x ON x.doc_id = c.a
  JOIN bandh y ON y.doc_id = c.b AND y.band = x.band AND y.bh = x.bh
  GROUP BY 1, 2, 3
),
pairs0 AS (SELECT DISTINCT a, b FROM fb WHERE band = fband),
pairs AS (
  SELECT c.a, c.b
  FROM pairs0 c
  JOIN sigs sa ON sa.doc_id = c.a
  JOIN sigs sb ON sb.doc_id = c.b AND sb.p = sa.p
  GROUP BY c.a, c.b
  HAVING sum((sa.sig = sb.sig)::INT) >= {est_min}
)"""


def _minhash_oracle_sql() -> str:
    """MinHash-LSH near-dup clusters: the shared pair prefix + min-label
    connected components via a recursive CTE."""
    return (
        _minhash_pairs_prefix_sql()
        + """,
cc_sym AS (SELECT a AS x, b AS y FROM pairs UNION SELECT b, a FROM pairs),
reach AS (
  SELECT x, y FROM cc_sym
  UNION
  SELECT r.x, s.y FROM reach r JOIN cc_sym s ON s.x = r.y
)
SELECT x AS doc_id, least(x, min(y)) AS component FROM reach GROUP BY x
"""
    )


def _lev_oracle_sql() -> str:
    """Levenshtein-verified near-dup pairs: the shared MinHash pair prefix
    + documents join + DuckDB ``levenshtein`` with the exact-integer
    similarity gate lev·100 ≤ 20·max_len (sim_pct=80)."""
    return (
        _minhash_pairs_prefix_sql()
        + """,
lv AS (
  SELECT p.a, p.b,
         levenshtein(da.text, db.text)::BIGINT AS lev_dist,
         greatest(length(da.text), length(db.text))::BIGINT AS max_len
  FROM pairs p
  JOIN documents da ON da.doc_id = p.a
  JOIN documents db ON db.doc_id = p.b
)
SELECT a, b, lev_dist, max_len,
       lev_dist * 100 <= 20 * max_len AS is_dup
FROM lv
"""
    )


_KG_EDGES_ORACLE = f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()}
SELECT m.uuid, m.group_id, m.subj_canonical, m.pred, m.obj_canonical,
       m.valid_at, coalesce(p.inv, s.inv) AS invalid_at,
       m.episode_count::BIGINT AS episode_count
FROM merged_id m
LEFT JOIN pair_inv p USING (uuid)
LEFT JOIN subj_inv s USING (uuid)
"""

_SEARCH_QUERY = "Alice Smith works at"


def _search_hybrid_oracle_sql() -> str:
    """Dataset-mode RRF hybrid edge search as SQL: the edge table (with the
    earliest-assertion ``fact``) is rebuilt from ``documents``, BM25-scored
    against the query terms (same Okapi arithmetic as pipelines/search.py::
    BM25Index.score), cosine-scored against the baked query 3-gram count
    vector (stages/embed.py polynomial hashing, float64, round 9), and the
    two top-20 rank lists fuse via reciprocal-rank fusion (k=1) → top 10.
    Query-side constants (term list, signed bucket counts) are baked the
    way the MinHash permutations are — parameters, not computation."""
    import numpy as np

    from graphiti_ray.pipelines.search import _tokens
    from graphiti_ray.stages.embed import EMBED_DIM, embed_counts

    terms = _tokens(_SEARCH_QUERY)
    qc = embed_counts(_SEARCH_QUERY, EMBED_DIM)
    q_sumsq = int((qc * qc).sum())
    qvals = ",".join(f"({int(i)}, {int(qc[i])}.0)" for i in np.nonzero(qc)[0])
    p2 = pow(_POLY_INT, 2, _M64)
    tf_cols = ",\n         ".join(
        f"len(list_filter(tk, x -> x = '{t}'))::DOUBLE AS f{i + 1}"
        for i, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"sum((f{i + 1} > 0)::INT)::DOUBLE AS d{i + 1}" for i in range(len(terms))
    )
    score_terms = "\n  + ".join(
        f"(CASE WHEN f{i + 1} > 0 THEN ln(1 + (n - d{i + 1} + 0.5) / (d{i + 1} + 0.5))"
        f" * f{i + 1} * (1.2 + 1)"
        f" / (f{i + 1} + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END)"
        for i in range(len(terms))
    )
    return rf"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
resf AS (
  SELECT b.group_id, b.valid_at, md5(b.url) AS episode_uuid,
         cs.canonical AS subj_c, b.pred1 AS pred, co.canonical AS obj_c,
         b.fact1 AS fact
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj1
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj1
  UNION ALL
  SELECT b.group_id, b.valid_at, md5(b.url), cs.canonical, b.pred2,
         co.canonical, b.fact2
  FROM base b
  JOIN canon cs ON cs.group_id = b.group_id AND cs.name = b.subj2
  JOIN canon co ON co.group_id = b.group_id AND co.name = b.obj2
),
keyed AS (
  SELECT group_id,
         md5(group_id || '|' || lower(subj_c)) AS subj_uuid, pred,
         md5(group_id || '|' || lower(obj_c)) AS obj_uuid,
         valid_at, episode_uuid, fact
  FROM resf
),
efirst AS (
  SELECT *, row_number() OVER (
      PARTITION BY group_id, subj_uuid, pred, obj_uuid
      ORDER BY valid_at, episode_uuid) AS rn
  FROM keyed
),
edges_t AS (
  SELECT md5(group_id || '|' || subj_uuid || '|' || pred || '|' || obj_uuid)
           AS uuid,
         group_id, pred, fact
  FROM efirst WHERE rn = 1
),
etoks AS (SELECT uuid, regexp_extract_all(lower(fact), '\w+') AS tk FROM edges_t),
estats AS (
  SELECT count(*)::DOUBLE AS n, sum(len(tk))::DOUBLE / count(*) AS avgdl
  FROM etoks
),
etf AS (
  SELECT uuid, len(tk)::DOUBLE AS dl,
         {tf_cols}
  FROM etoks
),
edfs AS (SELECT {df_cols} FROM etf),
escore AS (
  SELECT uuid,
  {score_terms} AS s
  FROM etf, estats, edfs
),
bm25_list AS (
  SELECT uuid, row_number() OVER (ORDER BY s DESC, uuid) - 1 AS rnk
  FROM escore WHERE s > 0
  ORDER BY s DESC, uuid LIMIT 20
),
fstr AS (SELECT uuid, '^' || lower(fact) || '$' AS s FROM edges_t),
fh AS (
  SELECT uuid,
         (ord(substr(s, i, 1))::HUGEINT * {p2}::HUGEINT
          + ord(substr(s, i + 1, 1))::HUGEINT * {_POLY_INT}::HUGEINT
          + ord(substr(s, i + 2, 1))::HUGEINT)
           % 18446744073709551616::HUGEINT AS h
  FROM fstr, LATERAL unnest(range(1, length(s) - 1)) AS u(i)
),
fbuck AS (
  SELECT uuid, (h % 64)::INT AS bucket,
         sum(CASE WHEN (h // 65536) % 2 = 1 THEN 1.0 ELSE -1.0 END) AS cnt
  FROM fh GROUP BY 1, 2
),
fnorm AS (SELECT uuid, sqrt(sum(cnt * cnt)) AS nrm FROM fbuck GROUP BY uuid),
qc(bucket, qv) AS (VALUES {qvals}),
fcos AS (
  SELECT f.uuid,
         round(sum(f.cnt * q.qv) / (n.nrm * sqrt({q_sumsq})), 9) AS cs
  FROM fbuck f JOIN qc q USING (bucket) JOIN fnorm n USING (uuid)
  GROUP BY f.uuid, n.nrm
),
cos_list AS (
  SELECT uuid, row_number() OVER (ORDER BY cs DESC, uuid) - 1 AS rnk
  FROM (SELECT e.uuid, coalesce(f.cs, 0.0) AS cs
        FROM edges_t e LEFT JOIN fcos f USING (uuid))
  WHERE cs >= 0
  ORDER BY cs DESC, uuid LIMIT 20
),
allr AS (
  SELECT uuid, rnk FROM bm25_list
  UNION ALL SELECT uuid, rnk FROM cos_list
),
rrfs AS (SELECT uuid, sum(1.0 / (rnk + 1)) AS sc FROM allr GROUP BY uuid),
top AS (SELECT uuid, sc FROM rrfs ORDER BY sc DESC, uuid LIMIT 10)
SELECT e.uuid, e.group_id, e.pred, e.fact
FROM top t JOIN edges_t e USING (uuid)
"""


def _pages(sf_dir: str):
    from graphiti_ray.sources.pages import pages_dataset

    return pages_dataset(sf_dir)


# several queries need the full KG build; memoize per (sf_dir, embeddings)
# so the driver's correctness sweep builds once per scale, not per query
_KG_CACHE: dict = {}


def _kg_tables(sf_dir: str, embeddings: bool):
    key = (sf_dir, embeddings)
    if key not in _KG_CACHE:
        from graphiti_ray.pipelines.kg import build_kg

        _KG_CACHE[key] = build_kg(_pages(sf_dir), embeddings=embeddings)
    return _KG_CACHE[key]


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: full KG build, returns
    the final bi-temporal edges table."""
    from graphiti_ray.pipelines.kg import build_kg

    tables = build_kg(_pages("/root/testdata/sf0.001"), num_partitions=8)
    return tables["edges"]


# ---------------------------------------------------------------------------
# queries (Ray) — column names match oracle_sql exactly
# ---------------------------------------------------------------------------


def _q_kg_episodes(sf_dir: str):
    from graphiti_ray.stages.extract import episodes_dataset

    eps = episodes_dataset(_pages(sf_dir))
    return eps.select_columns(
        ["uuid", "name", "group_id", "content", "valid_at", "summary_text"]
    )


def _q_kg_mentions(sf_dir: str):
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.nlp import mentions_dataset

    m = mentions_dataset(episodes_dataset(_pages(sf_dir)))
    return m.select_columns(["episode_uuid", "group_id", "name", "valid_at"])


def _q_kg_mentions_reflexion(sf_dir: str):
    """M2 reflexion loop under the oracle gate: a deliberately WEAK first
    pass (drops names past 'M') plus the exhaustive extractor as the
    re-prompt; the loop's converged union-dedup must equal single-pass
    full extraction, so the SAME kg_mentions oracle gates it — this
    checks the recovery control flow, not just the extractor."""
    import pyarrow as pa

    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.nlp import MentionExtractor, mentions_with_reflexion

    eps = episodes_dataset(_pages(sf_dir))
    full = MentionExtractor()

    def weak(batch: pa.Table) -> pa.Table:
        out = full(batch)
        names = out.column("name").to_pylist()
        keep = pa.array([n[:1] <= "M" for n in names], pa.bool_())
        return out.filter(keep)

    m = mentions_with_reflexion(eps, extractors=[weak, full], max_passes=4)
    return m.select_columns(["episode_uuid", "group_id", "name", "valid_at"])


def _q_kg_triples_raw(sf_dir: str):
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.nlp import triples_dataset

    t = triples_dataset(episodes_dataset(_pages(sf_dir)))
    return t.select_columns(
        ["episode_uuid", "group_id", "subj_name", "pred", "obj_name", "fact", "valid_at"]
    )


def _q_kg_nodes(sf_dir: str):
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.link import canonical_map, nodes_from_canonical
    from graphiti_ray.stages.nlp import mentions_dataset

    canon = canonical_map(mentions_dataset(episodes_dataset(_pages(sf_dir))))
    nodes = nodes_from_canonical(canon)
    return nodes.select_columns(["uuid", "name", "group_id", "mention_count"])


def _q_kg_edges(sf_dir: str):
    tables = _kg_tables(sf_dir, embeddings=False)
    return tables["edges"].select_columns(
        [
            "uuid",
            "group_id",
            "subj_canonical",
            "pred",
            "obj_canonical",
            "valid_at",
            "invalid_at",
            "episode_count",
        ]
    )


def _q_kg_edges_messages(sf_dir: str):
    """kg_edges over the MESSAGE-source fixture (sources/messages.py spec
    msg1): every doc becomes a 2-message conversation whose episodes carry
    the reference's "role(role_type): content" body format (ingest.py:79);
    the extractor pulls the SPEAKER (before the colon) as an entity
    (prompts/extract_nodes.py:98) plus the body's relations, and the same
    linking + temporal pipeline runs. The oracle re-derives the whole graph
    — speakers included in alias resolution — from documents with SQL."""
    from graphiti_ray.pipelines.kg import build_kg_from_episodes
    from graphiti_ray.sources.messages import (
        message_episodes,
        messages_from_documents,
    )

    docs = _read_documents(sf_dir, columns=["doc_id", "source"])
    eps = message_episodes(messages_from_documents(docs))
    tables = build_kg_from_episodes(eps, embeddings=False)
    return tables["edges"].select_columns(
        [
            "uuid",
            "group_id",
            "subj_canonical",
            "pred",
            "obj_canonical",
            "valid_at",
            "invalid_at",
            "episode_count",
        ]
    )


def _q_kg_mentions_messages(sf_dir: str):
    """M1 mentions over the message fixture — the row that proves the
    speaker-extraction rule (the speaker mention exists even when the
    speaker never appears in any message body,
    prompts/extract_nodes.py:98)."""
    from graphiti_ray.sources.messages import (
        message_episodes,
        messages_from_documents,
    )
    from graphiti_ray.stages.nlp import mentions_dataset

    docs = _read_documents(sf_dir, columns=["doc_id", "source"])
    eps = message_episodes(messages_from_documents(docs))
    m = mentions_dataset(eps)
    return m.select_columns(["episode_uuid", "group_id", "name", "valid_at"])


def _q_kg_edges_incremental(sf_dir: str):
    """Incremental == batch, value-exact: build the KG from a deterministic
    HALF of the pages (md5(url) parity), then ``add_pages`` the other
    half; the resulting edges table must match the full batch build —
    checked against the *same* kg_edges oracle SQL. Exercises append-only
    episodes, group-granular recompute, and retro-invalidation on the
    driver's gate, not just in pytest."""
    import functools
    import hashlib
    import shutil

    import pyarrow as pa

    from graphiti_ray.pipelines.incremental import add_pages
    from graphiti_ray.pipelines.kg import run_kg
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write, read_table

    root = (
        "/tmp/graphiti_ray_incr/"
        f"{hashlib.md5(sf_dir.encode()).hexdigest()[:8]}_{os.getpid()}"
    )
    shutil.rmtree(root, ignore_errors=True)
    pages = _pages(sf_dir).materialize()

    def half(batch: pa.Table, first: bool) -> pa.Table:
        mask = pa.array(
            [
                (int(hashlib.md5(u.encode()).hexdigest(), 16) % 2 == 0) == first
                for u in batch.column("url").to_pylist()
            ],
            pa.bool_(),
        )
        return batch.filter(mask)

    first_half = pages.map_batches(
        functools.partial(half, first=True), batch_format="pyarrow"
    )
    second_half = pages.map_batches(
        functools.partial(half, first=False), batch_format="pyarrow"
    )
    checkpointed_write(episodes_dataset(first_half), root, "episodes", {})
    run_kg("unused", root, embeddings=False)
    add_pages(root, second_half, embeddings=False)
    return read_table(root, "edges").select_columns(
        [
            "uuid",
            "group_id",
            "subj_canonical",
            "pred",
            "obj_canonical",
            "valid_at",
            "invalid_at",
            "episode_count",
        ]
    )


def _q_kg_edges_ingest_queue(sf_dir: str):
    """S3 file-queue ingest == batch, value-exact: bootstrap the KG from a
    deterministic third of the pages, drop the other two thirds into an
    incoming directory as parquet files, drain them with
    ``ingest_directory`` (lexicographic order = arrival order, one
    add_pages micro-batch per file, INGEST_LOG persistence), then drain
    AGAIN — the replay must skip everything — and check the final edges
    against the same kg_edges oracle as the batch build."""
    import hashlib
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphiti_ray.pipelines.incremental import ingest_directory
    from graphiti_ray.pipelines.kg import run_kg
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.state.checkpoint import checkpointed_write, read_table

    # pid-scoped root: two concurrent harness runs on the same sf_dir must
    # not rmtree each other's live checkpoint trees
    root = (
        "/tmp/graphiti_ray_ingestq/"
        f"{hashlib.md5(sf_dir.encode()).hexdigest()[:8]}_{os.getpid()}"
    )
    shutil.rmtree(root, ignore_errors=True)
    inc = os.path.join(root, "incoming")
    os.makedirs(inc)

    tbl = _pages(sf_dir).materialize().to_arrow_refs()
    import ray as _ray

    tbl = pa.concat_tables(_ray.get(tbl))
    shard = pa.array(
        [
            int(hashlib.md5(u.encode()).hexdigest(), 16) % 3
            for u in tbl.column("url").to_pylist()
        ],
        pa.int8(),
    )
    tbl = tbl.append_column("_shard", shard)
    import pyarrow.compute as pc

    import ray.data as rd

    boot = tbl.filter(pc.equal(tbl.column("_shard"), 0)).drop_columns(["_shard"])
    checkpointed_write(episodes_dataset(rd.from_arrow(boot)), root, "episodes", {})
    run_kg("unused", root, embeddings=False)
    for s in (1, 2):
        pq.write_table(
            tbl.filter(pc.equal(tbl.column("_shard"), s)).drop_columns(["_shard"]),
            os.path.join(inc, f"batch_{s}.parquet"),
        )
    ingest_directory(root, inc, embeddings=False)
    replay = ingest_directory(root, inc, embeddings=False)
    assert all(r.get("skipped") for r in replay), "replay must be a no-op"
    out = (
        read_table(root, "edges")
        .select_columns(
            [
                "uuid",
                "group_id",
                "subj_canonical",
                "pred",
                "obj_canonical",
                "valid_at",
                "invalid_at",
                "episode_count",
            ]
        )
        .materialize()  # pin to the object store BEFORE deleting the files
    )
    shutil.rmtree(root, ignore_errors=True)
    return out


# --- training-data ops -----------------------------------------------------


def _q_dedup_exact(sf_dir: str):
    from graphiti_ray.stages.dedup import exact_dedup_documents

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return exact_dedup_documents(docs)


def _q_dedup_minhash(sf_dir: str):
    from graphiti_ray.stages.dedup import minhash_near_dup

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return minhash_near_dup(docs)


def _q_dedup_levenshtein(sf_dir: str):
    """Two-stage near-dup refinement: MinHash-LSH candidates exact-verified
    by Levenshtein edit distance (cost bounded by candidate count, never
    the corpus). Reference analogue: fuzzy-candidate re-scoring before
    merge, graphiti_core/utils/bulk_utils.py:291-396."""
    from graphiti_ray.stages.dedup import levenshtein_verified_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return levenshtein_verified_pairs(docs)


def _q_dedup_simhash(sf_dir: str):
    from graphiti_ray.stages.dedup import simhash_near_dup

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return simhash_near_dup(docs)


def _q_dedup_embedding(sf_dir: str):
    """Exact all-pairs cosine near-dup (oracle-checked); the LSH variant
    (embedding_near_dup) is the approximate scale path, pytest-covered.
    τ=0.45 because the synthetic embeddings have no high-cosine dups —
    a vacuous 0-row query proves nothing."""

    from graphiti_ray.stages.dedup import embedding_near_dup_exact

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return embedding_near_dup_exact(emb, threshold=0.45)


def _q_dedup_embedding_lsh_full(sf_dir: str):
    """Full-recall gate for the LSH embedding near-dup path (the
    knn_ivf_full trick): n_planes=0 + n_tables=1 + max_bucket >= n puts
    every vector in ONE bucket, so the LSH candidate set is all pairs and
    the output must equal embedding_near_dup_exact value-for-value — the
    oracle certifies the whole LSH machinery (bucketize → union →
    sorted_run_map pair kernel → cross-table Max dedup). Partial-plane
    recall is the pytest-covered approximation knob
    (tests/test_dedup.py). Reference semantics: D2/J1 dedup candidates,
    search_utils.py:662-750."""

    from graphiti_ray.stages.dedup import embedding_near_dup

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return embedding_near_dup(
        emb, threshold=0.45, n_planes=0, n_tables=1, max_bucket=1_000_000
    )


def _q_docs_minimizers(sf_dir: str):
    """(w,k)-minimizer sketch (minimap-style): positional k-byte Horner
    hashes (the MinHash shingle arithmetic), every length-8 window's
    minimum hash at its leftmost position, distinct (doc_id, pos, h) —
    the density-controlled substring-dedup sketch. One streaming numpy
    pass (sliding_window_view argmin per doc); the twin replays the
    window argmin with a bounded range join + row_number."""
    from graphiti_ray.stages.dedup import minimizers

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return minimizers(docs, w=8)


def _minimizers_oracle_sql(k: int = 5, w: int = 8) -> str:
    return _minimizers_chain_sql(k, w) + (
        "\nSELECT DISTINCT doc_id, i AS pos, h FROM wj WHERE rk = 1\n"
    )


def _minimizer_pairs_oracle_sql(
    k: int = 5, w: int = 8, min_shared: int = 3, hot_df: int = 32
) -> str:
    return _minimizers_chain_sql(k, w) + f"""
, mm AS (SELECT DISTINCT doc_id, h FROM wj WHERE rk = 1),
okh AS (SELECT h FROM mm GROUP BY h HAVING count(*) BETWEEN 2 AND {hot_df}),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM mm a JOIN mm b ON a.h = b.h AND a.doc_id < b.doc_id
  WHERE a.h IN (SELECT h FROM okh)
)
SELECT doc_a, doc_b, count(*) AS shared
FROM p GROUP BY 1, 2 HAVING count(*) >= {min_shared}
"""


def _minimizers_chain_sql(k: int = 5, w: int = 8) -> str:
    p_pow = [pow(_POLY_INT, j, _M64) for j in range(k)]
    terms = " + ".join(
        [f"b * {p_pow[k - 1]}::HUGEINT"]
        + [
            f"lead(b, {j}) OVER win * {p_pow[k - 1 - j]}::HUGEINT"
            for j in range(1, k)
        ]
    )
    return f"""
WITH lt AS (
  SELECT doc_id, lower(text) AS t FROM documents
  WHERE length(lower(text)) >= {k}
),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
),
hashes AS (
  SELECT doc_id, i, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {k - 1}
),
docm AS (SELECT doc_id, max(i) AS m FROM hashes GROUP BY doc_id),
starts AS (
  SELECT doc_id, u.j
  FROM docm, LATERAL unnest(range(1, greatest(m - {w - 1}, 1) + 1)) AS u(j)
),
wj AS (
  SELECT h.doc_id, s.j, h.i, h.h,
         row_number() OVER (PARTITION BY h.doc_id, s.j ORDER BY h.h, h.i)
           AS rk
  FROM starts s
  JOIN hashes h ON h.doc_id = s.doc_id
   AND h.i BETWEEN s.j AND s.j + {w - 1}
)
"""


def _q_dedup_minimizer(sf_dir: str):
    """Minimizer-sketch near-dup pairs: docs sharing ≥3 distinct
    (8,5)-minimizer hashes, hub hashes (df > 32) dropped on both sides —
    the substring-level dedup family member. One range sort on h + the
    run pair kernel (bounded-carry truncate, provably exact under the
    drop rule) + one keyed count."""
    from graphiti_ray.stages.dedup import minimizer_dedup_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return minimizer_dedup_pairs(docs)


def _q_dedup_snm(sf_dir: str):
    """Sorted-neighborhood (Hernández–Stolfo) near-dup blocking: ONE
    global range sort by the space-stripped 24-char text prefix, each row
    compared only with the ≤3 rows before it in sort order (the window
    rides `ops.sorted_lag_list`'s block-tail exchange — no shuffle join,
    no bucket skew), exact distinct-token Jaccard on the 1e6 lattice."""
    from graphiti_ray.stages.dedup import sorted_neighborhood_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return sorted_neighborhood_pairs(docs, window=4, key_len=24)


def _q_dedup_ngram(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (rarity-filtered bottom-k
    blocking + full-set intersection verification) — the exact member of
    the dedup family (MinHash estimates the same quantity). Oracle: the
    whole pipeline in SQL — shingle hashes with the same hugeint Horner
    arithmetic, bottom-k candidate keys via row_number, hub-key drop
    (df > NGRAM_HOT_DF), min-shared-key pair dedup, exact intersection
    Jaccard. 25/25 true ≥0.8 pairs found at sf0.01 (full recall; the
    unfiltered bottom-k variant lost 84% to hub-bucket truncation)."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.dedup import SHINGLE_K, ngram_jaccard_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    # docs shorter than the shingle width are excluded on BOTH sides: the
    # engine pads them to one shingle (library semantics), which the SQL
    # twin's substr walk cannot express — the guard keeps the check exact
    # on any corpus, not just ones without tiny docs
    docs = docs.map_batches(
        lambda t: t.filter(
            pc.greater_equal(pc.utf8_length(t.column("text")), SHINGLE_K)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return ngram_jaccard_pairs(docs, threshold=0.8)


def _ngram_oracle_sql(measure: str = "jaccard", threshold: float = 0.8) -> str:
    from graphiti_ray.stages.dedup import (
        NGRAM_CAND_KEYS,
        NGRAM_HOT_DF,
        SHINGLE_K,
    )

    if measure == "containment":
        expr = "i.shared::DOUBLE / least(za.n, zb.n)"
    else:
        expr = "i.shared::DOUBLE / (za.n + zb.n - i.shared)"

    p_pow = [pow(_POLY_INT, k, _M64) for k in range(SHINGLE_K)]
    shingle_terms = " + ".join(
        [f"b * {p_pow[SHINGLE_K - 1]}::HUGEINT"]
        + [
            f"lead(b, {j}) OVER w * {p_pow[SHINGLE_K - 1 - j]}::HUGEINT"
            for j in range(1, SHINGLE_K)
        ]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents
            WHERE length(text) >= {SHINGLE_K}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({shingle_terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
shingles AS (
  SELECT DISTINCT doc_id, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {SHINGLE_K - 1}
),
sizes AS (SELECT doc_id, count(*) AS n FROM shingles GROUP BY 1),
-- bottom-k candidate keys per doc; hub keys (candidate-df > NGRAM_HOT_DF)
-- are DROPPED, so buckets never exceed NGRAM_HOT_DF (no truncation)
ck AS (
  SELECT doc_id, h
  FROM (SELECT doc_id, h,
               row_number() OVER (PARTITION BY doc_id ORDER BY h) AS rn
        FROM shingles)
  WHERE rn <= {NGRAM_CAND_KEYS}
),
dfc AS (SELECT h, count(*) AS c FROM ck GROUP BY 1),
keys AS (SELECT k.doc_id, k.h FROM ck k JOIN dfc d USING (h)
         WHERE d.c <= {NGRAM_HOT_DF}),
buck AS (SELECT h FROM dfc WHERE c BETWEEN 2 AND {NGRAM_HOT_DF}),
cand AS (
  SELECT a.doc_id AS a, b.doc_id AS b, a.h
  FROM keys a JOIN buck USING (h)
  JOIN keys b ON a.h = b.h AND a.doc_id < b.doc_id
),
-- a pair counts only from the bucket of its SMALLEST shared surviving key
firstk AS (
  SELECT c.a, c.b, c.h, min(ka.h) AS h0
  FROM cand c
  JOIN keys ka ON ka.doc_id = c.a
  JOIN keys kb ON kb.doc_id = c.b AND kb.h = ka.h
  GROUP BY 1, 2, 3
),
pairs0 AS (SELECT DISTINCT a, b FROM firstk WHERE h = h0),
inter AS (
  SELECT p.a, p.b, count(*) AS shared
  FROM pairs0 p
  JOIN shingles sa ON sa.doc_id = p.a
  JOIN shingles sb ON sb.doc_id = p.b AND sb.h = sa.h
  GROUP BY 1, 2
)
SELECT i.a, i.b, {expr} AS {measure}
FROM inter i
JOIN sizes za ON za.doc_id = i.a
JOIN sizes zb ON zb.doc_id = i.b
WHERE {expr} >= {threshold}
"""


def _q_docs_chunks(sf_dir: str):
    """Training-window chunking: fixed 512-char windows every 448 chars
    (64 overlap) — the flat-map fan-out of LLM data prep. Oracle: the
    same start grid via range() + substr."""
    from graphiti_ray.stages.textstats import chunk_documents

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return chunk_documents(docs)


def _q_docs_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs sharing any distinct char 8-gram
    with the probe set (docs with doc_id % 97 == 0 stand in for a
    benchmark) are flagged. Probe grams broadcast once; corpus streams.
    Oracle: 8-gram Horner shingles + probe join in SQL."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.dedup import DECON_K, decontaminate

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    # guard: docs shorter than the gram width take the engine's padding
    # fallback, which the SQL substr walk cannot express
    docs = docs.map_batches(
        lambda t: t.filter(
            pc.greater_equal(pc.utf8_length(t.column("text")), DECON_K)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    def is_probe(t):
        # doc_id % 97 == 0 (pyarrow has no modulo kernel; ids are ≥ 0 so
        # truncated integer division reconstructs it)
        d = t.column("doc_id")
        return t.filter(
            pc.equal(pc.subtract(d, pc.multiply(pc.divide(d, 97), 97)), 0)
        )

    probes = [
        r["text"]
        for r in docs.map_batches(
            is_probe, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
    ]
    return decontaminate(docs, probes)


def _decon_oracle_sql() -> str:
    from graphiti_ray.stages.dedup import DECON_K

    p_pow = [pow(_POLY_INT, j, _M64) for j in range(DECON_K)]
    terms = " + ".join(
        [f"b * {p_pow[DECON_K - 1]}::HUGEINT"]
        + [
            f"lead(b, {j}) OVER w * {p_pow[DECON_K - 1 - j]}::HUGEINT"
            for j in range(1, DECON_K)
        ]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents
            WHERE length(text) >= {DECON_K}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
grams AS (
  SELECT DISTINCT doc_id, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {DECON_K - 1}
),
probe AS (SELECT DISTINCT h FROM grams WHERE doc_id % 97 = 0),
shared AS (
  SELECT g.doc_id, count(*) AS c
  FROM grams g JOIN probe p USING (h) GROUP BY 1
)
SELECT l.doc_id, coalesce(s.c, 0)::BIGINT AS n_shared_grams,
       (coalesce(s.c, 0) > 0)::BIGINT AS contaminated
FROM lt l LEFT JOIN shared s USING (doc_id)
"""


def _q_docs_pii(sf_dir: str):
    """PII redaction: a deterministic PII header (email / IPv4 / phone
    derived from doc_id arithmetic) is prepended so the check is
    non-vacuous, then the actor-pool RedactPII stage runs its sequential
    email → ip → phone passes. Oracle: the identical RE2-safe regexes in
    nested regexp_replace / regexp_extract_all."""
    import pyarrow as pa

    from graphiti_ray.stages.textstats import redact_pii

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        aug = [
            f"contact{d}@mail{d % 7}.example.com ip 10.{d % 256}.0."
            f"{(d * 7) % 256} tel +1555{d:07d} {t}"
            for d, t in zip(ids, texts)
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(aug, pa.string())}
        )

    return redact_pii(
        docs.map_batches(augment, batch_format="pyarrow", zero_copy_batch=True)
    )


def _chunks_oracle_sql() -> str:
    from graphiti_ray.stages.textstats import CHUNK_OVERLAP, CHUNK_SIZE

    step = CHUNK_SIZE - CHUNK_OVERLAP
    return f"""
WITH d AS (SELECT doc_id, text, length(text) AS n FROM documents)
SELECT doc_id, (s // {step})::BIGINT AS chunk_idx,
       substr(text, s + 1, {CHUNK_SIZE}) AS chunk_text,
       length(substr(text, s + 1, {CHUNK_SIZE}))::BIGINT AS n_chars
FROM d, LATERAL unnest(range(0, greatest(n - {CHUNK_OVERLAP}, 1), {step})) AS u(s)
"""


def _pii_oracle_sql() -> str:
    from graphiti_ray.stages.textstats import PII_EMAIL, PII_IPV4, PII_PHONE

    return f"""
WITH aug AS (
  SELECT doc_id,
         'contact' || doc_id || '@mail' || (doc_id % 7) ||
         '.example.com ip 10.' || (doc_id % 256) || '.0.' ||
         ((doc_id * 7) % 256) || ' tel +1555' ||
         lpad(doc_id::VARCHAR, 7, '0') || ' ' || text AS t0
  FROM documents
),
p1 AS (
  SELECT doc_id,
         len(regexp_extract_all(t0, '{PII_EMAIL}')) AS n_emails,
         regexp_replace(t0, '{PII_EMAIL}', '<EMAIL>', 'g') AS t1
  FROM aug
),
p2 AS (
  SELECT doc_id, n_emails,
         len(regexp_extract_all(t1, '{PII_IPV4}')) AS n_ips,
         regexp_replace(t1, '{PII_IPV4}', '<IP>', 'g') AS t2
  FROM p1
),
p3 AS (
  SELECT doc_id, n_emails, n_ips,
         len(regexp_extract_all(t2, '{PII_PHONE}')) AS n_phones,
         regexp_replace(t2, '{PII_PHONE}', '<PHONE>', 'g') AS clean_text
  FROM p2
)
SELECT doc_id, clean_text, n_emails::BIGINT AS n_emails,
       n_ips::BIGINT AS n_ips, n_phones::BIGINT AS n_phones
FROM p3
"""


def _q_text_tokens(sf_dir: str):
    from graphiti_ray.stages.textstats import token_stats

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return token_stats(docs)


def _q_text_quality(sf_dir: str):
    from graphiti_ray.stages.textstats import quality_counts

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return quality_counts(docs)


def _q_text_langid(sf_dir: str):
    from graphiti_ray.stages.textstats import language_id

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return language_id(docs)


def _q_docs_repetition(sf_dir: str):
    from graphiti_ray.stages.textstats import repetition_stats

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return repetition_stats(docs)


def _q_docs_dup_lines(sf_dir: str):
    """The synthetic corpus is single-line, so line structure is
    synthesized deterministically (10-word chunks → lines); the near-dup
    clusters then share real cross-doc lines, making the check
    non-vacuous. The SQL twin rebuilds the identical chunking."""
    import pyarrow as pa

    from graphiti_ray.stages.textstats import duplicate_lines

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])

    def chunk(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        out = []
        for t in texts:
            ws = t.split()
            out.append(
                "\n".join(" ".join(ws[i : i + 10]) for i in range(0, len(ws), 10))
            )
        return pa.table(
            {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
        )

    return duplicate_lines(docs.map_batches(chunk, batch_format="pyarrow"))


_LANG_STATS_ORACLE = """
SELECT lang,
       count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS sum_chars,
       min(doc_id)::BIGINT AS min_doc_id,
       max(doc_id)::BIGINT AS max_doc_id
FROM documents GROUP BY lang
"""

_KNN_ORACLE = """
WITH q AS (
  SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
  FROM embeddings ORDER BY vec_id LIMIT 32
),
scored AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6) AS cosine
  FROM embeddings e CROSS JOIN q
),
ranked AS (
  SELECT *, row_number() OVER (
      PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
  FROM scored
)
SELECT query_id, vec_id, cosine, rank FROM ranked WHERE rank <= 10
"""


def _q_knn(sf_dir: str):
    from graphiti_ray.stages.similarity import knn_brute_force

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return knn_brute_force(emb, n_queries=32, k=10)


def _q_knn_ivf(sf_dir: str):
    """The IVF ANN path under the oracle gate: with nprobe == n_clusters
    every query probes every cluster, so IVF must return EXACTLY the
    brute-force top-k — the same SQL twin gates the whole IVF machinery
    (driver-sample k-means, centroid broadcast, per-batch assignment,
    probe filter, per-query reduce). Partial-probe recall is the
    pytest-covered approximation knob."""

    from graphiti_ray.stages.similarity import knn_ivf

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return knn_ivf(emb, n_queries=32, k=10, n_clusters=8, nprobe=8)


def _q_embeddings_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means over the FULL embedding corpus (not a
    driver sample) — the clustering primitive behind SemDeDup-style
    semantic bucketing and data-mixing strata. Per iteration: broadcast
    k×dim centroids, one streaming map_batches pass emits per-block
    partial (sum, count) in long format, groupby(cid, pos).sum reduces to
    k×(dim+1) rows, the driver folds only that. Integer-lattice
    arithmetic (floor(v*1000), exact int squared-L2, floor-divide
    centroid update, argmin ties → lowest cid) makes the DuckDB twin
    value-exact with zero float-associativity risk."""

    from graphiti_ray.stages.similarity import kmeans_assign

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return kmeans_assign(emb, k=8, n_iters=3)


def _kmeans_ctes(k: int = 8, n_iters: int = 3) -> str:
    """Shared WITH-prefix: Lloyd's unrolled in SQL (the PageRank-oracle
    trick): vectors in long (vec_id, pos, x) form on the engine's integer
    lattice; each round is assign (exact int squared-L2, ORDER BY d2, cid
    ties) then update (floor(sum/count), empty clusters vanish from the
    GROUP BY); ``fin`` holds the final-round distances with rk=1 the
    assignment."""
    parts = [
        f"""
vx AS (
  SELECT vec_id, i AS pos,
         floor(embedding[i]::DOUBLE * 1000)::BIGINT AS x
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
c0 AS (
  SELECT r.rn - 1 AS cid, v.pos, v.x AS c
  FROM (SELECT vec_id, row_number() OVER (ORDER BY vec_id) AS rn
        FROM embeddings) r
  JOIN vx v USING (vec_id)
  WHERE r.rn <= {k}
)"""
    ]
    for t in range(n_iters - 1):
        parts.append(f"""
a{t} AS (
  SELECT vec_id, cid,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rk
  FROM (
    SELECT v.vec_id, c.cid, sum((v.x - c.c) * (v.x - c.c)) AS d2
    FROM vx v JOIN c{t} c USING (pos)
    GROUP BY 1, 2
  )
),
c{t + 1} AS (
  SELECT a.cid, v.pos,
         floor(sum(v.x)::DOUBLE / count(*))::BIGINT AS c
  FROM a{t} a JOIN vx v USING (vec_id)
  WHERE a.rk = 1
  GROUP BY 1, 2
)""")
    final_c = f"c{n_iters - 1}"
    return (
        "WITH "
        + ",".join(p.strip() for p in parts)
        + f""",
fin AS (
  SELECT vec_id, cid, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rk
  FROM (
    SELECT v.vec_id, c.cid, sum((v.x - c.c) * (v.x - c.c)) AS d2
    FROM vx v JOIN {final_c} c USING (pos)
    GROUP BY 1, 2
  )
)"""
    )


def _kmeans_oracle_sql(k: int = 8, n_iters: int = 3) -> str:
    return (
        _kmeans_ctes(k, n_iters)
        + """
SELECT vec_id, cid::BIGINT AS cluster, d2::BIGINT AS dist
FROM fin WHERE rk = 1
"""
    )


def _q_docs_blocklist(sf_dir: str):
    """C4-style blocklist (badword-ratio) gate: keep documents whose
    blocklisted-term density stays <= 1/20 of the whitespace token count
    — Raffel et al. 2020's bad-words filter in its RefinedWeb/Gopher
    ratio form. One vectorized RE2 alternation pass
    (pc.count_substring_regex), integer ratio test, no shuffle. Oracle:
    the identical \\b-alternation via regexp_extract_all."""
    from graphiti_ray.stages.textstats import blocklist_gate

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return blocklist_gate(docs)


_DOCS_BLOCKLIST_ORACLE = r"""
WITH s AS (
  SELECT doc_id,
    len(regexp_extract_all(text, '\b(slow|stale|legacy)\b'))::BIGINT AS n_bad,
    len(string_split_regex(text, '\s+'))::BIGINT AS n_words
  FROM documents)
SELECT doc_id, n_bad, n_words FROM s WHERE n_bad * 20 <= n_words
"""


def _q_docs_coverage(sf_dir: str):
    """Greedy max-coverage corpus selection (submodular data-selection
    baseline): 5 unrolled rounds, each picking the doc with the most
    still-uncovered distinct tokens (ties doc_id asc), stopping when the
    marginal gain hits 0. Oracle: the identical greedy rounds as
    MATERIALIZED CTEs."""
    from graphiti_ray.pipelines.corpus import greedy_coverage_select

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return greedy_coverage_select(docs, k=5)


def _coverage_oracle_sql(k: int = 5) -> str:
    parts = [
        r"""tok AS MATERIALIZED (
  SELECT DISTINCT doc_id, l[u.i] || ' ' || l[u.i + 1] AS token
  FROM (SELECT doc_id,
               list_filter(string_split_regex(text, '\s+'),
                           x -> x <> '') AS l
        FROM documents),
  LATERAL unnest(range(1, len(l))) AS u(i)
)""",
        """p1 AS MATERIALIZED (
  SELECT doc_id, count(*)::BIGINT AS gain FROM tok GROUP BY doc_id
  ORDER BY gain DESC, doc_id LIMIT 1
)""",
        "c1 AS MATERIALIZED (SELECT DISTINCT t.token FROM tok t "
        "JOIN p1 USING (doc_id))",
    ]
    for r in range(2, k + 1):
        parts.append(
            f"""p{r} AS MATERIALIZED (
  SELECT doc_id, count(*)::BIGINT AS gain FROM tok
  WHERE token NOT IN (SELECT token FROM c{r - 1})
  GROUP BY doc_id ORDER BY gain DESC, doc_id LIMIT 1
)"""
        )
        parts.append(
            f"""c{r} AS MATERIALIZED (
  SELECT token FROM c{r - 1}
  UNION
  SELECT t.token FROM tok t JOIN p{r} USING (doc_id)
)"""
        )
    selects = [
        f"SELECT {r}::BIGINT AS round, doc_id, gain FROM p{r}"
        for r in range(1, k + 1)
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL ".join(selects)


_BM25_BATCH_QUERIES = ["spark stream", "hash join merge", "slow fast"]


def _q_docs_bm25_batch(sf_dir: str):
    """BATCHED multi-query BM25 retrieval — the production search shape
    (N queries amortize ONE corpus scoring pass instead of N): every
    batch scores all queries against one query-scoped broadcast index
    subset; per-query top-10 via one (query_id, score) range sort +
    head-per-key. Oracle: the pivoted Okapi formula per query, unioned."""
    import pyarrow as pa

    import ray

    from graphiti_ray.pipelines.search import _tokens, build_bm25_index

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    idx = build_bm25_index(docs, "text")
    q_terms = [_tokens(q) for q in _BM25_BATCH_QUERIES]
    all_terms = sorted({t for q in q_terms for t in q})
    iref = ray.put(idx.subset(all_terms))

    def score(batch: pa.Table, _ref=iref) -> pa.Table:
        import numpy as np
        import pandas as pd

        from graphiti_ray.pipelines.search import bm25_score_texts
        from graphiti_ray.stages.link import _cached_lut

        index = _cached_lut(_ref)
        texts = pd.Series(batch.column("text").to_pylist())
        parts = []
        for qi, terms in enumerate(q_terms):
            s = np.round(bm25_score_texts(index, terms, texts), 6)
            parts.append(
                pa.table(
                    {
                        "query_id": pa.array([qi] * len(texts), pa.int64()),
                        "doc_id": batch.column("doc_id"),
                        "bm25": pa.array(s, pa.float64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import head_k_per_key

    scored = docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    # head_k_per_key orders ascending: negate the score for desc-order heads
    keyed = scored.map_batches(
        lambda t: t.append_column("neg_bm25", pc.negate(t.column("bm25"))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return head_k_per_key(
        keyed,
        key_cols=["query_id"],
        order_cols=["neg_bm25", "doc_id"],
        k=10,
    ).drop_columns(["neg_bm25"])


def _bm25_batch_oracle_sql() -> str:
    from graphiti_ray.pipelines.search import _tokens

    selects = []
    for qi, q in enumerate(_BM25_BATCH_QUERIES):
        terms = _tokens(q)
        fcols = ",\n".join(
            f"         len(list_filter(tk, x -> x = '{t}'))::DOUBLE AS f{j}"
            for j, t in enumerate(terms)
        )
        dcols = ", ".join(
            f"sum((f{j} > 0)::INT)::DOUBLE AS d{j}" for j in range(len(terms))
        )
        score = "\n  + ".join(
            f"(CASE WHEN f{j} > 0 THEN ln(1 + (n - d{j} + 0.5) / (d{j} + 0.5))"
            f" * f{j} * (1.2 + 1)"
            f" / (f{j} + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END)"
            for j in range(len(terms))
        )
        selects.append(
            rf"""
SELECT * FROM (
  WITH toks AS (
    SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
  ),
  stats AS (
    SELECT count(*)::DOUBLE AS n,
           sum(len(tk))::DOUBLE / count(*) AS avgdl
    FROM toks
  ),
  tf AS (
    SELECT doc_id, len(tk)::DOUBLE AS dl,
{fcols}
    FROM toks
  ),
  dfs AS (SELECT {dcols} FROM tf)
  SELECT {qi}::BIGINT AS query_id, doc_id,
         round({score}, 6) AS bm25
  FROM tf, stats, dfs
  ORDER BY bm25 DESC, doc_id LIMIT 10
)"""
        )
    return "\nUNION ALL ".join(selects)


def _q_docs_mi(sf_dir: str):
    """Mutual information between lang and source (the column-dependency
    diagnostic a data profiler reports): per-cell PMI terms
    n_ls·rint(ln(N·n_ls/(n_l·n_s))·1e6) as exact int64 (MI =
    Σ terms / (N·1e6) derived) — the docs_psi quantization convention
    per contingency cell. One |langs×sources| reduce."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    docs = _read_documents(sf_dir, columns=["source", "lang"])
    cells = (
        docs.groupby(["lang", "source"])
        .aggregate(Count(alias_name="n_ls"))
        .take_all()  # |langs×sources| — parameter-sized
    )
    n_l: dict = {}
    n_s: dict = {}
    total = 0
    for r in cells:
        n_l[r["lang"]] = n_l.get(r["lang"], 0) + int(r["n_ls"])
        n_s[r["source"]] = n_s.get(r["source"], 0) + int(r["n_ls"])
        total += int(r["n_ls"])
    rows = []
    for r in sorted(cells, key=lambda x: (x["lang"], x["source"])):
        nls = int(r["n_ls"])
        term = nls * int(
            np.rint(
                np.log(total * nls / (n_l[r["lang"]] * n_s[r["source"]])) * 1e6
            )
        )
        rows.append(
            {
                "lang": r["lang"],
                "source": r["source"],
                "n_ls": nls,
                "mi_term_e6": term,
            }
        )
    return rd.from_items(rows)


_DOCS_MI_ORACLE = """
WITH c AS (SELECT lang, source, count(*)::BIGINT AS n_ls
           FROM documents GROUP BY 1, 2),
l AS (SELECT lang, sum(n_ls)::BIGINT AS n_l FROM c GROUP BY lang),
s AS (SELECT source, sum(n_ls)::BIGINT AS n_s FROM c GROUP BY source),
t AS (SELECT sum(n_ls)::BIGINT AS n FROM c)
SELECT c.lang, c.source, c.n_ls,
       (c.n_ls * CAST(round(
          ln(t.n::DOUBLE * c.n_ls / (l.n_l * s.n_s)) * 1000000)
          AS BIGINT))::BIGINT AS mi_term_e6
FROM c JOIN l USING (lang) JOIN s USING (source) CROSS JOIN t
"""


def _q_docs_diversity(sf_dir: str):
    """Per-source language-diversity census: Simpson concentration
    sufficient statistics (n_docs, Σ n_lang²) per source — diversity
    1 − Σ(n/N)² stays a derived float off the hash. Two-level keyed
    reduce, all int64."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    docs = _read_documents(sf_dir, columns=["source", "lang"])
    per = docs.groupby(["source", "lang"]).aggregate(Count(alias_name="n"))

    def sq(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n"), pa.int64())
        return pa.table(
            {
                "source": t.column("source"),
                "n": n,
                "n2": pc.multiply(n, n),
            }
        )

    return (
        per.map_batches(sq, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("n", alias_name="n_docs"), Sum("n2", alias_name="sum_n2"))
        .map_batches(
            lambda t: pa.table(
                {
                    "source": t.column("source"),
                    "n_docs": pc.cast(t.column("n_docs"), pa.int64()),
                    "sum_n2": pc.cast(t.column("sum_n2"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


_DOCS_DIVERSITY_ORACLE = """
WITH c AS (SELECT source, lang, count(*)::BIGINT AS n
           FROM documents GROUP BY 1, 2)
SELECT source, sum(n)::BIGINT AS n_docs, sum(n * n)::BIGINT AS sum_n2
FROM c GROUP BY source
"""


def _q_kg_entity_pmi(sf_dir: str):
    """Entity-association mining: PMI over episode co-mentions
    (docs_pmi's collocation arithmetic lifted to the KG) — the basket
    kernel on (episode, entity) baskets, then pmi_e6 =
    rint(ln(N·n_ab/(n_a·n_b))·1e6) on the exact count lattice."""
    import numpy as np
    import pyarrow as pa

    from graphiti_ray.stages.textstats import basket_pairs

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    pairs = basket_pairs(
        ment, min_support=2, key_col="episode_uuid", type_col="entity_uuid"
    )

    def pmi(t: pa.Table) -> pa.Table:
        nab = t.column("n_ab").to_numpy(zero_copy_only=False).astype(np.float64)
        na = t.column("n_a").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t.column("n_b").to_numpy(zero_copy_only=False).astype(np.float64)
        nn = t.column("n_keys").to_numpy(zero_copy_only=False).astype(np.float64)
        e6 = np.rint(np.log(nn * nab / (na * nb)) * 1e6).astype(np.int64)
        return t.append_column("pmi_e6", pa.array(e6, pa.int64()))

    return pairs.map_batches(pmi, batch_format="pyarrow", zero_copy_batch=True)


_KG_ENTITY_PMI_TAIL = """
ut AS (
  SELECT DISTINCT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
p AS (
  SELECT a.eu AS type_a, b.eu AS type_b, count(*)::BIGINT AS n_ab
  FROM ut a JOIN ut b
    ON b.episode_uuid = a.episode_uuid AND a.eu < b.eu
  GROUP BY 1, 2
),
cnt AS (SELECT eu, count(*)::BIGINT AS n FROM ut GROUP BY 1),
u AS (SELECT count(DISTINCT episode_uuid)::BIGINT AS n_keys FROM ut)
SELECT p.type_a, p.type_b, p.n_ab, ca.n AS n_a, cb.n AS n_b, u.n_keys,
       CAST(round(ln(u.n_keys::DOUBLE * p.n_ab / (ca.n * cb.n)) * 1000000)
            AS BIGINT) AS pmi_e6
FROM p
JOIN cnt ca ON ca.eu = p.type_a
JOIN cnt cb ON cb.eu = p.type_b
CROSS JOIN u
WHERE p.n_ab >= 2
"""


def _q_docs_gini(sf_dir: str):
    """Gini coefficient of the token-frequency distribution as exact
    int64 sufficient statistics (the corpus-concentration diagnostic
    next to Zipf): n tokens, s = Σc, w = Σ rank·c with ranks by
    (c asc, token asc) — G = (2w)/(n·s) − (n+1)/n stays a derived float
    off the hash. One keyed count + one window_rank sort."""
    import re as _re

    import pandas as pd
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.ops import window_rank

    ws = _re.compile(r"\s+", _re.ASCII)
    docs = _read_documents(sf_dir, columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        for t in batch.column("text").to_pylist():
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
        .map_batches(
            lambda t: t.append_column(
                "_k", pa.array([0] * t.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )
    )
    ranked = window_rank(counts, ["_k"], ["c", "token"])

    def stats(t: pa.Table) -> pa.Table:
        import numpy as np

        c = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        r = t.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(c)], pa.int64()),
                "s": pa.array([int(c.sum())], pa.int64()),
                "w": pa.array([int((r * c).sum())], pa.int64()),
            }
        )

    st = ranked.map_batches(stats, batch_format="pyarrow")
    return pd.DataFrame(
        {
            "n": [int(st.sum("n") or 0)],
            "s": [int(st.sum("s") or 0)],
            "w": [int(st.sum("w") or 0)],
        }
    ).astype("int64")


_DOCS_GINI_ORACLE = r"""
WITH tok AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
c AS (SELECT token, count(*)::BIGINT AS c FROM tok GROUP BY token),
r AS (SELECT c, row_number() OVER (ORDER BY c, token)::BIGINT AS rk FROM c)
SELECT count(*)::BIGINT AS n, sum(c)::BIGINT AS s,
       sum(rk * c)::BIGINT AS w
FROM r
"""


def _q_docs_zipf_alpha(sf_dir: str):
    """Zipf exponent of the token-frequency distribution (Hill MLE over
    counts ≥ 2, ln terms on the 1e-6 lattice, HUGEINT division) — the
    corpus-shape diagnostic twin of web_degree_alpha."""
    from graphiti_ray.stages.textstats import zipf_alpha

    docs = _read_documents(sf_dir, columns=["text"])
    return zipf_alpha(docs, cmin=2)


_DOCS_ZIPF_ALPHA_ORACLE = r"""
WITH tok AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
c AS (SELECT token, count(*)::BIGINT AS c FROM tok GROUP BY token),
tail AS (SELECT c FROM c WHERE c >= 2),
agg AS (
  SELECT count(*)::BIGINT AS n,
         coalesce(sum(CAST(round(ln(c) * 1000000) AS BIGINT)), 0)::BIGINT
           AS sl
  FROM tail
)
SELECT n AS n_tail,
       (sl - n * CAST(round(ln(2) * 1000000) AS BIGINT))::BIGINT AS s_e6,
       CASE WHEN n = 0
                 OR sl - n * CAST(round(ln(2) * 1000000) AS BIGINT) <= 0
            THEN 0
            ELSE CAST(1000000 + (n::HUGEINT * 1000000000000)
                 // (sl - n * CAST(round(ln(2) * 1000000) AS BIGINT))
                 AS BIGINT)
       END AS alpha_e6
FROM agg
"""


def _q_docs_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth: cumulative distinct-token count over
    the corpus in doc_id order — token first-seen min-reduce → per-doc
    new-token counts → one cross-block prefix sum. Output rows only for
    docs that introduce tokens."""
    import re as _re

    import pyarrow as pa

    from ray.data.aggregate import Min, Sum

    from graphiti_ray.stages.ops import sorted_prefix_sum

    ws = _re.compile(r"\s+", _re.ASCII)
    docs = _read_documents(sf_dir, columns=["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        ids, out = [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for x in set(ws.split(t or "")):
                if x:
                    ids.append(i)
                    out.append(x)
        return pa.table(
            {
                "token": pa.array(out, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    first = (
        docs.map_batches(toks, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Min("doc_id", alias_name="doc_id"))
    )

    def per_doc(batch: pa.Table) -> pa.Table:
        t = (
            batch.select(["doc_id"])
            .group_by(["doc_id"])
            .aggregate([([], "count_all")])
        )
        return t.rename_columns(["doc_id", "p_n"])

    new_per_doc = (
        first.map_batches(per_doc, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(Sum("p_n", alias_name="n_new_tokens"))
    )

    def keyed(batch: pa.Table) -> pa.Table:
        import numpy as np

        return batch.append_column(
            "_k", pa.array(np.zeros(batch.num_rows, np.int64), pa.int64())
        )

    return sorted_prefix_sum(
        new_per_doc.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        by=["_k"],
        order_cols=["doc_id"],
        delta_col="n_new_tokens",
        out_col="cum_vocab",
    ).drop_columns(["_k"])


_DOCS_VOCAB_GROWTH_ORACLE = r"""
WITH tok AS (
  SELECT DISTINCT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
first AS (SELECT token, min(doc_id) AS doc_id FROM tok GROUP BY token),
per_doc AS (SELECT doc_id, count(*)::BIGINT AS n_new_tokens
            FROM first GROUP BY doc_id)
SELECT doc_id, n_new_tokens,
       (sum(n_new_tokens) OVER (ORDER BY doc_id))::BIGINT AS cum_vocab
FROM per_doc
"""


def _q_graph_transitivity(sf_dir: str):
    """Global transitivity ratio census (Newman's C = 3T/W) over the
    co-mention graph, as exact int64 sufficient statistics: t3 = Σ
    per-node triangle memberships (= 3·T, straight off the
    degree-ordered wedge-join kernel) and n_wedges = Σ C(deg, 2) over
    the distinct undirected degrees — the float ratio stays off the
    hash (the assortativity convention)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.graph import (
        _undirected_degrees,
        _undirected_distinct_edges,
        triangle_counts,
    )
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]), batch_format="pyarrow"
    )
    tri = triangle_counts(co, src="entity_uuid", dst="entity_b")
    t3 = int(tri.aggregate(Sum("n_triangles"))["sum(n_triangles)"] or 0)
    deg = _undirected_degrees(
        _undirected_distinct_edges(co, "entity_uuid", "entity_b")
    ).take_all()
    wedges = sum(int(r["deg"]) * (int(r["deg"]) - 1) // 2 for r in deg)
    return pd.DataFrame({"t3": [t3], "n_wedges": [wedges]}).astype("int64")


_GRAPH_TRANSITIVITY_TAIL = """
tri AS (
  SELECT e1.a, e1.b, e2.b AS c
  FROM und e1
  JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b
),
degs AS (
  SELECT v, count(*)::BIGINT AS d FROM (
    SELECT a AS v FROM und UNION ALL SELECT b FROM und
  ) GROUP BY v
)
SELECT (SELECT 3 * count(*) FROM tri)::BIGINT AS t3,
       (SELECT sum(d * (d - 1) // 2) FROM degs)::BIGINT AS n_wedges
"""


def _q_docs_training_mix(sf_dir: str):
    """End-to-end training-mix composite: exact-dedup winners →
    class-balanced downsampling → deterministic 80/10/10 split, each
    stage the already-proven operator chained (the docs-side
    web_pipeline). Oracle: the same three CTE stages composed."""
    from graphiti_ray.pipelines.corpus import training_mix

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "lang"])
    return training_mix(docs)


_DOCS_TRAINING_MIX_ORACLE = """
WITH w AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
d AS (SELECT doc_id, lang FROM documents JOIN w USING (doc_id)),
k AS (SELECT doc_id, lang,
             ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
               AS mk
      FROM d),
n AS (SELECT min(c)::BIGINT AS n_min
      FROM (SELECT count(*)::BIGINT AS c FROM d GROUP BY lang)),
r AS (SELECT doc_id, lang,
             row_number() OVER (PARTITION BY lang ORDER BY mk, doc_id) AS rk
      FROM k)
SELECT doc_id, lang,
       CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < 'cc000000'
            THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < 'e6000000'
            THEN 'val' ELSE 'test' END AS split
FROM r, n WHERE rk <= n.n_min
"""


def _q_kg_pred_pairs(sf_dir: str):
    """Predicate co-occurrence census (schema discovery): which
    predicate pairs appear on the same SUBJECT — the KG instance of the
    basket kernel (distinct (subj, pred) pass → per-subject pairs →
    |preds|² reduce)."""
    from graphiti_ray.stages.textstats import basket_pairs

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"].select_columns(["subj_uuid", "pred"])
    return basket_pairs(
        edges, min_support=1, key_col="subj_uuid", type_col="pred"
    )


_KG_PRED_PAIRS_TAIL = """
ut AS (SELECT DISTINCT subj_uuid, pred FROM merged_id),
p AS (
  SELECT a.pred AS type_a, b.pred AS type_b, count(*)::BIGINT AS n_ab
  FROM ut a JOIN ut b
    ON b.subj_uuid = a.subj_uuid AND a.pred < b.pred
  GROUP BY 1, 2
),
c AS (SELECT pred, count(*)::BIGINT AS n FROM ut GROUP BY 1),
u AS (SELECT count(DISTINCT subj_uuid)::BIGINT AS n_keys FROM merged_id)
SELECT p.type_a, p.type_b, p.n_ab, ca.n AS n_a, cb.n AS n_b, u.n_keys
FROM p
JOIN c ca ON ca.pred = p.type_a
JOIN c cb ON cb.pred = p.type_b
CROSS JOIN u
WHERE p.n_ab >= 1
"""


def _q_web_distance_histogram(sf_dir: str):
    """Directed distance histogram over the host link graph (the
    neighbourhood function N(d); diameter = last nonzero row, effective
    diameter = 90% crossing). Layered dataset-side BFS seeded with every
    host. Oracle: bounded recursive-CTE min-depth closure counted per
    depth."""
    from graphiti_ray.stages.graph import distance_histogram
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return distance_histogram(lg, max_depth=6, src="src_host", dst="dst_host")


def _q_kg_node_summaries(sf_dir: str):
    """Per-entity fact sheet — the entity-summary serving shape: each
    subject's edge census (n_edges, n_preds, first/last valid_at,
    n_active = edges never invalidated). One |entities|-keyed reduce
    over the edges table."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"].select_columns(
        ["subj_uuid", "pred", "valid_at", "invalid_at"]
    )

    def partial(t: pa.Table) -> pa.Table:
        active = pc.cast(pc.is_null(t.column("invalid_at")), pa.int64())
        return pa.table(
            {
                "subj_uuid": t.column("subj_uuid"),
                "pred": t.column("pred"),
                "valid_at": pc.cast(t.column("valid_at"), pa.timestamp("us")),
                "active": active,
            }
        )

    base = edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # distinct predicate count via a (subj, pred) distinct pass
    from graphiti_ray.stages.ops import distinct_by_key

    sp = distinct_by_key(
        base.map_batches(
            lambda t: pa.table(
                {
                    "k": pc.binary_join_element_wise(
                        t.column("subj_uuid"), t.column("pred"), "|"
                    ),
                    "subj_uuid": t.column("subj_uuid"),
                }
            ),
            batch_format="pyarrow",
        ),
        "k",
    )
    npred = sp.groupby("subj_uuid").aggregate(Count(alias_name="n_preds"))
    agg = base.groupby("subj_uuid").aggregate(
        Count(alias_name="n_edges"),
        Min("valid_at", alias_name="first_valid_at"),
        Max("valid_at", alias_name="last_valid_at"),
        Sum("active", alias_name="n_active"),
    )
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    out = safe_join(
        agg,
        npred,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("subj_uuid",),
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "subj_uuid": t.column("subj_uuid"),
                "n_edges": pc.cast(t.column("n_edges"), pa.int64()),
                "n_preds": pc.cast(t.column("n_preds"), pa.int64()),
                "first_valid_at": pc.cast(
                    t.column("first_valid_at"), pa.timestamp("us")
                ),
                "last_valid_at": pc.cast(
                    t.column("last_valid_at"), pa.timestamp("us")
                ),
                "n_active": pc.cast(t.column("n_active"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


_KG_NODE_SUMMARIES_TAIL = """
ed AS (
  SELECT m.subj_uuid, m.pred, m.valid_at,
         coalesce(p.inv, s2.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
)
SELECT subj_uuid,
       count(*)::BIGINT AS n_edges,
       count(DISTINCT pred)::BIGINT AS n_preds,
       min(valid_at) AS first_valid_at,
       max(valid_at) AS last_valid_at,
       count(*) FILTER (invalid_at IS NULL)::BIGINT AS n_active
FROM ed GROUP BY subj_uuid
"""


def _q_docs_balanced(sf_dir: str):
    """Class-balanced downsampling: every lang keeps exactly n_min docs
    (minority-class size), deterministically the smallest md5(doc_id)
    keys per class — the training-mix rebalancing step. Oracle: the
    identical md5[:8] ranking as row_number."""
    from graphiti_ray.pipelines.corpus import balanced_sample

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return balanced_sample(docs)


_DOCS_BALANCED_ORACLE = """
WITH k AS (
  SELECT doc_id, lang,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT AS mk
  FROM documents
),
n AS (SELECT min(c)::BIGINT AS n_min
      FROM (SELECT count(*)::BIGINT AS c FROM documents GROUP BY lang)),
r AS (SELECT doc_id, lang,
             row_number() OVER (PARTITION BY lang ORDER BY mk, doc_id) AS rk
      FROM k)
SELECT doc_id, lang FROM r, n WHERE rk <= n.n_min
"""


def _q_dedup_incremental(sf_dir: str):
    """Incremental MinHash near-dup (the nightly-crawl shape): existing
    corpus = doc_id%2==0 (persisted signature index), new batch = the
    rest; a new doc is flagged when it collides with anything. Oracle:
    the full minhash pair prefix restricted to pairs touching a new
    doc."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.dedup import incremental_near_dup

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])

    def split(keep_even: bool):
        def f(t, _k=keep_even):
            import numpy as np
            import pyarrow as pa

            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 2 == 0) == _k
            return t.filter(pa.array(mask))

        return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    return incremental_near_dup(split(True), split(False))


def _q_docs_jsonl_roundtrip(sf_dir: str):
    """JSONL connector roundtrip — the LLM-corpus interchange format
    (one JSON object per line, sharded per block): documents → .jsonl
    shards → ray.data.read_json → identical table. Oracle: the source
    table itself."""
    import hashlib
    import shutil

    from graphiti_ray.sources.jsonl import read_jsonl, write_jsonl

    root = (
        "/tmp/graphiti_ray_jsonl/"
        f"{hashlib.md5(sf_dir.encode()).hexdigest()[:8]}_{os.getpid()}"
    )
    shutil.rmtree(root, ignore_errors=True)
    docs = _read_documents(sf_dir)
    write_jsonl(docs, root)
    return read_jsonl(root).select_columns(
        ["doc_id", "text", "lang", "source", "n_chars"]
    )


def _q_docs_csv_roundtrip(sf_dir: str):
    """CSV connector roundtrip (the third interchange format next to
    JSONL and WARC): documents → quoted CSV shards → ray.data.read_csv →
    identical table. Oracle: the source table."""
    import hashlib
    import shutil

    from graphiti_ray.sources.jsonl import read_csv, write_csv

    root = (
        "/tmp/graphiti_ray_csv/"
        f"{hashlib.md5(sf_dir.encode()).hexdigest()[:8]}_{os.getpid()}"
    )
    shutil.rmtree(root, ignore_errors=True)
    write_csv(_read_documents(sf_dir), root)
    return read_csv(root).select_columns(
        ["doc_id", "text", "lang", "source", "n_chars"]
    )


def _q_docs_partition_prune(sf_dir: str):
    """Partitioned parquet sink + partition-pruned re-read: documents
    written hive-partitioned by lang, then ONLY the lang=en directory is
    scanned (no other partition's bytes leave storage — the resumable /
    pruned output layout the 100-TB pipeline writes). Oracle: the en
    slice of the source table."""
    import hashlib
    import shutil

    import ray.data as rd

    root = (
        "/tmp/graphiti_ray_part/"
        f"{hashlib.md5(sf_dir.encode()).hexdigest()[:8]}_{os.getpid()}"
    )
    shutil.rmtree(root, ignore_errors=True)
    docs = _read_documents(sf_dir, columns=["doc_id", "n_chars", "lang"])
    docs.write_parquet(root, partition_cols=["lang"])
    return rd.read_parquet(f"{root}/lang=en").select_columns(
        ["doc_id", "n_chars"]
    )


def _q_docs_snippet(sf_dir: str):
    """Best-snippet selection for probe terms (slow|fast|join), window
    10: per doc the densest query-term span anchored at its first
    matching token, ties to the smallest anchor. Query-pruned postings +
    one per-doc searchsorted argmax. Oracle: the anchored window
    pair-join + row_number rule."""
    from graphiti_ray.pipelines.search import best_snippet

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return best_snippet(docs, ["slow", "fast", "join"], window=10)


_DOCS_SNIPPET_ORACLE = r"""
WITH lists AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS l
  FROM documents
),
tok AS (
  SELECT doc_id, l[u.i] AS token, (u.i - 1)::BIGINT AS pos
  FROM lists, LATERAL unnest(range(1, len(l) + 1)) AS u(i)
),
hits AS (SELECT doc_id, pos FROM tok WHERE token IN ('slow', 'fast', 'join')),
cand AS (
  SELECT a.doc_id, a.pos AS anchor_pos, count(*)::BIGINT AS n_hits
  FROM hits a JOIN hits b
    ON b.doc_id = a.doc_id AND b.pos >= a.pos AND b.pos < a.pos + 10
  GROUP BY 1, 2
),
best AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id
                               ORDER BY n_hits DESC, anchor_pos) AS rk
  FROM cand
)
SELECT doc_id, anchor_pos, n_hits FROM best WHERE rk = 1
"""


def _q_docs_psi(sf_dir: str):
    """Population-stability-index drift census between the doc_id%2
    splits over the lang distribution: exact split counts + each
    bucket's Laplace-smoothed PSI term on the 1e-6 lattice (PSI = Σ
    terms; >0.2 flags drift)."""
    from graphiti_ray.stages.textstats import psi_by_bucket

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return psi_by_bucket(docs, bucket_col="lang")


_DOCS_PSI_ORACLE = """
WITH c AS (
  SELECT lang AS bucket,
         count(*) FILTER (doc_id % 2 = 0)::BIGINT AS n_a,
         count(*) FILTER (doc_id % 2 <> 0)::BIGINT AS n_b
  FROM documents GROUP BY lang
),
t AS (SELECT count(*)::BIGINT AS k, sum(n_a)::BIGINT AS ta,
             sum(n_b)::BIGINT AS tb FROM c)
SELECT c.bucket, c.n_a, c.n_b,
       CAST(round(
         (((c.n_a + 1.0) / (t.ta + t.k)) - ((c.n_b + 1.0) / (t.tb + t.k)))
         * ln(((c.n_a + 1.0) / (t.ta + t.k)) / ((c.n_b + 1.0) / (t.tb + t.k)))
         * 1000000) AS BIGINT) AS psi_term_e6
FROM c CROSS JOIN t
"""


def _q_docs_rank_tau(sf_dir: str):
    """Ranking-agreement evaluation (Kendall tau counts) between two
    top-100 document rankings — by chars vs by words, both with doc_id
    tiebreaks (the shape of comparing two retrieval scorers' top-k
    lists). The top-k extraction is the distributed part (two
    sort+limit passes); the tau pair census runs on the eval-sized
    intersection. Output: one row of exact integers
    (n_common, n_pairs, n_concordant, n_discordant)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "n_chars"])

    def add_words(t):
        import pyarrow as pa

        nw = pc.list_value_length(
            pc.split_pattern_regex(t.column("text"), r"\s+")
        ).cast(pa.int64())
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": t.column("n_chars"),
                "n_words": nw,
            }
        )

    narrow = docs.map_batches(
        add_words, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    top_a = narrow.sort(["n_chars", "doc_id"], descending=[True, False]).limit(100)
    top_b = narrow.sort(["n_words", "doc_id"], descending=[True, False]).limit(100)
    rank_a = {r["doc_id"]: i for i, r in enumerate(top_a.take_all())}
    rank_b = {r["doc_id"]: i for i, r in enumerate(top_b.take_all())}
    common = sorted(set(rank_a) & set(rank_b))
    ra = np.array([rank_a[d] for d in common])
    rb = np.array([rank_b[d] for d in common])
    ii, jj = np.triu_indices(len(common), k=1)
    sgn = np.sign(ra[ii] - ra[jj]) * np.sign(rb[ii] - rb[jj])
    return pd.DataFrame(
        {
            "n_common": [len(common)],
            "n_pairs": [int(len(ii))],
            "n_concordant": [int((sgn > 0).sum())],
            "n_discordant": [int((sgn < 0).sum())],
        }
    ).astype("int64")


_DOCS_RANK_TAU_ORACLE = r"""
WITH w AS (
  SELECT doc_id, n_chars,
         len(string_split_regex(text, '\s+'))::BIGINT AS n_words
  FROM documents
),
ra AS (
  SELECT doc_id, row_number() OVER (ORDER BY n_chars DESC, doc_id) - 1 AS r
  FROM w QUALIFY r < 100
),
rb AS (
  SELECT doc_id, row_number() OVER (ORDER BY n_words DESC, doc_id) - 1 AS r
  FROM w QUALIFY r < 100
),
c AS (SELECT ra.doc_id, ra.r AS r_a, rb.r AS r_b
      FROM ra JOIN rb USING (doc_id)),
p AS (
  SELECT sign(x.r_a - y.r_a) * sign(x.r_b - y.r_b) AS s
  FROM c x JOIN c y ON x.doc_id < y.doc_id
)
SELECT (SELECT count(*) FROM c)::BIGINT AS n_common,
       count(*)::BIGINT AS n_pairs,
       count(*) FILTER (s > 0)::BIGINT AS n_concordant,
       count(*) FILTER (s < 0)::BIGINT AS n_discordant
FROM p
"""


def _q_docs_nb_confusion(sf_dir: str):
    """Classifier evaluation: the Naive Bayes language predictions
    joined back to gold labels as an exact confusion matrix
    (lang, pred_lang, n) — the model-eval census every training-data
    pipeline reports. One keyed hash join + one |langs|² reduce."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from graphiti_ray.stages.link import default_join_partitions, safe_join
    from graphiti_ray.stages.textstats import naive_bayes_lang

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "lang"])
    pred = naive_bayes_lang(docs)
    gold = docs.map_batches(
        lambda t: t.select(["doc_id", "lang"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    joined = safe_join(
        pred,
        gold,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("doc_id",),
    )
    out = joined.groupby(["lang", "pred_lang"]).aggregate(Count(alias_name="n"))
    return out.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "pred_lang": t.column("pred_lang"),
                "n": pc.cast(t.column("n"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _q_search_classifier(sf_dir: str):
    """ST4: the OpenAI-reranker-shaped yes/no classifier as a SECOND
    concrete scorer through the same actor-pool rerank stage —
    ce_score = query-coverage logit margin on the exact integer lattice
    (monotone transform of P(yes)); (score desc, uuid) sort, limit 20."""
    from graphiti_ray.pipelines.search import classifier_rerank

    tables = _kg_tables(sf_dir, embeddings=False)
    ds = tables["nodes"].select_columns(["uuid", "name"])
    return classifier_rerank(ds, "alice smith", "name", limit=20)


_SEARCH_CLASSIFIER_TAIL = r"""
nodes AS (
  SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
         min(canonical) AS name
  FROM canon GROUP BY group_id, md5(group_id || '|' || lower(canonical))
),
scored AS (
  SELECT uuid, name,
         ((2 * ((CASE WHEN list_contains(
                   list_transform(string_split_regex(lower(name), '\s+'),
                                  x -> x), 'alice') THEN 1 ELSE 0 END)
               + (CASE WHEN list_contains(
                   list_transform(string_split_regex(lower(name), '\s+'),
                                  x -> x), 'smith') THEN 1 ELSE 0 END))
           * 1000000) // 2 - 1000000)::DOUBLE AS ce_score
  FROM nodes
)
SELECT uuid, name, ce_score FROM scored
ORDER BY ce_score DESC, uuid LIMIT 20
"""


def _q_web_page_meta(sf_dir: str):
    """Page-metadata extraction off the raw html bytes (title, first h1,
    paragraph/anchor censuses — the CDX-sidecar header fields). Oracle:
    every field re-derived from the pg1.2 template arithmetic."""
    from graphiti_ray.stages.urls import extract_page_meta

    return extract_page_meta(_pages(sf_dir))


_WEB_PAGE_META_ORACLE = """
SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url,
       'Doc ' || doc_id || ' - ' || source || '.example.com' AS title,
       source || '.example.com' AS h1,
       3::BIGINT AS n_paragraphs,
       (3 + doc_id % 3)::BIGINT AS n_anchors
FROM documents
"""


def _q_web_cocitation(sf_dir: str):
    """Co-citation counts over the host link graph (Small 1973): hosts
    cited together by a common source, n(a,b) = |{v: v→a ∧ v→b}|; top
    200 by (n desc, a, b)."""
    from graphiti_ray.stages.graph import common_neighbor_counts
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(["src_host", "dst_host"])
    return common_neighbor_counts(lg, join_on="src", src="src_host", dst="dst_host")


def _q_web_coupling(sf_dir: str):
    """Bibliographic coupling over the host link graph (Kessler 1963):
    hosts citing common targets, n(a,b) = |{v: a→v ∧ b→v}|; top 200."""
    from graphiti_ray.stages.graph import common_neighbor_counts
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(["src_host", "dst_host"])
    return common_neighbor_counts(lg, join_on="dst", src="src_host", dst="dst_host")


def _common_nbr_oracle_sql(join_on: str) -> str:
    if join_on == "src":
        wedge = "JOIN he b ON b.s = a.s AND a.t < b.t"
        pair = "a.t AS node_a, b.t AS node_b"
    else:
        wedge = "JOIN he b ON b.t = a.t AND a.s < b.s"
        pair = "a.s AS node_a, b.s AS node_b"
    return f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk
       WHERE src_host <> dst_host),
w AS (SELECT {pair} FROM he a {wedge})
SELECT node_a, node_b, count(*)::BIGINT AS n FROM w
GROUP BY 1, 2 ORDER BY n DESC, node_a, node_b LIMIT 200
"""


def _q_tokens_mg(sf_dir: str):
    """Top-50 corpus tokens via the mergeable Misra-Gries heavy-hitter
    summary (the counter-based deterministic cousin of CMS; fifth member
    of the sketch family) — full-capacity gate, so the result equals the
    exact GROUP BY / ORDER BY twin; compaction error and merge rule are
    pytest-asserted."""
    from graphiti_ray.stages.sketch import mg_top_tokens

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return mg_top_tokens(docs, k=50)


_TOKENS_MG_ORACLE = r"""
WITH tok AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
)
SELECT token, count(*)::BIGINT AS n FROM tok
GROUP BY token ORDER BY n DESC, token LIMIT 50
"""


def _q_kg_validity_islands(sf_dir: str):
    """Temporal interval coalescing (SQL:2011 'pack') over the KG edge
    validity windows: per (group, subj, pred), overlapping-or-touching
    [valid_at, invalid_at) intervals merge into maximal islands, open
    intervals stay open. One range sort + per-run island kernel. Oracle:
    the classic gaps-and-islands window chain."""
    from graphiti_ray.stages.temporal import coalesce_intervals

    tables = _kg_tables(sf_dir, embeddings=False)
    return coalesce_intervals(
        tables["edges"], key_cols=["group_id", "subj_uuid", "pred"]
    )


_KG_VALIDITY_ISLANDS_TAIL = """
iv AS (
  SELECT m.group_id, m.subj_uuid, m.pred, m.valid_at AS s,
         coalesce(p.inv, s2.inv) AS t
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
),
x AS (
  SELECT *, max(coalesce(t, TIMESTAMP '9999-12-31 00:00:00')) OVER (
      PARTITION BY group_id, subj_uuid, pred
      ORDER BY s, coalesce(t, TIMESTAMP '9999-12-31 00:00:00')
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
  FROM iv
),
y AS (
  SELECT *, CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END AS ni
  FROM x
),
z AS (
  SELECT *, sum(ni) OVER (
      PARTITION BY group_id, subj_uuid, pred
      ORDER BY s, coalesce(t, TIMESTAMP '9999-12-31 00:00:00')
      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
  FROM y
)
SELECT group_id, subj_uuid, pred, min(s) AS valid_from,
       CASE WHEN max(coalesce(t, TIMESTAMP '9999-12-31 00:00:00'))
                 = TIMESTAMP '9999-12-31 00:00:00' THEN NULL
            ELSE max(coalesce(t, TIMESTAMP '9999-12-31 00:00:00')) END
         AS valid_to,
       count(*)::BIGINT AS n_edges
FROM z GROUP BY group_id, subj_uuid, pred, island
"""


def _q_kg_negative_samples(sf_dir: str):
    """Filtered negative sampling over the KG edge table (TransE-style
    corrupted triples): deterministic md5-pick from the entity
    vocabulary, candidates equal to the true object or forming a real
    edge dropped. Oracle: identical md5[:8] % n arithmetic over the
    row_number-indexed entity vocabulary + NOT EXISTS filter."""
    from graphiti_ray.stages.graph import negative_samples

    tables = _kg_tables(sf_dir, embeddings=False)
    return negative_samples(tables["edges"], attempts=4)


_KG_NEGATIVE_SAMPLES_ORACLE_TAIL = """
ents AS (
  SELECT DISTINCT e FROM (
    SELECT subj_uuid AS e FROM merged_id UNION SELECT obj_uuid FROM merged_id
  )
),
eidx AS (SELECT e, row_number() OVER (ORDER BY e) - 1 AS idx FROM ents),
nn AS (SELECT count(*)::BIGINT AS n FROM ents),
att AS (SELECT unnest(generate_series(0, 3)) AS a),
cand AS (
  SELECT m.uuid, att.a,
         ('0x' || substr(md5(m.uuid || ':' || CAST(att.a AS VARCHAR)),
                         1, 8))::BIGINT % nn.n AS idx,
         m.subj_uuid, m.pred, m.obj_uuid
  FROM merged_id m CROSS JOIN att CROSS JOIN nn
),
neg AS (
  SELECT c.uuid, c.a, x.e AS neg_obj_uuid, c.subj_uuid, c.pred, c.obj_uuid
  FROM cand c JOIN eidx x ON x.idx = c.idx
)
SELECT uuid, a::BIGINT AS attempt, neg_obj_uuid
FROM neg n
WHERE n.neg_obj_uuid <> n.obj_uuid
  AND NOT EXISTS (SELECT 1 FROM merged_id t
                  WHERE t.subj_uuid = n.subj_uuid AND t.pred = n.pred
                    AND t.obj_uuid = n.neg_obj_uuid)
"""


def _q_docs_len_quantiles_by_lang(sf_dir: str):
    """Grouped KLL quantiles (per-language document-length order
    statistics): one mergeable sketch per group through the keyed
    reduce; full-capacity gate == the explicit per-group row_number
    rule."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.sketch import kll_quantiles_by

    docs = _read_documents(sf_dir, columns=["lang", "text"])
    lens = docs.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "v": pc.utf8_length(t.column("text")).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return kll_quantiles_by(lens, "v", "lang")


_DOCS_LEN_QUANTILES_BY_LANG_ORACLE = """
WITH vals AS (SELECT lang, length(text)::BIGINT AS v FROM documents),
n AS (SELECT lang, count(*)::BIGINT AS c FROM vals GROUP BY lang),
r AS (SELECT lang, v,
             row_number() OVER (PARTITION BY lang ORDER BY v) AS rn
      FROM vals),
qs AS (SELECT * FROM (VALUES (100000), (250000), (500000), (750000),
                             (900000)) AS t(q6))
SELECT n.lang, qs.q6::BIGINT AS q6, min(r.v)::BIGINT AS value,
       max(n.c)::BIGINT AS n
FROM qs CROSS JOIN n
JOIN r ON r.lang = n.lang
      AND r.rn >= greatest(1, (qs.q6 * n.c + 999999) // 1000000)
GROUP BY n.lang, qs.q6
"""


_PROX_PAIRS = [
    ("data", "query"),
    ("slow", "fast"),
    ("hash", "join"),
    ("vector", "line"),
]


def _q_docs_proximity(sf_dir: str):
    """NEAR/3 proximity search over 4 probe term pairs: query-pruned
    postings + per-doc sorted-merge min position distance (either
    order). Oracle: positional unnest + pair join + min(abs(Δpos))."""
    from graphiti_ray.pipelines.search import proximity_search

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return proximity_search(docs, _PROX_PAIRS, window=3)


_DOCS_PROXIMITY_ORACLE = (
    r"""
WITH lists AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS l
  FROM documents
),
tok AS (
  SELECT doc_id, l[u.i] AS token, (u.i - 1)::BIGINT AS pos
  FROM lists, LATERAL unnest(range(1, len(l) + 1)) AS u(i)
),
pairs(term_a, term_b) AS (VALUES """
    + ", ".join(f"('{a}', '{b}')" for a, b in _PROX_PAIRS)
    + r"""),
d AS (
  SELECT p.term_a, p.term_b, a.doc_id,
         min(abs(a.pos - b.pos))::BIGINT AS min_dist
  FROM pairs p
  JOIN tok a ON a.token = p.term_a
  JOIN tok b ON b.token = p.term_b AND b.doc_id = a.doc_id
  GROUP BY 1, 2, 3
)
SELECT term_a, term_b, doc_id, min_dist FROM d WHERE min_dist <= 3
"""
)


def _q_docs_trending(sf_dir: str):
    """Day-over-day burst/trending terms (Kleinberg-lite ratio form):
    token counts per (day = doc_id % 7, token), burst_micro =
    (c·10^6) // (c_prev+1), c ≥ 5, day ≥ 1; top 200 by (burst desc, day,
    token). Combiner partials → one keyed sum → one self hash-join on
    (token, prev-day)."""
    from graphiti_ray.stages.textstats import trending_terms

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return trending_terms(docs)


_DOCS_TRENDING_ORACLE = r"""
WITH tok AS (
  SELECT doc_id % 7 AS day,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
c AS (SELECT day, token, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2)
SELECT cur.day::BIGINT AS day, cur.token, cur.c,
       coalesce(prev.c, 0)::BIGINT AS c_prev,
       ((cur.c * 1000000) // (coalesce(prev.c, 0) + 1))::BIGINT AS burst_micro
FROM c cur
LEFT JOIN c prev ON prev.token = cur.token AND prev.day = cur.day - 1
WHERE cur.day >= 1 AND cur.c >= 5
ORDER BY burst_micro DESC, cur.day, cur.token
LIMIT 200
"""


def _q_embeddings_dbscan(sf_dir: str):
    """DBSCAN over the embeddings table (cosine eps=0.35, min_pts=3),
    deterministic border assignment (min core-neighbor cluster), cluster
    id = min core id in the core-core component, noise = -1. Oracle: the
    identical neighbor counts / core set / recursive-CTE core closure /
    min-border rule in SQL."""

    from graphiti_ray.stages.similarity import dbscan_cosine

    emb = _read_embeddings(sf_dir)
    return dbscan_cosine(emb)


_EMBEDDINGS_DBSCAN_ORACLE = """
WITH RECURSIVE sims AS (
  SELECT a.vec_id AS a, b.vec_id AS b
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
  WHERE round(list_cosine_similarity(a.embedding::DOUBLE[],
                                     b.embedding::DOUBLE[]), 6) >= 0.35
),
ncnt AS (
  SELECT e.vec_id AS v, coalesce(s.n, 0)::BIGINT AS n
  FROM embeddings e
  LEFT JOIN (SELECT a, count(*)::BIGINT AS n FROM sims GROUP BY a) s
    ON s.a = e.vec_id
),
core AS (SELECT v FROM ncnt WHERE n >= 3),
ce AS (
  SELECT s.a, s.b FROM sims s
  JOIN core x ON x.v = s.a JOIN core y ON y.v = s.b
),
reach(v, u) AS (
  SELECT v, v FROM core
  UNION
  SELECT r.v, e.b FROM reach r JOIN ce e ON e.a = r.u
),
clus AS (SELECT v, min(u)::BIGINT AS cid FROM reach GROUP BY v),
bord AS (
  SELECT s.a AS v, min(c.cid)::BIGINT AS cid
  FROM sims s JOIN clus c ON c.v = s.b
  WHERE s.a NOT IN (SELECT v FROM core)
  GROUP BY s.a
)
SELECT n.v AS vec_id,
       coalesce(cl.cid, bo.cid, -1)::BIGINT AS label,
       (CASE WHEN cl.v IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS is_core,
       n.n AS n_nbrs
FROM ncnt n
LEFT JOIN clus cl ON cl.v = n.v
LEFT JOIN bord bo ON bo.v = n.v
"""


def _q_graph_jaccard_links(sf_dir: str):
    """Neighborhood-Jaccard link prediction over the co-mention graph
    (Liben-Nowell & Kleinberg 2003): non-adjacent pairs scored
    cn/(deg_a+deg_b−cn) on the exact (cn·10^6)//union integer lattice;
    top 200 by (score desc, a, b). Same wedge self-join shape as
    graph_adamic_adar with an exact denominator instead of log-lattice."""
    from graphiti_ray.stages.graph import neighborhood_jaccard
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return neighborhood_jaccard(co, src="entity_uuid", dst="entity_b", top_n=200)


def _q_dedup_containment(sf_dir: str):
    """Broder containment near-dup pairs (|∩|/min(|A|,|B|) ≥ 0.9): the
    subset/quote detector resemblance misses, over the same
    rarity-filtered bottom-k blocking as dedup_ngram. Oracle: the full
    shingle→bottom-k→hub-drop→min-shared-key→exact-intersection chain in
    SQL with the containment denominator."""
    from graphiti_ray.stages.dedup import ngram_containment_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return ngram_containment_pairs(docs)


def _q_docs_nb_lang(sf_dir: str):
    """Multinomial Naive Bayes language classifier trained on the
    doc_id%5!=0 split, scored on the rest — distributed combiner-shaped
    training, parameter-sized model broadcast, exact integer scoring on
    the 1e-6 ln lattice. Oracle: the identical count → round(ln·1e6) →
    argmax recurrence in SQL."""
    from graphiti_ray.stages.textstats import naive_bayes_lang

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "lang"])
    return naive_bayes_lang(docs)


_DOCS_NB_LANG_ORACLE = r"""
WITH tr AS (SELECT doc_id, lang, text FROM documents WHERE doc_id % 5 <> 0),
te AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 = 0),
ttok AS (SELECT lang,
                unnest(list_filter(string_split_regex(text, '\s+'),
                                   x -> x <> '')) AS tok
         FROM tr),
cnt AS (SELECT lang, tok, count(*)::BIGINT AS c FROM ttok GROUP BY 1, 2),
voc AS (SELECT count(DISTINCT tok)::BIGINT AS v FROM ttok),
ncl AS (SELECT lang, sum(c)::BIGINT AS n FROM cnt GROUP BY lang),
dcl AS (SELECT lang, count(*)::BIGINT AS nd FROM tr GROUP BY lang),
tot AS (SELECT count(*)::BIGINT AS nd FROM tr),
base AS (
  SELECT ncl.lang,
         CAST(round(ln(ncl.n + voc.v) * 1000000) AS BIGINT) AS big_l,
         CAST(round(ln(dcl.nd) * 1000000) AS BIGINT)
           - CAST(round(ln(tot.nd) * 1000000) AS BIGINT) AS prior
  FROM ncl, voc, dcl, tot WHERE dcl.lang = ncl.lang),
dtok AS (SELECT doc_id,
                unnest(list_filter(string_split_regex(text, '\s+'),
                                   x -> x <> '')) AS tok
         FROM te),
dn AS (SELECT te.doc_id, coalesce(x.n, 0)::BIGINT AS n
       FROM te LEFT JOIN (SELECT doc_id, count(*)::BIGINT AS n
                          FROM dtok GROUP BY 1) x USING (doc_id)),
dtc AS (SELECT doc_id, tok, count(*)::BIGINT AS m FROM dtok GROUP BY 1, 2),
hits AS (
  SELECT d.doc_id, c.lang,
         sum(d.m * CAST(round(ln(c.c + 1) * 1000000) AS BIGINT))::BIGINT
           AS amass
  FROM dtc d JOIN cnt c ON c.tok = d.tok
  GROUP BY 1, 2),
scores AS (
  SELECT dn.doc_id, b.lang,
         (b.prior - dn.n * b.big_l + coalesce(h.amass, 0))::BIGINT AS score
  FROM dn CROSS JOIN base b
  LEFT JOIN hits h ON h.doc_id = dn.doc_id AND h.lang = b.lang),
ranked AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, lang ASC) AS rk
  FROM scores)
SELECT doc_id, lang AS pred_lang, score FROM ranked WHERE rk = 1
"""


def _q_embeddings_pq(sf_dir: str):
    """Product quantization (Jégou et al. 2011) — the vector-compression
    half of billion-scale ANN: m per-subspace codebooks trained with
    Lloyd's in ONE streaming pass per iteration (all subspaces share the
    scan; partials reduce to m*k*(sub_dim+1) keys), then one encode pass.
    Integer-lattice arithmetic (floor(v*1000), exact int squared-L2,
    floor-divide update, argmin ties → lowest cid) reproduces every code
    and quantization error exactly in the DuckDB twin."""

    from graphiti_ray.stages.similarity import pq_encode

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return pq_encode(emb, m=4, k=8, n_iters=2)


def _q_knn_pq(sf_dir: str):
    """PQ asymmetric-distance (ADC) top-k: per query an m×k exact int
    distance table is built once on the driver; the corpus scan is
    encode + m table lookups + a sum per candidate (no float math), one
    fused map_batches pass → per-batch local top-k → tiny per-query
    reduce. Approximate by construction but deterministic end to end, so
    the oracle is value-exact on the approximation itself; the m=1,
    k>=n, n_iters=1 degenerate == exact brute force gate is pytest."""

    from graphiti_ray.stages.similarity import knn_pq

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return knn_pq(emb, n_queries=16, k_top=10, m=4, k=8, n_iters=2)


def _q_docs_len_quantiles(sf_dir: str):
    """Document-length quantiles via the KLL/MRL mergeable quantile
    sketch — the fourth classic sketch next to HLL/CMS/Bloom, built as a
    Ray AggregateFn (per-block accumulate, associative merge, only the
    capacity-bounded sketch moves through the reduce). Driver-gate mode
    runs at full capacity where the sketch is lossless, so the twin is
    the explicit integer row_number rule; compacted-mode rank error and
    mergeability are pytest-asserted."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.sketch import kll_quantiles

    docs = _read_documents(sf_dir, columns=["text"])
    lens = docs.map_batches(
        lambda t: pa.table(
            {"v": pc.utf8_length(t.column("text")).cast(pa.int64())}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return kll_quantiles(lens, "v")


_DOCS_LEN_QUANTILES_ORACLE = """
WITH vals AS (SELECT length(text)::BIGINT AS v FROM documents),
n AS (SELECT count(*)::BIGINT AS c FROM vals),
r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM vals),
qs AS (SELECT * FROM (VALUES (100000), (250000), (500000), (750000),
                             (900000)) AS t(q6))
SELECT qs.q6::BIGINT AS q6, min(r.v)::BIGINT AS value, max(n.c)::BIGINT AS n
FROM qs CROSS JOIN n
JOIN r ON r.rn >= greatest(1, (qs.q6 * n.c + 999999) // 1000000)
GROUP BY qs.q6
"""


def _pq_ctes(m: int = 4, k: int = 8, n_iters: int = 2) -> str:
    """Shared WITH-prefix for the PQ twins: the k-means Lloyd's CTEs
    generalized with a ``sub`` dimension — every (vec_id, sub) pair runs
    its own assign/update on the engine's integer lattice. ``sub`` is
    derived in SQL from the 1-based unnest position, so the same text
    works at any embedding dim divisible by m."""
    parts = [
        f"""
vx AS (
  SELECT vec_id, i AS pos, ((i - 1) * {m}) // len(embedding) AS sub,
         floor(embedding[i]::DOUBLE * 1000)::BIGINT AS x
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
c0 AS (
  SELECT v.sub, r.rn - 1 AS cid, v.pos, v.x AS c
  FROM (SELECT vec_id, row_number() OVER (ORDER BY vec_id) AS rn
        FROM embeddings) r
  JOIN vx v USING (vec_id)
  WHERE r.rn <= {k}
)"""
    ]
    for t in range(n_iters - 1):
        parts.append(f"""
a{t} AS (
  SELECT vec_id, sub, cid,
         row_number() OVER (PARTITION BY vec_id, sub ORDER BY d2, cid) AS rk
  FROM (
    SELECT v.vec_id, c.sub, c.cid, sum((v.x - c.c) * (v.x - c.c)) AS d2
    FROM vx v JOIN c{t} c USING (pos)
    GROUP BY 1, 2, 3
  )
),
c{t + 1} AS (
  SELECT a.sub, a.cid, v.pos,
         floor(sum(v.x)::DOUBLE / count(*))::BIGINT AS c
  FROM a{t} a JOIN vx v ON v.vec_id = a.vec_id AND v.sub = a.sub
  WHERE a.rk = 1
  GROUP BY 1, 2, 3
)""")
    final_c = f"c{n_iters - 1}"
    return (
        "WITH "
        + ",".join(p.strip() for p in parts)
        + f""",
fin AS (
  SELECT vec_id, sub, cid, d2,
         row_number() OVER (PARTITION BY vec_id, sub ORDER BY d2, cid) AS rk
  FROM (
    SELECT v.vec_id, c.sub, c.cid, sum((v.x - c.c) * (v.x - c.c)) AS d2
    FROM vx v JOIN {final_c} c USING (pos)
    GROUP BY 1, 2, 3
  )
)"""
    )


def _pq_oracle_sql(m: int = 4, k: int = 8, n_iters: int = 2) -> str:
    return (
        _pq_ctes(m, k, n_iters)
        + """
SELECT vec_id, sub::BIGINT AS sub, cid::BIGINT AS code, d2::BIGINT AS d2
FROM fin WHERE rk = 1
"""
    )


def _knn_pq_oracle_sql(
    n_queries: int = 16, k_top: int = 10, m: int = 4, k: int = 8, n_iters: int = 2
) -> str:
    """ADC twin: the query-side distance table is the same subspace
    distance aggregate evaluated against the FINAL codebook; a
    candidate's adc is the sum of its m looked-up entries; top-k by
    (adc, vec_id) reproduces the engine's tie order."""
    final_c = f"c{n_iters - 1}"
    return (
        _pq_ctes(m, k, n_iters)
        + f""",
q AS (
  SELECT vec_id AS qid
  FROM (SELECT vec_id, row_number() OVER (ORDER BY vec_id) AS rn
        FROM embeddings)
  WHERE rn <= {n_queries}
),
dtab AS (
  SELECT qv.vec_id AS qid, c.sub, c.cid,
         sum((qv.x - c.c) * (qv.x - c.c)) AS d2
  FROM vx qv JOIN q ON qv.vec_id = q.qid
  JOIN {final_c} c USING (pos)
  GROUP BY 1, 2, 3
),
codes AS (SELECT vec_id, sub, cid FROM fin WHERE rk = 1),
adc AS (
  SELECT d.qid, f.vec_id, sum(d.d2) AS adc
  FROM codes f JOIN dtab d ON d.sub = f.sub AND d.cid = f.cid
  GROUP BY 1, 2
),
ranked AS (
  SELECT qid AS query_id, vec_id, adc::BIGINT AS adc,
         row_number() OVER (PARTITION BY qid ORDER BY adc, vec_id) AS rank
  FROM adc
)
SELECT query_id, vec_id, adc, rank FROM ranked WHERE rank <= {k_top}
"""
    )


def _semdedup_oracle_sql(
    k: int = 8, n_iters: int = 3, t_num: int = 7, t_den: int = 20
) -> str:
    """SemDeDup twin: final k-means assignment from the shared Lloyd's
    CTEs, then within-cluster pairwise EXACT integer dominance —
    cos >= t  <=>  dot > 0 AND t_den^2*dot^2 >= t_num^2*|x|^2*|y|^2 —
    with keep = no similar LOWER-id neighbor in the same cluster."""
    return (
        _kmeans_ctes(k, n_iters)
        + f""",
asn AS (SELECT vec_id, cid FROM fin WHERE rk = 1),
norms AS (SELECT vec_id, sum(x * x)::HUGEINT AS nn FROM vx GROUP BY 1),
dots AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib,
         sum(va.x::HUGEINT * vb.x::HUGEINT) AS dot
  FROM asn a
  JOIN asn b ON a.cid = b.cid AND a.vec_id <> b.vec_id
  JOIN vx va ON va.vec_id = a.vec_id
  JOIN vx vb ON vb.vec_id = b.vec_id AND vb.pos = va.pos
  GROUP BY 1, 2
),
sim AS (
  SELECT d.ia, d.ib
  FROM dots d
  JOIN norms na ON na.vec_id = d.ia
  JOIN norms nb ON nb.vec_id = d.ib
  WHERE d.dot > 0
    AND {t_den * t_den}::HUGEINT * d.dot * d.dot
        >= {t_num * t_num}::HUGEINT * na.nn * nb.nn
),
agg AS (
  SELECT ia AS vec_id, count(*)::BIGINT AS n_dups,
         bool_or(ib < ia) AS dominated
  FROM sim GROUP BY 1
)
SELECT a.vec_id, a.cid::BIGINT AS cluster,
       coalesce(g.n_dups, 0)::BIGINT AS n_dups,
       NOT coalesce(g.dominated, FALSE) AS keep
FROM asn a LEFT JOIN agg g USING (vec_id)
"""
    )


def _q_docs_lm_score(sf_dir: str):
    """Corpus-trained Laplace bigram LM quality scoring (CCNet shape):
    bigram counts via two annotate_run_lengths passes (one sort each, no
    groupby+join-back), per-bigram log-probs quantized to an int 1e-6
    lattice BEFORE the per-doc sum so the reduction is exact integer
    addition on both engines."""
    from graphiti_ray.stages.textstats import bigram_lm_scores

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return bigram_lm_scores(docs)


_LM_SCORE_ORACLE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
vocab AS (
  SELECT count(DISTINCT t) AS v FROM toks, LATERAL unnest(tk) AS u(t)
),
bi AS (
  SELECT doc_id, tk[i] AS w1, tk[i + 1] AS w2
  FROM toks, LATERAL unnest(range(1, len(tk))) AS u(i)
),
c2 AS (SELECT w1, w2, count(*) AS c2 FROM bi GROUP BY 1, 2),
c1 AS (SELECT w1, count(*) AS c1 FROM bi GROUP BY 1),
lp AS (
  SELECT b.doc_id,
         round(ln((c2.c2 + 1)::DOUBLE / (c1.c1 + v.v)) * 1000000)::BIGINT
           AS lp6
  FROM bi b JOIN c2 USING (w1, w2) JOIN c1 USING (w1) CROSS JOIN vocab v
)
SELECT doc_id, count(*)::BIGINT AS n_bigrams, sum(lp6)::BIGINT AS sum_lp6,
       -- round-half-away-from-zero of sum/n in EXACT integer arithmetic
       -- (the ratio can land exactly on a .5 lattice point)
       (CASE WHEN sum(lp6) < 0
             THEN -((-2 * sum(lp6) + count(*)) // (2 * count(*)))
             ELSE (2 * sum(lp6) + count(*)) // (2 * count(*)) END
       )::DOUBLE / 1000000 AS avg_logp
FROM lp GROUP BY 1
"""


def _q_docs_pmi(sf_dir: str):
    """Top-50 PMI collocations, support >= 5: per-block combiner -> one
    corpus groupby to the type table; marginals are type-table groupbys
    joined back; support gate BEFORE the global sort+limit. PMI on the
    int 1e-6 lattice before ranking, ties -> (w1, w2)."""
    from graphiti_ray.stages.textstats import pmi_collocations

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return pmi_collocations(docs, top_k=50, min_count=5)


_PMI_ORACLE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
bi AS (
  SELECT tk[i] AS w1, tk[i + 1] AS w2
  FROM toks, LATERAL unnest(range(1, len(tk))) AS u(i)
),
types AS (SELECT w1, w2, count(*)::BIGINT AS n_pair FROM bi GROUP BY 1, 2),
tot AS (SELECT sum(n_pair)::DOUBLE AS n FROM types),
lm AS (SELECT w1, sum(n_pair)::DOUBLE AS a FROM types GROUP BY 1),
rm AS (SELECT w2, sum(n_pair)::DOUBLE AS b FROM types GROUP BY 1),
scored AS (
  SELECT t.w1, t.w2, t.n_pair,
         round(ln(t.n_pair * tot.n / (lm.a * rm.b)) * 1000000)::BIGINT AS pmi6
  FROM types t JOIN lm USING (w1) JOIN rm USING (w2) CROSS JOIN tot
  WHERE t.n_pair >= 5
),
ranked AS (
  SELECT w1, w2, n_pair, pmi6,
         row_number() OVER (ORDER BY pmi6 DESC, w1, w2) AS rank
  FROM scored
)
SELECT rank::BIGINT AS rank, w1, w2, n_pair,
       pmi6::DOUBLE / 1000000 AS pmi
FROM ranked WHERE rank <= 50
"""


def _q_docs_dsir(sf_dir: str):
    """DSIR importance weights toward the lang='en' target slice: per-doc
    sum of quantized unigram log-ratios ln(p_target) - ln(p_raw), both
    Laplace-smoothed. Counts ride on the occurrence rows via two
    annotate_run_lengths passes — no count table built, joined or
    broadcast — and the reduction is exact int64."""
    from graphiti_ray.stages.textstats import dsir_importance_weights

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "lang"])
    return dsir_importance_weights(docs, target_col="lang", target_value="en")


_DSIR_ORACLE = r"""
WITH occ AS (
  SELECT d.doc_id, d.lang = 'en' AS tgt, t
  FROM documents d,
       LATERAL unnest(regexp_extract_all(lower(d.text), '\w+')) AS u(t)
),
consts AS (
  SELECT count(DISTINCT t) AS v,
         count(*) AS nr,
         count(*) FILTER (WHERE tgt) AS nt
  FROM occ
),
cnt AS (
  SELECT t, count(*) AS cr, count(*) FILTER (WHERE tgt) AS ct
  FROM occ GROUP BY 1
),
lp AS (
  SELECT o.doc_id,
         round((ln((c.ct + 1)::DOUBLE / (k.nt + k.v))
                - ln((c.cr + 1)::DOUBLE / (k.nr + k.v))) * 1000000)::BIGINT
           AS w6
  FROM occ o JOIN cnt c USING (t) CROSS JOIN consts k
)
SELECT doc_id, count(*)::BIGINT AS n_tokens, sum(w6)::BIGINT AS sum_liw6,
       (CASE WHEN sum(w6) < 0
             THEN -((-2 * sum(w6) + count(*)) // (2 * count(*)))
             ELSE (2 * sum(w6) + count(*)) // (2 * count(*)) END
       )::DOUBLE / 1000000 AS avg_liw
FROM lp GROUP BY 1
"""


def _q_embeddings_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) over the embedding corpus: distributed
    k-means bucketing, then within-cluster cosine dominance via one range
    sort + sorted_run_map (pairwise work O(sum c_i^2), never O(n^2)).
    keep=false iff a LOWER-id same-cluster vector sits at cosine >= 7/20;
    the threshold test is exact int64 (t_den^2*dot^2 vs t_num^2*n1*n2), so
    the SQL twin shares the kmeans CTEs and adds pure-integer joins."""

    from graphiti_ray.stages.similarity import semantic_dedup

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return semantic_dedup(emb, k=8, n_iters=3, t_num=7, t_den=20)


_PHRASES = [
    "data line join",
    "join order batch",
    "merge line table",
    "slow join sort",
    "key data a",
]


def _q_docs_skyline(sf_dir: str):
    """2-D Pareto front over (n_chars, DISTINCT token count) — length vs
    vocabulary richness, maximize both: per-x max-y groupby → driver
    frontier sweep → broadcast is_in filter."""
    import re as _re

    import numpy as np
    import pyarrow as pa

    from graphiti_ray.stages.ops import skyline_2d

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "n_chars"])
    ws = _re.compile(r"\s+", _re.ASCII)

    def with_tokens(batch: pa.Table) -> pa.Table:
        y = np.fromiter(
            (
                len({t for t in ws.split(s or "") if t})
                for s in batch.column("text").to_pylist()
            ),
            dtype=np.int64,
            count=batch.num_rows,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": batch.column("n_chars"),
                "n_tokens": pa.array(y, pa.int64()),
            }
        )

    ds2 = docs.map_batches(with_tokens, batch_format="pyarrow", zero_copy_batch=True)
    return skyline_2d(ds2, "n_chars", "n_tokens", ["doc_id"])


def _q_docs_profile(sf_dir: str):
    """Table profiler over (doc_id, lang, n_chars): per-column n /
    nulls / exact distinct / native-order min / max — the data-quality
    describe surface; reduces are column- or distinct-bounded."""
    from graphiti_ray.stages.ops import profile_table

    docs = _read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return profile_table(docs, ["doc_id", "lang", "n_chars"])


def _q_tokens_cms_by_lang(sf_dir: str):
    """Per-language count-min registers over the token stream — the
    grouped heavy-hitter sketch (≤ |langs|·4·2048 reduce rows),
    completing the grouped pair with docs_hll_by_lang."""
    import re as _re

    import pyarrow as pa

    from graphiti_ray.stages.sketch import cms_registers_by

    docs = _read_documents(sf_dir, columns=["lang", "text"])
    ws = _re.compile(r"\s+", _re.ASCII)

    def explode(batch: pa.Table) -> pa.Table:
        langs, toks = [], []
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            for tok in ws.split(t or ""):
                if tok:
                    langs.append(lang)
                    toks.append(tok)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "token": pa.array(toks, pa.string()),
            }
        )

    tokens = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return cms_registers_by(tokens, "token", "lang")


def _q_docs_zorder(sf_dir: str):
    """Morton/Z-order codes over (n_chars, doc_id) — the locality-
    preserving layout key; pure vectorized bit interleave, range-guarded."""
    from graphiti_ray.stages.ops import zorder_codes

    docs = _read_documents(sf_dir, columns=["doc_id", "n_chars"])
    return zorder_codes(docs, "n_chars", "doc_id", ["doc_id"])


def _q_docs_phrase(sf_dir: str):
    """Positional phrase search over 5 probe phrases: query-pruned posting
    explode + per-doc adjacency verify — work ∝ query-term postings, not
    corpus bytes. Must equal a space-padded LIKE scan."""
    from graphiti_ray.pipelines.search import phrase_search

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return phrase_search(docs, _PHRASES)


def _q_knn_classify(sf_dir: str):
    """kNN majority-vote classifier: each doc's predicted lang is the
    plurality label among its mutual-kNN neighbours (count desc, lang
    asc ties) — neighbour-label counts via the combiner shape, winner
    via head-1 over complete runs."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.link import default_join_partitions, safe_join
    from graphiti_ray.stages.ops import top_k_per_group
    from graphiti_ray.stages.similarity import mutual_knn

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    edges = mutual_knn(emb, k=5)

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks().cast(pa.int64())
        b = batch.column("b").combine_chunks().cast(pa.int64())
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "doc_id": pa.concat_arrays([b, a]),
            }
        )

    sedges = edges.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True)
    langs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    nbr = safe_join(
        sedges, langs, join_type="inner",
        num_partitions=default_join_partitions(), on=("doc_id",),
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["node", "lang"]).group_by(["node", "lang"]).aggregate(
            [([], "count_all")]
        )
        return t.rename_columns(["node", "lang", "p_n"])

    counts = (
        nbr.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["node", "lang"])
        .aggregate(Sum("p_n", alias_name="votes"))
    )

    def neg(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column("neg_v", pc.negate(batch.column("votes")))

    won = top_k_per_group(
        counts.map_batches(neg, batch_format="pyarrow", zero_copy_batch=True),
        keys=["node"],
        order_cols=["neg_v", "lang"],
        k=1,
    )
    return won.drop_columns(["neg_v", "rank"]).rename_columns(
        {"node": "doc_id", "lang": "pred_lang"}
    )


def _q_docs_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split: the ubiquitous ML
    prep op, via the same md5-threshold rule as the samplers (stable
    under any partitioning; a doc's split never changes as the corpus
    grows)."""
    import hashlib

    import pyarrow as pa

    docs = _read_documents(sf_dir, columns=["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hs = [hashlib.md5(str(i).encode()).hexdigest()[:8] for i in ids]
        split = [
            "train" if h < "cc000000" else ("val" if h < "e6000000" else "test")
            for h in hs
        ]
        return batch.append_column("split", pa.array(split, pa.string()))

    return docs.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def _q_knn_neighbor_agg(sf_dir: str):
    """One GNN message-passing hop over the mutual-kNN graph: per node,
    the exact-lattice sum of its neighbours' embedding components
    (long-form SpMV: feature explode → edge join → keyed reduce)."""

    from graphiti_ray.stages.embed import neighbor_feature_sum
    from graphiti_ray.stages.similarity import mutual_knn

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    edges = mutual_knn(emb, k=5)
    return neighbor_feature_sum(edges, emb)


def _q_docs_encode(sf_dir: str):
    """Corpus → id sequences with a frequency-ranked top-100 vocabulary
    (ids 1..100 by count desc / token asc, OOV → 0), vocab broadcast
    once; output the first 2000 docs' long-form (doc_id, pos, token_id)."""
    from graphiti_ray.pipelines.corpus import encode_documents

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return encode_documents(docs)


def _q_docs_cube(sf_dir: str):
    """GROUP BY CUBE(lang, source) in one pass: all 4 grouping sets
    emitted per batch with the '(all)' sentinel, one keyed reduce."""
    from graphiti_ray.stages.ops import rollup_counts

    docs = _read_documents(sf_dir, columns=["lang", "source", "n_chars"])
    return rollup_counts(docs, ["lang", "source"], sum_col="n_chars", cube=True)


def _q_docs_melt(sf_dir: str):
    """Round-trip UNPIVOT: the lang × source pivot grid melted back to
    long (lang, variable, value) rows — pivot ∘ melt as one pipeline,
    proving the two are inverse shapes."""
    from graphiti_ray.stages.ops import melt, pivot_counts

    docs = _read_documents(sf_dir, columns=["lang", "source"])
    wide = pivot_counts(docs, "lang", "source", _PIVOT_SOURCES)
    return melt(wide, ["lang"], _PIVOT_SOURCES + ["_other"])


_PIVOT_SOURCES = [f"src{i}" for i in range(20)]


def _q_docs_pivot(sf_dir: str):
    """Fixed-category PIVOT: lang × source count grid (20 source columns
    + _other), dense per-batch partials → one |langs|-keyed sum."""
    from graphiti_ray.stages.ops import pivot_counts

    docs = _read_documents(sf_dir, columns=["lang", "source"])
    return pivot_counts(docs, "lang", "source", _PIVOT_SOURCES)


def _q_docs_bloom_join(sf_dir: str):
    """Bloom semi-join: probe every doc_id against the bit set built from
    the English docs' ids — the shuffle-free filter-pushdown pattern;
    no false negatives, and even the false positives are value-exact
    (deterministic bit arithmetic both sides)."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.sketch import bloom_semi_join

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    build = docs.map_batches(
        lambda t: t.filter(pc.equal(t.column("lang"), "en")).select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    probe = _read_documents(sf_dir, columns=["doc_id"])
    return bloom_semi_join(probe, build, "doc_id")


def _q_docs_weighted_sample(sf_dir: str):
    """Efraimidis–Spirakis weighted sampling without replacement (weight
    = n_chars, k=50): ln(u)/w keys on the 1e-6 lattice, one streaming
    score pass + one k-row sort/limit."""
    from graphiti_ray.pipelines.corpus import weighted_sample

    docs = _read_documents(sf_dir, columns=["doc_id", "n_chars"])
    return weighted_sample(docs, "n_chars", k=50)


def _q_docs_shards(sf_dir: str):
    """Rendezvous-hash shard assignment (8 shards): argmax of the salted
    md5 per shard — consistent placement, pure streaming map."""
    from graphiti_ray.pipelines.corpus import rendezvous_shards

    docs = _read_documents(sf_dir, columns=["doc_id"])
    return rendezvous_shards(docs, n_shards=8)


def _q_lang_moments(sf_dir: str):
    """Per-language exact correlation moments (n, Σx, Σy, Σxy, Σx², Σy²)
    for x=n_chars, y=token count — the distributed-statistics aggregate;
    Pearson r is a derived ratio, kept off the hash. One combiner pass →
    one |langs|-keyed reduce."""
    import re as _re

    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Sum

    docs = _read_documents(sf_dir, columns=["lang", "text", "n_chars"])
    ws = _re.compile(r"\s+", _re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang")
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.fromiter(
            (
                len([t for t in ws.split(s or "") if t])
                for s in batch.column("text").to_pylist()
            ),
            dtype=np.int64,
            count=batch.num_rows,
        )
        t = pa.table(
            {
                "lang": langs,
                "n": pa.array(np.ones(len(x), np.int64), pa.int64()),
                "sx": pa.array(x, pa.int64()),
                "sy": pa.array(y, pa.int64()),
                "sxy": pa.array(x * y, pa.int64()),
                "sxx": pa.array(x * x, pa.int64()),
                "syy": pa.array(y * y, pa.int64()),
            }
        )
        g = t.group_by(["lang"]).aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")]
        )
        return g.rename_columns(["lang", "n", "sx", "sy", "sxy", "sxx", "syy"])

    return (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(
            *[
                Sum(c, alias_name=c)
                for c in ("n", "sx", "sy", "sxy", "sxx", "syy")
            ]
        )
    )


def _q_docs_entropy(sf_dir: str):
    """Per-doc token Shannon entropy on the 1e-6 log lattice with the
    division cleared (hn_e6 = rint(n·ln n·1e6) − Σ rint(c·ln c·1e6)) —
    exact int64; the repetitiveness quality signal."""
    from graphiti_ray.stages.textstats import token_entropy

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return token_entropy(docs)


def _q_docs_bpe_pairs(sf_dir: str):
    """First-iteration BPE merge table: corpus-wide counts of adjacent
    character pairs inside word tokens, top 200 by (count desc, pair
    asc) — the frequency pass a BPE tokenizer trainer runs before its
    first merge. Per-batch uint64-packed np.unique combiner, so the
    groupby shuffles pre-summed partials."""
    from graphiti_ray.stages.textstats import bpe_pair_stats

    docs = _read_documents(sf_dir, columns=["text"])
    return bpe_pair_stats(docs, top_n=200)


def _q_lang_centroids(sf_dir: str):
    """Per-language embedding centroids as exact integer moment sums
    (count + Σ floor(e·1e6) per dimension): one broadcast-free hash
    join docs⋈embeddings, dense np.add.at partials, ≤ |langs|·64 reduce
    rows. The float centroid = sum_q/(n·1e6) is derived."""
    import numpy as np
    import pyarrow as pa

    from graphiti_ray.stages.embed import column_to_matrix, group_centroids
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"]).rename_columns({"vec_id": "doc_id"})

    # ray 2.49's hash join rejects list<float> payload columns — pack the
    # vector to fixed-width binary across the join, unpack after (pure
    # memcpy both ways)
    def pack(batch: pa.Table) -> pa.Table:
        mat = column_to_matrix(batch.column("embedding")).astype("<f8")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "eb": pa.array([row.tobytes() for row in mat], pa.binary()),
            }
        )

    def unpack(batch: pa.Table) -> pa.Table:
        bs = batch.column("eb").to_pylist()
        if bs:
            mat = np.frombuffer(b"".join(bs), dtype="<f8").reshape(len(bs), -1)
            lists = pa.array(mat.tolist(), pa.list_(pa.float64()))
        else:
            lists = pa.array([], pa.list_(pa.float64()))
        return pa.table(
            {"lang": batch.column("lang"), "embedding": lists}
        )

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    joined = safe_join(
        emb.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True),
        docs,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("doc_id",),
    ).map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True)
    return group_centroids(joined, group_col="lang")


def _q_docs_epoch_shuffle(sf_dir: str):
    """Deterministic epoch-1 global shuffle positions: rank of
    md5('1|'||doc_id) via one range sort + the cross-block prefix-sum
    row-number primitive."""
    from graphiti_ray.pipelines.corpus import epoch_shuffle_positions

    docs = _read_documents(sf_dir, columns=["doc_id"])
    return epoch_shuffle_positions(docs, epoch=1)


def _q_docs_diff(sf_dir: str):
    """Keyed snapshot diff (added/removed/changed) between documents and a
    deterministically mutated twin: one tagged union + one keyed reduce;
    only the delta survives."""
    import pyarrow as pa

    from graphiti_ray.stages.ops import dataset_diff

    a = _read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"])

    def mutate(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(ids % 10 != 0))
        kid = keep.column("doc_id").to_numpy(zero_copy_only=False)
        nchars = keep.column("n_chars").to_numpy(zero_copy_only=False)
        is_en = pc.equal(keep.column("lang"), "en").to_numpy(zero_copy_only=False)
        changed = pa.table(
            {
                "doc_id": keep.column("doc_id"),
                "lang": keep.column("lang"),
                "n_chars": pa.array(nchars + is_en.astype(np.int64), pa.int64()),
            }
        )
        add_ids = ids[ids % 97 == 0] + 1_000_000
        added = pa.table(
            {
                "doc_id": pa.array(add_ids, pa.int64()),
                "lang": pa.array(["xx"] * len(add_ids), pa.string()),
                "n_chars": pa.array([1] * len(add_ids), pa.int64()),
            }
        )
        return pa.concat_tables([changed, added])

    b = _read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"]).map_batches(
        mutate, batch_format="pyarrow", zero_copy_batch=True
    )
    return dataset_diff(a, b, ["doc_id"], ["lang", "n_chars"])


def _q_knn_mutual(sf_dir: str):
    """Reciprocal k-NN pairs (each in the other's top-5, self excluded)
    — the mutual-NN near-dup/clustering primitive, exact baseline."""

    from graphiti_ray.stages.similarity import mutual_knn

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return mutual_knn(emb, k=5)


def _q_docs_checksum(sf_dir: str):
    """Order-independent mod-2^64 content checksum of (doc_id, lang) —
    the migration-validation primitive; three scalars reach the driver."""
    from graphiti_ray.stages.ops import content_checksum

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return content_checksum(docs, ["doc_id", "lang"])


def _q_docs_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source) in one pass: per-batch partials for
    every prefix level with the '(all)' sentinel, one keyed reduce —
    never one groupby per level."""
    from graphiti_ray.stages.ops import rollup_counts

    docs = _read_documents(sf_dir, columns=["lang", "source", "n_chars"])
    return rollup_counts(docs, ["lang", "source"], sum_col="n_chars")


def _q_lang_distinct_texts(sf_dir: str):
    """Exact count-distinct per language — the exact twin of the grouped
    HLL sketch: per-batch (lang, text-hash) distinct partial → keyed
    distinct → per-lang count (two narrow shuffles; the md5 collapse
    keeps full texts off the wire)."""
    import pyarrow as pa

    from ray.data.aggregate import Count, Sum

    from graphiti_ray.stages.dedup import md5_hex_column

    docs = _read_documents(sf_dir, columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "h": pa.array(md5_hex_column(batch.column("text")), pa.string()),
            }
        )
        return t.group_by(["lang", "h"]).aggregate([([], "count_all")]).drop_columns(
            ["count_all"]
        )

    distinct = (
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "h"])
        .aggregate(Count(alias_name="_c"))
    )

    def one(batch: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {
                "lang": batch.column("lang"),
                "p_n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )

    return (
        distinct.map_batches(one, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("p_n", alias_name="n_distinct"))
    )


def _set_op_sides(sf_dir: str):
    import pyarrow.compute as pc

    docs = _read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"])
    a = docs.map_batches(
        lambda t: t.filter(pc.equal(t.column("lang"), "en")).select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    b = docs.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t.column("n_chars"), 300)
        ).select(["doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return a, b


def _q_docs_intersect(sf_dir: str):
    """SQL INTERSECT as a tagged-union + one keyed max — English docs that
    are also long."""
    from graphiti_ray.stages.ops import dataset_intersect

    a, b = _set_op_sides(sf_dir)
    return dataset_intersect(a, b, ["doc_id"])


def _q_docs_except(sf_dir: str):
    """SQL EXCEPT via the same tagged-union shape — English docs that are
    NOT long."""
    from graphiti_ray.stages.ops import dataset_except

    a, b = _set_op_sides(sf_dir)
    return dataset_except(a, b, ["doc_id"])


def _q_embeddings_jl(sf_dir: str):
    """JL ±1 projection 64→16 on the 1e-6 integer lattice — exact
    integer matmul against the md5-derived sign matrix, so summation
    order cannot hash-diverge."""

    from graphiti_ray.stages.embed import jl_project

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return jl_project(emb)


def _q_lang_top_tokens(sf_dir: str):
    """Exact per-language top-5 tokens (count desc, token asc) — the
    heavy-hitter exact twin of tokens_cms: per-batch combiner → one
    vocabulary-sized keyed sum → head-k over complete runs."""
    from graphiti_ray.stages.textstats import top_tokens_by_group

    docs = _read_documents(sf_dir, columns=["lang", "text"])
    return top_tokens_by_group(docs, k=5)


def _q_docs_histogram(sf_dir: str):
    """Per-language equi-width length histogram (20 bins over [0, 500)
    chars, integer binning — no float boundaries): np.unique count
    partials → one keyed sum over ≤ |langs|·22 rows."""
    from graphiti_ray.stages.textstats import fixed_histogram

    docs = _read_documents(sf_dir, columns=["lang", "n_chars"])
    return fixed_histogram(docs, "n_chars", lo=0, hi=500, n_bins=20, by="lang")


def _q_docs_quality_filter(sf_dir: str):
    """C4/Gopher-style quality gate: keep docs inside heuristic bounds
    (vectorized filter inside map_batches; predicate pushdown shape)."""
    import pyarrow as pa

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_words = pc.list_value_length(
            pc.split_pattern_regex(batch.column("text"), r"\s+")
        )
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("n_chars"), 150),
                pc.less_equal(batch.column("n_chars"), 450),
            ),
            pc.greater_equal(n_words, 30),
        )
        return batch.filter(mask).select(["doc_id", "n_chars"])

    return docs.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _q_corpus_clean(sf_dir: str):
    """Composite training-data cleaning (language gate → quality gate →
    exact dedup winners); the SQL-expressible core of clean_corpus — the
    near-dup stage on top is approximate (pytest-covered)."""
    from graphiti_ray.pipelines.corpus import clean_corpus_exact

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return clean_corpus_exact(docs)


def _q_docs_sample(sf_dir: str):
    """Deterministic hash-threshold sampling (reproducible subset carve)."""
    from graphiti_ray.pipelines.corpus import deterministic_sample

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return deterministic_sample(docs, 0.25)


def _q_docs_stratified(sf_dir: str):
    """Per-stratum deterministic sampling — training-mix assembly: keep
    100% of 'de', 50% of 'fr', 12.5% of 'en', 0% of everything else.
    Oracle: the same per-stratum md5-threshold rule in SQL."""
    from graphiti_ray.pipelines.corpus import stratified_sample

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return stratified_sample(docs, {"de": 1.0, "fr": 0.5, "en": 0.125})


def _q_docs_temperature(sf_dir: str):
    """α=0.5 temperature mixing: per-language keep rate sqrt(n_min/n_s),
    computed from a vocabulary-sized count groupby, applied as the
    shuffle-free md5-threshold filter. The data-mixing op of multilingual
    corpus assembly."""
    from graphiti_ray.pipelines.corpus import temperature_sample

    docs = _read_documents(sf_dir, columns=["doc_id", "lang"])
    return temperature_sample(docs)


def _q_docs_hll(sf_dir: str):
    """HyperLogLog register table over the documents' text column —
    distinct-text cardinality without a distinct shuffle (per-batch
    register partials → max-groupby over ≤ 4096 keys). Oracle: the same
    md5-derived hash, bucket split and leading-zero rank in SQL (rank
    via a generated power-of-two CASE ladder — no float log)."""
    from graphiti_ray.stages.sketch import hll_registers

    docs = _read_documents(sf_dir, columns=["text"])
    return hll_registers(docs, "text")


def _hll_oracle_sql(by: str | None = None) -> str:
    """HLL register table in SQL; ``by`` adds a group column (the grouped
    mergeable-sketch variant) with identical register arithmetic."""
    from graphiti_ray.stages.sketch import HLL_P

    low_bits = 64 - HLL_P
    ladder = " ".join(
        f"WHEN low >= {1 << k}::UBIGINT THEN {low_bits - k}"
        for k in range(low_bits - 1, -1, -1)
    )
    g_sel = f"{by}, " if by else ""
    g_grp = "GROUP BY 1, 2" if by else "GROUP BY 1"
    return f"""
WITH h AS (
  SELECT {g_sel}('0x' || substr(md5(text), 1, 16))::UBIGINT AS h FROM documents
),
parts AS (
  SELECT {g_sel}(h >> {low_bits})::BIGINT AS bucket,
         (h & {(1 << low_bits) - 1}::UBIGINT) AS low
  FROM h
),
ranked AS (
  SELECT {g_sel}bucket,
         CASE WHEN low = 0::UBIGINT THEN {low_bits + 1} {ladder}
              ELSE {low_bits + 1} END AS rank
  FROM parts
)
SELECT {g_sel}bucket, max(rank)::BIGINT AS max_rank FROM ranked {g_grp}
"""


def _q_docs_hll_by_lang(sf_dir: str):
    """Grouped HLL: distinct-text cardinality PER LANGUAGE as a mergeable
    register table — the per-domain/per-language corpus-stats shape
    (partials collapse to ≤ |groups|·4096 rows before the reduce)."""
    from graphiti_ray.stages.sketch import hll_registers_by

    docs = _read_documents(sf_dir, columns=["text", "lang"])
    return hll_registers_by(docs, "text", "lang")


def _q_tokens_cms(sf_dir: str):
    """Count-min sketch registers over the corpus token stream — heavy-
    hitter frequencies without a vocabulary-sized state (4 hash rows ×
    2048 counters). Oracle: the identical md5-derived bucket arithmetic
    and per-(row, bucket) counts in SQL."""
    import re as _re

    import pyarrow as pa

    from graphiti_ray.stages.sketch import cms_registers

    docs = _read_documents(sf_dir, columns=["text"])
    ws = _re.compile(r"\s+", _re.ASCII)  # RE2-compatible split, oracle twin

    def explode(batch: pa.Table) -> pa.Table:
        toks = [
            tok
            for t in batch.column("text").to_pylist()
            for tok in ws.split(t)
            if tok
        ]
        return pa.table({"token": pa.array(toks, pa.string())})

    tokens = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return cms_registers(tokens, "token")


def _cms_oracle_sql() -> str:
    from graphiti_ray.stages.sketch import CMS_DEPTH, CMS_WIDTH

    return f"""
WITH toks AS (
  SELECT t AS token
  FROM documents, LATERAL unnest(string_split_regex(text, '\\s+')) AS u(t)
  WHERE t <> ''
),
h AS (SELECT ('0x' || substr(md5(token), 1, 16))::UBIGINT AS h FROM toks),
slots AS (
  SELECT r, ((h >> (16 * r)) & 65535::UBIGINT) % {CMS_WIDTH} AS bucket
  FROM h, LATERAL unnest(range(0, {CMS_DEPTH})) AS u(r)
)
SELECT r::BIGINT AS sketch_row, bucket::BIGINT AS bucket,
       count(*)::BIGINT AS n
FROM slots GROUP BY 1, 2
"""


def _q_docs_bloom(sf_dir: str):
    """Bloom-filter bit table over document texts (4 md5-derived bits per
    value in a 32768-bit filter) — streaming membership state for
    later probes. Oracle: the identical bit arithmetic in SQL."""
    from graphiti_ray.stages.sketch import bloom_bits

    docs = _read_documents(sf_dir, columns=["text"])
    return bloom_bits(docs, "text")


def _bloom_oracle_sql() -> str:
    from graphiti_ray.stages.sketch import BLOOM_BITS, BLOOM_K

    return f"""
WITH h AS (
  SELECT ('0x' || substr(md5(text), 1, 16))::UBIGINT AS h FROM documents
)
SELECT DISTINCT
       (((h >> (16 * r)) & 65535::UBIGINT) % {BLOOM_BITS})::BIGINT AS bit
FROM h, LATERAL unnest(range(0, {BLOOM_K})) AS u(r)
"""


def _q_lang_doc_stats_salted(sf_dir: str):
    """The same per-language stats through the SALTED two-phase aggregate
    (ops.salted_aggregate — the hub-key skew treatment): rows spread over
    (lang, salt) reducers first, partials recombine on lang. One oracle,
    two shuffle strategies — the salted path must be value-identical."""
    from graphiti_ray.stages.ops import salted_aggregate

    docs = _read_documents(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return salted_aggregate(
        docs,
        ["lang"],
        {
            "n_docs": ("doc_id", "count"),
            "sum_chars": ("n_chars", "sum"),
            "min_doc_id": ("doc_id", "min"),
            "max_doc_id": ("doc_id", "max"),
        },
        salt_buckets=8,
        salt_source="doc_id",
    )


def _q_graph_pagerank(sf_dir: str):
    """Simplified PageRank (5 fixed rounds, dangling mass evaporates)
    over the merged edge list — the iterative join+sum graph shape.
    Oracle: the recurrence unrolled as 5 SQL CTE rounds with the same
    repr-interpolated float constants, so per-round arithmetic is
    bit-compatible (only the sum order differs, ~1e-15 ≪ round(6))."""
    from graphiti_ray.stages.graph import pagerank

    tables = _kg_tables(sf_dir, embeddings=False)
    return pagerank(tables["edges"], damping=0.85, rounds=5)


def _pagerank_chain_sql(
    edge_table: str,
    damping: float,
    rounds: int,
    seed_pred: str | None = None,
    weight_col: str | None = None,
) -> str:
    """The unrolled-PageRank CTE chain over an edge table/CTE with columns
    (s, t) pre-exposed via ``edge_table`` — shared by the KG-entity and
    web-host variants so the per-round arithmetic stays identical (same
    repr-interpolated float constants as the Ray kernel).

    ``seed_pred`` (a SQL boolean template with an ``{x}`` node placeholder)
    switches on the PERSONALIZED variant: n = |seed nodes present|, start
    1/n on seeds else 0, teleport mass only to seeds — mirroring
    graph.pagerank(seeds=...)."""
    if seed_pred is None:
        base_expr = f"{1.0 - damping!r} / nn.n"
        r0_pr = "1.0 / nn.n"
        nn_sql = "SELECT count(*) AS n FROM nodes"
    else:
        base_expr = (
            f"CASE WHEN {seed_pred.format(x='n0.x')} "
            f"THEN {1.0 - damping!r} / nn.n ELSE 0.0 END"
        )
        r0_pr = (
            f"CASE WHEN {seed_pred.format(x='x')} "
            f"THEN 1.0 / nn.n ELSE 0.0 END"
        )
        nn_sql = (
            f"SELECT count(*) AS n FROM nodes WHERE {seed_pred.format(x='x')}"
        )
    parts = [
        # explicit DISTINCT: under WITH RECURSIVE DuckDB does not dedup a
        # plain UNION in a non-recursive CTE (the web_bowtie finding), and
        # this chain is composed into recursive contexts (web_core_rank)
        f"nodes AS (SELECT DISTINCT x FROM (SELECT s AS x FROM {edge_table} "
        f"UNION ALL SELECT t FROM {edge_table}))",
        f"nn AS ({nn_sql})",
        (
            f"od AS (SELECT s, count(*) AS od FROM {edge_table} GROUP BY 1)"
            if weight_col is None
            else f"od AS (SELECT s, sum({weight_col}) AS od "
                 f"FROM {edge_table} GROUP BY 1)"
        ),
        (
            f"e AS (SELECT s, t FROM {edge_table})"
            if weight_col is None
            else f"e AS (SELECT s, t, {weight_col} AS w FROM {edge_table})"
        ),
        f"r0 AS (SELECT x AS node, {r0_pr} AS pr FROM nodes CROSS JOIN nn)",
    ]
    w_term = "" if weight_col is None else " * e.w"
    for k in range(1, rounds + 1):
        parts.append(
            f"""r{k} AS (
  SELECT n0.x AS node, {base_expr} + {damping!r} * coalesce(a.acc, 0) AS pr
  FROM nodes n0 CROSS JOIN nn
  LEFT JOIN (SELECT e.t AS node, sum(r.pr{w_term} / od.od) AS acc
             FROM e JOIN r{k - 1} r ON r.node = e.s JOIN od ON od.s = e.s
             GROUP BY 1) a ON a.node = n0.x
)"""
        )
    return ",\n".join(parts)


def _pagerank_oracle_sql(damping: float = 0.85, rounds: int = 5) -> str:
    chain = (
        "pr_edges AS (SELECT subj_uuid AS s, obj_uuid AS t FROM merged_id),\n"
        + _pagerank_chain_sql("pr_edges", damping, rounds)
    )
    return f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{chain}
SELECT node AS entity_uuid, pr AS rank FROM r{rounds}
"""


_LINK_GRAPH_CTE = """
jx AS (SELECT unnest(generate_series(1, 3)) AS j),
lk AS (
  SELECT source || '.example.com' AS src_host,
         'src' || CAST((doc_id * 31 + 97 * jx.j) % 20 AS VARCHAR)
           || '.example.com' AS dst_host
  FROM documents CROSS JOIN jx
  WHERE jx.j <= 1 + doc_id % 3
)"""


PPR_SEED_HOSTS = [f"src{i}.example.com" for i in range(0, 20, 5)]


def _web_host_ppr_oracle_sql(damping: float = 0.85, rounds: int = 5) -> str:
    seed_list = ", ".join(f"'{h}'" for h in PPR_SEED_HOSTS)
    chain = (
        "he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),\n"
        + _pagerank_chain_sql(
            "he", damping, rounds, seed_pred=f"{{x}} IN ({seed_list})"
        )
    )
    return f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
{chain}
SELECT node AS host, pr AS rank FROM r{rounds}
"""


def _q_web_host_ppr(sf_dir: str):
    """Personalized (topic-sensitive) PageRank over the host link graph:
    teleport mass restricted to a trusted seed-host whitelist (Haveliwala
    2002 / TrustRank shape) — the same unrolled join+sum kernel with a
    broadcast seed mask instead of the uniform base."""
    from graphiti_ray.stages.graph import pagerank
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    pr = pagerank(
        lg,
        damping=0.85,
        rounds=5,
        src="src_host",
        dst="dst_host",
        seeds=PPR_SEED_HOSTS,
    )
    return pr.map_batches(
        lambda t: t.rename_columns(["host", "rank"]), batch_format="pyarrow"
    )


def _web_host_pagerank_oracle_sql(damping: float = 0.85, rounds: int = 5) -> str:
    chain = (
        "he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),\n"
        + _pagerank_chain_sql("he", damping, rounds)
    )
    return f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
{chain}
SELECT node AS host, pr AS rank FROM r{rounds}
"""


def _q_graph_salsa(sf_dir: str):
    """SALSA (degree-normalized HITS: each push is a random-walk
    transition over outdeg resp. indeg) over the merged edge list — 4
    fixed rounds, L1 normalizer per half-round, the graph_hits compare
    convention."""
    from graphiti_ray.stages.graph import salsa

    tables = _kg_tables(sf_dir, embeddings=False)
    return salsa(tables["edges"], rounds=4)


def _salsa_oracle_sql(rounds: int = 4) -> str:
    # the _hits_oracle_sql chain with degree-normalized pushes (see the
    # MATERIALIZED note there)
    parts = [
        "nodes AS MATERIALIZED (SELECT subj_uuid AS x FROM merged_id "
        "UNION SELECT obj_uuid FROM merged_id)",
        "nn AS (SELECT count(*) AS n FROM nodes)",
        "e AS MATERIALIZED (SELECT subj_uuid AS s, obj_uuid AS t FROM merged_id)",
        "od AS MATERIALIZED (SELECT s, count(*) AS d FROM e GROUP BY s)",
        "idg AS MATERIALIZED (SELECT t, count(*) AS d FROM e GROUP BY t)",
        "h0 AS MATERIALIZED "
        "(SELECT x AS node, 1.0 / nn.n AS sc FROM nodes CROSS JOIN nn)",
    ]
    for k in range(1, rounds + 1):
        parts.append(
            f"""a{k}r AS MATERIALIZED (
  SELECT n0.x AS node, coalesce(m.acc, 0) AS v
  FROM nodes n0 LEFT JOIN (
    SELECT e.t AS node, sum(h.sc / od.d) AS acc
    FROM e JOIN h{k - 1} h ON h.node = e.s JOIN od ON od.s = e.s GROUP BY 1
  ) m ON m.node = n0.x
)"""
        )
        parts.append(
            f"a{k}n AS (SELECT CASE WHEN sum(v) = 0 THEN 1 ELSE sum(v) END AS z"
            f" FROM a{k}r)"
        )
        parts.append(
            f"a{k} AS MATERIALIZED "
            f"(SELECT node, v / a{k}n.z AS sc FROM a{k}r CROSS JOIN a{k}n)"
        )
        parts.append(
            f"""h{k}r AS MATERIALIZED (
  SELECT n0.x AS node, coalesce(m.acc, 0) AS v
  FROM nodes n0 LEFT JOIN (
    SELECT e.s AS node, sum(a.sc / idg.d) AS acc
    FROM e JOIN a{k} a ON a.node = e.t JOIN idg ON idg.t = e.t GROUP BY 1
  ) m ON m.node = n0.x
)"""
        )
        parts.append(
            f"h{k}n AS (SELECT CASE WHEN sum(v) = 0 THEN 1 ELSE sum(v) END AS z"
            f" FROM h{k}r)"
        )
        parts.append(
            f"h{k} AS MATERIALIZED "
            f"(SELECT node, v / h{k}n.z AS sc FROM h{k}r CROSS JOIN h{k}n)"
        )
    chain = ",\n".join(parts)
    return f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{chain}
SELECT h.node AS entity_uuid, h.sc AS hub, a.sc AS authority
FROM h{rounds} h JOIN a{rounds} a USING (node)
"""


def _q_graph_hits(sf_dir: str):
    """HITS hubs & authorities (4 fixed rounds, per-round L1
    normalization keeping magnitudes ~1/N so the engines' 1e-15
    sum-order noise stays far below the round(6) compare) over the
    merged edge list — the pagerank unroll convention with a scalar
    normalizer per half-round."""
    from graphiti_ray.stages.graph import hits

    tables = _kg_tables(sf_dir, embeddings=False)
    return hits(tables["edges"], rounds=4)


def _hits_oracle_sql(rounds: int = 4) -> str:
    # every round CTE is referenced twice (value + L1 normalizer), so
    # WITHOUT `AS MATERIALIZED` DuckDB's CTE inlining duplicates the whole
    # upstream chain per reference — 2^(2·rounds) base scans (measured:
    # fd exhaustion at rounds=4). The k-core oracle's convention.
    parts = [
        "nodes AS MATERIALIZED (SELECT subj_uuid AS x FROM merged_id "
        "UNION SELECT obj_uuid FROM merged_id)",
        "nn AS (SELECT count(*) AS n FROM nodes)",
        "e AS MATERIALIZED (SELECT subj_uuid AS s, obj_uuid AS t FROM merged_id)",
        "h0 AS MATERIALIZED "
        "(SELECT x AS node, 1.0 / nn.n AS sc FROM nodes CROSS JOIN nn)",
    ]
    for k in range(1, rounds + 1):
        parts.append(
            f"""a{k}r AS MATERIALIZED (
  SELECT n0.x AS node, coalesce(m.acc, 0) AS v
  FROM nodes n0 LEFT JOIN (
    SELECT e.t AS node, sum(h.sc) AS acc
    FROM e JOIN h{k - 1} h ON h.node = e.s GROUP BY 1
  ) m ON m.node = n0.x
)"""
        )
        parts.append(
            f"a{k}n AS (SELECT CASE WHEN sum(v) = 0 THEN 1 ELSE sum(v) END AS z"
            f" FROM a{k}r)"
        )
        parts.append(
            f"a{k} AS MATERIALIZED "
            f"(SELECT node, v / a{k}n.z AS sc FROM a{k}r CROSS JOIN a{k}n)"
        )
        parts.append(
            f"""h{k}r AS MATERIALIZED (
  SELECT n0.x AS node, coalesce(m.acc, 0) AS v
  FROM nodes n0 LEFT JOIN (
    SELECT e.s AS node, sum(a.sc) AS acc
    FROM e JOIN a{k} a ON a.node = e.t GROUP BY 1
  ) m ON m.node = n0.x
)"""
        )
        parts.append(
            f"h{k}n AS (SELECT CASE WHEN sum(v) = 0 THEN 1 ELSE sum(v) END AS z"
            f" FROM h{k}r)"
        )
        parts.append(
            f"h{k} AS MATERIALIZED "
            f"(SELECT node, v / h{k}n.z AS sc FROM h{k}r CROSS JOIN h{k}n)"
        )
    chain = ",\n".join(parts)
    return f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{chain}
SELECT h.node AS entity_uuid, h.sc AS hub, a.sc AS authority
FROM h{rounds} h JOIN a{rounds} a USING (node)
"""


def _q_graph_kcore(sf_dir: str):
    """2-core of the merged edge graph by iterative peeling (4 bounded
    rounds, early-stop on fixpoint — extra SQL rounds are then no-ops, the
    pagerank unroll convention). Degrees via the per-batch partial + keyed
    sum; survivor filtering via two hash semi-joins per round, never a
    driver node set."""
    from graphiti_ray.stages.graph import k_core

    tables = _kg_tables(sf_dir, embeddings=False)
    return k_core(tables["edges"], k=2, rounds=4)


def _kcore_oracle_sql(k: int = 2, rounds: int = 4) -> str:
    # MATERIALIZED is load-bearing: DuckDB inlines plain CTEs, and each
    # round references the previous one 3× (FROM + two IN-subqueries), so
    # an R-round unroll would otherwise expand to 3^R scans of the base
    # prelude — measured as an fd-exhaustion blowup, not just slowness
    parts = [
        "e0 AS MATERIALIZED (SELECT subj_uuid AS s, obj_uuid AS t FROM merged_id)"
    ]
    for r in range(1, rounds + 1):
        parts.append(
            f"""d{r - 1} AS MATERIALIZED (
  SELECT x, count(*) AS deg
  FROM (SELECT s AS x FROM e{r - 1} UNION ALL SELECT t FROM e{r - 1})
  GROUP BY 1
),
k{r - 1} AS MATERIALIZED (SELECT x FROM d{r - 1} WHERE deg >= {k}),
e{r} AS MATERIALIZED (
  SELECT s, t FROM e{r - 1}
  WHERE s IN (SELECT x FROM k{r - 1}) AND t IN (SELECT x FROM k{r - 1})
)"""
        )
    chain = ",\n".join(parts)
    return f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{chain}
SELECT x AS entity_uuid, count(*)::BIGINT AS degree
FROM (SELECT s AS x FROM e{rounds} UNION ALL SELECT t FROM e{rounds})
GROUP BY 1
"""


def _q_graph_triangles(sf_dir: str):
    """Per-node triangle counts over the CO-MENTION graph (two entities
    are adjacent iff some episode mentions both — the fact edge graph is
    near-bipartite and triangle-free) via the classic wedge-join
    formulation (two hash joins, no all-pairs). Oracle: the co-mention
    pair build + a three-way ordered self-join in SQL."""
    from graphiti_ray.stages.graph import triangle_counts
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return triangle_counts(co, src="entity_uuid", dst="entity_b")


def _q_kg_ego_network(sf_dir: str):
    """Ego-network export (the reference's get-subgraph serving shape):
    undirected BFS depth ≤ 2 from the lexicographically smallest subject
    entity, then every fact edge with BOTH endpoints inside the ego set
    (broadcast sorted Arrow membership + pc.is_in — the ego set is
    frontier-sized). Oracle: the graph_bfs recursive walk + an IN-filter
    edge join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    from graphiti_ray.stages.graph import bfs_frontier

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"]
    center = edges.min("subj_uuid")
    reached = bfs_frontier(edges, [center], max_depth=2)
    arr = pa.array(sorted(reached["entity_uuid"]), pa.string())
    ref = ray.put(arr)

    def ego_edges(t, _r=ref):
        a = ray.get(_r)
        keep = pc.and_(
            pc.is_in(t.column("subj_uuid"), a),
            pc.is_in(t.column("obj_uuid"), a),
        )
        return t.filter(keep).select(["uuid", "subj_uuid", "pred", "obj_uuid"])

    return edges.map_batches(ego_edges, batch_format="pyarrow")


def _q_web_rich_club(sf_dir: str):
    """Rich-club coefficients φ(k) of the host graph for k = 1..5 — hub
    interconnection census on the exact 1e6 lattice; per-k membership via
    a shrinking broadcast rich-node set + pc.is_in."""
    from graphiti_ray.stages.graph import rich_club
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return rich_club(lg, ks=[1, 2, 3, 4, 5], src="src_host", dst="dst_host")


def _q_web_rank_weighted(sf_dir: str):
    """WEIGHTED host PageRank: contributions split by link multiplicity
    (pr·n_links / Σ_out n_links) — the standard web-graph ranking when
    the edge list carries counts. Same unrolled 5-round kernel with a
    weight column threaded through."""
    from graphiti_ray.stages.graph import pagerank
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir))
    pr = pagerank(
        lg, damping=0.85, rounds=5, src="src_host", dst="dst_host",
        weight="n_links",
    )
    return pr.map_batches(
        lambda t: t.rename_columns(["host", "rank"]), batch_format="pyarrow"
    )


def _q_web_component_sizes(sf_dir: str):
    """Weakly-connected-component size census of the host graph — the
    Broder-study companion statistic (how much of the web is one blob):
    undirected CC (min-label convention) → per-component size → size
    histogram (size, n_components). Oracle: recursive-closure components
    + two small groupbys."""
    import pyarrow as pa

    from ray.data.aggregate import Count

    from graphiti_ray.stages.dedup import connected_components
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    pairs = lg.map_batches(
        lambda t: t.rename_columns(["a", "b"]), batch_format="pyarrow"
    )
    cc = connected_components(pairs)
    sizes = cc.groupby("component").aggregate(Count(alias_name="size"))
    return (
        sizes.groupby("size")
        .aggregate(Count(alias_name="n_components"))
        .map_batches(
            lambda t: pa.table(
                {
                    "size": pa.compute.cast(t.column("size"), pa.int64()),
                    "n_components": pa.compute.cast(
                        t.column("n_components"), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _q_cdx_revisits(sf_dir: str):
    """CDX revisit detection over the multi-crawl stream (rc1 fixture,
    content changing every second crawl): a capture is a REVISIT when its
    payload digest equals the immediately previous capture of the same
    url — the WARC 'revisit' record rule that keeps recrawl storage
    near-free. One sorted_lag_list pass (k=1 boundary carry), digest via
    the md5 convention; lag() window twin."""
    import hashlib

    import pyarrow as pa

    from graphiti_ray.sources.pages import read_documents
    from graphiti_ray.stages.ops import sorted_lag_list
    from graphiti_ray.stages.urls import synthesize_recrawls

    snaps = synthesize_recrawls(read_documents(sf_dir, columns=["doc_id", "source"]))

    def with_digest(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        revs = t.column("crawl_rev").to_pylist()
        dig = [
            hashlib.md5(f"{u}:{r - (r % 2)}".encode()).hexdigest()
            for u, r in zip(urls, revs)
        ]
        return t.append_column("digest", pa.array(dig, pa.string()))

    lagged = sorted_lag_list(
        snaps.map_batches(with_digest, batch_format="pyarrow"),
        ["url"],
        ["warc_ts"],
        "digest",
        k=1,
        out_col="_prev",
    )

    def flag(t: pa.Table) -> pa.Table:
        prev = t.column("_prev").to_pylist()
        dig = t.column("digest").to_pylist()
        rev = [bool(p) and p[-1] == d for p, d in zip(prev, dig)]
        return pa.table(
            {
                "url": t.column("url"),
                "warc_ts": t.column("warc_ts"),
                "crawl_rev": t.column("crawl_rev"),
                "digest": t.column("digest"),
                "is_revisit": pa.array(rev, pa.bool_()),
            }
        )

    return lagged.map_batches(flag, batch_format="pyarrow")


def _q_web_degree_alpha(sf_dir: str):
    """Hill power-law exponent of the host degree distribution (tail
    d ≥ 2) — the one-number web-graph-shape diagnostic, log terms on the
    int 1e-6 lattice, HUGEINT-exact division."""
    from graphiti_ray.stages.graph import hill_alpha
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return hill_alpha(lg, src="src_host", dst="dst_host", dmin=2)


def _q_web_core_rank(sf_dir: str):
    """Composite: PageRank over the bowtie CORE subgraph only — the
    Broder census gating which part of the web graph is worth the
    expensive iteration (the real crawl-ranking production shape). Core
    hosts from bowtie() broadcast as a sorted Arrow array (`ray.put` +
    `pc.is_in` per batch — the canonical small-side pattern), edges
    filtered to core×core, then the shared 5-round kernel."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    from graphiti_ray.stages.graph import bowtie, pagerank
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    zones = bowtie(lg, src="src_host", dst="dst_host")
    core = zones.map_batches(
        lambda t: t.filter(pc.equal(t.column("zone"), "core")),
        batch_format="pyarrow",
    ).select_columns(["node"])
    core_arr = pa.array(
        sorted(r["node"] for r in core.take_all()), pa.string()
    )
    core_ref = ray.put(core_arr)

    def core_only(t, _r=core_ref):
        arr = ray.get(_r)
        keep = pc.and_(
            pc.is_in(t.column("src_host"), arr),
            pc.is_in(t.column("dst_host"), arr),
        )
        return t.filter(keep)

    core_edges = lg.map_batches(core_only, batch_format="pyarrow")
    pr = pagerank(
        core_edges, damping=0.85, rounds=5, src="src_host", dst="dst_host"
    )
    return pr.map_batches(
        lambda t: t.rename_columns(["host", "rank"]), batch_format="pyarrow"
    )


def _web_core_rank_oracle_sql(damping: float = 0.85, rounds: int = 5) -> str:
    chain = _pagerank_chain_sql("he_core", damping, rounds)
    return f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
allx AS (SELECT DISTINCT x FROM
         (SELECT s AS x FROM he UNION ALL SELECT t FROM he)),
reach(s, t) AS (
  SELECT s, t FROM he
  UNION
  SELECT r.s, e.t FROM reach r JOIN he e ON e.s = r.t
),
mutual AS (
  SELECT r1.s AS v, r1.t AS u
  FROM reach r1 JOIN reach r2 ON r2.s = r1.t AND r2.t = r1.s
),
sccm AS (
  SELECT n.x AS node, least(n.x, coalesce(min(m.u), n.x)) AS scc_id
  FROM allx n LEFT JOIN mutual m ON m.v = n.x GROUP BY n.x
),
champ AS (
  SELECT scc_id FROM sccm GROUP BY scc_id
  ORDER BY count(*) DESC, scc_id ASC LIMIT 1
),
core AS (SELECT node FROM sccm WHERE scc_id = (SELECT scc_id FROM champ)),
he_core AS (
  SELECT s, t FROM he
  WHERE s IN (SELECT node FROM core) AND t IN (SELECT node FROM core)
),
{chain}
SELECT node AS host, pr AS rank FROM r{rounds}
"""


def _q_crawl_budget(sf_dir: str):
    """Largest-remainder (Hamilton) crawl-budget allocation: integer
    fetch quotas per host summing exactly to 1000, bonus fetches to the
    largest remainders (ties → host asc). Per-batch count combiner → one
    vocabulary-sized keyed sum → ranking on the host table only."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.urls import crawl_budget

    def to_host(t):
        import pyarrow as pa

        host = pc.struct_field(
            pc.extract_regex(t.column("url"), r"^[^:/?#]+://(?P<h>[^/?#:]+)"),
            "h",
        )
        return pa.table({"host": host})

    pages = _pages(sf_dir).map_batches(to_host, batch_format="pyarrow")
    return crawl_budget(pages, budget=1000)


def _q_graph_ktruss(sf_dir: str):
    """3-truss of the co-mention graph (every edge in ≥1 triangle inside
    the truss — the cohesion mesh between k-core and cliques): bounded
    edge peeling, per-round support from the degree-ordered wedge join,
    final support recomputed over the surviving set. Oracle: the same
    recurrence unrolled as MATERIALIZED CTE rounds."""
    from graphiti_ray.stages.graph import k_truss
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return k_truss(co, k=3, rounds=4, src="entity_uuid", dst="entity_b")


def _ktruss_oracle_sql(k: int = 3, rounds: int = 4) -> str:
    # MATERIALIZED is load-bearing (the k-core/HITS fd-exhaustion note):
    # each round's edge set is referenced 3× by the triangle self-join
    parts = [
        """r0 AS MATERIALIZED (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
)"""
    ]
    for i in range(rounds + 1):
        parts.append(
            f"""tri{i} AS MATERIALIZED (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM r{i} e1
  JOIN r{i} e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN r{i} e3 ON e3.a = e1.b AND e3.b = e2.b
),
sup{i} AS MATERIALIZED (
  SELECT a, b, count(*)::BIGINT AS n FROM (
    SELECT x AS a, y AS b FROM tri{i}
    UNION ALL SELECT x, z FROM tri{i}
    UNION ALL SELECT y, z FROM tri{i}
  ) GROUP BY 1, 2
)"""
        )
        if i < rounds:
            parts.append(
                f"r{i + 1} AS MATERIALIZED "
                f"(SELECT a, b FROM sup{i} WHERE n >= {k - 2})"
            )
    chain = ",\n".join(parts)
    return f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
{chain}
SELECT a AS node_a, b AS node_b, n AS support
FROM sup{rounds} WHERE n >= {k - 2}
"""


def _q_graph_clustering(sf_dir: str):
    """Local clustering coefficient over the CO-MENTION graph (same
    adjacency as graph_triangles): cc_e6 = (2·T·1e6) // (d·(d−1)) on the
    exact integer lattice; degree-≥2 nodes only, triangle-free nodes 0."""
    from graphiti_ray.stages.graph import clustering_coefficients
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return clustering_coefficients(co, src="entity_uuid", dst="entity_b")


def _q_graph_assortativity(sf_dir: str):
    """Degree-assortativity moment sums over the CO-MENTION graph (same
    adjacency as graph_triangles): exact int64 (n_ends, Σd, Σd², Σdxdy)
    over the undirected distinct edge set — Newman's mixing coefficient
    is a driver-side ratio of these, kept off the hash (oracle
    convention: emit sufficient statistics on the integer lattice)."""
    from graphiti_ray.stages.graph import degree_assortativity_moments
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return degree_assortativity_moments(co, src="entity_uuid", dst="entity_b")


def _q_pages_latest_snapshot(sf_dir: str):
    """Latest-crawl-wins snapshot selection over a deterministic
    multi-crawl stream (fixture rc1: page doc_id crawled 1 + doc_id%3
    times, 7 days apart): per-batch partial argmax → one range sort +
    run-head kernel. The Common-Crawl per-url dedup step; the oracle
    re-derives the stream with generate_series and takes the
    row_number()=1 window row."""
    from graphiti_ray.sources.pages import read_documents
    from graphiti_ray.stages.urls import latest_snapshots, synthesize_recrawls

    docs = read_documents(sf_dir, columns=["doc_id", "source"])
    return latest_snapshots(synthesize_recrawls(docs))


def _q_graph_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over the CO-MENTION graph (same
    adjacency as graph_triangles): for non-adjacent entity pairs sharing
    neighbors, score = sum 1/ln(deg(v)) on the integer log lattice
    (10^12 // rint(ln(deg)*1e6)) so the SQL twin is value-exact; top 200
    by (score desc, a, b)."""
    from graphiti_ray.stages.graph import adamic_adar
    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    ment = tables["mentions"].select_columns(["episode_uuid", "entity_uuid"])
    right = ment.map_batches(
        lambda t: t.rename_columns(["episode_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    co = safe_join(
        ment,
        right,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("episode_uuid",),
    ).map_batches(
        lambda t: t.select(["entity_uuid", "entity_b"]),
        batch_format="pyarrow",
    )
    return adamic_adar(co, src="entity_uuid", dst="entity_b", top_n=200)


def _q_pages_url_normalize(sf_dir: str):
    """URL canonicalization over the pages table: a deterministic fixture
    stage re-introduces real-world URL mess (case, www., :443, utm_*/fbclid
    tracking params, fragments, trailing slashes — pure doc_id arithmetic),
    then the actual operator normalizes with vectorized RE2 kernels. The
    oracle re-derives the EXPECTED canonical form independently from
    doc_id, so every rule (id param survives, tracking params vanish,
    slash/port/case/fragment collapse) is value-checked."""
    from graphiti_ray.stages.urls import normalize_urls, synthesize_messy_urls

    p = _pages(sf_dir).select_columns(["url"])
    return normalize_urls(synthesize_messy_urls(p)).select_columns(
        ["url_norm", "host", "registered_domain"]
    )


def _q_pages_domain_cap(sf_dir: str):
    """Per-domain document cap (crawl-pipeline host quota): keep the first
    10 pages per host in (warc_ts, url) order — one range sort + a
    vectorized run-head kernel (ops.head_k_per_key), no per-key dispatch."""
    from graphiti_ray.stages.ops import head_k_per_key
    from graphiti_ray.stages.urls import normalize_urls

    p = _pages(sf_dir).select_columns(["url", "warc_ts"])
    n = normalize_urls(p).select_columns(["host", "warc_ts", "url_norm"])
    return head_k_per_key(
        n, ["host"], ["warc_ts", "url_norm"], k=10
    ).select_columns(["host", "url_norm"])


def _q_docs_dedup_lines(sf_dir: str):
    """CCNet corpus-level line dedup as a transform: keep the corpus-order
    first occurrence of every non-empty line, rewrite documents. One
    head_k_per_key sort + one reconstruction sort; the oracle is the
    row_number()=1 window over md5(line)."""
    from graphiti_ray.stages.dedup import dedup_lines_corpus

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return dedup_lines_corpus(docs)


def _q_web_reciprocity(sf_dir: str):
    """Link reciprocity moments over the host web graph (self-loops
    excluded, distinct ordered edges): exact int64 (n_edges, n_recip);
    the ratio stays a driver-side division off the hash."""
    from graphiti_ray.stages.graph import reciprocity_moments
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return reciprocity_moments(lg, src="src_host", dst="dst_host")


def _q_cdx_index(sf_dir: str):
    """Common-Crawl CDX capture index: SURT urlkey, 14-digit timestamp,
    payload md5 + byte length off the raw bytes. The oracle RECONSTRUCTS
    the entire pg1.2 html string in SQL (template + escape chain +
    outlink arithmetic) and hashes it — one query certifying the whole
    page serialization byte-for-byte."""
    from graphiti_ray.stages.urls import cdx_index

    return cdx_index(_pages(sf_dir))


def _q_web_host_communities(sf_dir: str):
    """Topic communities on the host link graph: the SAME plurality-LPA
    kernel as kg_communities (weighted votes, ties → larger label,
    dataset-side fixpoint) over the extracted web graph; the oracle
    reuses the parameterized 10-round unrolled chain."""
    from graphiti_ray.stages.graph import label_propagation
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    out = label_propagation(lg, src="src_host", dst="dst_host")
    return out.map_batches(
        lambda t: t.rename_columns(["host", "community"]),
        batch_format="pyarrow",
    )


def _q_web_pipeline(sf_dir: str):
    """The composite web-corpus chain end-to-end: robots gate → per-host
    boilerplate removal → min-length quality gate → exact dedup (min-url
    winner). Pure composition of oracle-proven operators; the twin
    composes the same CTEs in the same order, so the WHOLE chain is
    value-exact, not just each link."""
    from graphiti_ray.pipelines.web import clean_web_corpus
    from graphiti_ray.sources.pages import read_documents
    from graphiti_ray.stages.urls import synthesize_robots

    docs = read_documents(sf_dir, columns=["doc_id", "source"])
    return clean_web_corpus(
        _pages(sf_dir), synthesize_robots(docs), min_len=200
    )


def _q_warc_roundtrip(sf_dir: str):
    """WARC connector end-to-end: pages → .warc segments (Content-Length
    framing, one file per block) → read_binary_files + streaming parse →
    tx1 text extraction. The oracle derives the expected table straight
    from documents — so the roundtrip proves header framing, µs timestamp
    serialization, binary payload integrity AND the byte-identity
    extraction invariant in one query."""
    import hashlib
    import shutil

    from graphiti_ray.sources.warc import read_warc, write_warc

    out_dir = (
        "/tmp/graphiti_warc_"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:10]
        + f"_{os.getpid()}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    write_warc(_pages(sf_dir), out_dir)

    def ext(t):
        import pyarrow as pa

        from graphiti_ray.functions.text import extract_text_from_html

        texts = [
            extract_text_from_html(h) for h in t.column("html").to_pylist()
        ]
        return pa.table(
            {
                "url": t.column("url"),
                "warc_ts": t.column("warc_ts"),
                "lang": t.column("lang"),
                "text": pa.array(texts, type=__import__("pyarrow").string()),
            }
        )

    return read_warc(out_dir).map_batches(
        ext, batch_format="pyarrow", zero_copy_batch=True
    )


def _q_robots_filter(sf_dir: str):
    """Robots.txt gating (rule table rb1): generic vectorized prefix
    matching against a broadcast per-host Disallow cache; the oracle
    re-derives the allow decision from the same source arithmetic."""
    from graphiti_ray.sources.pages import read_documents
    from graphiti_ray.stages.urls import apply_robots, synthesize_robots

    docs = read_documents(sf_dir, columns=["doc_id", "source"])
    return apply_robots(_pages(sf_dir), synthesize_robots(docs))


def _q_web_host_harmonic(sf_dir: str):
    """Seed-set harmonic centrality over the host link graph (Boldi &
    Vigna's web-graph centrality, seed-restricted): dataset-side layered
    BFS over (seed, node) pairs, hc_e6 = Σ 1e6 // d on the exact integer
    lattice; the oracle is a depth-bounded recursive CTE min-depth per
    seed."""
    from graphiti_ray.stages.graph import harmonic_centrality
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return harmonic_centrality(
        lg, seeds=PPR_SEED_HOSTS, max_depth=6, src="src_host", dst="dst_host"
    )


def _q_docs_readability(sf_dir: str):
    """Flesch–Kincaid grade-level readability per doc (the standard
    curriculum/difficulty feature): one stateless vectorized map_batches
    pass; the grade rides the exact integer lattice fk_micro =
    (1e6·(39·W² + 1180·Syl·S − 1559·S·W)) // (100·S·W), so no float
    leaves either engine."""
    from graphiti_ray.stages.textstats import readability_fk

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return readability_fk(docs)


def _q_web_host_triads(sf_dir: str):
    """Directed triad census (Holland–Leinhardt 16 classes — the motif
    fingerprint) over the host link graph: distinct-edge reduce →
    broadcast vocab-sized edge set → distributed O(V³) triple
    enumeration partitioned by smallest node. The oracle embeds the
    identical 64-config canonical table as VALUES rows and classifies
    via six LEFT JOINs per triple."""
    from graphiti_ray.stages.graph import triad_census
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return triad_census(lg)


def _triads_oracle_sql() -> str:
    from graphiti_ray.stages.graph import TRIAD_CANON, TRIAD_NAMES

    rows = ", ".join(
        f"({idx}, '{TRIAD_NAMES[canon]}')" for idx, canon in sorted(TRIAD_CANON.items())
    )
    return f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
-- DuckDB quirk: inside a WITH RECURSIVE block, UNION in a
-- non-recursive CTE does NOT dedup — DISTINCT must be explicit
vx AS (SELECT DISTINCT node FROM
       (SELECT s AS node FROM he UNION ALL SELECT t FROM he)),
tri AS (
  SELECT n1.node AS a, n2.node AS b, n3.node AS c
  FROM vx n1 JOIN vx n2 ON n2.node > n1.node
  JOIN vx n3 ON n3.node > n2.node
),
st AS (
  SELECT
    ((CASE WHEN ab.s IS NOT NULL THEN 1 ELSE 0 END)
     + (CASE WHEN ba.s IS NOT NULL THEN 2 ELSE 0 END)) * 16
    + ((CASE WHEN ac.s IS NOT NULL THEN 1 ELSE 0 END)
     + (CASE WHEN ca.s IS NOT NULL THEN 2 ELSE 0 END)) * 4
    + (CASE WHEN bc.s IS NOT NULL THEN 1 ELSE 0 END)
    + (CASE WHEN cb.s IS NOT NULL THEN 2 ELSE 0 END) AS idx
  FROM tri t
  LEFT JOIN he ab ON ab.s = t.a AND ab.t = t.b
  LEFT JOIN he ba ON ba.s = t.b AND ba.t = t.a
  LEFT JOIN he ac ON ac.s = t.a AND ac.t = t.c
  LEFT JOIN he ca ON ca.s = t.c AND ca.t = t.a
  LEFT JOIN he bc ON bc.s = t.b AND bc.t = t.c
  LEFT JOIN he cb ON cb.s = t.c AND cb.t = t.b
),
mp AS (SELECT * FROM (VALUES {rows}) AS v(idx, nm))
SELECT mp.nm AS triad, count(*)::BIGINT AS n
FROM st JOIN mp ON mp.idx = st.idx
GROUP BY 1
"""


def _q_docs_bpe_train(sf_dir: str):
    """Full BPE tokenizer-training loop (10 greedy merges over the
    word-type histogram — the artifact a tokenizer ships, beyond
    docs_bpe_pairs' single pair census). Each round: vocabulary-sized
    pair-count pass → driver top-1 (one row of state) → corpus-wide
    merge via str.replace on '|'-delimited symbol strings — Python and
    DuckDB replace() share non-overlapping left-to-right semantics, so
    the 10-round unrolled SQL twin is identical by construction."""
    from graphiti_ray.stages.textstats import bpe_train

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return bpe_train(docs, n_merges=10)


def _bpe_oracle_sql(n_merges: int = 10) -> str:
    # every s<k> is read twice (by p<k+1> and by s<k+1>), so an inlined
    # chain doubles per round: MATERIALIZED evaluates each state once
    parts = [
        r"""
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
wt AS MATERIALIZED (
  SELECT u.w AS w, count(*)::BIGINT AS c
  FROM toks, LATERAL unnest(tk) AS u(w) GROUP BY 1
),
s0 AS MATERIALIZED (
  SELECT '|' || regexp_replace(w, '(.)', '\1|', 'g') AS seq, c FROM wt
)"""
    ]
    for k in range(1, n_merges + 1):
        parts.append(
            f""",
p{k} AS (
  SELECT sy[i] AS l, sy[i + 1] AS r, sum(c)::BIGINT AS n
  FROM (SELECT string_split(trim(seq, '|'), '|') AS sy, c FROM s{k - 1}),
       LATERAL unnest(range(1, len(sy))) AS u(i)
  GROUP BY 1, 2
),
t{k} AS (SELECT l, r, n FROM p{k} ORDER BY n DESC, l, r LIMIT 1),
s{k} AS MATERIALIZED (
  SELECT replace(seq, '|' || t.l || '|' || t.r || '|',
                 '|' || t.l || t.r || '|') AS seq, c
  FROM s{k - 1} CROSS JOIN t{k} t
)"""
        )
    union = "\nUNION ALL ".join(
        f"SELECT {k}::BIGINT AS rank, l AS lhs, r AS rhs, n AS pair_count FROM t{k}"
        for k in range(1, n_merges + 1)
    )
    return "".join(parts) + "\n" + union


_ASOF_T = "2024-01-02 00:00:00"  # TS0 + 24h: mid-corpus time-travel point


def _q_kg_path_query_asof(sf_dir: str):
    """The 2-hop BGP AS OF a past instant (valid_at ≤ T < invalid_at or
    open) — time-travel querying over the bi-temporal graph, the query a
    reference user runs to reconstruct 'who worked where' at T. Same
    join plan as kg_path_query with the point-in-time filter on both
    legs."""
    from datetime import datetime

    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    t_us = pa.scalar(
        datetime.fromisoformat(_ASOF_T), pa.timestamp("us")
    )
    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"].select_columns(
        ["group_id", "pred", "subj_uuid", "obj_uuid",
         "subj_canonical", "obj_canonical", "valid_at", "invalid_at"]
    )

    def leg(pred: str, out_cols):
        def fn(t: pa.Table) -> pa.Table:
            va = t.column("valid_at").cast(pa.timestamp("us"))
            iv = t.column("invalid_at").cast(pa.timestamp("us"))
            # or_kleene: plain pc.or_ NULL-propagates, so open intervals
            # (null invalid_at) would evaluate to null and be dropped
            keep = pc.and_(
                pc.and_(
                    pc.equal(t.column("pred"), pred),
                    pc.less_equal(va, t_us),
                ),
                pc.or_kleene(pc.is_null(iv), pc.greater(iv, t_us)),
            )
            t = t.filter(keep)
            return pa.table({new: t.column(old) for new, old in out_cols})

        return fn

    works = edges.map_batches(
        leg(
            "WORKS_AT",
            [("group_id", "group_id"), ("person", "subj_canonical"),
             ("org_uuid", "obj_uuid"), ("org", "obj_canonical")],
        ),
        batch_format="pyarrow",
    )
    located = edges.map_batches(
        leg(
            "LOCATED_IN",
            [("group_id", "group_id"), ("org_uuid", "subj_uuid"),
             ("place", "obj_canonical")],
        ),
        batch_format="pyarrow",
    )
    joined = safe_join(
        works,
        located,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("group_id", "org_uuid"),
    )

    def distinct_partial(t: pa.Table) -> pa.Table:
        t = t.select(["person", "org", "place"])
        g = t.group_by(["person", "org", "place"]).aggregate([([], "count_all")])
        return g.drop_columns([g.column_names[-1]])

    from ray.data.aggregate import Count

    return (
        joined.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["person", "org", "place"])
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )


def _q_kg_workforce_by_place(sf_dir: str):
    """Aggregate over the 2-hop BGP: for each place, how many distinct
    people CURRENTLY work at an org located there — the path query's
    join feeding a distinct-count rollup (the Cypher
    ``MATCH (p)-[:WORKS_AT]->(o)-[:LOCATED_IN]->(pl) RETURN pl,
    count(DISTINCT p)`` a reference user would run)."""
    import pyarrow as pa

    from ray.data.aggregate import Count

    joined = _q_kg_path_query(sf_dir)

    def distinct_pp(t: pa.Table) -> pa.Table:
        g = (
            t.select(["place", "person"])
            .group_by(["place", "person"])
            .aggregate([([], "count_all")])
        )
        return g.drop_columns([g.column_names[-1]])

    return (
        joined.map_batches(distinct_pp, batch_format="pyarrow")
        .groupby(["place", "person"])
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
        .groupby("place")
        .aggregate(Count(alias_name="n_people"))
    )


def _q_embeddings_cos_hist(sf_dir: str):
    """Pairwise cosine-similarity histogram (the distribution you inspect
    to pick a dedup/ANN threshold): 128 broadcast probes × streamed
    corpus, exact e3-lattice integer dots + one IEEE sqrt/divide per
    pair, floor(cos·10) buckets."""

    from graphiti_ray.stages.similarity import cosine_histogram

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return cosine_histogram(emb, n_probes=128)


def _q_kg_invalidations(sf_dir: str):
    """Contradiction provenance report: WHICH newer fact invalidated each
    edge — (uuid, invalidated_by, invalid_at). Plain-lead over the
    exclusion-class invalidation partitions realized as window_rank (one
    hub-safe range sort) + a (partition, rank+1) self-join; the oracle is
    lead(uuid)/lead(valid_at) over the same windows."""
    from graphiti_ray.stages.temporal import invalidation_report

    tables = _kg_tables(sf_dir, embeddings=False)
    return invalidation_report(tables["edges"])


def _q_kg_path_query(sf_dir: str):
    """Conjunctive 2-hop triple-pattern query (SPARQL-style BGP) over the
    CURRENTLY-VALID slice of the bi-temporal graph: (?person WORKS_AT
    ?org) ⋈ (?org LOCATED_IN ?place) with invalid_at IS NULL on both
    legs — the canonical KG join a user of the reference would run in
    Cypher. One predicate-pruned pass per leg, one hash join on
    (group_id, org_uuid), distinct output."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.link import default_join_partitions, safe_join

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"].select_columns(
        ["group_id", "pred", "subj_uuid", "obj_uuid",
         "subj_canonical", "obj_canonical", "invalid_at"]
    )

    def leg(pred: str, out_cols):
        def fn(t: pa.Table) -> pa.Table:
            keep = pc.and_(
                pc.equal(t.column("pred"), pred),
                pc.is_null(t.column("invalid_at")),
            )
            t = t.filter(keep)
            return pa.table({new: t.column(old) for new, old in out_cols})

        return fn

    works = edges.map_batches(
        leg(
            "WORKS_AT",
            [("group_id", "group_id"), ("person", "subj_canonical"),
             ("org_uuid", "obj_uuid"), ("org", "obj_canonical")],
        ),
        batch_format="pyarrow",
    )
    located = edges.map_batches(
        leg(
            "LOCATED_IN",
            [("group_id", "group_id"), ("org_uuid", "subj_uuid"),
             ("place", "obj_canonical")],
        ),
        batch_format="pyarrow",
    )
    joined = safe_join(
        works,
        located,
        join_type="inner",
        num_partitions=default_join_partitions(),
        on=("group_id", "org_uuid"),
    )

    def distinct_partial(t: pa.Table) -> pa.Table:
        t = t.select(["person", "org", "place"])
        g = t.group_by(["person", "org", "place"]).aggregate([([], "count_all")])
        return g.drop_columns([g.column_names[-1]])

    from ray.data.aggregate import Count

    return (
        joined.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["person", "org", "place"])
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )


def _q_embeddings_pca(sf_dir: str):
    """Top principal component via exact-integer power iteration over the
    e3-lattice covariance Gram: two streaming combiner passes (per-pos
    means, then partial centered Gram — a dim×dim int64 matmul per
    block), dim² rows folded on the driver, 4 power rounds with
    floor-division renormalization. The oracle unrolls the identical
    integer recurrence."""

    from graphiti_ray.stages.similarity import pca_top_component

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    return pca_top_component(emb, rounds=4)


def _q_docs_llr(sf_dir: str):
    """Dunning log-likelihood-ratio collocations: top-50 adjacent bigrams
    by G² over the 2×2 contingency table, support ≥ 5 — the
    rare-pair-robust sibling of docs_pmi, same combiner → type-table →
    marginal-join shape, score on the int 1e-6 lattice with a
    bit-identical xlogx chain in the SQL twin."""
    from graphiti_ray.stages.textstats import llr_collocations

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return llr_collocations(docs, top_k=50, min_count=5)


def _q_kg_allen_census(sf_dir: str):
    """Allen interval-algebra census over the bi-temporal edge table:
    every unordered pair of facts about the same (group, subj, obj) is
    classified into one of the 13 Allen relations between their
    [valid_at, invalid_at) validity windows (open → 9999-12-31 sentinel)
    — one bounded hash self-join + vectorized ordered rule chain whose
    evaluation order matches the SQL CASE twin exactly."""
    from graphiti_ray.stages.temporal import allen_census

    tables = _kg_tables(sf_dir, embeddings=False)
    return allen_census(tables["edges"])


def _q_docs_skipgrams(sf_dir: str):
    """word2vec-style skip-gram pair stream: top-200 directed (center,
    context) co-occurrences within ±2 token positions — vectorized window
    explode + in-block combiner + one type-table groupby; the oracle is a
    positional self-join gated on |Δpos| ≤ 2."""
    from graphiti_ray.stages.textstats import skipgram_pairs

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return skipgram_pairs(docs, window=2, top_k=200)


def _q_web_host_stress(sf_dir: str):
    """Stress centrality (Shimbel 1953) over the host link graph: count of
    shortest directed s→t paths through each host — the integer-exact
    sibling of betweenness. All-sources layered BFS with Brandes σ
    counting (frontier⋈edges, groupby-sum σ, left_anti vs visited), then
    midpoint join + shortest-only filter, all dataset-side. Oracle:
    bounded recursive-CTE distances + unrolled aggregated matrix powers
    (a walk of length exactly d(s,t) is necessarily a shortest path)."""
    from graphiti_ray.stages.graph import stress_centrality
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return stress_centrality(lg, src="src_host", dst="dst_host", max_depth=6)


def _q_web_quality(sf_dir: str):
    """Per-page crawl-quality signals off the raw bytes: REAL tx1 extraction
    length, anchor-tag count, integer link density. The oracle re-derives
    text_len from the golden text and n_links from the pg1.2 template
    arithmetic (nav 2 + footer 1 + doc_id % 3)."""
    from graphiti_ray.stages.urls import page_quality

    return page_quality(_pages(sf_dir))


def _q_crawl_schedule(sf_dir: str):
    """Politeness-aware fetch plan: wave = row_number within host ordered
    by (warc_ts, url), fetch_offset_s = wave · 1 s — one range sort via the
    window_rank primitive, no per-host dispatch."""
    from graphiti_ray.stages.urls import crawl_schedule

    return crawl_schedule(_pages(sf_dir), crawl_delay_s=1)


def _q_web_redirects(sf_dir: str):
    """Redirect-chain resolution over a doc_id-derived short-link map
    (fixture rd1, chains up to 7 hops): distributed pointer jumping
    (parent := parent.parent per hash-join round) to each source's FINAL
    destination. The oracle unrolls the identical doubling rounds as
    MATERIALIZED CTEs — algorithm-faithful, no density assumption."""
    from graphiti_ray.sources.pages import read_documents
    from graphiti_ray.stages.urls import resolve_redirects, synthesize_redirects

    docs = read_documents(sf_dir, columns=["doc_id", "source"])
    return resolve_redirects(synthesize_redirects(docs))


def _q_web_boilerplate(sf_dir: str):
    """Per-host template/boilerplate removal over the raw page stream
    (CCNet-shape, rule bp1): ALL visible lines (header/nav/footer included)
    → per-(host, line) occurrence counts via the one-sort run-length kernel
    → drop lines hitting half the host's page count → reconstruct. On the
    pg1.2 fixture the cleaned text equals the golden main-content text
    byte-for-byte (pytest-asserted); the oracle replicates the whole rule
    relationally."""
    from graphiti_ray.stages.boilerplate import remove_boilerplate

    return remove_boilerplate(_pages(sf_dir))


def _q_web_link_graph(sf_dir: str):
    """Host-level web link graph straight off the raw HTML bytes: compiled
    byte-regex href scan per page → in-batch partial (src,dst) counts →
    one vocabulary-sized groupby-sum. The outlinks are pure doc_id
    arithmetic (pages.py::outlinks, version pg1.1), so the oracle re-derives
    the expected graph from the documents table with generate_series."""
    from graphiti_ray.stages.urls import extract_link_graph

    return extract_link_graph(_pages(sf_dir))


def _q_web_bowtie(sf_dir: str):
    """Broder-2000 bowtie census of the host link graph: every host
    labeled core (largest SCC) / in / out / other — composition of the
    scc operator and two dataset-side BFS reachability fixpoints seeded
    with the whole core. Oracle: the same zones off one recursive-CTE
    reachability closure."""
    from graphiti_ray.stages.graph import bowtie
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return bowtie(lg, src="src_host", dst="dst_host").map_batches(
        lambda t: t.rename_columns(["host", "zone"]), batch_format="pyarrow"
    )


def _q_web_walks(sf_dir: str):
    """DeepWalk-style deterministic walk corpus over the host link graph:
    2 walks × 4 steps from every host, hop k from node c taken to sorted
    neighbor md5(c:walk:k)[:8] % outdeg(c) — neighbor indices from ONE
    window_rank sort, one frontier⋈edges hash join per step, reproducible
    on any cluster size. Oracle unrolls all 4 hops with the identical md5
    arithmetic."""
    from graphiti_ray.stages.graph import random_walks
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return random_walks(
        lg, src="src_host", dst="dst_host", walks_per_node=2, length=4
    )


def _walks_oracle_sql(walks_per_node: int = 2, length: int = 4) -> str:
    md5pick = (
        "('0x' || substr(md5(f.cur || ':' || CAST(f.walk_id AS VARCHAR)"
        " || ':' || '{k}'), 1, 8))::BIGINT % e.od"
    )
    parts = [
        "he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk)",
        "nodes AS (SELECT s AS x FROM he UNION SELECT t FROM he)",
        """eidx AS (
  SELECT s, t, row_number() OVER (PARTITION BY s ORDER BY t) - 1 AS idx,
         count(*) OVER (PARTITION BY s) AS od
  FROM he
)""",
        f"wn AS (SELECT unnest(generate_series(0, {walks_per_node - 1})) AS w)",
        "w0 AS (SELECT n.x AS start, wn.w AS walk_id, n.x AS cur "
        "FROM nodes n CROSS JOIN wn)",
    ]
    for k in range(1, length + 1):
        parts.append(
            f"""w{k} AS (
  SELECT f.start, f.walk_id, e.t AS cur
  FROM w{k - 1} f JOIN eidx e
    ON e.s = f.cur AND e.idx = {md5pick.format(k=k)}
)"""
        )
    selects = [
        f"SELECT start AS start_host, walk_id, CAST({k} AS BIGINT) AS step,"
        f" cur AS host FROM w{k}"
        for k in range(0, length + 1)
    ]
    return (
        f"WITH {_LINK_GRAPH_CTE.lstrip()},\n"
        + ",\n".join(parts)
        + "\n"
        + "\nUNION ALL ".join(selects)
    )


def _q_web_host_scc(sf_dir: str):
    """Strongly connected components of the directed host link graph —
    the Broder-bowtie structure primitive. Small graphs collapse on the
    driver with iterative Tarjan behind the connected_components-style
    count gate; at scale the FW-BW peeling path (two directed min-label
    fixpoints per round, all labels/convergence dataset-side) takes over
    and is pytest-proven equal to Tarjan with the gate monkeypatched.
    Oracle: recursive-CTE reachability closure, scc_id = min mutually-
    reachable id."""
    from graphiti_ray.stages.graph import scc
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    return scc(lg, src="src_host", dst="dst_host").map_batches(
        lambda t: t.rename_columns(["host", "scc_id"]), batch_format="pyarrow"
    )


def _q_web_host_pagerank(sf_dir: str):
    """PageRank over the extracted host link graph (the classic
    Common-Crawl web-graph ranking): distinct host pairs from
    extract_link_graph feed the same unrolled 5-round kernel as
    graph_pagerank; the oracle unrolls the identical recurrence over the
    doc_id-derived edge set."""
    from graphiti_ray.stages.graph import pagerank
    from graphiti_ray.stages.urls import extract_link_graph

    lg = extract_link_graph(_pages(sf_dir)).select_columns(
        ["src_host", "dst_host"]
    )
    pr = pagerank(lg, damping=0.85, rounds=5, src="src_host", dst="dst_host")
    return pr.map_batches(
        lambda t: t.rename_columns(["host", "rank"]), batch_format="pyarrow"
    )


def _q_graph_degree(sf_dir: str):
    from graphiti_ray.stages.graph import node_degrees

    tables = _kg_tables(sf_dir, embeddings=False)
    return node_degrees(tables["edges"])


def _q_episode_windows(sf_dir: str):
    import pandas as pd
    import pyarrow as pa

    from graphiti_ray.stages.extract import (
        episodes_dataset,
        retrieve_episode_windows_scalable,
    )

    w = retrieve_episode_windows_scalable(episodes_dataset(_pages(sf_dir)), window=3)

    def fmt(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "uuid": pa.array(df["uuid"], pa.string()),
                "group_id": pa.array(df["group_id"], pa.string()),
                "prev_count": pa.array(
                    [len(p) for p in df["prev_episode_uuids"]], pa.int64()
                ),
                "prev_concat": pa.array(
                    [",".join(p) for p in df["prev_episode_uuids"]], pa.string()
                ),
            }
        )

    return w.map_batches(fmt, batch_format="pandas")


def _q_rrf_fusion(sf_dir: str):
    import pyarrow as pa

    from ray.data.aggregate import Sum

    from graphiti_ray.stages.similarity import knn_brute_force

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding"])
    ranked = knn_brute_force(emb, n_queries=2, k=50)

    def score(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = pc.divide(1.0, pc.add(pc.cast(batch.column("rank"), pa.float64()), 1.0))
        return pa.table({"vec_id": batch.column("vec_id"), "s": s})

    return (
        ranked.map_batches(score, batch_format="pyarrow")
        .groupby("vec_id")
        .aggregate(Sum("s", alias_name="rrf_score"))
    )


def _q_docs_bm25(sf_dir: str):
    """Corpus-side BM25 search over documents: sidecar index build pass +
    vectorized scoring (S9 parity). The SQL twin spells out the Okapi
    formula with the 4 query terms pivoted as columns so the floating-point
    summation order matches the Python kernel term-for-term."""
    import pyarrow as pa

    import ray

    from graphiti_ray.pipelines.search import build_bm25_index, _tokens

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    idx = build_bm25_index(docs, "text")
    q = _tokens("spark stream window merge")
    # broadcast only the query-scoped stats, never the vocabulary
    iref = ray.put(idx.subset(q))

    def score(batch: pa.Table, _ref=iref) -> pa.Table:
        import numpy as np
        import pandas as pd

        from graphiti_ray.pipelines.search import bm25_score_texts
        from graphiti_ray.stages.link import _cached_lut

        index = _cached_lut(_ref)
        texts = pd.Series(batch.column("text").to_pylist())
        scores = np.round(bm25_score_texts(index, q, texts), 6)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "bm25": pa.array(scores, pa.float64()),
            }
        )

    scored = docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    return scored.sort(["bm25", "doc_id"], descending=[True, False]).limit(20)


def _q_kg_node_attributes(sf_dir: str):
    """M5 runtime-typed attributes (node_operations.py:449-536 parity): per
    entity, the object of its latest currently-valid WORKS_AT / CEO_OF /
    LOCATED_IN edge, pivoted to (uuid, name, employer, ceo_of, location).
    The SQL twin re-derives the same winners from the edge oracle CTEs."""
    import pandas as pd
    import pyarrow as pa

    import ray

    from graphiti_ray.stages.attributes import current_edge_attributes
    from graphiti_ray.stages.ops import sorted_run_map

    tables = _kg_tables(sf_dir, embeddings=False)
    attrs = current_edge_attributes(tables["edges"])

    ATTR_COLS = ["ceo_of", "employer", "location"]

    def pivot(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {
                    "uuid": pa.array([], pa.string()),
                    **{c: pa.array([], pa.string()) for c in ATTR_COLS},
                }
            )
        df = tbl.to_pandas()
        p = df.pivot(index="uuid", columns="attr_name", values="attr_value")
        for c in ATTR_COLS:
            if c not in p.columns:
                p[c] = None
        p = p.reset_index()
        return pa.table(
            {
                "uuid": pa.array(p["uuid"], pa.string()),
                **{c: pa.array(p[c], pa.string()) for c in ATTR_COLS},
            }
        )

    pivoted = sorted_run_map(attrs, key_cols=["uuid"], block_fn=pivot)

    # node names are vocabulary-sized: broadcast a hash index, one
    # vectorized get_indexer probe per batch
    names = tables["nodes"].select_columns(["uuid", "name"]).to_pandas()
    nref = ray.put(
        (pd.Index(names["uuid"].to_numpy()), names["name"].to_numpy())
    )

    def add_name(batch: pa.Table, _ref=nref) -> pa.Table:
        import numpy as np

        from graphiti_ray.stages.link import _cached_lut

        idx, vals = _cached_lut(_ref)
        pos = idx.get_indexer(batch.column("uuid").to_numpy(zero_copy_only=False))
        out = np.where(pos >= 0, vals[pos], None)
        return batch.append_column("name", pa.array(out.tolist(), pa.string()))

    return pivoted.map_batches(add_name, batch_format="pyarrow")


def _q_graph_components(sf_dir: str):
    """Connected components over the entity graph (G5/A7 family): min-label
    convention, oracle = DuckDB recursive-CTE transitive closure."""
    import pyarrow as pa

    from graphiti_ray.stages.dedup import connected_components

    tables = _kg_tables(sf_dir, embeddings=False)
    pairs = tables["edges"].select_columns(["subj_uuid", "obj_uuid"]).map_batches(
        lambda t: t.rename_columns(["a", "b"]), batch_format="pyarrow"
    )
    cc = connected_components(pairs)
    return cc.map_batches(
        lambda t: pa.table(
            {
                "entity_uuid": t.column("doc_id"),
                "component": t.column("component"),
            }
        ),
        batch_format="pyarrow",
    )


def _q_kg_point_in_time(sf_dir: str):
    """Bi-temporal range join (interval sweep over sorted_prefix_sum):
    per episode, how many edges in its group were valid at its
    timestamp. Oracle: SQL interval-containment LEFT JOIN + count."""
    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.temporal import edges_valid_at_episodes

    tables = _kg_tables(sf_dir, embeddings=False)
    eps = episodes_dataset(_pages(sf_dir))
    return edges_valid_at_episodes(eps, tables["edges"])


def _q_episode_entity_edges(sf_dir: str):
    """J6 hydration: per episode, the ','-joined sorted uuids of the edges
    it is provenance for (episodes list exploded → sorted_run_map collect).
    Oracle: edge uuids re-derived arithmetically from resolved triples."""
    from graphiti_ray.pipelines.maintenance import episode_entity_edges

    tables = _kg_tables(sf_dir, embeddings=False)
    return episode_entity_edges(tables["edges"])


def _q_graph_bfs(sf_dir: str):
    """G1 depth-bounded BFS (broadcast frontier per round) from the
    lexicographically smallest subject entity. Oracle: recursive-CTE walk
    with min-depth aggregation."""
    from graphiti_ray.stages.graph import bfs_frontier

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"]
    center = edges.min("subj_uuid")
    return bfs_frontier(edges, [center], max_depth=3)


def _q_search_cross_encoder(sf_dir: str):
    """ST3 dataset-mode cross-encoder rerank through the ACTUAL actor-pool
    stage (CrossEncoderStage, load-once contract) with the deterministic
    default model: ce_score = round(cosine(query, name), 9), global
    (score desc, uuid) sort, limit 20. Oracle: the hashing-embedding
    cosine in SQL with absent bucket-join pairs as dot 0."""
    from graphiti_ray.pipelines.search import cross_encoder_rerank

    tables = _kg_tables(sf_dir, embeddings=False)
    ds = tables["nodes"].select_columns(["uuid", "name"])
    return cross_encoder_rerank(ds, "alice smith", "name", limit=20)


def _q_nodes_by_mentions(sf_dir: str):
    """A2 episode-mentions rerank kernel: most-mentioned-first, uuid ties
    (search_utils.py:946-973). Oracle: the same ORDER in SQL over the
    kg_nodes mention counts."""
    import numpy as np
    import pandas as pd

    from graphiti_ray.pipelines.search import episode_mentions_rerank

    tables = _kg_tables(sf_dir, embeddings=False)
    rows = tables["nodes"].select_columns(["uuid", "mention_count"]).take_all()
    counts = {r["uuid"]: int(r["mention_count"]) for r in rows}
    order = episode_mentions_rerank(sorted(counts), counts)[:25]
    return pd.DataFrame(
        {
            "uuid": order,
            "mention_count": [counts[u] for u in order],
            "rank": np.arange(1, len(order) + 1, dtype=np.int64),
        }
    )


def _q_search_mmr(sf_dir: str):
    """A3 one-shot MMR rerank over every node: rel = cosine(query, name)
    with the hashing embedder, diversity penalty = max cosine to any
    OTHER candidate; score = 0.5·rel − 0.5·max_sim, rel/max_sim rounded
    to 6 before combining (the oracle-stable order). Oracle: the
    embedding + pairwise-cosine SQL from fuzzy_pairs, an
    absent-pair-is-zero max, and the same rank expression."""
    import numpy as np
    import pandas as pd

    from graphiti_ray.pipelines.search import maximal_marginal_relevance
    from graphiti_ray.stages.embed import embed_texts

    tables = _kg_tables(sf_dir, embeddings=False)
    rows = tables["nodes"].select_columns(["uuid", "name"]).take_all()
    uuids = [r["uuid"] for r in rows]
    vecs = embed_texts([r["name"] for r in rows])
    qv = embed_texts(["alice smith"])[0]
    order = maximal_marginal_relevance(
        qv, dict(zip(uuids, vecs)), lambda_param=0.5, ndigits=6
    )[:20]
    return pd.DataFrame(
        {"uuid": order, "rank": np.arange(1, len(order) + 1, dtype=np.int64)}
    )


def _q_nodes_by_distance(sf_dir: str):
    """K4 node_distance rerank (search_utils.py:901-943 contract): every
    node ranked by hop distance from the smallest subject entity —
    center keys 0.1, reachable nodes key their depth, unreachable sort
    last (∞), ties by uuid; first 25. Oracle: the graph_bfs recursive
    CTE + the same key ordering in SQL."""
    import numpy as np
    import pandas as pd

    from graphiti_ray.pipelines.search import node_distance_rerank
    from graphiti_ray.stages.graph import node_distances

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"]
    center = edges.min("subj_uuid")
    ddf = node_distances(edges, center, max_depth=3)
    dist = dict(zip(ddf.entity_uuid, ddf.depth))
    uuids = sorted(
        r["uuid"] for r in tables["nodes"].select_columns(["uuid"]).take_all()
    )
    order = node_distance_rerank(uuids, dist, center, min_score=0.0)[:25]
    return pd.DataFrame(
        {
            "uuid": order,
            "depth": [float(dist[u]) if u in dist else np.nan for u in order],
            "rank": np.arange(1, len(order) + 1, dtype=np.int64),
        }
    )


def _q_nodes_page(sf_dir: str):
    """S8/K3 cursored scan: nodes of two groups with uuid below a fixed
    cursor, uuid DESC, first 25 (the reference's cursor pagination shape).
    Oracle: the same predicate + ORDER + LIMIT in SQL."""
    from graphiti_ray.pipelines.maintenance import get_by_group_ids

    tables = _kg_tables(sf_dir, embeddings=False)
    page = get_by_group_ids(
        tables["nodes"],
        ["src0.example.com", "src1.example.com"],
        limit=25,
        uuid_cursor="c0000000000000000000000000000000",
    )
    return page.select_columns(["uuid", "name", "group_id", "mention_count"])


def _q_fuzzy_pairs(sf_dir: str):
    """D2 semantic-dedup candidate pairs over raw mention surfaces:
    char-3-gram hashing embeddings, in-group cosine ≥ 0.65 (threshold
    chosen inside a wide gap of the sim distribution so both sides are
    FP-stable). Oracle: the full hashing-embedding + pairwise cosine
    replicated in SQL (hugeint Horner + signed bucket counts)."""
    import pyarrow as pa

    from graphiti_ray.stages.extract import episodes_dataset
    from graphiti_ray.stages.link import fuzzy_merge_pairs
    from graphiti_ray.stages.nlp import mentions_dataset

    mentions = mentions_dataset(episodes_dataset(_pages(sf_dir)))
    surfaces = mentions.select_columns(["group_id", "name"]).map_batches(
        lambda t: t.rename_columns(["group_id", "canonical"]),
        batch_format="pyarrow",
    )
    return fuzzy_merge_pairs(surfaces, threshold=0.65)


def _q_docs_lucene(sf_dir: str):
    """M8 lucene_sanitize / fulltext_query parity: per doc, the escaped
    80-char prefix and the group-scoped fulltext composition (with the
    reference's 32-word length guard). Oracle: RE2 regexp_replace + string
    composition in SQL."""
    import pyarrow as pa

    from graphiti_ray.functions.text import fulltext_query, lucene_sanitize

    docs = _read_documents(sf_dir, columns=["doc_id", "text", "source"])

    def sanitize(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sources = batch.column("source").to_pylist()
        sanitized = [lucene_sanitize(t[:80]) for t in texts]
        scoped = [
            fulltext_query(t[:80], [f"{s}.example.com"])
            for t, s in zip(texts, sources)
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sanitized": pa.array(sanitized, pa.string()),
                "fulltext": pa.array(scoped, pa.string()),
            }
        )

    return docs.map_batches(sanitize, batch_format="pyarrow", zero_copy_batch=True)


def _q_docs_fingerprint(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al.) summarized per doc
    (size/min/max — the list itself is order-sensitive, the summary is
    hash-stable). Oracle: the positional polynomial shingle hashes + the
    sliding-window min + adjacent dedup replicated in SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.textstats import WINNOW_K, WINNOW_W, fingerprints

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    # docs with fewer than WINNOW_W shingle hashes take the engine's
    # single-[min] fallback, which the SQL sliding-window twin cannot
    # express — the guard (chars ≥ k+w-1 ⇒ hashes ≥ w) keeps the check
    # exact on any corpus, not just ones without tiny docs
    docs = docs.map_batches(
        lambda t: t.filter(
            pc.greater_equal(
                pc.utf8_length(t.column("text")), WINNOW_K + WINNOW_W - 1
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def summar(batch: pa.Table) -> pa.Table:
        col = batch.column("fp").combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        vals = col.values.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fp_size": pa.array(np.diff(offs), pa.int64()),
                "fp_min": pa.array(np.minimum.reduceat(vals, offs[:-1]), pa.int64()),
                "fp_max": pa.array(np.maximum.reduceat(vals, offs[:-1]), pa.int64()),
            }
        )

    return fingerprints(docs).map_batches(
        summar, batch_format="pyarrow", zero_copy_batch=True
    )


def _winnow_oracle_sql() -> str:
    from graphiti_ray.stages.textstats import WINNOW_K, WINNOW_W

    p_pow = [pow(_POLY_INT, j, _M64) for j in range(WINNOW_K)]
    shingle_terms = " + ".join(
        [f"b * {p_pow[WINNOW_K - 1]}::HUGEINT"]
        + [
            f"lead(b, {j}) OVER w * {p_pow[WINNOW_K - 1 - j]}::HUGEINT"
            for j in range(1, WINNOW_K)
        ]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents
            WHERE length(text) >= {WINNOW_K + WINNOW_W - 1}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({shingle_terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
sh AS (
  SELECT doc_id, i, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h,
         n - {WINNOW_K - 1} AS m
  FROM sh0 WHERE i <= n - {WINNOW_K - 1}
),
wmin AS (
  SELECT doc_id, i, m,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {WINNOW_W - 1} FOLLOWING)
           AS wm
  FROM sh
),
wins AS (SELECT doc_id, i, wm FROM wmin WHERE i <= m - {WINNOW_W - 1}),
ded AS (
  SELECT doc_id, wm, lag(wm) OVER (PARTITION BY doc_id ORDER BY i) AS prev
  FROM wins
),
fp AS (SELECT doc_id, wm FROM ded WHERE prev IS NULL OR wm <> prev)
SELECT doc_id, count(*)::BIGINT AS fp_size, min(wm) AS fp_min, max(wm) AS fp_max
FROM fp GROUP BY 1
"""


def _q_kg_communities(sf_dir: str):
    from graphiti_ray.stages.graph import build_communities

    tables = _kg_tables(sf_dir, embeddings=False)
    out = build_communities(tables["nodes"], tables["edges"])
    return out["communities"].select_columns(["uuid", "group_id", "n_members"])


def _q_graph_modularity(sf_dir: str):
    """Exact-integer Newman modularity of the connected-component
    partition over the KG edge multigraph: q_num = 2m·S_A(c) − d_c² per
    community, divisions cleared. (The synchronous-LPA assignment is the
    degenerate witness here — it oscillates on this bipartite-ish graph
    to zero internal edges — so the CC partition, where every term is
    exercised with non-trivial values, is the scored assignment.)"""
    import pyarrow as pa

    from graphiti_ray.stages.dedup import connected_components
    from graphiti_ray.stages.graph import modularity

    tables = _kg_tables(sf_dir, embeddings=False)
    pairs = tables["edges"].select_columns(["subj_uuid", "obj_uuid"]).map_batches(
        lambda t: t.rename_columns(["a", "b"]), batch_format="pyarrow"
    )
    labels = connected_components(pairs).map_batches(
        lambda t: pa.table(
            {"node": t.column("doc_id"), "community": t.column("component")}
        ),
        batch_format="pyarrow",
    )
    return modularity(tables["edges"], labels)


def _q_search_hybrid(sf_dir: str):
    """Dataset-mode RRF hybrid search: two streaming passes per table (a
    query-term BM25 stats pass, then one fused scoring pass keeping each
    block's top 2×limit rows per method) and an in-process merge — no
    sort, shuffle or to_pandas of full tables; the pandas KGSearcher is
    the small-graph convenience twin (equality asserted in
    tests/test_dataset_search.py)."""
    from graphiti_ray.pipelines.dataset_search import KGDatasetSearcher
    from graphiti_ray.pipelines.search import COMBINED_HYBRID_SEARCH_RRF

    tables = _kg_tables(sf_dir, embeddings=True)
    searcher = KGDatasetSearcher(tables)
    res = searcher.search(_SEARCH_QUERY, COMBINED_HYBRID_SEARCH_RRF)
    return res.edges[["uuid", "group_id", "pred", "fact"]]


def _q_docs_dup_spans(sf_dir: str):
    """Intra-corpus duplicated-span measurement (Lee et al. 2022
    diagnostic): per doc, the count and fraction of its distinct char
    32-gram hashes that occur in ≥1 OTHER doc. The gram df comes from
    ops.annotate_run_lengths — ONE range sort of the gram stream plus an
    O(num_blocks) boundary exchange, no groupby+join-back (hub grams cost
    one integer of carry per block boundary). Oracle: the same Horner
    shingle hashes, df via GROUP BY, probe join back."""
    from graphiti_ray.stages.dedup import duplicated_ngram_stats

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return duplicated_ngram_stats(docs)


def _dup_spans_oracle_sql() -> str:
    from graphiti_ray.stages.dedup import DUPSPAN_K

    k = DUPSPAN_K
    p_pow = [pow(_POLY_INT, j, _M64) for j in range(k)]
    terms = " + ".join(
        [f"b * {p_pow[k - 1]}::HUGEINT"]
        + [f"lead(b, {j}) OVER w * {p_pow[k - 1 - j]}::HUGEINT" for j in range(1, k)]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents
            WHERE length(text) >= {k}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
shingles AS (
  SELECT DISTINCT doc_id, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {k - 1}
),
df AS (SELECT h, count(*) AS df FROM shingles GROUP BY 1),
tot AS (SELECT doc_id, count(*) AS n_grams FROM shingles GROUP BY 1),
dup AS (
  SELECT s.doc_id, count(*) AS n_dup
  FROM shingles s JOIN df USING (h) WHERE df.df >= 2 GROUP BY 1
)
SELECT t.doc_id, t.n_grams,
       coalesce(d.n_dup, 0)::BIGINT AS n_dup_grams,
       coalesce(d.n_dup, 0)::DOUBLE / t.n_grams AS dup_fraction
FROM tot t LEFT JOIN dup d USING (doc_id)
"""


def _q_docs_dedup_spans(sf_dir: str):
    """Lee et al. 2022 duplicated-span REMOVAL (docs_dup_spans is the
    diagnostic; this is the transform): chars covered by a char-32-gram
    occurring at >=2 positions corpus-wide are cut. Gram df via
    annotate_run_lengths, per-doc start lists via sorted_run_map, one
    LEFT hash join back, vectorized difference-array mask per doc."""
    from graphiti_ray.stages.dedup import remove_duplicated_spans

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return remove_duplicated_spans(docs)


def _dedup_spans_oracle_sql() -> str:
    from graphiti_ray.stages.dedup import DUPSPAN_K

    k = DUPSPAN_K
    p_pow = [pow(_POLY_INT, j, _M64) for j in range(k)]
    terms = " + ".join(
        [f"b * {p_pow[k - 1]}::HUGEINT"]
        + [f"lead(b, {j}) OVER w * {p_pow[k - 1 - j]}::HUGEINT" for j in range(1, k)]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents),
long AS (SELECT doc_id, t FROM lt WHERE length(t) >= {k}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM long, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
pg AS (
  SELECT doc_id, i, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {k - 1}
),
df AS (SELECT h, count(*) AS c FROM pg GROUP BY 1),
dupstart AS (SELECT pg.doc_id, pg.i FROM pg JOIN df USING (h) WHERE df.c >= 2),
chars AS (
  SELECT l.doc_id, u.j, substr(l.t, u.j, 1) AS ch
  FROM lt l, LATERAL unnest(range(1, length(l.t) + 1)) AS u(j)
),
flag AS (
  SELECT c.doc_id, c.j, c.ch,
         max(CASE WHEN s.i IS NOT NULL THEN 1 ELSE 0 END)
           OVER (PARTITION BY c.doc_id ORDER BY c.j
                 ROWS BETWEEN {k - 1} PRECEDING AND CURRENT ROW) AS cov
  FROM chars c
  LEFT JOIN dupstart s ON s.doc_id = c.doc_id AND s.i = c.j
),
agg AS (
  SELECT doc_id,
         coalesce(string_agg(ch, '' ORDER BY j) FILTER (WHERE cov = 0), '')
           AS cleaned_text,
         sum(cov)::BIGINT AS n_removed
  FROM flag GROUP BY 1
)
SELECT l.doc_id, coalesce(a.cleaned_text, l.t) AS cleaned_text,
       coalesce(a.n_removed, 0)::BIGINT AS n_removed
FROM lt l LEFT JOIN agg a USING (doc_id)
"""


def _q_docs_cdc(sf_dir: str):
    """Content-defined chunking (pure Rabin/Gear mask rule): boundary
    after every position whose rolling 16-byte Horner hash is 0 mod 64.
    Embarrassingly parallel — one map_batches pass, zero shuffle; chunk
    digests via the vectorized Arrow md5 the exact-dedup path uses."""
    from graphiti_ray.stages.dedup import cdc_chunks

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return cdc_chunks(docs)


def _cdc_oracle_sql() -> str:
    from graphiti_ray.stages.dedup import CDC_K, CDC_MASK

    k = CDC_K
    mod = CDC_MASK + 1
    p_pow = [pow(_POLY_INT, j, _M64) for j in range(k)]
    terms = " + ".join(
        [f"b * {p_pow[k - 1]}::HUGEINT"]
        + [f"lead(b, {j}) OVER w * {p_pow[k - 1 - j]}::HUGEINT" for j in range(1, k)]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents),
long AS (SELECT doc_id, t FROM lt WHERE length(t) >= {k}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM long, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
pg AS (
  SELECT doc_id, i, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h, n
  FROM sh0 WHERE i <= n - {k - 1}
),
cuts AS (
  SELECT doc_id, i + {k - 1} AS cut
  FROM pg WHERE h % {mod} = 0 AND i + {k - 1} < n
),
b0 AS (
  SELECT doc_id, 0 AS cut FROM lt
  UNION ALL SELECT doc_id, cut FROM cuts
),
ch AS (
  SELECT doc_id, cut + 1 AS start,
         row_number() OVER (PARTITION BY doc_id ORDER BY cut) - 1 AS chunk_id,
         lead(cut) OVER (PARTITION BY doc_id ORDER BY cut) AS nxt
  FROM b0
)
SELECT c.doc_id, c.chunk_id::BIGINT AS chunk_id, c.start::BIGINT AS start,
       (coalesce(c.nxt, length(l.t)) - c.start + 1)::BIGINT AS length,
       md5(substr(l.t, c.start,
                  coalesce(c.nxt, length(l.t)) - c.start + 1)) AS chunk_md5
FROM ch c JOIN lt l USING (doc_id)
"""


def _q_docs_novelty(sf_dir: str):
    """Per-doc gram novelty (dual of docs_dup_spans): share of a doc's
    distinct char-32-grams FIRST SEEN in that doc (lowest doc_id wins).
    One range sort — sorted_run_map over (h, doc_id) runs flags the first
    carrier, no groupby(h).min + join-back."""
    from graphiti_ray.stages.dedup import gram_novelty

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return gram_novelty(docs)


def _novelty_oracle_sql() -> str:
    from graphiti_ray.stages.dedup import DUPSPAN_K

    k = DUPSPAN_K
    p_pow = [pow(_POLY_INT, j, _M64) for j in range(k)]
    terms = " + ".join(
        [f"b * {p_pow[k - 1]}::HUGEINT"]
        + [f"lead(b, {j}) OVER w * {p_pow[k - 1 - j]}::HUGEINT" for j in range(1, k)]
    )
    return rf"""
WITH lt AS (SELECT doc_id, lower(text) AS t FROM documents
            WHERE length(text) >= {k}),
bytes AS (
  SELECT doc_id, i, ord(substr(t, i, 1))::HUGEINT AS b, length(t) AS n
  FROM lt, LATERAL unnest(range(1, length(t) + 1)) AS u(i)
),
sh0 AS (
  SELECT doc_id, ({terms}) % 18446744073709551616::HUGEINT AS h64, i, n
  FROM bytes
  WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
shingles AS (
  SELECT DISTINCT doc_id, (h64 % 2305843009213693952::HUGEINT)::BIGINT AS h
  FROM sh0 WHERE i <= n - {k - 1}
),
firsts AS (SELECT h, min(doc_id) AS d0 FROM shingles GROUP BY 1),
novel AS (SELECT d0 AS doc_id, count(*) AS n_novel FROM firsts GROUP BY 1),
tot AS (SELECT doc_id, count(*) AS n_grams FROM shingles GROUP BY 1)
SELECT t.doc_id, t.n_grams,
       coalesce(v.n_novel, 0)::BIGINT AS n_novel,
       coalesce(v.n_novel, 0)::DOUBLE / t.n_grams AS novelty_fraction
FROM tot t LEFT JOIN novel v USING (doc_id)
"""


def _q_docs_tfidf(sf_dir: str):
    """Per-doc TF-IDF top-3 keywords — df via annotate_run_lengths (no
    vocabulary broadcast, no driver dict), per-doc top-k via
    sorted_run_map. Scores rounded to 1e-6 before ranking on BOTH sides so
    ordering never hinges on libm ulp agreement."""
    from graphiti_ray.stages.textstats import tfidf_keywords

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return tfidf_keywords(docs)


_TFIDF_ORACLE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
nn AS (SELECT count(*)::DOUBLE AS n FROM toks),
tf AS (
  SELECT doc_id, t AS term, count(*)::DOUBLE AS tf
  FROM toks, LATERAL unnest(tk) AS u(t)
  GROUP BY 1, 2
),
dfs AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
scored AS (
  SELECT tf.doc_id, tf.term, round(tf.tf * ln(nn.n / dfs.df), 6) AS score
  FROM tf JOIN dfs USING (term) CROSS JOIN nn
),
ranked AS (
  SELECT doc_id, term, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term)
           AS rank
  FROM scored
)
SELECT doc_id, rank::BIGINT AS rank, term, score
FROM ranked WHERE rank <= 3
"""


def _q_docs_pack(sf_dir: str):
    """Sequence packing for training-batch assembly: hash-sharded streams,
    doc-granular contiguous quota fill (pack_id = exclusive-prefix-tokens
    // budget) — the shuffle-free equivalent of greedy first-fit, built on
    ops.sorted_prefix_sum (one sort + one integer of carry per boundary)."""
    from graphiti_ray.pipelines.corpus import pack_sequences

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return pack_sequences(docs)


_PACK_ORACLE = r"""
WITH toks AS (
  SELECT doc_id, doc_id % 8 AS shard,
         len(regexp_extract_all(lower(text), '\w+'))::BIGINT AS n_tokens
  FROM documents
),
summed AS (
  SELECT doc_id, shard, n_tokens,
         sum(n_tokens) OVER (PARTITION BY shard ORDER BY doc_id)
           - n_tokens AS prefix
  FROM toks
)
SELECT doc_id, shard::BIGINT AS shard, n_tokens,
       (prefix // 512)::BIGINT AS pack_id,
       (prefix % 512)::BIGINT AS pack_offset
FROM summed
"""


def _q_docs_corr(sf_dir: str):
    """Pearson correlation census between doc length (chars) and
    whitespace-token count: exact int64 moment sums, one tiny reduce,
    r on the 1e-6 lattice."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import corr_census

    docs = _read_documents(sf_dir, columns=["text"])

    def lens(t: pa.Table) -> pa.Table:
        import pandas as pd

        texts = pd.Series(t.column("text").to_pylist()).fillna("")
        return pa.table(
            {
                "n_chars": pa.array(
                    texts.str.len().to_numpy(), pa.int64()
                ),
                "n_tokens": pa.array(
                    texts.str.split().str.len().to_numpy(), pa.int64()
                ),
            }
        )

    return corr_census(
        docs.map_batches(lens, batch_format="pyarrow", zero_copy_batch=True),
        "n_chars",
        "n_tokens",
    )


_DOCS_CORR_ORACLE = r"""
WITH v AS (
  SELECT length(text)::BIGINT AS x,
         len(list_filter(string_split_regex(text, '\s+'),
                         t -> t <> ''))::BIGINT AS y
  FROM documents
),
m AS (
  SELECT count(*)::BIGINT AS n, sum(x)::BIGINT AS sum_x,
         sum(y)::BIGINT AS sum_y, sum(x * x)::BIGINT AS sum_xx,
         sum(y * y)::BIGINT AS sum_yy, sum(x * y)::BIGINT AS sum_xy
  FROM v
)
SELECT n, sum_x, sum_y, sum_xx, sum_yy, sum_xy,
       round((n * sum_xy - sum_x * sum_y)
             / sqrt(((n * sum_xx - sum_x * sum_x)
                     * (n * sum_yy - sum_y * sum_y))::DOUBLE)
             * 1000000)::BIGINT AS r_e6
FROM m
"""


def _q_docs_ks_drift(sf_dir: str):
    """Two-sample KS drift between src0's and src1's doc-length
    distributions on the exact integer cross lattice — the
    distribution-shift QA gate."""
    from graphiti_ray.stages.ops import ks_drift

    docs = _read_documents(sf_dir, columns=["n_chars", "source"])
    return ks_drift(docs, "n_chars", "source", "src0", "src1")


_DOCS_KS_ORACLE = """
WITH f AS (
  SELECT n_chars::BIGINT AS v,
         CASE WHEN source = 'src0' THEN 1 ELSE 0 END::BIGINT AS a,
         CASE WHEN source = 'src1' THEN 1 ELSE 0 END::BIGINT AS b
  FROM documents WHERE source IN ('src0', 'src1')
),
c AS (SELECT v, sum(a)::BIGINT AS na, sum(b)::BIGINT AS nb FROM f GROUP BY v),
cum AS (
  SELECT v, sum(na) OVER (ORDER BY v)::BIGINT AS ca,
         sum(nb) OVER (ORDER BY v)::BIGINT AS cb
  FROM c
),
tot AS (SELECT sum(na)::BIGINT AS ta, sum(nb)::BIGINT AS tb FROM c)
SELECT ta AS n_a, tb AS n_b,
       max(abs(ca * tb - cb * ta))::BIGINT AS d_num,
       ((max(abs(ca * tb - cb * ta)) * 1000000) // (ta * tb))::BIGINT AS ks_e6
FROM cum CROSS JOIN tot GROUP BY ta, tb
"""


def _q_embeddings_ood(sf_dir: str):
    """Per-vector OOD margin vs label centroids (mislabel filter):
    centroids from exact integer moment sums (the lang_centroids
    convention), cosines rounded 1e-6, margin = own − best-other."""

    from graphiti_ray.stages.similarity import ood_margin

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding", "label"])
    return ood_margin(emb)


_EMBEDDINGS_OOD_ORACLE = """
WITH x AS (
  SELECT label::BIGINT AS label, (u.i - 1)::BIGINT AS j,
         CAST(floor(embedding[u.i]::DOUBLE * 1000000) AS BIGINT) AS q
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
m AS (
  SELECT label, j, sum(q)::BIGINT AS sum_q, count(*)::BIGINT AS n
  FROM x GROUP BY 1, 2
),
cent AS (
  SELECT label, list(sum_q::DOUBLE / (n * 1000000) ORDER BY j) AS c
  FROM m GROUP BY label
),
s AS (
  SELECT e.vec_id, e.label::BIGINT AS label, c.label AS clabel,
         round(list_cosine_similarity(e.embedding::DOUBLE[], c.c), 6) AS cos
  FROM embeddings e CROSS JOIN cent c
)
SELECT vec_id, label,
       max(CASE WHEN clabel = label THEN cos END) AS own_cos,
       max(CASE WHEN clabel <> label THEN cos END) AS best_other_cos,
       round(max(CASE WHEN clabel = label THEN cos END)
             - max(CASE WHEN clabel <> label THEN cos END), 6) AS margin
FROM s GROUP BY 1, 2
"""


def _q_kg_edge_churn(sf_dir: str):
    """Bi-temporal churn census: per (group, month) how many edges were
    CREATED (valid_at) and how many INVALIDATED (invalid_at) — the
    temporal-KG health dashboard row. Combiner per batch, one small
    keyed sum, outer-merged on the (group, month) lattice."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    tables = _kg_tables(sf_dir, embeddings=False)
    edges = tables["edges"].select_columns(["group_id", "valid_at", "invalid_at"])

    def partial(t: pa.Table) -> pa.Table:
        out = []
        for col, flag in (("valid_at", 1), ("invalid_at", 0)):
            sub = t.filter(pc.is_valid(t.column(col)))
            if sub.num_rows == 0:
                continue
            m = pc.floor_temporal(
                pc.cast(sub.column(col), pa.timestamp("us")), unit="month"
            )
            g = (
                pa.table({"group_id": sub.column("group_id"), "month": m})
                .group_by(["group_id", "month"])
                .aggregate([([], "count_all")])
            )
            out.append(
                pa.table(
                    {
                        "group_id": g.column("group_id"),
                        "month": g.column("month"),
                        "c": pc.multiply(
                            pc.cast(g.column("count_all"), pa.int64()),
                            pa.scalar(flag, pa.int64()),
                        ),
                        "i": pc.multiply(
                            pc.cast(g.column("count_all"), pa.int64()),
                            pa.scalar(1 - flag, pa.int64()),
                        ),
                    }
                )
            )
        if not out:
            return pa.table(
                {
                    "group_id": pa.array([], pa.string()),
                    "month": pa.array([], pa.timestamp("us")),
                    "c": pa.array([], pa.int64()),
                    "i": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(out)

    return (
        edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["group_id", "month"])
        .aggregate(
            Sum("c", alias_name="n_created"),
            Sum("i", alias_name="n_invalidated"),
        )
    )


def _q_kg_integrity(sf_dir: str):
    """Referential-integrity audit of the built KG: row totals + dangling
    FK counts via left_anti joins; the danglings are structurally 0 for
    this engine and the SQL twin recomputes every count from the raw-doc
    oracles."""
    from graphiti_ray.pipelines.maintenance import integrity_counts

    return integrity_counts(_kg_tables(sf_dir, embeddings=False))


def _q_dedup_ppjoin(sf_dir: str):
    """Exact n-gram Jaccard pairs via PPJoin prefix filtering (Xiao 2008)
    — a provably-complete second algorithm value-pinned to the SAME SQL
    twin as the bottom-k blocking (dedup_ngram)."""
    from graphiti_ray.stages.dedup import ngram_jaccard_ppjoin

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return ngram_jaccard_ppjoin(docs, threshold=0.8)


def _q_docs_source_epochs(sf_dir: str):
    """LLaMA-style mixture epoch planning: per-source token census, sqrt
    weights, budget split and implied epochs — all on the integer ppm/1e6
    lattice so SQL replays every division."""
    from graphiti_ray.pipelines.corpus import source_epochs

    docs = _read_documents(sf_dir, columns=["text", "source"])
    return source_epochs(docs)


_SOURCE_EPOCHS_ORACLE = r"""
WITH t AS (
  SELECT source, count(*)::BIGINT AS n_docs,
         sum(len(list_filter(string_split_regex(text, '\s+'),
                             x -> x <> '')))::BIGINT AS n_tokens
  FROM documents GROUP BY 1
),
s AS (SELECT *, round(sqrt(n_tokens) * 1000000)::BIGINT AS sqrt6 FROM t),
tot AS (SELECT sum(sqrt6)::BIGINT AS ss, sum(n_tokens)::BIGINT AS tt FROM s)
SELECT source, n_docs, n_tokens, sqrt6,
       (sqrt6 * 1000000) // ss AS weight_ppm,
       (2 * tt * ((sqrt6 * 1000000) // ss)) // 1000000 AS budget_tokens,
       (((2 * tt * ((sqrt6 * 1000000) // ss)) // 1000000) * 1000000)
         // n_tokens AS epochs_e6
FROM s CROSS JOIN tot
"""


def _q_docs_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail perplexity tiers (Wenzek 2019 §4.3): corpus-
    trained bigram-LM score per doc, then NTILE(3) over the exact integer
    avg-logp lattice — the quality tiers web corpora actually ship in.
    Oracle: the docs_lm_score CTE + NTILE window."""
    from graphiti_ray.pipelines.corpus import ccnet_buckets

    docs = _read_documents(sf_dir, columns=["doc_id", "text"])
    return ccnet_buckets(docs)


_CCNET_BUCKETS_ORACLE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
vocab AS (
  SELECT count(DISTINCT t) AS v FROM toks, LATERAL unnest(tk) AS u(t)
),
bi AS (
  SELECT doc_id, tk[i] AS w1, tk[i + 1] AS w2
  FROM toks, LATERAL unnest(range(1, len(tk))) AS u(i)
),
c2 AS (SELECT w1, w2, count(*) AS c2 FROM bi GROUP BY 1, 2),
c1 AS (SELECT w1, count(*) AS c1 FROM bi GROUP BY 1),
lp AS (
  SELECT b.doc_id,
         round(ln((c2.c2 + 1)::DOUBLE / (c1.c1 + v.v)) * 1000000)::BIGINT
           AS lp6
  FROM bi b JOIN c2 USING (w1, w2) JOIN c1 USING (w1) CROSS JOIN vocab v
),
scored AS (
  SELECT doc_id, count(*)::BIGINT AS n_bigrams,
         (CASE WHEN sum(lp6) < 0
               THEN -((-2 * sum(lp6) + count(*)) // (2 * count(*)))
               ELSE (2 * sum(lp6) + count(*)) // (2 * count(*)) END
         )::BIGINT AS avg_lp6
  FROM lp GROUP BY 1
),
tiled AS (
  SELECT doc_id, n_bigrams, avg_lp6,
         NTILE(3) OVER (ORDER BY avg_lp6 DESC, doc_id)::BIGINT AS tile
  FROM scored
)
SELECT doc_id, n_bigrams, avg_lp6, tile,
       CASE tile WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END
         AS bucket
FROM tiled
"""


def _q_knn_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining (DPR): per query vector, the
    top-5 most cosine-similar vectors with a DIFFERENT label — broadcast
    queries, per-batch masked top-k, tiny per-query reduce."""

    from graphiti_ray.stages.similarity import hard_negatives

    emb = _read_embeddings(sf_dir, columns=["vec_id", "embedding", "label"])
    return hard_negatives(emb, n_queries=32, k=5)


_HARD_NEGATIVES_ORACLE = """
WITH q AS (
  SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv, label AS qlabel
  FROM embeddings ORDER BY vec_id LIMIT 32
),
scored AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6) AS cosine
  FROM embeddings e CROSS JOIN q
  WHERE e.label <> q.qlabel
),
ranked AS (
  SELECT *, row_number() OVER (
      PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
  FROM scored
)
SELECT query_id, vec_id, cosine, rank FROM ranked WHERE rank <= 5
"""


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDERING IS COVERAGE ROTATION: the driver checks a prefix of this
    # dict (50 of 63 in round 3), so the 11 queries that have NEVER had a
    # driver row (builder-oracle-only through r03) come first, then this
    # round's new operators, then the core suite; queries already
    # value-proven in an earlier round's CORRECTNESS file rotate to the
    # tail.
    return {
        "web_host_stress": _q_web_host_stress,
        "docs_readability": _q_docs_readability,
        "docs_skipgrams": _q_docs_skipgrams,
        "kg_allen_census": _q_kg_allen_census,
        "docs_llr": _q_docs_llr,
        "embeddings_pca": _q_embeddings_pca,
        "kg_path_query": _q_kg_path_query,
        "kg_invalidations": _q_kg_invalidations,
        "embeddings_cos_hist": _q_embeddings_cos_hist,
        "docs_bpe_train": _q_docs_bpe_train,
        "web_host_triads": _q_web_host_triads,
        "kg_workforce_by_place": _q_kg_workforce_by_place,
        "kg_path_query_asof": _q_kg_path_query_asof,
        "docs_corr": _q_docs_corr,
        "docs_ks_drift": _q_docs_ks_drift,
        "embeddings_ood": _q_embeddings_ood,
        "kg_edge_churn": _q_kg_edge_churn,
        "kg_integrity": _q_kg_integrity,
        "dedup_ppjoin": _q_dedup_ppjoin,
        "docs_source_epochs": _q_docs_source_epochs,
        "docs_ccnet_buckets": _q_docs_ccnet_buckets,
        "knn_hard_negatives": _q_knn_hard_negatives,
        "crawl_budget": _q_crawl_budget,
        "web_core_rank": _q_web_core_rank,
        "web_degree_alpha": _q_web_degree_alpha,
        "cdx_revisits": _q_cdx_revisits,
        "web_component_sizes": _q_web_component_sizes,
        "web_rank_weighted": _q_web_rank_weighted,
        "web_rich_club": _q_web_rich_club,
        "kg_ego_network": _q_kg_ego_network,
        "web_host_scc": _q_web_host_scc,
        "web_walks": _q_web_walks,
        "web_bowtie": _q_web_bowtie,
        "docs_dedup_lines": _q_docs_dedup_lines,
        "web_reciprocity": _q_web_reciprocity,
        "cdx_index": _q_cdx_index,
        "web_host_communities": _q_web_host_communities,
        "web_pipeline": _q_web_pipeline,
        "warc_roundtrip": _q_warc_roundtrip,
        "robots_filter": _q_robots_filter,
        "web_host_harmonic": _q_web_host_harmonic,
        "web_host_ppr": _q_web_host_ppr,
        "web_quality": _q_web_quality,
        "crawl_schedule": _q_crawl_schedule,
        "web_redirects": _q_web_redirects,
        "web_boilerplate": _q_web_boilerplate,
        "graph_assortativity": _q_graph_assortativity,
        "pages_latest_snapshot": _q_pages_latest_snapshot,
        "web_link_graph": _q_web_link_graph,
        "web_host_pagerank": _q_web_host_pagerank,
        "graph_clustering": _q_graph_clustering,
        "docs_bpe_pairs": _q_docs_bpe_pairs,
        "graph_adamic_adar": _q_graph_adamic_adar,
        "pages_url_normalize": _q_pages_url_normalize,
        "pages_domain_cap": _q_pages_domain_cap,
        "episode_entity_edges": _q_episode_entity_edges,
        "graph_bfs": _q_graph_bfs,
        "search_mmr": _q_search_mmr,
        "search_cross_encoder": _q_search_cross_encoder,
        "nodes_by_mentions": _q_nodes_by_mentions,
        "nodes_by_distance": _q_nodes_by_distance,
        "nodes_page": _q_nodes_page,
        "fuzzy_pairs": _q_fuzzy_pairs,
        "docs_lucene": _q_docs_lucene,
        "docs_fingerprint": _q_docs_fingerprint,
        "dedup_levenshtein": _q_dedup_levenshtein,
        "docs_hll_by_lang": _q_docs_hll_by_lang,
        "graph_modularity": _q_graph_modularity,
        "docs_temperature": _q_docs_temperature,
        "docs_histogram": _q_docs_histogram,
        "lang_top_tokens": _q_lang_top_tokens,
        "embeddings_jl": _q_embeddings_jl,
        "docs_intersect": _q_docs_intersect,
        "docs_except": _q_docs_except,
        "lang_distinct_texts": _q_lang_distinct_texts,
        "docs_rollup": _q_docs_rollup,
        "docs_checksum": _q_docs_checksum,
        "knn_mutual": _q_knn_mutual,
        "docs_diff": _q_docs_diff,
        "docs_epoch_shuffle": _q_docs_epoch_shuffle,
        "lang_centroids": _q_lang_centroids,
        "docs_entropy": _q_docs_entropy,
        "lang_moments": _q_lang_moments,
        "docs_weighted_sample": _q_docs_weighted_sample,
        "docs_shards": _q_docs_shards,
        "docs_bloom_join": _q_docs_bloom_join,
        "docs_pivot": _q_docs_pivot,
        "docs_melt": _q_docs_melt,
        "docs_cube": _q_docs_cube,
        "docs_encode": _q_docs_encode,
        "knn_neighbor_agg": _q_knn_neighbor_agg,
        "docs_split": _q_docs_split,
        "knn_classify": _q_knn_classify,
        "docs_phrase": _q_docs_phrase,
        "docs_zorder": _q_docs_zorder,
        "tokens_cms_by_lang": _q_tokens_cms_by_lang,
        "docs_profile": _q_docs_profile,
        "docs_skyline": _q_docs_skyline,
        "docs_cdc": _q_docs_cdc,
        "docs_novelty": _q_docs_novelty,
        "graph_hits": _q_graph_hits,
        "docs_pmi": _q_docs_pmi,
        "docs_dsir": _q_docs_dsir,
        "docs_dedup_spans": _q_docs_dedup_spans,
        "docs_lm_score": _q_docs_lm_score,
        "embeddings_semdedup": _q_embeddings_semdedup,
        "embeddings_kmeans": _q_embeddings_kmeans,
        "docs_dup_spans": _q_docs_dup_spans,
        "docs_tfidf": _q_docs_tfidf,
        "graph_kcore": _q_graph_kcore,
        "docs_pack": _q_docs_pack,
        "kg_edges_messages": _q_kg_edges_messages,
        "kg_mentions_messages": _q_kg_mentions_messages,
        "dedup_embedding_lsh_full": _q_dedup_embedding_lsh_full,
        "docs_blocklist": _q_docs_blocklist,
        "docs_nb_lang": _q_docs_nb_lang,
        "dedup_containment": _q_dedup_containment,
        "graph_jaccard_links": _q_graph_jaccard_links,
        "embeddings_dbscan": _q_embeddings_dbscan,
        "graph_salsa": _q_graph_salsa,
        "docs_trending": _q_docs_trending,
        "docs_proximity": _q_docs_proximity,
        "docs_len_quantiles_by_lang": _q_docs_len_quantiles_by_lang,
        "kg_negative_samples": _q_kg_negative_samples,
        "kg_validity_islands": _q_kg_validity_islands,
        "tokens_mg": _q_tokens_mg,
        "web_cocitation": _q_web_cocitation,
        "web_coupling": _q_web_coupling,
        "web_page_meta": _q_web_page_meta,
        "search_classifier": _q_search_classifier,
        "docs_nb_confusion": _q_docs_nb_confusion,
        "docs_rank_tau": _q_docs_rank_tau,
        "docs_psi": _q_docs_psi,
        "docs_snippet": _q_docs_snippet,
        "docs_jsonl_roundtrip": _q_docs_jsonl_roundtrip,
        "docs_partition_prune": _q_docs_partition_prune,
        "docs_csv_roundtrip": _q_docs_csv_roundtrip,
        "docs_balanced": _q_docs_balanced,
        "kg_node_summaries": _q_kg_node_summaries,
        "web_distance_histogram": _q_web_distance_histogram,
        "kg_pred_pairs": _q_kg_pred_pairs,
        "docs_training_mix": _q_docs_training_mix,
        "graph_transitivity": _q_graph_transitivity,
        "docs_vocab_growth": _q_docs_vocab_growth,
        "docs_zipf_alpha": _q_docs_zipf_alpha,
        "docs_gini": _q_docs_gini,
        "kg_entity_pmi": _q_kg_entity_pmi,
        "docs_diversity": _q_docs_diversity,
        "docs_mi": _q_docs_mi,
        "docs_bm25_batch": _q_docs_bm25_batch,
        "dedup_incremental": _q_dedup_incremental,
        "docs_coverage": _q_docs_coverage,
        "embeddings_pq": _q_embeddings_pq,
        "knn_pq": _q_knn_pq,
        "docs_len_quantiles": _q_docs_len_quantiles,
        "dedup_snm": _q_dedup_snm,
        "docs_minimizers": _q_docs_minimizers,
        "dedup_minimizer": _q_dedup_minimizer,
        "graph_ktruss": _q_graph_ktruss,
        "kg_communities": _q_kg_communities,
        "search_hybrid": _q_search_hybrid,
        "docs_bm25": _q_docs_bm25,
        "kg_episodes": _q_kg_episodes,
        "kg_mentions": _q_kg_mentions,
        "kg_triples_raw": _q_kg_triples_raw,
        "kg_nodes": _q_kg_nodes,
        "kg_edges": _q_kg_edges,
        "kg_point_in_time": _q_kg_point_in_time,
        "kg_node_attributes": _q_kg_node_attributes,
        "episode_windows": _q_episode_windows,
        "graph_components": _q_graph_components,
        "graph_degree": _q_graph_degree,
        "graph_pagerank": _q_graph_pagerank,
        "graph_triangles": _q_graph_triangles,
        "rrf_fusion": _q_rrf_fusion,
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_embedding": _q_dedup_embedding,
        "dedup_ngram": _q_dedup_ngram,
        "knn_bruteforce": _q_knn,
        "knn_ivf_full": _q_knn_ivf,
        "corpus_clean": _q_corpus_clean,
        "docs_chunks": _q_docs_chunks,
        "docs_decontaminate": _q_docs_decontaminate,
        "docs_pii": _q_docs_pii,
        "docs_stratified": _q_docs_stratified,
        "docs_hll": _q_docs_hll,
        "tokens_cms": _q_tokens_cms,
        "docs_bloom": _q_docs_bloom,
        "docs_quality_filter": _q_docs_quality_filter,
        "docs_sample": _q_docs_sample,
        "lang_doc_stats_salted": _q_lang_doc_stats_salted,
        "text_tokens": _q_text_tokens,
        "text_quality": _q_text_quality,
        "text_langid": _q_text_langid,
        "docs_repetition": _q_docs_repetition,
        "docs_dup_lines": _q_docs_dup_lines,
        "kg_mentions_reflexion": _q_kg_mentions_reflexion,
    }


def oracle_sql() -> dict[str, str]:
    d = _oracle_sql_base()
    uid = "md5(group_id || '|' || lower({c}))"
    su, ou = uid.format(c="subj_canonical"), uid.format(c="obj_canonical")
    d["kg_edge_churn"] = f"""
WITH e AS ({d['kg_edges']}),
c AS (
  SELECT group_id, date_trunc('month', valid_at) AS month,
         count(*)::BIGINT AS n
  FROM e WHERE valid_at IS NOT NULL GROUP BY 1, 2
),
i AS (
  SELECT group_id, date_trunc('month', invalid_at) AS month,
         count(*)::BIGINT AS n
  FROM e WHERE invalid_at IS NOT NULL GROUP BY 1, 2
)
SELECT coalesce(c.group_id, i.group_id) AS group_id,
       coalesce(c.month, i.month)::TIMESTAMP AS month,
       coalesce(c.n, 0)::BIGINT AS n_created,
       coalesce(i.n, 0)::BIGINT AS n_invalidated
FROM c FULL OUTER JOIN i
  ON c.group_id = i.group_id AND c.month = i.month
"""
    d["kg_integrity"] = f"""
SELECT
  (SELECT count(*) FROM ({d['kg_episodes']}) ) AS n_episodes,
  (SELECT count(*) FROM ({d['kg_nodes']}) ) AS n_nodes,
  (SELECT count(*) FROM ({d['kg_edges']}) ) AS n_edges,
  (SELECT count(*) FROM ({d['kg_edges']}) e
     LEFT JOIN ({d['kg_nodes']}) n
       ON md5(e.group_id || '|' || lower(e.subj_canonical)) = n.uuid
     WHERE n.uuid IS NULL) AS edges_dangling_subj,
  (SELECT count(*) FROM ({d['kg_edges']}) e
     LEFT JOIN ({d['kg_nodes']}) n
       ON md5(e.group_id || '|' || lower(e.obj_canonical)) = n.uuid
     WHERE n.uuid IS NULL) AS edges_dangling_obj,
  (SELECT count(*) FROM ({d['kg_nodes']}) n
     LEFT JOIN (
       SELECT {su} AS u FROM ({d['kg_edges']})
       UNION
       SELECT {ou} AS u FROM ({d['kg_edges']})
     ) r ON n.uuid = r.u
     WHERE r.u IS NULL) AS nodes_without_edges
"""
    return d


def _oracle_sql_base() -> dict[str, str]:
    return {
        "dedup_ppjoin": _ngram_oracle_sql("jaccard", 0.8),
        "docs_corr": _DOCS_CORR_ORACLE,
        "docs_ks_drift": _DOCS_KS_ORACLE,
        "embeddings_ood": _EMBEDDINGS_OOD_ORACLE,
        "docs_source_epochs": _SOURCE_EPOCHS_ORACLE,
        "docs_ccnet_buckets": _CCNET_BUCKETS_ORACLE,
        "knn_hard_negatives": _HARD_NEGATIVES_ORACLE,
        "docs_blocklist": _DOCS_BLOCKLIST_ORACLE,
        "docs_nb_lang": _DOCS_NB_LANG_ORACLE,
        "dedup_containment": _ngram_oracle_sql("containment", 0.9),
        "embeddings_dbscan": _EMBEDDINGS_DBSCAN_ORACLE,
        "graph_salsa": _salsa_oracle_sql(),
        "docs_trending": _DOCS_TRENDING_ORACLE,
        "docs_proximity": _DOCS_PROXIMITY_ORACLE,
        "docs_len_quantiles_by_lang": _DOCS_LEN_QUANTILES_BY_LANG_ORACLE,
        "docs_coverage": _coverage_oracle_sql(),
        "tokens_mg": _TOKENS_MG_ORACLE,
        "web_cocitation": _common_nbr_oracle_sql("src"),
        "web_coupling": _common_nbr_oracle_sql("dst"),
        "web_page_meta": _WEB_PAGE_META_ORACLE,
        "search_classifier": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_SEARCH_CLASSIFIER_TAIL.lstrip()}
""",
        "docs_nb_confusion": f"""
SELECT d.lang, nb.pred_lang, count(*)::BIGINT AS n
FROM ({_DOCS_NB_LANG_ORACLE}) nb
JOIN documents d ON d.doc_id = nb.doc_id
GROUP BY 1, 2
""",
        "docs_rank_tau": _DOCS_RANK_TAU_ORACLE,
        "docs_psi": _DOCS_PSI_ORACLE,
        "docs_snippet": _DOCS_SNIPPET_ORACLE,
        "docs_jsonl_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "dedup_incremental": _minhash_pairs_prefix_sql()
        + """,
sides AS (
  SELECT a AS doc_id, b AS partner FROM pairs WHERE a % 2 <> 0
  UNION ALL
  SELECT b, a FROM pairs WHERE b % 2 <> 0
)
SELECT doc_id, count(*)::BIGINT AS n_partners,
       min(partner)::BIGINT AS min_partner
FROM sides GROUP BY doc_id
""",
        "docs_partition_prune": (
            "SELECT doc_id, n_chars FROM documents WHERE lang = 'en'"
        ),
        "docs_csv_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "docs_balanced": _DOCS_BALANCED_ORACLE,
        "kg_pred_pairs": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{_KG_PRED_PAIRS_TAIL.lstrip()}
""",
        "docs_training_mix": _DOCS_TRAINING_MIX_ORACLE,
        "docs_vocab_growth": _DOCS_VOCAB_GROWTH_ORACLE,
        "docs_zipf_alpha": _DOCS_ZIPF_ALPHA_ORACLE,
        "docs_gini": _DOCS_GINI_ORACLE,
        "docs_diversity": _DOCS_DIVERSITY_ORACLE,
        "docs_mi": _DOCS_MI_ORACLE,
        "docs_bm25_batch": _bm25_batch_oracle_sql(),
        "kg_entity_pmi": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_KG_ENTITY_PMI_TAIL.lstrip()}
""",
        "graph_transitivity": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
{_GRAPH_TRANSITIVITY_TAIL.lstrip()}
""",
        "web_distance_histogram": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
nodes AS (SELECT DISTINCT x FROM
          (SELECT s AS x FROM he UNION ALL SELECT t FROM he)),
walk(seed, node, d) AS (
  SELECT x, x, 0 FROM nodes
  UNION
  SELECT w.seed, e.t, w.d + 1
  FROM walk w JOIN he e ON e.s = w.node WHERE w.d < 6
),
md AS (SELECT seed, node, min(d) AS d FROM walk GROUP BY 1, 2)
SELECT d::BIGINT AS d, count(*)::BIGINT AS n_pairs
FROM md WHERE d >= 1 GROUP BY d
""",
        "kg_node_summaries": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{_KG_NODE_SUMMARIES_TAIL.lstrip()}
""",
        "kg_validity_islands": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{_KG_VALIDITY_ISLANDS_TAIL.lstrip()}
""",
        "kg_negative_samples": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{_KG_NEGATIVE_SAMPLES_ORACLE_TAIL.lstrip()}
""",
        # the four Broder zones off one reachability closure; champion SCC
        # by (size DESC, scc_id ASC)
        "web_bowtie": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
-- inside WITH RECURSIVE DuckDB does NOT dedup a plain UNION in a
-- non-recursive CTE (measured: 120 rows for 20 hosts) — force DISTINCT
nodes AS (SELECT DISTINCT x FROM
          (SELECT s AS x FROM he UNION ALL SELECT t FROM he)),
reach(s, t) AS (
  SELECT s, t FROM he
  UNION
  SELECT r.s, e.t FROM reach r JOIN he e ON e.s = r.t
),
mutual AS (
  SELECT r1.s AS v, r1.t AS u
  FROM reach r1 JOIN reach r2 ON r2.s = r1.t AND r2.t = r1.s
),
sccm AS (
  SELECT n.x AS node, least(n.x, coalesce(min(m.u), n.x)) AS scc_id
  FROM nodes n LEFT JOIN mutual m ON m.v = n.x GROUP BY n.x
),
champ AS (
  SELECT scc_id FROM sccm GROUP BY scc_id
  ORDER BY count(*) DESC, scc_id ASC LIMIT 1
),
core AS (SELECT node FROM sccm WHERE scc_id = (SELECT scc_id FROM champ)),
fwd AS (SELECT DISTINCT r.t AS node FROM reach r
        WHERE r.s IN (SELECT node FROM core)),
bwd AS (SELECT DISTINCT r.s AS node FROM reach r
        WHERE r.t IN (SELECT node FROM core))
SELECT n.x AS host,
       CASE WHEN n.x IN (SELECT node FROM core) THEN 'core'
            WHEN n.x IN (SELECT node FROM fwd) THEN 'out'
            WHEN n.x IN (SELECT node FROM bwd) THEN 'in'
            ELSE 'other' END AS zone
FROM nodes n
""",
        # every hop replayed with identical md5 index arithmetic
        "web_walks": _walks_oracle_sql(),
        # SCC via the transitive closure: scc_id(v) = min u with v→u and
        # u→v (v itself included via least) — the 20-host graph keeps the
        # recursive CTE tiny
        "web_host_scc": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
nodes AS (SELECT s AS x FROM he UNION SELECT t FROM he),
reach(s, t) AS (
  SELECT s, t FROM he
  UNION
  SELECT r.s, e.t FROM reach r JOIN he e ON e.s = r.t
),
mutual AS (
  SELECT r1.s AS v, r1.t AS u
  FROM reach r1 JOIN reach r2 ON r2.s = r1.t AND r2.t = r1.s
)
SELECT n.x AS host, least(n.x, coalesce(min(m.u), n.x)) AS scc_id
FROM nodes n LEFT JOIN mutual m ON m.v = n.x GROUP BY n.x
""",
        # window argmin replayed with a bounded range join + row_number;
        # hash arithmetic shared with the MinHash shingle twin
        "docs_minimizers": _minimizers_oracle_sql(),
        # hub-hash drop (HAVING ≤ hot_df) + pair self-join + shared count —
        # value-exact incl. the drop rule
        "dedup_minimizer": _minimizer_pairs_oracle_sql(),
        # BFS walk (d ≤ 2) + both-endpoints-reached edge filter
        "kg_ego_network": f"""
WITH RECURSIVE {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
sym AS (
  SELECT subj_uuid AS x, obj_uuid AS y FROM merged_id
  UNION SELECT obj_uuid, subj_uuid FROM merged_id
),
start AS (SELECT min(subj_uuid) AS c FROM merged_id),
walk AS (
  SELECT c AS node, 0 AS d FROM start
  UNION ALL
  SELECT s.y, w.d + 1 FROM walk w JOIN sym s ON s.x = w.node WHERE w.d < 2
),
reached AS (SELECT DISTINCT node FROM walk)
SELECT m.uuid, m.subj_uuid, m.pred, m.obj_uuid
FROM merged_id m
WHERE m.subj_uuid IN (SELECT node FROM reached)
  AND m.obj_uuid IN (SELECT node FROM reached)
""",
        # per-k hub-subgraph density on the exact lattice
        "web_rich_club": f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
und AS (
  SELECT DISTINCT least(src_host, dst_host) AS a,
         greatest(src_host, dst_host) AS b
  FROM lk WHERE src_host <> dst_host
),
deg AS (
  SELECT x, count(*)::BIGINT AS deg FROM
    (SELECT a AS x FROM und UNION ALL SELECT b FROM und) GROUP BY 1
),
ks AS (SELECT unnest([1, 2, 3, 4, 5]) AS k),
rich AS (SELECT ks.k, d.x FROM ks JOIN deg d ON d.deg > ks.k),
nn AS (SELECT k, count(*)::BIGINT AS n_nodes FROM rich GROUP BY 1),
ee AS (
  SELECT r1.k, count(*)::BIGINT AS n_edges
  FROM und e
  JOIN rich r1 ON r1.x = e.a
  JOIN rich r2 ON r2.k = r1.k AND r2.x = e.b
  GROUP BY 1
)
SELECT ks.k::BIGINT AS k,
       coalesce(nn.n_nodes, 0)::BIGINT AS n_nodes,
       coalesce(ee.n_edges, 0)::BIGINT AS n_edges,
       CASE WHEN coalesce(nn.n_nodes, 0) < 2 THEN 0
            ELSE (2 * coalesce(ee.n_edges, 0) * 1000000)
                 // (nn.n_nodes * (nn.n_nodes - 1))
       END::BIGINT AS phi_e6
FROM ks LEFT JOIN nn ON nn.k = ks.k LEFT JOIN ee ON ee.k = ks.k
""",
        # the shared chain with the weight column threaded through
        "web_rank_weighted": f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
hw AS (
  SELECT src_host AS s, dst_host AS t, count(*)::BIGINT AS w
  FROM lk GROUP BY 1, 2
),
{_pagerank_chain_sql("hw", 0.85, 5, weight_col="w")}
SELECT node AS host, pr AS rank FROM r5
""",
        # undirected closure components → size census
        "web_component_sizes": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (
  SELECT DISTINCT s, t FROM (
    SELECT src_host AS s, dst_host AS t FROM lk
    UNION ALL SELECT dst_host, src_host FROM lk
  )
),
allx AS (SELECT DISTINCT s AS x FROM he),
reach(s, t) AS (
  SELECT s, t FROM he
  UNION
  SELECT r.s, e.t FROM reach r JOIN he e ON e.s = r.t
),
comp AS (
  SELECT n.x AS node, least(n.x, coalesce(min(r.t), n.x)) AS component
  FROM allx n LEFT JOIN reach r ON r.s = n.x GROUP BY n.x
),
sz AS (SELECT component, count(*)::BIGINT AS size FROM comp GROUP BY 1)
SELECT size, count(*)::BIGINT AS n_components FROM sz GROUP BY 1
""",
        # rc1 stream re-derived; revisit = digest equals lag(digest)
        "cdx_revisits": """
WITH rx AS (SELECT unnest(generate_series(0, 2)) AS r),
snaps AS (
  SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 HOUR
           + rx.r * INTERVAL 7 DAY AS warc_ts,
         CAST(rx.r AS BIGINT) AS crawl_rev
  FROM documents CROSS JOIN rx
  WHERE rx.r <= doc_id % 3
),
d AS (
  SELECT url, warc_ts, crawl_rev,
         md5(url || ':' || CAST(crawl_rev - (crawl_rev % 2) AS VARCHAR))
           AS digest
  FROM snaps
)
SELECT url, warc_ts, crawl_rev, digest,
       coalesce(digest = lag(digest)
                OVER (PARTITION BY url ORDER BY warc_ts), FALSE)
         AS is_revisit
FROM d
""",
        # Hill MLE on the 1e-6 ln lattice; HUGEINT division, trunc
        "web_degree_alpha": f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
deg AS (
  SELECT x, count(*)::BIGINT AS deg FROM
    (SELECT s AS x FROM he UNION ALL SELECT t FROM he) GROUP BY 1
),
tail AS (SELECT deg FROM deg WHERE deg >= 2),
agg AS (
  SELECT count(*)::BIGINT AS n,
         coalesce(sum(CAST(round(ln(deg) * 1000000) AS BIGINT)), 0)::BIGINT
           AS sl
  FROM tail
)
SELECT n AS n_tail,
       (sl - n * CAST(round(ln(2) * 1000000) AS BIGINT))::BIGINT AS s_e6,
       CASE WHEN n = 0
                 OR sl - n * CAST(round(ln(2) * 1000000) AS BIGINT) <= 0
            THEN 0
            ELSE CAST(1000000 + (n::HUGEINT * 1000000000000)
                 // (sl - n * CAST(round(ln(2) * 1000000) AS BIGINT))
                 AS BIGINT)
       END AS alpha_e6
FROM agg
""",
        # bowtie core derivation (recursive closure) + the shared unrolled
        # pagerank chain over core-internal edges only
        "web_core_rank": _web_core_rank_oracle_sql(),
        # Hamilton apportionment in pure integer arithmetic: base = floor,
        # bonus by (budget*n) mod T rank
        "crawl_budget": """
WITH c AS (
  SELECT source || '.example.com' AS host, count(*)::BIGINT AS n_pages
  FROM documents GROUP BY 1
),
tt AS (SELECT sum(n_pages)::BIGINT AS T FROM c),
b AS (
  SELECT host, n_pages,
         ((n_pages * 1000) // T)::BIGINT AS base,
         ((n_pages * 1000) % T)::BIGINT AS rem
  FROM c CROSS JOIN tt
),
lv AS (SELECT (1000 - sum(base))::BIGINT AS R FROM b),
r AS (SELECT *, row_number() OVER (ORDER BY rem DESC, host ASC) AS rk FROM b)
SELECT host, n_pages,
       (base + CASE WHEN rk <= (SELECT R FROM lv) THEN 1 ELSE 0 END)::BIGINT
         AS alloc
FROM r
""",
        # bounded truss peeling unrolled; support = exploded triangle edges
        "graph_ktruss": _ktruss_oracle_sql(),
        # the whole SNM pipeline relationally: same sort key, row_number
        # self-join bounded by the window, distinct-token Jaccard on the
        # 1e6 lattice with // truncation
        "dedup_snm": """
WITH t AS (
  SELECT doc_id,
         substr(replace(lower(text), ' ', ''), 1, 24) AS key,
         list_distinct(list_filter(string_split(lower(text), ' '),
                                   x -> x <> '')) AS toks
  FROM documents
),
r AS (SELECT *, row_number() OVER (ORDER BY key, doc_id) AS rn FROM t),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.toks, b.toks)) AS inter,
         len(a.toks) + len(b.toks)
           - len(list_intersect(a.toks, b.toks)) AS uni
  FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 3
)
SELECT doc_a, doc_b, (1000000 * inter) // uni AS jacc_e6
FROM p WHERE uni > 0 AND (1000000 * inter) // uni >= 500000
""",
        "kg_episodes": f"""
WITH {_BASE_CTE.lstrip()}
SELECT md5(url) AS uuid, url AS name, group_id,
       fact1 || chr(10) || fact2 || chr(10) || trim(text) AS content,
       valid_at,
       coalesce(nullif(left(regexp_extract(
           fact1 || chr(10) || fact2 || chr(10) || trim(text),
           '^[^.!?\n]*[.!?\n]'), 250), ''),
         left(fact1 || chr(10) || fact2 || chr(10) || trim(text), 250))
         AS summary_text
FROM base
""",
        "kg_mentions": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()}
SELECT episode_uuid, group_id, name, valid_at FROM ment
""",
        # M2: the reflexion loop's converged union must equal single-pass
        # exhaustive extraction — one oracle, two engine control flows
        "kg_mentions_reflexion": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()}
SELECT episode_uuid, group_id, name, valid_at FROM ment
""",
        "kg_triples_raw": f"""
WITH {_BASE_CTE.lstrip()}
SELECT md5(url) AS episode_uuid, group_id, subj1 AS subj_name, pred1 AS pred,
       obj1 AS obj_name, fact1 AS fact, valid_at
FROM base
UNION ALL
SELECT md5(url), group_id, subj2, pred2, obj2, fact2, valid_at FROM base
""",
        "kg_nodes": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()}
SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
       min(canonical) AS name, group_id,
       sum(mention_count)::BIGINT AS mention_count
FROM canon
GROUP BY group_id, md5(group_id || '|' || lower(canonical))
""",
        "kg_edges": _KG_EDGES_ORACLE,
        # message-source fixture: same edge algebra, speaker mentions join
        # alias resolution, message k's event time = valid_at + k minutes
        "kg_edges_messages": f"""
WITH {_MSG_BASE_CTE.lstrip()},
{_MSG_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_MSG_RESOLVED_CTE.lstrip()}
SELECT m.uuid, m.group_id, m.subj_canonical, m.pred, m.obj_canonical,
       m.valid_at, coalesce(p.inv, s.inv) AS invalid_at,
       m.episode_count::BIGINT AS episode_count
FROM merged_id m
LEFT JOIN pair_inv p USING (uuid)
LEFT JOIN subj_inv s USING (uuid)
""",
        "kg_mentions_messages": f"""
WITH {_MSG_BASE_CTE.lstrip()},
{_MSG_MENTIONS_CTE.lstrip()}
SELECT episode_uuid, group_id, name, valid_at FROM ment
""",
        # incremental build must converge to the SAME edges as the batch
        # build — one oracle, two engine paths
        # ...and so must the S3 file-queue ingest (third engine path)
        # winnowing fingerprints: positional shingle hashes (same hugeint
        # Horner as the MinHash oracle), sliding-window min, adjacent dedup
        "docs_fingerprint": _winnow_oracle_sql(),
        # M8 lucene escape + fulltext composition (RE2 regexp_replace; the
        # replacement literal '\\\1' is raw in SQL single quotes)
        "docs_lucene": r"""
WITH s AS (
  SELECT doc_id, source,
         regexp_replace(substr(text, 1, 80),
                        '([+\-!(){}\[\]^"~*?:\\/]|&&|\|\|)', '\\\1',
                        'g') AS sanitized
  FROM documents
)
SELECT doc_id, sanitized,
       CASE WHEN len(string_split(sanitized, ' ')) + 1 >= 32 THEN ''
            ELSE '(group_id:"' || source || '.example.com") AND ('
                 || sanitized || ')'
       END AS fulltext
FROM s
""",
        # D2 semantic-dedup candidates: the char-3-gram hashing embedding
        # (stages/embed.py) replicated in SQL — hugeint Horner mod 2^64,
        # signed 64-bucket counts, pairwise in-group cosine. Threshold on
        # the RAW ratio (both engines compare unrounded), output round(6).
        "fuzzy_pairs": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
names AS (SELECT DISTINCT group_id, name FROM ment),
nstr AS (SELECT group_id, name, '^' || lower(name) || '$' AS s FROM names),
nh AS (
  SELECT group_id, name,
         (ord(substr(s, i, 1))::HUGEINT * {pow(_POLY_INT, 2, _M64)}::HUGEINT
          + ord(substr(s, i + 1, 1))::HUGEINT * {_POLY_INT}::HUGEINT
          + ord(substr(s, i + 2, 1))::HUGEINT)
           % 18446744073709551616::HUGEINT AS h
  FROM nstr, LATERAL unnest(range(1, length(s) - 1)) AS u(i)
),
nbuck AS (
  SELECT group_id, name, (h % 64)::INT AS bucket,
         sum(CASE WHEN (h // 65536) % 2 = 1 THEN 1.0 ELSE -1.0 END) AS cnt
  FROM nh GROUP BY 1, 2, 3
),
nnorm AS (SELECT group_id, name, sqrt(sum(cnt * cnt)) AS nrm
          FROM nbuck GROUP BY 1, 2),
raw AS (
  SELECT a.group_id, a.name AS a, b.name AS b, sum(a.cnt * b.cnt) AS dot
  FROM nbuck a JOIN nbuck b
    ON a.group_id = b.group_id AND a.bucket = b.bucket AND a.name < b.name
  GROUP BY 1, 2, 3
),
sims AS (
  SELECT r.group_id, r.a, r.b, r.dot / (na.nrm * nb.nrm) AS cs
  FROM raw r
  JOIN nnorm na ON na.group_id = r.group_id AND na.name = r.a
  JOIN nnorm nb ON nb.group_id = r.group_id AND nb.name = r.b
)
SELECT group_id, a, b, round(cs, 6) AS cosine FROM sims WHERE cs >= 0.65
""",
        # S8/K3 cursored pagination over the nodes table
        "nodes_page": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
nodes AS (
  SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
         min(canonical) AS name, group_id,
         sum(mention_count)::BIGINT AS mention_count
  FROM canon
  GROUP BY group_id, md5(group_id || '|' || lower(canonical))
)
SELECT uuid, name, group_id, mention_count FROM nodes
WHERE group_id IN ('src0.example.com', 'src1.example.com')
  AND uuid < 'c0000000000000000000000000000000'
ORDER BY uuid DESC LIMIT 25
""",
        # J6 hydration: an edge's uuid is pure arithmetic over its resolved
        # endpoints, so per-episode edge lists re-derive without the engine
        "episode_entity_edges": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ep AS (
  SELECT DISTINCT episode_uuid,
         md5(group_id || '|' ||
             md5(group_id || '|' || lower(subj_canonical)) || '|' ||
             pred || '|' ||
             md5(group_id || '|' || lower(obj_canonical))) AS edge_uuid
  FROM resolved
)
SELECT episode_uuid,
       string_agg(edge_uuid, ',' ORDER BY edge_uuid) AS entity_edges
FROM ep GROUP BY 1
""",
        # G1 BFS from the lexicographically smallest subject entity:
        # enumerate walks of depth ≤ 3, keep each node's min depth
        "graph_bfs": f"""
WITH RECURSIVE {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
sym AS (
  SELECT subj_uuid AS x, obj_uuid AS y FROM merged_id
  UNION SELECT obj_uuid, subj_uuid FROM merged_id
),
start AS (SELECT min(subj_uuid) AS c FROM merged_id),
walk AS (
  SELECT c AS node, 0 AS d FROM start
  UNION ALL
  SELECT s.y, w.d + 1 FROM walk w JOIN sym s ON s.x = w.node WHERE w.d < 3
)
SELECT node AS entity_uuid, min(d)::BIGINT AS depth FROM walk GROUP BY 1
""",
        # A3 one-shot MMR: hashing embeddings of node names (+ the query
        # string as one more embedded row), rel + pairwise max cosine with
        # absent bucket-join pairs counted as dot 0, round(6) before the
        # 0.5·rel − 0.5·max_sim combination — same order as the kernel
        "search_mmr": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_NAME_EMBED_CTES},
psim AS (
  SELECT a.uuid AS a, sum(a.cnt * b.cnt) / (na.nrm * nb.nrm) AS cs
  FROM buck a
  JOIN buck b ON a.bucket = b.bucket AND a.uuid <> b.uuid
   AND a.uuid <> '__query__' AND b.uuid <> '__query__'
  JOIN nrm na ON na.uuid = a.uuid
  JOIN nrm nb ON nb.uuid = b.uuid
  GROUP BY a.uuid, b.uuid, na.nrm, nb.nrm
),
msim AS (SELECT a AS uuid, max(cs) AS mx, count(*) AS npres FROM psim GROUP BY 1),
tot AS (SELECT count(*) AS n FROM nodes),
scored AS (
  SELECT n.uuid,
         0.5 * round(coalesce(r.rel, 0), 6)
         - 0.5 * round(
             CASE WHEN coalesce(m.npres, 0) < t.n - 1
                  THEN greatest(coalesce(m.mx, 0), 0)
                  ELSE m.mx END, 6) AS mmr
  FROM nodes n CROSS JOIN tot t
  LEFT JOIN relv r ON r.uuid = n.uuid
  LEFT JOIN msim m ON m.uuid = n.uuid
)
SELECT uuid, row_number() OVER (ORDER BY mmr DESC, uuid) AS rank
FROM scored ORDER BY rank LIMIT 20
""",
        # ST3 deterministic cross-encoder: cosine of hashing embeddings,
        # round(9) as the stage does, (score desc, uuid) top-20
        "search_cross_encoder": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_NAME_EMBED_CTES}
SELECT n.uuid, n.name, round(coalesce(r.rel, 0), 9) AS ce_score
FROM nodes n LEFT JOIN relv r ON r.uuid = n.uuid
ORDER BY ce_score DESC, n.uuid LIMIT 20
""",
        # A2 most-mentioned-first rerank, uuid ties
        "nodes_by_mentions": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
nodes AS (
  SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
         sum(mention_count)::BIGINT AS mention_count
  FROM canon
  GROUP BY group_id, md5(group_id || '|' || lower(canonical))
)
SELECT uuid, mention_count,
       row_number() OVER (ORDER BY mention_count DESC, uuid) AS rank
FROM nodes ORDER BY rank LIMIT 25
""",
        # K4 node_distance rerank: BFS depths (same recursive CTE) keyed
        # 0.1 for the center / depth for reachable / last for unreachable
        "nodes_by_distance": f"""
WITH RECURSIVE {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
sym AS (
  SELECT subj_uuid AS x, obj_uuid AS y FROM merged_id
  UNION SELECT obj_uuid, subj_uuid FROM merged_id
),
start AS (SELECT min(subj_uuid) AS c FROM merged_id),
walk AS (
  SELECT c AS node, 0 AS d FROM start
  UNION ALL
  SELECT s.y, w.d + 1 FROM walk w JOIN sym s ON s.x = w.node WHERE w.d < 3
),
dist AS (SELECT node, min(d) AS depth FROM walk GROUP BY 1),
nodes AS (
  SELECT DISTINCT md5(group_id || '|' || lower(canonical)) AS uuid FROM canon
),
keyed AS (
  SELECT n.uuid, d.depth,
         CASE WHEN n.uuid = (SELECT c FROM start) THEN 0.1
              WHEN d.depth > 0 THEN d.depth::DOUBLE
              ELSE NULL END AS k
  FROM nodes n LEFT JOIN dist d ON d.node = n.uuid
)
SELECT uuid, depth::DOUBLE AS depth,
       row_number() OVER (ORDER BY (k IS NULL), k, uuid) AS rank
FROM keyed
ORDER BY rank LIMIT 25
""",
        # M5 typed attributes: winners re-derived from the edge CTEs —
        # latest currently-valid source edge per (entity, predicate), ties
        # on valid_at to the lexicographically LAST object (both sides)
        "kg_node_attributes": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
edges AS (
  SELECT m.*, coalesce(p.inv, s.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s USING (uuid)
),
cur AS (
  SELECT subj_uuid, pred, obj_canonical, valid_at FROM edges
  WHERE invalid_at IS NULL
    AND pred IN ('WORKS_AT', 'CEO_OF', 'LOCATED_IN')
),
win AS (
  SELECT subj_uuid, pred, obj_canonical,
         row_number() OVER (PARTITION BY subj_uuid, pred
                            ORDER BY valid_at DESC, obj_canonical DESC) AS rn
  FROM cur
),
node_names AS (
  SELECT md5(group_id || '|' || lower(canonical)) AS uuid,
         min(canonical) AS name
  FROM canon GROUP BY 1
)
SELECT w.subj_uuid AS uuid,
       max(CASE WHEN w.pred = 'CEO_OF' THEN w.obj_canonical END) AS ceo_of,
       max(CASE WHEN w.pred = 'WORKS_AT' THEN w.obj_canonical END) AS employer,
       max(CASE WHEN w.pred = 'LOCATED_IN' THEN w.obj_canonical END) AS location,
       n.name
FROM win w JOIN node_names n ON n.uuid = w.subj_uuid
WHERE w.rn = 1
GROUP BY 1, 5
""",
        "dedup_exact": """
SELECT md5(text) AS text_hash, min(doc_id) AS keep_id,
       count(*)::BIGINT AS dup_count
FROM documents GROUP BY md5(text)
""",
        "text_tokens": rf"""
SELECT doc_id,
       len(list_filter(string_split_regex(text, '\s+'), x -> x <> ''))::BIGINT
         AS n_ws_tokens,
       len(regexp_extract_all(text, '{_TOKEN_RE_SQL}'))::BIGINT AS n_tokens,
       length(text)::BIGINT AS n_chars
FROM documents
""",
        "text_quality": rf"""
WITH w AS (
  SELECT doc_id, text,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS words
  FROM documents
)
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       len(words)::BIGINT AS n_words,
       coalesce(list_aggregate(list_transform(words, x -> length(x)), 'sum'), 0)::BIGINT
         AS n_word_chars,
       len(list_filter(words, x -> list_contains({_STOPWORDS_SQL}, lower(x))))::BIGINT
         AS n_stopwords,
       len(regexp_extract_all(text, '[^\w\s]'))::BIGINT AS n_punct,
       len(regexp_extract_all(text, '[A-Z]'))::BIGINT AS n_upper
FROM w
""",
        # IVF at full probe must equal exact brute force — same twin
        "knn_ivf_full": _KNN_ORACLE,
        "knn_bruteforce": _KNN_ORACLE,
        "dedup_embedding": """
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.embedding::DOUBLE[],
                                    b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(a.embedding::DOUBLE[],
                                   b.embedding::DOUBLE[]), 6) >= 0.45
""",
        # full-probe LSH must reproduce the exact all-pairs result — the
        # same SQL twin gates both paths
        "dedup_embedding_lsh_full": """
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(a.embedding::DOUBLE[],
                                    b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(a.embedding::DOUBLE[],
                                   b.embedding::DOUBLE[]), 6) >= 0.45
""",
        "text_langid": rf"""
WITH w AS (
  SELECT doc_id,
         list_transform(list_filter(string_split_regex(text, '\s+'),
                                    x -> x <> ''), x -> lower(x)) AS words
  FROM documents
),
s AS (
  SELECT doc_id, len(words)::BIGINT AS n_words,
         len(list_filter(words, x -> list_contains({_LANG_LISTS_SQL['de']}, x)))::BIGINT AS de_h,
         len(list_filter(words, x -> list_contains({_LANG_LISTS_SQL['en']}, x)))::BIGINT AS en_h,
         len(list_filter(words, x -> list_contains({_LANG_LISTS_SQL['es']}, x)))::BIGINT AS es_h,
         len(list_filter(words, x -> list_contains({_LANG_LISTS_SQL['fr']}, x)))::BIGINT AS fr_h
  FROM w
)
SELECT doc_id,
       CASE WHEN greatest(de_h, en_h, es_h, fr_h) = 0 THEN 'und'
            WHEN de_h >= en_h AND de_h >= es_h AND de_h >= fr_h THEN 'de'
            WHEN en_h >= es_h AND en_h >= fr_h THEN 'en'
            WHEN es_h >= fr_h THEN 'es'
            ELSE 'fr' END AS lang_pred,
       greatest(de_h, en_h, es_h, fr_h)::BIGINT AS lang_hits,
       n_words
FROM s
""",
        "docs_repetition": r"""
WITH lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS ln FROM documents
),
lc AS (SELECT doc_id, ln, count(*)::BIGINT AS c FROM lines GROUP BY 1, 2),
line_stats AS (
  SELECT doc_id, sum(c)::BIGINT AS n_lines,
         sum(CASE WHEN c >= 2 THEN c ELSE 0 END)::BIGINT AS n_dup_lines,
         sum(CASE WHEN c >= 2 THEN c * length(ln) ELSE 0 END)::BIGINT
           AS n_dup_line_chars
  FROM lc GROUP BY doc_id
),
words AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
  FROM documents
),
grams AS (
  SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS g
  FROM words, LATERAL unnest(range(1, len(ws))) AS u(i)
),
gc AS (SELECT doc_id, g, count(*)::BIGINT AS c FROM grams GROUP BY 1, 2),
gram_stats AS (
  SELECT doc_id, max(c)::BIGINT AS top_2gram_count, sum(c)::BIGINT AS n_2grams
  FROM gc GROUP BY doc_id
)
SELECT d.doc_id, l.n_lines, l.n_dup_lines, l.n_dup_line_chars,
       coalesce(g.top_2gram_count, 0)::BIGINT AS top_2gram_count,
       coalesce(g.n_2grams, 0)::BIGINT AS n_2grams
FROM documents d
JOIN line_stats l USING (doc_id)
LEFT JOIN gram_stats g USING (doc_id)
""",
        "docs_dup_lines": r"""
WITH words AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
chunks AS (
  SELECT doc_id,
         array_to_string(ws[i * 10 + 1 : i * 10 + 10], ' ') AS ln
  FROM words,
       LATERAL unnest(range(0, greatest(1, (len(ws) + 9) // 10))) AS u(i)
),
dl AS (SELECT DISTINCT doc_id, md5(ln) AS line_hash FROM chunks)
SELECT line_hash, count(*)::BIGINT AS n_docs, min(doc_id) AS keep_doc
FROM dl GROUP BY line_hash HAVING count(*) >= 2
""",
        "docs_quality_filter": r"""
SELECT doc_id, n_chars
FROM documents
WHERE n_chars BETWEEN 150 AND 450
  AND len(string_split_regex(text, '\s+')) >= 30
""",
        "corpus_clean": rf"""
WITH w AS (
  SELECT doc_id, text, length(text)::BIGINT AS n_chars,
         list_transform(list_filter(string_split_regex(text, '\s+'),
                                    x -> x <> ''), x -> lower(x)) AS lw,
         len(list_filter(string_split_regex(text, '\s+'), x -> x <> ''))::BIGINT
           AS n_words
  FROM documents
),
langed AS (
  SELECT doc_id, text, n_chars, n_words,
         len(list_filter(lw, x -> list_contains({_LANG_LISTS_SQL['de']}, x)))::BIGINT AS de_h,
         len(list_filter(lw, x -> list_contains({_LANG_LISTS_SQL['en']}, x)))::BIGINT AS en_h,
         len(list_filter(lw, x -> list_contains({_LANG_LISTS_SQL['es']}, x)))::BIGINT AS es_h,
         len(list_filter(lw, x -> list_contains({_LANG_LISTS_SQL['fr']}, x)))::BIGINT AS fr_h
  FROM w
),
gated AS (
  SELECT doc_id, text FROM langed
  WHERE n_chars BETWEEN {DEFAULT_MIN_CHARS_SQL} AND {DEFAULT_MAX_CHARS_SQL}
    AND n_words >= {DEFAULT_MIN_WORDS_SQL}
    AND greatest(de_h, en_h, es_h, fr_h) > 0
    AND (CASE WHEN de_h >= en_h AND de_h >= es_h AND de_h >= fr_h THEN 'de'
              WHEN en_h >= es_h AND en_h >= fr_h THEN 'en'
              WHEN es_h >= fr_h THEN 'es' ELSE 'fr' END) = 'en'
)
SELECT min(doc_id) AS doc_id FROM gated GROUP BY md5(text)
""",
        "docs_sample": """
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < '40000000'
""",
        # per-stratum thresholds: de 1.0 → 'g' (lexicographically above
        # every 8-hex-digit hash), fr 0.5, en 0.125, default 0
        "docs_stratified": """
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
      CASE lang WHEN 'de' THEN 'g' WHEN 'fr' THEN '80000000'
                WHEN 'en' THEN '20000000' ELSE '00000000' END
""",
        # α=0.5 temperature mixing: r_s = sqrt(n_min/n_s); sqrt and the
        # ×16⁸ floor are correctly-rounded IEEE ops on both sides, so the
        # thresholds match numpy/python bit-for-bit
        "docs_temperature": """
WITH c AS (SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY 1),
mn AS (SELECT min(n) AS n_min FROM c),
thr AS (
  SELECT c.lang,
         CASE WHEN c.n = m.n_min THEN 'g'
              ELSE printf('%08x',
                     CAST(floor(sqrt(m.n_min::DOUBLE / c.n::DOUBLE)
                                * 4294967296.0) AS BIGINT)) END AS t
  FROM c CROSS JOIN mn m
)
SELECT d.doc_id, d.lang
FROM documents d JOIN thr ON thr.lang = d.lang
WHERE substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8) < thr.t
""",
        # the salted two-phase path must equal the plain groupby — one
        # oracle, two shuffle strategies
        "lang_doc_stats_salted": _LANG_STATS_ORACLE,
        # HyperLogLog registers, bit-for-bit
        "docs_hll": _hll_oracle_sql(),
        "docs_hll_by_lang": _hll_oracle_sql(by="lang"),
        # count-min sketch registers, bit-for-bit
        "tokens_cms": _cms_oracle_sql(),
        # bloom-filter bit set, exact
        "docs_bloom": _bloom_oracle_sql(),
        # simplified PageRank unrolled: 5 join+sum CTE rounds
        "graph_pagerank": _pagerank_oracle_sql(),
        "graph_kcore": _kcore_oracle_sql(),
        # triangles over the co-mention graph: ordered three-way
        # self-join; each triangle credits its three vertices
        "graph_triangles": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
tri AS (
  SELECT e1.a, e1.b, e2.b AS c
  FROM und e1
  JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b
),
verts AS (
  SELECT a AS v FROM tri UNION ALL
  SELECT b FROM tri UNION ALL
  SELECT c FROM tri
)
SELECT v AS entity_uuid, count(*)::BIGINT AS n_triangles
FROM verts GROUP BY 1
""",
        "graph_clustering": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
tri AS (
  SELECT e1.a, e1.b, e2.b AS c
  FROM und e1
  JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b
),
verts AS (
  SELECT a AS v FROM tri UNION ALL
  SELECT b FROM tri UNION ALL
  SELECT c FROM tri
),
tcount AS (SELECT v, count(*)::BIGINT AS t FROM verts GROUP BY 1),
degs AS (
  SELECT eu, count(*)::BIGINT AS d
  FROM (SELECT a AS eu FROM und UNION ALL SELECT b FROM und)
  GROUP BY 1
)
SELECT degs.eu AS entity_uuid,
       degs.d AS degree,
       coalesce(tcount.t, 0)::BIGINT AS n_triangles,
       (2 * coalesce(tcount.t, 0) * 1000000) // (degs.d * (degs.d - 1))
         AS cc_e6
FROM degs LEFT JOIN tcount ON tcount.v = degs.eu
WHERE degs.d >= 2
""",
        "graph_assortativity": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
degs AS (
  SELECT eu, count(*)::BIGINT AS d
  FROM (SELECT a AS eu FROM und UNION ALL SELECT b FROM und)
  GROUP BY 1
),
j AS (
  SELECT dx.d AS da, dy.d AS db
  FROM und
  JOIN degs dx ON dx.eu = und.a
  JOIN degs dy ON dy.eu = und.b
)
SELECT (2 * count(*))::BIGINT AS n_ends,
       sum(da + db)::BIGINT AS s_d,
       sum(da * da + db * db)::BIGINT AS s_d2,
       sum(da * db)::BIGINT AS s_dxdy
FROM j
""",
        "pages_latest_snapshot": """
WITH rx AS (SELECT unnest(generate_series(0, 2)) AS r),
snaps AS (
  SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 HOUR
           + rx.r * INTERVAL 7 DAY AS warc_ts,
         CAST(rx.r AS BIGINT) AS crawl_rev
  FROM documents CROSS JOIN rx
  WHERE rx.r <= doc_id % 3
)
SELECT url, warc_ts, crawl_rev FROM snaps
QUALIFY row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC) = 1
""",
        "web_link_graph": f"""
WITH {_LINK_GRAPH_CTE.lstrip()}
SELECT src_host, dst_host, count(*)::BIGINT AS n_links
FROM lk GROUP BY 1, 2
""",
        "web_quality": f"""
WITH g AS (
  SELECT doc_id,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         ({spec.SQL_FACT1}) || chr(10) || ({spec.SQL_FACT2})
           || chr(10) || trim(text) AS golden
  FROM documents
)
SELECT url,
       length(golden)::BIGINT AS text_len,
       (3 + doc_id % 3)::BIGINT AS n_links,
       ((3 + doc_id % 3) * 1000000)
         // greatest(length(golden), 1) AS link_density_e6
FROM g
""",
        "crawl_schedule": """
WITH p AS (
  SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url,
         source || '.example.com' AS host,
         TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 HOUR
           AS warc_ts
  FROM documents
)
SELECT url, host,
       (row_number() OVER (PARTITION BY host ORDER BY warc_ts, url) - 1)
         AS wave,
       (row_number() OVER (PARTITION BY host ORDER BY warc_ts, url) - 1)
         AS fetch_offset_s
FROM p
""",
        # pointer-jumping closure unrolled as doubling rounds (2^4 = 16 ≥ any
        # rd1 chain); each round: pointer := pointer's pointer when the
        # pointer is itself a source — the exact compress_mapping recurrence
        "web_redirects": """
WITH r0 AS MATERIALIZED (
  SELECT 'https://l.example.com/u/' || doc_id AS u,
         'https://l.example.com/u/' || (doc_id - 1) AS t
  FROM documents WHERE doc_id % 8 <> 0
),
r1 AS MATERIALIZED (
  SELECT a.u, coalesce(b.t, a.t) AS t FROM r0 a LEFT JOIN r0 b ON b.u = a.t
),
r2 AS MATERIALIZED (
  SELECT a.u, coalesce(b.t, a.t) AS t FROM r1 a LEFT JOIN r1 b ON b.u = a.t
),
r3 AS MATERIALIZED (
  SELECT a.u, coalesce(b.t, a.t) AS t FROM r2 a LEFT JOIN r2 b ON b.u = a.t
),
r4 AS MATERIALIZED (
  SELECT a.u, coalesce(b.t, a.t) AS t FROM r3 a LEFT JOIN r3 b ON b.u = a.t
)
SELECT u AS url, t AS final_url FROM r4
""",
        # rule bp1 replicated relationally: visible lines re-derived from
        # doc_id arithmetic (template pg1.2: h1 = host, nav = 'home | about',
        # main = golden lines, footer = '© host'), occurrence counts per
        # (host, line), drop ⇔ 2·occ ≥ n_pages(host), ordered re-join
        "web_boilerplate": f"""
WITH g AS (
  SELECT doc_id,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         source || '.example.com' AS host,
         ({spec.SQL_FACT1}) || chr(10) || ({spec.SQL_FACT2})
           || chr(10) || trim(text) AS golden
  FROM documents
),
lx AS (
  SELECT url, host,
         list_concat(list_concat(
           [host, 'home | about'],
           string_split(golden, chr(10))),
           ['© ' || host]) AS ll
  FROM g
),
ln AS (
  SELECT url, host,
         unnest(generate_series(1, len(ll))) AS line_no,
         unnest(ll) AS raw_line
  FROM lx
),
lt AS (
  SELECT url, host, line_no,
         trim(raw_line, ' ' || chr(9) || chr(13)) AS line
  FROM ln WHERE trim(raw_line, ' ' || chr(9) || chr(13)) <> ''
),
np AS (SELECT host, count(*) AS n_pages FROM g GROUP BY 1),
occ AS (SELECT *, count(*) OVER (PARTITION BY host, line) AS n_occ FROM lt),
kept AS (
  SELECT o.url, o.line_no, o.line
  FROM occ o JOIN np USING (host)
  WHERE 2 * o.n_occ < np.n_pages
)
SELECT url, string_agg(line, chr(10) ORDER BY line_no) AS text,
       count(*)::BIGINT AS n_lines
FROM kept GROUP BY 1
""",
        "web_host_pagerank": _web_host_pagerank_oracle_sql(),
        "web_host_ppr": _web_host_ppr_oracle_sql(),
        "docs_dedup_lines": """
WITH ex AS (
  SELECT doc_id,
         unnest(string_split(text, chr(10))) AS line,
         unnest(generate_series(1, len(string_split(text, chr(10)))))
           AS line_no
  FROM documents
),
kept AS (
  SELECT doc_id, line_no, line FROM (
    SELECT ex.*, row_number() OVER (PARTITION BY md5(line)
             ORDER BY doc_id, line_no) AS rn
    FROM ex WHERE line <> ''
  ) WHERE rn = 1
  UNION ALL
  SELECT doc_id, line_no, line FROM ex WHERE line = ''
)
SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text
FROM kept GROUP BY 1
""",
        "web_reciprocity": f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
he AS (
  SELECT DISTINCT src_host AS s, dst_host AS t FROM lk
  WHERE src_host <> dst_host
)
SELECT (SELECT count(*) FROM he)::BIGINT AS n_edges,
       (SELECT count(*) FROM he a
        JOIN he b ON b.s = a.t AND b.t = a.s)::BIGINT AS n_recip
""",
        # the whole pg1.2 html reconstructed in SQL: title/script/header/
        # nav template + the &-first escape chain + footer outlink
        # arithmetic; digest = md5(utf8), length = strlen (bytes)
        "cdx_index": f"""
WITH b0 AS (
  SELECT doc_id, source, source || '.example.com' AS host,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 HOUR
           AS warc_ts,
         replace(replace(replace(({spec.SQL_FACT1}),
           '&', '&amp;'), '<', '&lt;'), '>', '&gt;') AS p1,
         replace(replace(replace(({spec.SQL_FACT2}),
           '&', '&amp;'), '<', '&lt;'), '>', '&gt;') AS p2,
         replace(replace(replace(trim(text),
           '&', '&amp;'), '<', '&lt;'), '>', '&gt;') AS p3
  FROM documents
),
jx2 AS (SELECT unnest(generate_series(1, 3)) AS j),
lk2 AS (
  SELECT d.doc_id,
         string_agg(
           '<a href="https://src' || ((d.doc_id * 31 + 97 * jx2.j) % 20)
             || '.example.com/doc/' || ((d.doc_id * 7 + jx2.j) % 1000)
             || '"></a>', '' ORDER BY jx2.j) AS links
  FROM documents d CROSS JOIN jx2
  WHERE jx2.j <= 1 + d.doc_id % 3
  GROUP BY 1
),
h AS (
  SELECT b0.*,
         '<html><head><title>Doc ' || b0.doc_id || ' - ' || b0.host
           || '</title><script type="text/javascript">var t=' || b0.doc_id
           || ';</script></head><body><header><h1 class="sitename">'
           || b0.host || '</h1></header><nav><a href="/">home</a> | '
           || '<a href="/about">about</a></nav><div id="main"><p>'
           || b0.p1 || '</p><p>' || b0.p2 || '</p><p>' || b0.p3
           || '</p></div><footer>&copy; ' || b0.host || ' ' || lk2.links
           || '</footer></body></html>' AS html_s
  FROM b0 JOIN lk2 USING (doc_id)
)
SELECT 'com,example,' || source || ')/doc/' || doc_id AS urlkey,
       strftime(warc_ts, '%Y%m%d%H%M%S') AS ts14,
       url,
       md5(html_s) AS digest,
       strlen(html_s)::BIGINT AS length
FROM h
""",
        "web_host_communities": f"""
WITH {_LINK_GRAPH_CTE.lstrip()},
hedges AS (
  SELECT DISTINCT src_host AS subj_uuid, dst_host AS obj_uuid FROM lk
),
{_lpa_rounds_sql(10, "hedges")}
SELECT node AS host, community FROM r10
""",
        # the bp1 boilerplate chain recomputed over the robots-ALLOWED
        # subset (host page counts shrink with the gate, same as the Ray
        # composition order), then length ≥ 200 and min-url-per-md5 dedup
        "web_pipeline": f"""
WITH g AS (
  SELECT doc_id,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         source || '.example.com' AS host,
         '/doc/' || doc_id AS path,
         CAST(substr(source, 4) AS INT) AS nsrc,
         ({spec.SQL_FACT1}) || chr(10) || ({spec.SQL_FACT2})
           || chr(10) || trim(text) AS golden
  FROM documents
),
ga AS (
  SELECT * FROM g
  WHERE nsrc % 4 = 3
     OR NOT (starts_with(path, '/doc/' || (nsrc % 10))
             OR starts_with(path, '/admin'))
),
lx AS (
  SELECT url, host,
         list_concat(list_concat(
           [host, 'home | about'],
           string_split(golden, chr(10))),
           ['© ' || host]) AS ll
  FROM ga
),
ln AS (
  SELECT url, host,
         unnest(generate_series(1, len(ll))) AS line_no,
         unnest(ll) AS raw_line
  FROM lx
),
lt AS (
  SELECT url, host, line_no,
         trim(raw_line, ' ' || chr(9) || chr(13)) AS line
  FROM ln WHERE trim(raw_line, ' ' || chr(9) || chr(13)) <> ''
),
np AS (SELECT host, count(*) AS n_pages FROM ga GROUP BY 1),
occ AS (SELECT *, count(*) OVER (PARTITION BY host, line) AS n_occ FROM lt),
kept AS (
  SELECT o.url, o.line_no, o.line
  FROM occ o JOIN np USING (host)
  WHERE 2 * o.n_occ < np.n_pages
),
rec AS (
  SELECT url, string_agg(line, chr(10) ORDER BY line_no) AS text
  FROM kept GROUP BY 1
)
SELECT url, text FROM rec
WHERE length(text) >= 200
QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY url) = 1
""",
        "warc_roundtrip": f"""
SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url,
       TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 HOUR
         AS warc_ts,
       lang,
       ({spec.SQL_FACT1}) || chr(10) || ({spec.SQL_FACT2})
         || chr(10) || trim(text) AS text
FROM documents
""",
        "robots_filter": """
WITH p AS (
  SELECT doc_id,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         '/doc/' || doc_id AS path,
         CAST(substr(source, 4) AS INT) AS n
  FROM documents
)
SELECT url,
       CASE WHEN n % 4 = 3 THEN 1
            WHEN starts_with(path, '/doc/' || (n % 10))
              OR starts_with(path, '/admin') THEN 0
            ELSE 1 END::BIGINT AS allowed
FROM p
""",
        # depth-bounded recursive min-depth per seed; UNION (not ALL)
        # dedups (seed, node, d) triples so cycles terminate at d ≤ 6
        "web_host_harmonic": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
sd AS (SELECT unnest([{", ".join(f"'{h}'" for h in PPR_SEED_HOSTS)}])
         AS seed),
walk(seed, node, d) AS (
  SELECT seed, seed, 0 FROM sd
  UNION
  SELECT w.seed, e.t, w.d + 1
  FROM walk w JOIN he e ON e.s = w.node WHERE w.d < 6
),
md AS (SELECT seed, node, min(d) AS d FROM walk GROUP BY 1, 2)
SELECT node AS host, sum(1000000 // d)::BIGINT AS hc_e6
FROM md WHERE d > 0 GROUP BY 1
""",
        "docs_bpe_train": _bpe_oracle_sql(10),
        "web_host_triads": _triads_oracle_sql(),
        # exact integer dots/norms on the e3 lattice; the one float op per
        # pair (dot / sqrt(na²·nb²) · 10, then floor) is IEEE-identical on
        # identical integer inputs in both engines
        "embeddings_cos_hist": """
WITH vx AS (
  SELECT vec_id, i AS pos,
         floor(embedding[i]::DOUBLE * 1000)::BIGINT AS x
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
pr AS (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 128),
n2 AS (SELECT vec_id, sum(x * x)::BIGINT AS nn FROM vx GROUP BY 1),
dots AS (
  SELECT a.vec_id AS qa, b.vec_id AS qb, sum(a.x * b.x)::BIGINT AS dot
  FROM vx a JOIN vx b ON b.pos = a.pos AND b.vec_id <> a.vec_id
  WHERE a.vec_id IN (SELECT vec_id FROM pr)
  GROUP BY 1, 2
),
sc AS (
  SELECT floor(dot / sqrt((na.nn * nb.nn)::DOUBLE) * 10)::BIGINT AS bucket
  FROM dots
  JOIN n2 na ON na.vec_id = dots.qa
  JOIN n2 nb ON nb.vec_id = dots.qb
  WHERE na.nn > 0 AND nb.nn > 0
)
SELECT bucket, count(*)::BIGINT AS n_pairs FROM sc GROUP BY 1
""",
        "kg_invalidations": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
pl AS (
  SELECT uuid, lead(valid_at) OVER w AS invalid_at,
         lead(uuid) OVER w AS invalidated_by
  FROM merged_id WHERE pred IN ('LIKES', 'DISLIKES')
  WINDOW w AS (PARTITION BY group_id, subj_uuid, obj_uuid
               ORDER BY valid_at, uuid)
),
sl AS (
  SELECT uuid, lead(valid_at) OVER w AS invalid_at,
         lead(uuid) OVER w AS invalidated_by
  FROM merged_id WHERE pred IN ('WORKS_AT', 'CEO_OF', 'LOCATED_IN')
  WINDOW w AS (PARTITION BY group_id, subj_uuid, pred
               ORDER BY valid_at, uuid)
)
SELECT uuid, invalidated_by, invalid_at FROM pl
WHERE invalidated_by IS NOT NULL
UNION ALL
SELECT uuid, invalidated_by, invalid_at FROM sl
WHERE invalidated_by IS NOT NULL
""",
        "kg_path_query": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ed AS (
  SELECT m.*, coalesce(p.inv, s2.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
),
w AS (
  SELECT group_id, subj_canonical AS person, obj_uuid, obj_canonical AS org
  FROM ed WHERE pred = 'WORKS_AT' AND invalid_at IS NULL
),
l AS (
  SELECT group_id, subj_uuid, obj_canonical AS place
  FROM ed WHERE pred = 'LOCATED_IN' AND invalid_at IS NULL
)
SELECT DISTINCT w.person, w.org, l.place
FROM w JOIN l ON l.group_id = w.group_id AND l.subj_uuid = w.obj_uuid
""",
        "kg_path_query_asof": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ed AS (
  SELECT m.*, coalesce(p.inv, s2.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
),
w AS (
  SELECT group_id, subj_canonical AS person, obj_uuid, obj_canonical AS org
  FROM ed WHERE pred = 'WORKS_AT'
    AND valid_at <= TIMESTAMP '{_ASOF_T}'
    AND (invalid_at IS NULL OR invalid_at > TIMESTAMP '{_ASOF_T}')
),
l AS (
  SELECT group_id, subj_uuid, obj_canonical AS place
  FROM ed WHERE pred = 'LOCATED_IN'
    AND valid_at <= TIMESTAMP '{_ASOF_T}'
    AND (invalid_at IS NULL OR invalid_at > TIMESTAMP '{_ASOF_T}')
)
SELECT DISTINCT w.person, w.org, l.place
FROM w JOIN l ON l.group_id = w.group_id AND l.subj_uuid = w.obj_uuid
""",
        "kg_workforce_by_place": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ed AS (
  SELECT m.*, coalesce(p.inv, s2.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
),
w AS (
  SELECT group_id, subj_canonical AS person, obj_uuid
  FROM ed WHERE pred = 'WORKS_AT' AND invalid_at IS NULL
),
l AS (
  SELECT group_id, subj_uuid, obj_canonical AS place
  FROM ed WHERE pred = 'LOCATED_IN' AND invalid_at IS NULL
)
SELECT l.place, count(DISTINCT w.person)::BIGINT AS n_people
FROM w JOIN l ON l.group_id = w.group_id AND l.subj_uuid = w.obj_uuid
GROUP BY 1
""",
        # exact-integer power iteration: after floor(v*1000) everything
        # is int arithmetic (sums promote to HUGEINT), so 4 unrolled
        # rounds of y=G·x, x=(y*1000)//max|y| match the Python fold
        # bit-for-bit; Gram is PSD so no sign convention is needed
        "embeddings_pca": """
WITH vx AS (
  SELECT vec_id, i AS pos,
         floor(embedding[i]::DOUBLE * 1000)::BIGINT AS x
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
mu AS (SELECT pos, sum(x) // count(*) AS m FROM vx GROUP BY 1),
cx AS (SELECT v.vec_id, v.pos, v.x - mu.m AS x FROM vx v JOIN mu USING (pos)),
gram AS (
  SELECT a.pos AS i, b.pos AS j, sum(a.x * b.x) AS g
  FROM cx a JOIN cx b USING (vec_id) GROUP BY 1, 2
),
x0 AS (SELECT DISTINCT i AS pos, 1000::HUGEINT AS x FROM gram),
y1 AS (SELECT g.i AS pos, sum(g.g * x.x) AS y
       FROM gram g JOIN x0 x ON x.pos = g.j GROUP BY 1),
x1 AS (SELECT y1.pos, (y1.y * 1000) // m.m AS x
       FROM y1 CROSS JOIN (SELECT max(abs(y)) AS m FROM y1) m),
y2 AS (SELECT g.i AS pos, sum(g.g * x.x) AS y
       FROM gram g JOIN x1 x ON x.pos = g.j GROUP BY 1),
x2 AS (SELECT y2.pos, (y2.y * 1000) // m.m AS x
       FROM y2 CROSS JOIN (SELECT max(abs(y)) AS m FROM y2) m),
y3 AS (SELECT g.i AS pos, sum(g.g * x.x) AS y
       FROM gram g JOIN x2 x ON x.pos = g.j GROUP BY 1),
x3 AS (SELECT y3.pos, (y3.y * 1000) // m.m AS x
       FROM y3 CROSS JOIN (SELECT max(abs(y)) AS m FROM y3) m),
y4 AS (SELECT g.i AS pos, sum(g.g * x.x) AS y
       FROM gram g JOIN x3 x ON x.pos = g.j GROUP BY 1),
x4 AS (SELECT y4.pos, (y4.y * 1000) // m.m AS x
       FROM y4 CROSS JOIN (SELECT max(abs(y)) AS m FROM y4) m),
yf AS (SELECT g.i AS pos, sum(g.g * x.x) AS y
       FROM gram g JOIN x4 x ON x.pos = g.j GROUP BY 1),
ray AS (SELECT sum(x4.x * yf.y) AS num, sum(x4.x * x4.x) AS den
        FROM x4 JOIN yf USING (pos))
SELECT x4.pos::BIGINT AS pos, x4.x::BIGINT AS x_e3,
       (ray.num // ray.den)::BIGINT AS lam
FROM x4 CROSS JOIN ray
""",
        # the xlx CASE chain mirrors the numpy expression left-to-right,
        # so the float result is bit-identical before the 1e-6 rounding
        "docs_llr": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
bi AS (
  SELECT tk[i] AS w1, tk[i + 1] AS w2
  FROM toks, LATERAL unnest(range(1, len(tk))) AS u(i)
),
types AS (SELECT w1, w2, count(*)::BIGINT AS n_pair FROM bi GROUP BY 1, 2),
tot AS (SELECT sum(n_pair)::DOUBLE AS n FROM types),
lm AS (SELECT w1, sum(n_pair)::DOUBLE AS a FROM types GROUP BY 1),
rm AS (SELECT w2, sum(n_pair)::DOUBLE AS b FROM types GROUP BY 1),
cells AS (
  SELECT t.w1, t.w2, t.n_pair,
         t.n_pair::DOUBLE AS k11,
         lm.a - t.n_pair::DOUBLE AS k12,
         rm.b - t.n_pair::DOUBLE AS k21,
         tot.n - lm.a - rm.b + t.n_pair::DOUBLE AS k22,
         lm.a AS ra, rm.b AS ca, tot.n AS nn
  FROM types t JOIN lm USING (w1) JOIN rm USING (w2) CROSS JOIN tot
  WHERE t.n_pair >= 5
),
scored AS (
  SELECT w1, w2, n_pair,
         round((2 * (
             (CASE WHEN k11 > 0 THEN k11 * ln(k11) ELSE 0 END)
           + (CASE WHEN k12 > 0 THEN k12 * ln(k12) ELSE 0 END)
           + (CASE WHEN k21 > 0 THEN k21 * ln(k21) ELSE 0 END)
           + (CASE WHEN k22 > 0 THEN k22 * ln(k22) ELSE 0 END)
           - (CASE WHEN ra > 0 THEN ra * ln(ra) ELSE 0 END)
           - (CASE WHEN nn - ra > 0 THEN (nn - ra) * ln(nn - ra) ELSE 0 END)
           - (CASE WHEN ca > 0 THEN ca * ln(ca) ELSE 0 END)
           - (CASE WHEN nn - ca > 0 THEN (nn - ca) * ln(nn - ca) ELSE 0 END)
           + (CASE WHEN nn > 0 THEN nn * ln(nn) ELSE 0 END)
         )) * 1000000)::BIGINT AS llr6
  FROM cells
),
ranked AS (
  SELECT w1, w2, n_pair, llr6,
         row_number() OVER (ORDER BY llr6 DESC, w1, w2) AS rank
  FROM scored
)
SELECT rank::BIGINT AS rank, w1, w2, n_pair,
       llr6::DOUBLE / 1000000 AS llr
FROM ranked WHERE rank <= 50
""",
        # CASE order IS the contract: the Ray side evaluates the same
        # rule chain via np.select, so degenerate zero-length intervals
        # (two assertions sharing valid_at) classify identically
        "kg_allen_census": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ed AS (
  SELECT m.uuid, m.group_id, m.subj_uuid, m.obj_uuid, m.valid_at AS s,
         coalesce(p.inv, s2.inv, TIMESTAMP '9999-12-31 00:00:00') AS e
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s2 USING (uuid)
),
pr AS (
  SELECT a.s AS s1, a.e AS e1, b.s AS s2, b.e AS e2
  FROM ed a JOIN ed b
    ON b.group_id = a.group_id AND b.subj_uuid = a.subj_uuid
   AND b.obj_uuid = a.obj_uuid AND a.uuid < b.uuid
),
cls AS (
  SELECT CASE
    WHEN s1 = s2 AND e1 = e2 THEN 'equals'
    WHEN e1 < s2 THEN 'before'
    WHEN e2 < s1 THEN 'before_i'
    WHEN e1 = s2 THEN 'meets'
    WHEN e2 = s1 THEN 'meets_i'
    WHEN s1 < s2 AND s2 < e1 AND e1 < e2 THEN 'overlaps'
    WHEN s2 < s1 AND s1 < e2 AND e2 < e1 THEN 'overlaps_i'
    WHEN s1 = s2 AND e1 < e2 THEN 'starts'
    WHEN s1 = s2 AND e2 < e1 THEN 'starts_i'
    WHEN s2 < s1 AND e1 < e2 THEN 'during'
    WHEN s1 < s2 AND e2 < e1 THEN 'during_i'
    WHEN e1 = e2 AND s2 < s1 THEN 'finishes'
    WHEN e1 = e2 AND s1 < s2 THEN 'finishes_i'
    ELSE 'other' END AS relation
  FROM pr
)
SELECT relation, count(*)::BIGINT AS n_pairs FROM cls GROUP BY 1
""",
        "docs_skipgrams": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk
  FROM documents
),
pos AS (
  SELECT doc_id, unnest(tk) AS w, generate_subscripts(tk, 1) AS i
  FROM toks
),
counted AS (
  SELECT a.w AS center, b.w AS context, count(*)::BIGINT AS n_pair
  FROM pos a JOIN pos b
    ON b.doc_id = a.doc_id AND b.i <> a.i AND abs(b.i - a.i) <= 2
  GROUP BY 1, 2
),
ranked AS (
  SELECT center, context, n_pair,
         row_number() OVER (ORDER BY n_pair DESC, center, context) AS rank
  FROM counted
)
SELECT rank, center, context, n_pair FROM ranked WHERE rank <= 200
""",
        "docs_readability": r"""
WITH toks AS (
  SELECT doc_id, text, regexp_extract_all(lower(text), '\w+') AS tk
  FROM documents
),
syl AS (
  SELECT doc_id,
         sum(greatest(len(regexp_extract_all(u.w, '[aeiouy]+')), 1))::BIGINT
           AS n_syllables
  FROM toks, LATERAL unnest(tk) AS u(w)
  GROUP BY 1
),
base AS (
  SELECT t.doc_id, len(t.tk)::BIGINT AS n_words,
         greatest(len(regexp_extract_all(t.text, '[.!?]+')), 1)::BIGINT
           AS n_sentences,
         s.n_syllables
  FROM toks t JOIN syl s USING (doc_id)
  WHERE len(t.tk) >= 1
)
SELECT doc_id, n_words, n_sentences, n_syllables,
       ((1000000 * (39*n_words*n_words + 1180*n_syllables*n_sentences
                    - 1559*n_sentences*n_words))
         // (100*n_sentences*n_words))::BIGINT AS fk_micro
FROM base
""",
        # σ via aggregated matrix powers: a walk of length exactly d(s,t)
        # cannot revisit a node, so the level-d walk count equals the
        # shortest-path count; stress = Σ σ_sv·σ_vt over splits whose
        # lengths sum to d(s,t) — all integers, no float lattice needed
        "web_host_stress": f"""
WITH RECURSIVE {_LINK_GRAPH_CTE.lstrip()},
he AS (SELECT DISTINCT src_host AS s, dst_host AS t FROM lk),
-- explicit DISTINCT: UNION inside a WITH RECURSIVE block does not dedup
vx AS (SELECT DISTINCT node FROM
       (SELECT s AS node FROM he UNION ALL SELECT t FROM he)),
walk(s, node, d) AS (
  SELECT node, node, 0 FROM vx
  UNION
  SELECT w.s, e.t, w.d + 1 FROM walk w JOIN he e ON e.s = w.node
  WHERE w.d < 6
),
dist AS (SELECT s, node AS t, min(d) AS d FROM walk GROUP BY 1, 2),
p1 AS (SELECT s, t, 1::BIGINT AS c FROM he),
p2 AS (SELECT p.s, e.t, sum(p.c)::BIGINT AS c FROM p1 p
       JOIN he e ON e.s = p.t GROUP BY 1, 2),
p3 AS (SELECT p.s, e.t, sum(p.c)::BIGINT AS c FROM p2 p
       JOIN he e ON e.s = p.t GROUP BY 1, 2),
p4 AS (SELECT p.s, e.t, sum(p.c)::BIGINT AS c FROM p3 p
       JOIN he e ON e.s = p.t GROUP BY 1, 2),
p5 AS (SELECT p.s, e.t, sum(p.c)::BIGINT AS c FROM p4 p
       JOIN he e ON e.s = p.t GROUP BY 1, 2),
p6 AS (SELECT p.s, e.t, sum(p.c)::BIGINT AS c FROM p5 p
       JOIN he e ON e.s = p.t GROUP BY 1, 2),
paths AS (
  SELECT 1 AS d, * FROM p1 UNION ALL SELECT 2, * FROM p2
  UNION ALL SELECT 3, * FROM p3 UNION ALL SELECT 4, * FROM p4
  UNION ALL SELECT 5, * FROM p5 UNION ALL SELECT 6, * FROM p6
),
sig AS (
  SELECT d.s, d.t, d.d, p.c AS sigma
  FROM dist d JOIN paths p ON p.s = d.s AND p.t = d.t AND p.d = d.d
  WHERE d.d > 0
),
mid AS (
  SELECT a.s AS s, b.t AS t, a.t AS v, a.d + b.d AS dsum,
         a.sigma * b.sigma AS sp
  FROM sig a JOIN sig b ON b.s = a.t
  WHERE a.s <> b.t
)
SELECT m.v AS host, sum(m.sp)::BIGINT AS stress
FROM mid m JOIN dist dd ON dd.s = m.s AND dd.t = m.t AND dd.d = m.dsum
GROUP BY 1
""",
        "pages_url_normalize": """
SELECT
  'https://' || source || '.example.com/doc/' || doc_id
    || CASE WHEN doc_id % 13 = 0 AND (doc_id % 3 = 0 OR doc_id % 5 = 0)
            THEN '/' ELSE '' END
    || CASE WHEN doc_id % 3 = 0 OR doc_id % 5 = 0
            THEN '?id=' || doc_id ELSE '' END AS url_norm,
  source || '.example.com' AS host,
  'example.com' AS registered_domain
FROM documents
""",
        "pages_domain_cap": """
SELECT source || '.example.com' AS host,
       'https://' || source || '.example.com/doc/' || doc_id AS url_norm
FROM (SELECT source, doc_id,
             row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
      FROM documents)
WHERE rn <= 10
""",
        "graph_adamic_adar": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
adjx AS (SELECT a AS v, b AS nbr FROM und UNION ALL SELECT b, a FROM und),
wv AS (
  SELECT v,
         1000000000000 // CAST(round(ln(count(*)) * 1000000) AS BIGINT) AS w
  FROM adjx GROUP BY v HAVING count(*) >= 2
),
wedge AS (
  SELECT a1.nbr AS node_a, a2.nbr AS node_b, wv.w
  FROM adjx a1
  JOIN adjx a2 ON a2.v = a1.v AND a1.nbr < a2.nbr
  JOIN wv ON wv.v = a1.v
),
pairs AS (
  SELECT node_a, node_b, count(*)::BIGINT AS common_neighbors,
         sum(w)::BIGINT AS aa_score_micro
  FROM wedge GROUP BY 1, 2
)
SELECT p.node_a, p.node_b, p.common_neighbors, p.aa_score_micro
FROM pairs p
LEFT JOIN und e ON e.a = p.node_a AND e.b = p.node_b
WHERE e.a IS NULL
ORDER BY p.aa_score_micro DESC, p.node_a, p.node_b
LIMIT 200
""",
        "graph_jaccard_links": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
mu AS (
  SELECT m.episode_uuid,
         md5(m.group_id || '|' || lower(c.canonical)) AS eu
  FROM ment m
  JOIN canon c ON c.group_id = m.group_id AND c.name = m.name
),
und AS (
  SELECT DISTINCT least(x.eu, y.eu) AS a, greatest(x.eu, y.eu) AS b
  FROM mu x JOIN mu y
    ON x.episode_uuid = y.episode_uuid AND x.eu <> y.eu
),
adjx AS (SELECT a AS v, b AS nbr FROM und UNION ALL SELECT b, a FROM und),
degs AS (SELECT v, count(*)::BIGINT AS deg FROM adjx GROUP BY v),
wedge AS (
  SELECT a1.nbr AS node_a, a2.nbr AS node_b
  FROM adjx a1 JOIN adjx a2 ON a2.v = a1.v AND a1.nbr < a2.nbr
),
pairs AS (
  SELECT node_a, node_b, count(*)::BIGINT AS common_neighbors
  FROM wedge GROUP BY 1, 2
)
SELECT p.node_a, p.node_b, p.common_neighbors,
       ((p.common_neighbors * 1000000)
        // (da.deg + db.deg - p.common_neighbors))::BIGINT AS jaccard_micro
FROM pairs p
JOIN degs da ON da.v = p.node_a
JOIN degs db ON db.v = p.node_b
LEFT JOIN und e ON e.a = p.node_a AND e.b = p.node_b
WHERE e.a IS NULL
ORDER BY jaccard_micro DESC, p.node_a, p.node_b
LIMIT 200
""",
        "graph_degree": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()}
SELECT entity_uuid, count(*)::BIGINT AS degree FROM (
  SELECT subj_uuid AS entity_uuid FROM merged_id
  UNION ALL
  SELECT obj_uuid FROM merged_id
) GROUP BY 1
""",
        "episode_windows": f"""
WITH {_BASE_CTE.lstrip()},
eps AS (SELECT md5(url) AS uuid, group_id, valid_at FROM base)
SELECT uuid, group_id,
       (CASE WHEN lag(uuid, 1) OVER w IS NULL THEN 0
             WHEN lag(uuid, 2) OVER w IS NULL THEN 1
             WHEN lag(uuid, 3) OVER w IS NULL THEN 2 ELSE 3 END)::BIGINT
         AS prev_count,
       concat_ws(',', lag(uuid, 3) OVER w, lag(uuid, 2) OVER w,
                 lag(uuid, 1) OVER w) AS prev_concat
FROM eps
WINDOW w AS (PARTITION BY group_id ORDER BY valid_at, uuid)
""",
        "docs_bm25": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM documents
),
stats AS (
  SELECT count(*)::DOUBLE AS n,
         sum(len(tk))::DOUBLE / count(*) AS avgdl
  FROM toks
),
tf AS (
  SELECT doc_id, len(tk)::DOUBLE AS dl,
         len(list_filter(tk, x -> x = 'spark'))::DOUBLE AS f1,
         len(list_filter(tk, x -> x = 'stream'))::DOUBLE AS f2,
         len(list_filter(tk, x -> x = 'window'))::DOUBLE AS f3,
         len(list_filter(tk, x -> x = 'merge'))::DOUBLE AS f4
  FROM toks
),
dfs AS (
  SELECT sum((f1 > 0)::INT)::DOUBLE AS d1, sum((f2 > 0)::INT)::DOUBLE AS d2,
         sum((f3 > 0)::INT)::DOUBLE AS d3, sum((f4 > 0)::INT)::DOUBLE AS d4
  FROM tf
)
SELECT doc_id, round(
    (CASE WHEN f1 > 0 THEN ln(1 + (n - d1 + 0.5) / (d1 + 0.5)) * f1 * (1.2 + 1)
          / (f1 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END)
  + (CASE WHEN f2 > 0 THEN ln(1 + (n - d2 + 0.5) / (d2 + 0.5)) * f2 * (1.2 + 1)
          / (f2 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END)
  + (CASE WHEN f3 > 0 THEN ln(1 + (n - d3 + 0.5) / (d3 + 0.5)) * f3 * (1.2 + 1)
          / (f3 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END)
  + (CASE WHEN f4 > 0 THEN ln(1 + (n - d4 + 0.5) / (d4 + 0.5)) * f4 * (1.2 + 1)
          / (f4 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) ELSE 0 END), 6) AS bm25
FROM tf, stats, dfs
ORDER BY bm25 DESC, doc_id LIMIT 20
""",
        "graph_components": f"""
WITH RECURSIVE {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
sym AS (
  SELECT subj_uuid AS a, obj_uuid AS b FROM merged_id
  UNION
  SELECT obj_uuid, subj_uuid FROM merged_id
),
reach AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON s.a = r.b
)
SELECT a AS entity_uuid, least(a, min(b)) AS component FROM reach GROUP BY a
""",
        "kg_point_in_time": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
edges_f AS (
  SELECT m.uuid, m.group_id, m.valid_at, coalesce(p.inv, s.inv) AS invalid_at
  FROM merged_id m
  LEFT JOIN pair_inv p USING (uuid)
  LEFT JOIN subj_inv s USING (uuid)
),
eps AS (SELECT md5(url) AS episode_uuid, group_id, valid_at FROM base)
SELECT ep.episode_uuid, ep.group_id, count(e.uuid)::BIGINT AS n_valid_edges
FROM eps ep LEFT JOIN edges_f e
  ON e.group_id = ep.group_id AND e.valid_at <= ep.valid_at
 AND (e.invalid_at IS NULL OR e.invalid_at > ep.valid_at)
GROUP BY 1, 2
""",
        "dedup_minhash": _minhash_oracle_sql(),
        # exact n-gram Jaccard near-dup: bottom-M sketch blocking + full
        # shingle-set intersection, replicated end-to-end
        "dedup_ngram": _ngram_oracle_sql(),
        # training-window chunking: pure start-grid arithmetic
        "docs_chunks": _chunks_oracle_sql(),
        # train/test 8-gram overlap decontamination
        "docs_decontaminate": _decon_oracle_sql(),
        "docs_dup_spans": _dup_spans_oracle_sql(),
        "docs_tfidf": _TFIDF_ORACLE,
        "docs_pack": _PACK_ORACLE,
        # Lloyd's unrolled (assign → floor-divide update) on the integer
        # lattice; ties and empty clusters identical on both sides
        "embeddings_kmeans": _kmeans_oracle_sql(),
        "embeddings_pq": _pq_oracle_sql(),
        "knn_pq": _knn_pq_oracle_sql(),
        "docs_len_quantiles": _DOCS_LEN_QUANTILES_ORACLE,
        # SemDeDup: same Lloyd's CTEs + exact-integer cosine dominance
        "embeddings_semdedup": _semdedup_oracle_sql(),
        # Laplace bigram LM: int-lattice log-probs summed exactly
        "docs_lm_score": _LM_SCORE_ORACLE,
        # Lee et al. span removal: same Horner grams, window coverage mask
        "docs_dedup_spans": _dedup_spans_oracle_sql(),
        # DSIR: int-lattice unigram log-ratios, exact integer reduction
        "docs_dsir": _DSIR_ORACLE,
        # PMI collocations: type-table marginals, lattice-ranked top-50
        "docs_pmi": _PMI_ORACLE,
        # HITS: 4 unrolled rounds, L1-normalized half-steps
        "graph_hits": _hits_oracle_sql(),
        # gram novelty: min-doc first-seen over the same Horner shingles
        "docs_novelty": _novelty_oracle_sql(),
        # CDC chunking: mask-rule cuts on rolling 16-byte Horner hashes
        "dedup_levenshtein": _lev_oracle_sql(),
        "lang_distinct_texts": """
SELECT lang, count(DISTINCT md5(text))::BIGINT AS n_distinct
FROM documents GROUP BY 1
""",
        # skyline: classic NOT-EXISTS dominance (≥ both, > at least one)
        "docs_skyline": r"""
WITH w AS (
  SELECT doc_id, n_chars::BIGINT AS n_chars,
         len(list_distinct(list_filter(string_split_regex(text, '\s+'),
                                       t -> t <> '')))::BIGINT AS n_tokens
  FROM documents
)
SELECT doc_id, n_chars, n_tokens FROM w p
WHERE NOT EXISTS (
  SELECT 1 FROM w q
  WHERE q.n_chars >= p.n_chars AND q.n_tokens >= p.n_tokens
    AND (q.n_chars > p.n_chars OR q.n_tokens > p.n_tokens)
)
""",
        "docs_profile": """
SELECT 'doc_id' AS column, count(*)::BIGINT AS n,
       sum((doc_id IS NULL)::INT)::BIGINT AS n_null,
       count(DISTINCT md5(doc_id::VARCHAR))::BIGINT AS n_distinct,
       min(doc_id)::VARCHAR AS min_s, max(doc_id)::VARCHAR AS max_s
FROM documents
UNION ALL
SELECT 'lang', count(*)::BIGINT, sum((lang IS NULL)::INT)::BIGINT,
       count(DISTINCT md5(lang))::BIGINT, min(lang), max(lang)
FROM documents
UNION ALL
SELECT 'n_chars', count(*)::BIGINT, sum((n_chars IS NULL)::INT)::BIGINT,
       count(DISTINCT md5(n_chars::VARCHAR))::BIGINT,
       min(n_chars)::VARCHAR, max(n_chars)::VARCHAR
FROM documents
""",
        # grouped CMS: same slice arithmetic as tokens_cms, plus lang
        "tokens_cms_by_lang": r"""
WITH toks AS (
  SELECT lang, t AS token
  FROM documents, LATERAL unnest(string_split_regex(text, '\s+')) AS u(t)
  WHERE t <> ''
),
h AS (
  SELECT lang, ('0x' || substr(md5(token), 1, 16))::UBIGINT AS h FROM toks
),
slots AS (
  SELECT lang, r, ((h >> (16 * r)) & 65535::UBIGINT) % 2048 AS bucket
  FROM h, LATERAL unnest(range(0, 4)) AS u(r)
)
SELECT lang, r::BIGINT AS sketch_row, bucket::BIGINT AS bucket,
       count(*)::BIGINT AS n
FROM slots GROUP BY 1, 2, 3
""",
        # Morton interleave: x=n_chars on even bits, y=doc_id on odd
        "docs_zorder": """
SELECT doc_id,
       CAST(sum((((n_chars >> u.i) & 1) << (2 * u.i))
                + (((doc_id >> u.i) & 1) << (2 * u.i + 1))) AS BIGINT) AS z
FROM documents, LATERAL unnest(range(0, 21)) AS u(i)
GROUP BY doc_id
""",
        # phrase search == space-padded LIKE on the single-spaced corpus
        "docs_phrase": "SELECT p.phrase, d.doc_id FROM (SELECT unnest(["
        + ", ".join(f"'{p}'" for p in _PHRASES)
        + "]) AS phrase) p JOIN documents d ON (' ' || d.text || ' ') "
        "LIKE ('% ' || p.phrase || ' %')",
        # kNN classify: plurality neighbor lang over the mutual graph,
        # ties count-desc then lang-asc
        "knn_classify": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
p AS (
  SELECT a.vec_id AS qa, b.vec_id AS qb,
         round(list_cosine_similarity(a.v, b.v), 6) AS c
  FROM e a JOIN e b ON a.vec_id <> b.vec_id
),
r AS (
  SELECT qa, qb, c,
         row_number() OVER (PARTITION BY qa ORDER BY c DESC, qb) AS rk
  FROM p
),
kk AS (SELECT qa, qb FROM r WHERE rk <= 5),
me AS (
  SELECT x.qa AS a, x.qb AS b
  FROM kk x JOIN kk y ON y.qa = x.qb AND y.qb = x.qa
  WHERE x.qa < x.qb
),
sym2 AS (SELECT a AS node, b AS nbr FROM me UNION ALL SELECT b, a FROM me),
votes AS (
  SELECT s.node, d.lang, count(*)::BIGINT AS votes
  FROM sym2 s JOIN documents d ON d.doc_id = s.nbr
  GROUP BY 1, 2
),
win AS (
  SELECT node, lang, votes,
         row_number() OVER (PARTITION BY node
                            ORDER BY votes DESC, lang) AS rn
  FROM votes
)
SELECT node AS doc_id, lang AS pred_lang, votes FROM win WHERE rn = 1
""",
        # 80/10/10 split: 0xcc/0x100 = 0.796875, 0xe6/0x100 = 0.8984 —
        # byte-aligned thresholds so the hex compare is unambiguous
        "docs_split": """
SELECT doc_id,
       CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < 'cc000000'
            THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < 'e6000000'
            THEN 'val' ELSE 'test' END AS split
FROM documents
""",
        # one message-passing hop: mutual-kNN edges (same CTEs as
        # knn_mutual), neighbor features summed on the 1e-6 lattice
        "knn_neighbor_agg": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
p AS (
  SELECT a.vec_id AS qa, b.vec_id AS qb,
         round(list_cosine_similarity(a.v, b.v), 6) AS c
  FROM e a JOIN e b ON a.vec_id <> b.vec_id
),
r AS (
  SELECT qa, qb, c,
         row_number() OVER (PARTITION BY qa ORDER BY c DESC, qb) AS rk
  FROM p
),
kk AS (SELECT qa, qb FROM r WHERE rk <= 5),
me AS (
  SELECT x.qa AS a, x.qb AS b
  FROM kk x JOIN kk y ON y.qa = x.qb AND y.qb = x.qa
  WHERE x.qa < x.qb
),
sym2 AS (SELECT a AS src, b AS dst FROM me UNION ALL SELECT b, a FROM me),
fl AS (
  SELECT vec_id AS src, (u.i - 1)::BIGINT AS j,
         CAST(floor(embedding[u.i]::DOUBLE * 1000000) AS BIGINT) AS q
  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
)
SELECT s.dst AS vec_id, f.j, CAST(sum(f.q) AS BIGINT) AS sum_q,
       count(*)::BIGINT AS n_nbrs
FROM sym2 s JOIN fl f ON f.src = s.src
GROUP BY 1, 2
""",
        # corpus encoding: rank-1..100 vocab (count desc, token asc),
        # OOV→0; positions via a filtered-token row_number per doc
        "docs_encode": r"""
WITH lists AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS l
  FROM documents
),
tok AS (
  SELECT doc_id, l[u.i] AS token, (u.i - 1)::BIGINT AS pos
  FROM lists, LATERAL unnest(range(1, len(l) + 1)) AS u(i)
),
cnt AS (SELECT token, count(*)::BIGINT AS n FROM tok GROUP BY 1),
voc AS (
  SELECT token,
         row_number() OVER (ORDER BY n DESC, token)::BIGINT AS token_id
  FROM cnt ORDER BY n DESC, token LIMIT 100
)
SELECT t.doc_id, t.pos, coalesce(v.token_id, 0) AS token_id
FROM tok t LEFT JOIN voc v USING (token)
""",
        "docs_cube": """
SELECT coalesce(lang, '(all)') AS lang,
       coalesce(source, '(all)') AS source,
       count(*)::BIGINT AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM documents
GROUP BY CUBE(lang, source)
""",
        "docs_melt": "WITH grid AS (SELECT lang, source, count(*)::BIGINT AS n "
        "FROM documents GROUP BY 1, 2), cats AS (SELECT unnest(["
        + ", ".join(f"'{s}'" for s in _PIVOT_SOURCES)
        + ", '_other']) AS variable) "
        "SELECT l.lang, c.variable, "
        "coalesce(CASE WHEN c.variable = '_other' THEN o.n_other ELSE g.n END, 0)"
        "::BIGINT AS value "
        "FROM (SELECT DISTINCT lang FROM documents) l "
        "CROSS JOIN cats c "
        "LEFT JOIN grid g ON g.lang = l.lang AND g.source = c.variable "
        "LEFT JOIN (SELECT lang, count(*)::BIGINT AS n_other FROM documents "
        "WHERE source NOT IN ("
        + ", ".join(f"'{s}'" for s in _PIVOT_SOURCES)
        + ") GROUP BY 1) o ON o.lang = l.lang AND c.variable = '_other'",
        "docs_pivot": "SELECT lang, "
        + ", ".join(
            f"count(*) FILTER (WHERE source = '{s}')::BIGINT AS {s}"
            for s in _PIVOT_SOURCES
        )
        + ", count(*) FILTER (WHERE source NOT IN ("
        + ", ".join(f"'{s}'" for s in _PIVOT_SOURCES)
        + "))::BIGINT AS _other FROM documents GROUP BY lang",
        # bloom semi-join: build bits from en doc_ids, keep probes whose
        # 4 bit slices are all lit (FPs deterministic, value-exact)
        "docs_bloom_join": """
WITH bits AS (
  SELECT DISTINCT
         ((((('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT
            >> (16 * u.r)) & 65535::UBIGINT) % 32768))::BIGINT AS bit
  FROM documents, LATERAL unnest(range(0, 4)) AS u(r)
  WHERE lang = 'en'
),
probe AS (
  SELECT doc_id,
         ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT AS h
  FROM documents
)
SELECT p.doc_id FROM probe p
WHERE NOT EXISTS (
  SELECT 1 FROM unnest(range(0, 4)) AS u(r)
  WHERE (((p.h >> (16 * u.r)) & 65535::UBIGINT) % 32768)::BIGINT
        NOT IN (SELECT bit FROM bits)
)
""",
        # A-ES weighted sampling: u from the salted md5 uint32 (+1, /2^32),
        # key = ln(u)/max(w,1) on the 1e-6 lattice, top-50
        "docs_weighted_sample": """
WITH s AS (
  SELECT doc_id, n_chars::BIGINT AS w,
         CAST(round(
           ln((('0x' || substr(md5('1|' || doc_id::VARCHAR), 1, 8))::UBIGINT
               + 1) / 4294967296.0)
           / greatest(n_chars::DOUBLE, 1.0) * 1000000) AS BIGINT) AS key6
  FROM documents
)
SELECT doc_id, w, key6 FROM s ORDER BY key6 DESC, doc_id LIMIT 50
""",
        # rendezvous hashing: argmax of md5('seed|shard|id') over 8 shards
        "docs_shards": """
WITH sc AS (
  SELECT doc_id, u.s AS shard,
         ('0x' || substr(md5('1|' || u.s::VARCHAR || '|'
                             || doc_id::VARCHAR), 1, 8))::UBIGINT AS score
  FROM documents, LATERAL unnest(range(0, 8)) AS u(s)
),
rk AS (
  SELECT doc_id, shard,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, shard) AS rn
  FROM sc
)
SELECT doc_id, shard::BIGINT AS shard FROM rk WHERE rn = 1
""",
        "lang_moments": r"""
WITH w AS (
  SELECT lang, n_chars::BIGINT AS x,
         len(list_filter(string_split_regex(text, '\s+'),
                         t -> t <> ''))::BIGINT AS y
  FROM documents
)
SELECT lang, count(*)::BIGINT AS n,
       CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
       CAST(sum(x * y) AS BIGINT) AS sxy,
       CAST(sum(x * x) AS BIGINT) AS sxx,
       CAST(sum(y * y) AS BIGINT) AS syy
FROM w GROUP BY 1
""",
        # first BPE iteration: adjacent char pairs inside \w+ tokens of
        # the lowercased text; ASCII tokens make packed-uint64 order ==
        # lexicographic pair order, so the tie-break is exact both sides
        "docs_bpe_pairs": r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '\w+')) AS tk
  FROM documents
),
pairs AS (
  SELECT substr(tk, u.i::INTEGER, 2) AS pair
  FROM tok, LATERAL unnest(range(1, len(tk))) AS u(i)
)
SELECT pair, count(*)::BIGINT AS n
FROM pairs
GROUP BY pair
ORDER BY n DESC, pair ASC
LIMIT 200
""",
        # token entropy, division cleared: per-term 1e-6 quantized c·ln c
        "docs_entropy": r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
cnt AS (SELECT doc_id, token, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2),
agg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
         CAST(sum(CAST(round(c * ln(c) * 1000000) AS BIGINT)) AS BIGINT)
           AS sc
  FROM cnt GROUP BY 1
)
SELECT d.doc_id,
       coalesce(a.n, 0) AS n_tokens,
       CASE WHEN a.n IS NULL THEN 0
            ELSE CAST(round(a.n * ln(a.n) * 1000000) AS BIGINT) - a.sc
       END AS hn_e6
FROM documents d LEFT JOIN agg a USING (doc_id)
""",
        # per-language centroid moment sums on the 1e-6 lattice (the
        # float centroid is a derived ratio, kept off the hash)
        "lang_centroids": """
WITH j AS (
  SELECT d.lang, e.embedding
  FROM embeddings e JOIN documents d ON d.doc_id = e.vec_id
),
x AS (
  SELECT lang, (u.i - 1)::BIGINT AS j,
         CAST(floor(embedding[u.i]::DOUBLE * 1000000) AS BIGINT) AS q
  FROM j, LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
)
SELECT lang, j, CAST(sum(q) AS BIGINT) AS sum_q, count(*)::BIGINT AS n
FROM x GROUP BY 1, 2
""",
        # global shuffle order: rank of the epoch-salted md5; the '|' in
        # the salt matches the Python f-string exactly
        "docs_epoch_shuffle": """
SELECT doc_id,
       (row_number() OVER (ORDER BY md5('1|' || doc_id::VARCHAR), doc_id)
        - 1)::BIGINT AS pos
FROM documents
""",
        # snapshot diff vs the same deterministic mutation, via FULL OUTER
        # JOIN: %10 drops → removed, en n_chars+1 → changed, %97 clones
        # at +1e6 → added
        "docs_diff": """
WITH a AS (SELECT doc_id, lang, n_chars FROM documents),
b AS (
  SELECT doc_id, lang,
         n_chars + (lang = 'en')::BIGINT AS n_chars
  FROM documents WHERE doc_id % 10 <> 0
  UNION ALL
  SELECT doc_id + 1000000, 'xx', 1 FROM documents WHERE doc_id % 97 = 0
)
SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'removed'
            WHEN a.doc_id IS NULL THEN 'added'
            ELSE 'changed' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
WHERE b.doc_id IS NULL OR a.doc_id IS NULL
   OR a.lang <> b.lang OR a.n_chars <> b.n_chars
""",
        # mutual kNN: both directions' rank ≤ 5 with self excluded; the
        # same round-6-then-rank total order as the knn oracles
        "knn_mutual": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
p AS (
  SELECT a.vec_id AS qa, b.vec_id AS qb,
         round(list_cosine_similarity(a.v, b.v), 6) AS c
  FROM e a JOIN e b ON a.vec_id <> b.vec_id
),
r AS (
  SELECT qa, qb, c,
         row_number() OVER (PARTITION BY qa ORDER BY c DESC, qb) AS rk
  FROM p
),
kk AS (SELECT qa, qb, c FROM r WHERE rk <= 5)
SELECT x.qa AS a, x.qb AS b, least(x.c, y.c) AS cosine
FROM kk x JOIN kk y ON y.qa = x.qb AND y.qb = x.qa
WHERE x.qa < x.qb
""",
        # order-independent checksum: HUGEINT sum of the first-16-hex-char
        # md5 uint64 per row, reduced mod 2^64, split into 32-bit limbs
        "docs_checksum": """
WITH h AS (
  SELECT ('0x' || substr(md5(doc_id::VARCHAR || '|' || lang), 1, 16))::UBIGINT
           ::HUGEINT AS h
  FROM documents
),
t AS (
  SELECT count(*)::BIGINT AS n_rows,
         CAST(sum(h) % 18446744073709551616::HUGEINT AS UBIGINT) AS total
  FROM h
)
SELECT n_rows, (total >> 32)::BIGINT AS sum_hi,
       (total & 4294967295)::BIGINT AS sum_lo
FROM t
""",
        "docs_rollup": """
SELECT coalesce(lang, '(all)') AS lang,
       coalesce(source, '(all)') AS source,
       count(*)::BIGINT AS n,
       CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
FROM documents
GROUP BY ROLLUP(lang, source)
""",
        "docs_intersect": """
SELECT doc_id FROM documents WHERE lang = 'en'
INTERSECT
SELECT doc_id FROM documents WHERE n_chars >= 300
""",
        "docs_except": """
SELECT doc_id FROM documents WHERE lang = 'en'
EXCEPT
SELECT doc_id FROM documents WHERE n_chars >= 300
""",
        # JL projection: sign(j,i) = parity of the first 8 md5 hex chars of
        # "j|i"; quantized int dot — associative, so group-sum is exact
        "embeddings_jl": """
WITH e AS (
  SELECT vec_id, i, embedding[i]::DOUBLE AS val
  FROM embeddings,
       LATERAL unnest(range(1, len(embedding) + 1)) AS u(i)
),
dims AS (SELECT unnest(range(0, 16)) AS j),
s AS (
  SELECT e.vec_id, d.j,
         CASE WHEN ('0x' || substr(md5(d.j::VARCHAR || '|'
                                       || (e.i - 1)::VARCHAR), 1, 8))::UBIGINT
                   % 2 = 1
              THEN 1 ELSE -1 END
           * CAST(floor(e.val * 1000000) AS BIGINT) AS term
  FROM e CROSS JOIN dims d
)
SELECT vec_id, j, CAST(sum(term) AS BIGINT) AS proj
FROM s GROUP BY 1, 2
""",
        "lang_top_tokens": r"""
WITH tok AS (
  SELECT lang,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
cnt AS (SELECT lang, token, count(*)::BIGINT AS n FROM tok GROUP BY 1, 2),
rk AS (
  SELECT lang, token, n,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n DESC, token) AS rank
  FROM cnt
)
SELECT lang, token, n, rank::BIGINT AS rank FROM rk WHERE rank <= 5
""",
        # integer equi-width binning: (v-lo)*bins // (hi-lo), clamped to
        # -1 / n_bins sentinels — pure integer division on both sides
        "docs_histogram": """
SELECT lang,
       CASE WHEN n_chars < 0 THEN -1
            WHEN n_chars >= 500 THEN 20
            ELSE (n_chars * 20) // 500 END::BIGINT AS bin,
       count(*)::BIGINT AS n
FROM documents
GROUP BY 1, 2
""",
        "docs_cdc": _cdc_oracle_sql(),
        # sequential email → ip → phone redaction with identical regexes
        "docs_pii": _pii_oracle_sql(),
        "search_hybrid": _search_hybrid_oracle_sql(),
        "dedup_simhash": rf"""
WITH consts AS (SELECT {_POW64_SQL} AS pw, {_POW2_SQL} AS p2),
toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
tokh AS (
  SELECT doc_id,
         list_aggregate(list_transform(range(1, length(tok) + 1),
             i -> ord(substr(tok, i, 1))::HUGEINT * pw[length(tok) - i + 1]),
           'sum') % 18446744073709551616::HUGEINT AS h
  FROM toks, consts
),
tokc AS (SELECT doc_id, h, count(*)::HUGEINT AS cnt FROM tokh GROUP BY 1, 2),
bits AS (
  SELECT t.doc_id, u.p, p2[u.p + 1] AS pv,
         sum(CASE WHEN (t.h // p2[u.p + 1]) % 2 = 1 THEN t.cnt ELSE -t.cnt END)
           AS acc
  FROM tokc t, consts, (SELECT unnest(range(0, 64)) AS p) u
  GROUP BY t.doc_id, u.p, p2[u.p + 1]
),
sims0 AS (
  SELECT doc_id, sum(CASE WHEN acc > 0 THEN pv ELSE 0::HUGEINT END) AS uv
  FROM bits GROUP BY doc_id
),
sims AS (
  SELECT d.doc_id,
         CASE WHEN coalesce(s.uv, 0::HUGEINT) >= 9223372036854775808::HUGEINT
              THEN (coalesce(s.uv, 0::HUGEINT)
                    - 18446744073709551616::HUGEINT)::BIGINT
              ELSE coalesce(s.uv, 0::HUGEINT)::BIGINT END AS sim,
         ((coalesce(s.uv, 0::HUGEINT)) % 65536)::BIGINT AS b0,
         ((coalesce(s.uv, 0::HUGEINT) // 65536) % 65536)::BIGINT AS b1,
         ((coalesce(s.uv, 0::HUGEINT) // 4294967296) % 65536)::BIGINT AS b2,
         ((coalesce(s.uv, 0::HUGEINT) // 281474976710656) % 65536)::BIGINT AS b3
  FROM documents d LEFT JOIN sims0 s USING (doc_id)
),
ex AS (
  SELECT doc_id, sim, 0 AS band, b0 AS bval FROM sims
  UNION ALL SELECT doc_id, sim, 1, b1 FROM sims
  UNION ALL SELECT doc_id, sim, 2, b2 FROM sims
  UNION ALL SELECT doc_id, sim, 3, b3 FROM sims
),
hot AS (SELECT band, bval FROM ex GROUP BY 1, 2 HAVING count(*) >= 2),
rk AS (
  SELECT e.*, row_number() OVER (PARTITION BY e.band, e.bval
                                 ORDER BY e.doc_id) AS rk
  FROM ex e JOIN hot USING (band, bval)
),
-- the engine caps every bucket at its first MAX_BUCKET members (by
-- doc_id — deterministic) and emits a pair only from its FIRST shared
-- band; both rules mirrored here so the oracle is value-exact at every
-- scale, truncation included
cand AS (
  SELECT a.doc_id AS a, b.doc_id AS b, a.band,
         bit_count(xor(a.sim, b.sim)) AS hamming
  FROM rk a JOIN rk b
    ON a.band = b.band AND a.bval = b.bval AND a.doc_id < b.doc_id
   AND a.rk <= {_MAX_BUCKET_SQL} AND b.rk <= {_MAX_BUCKET_SQL}
)
SELECT c.a, c.b, c.hamming::BIGINT AS hamming
FROM cand c
JOIN sims sa ON sa.doc_id = c.a
JOIN sims sb ON sb.doc_id = c.b
WHERE c.hamming <= 3
  AND c.band = CASE WHEN sa.b0 = sb.b0 THEN 0 WHEN sa.b1 = sb.b1 THEN 1
                    WHEN sa.b2 = sb.b2 THEN 2 ELSE 3 END
""",
        "kg_communities": f"""
WITH {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
{_LPA_CTE},
node_groups AS (
  SELECT DISTINCT subj_uuid AS nuuid, group_id FROM merged_id
  UNION
  SELECT DISTINCT obj_uuid, group_id FROM merged_id
)
SELECT md5('community|' || r.community) AS uuid,
       min(g.group_id) AS group_id,
       count(*)::BIGINT AS n_members
FROM r10 r JOIN node_groups g ON g.nuuid = r.node
GROUP BY r.community
""",
        # per-community exact-integer modularity of the CC partition over
        # the weighted symmetric multigraph (edge multiplicities both
        # orientations): q_num = 2m·S_A(c) − d_c², all divisions cleared
        "graph_modularity": f"""
WITH RECURSIVE {_BASE_CTE.lstrip()},
{_MENTIONS_CTE.lstrip()},
{_CANON_CTE.lstrip()},
{_RESOLVED_CTE.lstrip()},
ccsym AS (
  SELECT subj_uuid AS a, obj_uuid AS b FROM merged_id
  UNION
  SELECT obj_uuid, subj_uuid FROM merged_id
),
ccreach AS (
  SELECT a, b FROM ccsym
  UNION
  SELECT r.a, s.b FROM ccreach r JOIN ccsym s ON s.a = r.b
),
cclab AS (
  SELECT a AS node, least(a, min(b)) AS community FROM ccreach GROUP BY a
),
wsym AS (
  SELECT subj_uuid AS x, obj_uuid AS y FROM merged_id
  UNION ALL SELECT obj_uuid, subj_uuid FROM merged_id
),
wgt AS (SELECT x, y, count(*)::BIGINT AS w FROM wsym GROUP BY 1, 2),
mod_sa AS (
  SELECT ra.community, CAST(sum(w.w) AS BIGINT) AS s_a
  FROM wgt w
  JOIN cclab ra ON ra.node = w.x
  JOIN cclab rb ON rb.node = w.y
  WHERE ra.community = rb.community
  GROUP BY 1
),
mod_deg AS (
  SELECT r.community, count(*)::BIGINT AS n_nodes,
         CAST(sum(d.d) AS BIGINT) AS d_tot
  FROM (SELECT x, CAST(sum(w) AS BIGINT) AS d FROM wgt GROUP BY 1) d
  JOIN cclab r ON r.node = d.x
  GROUP BY 1
),
mod_tot AS (SELECT CAST(sum(w) AS BIGINT) AS two_m FROM wgt)
SELECT g.community, g.n_nodes, coalesce(s.s_a, 0)::BIGINT AS s_a, g.d_tot,
       CAST(t.two_m * coalesce(s.s_a, 0) - g.d_tot * g.d_tot AS BIGINT)
         AS q_num,
       t.two_m
FROM mod_deg g
LEFT JOIN mod_sa s USING (community)
CROSS JOIN mod_tot t
""",
        "rrf_fusion": """
WITH q AS (
  SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
  FROM embeddings ORDER BY vec_id LIMIT 2
),
scored AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6) AS cosine
  FROM embeddings e CROSS JOIN q
),
ranked AS (
  SELECT *, row_number() OVER (
      PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
  FROM scored
)
SELECT vec_id, sum(1.0 / (rank + 1)) AS rrf_score
FROM ranked WHERE rank <= 50 GROUP BY vec_id
""",
    }
