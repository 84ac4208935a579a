"""Pages source: synthesize the Common-Crawl-style input table from the
driver's ``documents`` parquet, and read it back as a Ray Dataset.

Input schema produced (BASELINE.json input_hint):
    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

The generator is a *stateless vectorized map_batches stage* over
``documents.parquet`` (doc_id,text,lang,source) — deterministic (version
pg1, see synth_spec) so goldens and the DuckDB oracle can re-derive
everything from doc_id. ``text`` carries the ground-truth extracted text;
the pipeline re-extracts from ``html`` and the invariant is byte identity.

At 100 TB scale the equivalent of this module is ``read_parquet`` over real
WARC-derived parquet; everything downstream is agnostic to which.
"""

from __future__ import annotations

import html as _html
from datetime import timedelta

import numpy as np
import pyarrow as pa

import ray.data as rd

from graphiti_ray.functions.text import clean_text
from graphiti_ray.sources.synth_spec import (
    TS0,
    fact_sentences,
    page_host,
    page_url,
)

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_HTML_TMPL = (
    "<html><head><title>Doc {doc_id} - {host}</title>"
    '<script type="text/javascript">var t={doc_id};</script></head>'
    '<body><header><h1 class="sitename">{host}</h1></header>'
    '<nav><a href="/">home</a> | <a href="/about">about</a></nav>'
    '<div id="main">{paragraphs}</div>'
    "<footer>&copy; {host} {outlinks}</footer></body></html>"
)

# Cross-host outlink arithmetic (version pg1.1): page doc_id carries
# 1 + doc_id % 3 absolute hrefs in its footer; link j (1-based) points at
# host src{(doc_id·31 + 97·j) mod 20}.example.com, path
# /doc/{(doc_id·7 + j) mod 1000}. Footer placement keeps the links OUTSIDE
# <div id="main">, so the byte-identical text-extraction invariant is
# untouched; the DuckDB oracle re-derives the link graph from doc_id.
_LINK_HOST_MOD = 20
_LINK_PATH_MOD = 1000


def outlinks(doc_id: int) -> list[str]:
    """Deterministic absolute outlink URLs for one page. Pure."""
    return [
        f"https://src{(doc_id * 31 + 97 * j) % _LINK_HOST_MOD}.example.com"
        f"/doc/{(doc_id * 7 + j) % _LINK_PATH_MOD}"
        for j in range(1, 2 + doc_id % 3)
    ]


def render_page(doc_id: int, text: str, source: str) -> tuple[str, bytes, str]:
    """(url, html_bytes, golden_text) for one document. Pure."""
    host = page_host(source)
    fact1, fact2 = fact_sentences(doc_id)
    paras = [fact1, fact2, clean_text(text).strip()]
    golden = "\n".join(paras)
    body = "".join(f"<p>{_html.escape(p, quote=False)}</p>" for p in paras)
    # pg1.2: anchor text is EMPTY so the footer's visible text is the
    # host-constant "© {host}" — per-host boilerplate detection can then
    # separate template lines (df = 100%) from content (≤ ~36%) with a
    # clean 50% threshold. Link-graph extraction reads href= only.
    links = "".join(f'<a href="{u}"></a>' for u in outlinks(doc_id))
    html_doc = _HTML_TMPL.format(
        doc_id=doc_id, host=host, paragraphs=body, outlinks=links
    )
    return page_url(source, doc_id), html_doc.encode("utf-8"), golden


_POOL_CACHE: dict = {}


def _render_pools():
    """Periodic piece pools for the batch renderer: fact1 is a pure
    function of doc_id mod 96 (lcm of its index periods), fact2 of mod
    30, the footer link block of mod 3000 — each pool entry is built by
    the SAME pure functions render_page uses, so the assembled bytes are
    identical by construction (goldens + the warc_roundtrip oracle pin
    it). Cached per process."""
    if not _POOL_CACHE:
        f1 = [fact_sentences(i)[0] for i in range(96)]
        f2 = [fact_sentences(i)[1] for i in range(30)]
        _POOL_CACHE.update(
            f1=f1,
            f2=f2,
            p1=[f"<p>{_html.escape(p, quote=False)}</p>" for p in f1],
            p2=[f"<p>{_html.escape(p, quote=False)}</p>" for p in f2],
            links=[
                "".join(f'<a href="{u}"></a>' for u in outlinks(i))
                for i in range(3000)
            ],
        )
    return _POOL_CACHE


def documents_to_pages(batch: pa.Table) -> pa.Table:
    """map_batches stage: documents batch → pages batch (Arrow in/out).
    Per-doc work is three pool lookups plus two C-speed string passes
    (translate + escape) and one template format — the periodic fact /
    link pieces are precomputed once per process (_render_pools)."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    sources = batch.column("source").to_pylist()
    langs = batch.column("lang")

    pool = _render_pools()
    f1, f2, p1, p2, links = (
        pool["f1"], pool["f2"], pool["p1"], pool["p2"], pool["links"]
    )
    esc = _html.escape
    urls, htmls, goldens = [], [], []
    for doc_id, text, source in zip(doc_ids, texts, sources):
        doc_id = int(doc_id)
        host = page_host(source)
        body_text = clean_text(text).strip()
        i96, i30, i3k = doc_id % 96, doc_id % 30, doc_id % 3000
        goldens.append(f"{f1[i96]}\n{f2[i30]}\n{body_text}")
        body = f"{p1[i96]}{p2[i30]}<p>{esc(body_text, quote=False)}</p>"
        htmls.append(
            _HTML_TMPL.format(
                doc_id=doc_id, host=host, paragraphs=body, outlinks=links[i3k]
            ).encode("utf-8")
        )
        urls.append(page_url(source, doc_id))
    # warc_ts = TS0 + (doc_id % 100_000) hours + (doc_id // 100_000) ms —
    # identical to the original ``TS0 + doc_id hours`` for every REAL
    # doc_id (< 100_000 by generator contract; the oracle SQL twin is
    # unchanged), while bench replicas (replicate_documents: replica r
    # gets doc_id d + r·100_000) shift by r MILLISECONDS instead of
    # r·100_000 hours. The old formula overflowed datetime past
    # replicate≈640 (3.2M docs), capping the scaling-input protocol;
    # this one stays in-range and collision-free to r = 3.6M replicas.
    base_us = np.datetime64(TS0, "us").astype("int64")
    ids64 = doc_ids.astype("int64")
    hour_us = int(timedelta(hours=1).total_seconds() * 1e6)
    warc_us = base_us + (ids64 % 100_000) * hour_us + (ids64 // 100_000) * 1_000
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(warc_us, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(goldens, pa.string()),
            "lang": batch.column("lang"),
        }
    )


def read_documents(
    sf_dir: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> rd.Dataset:
    kw = {"override_num_blocks": num_blocks} if num_blocks else {}
    return rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=columns or ["doc_id", "text", "lang", "source"],
        **kw,
    )


def default_num_blocks(n_docs: int, cpus: int) -> int:
    """Block count of a build over ``n_docs`` documents on ``cpus`` cpus.
    ``replicate_documents`` multiplies rows inside each block, so a count
    fixed at 2×cpus would give 100k-doc blocks at replicate=640: giant sort
    runs and object-store spill. About 25k docs per block keeps the block
    size constant as the corpus grows, and there are never fewer than two
    blocks per cpu."""
    return max(16, 2 * cpus, n_docs // 25_000)


def replicate_documents(docs: rd.Dataset, factor: int) -> rd.Dataset:
    """Deterministic ×factor corpus scale-up for benchmarking: replica r of
    doc d gets doc_id d + r·100_000 — the pg1 arithmetic then derives
    *different* facts/aliases per replica (modular), and warc_ts shifts by
    r milliseconds (pg2 wrap — see documents_to_pages; the pg1 r·100_000
    hours overflowed datetime at replicate≈640). Correctness queries never
    replicate; this is the bench path only (documents.parquet is a single
    small file, so compute must be scaled to measure scheduling, not
    constant overheads)."""
    if factor <= 1:
        return docs

    def rep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = []
        for r in range(factor):
            t = batch.set_column(
                batch.column_names.index("doc_id"),
                "doc_id",
                pc.add(batch.column("doc_id"), r * 100_000),
            )
            parts.append(t)
        return pa.concat_tables(parts)

    return docs.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


def read_pages(
    paths: str | list[str],
    columns: list[str] | None = None,
    lang_filter: str | None = None,
    num_blocks: int | None = None,
) -> rd.Dataset:
    """Read REAL Common-Crawl-style pages parquet (the production input
    path — the synthetic generator below exists only because this sandbox
    has no external data). Prunes columns at the read and pushes the lang
    filter into row-group selection."""
    import pyarrow.compute as pc

    kw: dict = {"columns": columns or ["url", "warc_ts", "html", "text", "lang"]}
    if lang_filter:
        kw["filter"] = pc.field("lang") == lang_filter
    if num_blocks:
        kw["override_num_blocks"] = num_blocks
    return rd.read_parquet(paths, **kw)


def pages_dataset(
    sf_dir: str, replicate: int = 1, num_blocks: int | None = None
) -> rd.Dataset:
    """The synthetic pages input as a streaming Dataset (no materialization)."""
    docs = read_documents(sf_dir, num_blocks=num_blocks)
    docs = replicate_documents(docs, replicate)
    return docs.map_batches(
        documents_to_pages, batch_format="pyarrow", zero_copy_batch=True
    )
