"""Pure text functions (stateless, deterministic, versioned).

Parity targets in the reference (cited file:line are into /root/reference):
- ``clean_text``  ← ``_clean_input`` (graphiti_core/llm_client/client.py:68-88)
- ``extract_text_from_html`` ← the HTML→text step graphiti delegates to the
  caller (episodes arrive as text); here it is a first-class pinned function
  because the input is Common-Crawl-style pages and the per-row invariant is
  *byte-identical extracted text per url* (BASELINE.json input_hint).
- ``normalize_name`` ← exact-name dedup key (utils/bulk_utils.py:278-288).
- ``lucene_sanitize`` ← graphiti_core/helpers.py:45-79.
- ``l2_normalize`` ← graphiti_core/helpers.py:82-85.

All functions are pure; any behavior change must bump TEXT_EXTRACT_VERSION.
"""

from __future__ import annotations

import hashlib
import html as _html
import re

import numpy as np

# --- cleaning (M7) ---------------------------------------------------------

_ZERO_WIDTH = "\u200b\u200c\u200d\u2060\ufeff"
# control chars 0x00-0x1f / 0x7f except \n \r \t, plus zero-width chars
_DELETE_TABLE = {
    c: None
    for c in list(range(0x00, 0x20)) + [0x7F]
    if chr(c) not in ("\n", "\r", "\t")
}
_DELETE_TABLE.update({ord(c): None for c in _ZERO_WIDTH})


def clean_text(s: str) -> str:
    """Strip zero-width and control characters (except ``\\n\\r\\t``).

    Mirrors the reference's input sanitation semantics
    (llm_client/client.py:68-88): remove zero-width/control chars that break
    downstream tokenization; keep whitespace structure.
    """
    return s.translate(_DELETE_TABLE)


# --- HTML → text (the pinned per-row invariant) ----------------------------

# Extraction spec "tx1":
#   1. take the <div id="main"> ... </div> region if present, else <body>,
#      else the whole document;
#   2. drop <script>/<style>/<nav>/<footer>/<header> blocks;
#   3. collect the inner text of each <p>/<h1>/<h2>/<h3>/<li> block, in document
#      order; strip tags inside the block;
#   4. HTML-unescape, clean_text, strip outer whitespace per block;
#   5. join blocks with "\n".
_MAIN_RE = re.compile(rb'<div id="main">(.*?)</div>', re.S)
_BODY_RE = re.compile(rb"<body[^>]*>(.*?)</body>", re.S)
_DROP_RE = re.compile(
    rb"<(script|style|nav|footer|header)\b[^>]*>.*?</\1>", re.S | re.I
)
_BLOCK_RE = re.compile(rb"<(p|h1|h2|h3|li)\b[^>]*>(.*?)</\1>", re.S | re.I)
_TAG_RE = re.compile(rb"<[^>]+>")


def extract_text_from_html(html_bytes: bytes) -> str:
    """Deterministic HTML→text: byte-identical output per input (version tx1).

    This is the invariant surface of the whole pipeline: the golden test pins
    SHA-256 of the output per url. Pure function of the bytes; no I/O.
    """
    m = _MAIN_RE.search(html_bytes)
    if m is None:
        m = _BODY_RE.search(html_bytes)
    region = m.group(1) if m is not None else html_bytes
    region = _DROP_RE.sub(b"", region)
    blocks = []
    for bm in _BLOCK_RE.finditer(region):
        inner = _TAG_RE.sub(b"", bm.group(2))
        text = _html.unescape(inner.decode("utf-8", errors="replace"))
        blocks.append(clean_text(text).strip())
    return "\n".join(blocks)


def sha256_hex(s: str | bytes) -> str:
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.sha256(s).hexdigest()


def md5_hex(s: str | bytes) -> str:
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.md5(s).hexdigest()


# --- names / ids -----------------------------------------------------------

_WS_RE = re.compile(r"\s+")


def normalize_name(name: str) -> str:
    """Dedup key for exact-name entity matching (bulk_utils.py:278-288)."""
    return _WS_RE.sub(" ", name.strip()).lower()


def entity_uuid(group_id: str, canonical_name: str) -> str:
    """Deterministic entity id: stable across runs/partitions (md5 so the
    DuckDB oracle can recompute it)."""
    return md5_hex(f"{group_id}|{normalize_name(canonical_name)}")


def edge_uuid(group_id: str, src_uuid: str, predicate: str, tgt_uuid: str) -> str:
    """Deterministic edge id for a merged (group, subj, pred, obj) fact."""
    return md5_hex(f"{group_id}|{src_uuid}|{predicate}|{tgt_uuid}")


# --- search-layer helpers --------------------------------------------------

_LUCENE_SPECIAL = re.compile(r'([+\-!(){}\[\]^"~*?:\\/]|&&|\|\|)')
MAX_QUERY_LENGTH = 32  # words; helpers.py:47


def lucene_sanitize(query: str) -> str:
    """Escape Lucene special characters (helpers.py:45-79)."""
    return _LUCENE_SPECIAL.sub(r"\\\1", query)


def fulltext_query(query: str, group_ids: list[str] | None = None) -> str:
    """Compose a group-filtered fulltext query; empty if too long
    (search_utils.py:59-76)."""
    sanitized = lucene_sanitize(query)
    if len(sanitized.split(" ")) + len(group_ids or []) >= MAX_QUERY_LENGTH:
        return ""
    if group_ids:
        scope = " OR ".join(f'group_id:"{lucene_sanitize(g)}"' for g in group_ids)
        return f"({scope}) AND ({sanitized})"
    return sanitized


def l2_normalize(vecs: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization (helpers.py:82-85), vectorized."""
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return vecs / norms


def first_sentence(text: str, max_chars: int = 250) -> str:
    """Deterministic extractive 'summary' (stand-in for the reference's LLM
    episode summary, graphiti.py:426-454): first sentence, capped."""
    for i, ch in enumerate(text):
        if ch in ".!?\n":
            return text[: i + 1][:max_chars]
    return text[:max_chars]
