"""Unit tests: pure text functions (the byte-identical invariant surface)."""

import hashlib

import numpy as np

from graphiti_ray.functions.text import (
    clean_text,
    entity_uuid,
    extract_text_from_html,
    first_sentence,
    fulltext_query,
    l2_normalize,
    lucene_sanitize,
    normalize_name,
    sha256_hex,
)


def test_clean_text_strips_zero_width_and_control():
    s = "a​b‌c‍d⁠e﻿f"
    assert clean_text(s) == "abcdef"
    assert clean_text("x\x00y\x01z\x7f") == "xyz"
    assert clean_text("keep\nnew\rlines\tand tabs") == "keep\nnew\rlines\tand tabs"


def test_extract_basic_paragraphs():
    html = (
        b'<html><body><div id="main"><p>Hello</p><p>World</p></div></body></html>'
    )
    assert extract_text_from_html(html) == "Hello\nWorld"


def test_extract_drops_script_style_nav_footer_header():
    html = (
        b"<html><head><script>var x='<p>no</p>';</script>"
        b"<style>p{}</style></head><body>"
        b"<header><h1>Site</h1></header><nav><p>menu</p></nav>"
        b'<div id="main"><p>Real</p></div>'
        b"<footer><p>foot</p></footer></body></html>"
    )
    assert extract_text_from_html(html) == "Real"


def test_extract_unescapes_entities():
    html = b'<div id="main"><p>A &amp; B &lt;ok&gt;</p></div>'
    assert extract_text_from_html(html) == "A & B <ok>"


def test_extract_strips_inner_tags_and_whitespace():
    html = b'<div id="main"><p>  <b>Bold</b> and <i>ital</i>  </p></div>'
    assert extract_text_from_html(html) == "Bold and ital"


def test_extract_falls_back_to_body_then_doc():
    assert extract_text_from_html(b"<body><p>B</p></body>") == "B"
    assert extract_text_from_html(b"<p>Bare</p>") == "Bare"


def test_extract_handles_headings_and_lists():
    html = b'<div id="main"><h1>T</h1><p>a</p><li>x</li><h3>S</h3></div>'
    assert extract_text_from_html(html) == "T\na\nx\nS"


def test_extract_unicode_and_invalid_bytes():
    html = '<div id="main"><p>naïve café 日本</p></div>'.encode("utf-8")
    assert extract_text_from_html(html) == "naïve café 日本"
    # invalid utf-8 inside a block must not raise
    bad = b'<div id="main"><p>ok \xff\xfe</p></div>'
    out = extract_text_from_html(bad)
    assert out.startswith("ok ")


GOLDENS = [
    (
        b'<div id="main"><p>Alice Smith works at Acme Corp.</p></div>',
        "487dbd4e1cb5b26391e41684580f77467b000f404e41b00ece0015b0b7492f19",
    ),
]


def test_extract_golden_hashes():
    # pinned tx1 goldens: any drift is a version-breaking change
    for html, want in GOLDENS:
        got = sha256_hex(extract_text_from_html(html))
        assert got == want, f"extractor drift: {got}"


def test_normalize_name():
    assert normalize_name("  Alice   SMITH ") == "alice smith"
    assert normalize_name("Acme\tCorp") == "acme corp"


def test_entity_uuid_deterministic_md5():
    u = entity_uuid("g.example.com", "Alice Smith")
    assert u == hashlib.md5(b"g.example.com|alice smith").hexdigest()


def test_lucene_sanitize_and_query():
    assert lucene_sanitize("a+b") == "a\\+b"
    assert lucene_sanitize('say "hi"') == 'say \\"hi\\"'
    q = fulltext_query("alice smith", ["g1"])
    assert q == '(group_id:"g1") AND (alice smith)'
    assert fulltext_query(" ".join(["w"] * 40)) == ""


def test_l2_normalize():
    v = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = l2_normalize(v)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.allclose(out[1], [0.0, 0.0])


def test_first_sentence():
    assert first_sentence("One. Two.") == "One."
    assert first_sentence("A. Smith works.") == "A."  # pinned: first terminator
    assert first_sentence("no terminator here") == "no terminator here"
    assert first_sentence("x" * 500 + ".") == "x" * 250


def test_embed_counts_polynomial_hash_parity():
    """Pin the embedder's hash arithmetic to plain-int semantics — the
    DuckDB search oracle reimplements exactly this (hugeint mod 2^64), so
    any drift here silently breaks search_hybrid's oracle."""
    import numpy as np

    from graphiti_ray.stages.embed import EMBED_DIM, embed_counts, embed_texts

    text = "Ab c"
    s = f"^{text.lower()}$".encode()
    P, M = 1099511628211, 1 << 64
    want = np.zeros(EMBED_DIM)
    for j in range(len(s) - 2):
        h = (s[j] * P * P + s[j + 1] * P + s[j + 2]) % M
        want[h % EMBED_DIM] += 1.0 if (h >> 16) & 1 else -1.0
    got = embed_counts(text)
    assert got.tolist() == want.tolist()

    vecs = embed_texts([text, text, ""])
    assert vecs.dtype == np.float64
    # normalized, deterministic, empty-text-safe
    assert abs(np.linalg.norm(vecs[0]) - 1.0) < 1e-12
    assert (vecs[0] == vecs[1]).all()
    assert (vecs[2] == 0).all()


def test_column_to_matrix_respects_slice_offset():
    """A sliced list column (a Ray batch can be a zero-copy slice of a
    block) yields its own rows, not the first rows of the backing buffer."""
    import numpy as np
    import pyarrow as pa

    from graphiti_ray.stages.embed import column_to_matrix

    vals = np.arange(12.0)
    for col in (
        pa.FixedSizeListArray.from_arrays(pa.array(vals), 3),
        pa.ListArray.from_arrays(pa.array([0, 3, 6, 9, 12], pa.int32()), pa.array(vals)),
    ):
        got = column_to_matrix(col.slice(2, 2))
        assert got.tolist() == vals[6:].reshape(2, 3).tolist()
