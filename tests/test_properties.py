"""Property-based tests (hypothesis) for the pure kernels.

The reference ships no property tests (SURVEY §5); these pin the
engine-side kernels against brute-force reference implementations across
randomized inputs.
"""

from datetime import datetime, timedelta

import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as st

from graphiti_ray.functions.text import (
    clean_text,
    extract_text_from_html,
    l2_normalize,
    normalize_name,
)
from graphiti_ray.stages.dedup import (
    est_jaccard,
    hamming64,
    minhash_sig,
    ngram_jaccard,
    simhash64,
)
from graphiti_ray.stages.temporal import _sweep_frame, resolve_edge_contradictions
from graphiti_ray.pipelines.search import rrf

T0 = datetime(2024, 1, 1)

safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF), max_size=200
)


@given(safe_text)
@settings(max_examples=200, deadline=None)
def test_clean_text_idempotent_and_no_control(s):
    c = clean_text(s)
    assert clean_text(c) == c
    assert not any(ord(ch) < 32 and ch not in "\n\r\t" for ch in c)


@given(st.lists(st.text(alphabet="abcDEF &<>", min_size=0, max_size=30), max_size=5))
@settings(max_examples=100, deadline=None)
def test_html_roundtrip_any_paragraphs(paras):
    """escape→wrap→extract returns the cleaned, stripped paragraphs."""
    import html as _html

    body = "".join(f"<p>{_html.escape(p, quote=False)}</p>" for p in paras)
    doc = f'<html><body><div id="main">{body}</div></body></html>'.encode()
    want = "\n".join(clean_text(p).strip() for p in paras)
    assert extract_text_from_html(doc) == want


@given(st.text(alphabet=" \tAbcXyz", max_size=40))
@settings(max_examples=100, deadline=None)
def test_normalize_name_idempotent(s):
    assert normalize_name(normalize_name(s)) == normalize_name(s)


@given(
    st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_l2_normalize_unit_or_zero(rows):
    v = np.array(rows)
    out = l2_normalize(v)
    norms = np.linalg.norm(out, axis=-1)
    for i, n in enumerate(norms):
        if np.linalg.norm(v[i]) == 0:
            assert n == 0
        else:
            assert abs(n - 1.0) < 1e-9


@given(st.text(alphabet="abcdefg h", min_size=6, max_size=120))
@settings(max_examples=50, deadline=None)
def test_minhash_estimates_self_jaccard_one(t):
    sig = minhash_sig(t)
    assert est_jaccard(sig, sig) == 1.0
    assert ngram_jaccard(t, t) == 1.0


@given(
    st.text(alphabet="abcde fgh", min_size=20, max_size=120),
    st.text(alphabet="abcde fgh", min_size=20, max_size=120),
)
@settings(max_examples=50, deadline=None)
def test_minhash_estimate_tracks_exact_jaccard(a, b):
    exact = ngram_jaccard(a, b)
    est = est_jaccard(minhash_sig(a), minhash_sig(b))
    # 64 permutations → standard error ≈ sqrt(j(1-j)/64) ≤ 0.0625; 5σ bound
    assert abs(est - exact) <= 0.32


@given(st.text(alphabet="abc def", max_size=80))
@settings(max_examples=50, deadline=None)
def test_simhash_self_distance_zero(t):
    assert hamming64(simhash64(t), simhash64(t)) == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.sampled_from(["LIKES", "DISLIKES"])),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_bruteforce_kernel(entries):
    """The dataset sweep equals applying the reference kernel pairwise in
    event-time order (the sequential semantics, T4)."""
    rows = [
        (f"e{i}", pred, "obj", T0 + timedelta(days=day))
        for i, (day, pred) in enumerate(entries)
    ]
    df = pd.DataFrame(rows, columns=["uuid", "pred", "obj_uuid", "valid_at"])
    df["inval_mode"] = "pair"
    swept = _sweep_frame(df.copy(), T0).set_index("uuid")

    # brute force: process in (valid_at, uuid) order; each new edge
    # invalidates older, not-yet-invalid contradicting edges
    now = T0
    ordered = sorted(rows, key=lambda r: (r[3], r[0]))
    state: list[dict] = []
    for uuid, pred, obj, ts in ordered:
        new = {"uuid": uuid, "pred": pred, "valid_at": ts, "invalid_at": None}
        cands = [e for e in state if e["pred"] != pred]
        resolve_edge_contradictions(new, cands, now)
        state.append(new)
    for e in state:
        got = swept.loc[e["uuid"], "invalid_at"]
        want = e["invalid_at"]
        if want is None:
            assert pd.isna(got)
        else:
            assert got == want


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), unique=True, max_size=6),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_rrf_scores_monotone(lists):
    """Every fused item keeps a score consistent with Σ 1/(rank+k), and the
    output is exactly the union of inputs."""
    out = rrf([list(l) for l in lists])
    union = set().union(*[set(l) for l in lists]) if lists else set()
    assert set(out) == union

    def score(u):
        return sum(1.0 / (l.index(u) + 1) for l in lists if u in l)

    scores = [score(u) for u in out]
    assert all(scores[i] >= scores[i + 1] - 1e-12 for i in range(len(scores) - 1))


@given(st.text(alphabet="abcdef gh", min_size=0, max_size=200))
def test_winnow_matches_naive_reference(t):
    """Vectorized winnowing == the naive per-window loop."""
    import numpy as np

    from graphiti_ray.stages.dedup import shingle_hash_seq
    from graphiti_ray.stages.textstats import (
        WINNOW_K,
        WINNOW_W,
        winnow_fingerprint,
    )

    hashes = shingle_hash_seq(t, WINNOW_K)
    if len(hashes) <= WINNOW_W:
        expected = [int(hashes.min())]
    else:
        expected, last = [], None
        for i in range(len(hashes) - WINNOW_W + 1):
            m = int(hashes[i : i + WINNOW_W].min())
            if m != last:
                expected.append(m)
                last = m
    assert winnow_fingerprint(t) == expected


@given(st.text(alphabet="abc def\n", max_size=1600))
@settings(max_examples=30, deadline=None)
def test_chunk_grid_reconstructs_document(t):
    """Dropping each chunk's leading overlap and concatenating must
    reproduce the document byte-for-byte; every chunk is ≤ size chars
    and starts on the arithmetic grid."""
    from graphiti_ray.stages.textstats import (
        CHUNK_OVERLAP,
        CHUNK_SIZE,
        chunk_text_windows,
    )

    chunks = chunk_text_windows(t)
    rebuilt = chunks[0] + "".join(c[CHUNK_OVERLAP:] for c in chunks[1:])
    assert rebuilt == t or (t == "" and rebuilt == "")
    assert all(len(c) <= CHUNK_SIZE for c in chunks)
    # no chunk after the first is pure overlap (a subset of its
    # predecessor): every tail is strictly longer than the overlap
    assert all(len(c) > CHUNK_OVERLAP for c in chunks[1:])
