"""Text analysis + similarity operators."""

import numpy as np

import ray.data as rd

from graphiti_ray.stages.similarity import knn_brute_force, knn_lsh
from graphiti_ray.stages.textstats import (
    duplicate_lines,
    language_id,
    fingerprints,
    quality_counts,
    repetition_stats,
    token_stats,
    winnow_fingerprint,
)


def _docs(texts):
    return rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])


def test_token_stats(ray_session):
    out = token_stats(_docs(["a b  c", "hello, world! 42"])).to_pandas()
    assert out.n_ws_tokens.tolist() == [3, 3]
    # hello , world ! 42 → 5 regex tokens
    assert out.n_tokens.tolist() == [3, 5]


def test_quality_counts(ray_session):
    out = quality_counts(_docs(["The cat, the DOG!"])).to_pandas().iloc[0]
    assert out.n_words == 4
    assert out.n_stopwords == 2  # 'The' + 'the'
    assert out.n_punct == 2
    assert out.n_upper == 4  # T, D, O, G


def test_language_id(ray_session):
    out = language_id(
        _docs(
            [
                "the cat is on the mat and it is warm",
                "der hund ist mit der katze auf dem sofa und die sonne",
                "le chat est dans la maison avec les enfants et le chien",
                "zzz qqq xxx",
            ]
        )
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.lang_pred.tolist()[:3] == ["en", "de", "fr"]
    assert out.lang_pred.tolist()[3] == "und"


def test_repetition_stats(ray_session):
    out = repetition_stats(
        _docs(
            [
                "a b\nc d\na b\ne",          # 'a b' line twice
                "x y x y x y",               # 'x y' / 'y x' 2-grams
                "unique line",
            ]
        )
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    r0 = out.iloc[0]
    assert r0.n_lines == 4
    assert r0.n_dup_lines == 2          # both occurrences of 'a b'
    assert r0.n_dup_line_chars == 6     # 2 * len('a b')
    r1 = out.iloc[1]
    assert r1.top_2gram_count == 3      # 'x y' appears 3 times
    assert r1.n_2grams == 5
    r2 = out.iloc[2]
    assert r2.n_dup_lines == 0 and r2.top_2gram_count == 1


def test_duplicate_lines(ray_session):
    out = duplicate_lines(
        _docs(
            [
                "shared boilerplate\nbody one",
                "shared boilerplate\nbody two",
                "unrelated",
                "shared boilerplate\nshared boilerplate\nbody three",
            ]
        )
    ).to_pandas()
    # only the boilerplate line is cross-doc; in-doc repetition (doc 3)
    # counts once per doc
    assert len(out) == 1
    assert out.iloc[0].n_docs == 3
    assert out.iloc[0].keep_doc == 0


def test_winnow_fingerprint_properties():
    fp1 = winnow_fingerprint("the quick brown fox jumps over the lazy dog")
    fp2 = winnow_fingerprint("the quick brown fox jumps over the lazy dog")
    assert fp1 == fp2 and len(fp1) > 0
    # containment: a doc embedded in a larger doc shares most fingerprints
    small = "some very specific phrase appears here"
    big = "prefix words then " + small + " and suffix content follows"
    f_small, f_big = set(winnow_fingerprint(small)), set(winnow_fingerprint(big))
    assert len(f_small & f_big) / len(f_small) > 0.5


def test_fingerprints_stage(ray_session):
    out = fingerprints(_docs(["abcdefghij", "abcdefghij"])).to_pandas()
    assert list(out.fp[0]) == list(out.fp[1])


def _emb_ds(n=50, dim=8, seed=3):
    rng = np.random.RandomState(seed)
    return rd.from_items(
        [
            {"vec_id": i, "embedding": list(map(float, rng.randn(dim)))}
            for i in range(n)
        ]
    )


def test_knn_brute_force_matches_numpy(ray_session):
    ds = _emb_ds()
    out = knn_brute_force(ds, n_queries=3, k=5).to_pandas()
    # reference computation
    df = ds.to_pandas()
    mat = np.stack(df.embedding.map(np.array))
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = np.round(mat @ mat[:3].T, 6)
    for q in range(3):
        order = np.lexsort((df.vec_id.to_numpy(), -sims[:, q]))[:5]
        want = [int(df.vec_id.iloc[i]) for i in order]
        got = out[out.query_id == q].sort_values("rank").vec_id.tolist()
        assert got == want
    # self always rank 1 with cosine 1.0
    self_rows = out[(out.query_id == out.vec_id)]
    assert (self_rows["rank"] == 1).all()


def test_knn_lsh_subset_quality(ray_session):
    ds = _emb_ds(n=100)
    out = knn_lsh(ds, n_queries=5, k=5).to_pandas()
    # self-match must survive bucketing (query is in its own bucket)
    for q in out.query_id.unique():
        sub = out[out.query_id == q]
        assert int(sub[sub["rank"] == 1].vec_id.iloc[0]) == q


def test_knn_ivf_recall_and_exact_at_full_probe(ray_session):
    """IVF ANN: nprobe=n_clusters degenerates to exact brute force; a
    partial probe keeps high recall on clustered data."""
    import pandas as pd
    import ray.data as rd

    from graphiti_ray.stages.similarity import knn_brute_force, knn_ivf

    emb = rd.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = knn_brute_force(emb, n_queries=8, k=5).to_pandas()
    full = knn_ivf(emb, n_queries=8, k=5, n_clusters=8, nprobe=8).to_pandas()
    key = ["query_id", "vec_id", "cosine", "rank"]
    pd.testing.assert_frame_equal(
        exact[key].sort_values(key).reset_index(drop=True),
        full[key].sort_values(key).reset_index(drop=True),
    )
    # partial probe: recall of exact top-5 should stay high (labels cluster)
    part = knn_ivf(emb, n_queries=8, k=5, n_clusters=8, nprobe=4).to_pandas()
    hits = len(
        set(zip(part.query_id, part.vec_id)) & set(zip(exact.query_id, exact.vec_id))
    )
    assert hits / len(exact) >= 0.7


def test_kmeans_assign_matches_sequential_lloyds(ray_session):
    """Distributed k-means (combiner → keyed reduce per round) must equal
    a single-process Lloyd's on the same integer lattice, including
    argmin tie-break to lowest cid and empty-cluster drop."""
    import numpy as np
    import ray.data as rd

    from graphiti_ray.stages.similarity import KMEANS_QUANT, kmeans_assign

    rng = np.random.default_rng(7)
    n, dim, k, iters = 120, 6, 5, 4
    x = rng.normal(size=(n, dim)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": x[i].tolist()} for i in range(n)]
    ).repartition(7)
    out = (
        kmeans_assign(ds, k=k, n_iters=iters)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    # sequential twin
    xq = np.floor(x.astype(np.float64) * KMEANS_QUANT).astype(np.int64)
    cents = xq[np.argsort(np.arange(n))[:k]].copy()
    cids = np.arange(k, dtype=np.int64)
    for _ in range(iters - 1):
        d2 = ((xq[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        sums = np.zeros((len(cids), dim), np.int64)
        np.add.at(sums, a, xq)
        counts = np.bincount(a, minlength=len(cids))
        keep = counts > 0
        cents = np.floor(sums[keep] / counts[keep][:, None]).astype(np.int64)
        cids = cids[keep]
    d2 = ((xq[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = d2.argmin(axis=1)
    assert out.cluster.to_numpy().tolist() == cids[a].tolist()
    assert out.dist.to_numpy().tolist() == d2[np.arange(n), a].tolist()
    # every surviving cluster is non-trivial on this fixture
    assert out.cluster.nunique() >= 2


def test_semantic_dedup_matches_bruteforce_dominance(ray_session):
    """SemDeDup: within-cluster exact-integer cosine dominance must match
    a single-process twin — planted near-duplicate pairs are dropped
    (higher id loses), singletons keep."""
    import numpy as np
    import ray.data as rd

    from graphiti_ray.stages.similarity import (
        KMEANS_QUANT,
        kmeans_assign,
        semantic_dedup,
    )

    rng = np.random.default_rng(11)
    n, dim = 90, 8
    x = rng.normal(size=(n, dim))
    # plant near-dup pairs: vectors 2i+1 ~= 2i for the first 20 ids
    for i in range(10):
        x[2 * i + 1] = x[2 * i] + rng.normal(scale=0.01, size=dim)
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": x[i].tolist()} for i in range(n)]
    ).repartition(5)
    k, iters, tn, td = 4, 3, 19, 20
    out = (
        semantic_dedup(ds, k=k, n_iters=iters, t_num=tn, t_den=td)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    asn = (
        kmeans_assign(ds, k=k, n_iters=iters)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert out.cluster.tolist() == asn.cluster.tolist()

    xq = np.floor(x.astype(np.float64) * KMEANS_QUANT).astype(np.int64)
    g = xq @ xq.T
    nn = np.diagonal(g)
    same = asn.cluster.to_numpy()[:, None] == asn.cluster.to_numpy()[None, :]
    cond = same & (g > 0) & (td * td * g * g >= tn * tn * np.outer(nn, nn))
    np.fill_diagonal(cond, False)
    ids = np.arange(n)
    assert out.n_dups.tolist() == cond.sum(axis=1).tolist()
    expect_keep = ~(cond & (ids[None, :] < ids[:, None])).any(axis=1)
    assert out.keep.tolist() == expect_keep.tolist()
    # the planted twins straddle: at least some drops happened
    assert (~out.keep).sum() >= 5


def test_chunk_documents_grid_and_overlap(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.textstats import chunk_documents

    text = "abcdefghij" * 60  # 600 chars → starts 0, 448 with size 512
    ds = rd_.from_items([{"doc_id": 1, "text": text}, {"doc_id": 2, "text": ""}])
    out = chunk_documents(ds).to_pandas().sort_values(["doc_id", "chunk_idx"])
    d1 = out[out.doc_id == 1]
    assert list(d1.chunk_idx) == [0, 1]
    assert d1.iloc[0].chunk_text == text[:512]
    assert d1.iloc[1].chunk_text == text[448:600]
    # consecutive chunks share exactly the overlap
    assert d1.iloc[0].chunk_text[448:] == d1.iloc[1].chunk_text[:64]
    # empty doc still yields its one empty chunk
    d2 = out[out.doc_id == 2]
    assert len(d2) == 1 and d2.iloc[0].chunk_text == ""
    # a doc of exactly one window emits ONE chunk — the pure-overlap tail
    # (grid start 448 on a 512-char doc) is never duplicated
    from graphiti_ray.stages.textstats import chunk_text_windows

    assert chunk_text_windows("x" * 512) == ["x" * 512]
    assert len(chunk_text_windows("x" * 513)) == 2


def test_decontaminate_flags_overlap_only(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.dedup import decontaminate

    bench = "the secret benchmark passage nobody should train on"
    docs = rd_.from_items(
        [
            {"doc_id": 0, "text": "totally clean training text about gardens"},
            {"doc_id": 1, "text": "prefix " + bench + " suffix"},  # contains it
            {"doc_id": 2, "text": "another unrelated document entirely"},
        ]
    )
    out = decontaminate(docs, [bench]).to_pandas().set_index("doc_id")
    assert out.loc[1].contaminated == 1 and out.loc[1].n_shared_grams > 30
    assert out.loc[0].contaminated == 0 and out.loc[2].contaminated == 0


def test_redact_pii_sequential_counts(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.textstats import redact_pii

    ds = rd_.from_items(
        [
            {
                "doc_id": 0,
                "text": "mail a.b@x.io and c@d.org, ip 10.0.0.1, call +12345678",
            },
            {"doc_id": 1, "text": "nothing sensitive here"},
        ]
    )
    out = redact_pii(ds).to_pandas().set_index("doc_id")
    r = out.loc[0]
    assert r.n_emails == 2 and r.n_ips == 1 and r.n_phones == 1
    assert "<EMAIL>" in r.clean_text and "<IP>" in r.clean_text
    assert "@" not in r.clean_text and "+1234" not in r.clean_text
    assert out.loc[1].clean_text == "nothing sensitive here"


def test_tfidf_keywords(ray_session):
    """Rank ordering, tie-breaks, and the distributed df against a direct
    computation on a corpus small enough to verify by hand."""
    import math

    import ray.data as rd_

    from graphiti_ray.stages.textstats import tfidf_keywords

    rows = [
        {"doc_id": 0, "text": "apple apple banana cherry"},
        {"doc_id": 1, "text": "banana cherry cherry date"},
        {"doc_id": 2, "text": "apple elderberry elderberry elderberry date"},
    ]
    out = tfidf_keywords(rd_.from_items(rows), top_k=2).to_pandas()
    # doc 2: elderberry tf=3 df=1 → 3*ln(3); apple/date tf=1 df=2 → ln(1.5)
    d2 = out[out.doc_id == 2].sort_values("rank")
    assert list(d2["term"]) == ["elderberry", "apple"]  # apple < date tie-break
    assert abs(d2.iloc[0]["score"] - round(3 * math.log(3), 6)) < 1e-9
    # every doc emits exactly min(top_k, n_distinct_terms) rows
    assert out.groupby("doc_id").size().tolist() == [2, 2, 2]
    assert set(out["rank"]) == {1, 2}


def test_bigram_lm_scores_matches_sequential(ray_session):
    """Corpus-trained Laplace bigram LM: distributed run-length counting +
    int-lattice log-prob sums must equal a single-process model; docs with
    fewer than two tokens emit nothing."""
    import numpy as np
    import ray.data as rd
    import re as _re
    from collections import Counter

    from graphiti_ray.stages.textstats import bigram_lm_scores

    texts = [
        "the cat sat on the mat",
        "the cat sat",
        "a dog barked at the cat",
        "the the the the",
        "single",
        "",
        "punctuation, and words! mix 42 here",
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(4)
    out = (
        bigram_lm_scores(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    toks = [_re.findall(r"\w+", t.lower()) for t in texts]
    vocab = len({w for tk in toks for w in tk})
    bis = [(w1, w2) for tk in toks for w1, w2 in zip(tk, tk[1:])]
    c2 = Counter(bis)
    c1 = Counter(w1 for w1, _ in bis)
    expect = {}
    for i, tk in enumerate(toks):
        pairs = list(zip(tk, tk[1:]))
        if not pairs:
            continue
        lp6 = [
            int(np.rint(np.log((c2[p] + 1) / (c1[p[0]] + vocab)) * 1e6))
            for p in pairs
        ]
        s, n = sum(lp6), len(lp6)
        q = (2 * abs(s) + n) // (2 * n)
        expect[i] = (n, s, (-q if s < 0 else q) / 1e6)

    assert out.doc_id.tolist() == sorted(expect)
    for _, row in out.iterrows():
        n, s, avg = expect[row.doc_id]
        assert (row.n_bigrams, row.sum_lp6) == (n, s)
        assert row.avg_logp == avg


def test_dsir_importance_weights_direction_and_exactness(ray_session):
    """DSIR: target-vocab docs must score positive, off-target negative;
    values must equal a single-process twin exactly."""
    import numpy as np
    import re as _re
    from collections import Counter

    import ray.data as rd

    from graphiti_ray.stages.textstats import dsir_importance_weights

    docs = [
        (0, "alpha beta gamma alpha beta", "tgt"),
        (1, "alpha gamma gamma beta alpha beta", "tgt"),
        (2, "delta epsilon zeta delta", "raw"),
        (3, "epsilon zeta zeta delta epsilon", "raw"),
        (4, "alpha delta", "raw"),  # mixed
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t, "lang": l} for i, t, l in docs]
    ).repartition(3)
    out = (
        dsir_importance_weights(ds, target_col="lang", target_value="tgt")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    toks = {i: _re.findall(r"\w+", t.lower()) for i, t, _ in docs}
    occ = [(w, l == "tgt") for i, t, l in docs for w in toks[i]]
    v = len({w for w, _ in occ})
    nr = len(occ)
    nt = sum(1 for _, f in occ if f)
    cr = Counter(w for w, _ in occ)
    ct = Counter(w for w, f in occ if f)
    for i, t, _ in docs:
        w6 = [
            int(
                np.rint(
                    (
                        np.log((ct[w] + 1) / (nt + v))
                        - np.log((cr[w] + 1) / (nr + v))
                    )
                    * 1e6
                )
            )
            for w in toks[i]
        ]
        s, n = sum(w6), len(w6)
        q = (2 * abs(s) + n) // (2 * n)
        row = out[out.doc_id == i].iloc[0]
        assert (row.n_tokens, row.sum_liw6) == (n, s)
        assert row.avg_liw == (-q if s < 0 else q) / 1e6
    # direction: pure-target docs positive, pure-raw negative
    assert (out[out.doc_id.isin([0, 1])].avg_liw > 0).all()
    assert (out[out.doc_id.isin([2, 3])].avg_liw < 0).all()


def test_pmi_collocations_matches_sequential(ray_session):
    """PMI top-k: the distributed type-table pipeline must match a
    single-process count over a corpus with planted collocations."""
    import numpy as np
    import re as _re
    from collections import Counter

    import ray.data as rd

    from graphiti_ray.stages.textstats import pmi_collocations

    base = "filler words appear here and there sometimes randomly placed"
    texts = [f"{base} new york city" for _ in range(6)] + [
        f"{base} machine learning model" for _ in range(6)
    ] + ["york new", "learning machine"]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(4)
    out = pmi_collocations(ds, top_k=10, min_count=5)

    pairs = Counter()
    for t in texts:
        tk = _re.findall(r"\w+", t.lower())
        pairs.update(zip(tk, tk[1:]))
    n = sum(pairs.values())
    left = Counter()
    right = Counter()
    for (a, b), c in pairs.items():
        left[a] += c
        right[b] += c
    scored = [
        (int(np.rint(np.log(c * n / (left[a] * right[b])) * 1e6)), a, b, c)
        for (a, b), c in pairs.items()
        if c >= 5
    ]
    scored.sort(key=lambda r: (-r[0], r[1], r[2]))
    expect = scored[:10]
    assert len(out) == len(expect)
    for i, (pmi6, a, b, c) in enumerate(expect):
        row = out.iloc[i]
        assert (row.w1, row.w2, row.n_pair) == (a, b, c)
        assert row.pmi == pmi6 / 1e6
        assert row["rank"] == i + 1
    # the planted collocations rank above the filler bigrams
    top_pairs = set(zip(out.w1[:4], out.w2[:4]))
    assert {("new", "york"), ("york", "city"), ("machine", "learning"),
            ("learning", "model")} & top_pairs


def test_fixed_histogram_exact_and_clamped(ray_session):
    from graphiti_ray.stages.textstats import fixed_histogram

    rows = [
        {"g": "a", "v": -5},   # underflow → bin -1
        {"g": "a", "v": 0},    # bin 0
        {"g": "a", "v": 9},    # bin 0
        {"g": "a", "v": 10},   # bin 1
        {"g": "b", "v": 99},   # bin 9
        {"g": "b", "v": 100},  # overflow → bin 10
        {"g": "b", "v": 250},  # overflow → bin 10
    ]
    out = (
        fixed_histogram(
            rd.from_items(rows).repartition(3), "v", lo=0, hi=100, n_bins=10, by="g"
        )
        .to_pandas()
        .sort_values(["g", "bin"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, out.itertuples(index=False))) == [
        ("a", -1, 1), ("a", 0, 2), ("a", 1, 1), ("b", 9, 1), ("b", 10, 2),
    ]
    # ungrouped variant: totals match, counts sum to n
    flat = fixed_histogram(rd.from_items(rows), "v", 0, 100, 10).to_pandas()
    assert flat.n.sum() == len(rows)


def test_top_tokens_by_group_matches_counter(ray_session):
    from collections import Counter

    from graphiti_ray.stages.textstats import top_tokens_by_group

    rows = [
        {"lang": "en", "text": "a a a b b c d"},
        {"lang": "en", "text": "b c c e"},
        {"lang": "fr", "text": "x y x"},
    ]
    out = (
        top_tokens_by_group(rd.from_items(rows).repartition(2), k=2)
        .to_pandas()
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )
    # en: a=3, b=3 (tie → token asc), fr: x=2, y=1
    assert list(map(tuple, out.itertuples(index=False))) == [
        ("en", "a", 3, 1), ("en", "b", 3, 2), ("fr", "x", 2, 1), ("fr", "y", 1, 2),
    ]
    c = Counter("a a a b b c d".split()) + Counter("b c c e".split())
    assert out[out.lang == "en"].n.tolist() == [c["a"], c["b"]]


def test_mutual_knn_matches_numpy_reference(ray_session):
    from graphiti_ray.stages.similarity import mutual_knn

    rng = np.random.default_rng(2)
    vecs = rng.normal(0, 1, (60, 16))
    rows = [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
    out = mutual_knn(rd.from_items(rows).repartition(4), k=3).to_pandas()
    got = set(zip(out.a, out.b))

    # reference: round-6 cosine, top-3 with self excluded, mutual only
    x = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = np.round(x @ x.T, 6)
    np.fill_diagonal(sims, -np.inf)
    tops = []
    for i in range(len(vecs)):
        order = np.lexsort((np.arange(len(vecs)), -sims[i]))[:3]
        tops.append(set(order.tolist()))
    want = {
        (i, j)
        for i in range(len(vecs))
        for j in tops[i]
        if i < j and i in tops[j]
    }
    assert got == want and len(want) > 0


def test_token_entropy_extremes(ray_session):
    from graphiti_ray.stages.textstats import token_entropy

    rows = [
        {"doc_id": 0, "text": "a a a a a a a a"},          # zero entropy
        {"doc_id": 1, "text": "a b c d e f g h"},          # max entropy ln(8)
        {"doc_id": 2, "text": ""},                          # empty
    ]
    out = token_entropy(rd.from_items(rows)).to_pandas().sort_values("doc_id")
    h = out.hn_e6.to_numpy() / (np.maximum(out.n_tokens.to_numpy(), 1) * 1e6)
    assert h[0] == 0.0
    assert abs(h[1] - np.log(8)) < 1e-5
    assert out.n_tokens.tolist() == [8, 8, 0] and h[2] == 0.0
    # mixed doc sits strictly between
    mid = token_entropy(
        rd.from_items([{"doc_id": 0, "text": "a a a a b b c d"}])
    ).to_pandas()
    hm = mid.hn_e6[0] / (8 * 1e6)
    assert 0.0 < hm < np.log(8)


def test_docs_split_is_stable_partition():
    """Every doc lands in exactly one split, ratios near 80/10/10, and
    membership is independent of corpus size (adding docs never moves
    an existing one)."""
    import hashlib

    def split_of(i):
        h = hashlib.md5(str(i).encode()).hexdigest()[:8]
        return "train" if h < "cc000000" else ("val" if h < "e6000000" else "test")

    small = {i: split_of(i) for i in range(1000)}
    big = {i: split_of(i) for i in range(5000)}
    assert all(big[i] == s for i, s in small.items())
    from collections import Counter

    c = Counter(big.values())
    assert 0.75 < c["train"] / 5000 < 0.85
    assert 0.07 < c["val"] / 5000 < 0.13
    assert 0.07 < c["test"] / 5000 < 0.13


def test_bpe_pair_stats_matches_counter(ray_session):
    from collections import Counter

    from graphiti_ray.stages.textstats import bpe_pair_stats

    texts = [
        "the theme of the thesis",
        "Banana bandana!  ban_ana2 x",
        "",
        "a",                       # single-char token: no pairs
        "aa aa bb aa",
    ]
    out = (
        bpe_pair_stats(rd.from_items([{"text": t} for t in texts]), top_n=10)
        .to_pandas()
    )
    # brute-force reference: every intra-token adjacent char pair
    import re

    ref = Counter()
    for t in texts:
        for tok in re.findall(r"\w+", t.lower(), re.ASCII):
            for i in range(len(tok) - 1):
                ref[tok[i : i + 2]] += 1
    expect = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(out.pair, out.n)) == expect
    # top-1 sanity: "aa" (from "aa aa aa" + banana runs) dominates
    assert out.n.iloc[0] == ref.most_common(1)[0][1]


def test_pq_degenerate_equals_exact_bruteforce(ray_session):
    """Full-fidelity gate: with m=1, k >= n vectors and n_iters=1 every
    vector is its own codeword, so ADC == exact integer squared-L2 and
    the PQ top-k must equal a numpy brute-force on the same lattice."""
    import ray.data as rd

    from graphiti_ray.stages.similarity import KMEANS_QUANT, knn_pq

    ds = _emb_ds(n=24, dim=8)
    df = ds.to_pandas().sort_values("vec_id")
    out = knn_pq(ds, n_queries=4, k_top=6, m=1, k=24, n_iters=1).to_pandas()
    x = np.floor(np.stack(df.embedding.map(np.array)) * KMEANS_QUANT).astype(
        np.int64
    )
    ids = df.vec_id.to_numpy()
    for q in range(4):
        d2 = ((x - x[q][None, :]) ** 2).sum(axis=1)
        order = np.lexsort((ids, d2))[:6]
        want_ids = [int(ids[i]) for i in order]
        want_d2 = [int(d2[i]) for i in order]
        got = out[out.query_id == q].sort_values("rank")
        assert got.vec_id.tolist() == want_ids
        assert got.adc.tolist() == want_d2
        # self is always rank 1 at distance 0
        assert got.iloc[0].vec_id == q and got.iloc[0].adc == 0


def test_pq_encode_partition_invariant(ray_session):
    """Codes and quantization errors must not depend on block layout:
    training partials reduce through a keyed aggregate and the codebooks
    broadcast, so any repartitioning yields identical output."""
    import pandas as pd
    import ray.data as rd

    from graphiti_ray.stages.similarity import pq_encode

    ds = _emb_ds(n=40, dim=12)
    a = pq_encode(ds, m=3, k=4, n_iters=3).to_pandas()
    b = pq_encode(ds.repartition(7), m=3, k=4, n_iters=3).to_pandas()
    key = ["vec_id", "sub"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    # every vector gets exactly m codes, codes are in-range
    assert len(a) == 40 * 3
    assert set(a["sub"].unique()) == {0, 1, 2}
    assert a["code"].between(0, 3).all()


def test_pq_adc_bounds_true_distance(ray_session):
    """ADC approximates true distance with bounded bias on clustered
    data: the top-1 non-self ADC neighbour should be a genuinely close
    vector (recall vs exact top-5 well above chance)."""
    import ray.data as rd

    from graphiti_ray.stages.similarity import KMEANS_QUANT, knn_pq

    rng = np.random.RandomState(7)
    # 4 tight clusters of 12 in dim 16
    centers = rng.randn(4, 16) * 5
    rows = []
    i = 0
    for c in range(4):
        for _ in range(12):
            rows.append(
                {
                    "vec_id": i,
                    "embedding": list(map(float, centers[c] + rng.randn(16) * 0.1)),
                }
            )
            i += 1
    ds = rd.from_items(rows)
    out = knn_pq(ds, n_queries=8, k_top=5, m=4, k=8, n_iters=3).to_pandas()
    df = sorted(rows, key=lambda r: r["vec_id"])
    x = np.floor(
        np.stack([np.asarray(r["embedding"]) for r in df]) * KMEANS_QUANT
    ).astype(np.int64)
    hits = total = 0
    for q in range(8):
        d2 = ((x - x[q][None, :]) ** 2).sum(axis=1)
        exact5 = set(np.argsort(d2, kind="stable")[:5].tolist())
        got5 = set(out[out.query_id == q].vec_id.tolist())
        hits += len(exact5 & got5)
        total += 5
    assert hits / total >= 0.7


def test_blocklist_gate(ray_session):
    from graphiti_ray.stages.textstats import blocklist_gate

    texts = [
        "slow slow slow db",             # 3 bad / 4 words -> dropped
        " ".join(["ok"] * 19 + ["slow"]),  # 1 bad / 20 words -> kept (boundary)
        " ".join(["ok"] * 18 + ["slow"]),  # 1 bad / 19 words -> dropped
        "slowly but surely",             # \b: 'slowly' is NOT a match -> kept
        "clean text entirely",           # 0 bad -> kept
    ]
    out = blocklist_gate(_docs(texts)).to_pandas().sort_values("doc_id")
    assert out.doc_id.tolist() == [1, 3, 4]
    kept = {r.doc_id: (r.n_bad, r.n_words) for r in out.itertuples()}
    assert kept[1] == (1, 20)
    assert kept[3] == (0, 3)


def test_naive_bayes_lang(ray_session):
    from graphiti_ray.stages.textstats import naive_bayes_lang

    # train docs (doc_id % 5 != 0): two clearly separated vocabularies
    rows = [
        {"doc_id": i, "text": "aaa bbb aaa", "lang": "en"}
        for i in (1, 6, 11, 16)
    ] + [
        {"doc_id": i, "text": "xxx yyy xxx", "lang": "de"}
        for i in (2, 7, 12, 17)
    ]
    rows.append({"doc_id": 0, "text": "aaa aaa bbb", "lang": "zz"})   # test
    rows.append({"doc_id": 5, "text": "xxx xxx yyy", "lang": "zz"})   # test
    rows.append({"doc_id": 10, "text": "qqq www", "lang": "zz"})      # test, OOV only
    out = naive_bayes_lang(rd.from_items(rows)).to_pandas().set_index("doc_id")
    assert out.loc[0, "pred_lang"] == "en"
    assert out.loc[5, "pred_lang"] == "de"
    # all-OOV doc: equal token mass per class -> tie broken label-asc
    assert out.loc[10, "pred_lang"] == "de"
    assert out.score.dtype == "int64"


def test_dbscan_cosine_hand_case(ray_session):
    from graphiti_ray.stages.similarity import dbscan_cosine

    # unit vectors at 0/10/20/30/90 degrees; eps=0.95 (~18.2 deg) links
    # only adjacent pairs -> cores {1,2}, borders {0,3}, noise {4}
    angs = np.deg2rad([0, 10, 20, 30, 90])
    rows = [
        {"vec_id": i, "embedding": [float(np.cos(a)), float(np.sin(a))]}
        for i, a in enumerate(angs)
    ]
    out = (
        dbscan_cosine(rd.from_items(rows), eps=0.95, min_pts=2)
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert out.label.tolist() == [1, 1, 1, 1, -1]
    assert out.is_core.tolist() == [0, 1, 1, 0, 0]
    assert out.n_nbrs.tolist() == [1, 2, 2, 1, 0]


def test_trending_terms_burst_and_smoothing(ray_session):
    from graphiti_ray.stages.textstats import trending_terms

    # day = doc_id % 3; plant: 'boom' absent day 0, heavy day 1 (max
    # burst via the +1 smoother); 'flat' constant across days (burst ~1e6)
    rows = []
    for d, ids in enumerate([(0, 3), (1, 4), (2, 5)]):
        for i in ids:
            extra = " boom boom boom boom boom" if i % 3 == 1 else ""
            rows.append({"doc_id": i, "text": "flat flat flat" + extra})
    out = (
        trending_terms(rd.from_items(rows), n_days=3, min_count=5, top_n=50)
        .to_pandas()
        .set_index(["day", "token"])
    )
    # boom: c=10 on day 1, absent day 0 -> 10e6 // 1
    assert out.loc[(1, "boom"), "burst_micro"] == 10_000_000
    assert out.loc[(1, "boom"), "c_prev"] == 0
    # flat: 6 per day -> 6e6 // 7
    assert out.loc[(1, "flat"), "burst_micro"] == 6_000_000 // 7
    # day 0 rows never emitted
    assert 0 not in out.index.get_level_values("day")


def test_basket_pairs_counts(ray_session):
    from graphiti_ray.stages.textstats import basket_pairs

    rows = []
    # u1: {A,B,C} (A repeated), u2: {A,B}, u3: {C}
    for u, ts_ in [(1, ["A", "A", "B", "C"]), (2, ["A", "B"]), (3, ["C"])]:
        rows += [{"user_id": u, "event_type": t} for t in ts_]
    out = basket_pairs(rd.from_items(rows), min_support=1).to_pandas()
    got = {
        (r.type_a, r.type_b): (r.n_ab, r.n_a, r.n_b, r.n_keys)
        for r in out.itertuples()
    }
    assert got[("A", "B")] == (2, 2, 2, 3)
    assert got[("A", "C")] == (1, 2, 2, 3)
    assert got[("B", "C")] == (1, 2, 2, 3)
    # min_support prunes
    out2 = basket_pairs(rd.from_items(rows), min_support=2).to_pandas()
    assert [(r.type_a, r.type_b) for r in out2.itertuples()] == [("A", "B")]


def test_rank_tau_query_invariants(ray_session):
    import __ray_entry__ as e

    out = e.queries()["docs_rank_tau"]("/root/testdata/sf0.001").iloc[0]
    n = int(out.n_common)
    assert out.n_pairs == n * (n - 1) // 2
    assert 0 < n <= 100
    # strict total orders on both sides -> no tied pairs
    assert out.n_concordant + out.n_discordant == out.n_pairs
    assert out.n_discordant > 0  # chars and words orders genuinely differ


def test_psi_identical_splits_zero(ray_session):
    from graphiti_ray.stages.textstats import psi_by_bucket

    # perfectly balanced buckets across the two splits -> every term 0
    rows = [
        {"doc_id": i, "lang": ["en", "de"][i // 2 % 2]} for i in range(40)
    ]
    out = psi_by_bucket(rd.from_items(rows)).to_pandas()
    assert sorted(out.bucket) == ["de", "en"]
    assert (out.psi_term_e6 == 0).all()
    assert (out.n_a + out.n_b).sum() == 40

    # skewed bucket -> strictly positive term on that bucket
    rows2 = [{"doc_id": i, "lang": "en" if i % 2 == 0 else "de"} for i in range(40)]
    out2 = psi_by_bucket(rd.from_items(rows2)).to_pandas().set_index("bucket")
    assert out2.loc["en", "psi_term_e6"] > 0 and out2.loc["de", "psi_term_e6"] > 0


def test_kg_pred_pairs_query(ray_session):
    import __ray_entry__ as e

    pp = e.queries()["kg_pred_pairs"]("/root/testdata/sf0.001").to_pandas()
    assert (pp.type_a < pp.type_b).all()
    assert (pp.n_ab <= pp[["n_a", "n_b"]].min(axis=1)).all()


def test_vocab_growth_monotone_and_exact(ray_session):
    import __ray_entry__ as e

    out = (
        e.queries()["docs_vocab_growth"]("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert (out.n_new_tokens > 0).all()
    assert out.cum_vocab.is_monotonic_increasing
    assert out.cum_vocab.iloc[-1] == out.n_new_tokens.sum()


def test_zipf_alpha_planted_distribution(ray_session):
    from graphiti_ray.stages.textstats import zipf_alpha

    # tokens with counts 4, 2, 1 (cmin=2 keeps {4, 2})
    docs = rd.from_items([{"text": "a a a a b b c"}])
    out = zipf_alpha(docs, cmin=2).take_all()[0]
    li4 = round(np.log(4) * 1e6)
    s = int(li4 + round(np.log(2) * 1e6) - 2 * round(np.log(2) * 1e6))
    assert out["n_tail"] == 2 and out["s_e6"] == s
    assert out["alpha_e6"] == 1_000_000 + (2 * 10**12) // s


def test_gini_stats_hand_case(ray_session):
    import __ray_entry__  # noqa: F401 (ensures module imports clean)

    # direct hand-check of the statistic definition on a tiny dataset
    from graphiti_ray.stages.ops import window_rank

    # counts: a:1, b:2, c:3 -> ranks 1,2,3; w = 1+4+9 = 14; G = 2*14/(3*6) - 4/3
    counts = rd.from_items(
        [{"token": t, "c": c, "_k": 0} for t, c in [("a", 1), ("b", 2), ("c", 3)]]
    )
    ranked = window_rank(counts, ["_k"], ["c", "token"]).to_pandas()
    w = int((ranked["rank"] * ranked["c"]).sum())
    assert w == 14
    g = 2 * w / (3 * 6) - 4 / 3
    assert abs(g - (28 / 18 - 4 / 3)) < 1e-12


def test_kg_entity_pmi_signs(ray_session):
    import __ray_entry__ as e

    out = e.queries()["kg_entity_pmi"]("/root/testdata/sf0.001").to_pandas()
    assert (out.n_ab >= 2).all()
    # pmi definition invariants: pairs co-occurring in EVERY episode of
    # both entities have pmi >= 0; independence bound n_ab <= min(n_a,n_b)
    assert (out.n_ab <= out[["n_a", "n_b"]].min(axis=1)).all()
    full = out[(out.n_ab == out.n_a) & (out.n_ab == out.n_b)]
    assert (full.pmi_e6 >= 0).all()


def test_docs_diversity_moments(ray_session):
    import __ray_entry__ as e

    out = e.queries()["docs_diversity"]("/root/testdata/sf0.001").to_pandas()
    # sum_n2 bounded by n^2 (one lang) and below n^2, >= n (all distinct)
    assert (out.sum_n2 <= out.n_docs**2).all()
    assert (out.sum_n2 >= out.n_docs).all()


def test_docs_mi_independence_zero(ray_session):
    import __ray_entry__ as e

    out = e.queries()["docs_mi"]("/root/testdata/sf0.001").to_pandas()
    # MI total is >= 0 up to per-cell rounding; each cell count positive
    assert (out.n_ls > 0).all()
    assert out.mi_term_e6.sum() >= -out.n_ls.sum()  # rounding slack only


def test_readability_fk_hand(ray_session):
    """Hand-counted Flesch–Kincaid lattice: 'Hello world. It is big!' →
    W=5, S=2, Syl=6, grade −0.455 → fk_micro −455000; empty docs drop.
    'a. . . . . . .' → W=1, S=7, Syl=1: −2614·10⁶ / 700 = −3734285.7…,
    which DuckDB's ``//`` truncates to −3734285 (a floor would give
    −3734286)."""
    import ray.data as rd_

    from graphiti_ray.stages.textstats import readability_fk

    docs = rd_.from_items(
        [
            {"doc_id": 1, "text": "Hello world. It is big!"},
            {"doc_id": 2, "text": "   "},
            {"doc_id": 3, "text": "a. . . . . . ."},
        ]
    )
    rows = sorted(readability_fk(docs).take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in rows] == [1, 3]
    r = rows[0]
    assert (r["n_words"], r["n_sentences"], r["n_syllables"]) == (5, 2, 6)
    assert r["fk_micro"] == -455_000
    r = rows[1]
    assert (r["n_words"], r["n_sentences"], r["n_syllables"]) == (1, 7, 1)
    assert r["fk_micro"] == -3_734_285


def test_skipgram_pairs_hand(ray_session):
    """'a b c' with window 2 → all 6 directed pairs once; count ties
    break alphabetically on (center, context)."""
    import ray.data as rd_

    from graphiti_ray.stages.textstats import skipgram_pairs

    docs = rd_.from_items([{"doc_id": 1, "text": "a b c"}])
    out = skipgram_pairs(docs, window=2, top_k=10)
    assert list(out.n_pair) == [1] * 6
    assert list(zip(out.center, out.context)) == [
        ("a", "b"), ("a", "c"), ("b", "a"),
        ("b", "c"), ("c", "a"), ("c", "b"),
    ]
    assert list(out["rank"]) == [1, 2, 3, 4, 5, 6]


def test_llr_collocations_hand(ray_session):
    """Perfectly-associated pair ranks first with the hand-computed G²:
    corpus of 10 'x y' docs + 10 'x z' docs → bigrams (x,y)×10, (x,z)×10;
    each pair's 2×2 table is [[10,10],[0,0]] vs marginals, G² =
    2·(10ln10+10ln10 − 20ln20 − 10ln10 − 10ln10 + 20ln20) = 0 for
    (x,y) vs (x,z) symmetry — both score equally, ties break on (w1,w2)."""
    import math

    import ray.data as rd_

    from graphiti_ray.stages.textstats import llr_collocations

    rows = [{"doc_id": i, "text": "x y"} for i in range(10)]
    rows += [{"doc_id": 100 + i, "text": "x z"} for i in range(10)]
    out = llr_collocations(rd_.from_items(rows), top_k=10, min_count=5)
    assert list(zip(out.w1, out.w2)) == [("x", "y"), ("x", "z")]
    assert list(out.n_pair) == [10, 10]

    # hand G²: k11=10 k12=10 k21=0 k22=0, ra=20 ca=10 nn=20
    def xlx(v):
        return v * math.log(v) if v > 0 else 0.0

    s = (
        xlx(10) + xlx(10) + xlx(0) + xlx(0)
        - xlx(20) - xlx(0) - xlx(10) - xlx(10)
        + xlx(20)
    )
    want = round((2 * s) * 1e6) / 1e6
    assert abs(out.llr.iloc[0] - want) < 1e-6
    assert out.llr.iloc[0] == out.llr.iloc[1]


def test_duckdb_intdiv_semantics_probe():
    """Pins the oracle's ``//`` semantics: DuckDB TRUNCATES toward zero
    on negatives (−7//2 = −3), matching pc.divide — NOT floor division.
    The engine's pc.divide bucket/modulo arithmetic (stages/urls.py,
    pipelines/corpus.py) relies on this; if a DuckDB upgrade flips it,
    this probe fails before any oracle does."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc

    con = duckdb.connect()
    got = con.sql(
        "SELECT (-7) // 2, epoch_us(TIMESTAMP '1969-12-30 13:00:00') "
        "// 86400000000"
    ).fetchone()
    assert got == (-3, -1)
    arrow = pc.divide(
        pa.array([-7, 7, -126000000000], pa.int64()),
        pa.array([2, 2, 86400000000], pa.int64()),
    )
    assert arrow.to_pylist() == [-3, 3, -1]


def test_bpe_train_hand(ray_session):
    """'aaab aaab ab' → merge1 (a,a) n=2+2=4 greedy-left (runs of three
    count ONE non-overlapping pair each), merge2 (a,b) n=3... verify the
    greedy replace semantics on symbol runs."""
    import ray.data as rd_

    from graphiti_ray.stages.textstats import bpe_train

    docs = rd_.from_items([{"doc_id": 1, "text": "aaab aaab ab"}])
    out = bpe_train(docs, n_merges=3).to_pydict()
    # word types: aaab×2, ab×1
    # round1 pairs: (a,a)×2·2? per 'aaab': a-a,a-a,a-b → weighted by 2:
    #   (a,a)=4, (a,b)=2+1=3 → merge1 (a,a)
    assert (out["lhs"][0], out["rhs"][0], out["pair_count"][0]) == ("a", "a", 4)
    # after merge: 'aaab' → |aa|a|b| (greedy-left leaves a lone 'a')
    # round2 pairs: (aa,a)=2, (a,b)=2+1=3 → merge2 (a,b) n=3
    assert (out["lhs"][1], out["rhs"][1], out["pair_count"][1]) == ("a", "b", 3)
    # round3: 'aaab'→|aa|ab|: (aa,ab)=2; 'ab'→|ab|: none → merge3 (aa,ab)
    assert (out["lhs"][2], out["rhs"][2], out["pair_count"][2]) == ("aa", "ab", 2)
