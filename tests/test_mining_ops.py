"""Round-5 training-data mining operators: CCNet perplexity buckets and
contrastive hard-negative mining."""

import numpy as np

import ray.data as rd


def test_ccnet_buckets_tiles_and_order(ray_session):
    from graphiti_ray.pipelines.corpus import ccnet_buckets

    docs = rd.from_items(
        [
            # repeated fluent docs score high; the noise doc scores low
            {"doc_id": 1, "text": "the cat sat on the mat"},
            {"doc_id": 2, "text": "the cat sat on the mat"},
            {"doc_id": 3, "text": "the cat sat on the mat again"},
            {"doc_id": 4, "text": "zq xv qj kz wq vx jq"},
            {"doc_id": 5, "text": "the dog sat on the mat"},
            {"doc_id": 6, "text": "one"},  # < 2 tokens → no score row
        ]
    )
    out = ccnet_buckets(docs).to_pandas().set_index("doc_id")
    assert 6 not in out.index and len(out) == 5
    # 5 rows, 3 tiles → sizes 2/2/1 (remainder to the first buckets)
    assert sorted(out.tile) == [1, 1, 2, 2, 3]
    assert set(out.bucket) == {"head", "middle", "tail"}
    # ordering: the junk doc has the worst avg logp → tail
    assert out.loc[4, "bucket"] == "tail"
    # tiles follow the (avg_lp6 desc, doc_id) order exactly
    ordered = out.sort_values(["avg_lp6", "doc_id"], ascending=[False, True])
    assert list(ordered.tile) == sorted(ordered.tile)


def test_hard_negatives_cross_label_only(ray_session):
    from graphiti_ray.stages.similarity import hard_negatives

    rng = np.random.RandomState(7)
    rows = []
    for i in range(24):
        v = rng.randn(8)
        rows.append(
            {
                "vec_id": i,
                "embedding": (v / np.linalg.norm(v)).tolist(),
                "label": i % 3,
            }
        )
    emb = rd.from_items(rows)
    out = hard_negatives(emb, n_queries=6, k=4).to_pandas()
    assert set(out.columns) == {"query_id", "vec_id", "cosine", "rank"}
    labels = {r["vec_id"]: r["label"] for r in rows}
    for r in out.itertuples():
        assert labels[r.vec_id] != labels[r.query_id]  # cross-label only
        assert 1 <= r.rank <= 4
    # per query: ranks are 1..k and cosine non-increasing
    for _, g in out.groupby("query_id"):
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        assert (np.diff(g["cosine"]) <= 1e-12).all()
    # exhaustive check for one query against numpy
    q = next(iter(sorted(out.query_id)))
    qv = np.asarray(rows[q]["embedding"])
    sims = {
        r["vec_id"]: round(float(np.dot(qv, np.asarray(r["embedding"]))), 6)
        for r in rows
        if r["label"] != rows[q]["label"]
    }
    want = sorted(sims, key=lambda i: (-sims[i], i))[:4]
    got = out[out.query_id == q].sort_values("rank")["vec_id"].tolist()
    assert got == want


def test_source_epochs_lattice_and_budget(ray_session):
    from graphiti_ray.pipelines.corpus import source_epochs

    docs = rd.from_items(
        [{"source": "a", "text": "one two three four"}] * 3
        + [{"source": "b", "text": "five six"}] * 2
    )
    out = source_epochs(docs).to_pandas().set_index("source")
    assert out.loc["a", "n_tokens"] == 12 and out.loc["b", "n_tokens"] == 4
    s6a = round((12**0.5) * 1e6)
    s6b = round((4**0.5) * 1e6)
    ss = s6a + s6b
    assert out.loc["a", "sqrt6"] == s6a
    assert out.loc["a", "weight_ppm"] == (s6a * 1_000_000) // ss
    budget = 2 * 16
    ba = (budget * out.loc["a", "weight_ppm"]) // 1_000_000
    assert out.loc["a", "budget_tokens"] == ba
    assert out.loc["a", "epochs_e6"] == (ba * 1_000_000) // 12
    # weights sum to ~1e6 (floor rounding loses at most |sources|-1 ppm)
    assert 1_000_000 - 2 < out.weight_ppm.sum() <= 1_000_000


def test_ppjoin_matches_bottomk_blocking(ray_session):
    """PPJoin prefix filtering and the bottom-k heuristic blocking must
    produce the IDENTICAL exact-Jaccard pair set."""
    from graphiti_ray.stages.dedup import (
        ngram_jaccard_pairs,
        ngram_jaccard_ppjoin,
    )

    base = "the quick brown fox jumps over the lazy dog and runs far away"
    docs = rd.from_items(
        [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base},                       # exact dup
            {"doc_id": 3, "text": base + " tonight"},          # near dup
            {"doc_id": 4, "text": "completely different words here entirely"},
            {"doc_id": 5, "text": base.replace("fox", "cat")}, # near dup
        ]
    )
    key = lambda ds: sorted(
        (r["a"], r["b"], r["jaccard"]) for r in ds.take_all()
    )
    want = key(ngram_jaccard_pairs(docs, threshold=0.5))
    got = key(ngram_jaccard_ppjoin(docs, threshold=0.5))
    assert got == want and len(got) >= 3  # (1,2) exact + the near dups
    assert any(a == 1 and b == 2 and j == 1.0 for a, b, j in got)


def test_integrity_counts_detects_dangling(ray_session):
    from graphiti_ray.pipelines.maintenance import integrity_counts

    tables = {
        "episodes": rd.from_items([{"uuid": "e1"}, {"uuid": "e2"}]),
        "nodes": rd.from_items(
            [{"uuid": "n1"}, {"uuid": "n2"}, {"uuid": "n3"}]
        ),
        "edges": rd.from_items(
            [
                {"uuid": "f1", "subj_uuid": "n1", "obj_uuid": "n2"},
                {"uuid": "f2", "subj_uuid": "n1", "obj_uuid": "MISSING"},
            ]
        ),
    }
    out = integrity_counts(tables).to_pandas().iloc[0]
    assert out.n_episodes == 2 and out.n_nodes == 3 and out.n_edges == 2
    assert out.edges_dangling_subj == 0
    assert out.edges_dangling_obj == 1  # the MISSING obj
    assert out.nodes_without_edges == 1  # n3 unreferenced


def test_ood_margin_flags_mislabels(ray_session):
    from graphiti_ray.stages.similarity import ood_margin

    rng = np.random.RandomState(3)
    c0 = np.array([1.0, 0, 0, 0])
    c1 = np.array([0, 1.0, 0, 0])
    rows = []
    for i in range(20):
        base = c0 if i % 2 == 0 else c1
        v = base + rng.randn(4) * 0.05
        rows.append(
            {"vec_id": i, "embedding": v.tolist(), "label": i % 2}
        )
    # one mislabeled vector: looks like class 0, labeled 1
    rows.append(
        {"vec_id": 99, "embedding": (c0 + rng.randn(4) * 0.05).tolist(),
         "label": 1}
    )
    out = ood_margin(rd.from_items(rows)).to_pandas().set_index("vec_id")
    assert (out.drop(99).margin > 0).mean() > 0.9  # clean points: own wins
    assert out.loc[99, "margin"] < 0  # the mislabel is flagged
    assert out.loc[99, "best_other_cos"] > out.loc[99, "own_cos"]


def test_corr_census_exact_moments(ray_session):
    from graphiti_ray.stages.ops import corr_census

    ds = rd.from_items([{"x": i, "y": 3 * i} for i in range(50)])
    out = corr_census(ds, "x", "y").to_pandas().iloc[0]
    assert out.n == 50 and out.sum_x == 1225 and out.sum_y == 3675
    assert out.r_e6 == 1_000_000  # perfectly linear → r = 1
    anti = corr_census(
        rd.from_items([{"x": i, "y": -i} for i in range(50)]), "x", "y"
    ).to_pandas().iloc[0]
    assert anti.r_e6 == -1_000_000


def test_ks_drift_identical_and_shifted(ray_session):
    from graphiti_ray.stages.ops import ks_drift

    same = rd.from_items(
        [{"v": i % 7, "g": "a"} for i in range(70)]
        + [{"v": i % 7, "g": "b"} for i in range(70)]
    )
    out = ks_drift(same, "v", "g", "a", "b").to_pandas().iloc[0]
    assert out.ks_e6 == 0  # identical distributions

    shifted = rd.from_items(
        [{"v": i % 7, "g": "a"} for i in range(70)]
        + [{"v": i % 7 + 100, "g": "b"} for i in range(70)]
    )
    out = ks_drift(shifted, "v", "g", "a", "b").to_pandas().iloc[0]
    assert out.ks_e6 == 1_000_000  # disjoint supports → D = 1
