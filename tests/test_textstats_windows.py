"""Text analysis + windowed aggregates + similarity + multimodal stubs."""

from datetime import datetime, timedelta

import numpy as np
import pytest

import ray.data as rd

from graphiti_ray.stages.multimodal import (
    MediaFeatureExtractor,
    media_features,
    synth_media_dataset,
)
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
from graphiti_ray.stages.windows import session_window, sliding_window, tumbling_window


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


def test_tumbling_window(ray_session):
    t0 = datetime(2024, 1, 1)
    ev = rd.from_items(
        [
            {"user_id": 1, "ts": t0 + timedelta(seconds=s), "value": v}
            for s, v in [(0, 1), (599, 2), (600, 10), (1800, 5)]
        ]
    )
    out = tumbling_window(ev, size_s=600).to_pandas().sort_values("window_start")
    assert out.n_events.tolist() == [2, 1, 1]
    assert out.sum_value.tolist() == [3, 10, 5]


def test_sliding_window(ray_session):
    t0 = datetime(2024, 1, 1)
    ev = rd.from_items([{"user_id": 1, "ts": t0 + timedelta(seconds=650), "value": 7}])
    out = sliding_window(ev, size_s=600, slide_s=300).to_pandas()
    # event at 650s belongs to windows starting at 600 and 300
    starts = sorted((out.window_start - np.datetime64(t0)).dt.total_seconds())
    assert starts == [300.0, 600.0]


def test_session_window(ray_session):
    t0 = datetime(2024, 1, 1)
    ev = rd.from_items(
        [
            {"user_id": 1, "ts": t0 + timedelta(seconds=s)}
            for s in [0, 100, 200, 5000, 5100]
        ]
    )
    out = session_window(ev, gap_s=1800).to_pandas().sort_values("session_start")
    assert len(out) == 2
    assert out.n_events.tolist() == [3, 2]


def test_media_features_stub(ray_session):
    media = synth_media_dataset(n=16)
    out = media_features(media, batch_size=4).to_pandas()
    assert len(out) == 16
    v = np.asarray(out.feature.iloc[0], dtype="float64")
    assert len(v) == 32 and abs(np.linalg.norm(v) - 1.0) < 1e-5
    # deterministic across runs
    out2 = media_features(synth_media_dataset(n=16), batch_size=4).to_pandas()
    assert np.allclose(
        np.stack(out.sort_values("media_id").feature.map(np.asarray)),
        np.stack(out2.sort_values("media_id").feature.map(np.asarray)),
    )


def test_media_decode_not_implemented():
    import pytest as _pytest

    ex = MediaFeatureExtractor(decode_stub=False)
    with _pytest.raises(NotImplementedError):
        ex._decode(b"payload")


def test_media_resize_and_frame_sample_pipeline(ray_session):
    """Multimodal chain: resize → frame-sample → feature-extract → ANN.
    Exercises the actor-pool plumbing end-to-end with the stub codecs."""
    import numpy as np

    from graphiti_ray.stages.multimodal import (
        frame_sample,
        media_features,
        media_resize,
        synth_media_dataset,
    )
    from graphiti_ray.stages.similarity import knn_brute_force

    media = synth_media_dataset(n=12)
    resized = media_resize(media, width=32, height=32, batch_size=4)
    rdf = resized.to_pandas()
    assert (rdf["payload"].map(len) == 32 * 32).all()
    assert all('"w": 32' in m for m in rdf["meta"])

    frames = frame_sample(resized, n_frames=3, batch_size=4)
    feats = media_features(frames, batch_size=8).materialize()
    fdf = feats.to_pandas()
    assert len(fdf) == 12 * 3
    assert set(fdf["frame_idx"]) == {0, 1, 2}
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-5 for v in fdf["feature"])

    # features flow straight into the ANN operator (vec_id = row key)
    vecs = feats.map_batches(
        lambda t: t.select(["feature"])
        .append_column(
            "vec_id",
            __import__("pyarrow").array(
                [int(m) * 10 + int(f) for m, f in zip(
                    t.column("media_id").to_pylist(), t.column("frame_idx").to_pylist()
                )],
                __import__("pyarrow").int64(),
            ),
        )
        .rename_columns(["embedding", "vec_id"]),
        batch_format="pyarrow",
    )
    top = knn_brute_force(vecs, n_queries=2, k=3).to_pandas()
    assert set(top["query_id"]) == {0, 1}
    # self-similarity ranks first
    assert all(
        g.sort_values("rank").iloc[0]["vec_id"] == q
        for q, g in top.groupby("query_id")
    )


def test_media_decode_stub_false_raises(ray_session):
    from graphiti_ray.stages.multimodal import MediaFeatureExtractor, MediaResize
    import pytest as _pytest

    with _pytest.raises(NotImplementedError):
        MediaFeatureExtractor(decode_stub=False)._decode(b"abc")
    with _pytest.raises(NotImplementedError):
        MediaResize(8, 8, decode_stub=False)._resize(b"abc")


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


def _wav_bytes(freq=440.0, sr=8000, n=800, ch=1):
    """Deterministic 16-bit PCM WAV via the stdlib writer."""
    import io
    import wave

    t = np.arange(n) / sr
    x = (np.sin(2 * np.pi * freq * t) * 12000).astype(np.int16)
    if ch == 2:
        x = np.column_stack([x, x // 2]).ravel()
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(ch)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(x.tobytes())
    return buf.getvalue()


def _ppm_bytes(w=8, h=6):
    """Deterministic P6 image with a comment in the header."""
    arr = (np.arange(h * w * 3, dtype=np.int64) * 7 % 256).astype(np.uint8)
    return (
        b"P6\n# synthetic test image\n"
        + f"{w} {h}\n255\n".encode()
        + arr.tobytes()
    )


def test_real_wav_decode_roundtrip():
    from graphiti_ray.stages.multimodal import decode_wav, sniff_format

    payload = _wav_bytes(ch=2)
    assert sniff_format(payload) == "wav"
    samples, sr = decode_wav(payload)
    assert sr == 8000 and samples.shape == (800, 2)
    # the sine's absolute peak survives the decode
    assert 11000 < np.abs(samples[:, 0]).max() <= 12000


def test_real_ppm_decode_resize_roundtrip():
    from graphiti_ray.stages.multimodal import (
        decode_ppm,
        encode_ppm,
        resize_nearest,
        sniff_format,
    )

    payload = _ppm_bytes(w=8, h=6)
    assert sniff_format(payload) == "ppm"
    arr = decode_ppm(payload)
    assert arr.shape == (6, 8, 3)
    assert decode_ppm(encode_ppm(arr)).tobytes() == arr.tobytes()
    small = resize_nearest(arr, 4, 3)
    assert small.shape == (3, 4, 3)
    # nearest-neighbor: every output pixel is some input pixel
    flat_in = {bytes(px) for px in arr.reshape(-1, 3)}
    assert all(bytes(px) in flat_in for px in small.reshape(-1, 3))
    # 2x downscale picks the odd rows/cols (floor((i+0.5)*2))
    assert np.array_equal(small, arr[1::2][:, 1::2])


def test_media_features_real_and_auto_modes(ray_session):
    import ray.data as rd_

    from graphiti_ray.stages.multimodal import (
        MediaFeatureExtractor,
        media_features,
    )

    rows = [
        {"media_id": 0, "mime": "audio/wav", "payload": _wav_bytes(),
         "meta": "{}"},
        {"media_id": 1, "mime": "image/ppm", "payload": _ppm_bytes(),
         "meta": "{}"},
        {"media_id": 2, "mime": "image/jpeg", "payload": b"\xff\xd8 not a real jpeg",
         "meta": "{}"},
    ]
    # auto: wav/ppm decode for real, jpeg falls back to the stub hash
    out = (
        media_features(rd_.from_items(rows), batch_size=2, decode="auto")
        .to_pandas()
        .sort_values("media_id")
    )
    assert list(out.media_id) == [0, 1, 2]
    assert (out.feat_max >= 0).all() and out.feature.map(len).eq(32).all()
    # real mode on an undecodable format hits the documented seam
    with pytest.raises(NotImplementedError):
        MediaFeatureExtractor(decode="real")._raw_vals(b"\xff\xd8 jpeg")
    # real audio features differ from the stub hash of the same payload
    stub = MediaFeatureExtractor(decode="stub")._raw_vals(rows[0]["payload"])
    real = MediaFeatureExtractor(decode="real")._raw_vals(rows[0]["payload"])
    assert not np.array_equal(stub, real)


def test_media_resize_real_ppm(ray_session):
    import json

    import ray.data as rd_

    from graphiti_ray.stages.multimodal import decode_ppm, media_resize

    rows = [
        {"media_id": 0, "mime": "image/ppm", "payload": _ppm_bytes(w=8, h=6),
         "meta": "{}"}
    ]
    out = media_resize(
        rd_.from_items(rows), width=4, height=3, decode="real"
    ).to_pandas()
    arr = decode_ppm(out.payload[0])
    assert arr.shape == (3, 4, 3)
    assert json.loads(out.meta[0]) == {"w": 4, "h": 3}


def test_media_auto_mode_survives_corrupt_sniffed_payloads():
    """A payload whose magic sniffs as PPM/WAV but whose body is garbage
    must degrade to the stub in auto mode (never kill the task) and stay
    loud in real mode."""
    from graphiti_ray.stages.multimodal import (
        MediaFeatureExtractor,
        MediaResize,
        payload_chunk_hashes,
    )

    fake_ppm = b"P6 is my favorite chip"
    fake_wav = b"RIFF" + b"\x00" * 4 + b"WAVE" + b"garbage body"
    auto = MediaFeatureExtractor(decode="auto")
    for payload in (fake_ppm, fake_wav):
        assert np.array_equal(
            auto._raw_vals(payload), payload_chunk_hashes(payload, auto.dim)
        )
        with pytest.raises(Exception):
            MediaFeatureExtractor(decode="real")._raw_vals(payload)
    rz = MediaResize(4, 4, decode="auto")
    assert rz._resize(fake_ppm) == rz._stub_resize(fake_ppm)


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


def test_dhash64_properties():
    """dHash invariants: deterministic; scale-invariant under exact 2x
    nearest upscaling; single-pixel perturbation flips at most its one
    comparison bit."""
    import numpy as np

    from graphiti_ray.stages.multimodal import dhash64, luma_gray

    rng = np.random.RandomState(7)
    gray = rng.randint(0, 200, size=(16, 18)).astype(np.int64)
    h1 = dhash64(gray)
    assert h1 == dhash64(gray)  # deterministic
    # exact 2x upscale samples the same source pixels -> same hash
    up = np.repeat(np.repeat(gray, 2, axis=0), 2, axis=1)
    assert dhash64(up) == h1
    # gray passthrough of luma on R=G=B
    rgb = np.repeat(gray.astype(np.uint8)[..., None], 3, axis=2)
    assert (luma_gray(rgb) == gray).all()
    # perturb ONE sampled pixel -> hamming <= 2 (its left+right comparisons)
    g2 = gray.copy()
    g2[1, 1] += 40
    assert bin(h1 ^ dhash64(g2)).count("1") <= 2


def test_image_phash_near_dup_components(ray_session):
    """Near-dup variants of the same base image cluster together through
    the REAL PPM decode path; distinct bases never pair (measured-zero
    cross-base collisions for the quadratic fixture); pairs feed
    connected_components for keep-one semantics."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from graphiti_ray.stages.dedup import connected_components
    from graphiti_ray.stages.multimodal import encode_ppm, image_phash_near_dup

    W, H = 18, 16
    yy, xx = np.mgrid[0:H, 0:W]
    idx = (yy * W + xx).astype(np.int64)
    rows = []
    for d in range(64):
        g = ((d // 4 + 1) * (idx + 7) * (idx + 7) * 104729) % 251 % 200
        g[1, 1] += (d % 4) * 8
        rgb = np.repeat(g.astype(np.uint8)[..., None], 3, axis=2)
        rows.append({"media_id": d, "payload": encode_ppm(rgb)})
    media = rd.from_arrow(pa.Table.from_pylist(rows))
    pairs = image_phash_near_dup(media, max_hamming=2).materialize()
    got = {(r["a"], r["b"]) for r in pairs.take_all()}
    want = {
        (4 * b + i, 4 * b + j)
        for b in range(16)
        for i in range(4)
        for j in range(i + 1, 4)
    }
    assert got == want  # full recall, zero spurious pairs
    comps = connected_components(
        pairs.map_batches(
            lambda t: pa.table({"a": t.column("a"), "b": t.column("b")}),
            batch_format="pyarrow",
        )
    ).to_pandas()
    comp_of = dict(zip(comps["doc_id"], comps["component"]))
    for d in range(64):
        assert comp_of.get(d, d) == 4 * (d // 4)  # min-label per base


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


def test_bmp_codec_roundtrip_and_dhash():
    """Real BMP decode: encode→decode roundtrip is exact (incl. row padding
    for non-multiple-of-4 widths and the BGR/bottom-up conventions), a
    top-down (negative height) file decodes identically, corrupt bodies
    raise, and the dHash pipeline accepts BMP next to PPM."""
    import numpy as np

    from graphiti_ray.stages.multimodal import (
        decode_bmp,
        dhash64,
        encode_bmp,
        encode_ppm,
        luma_gray,
        resize_nearest,
        sniff_format,
    )

    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, size=(5, 7, 3), dtype=np.uint8)  # w=7: padded
    payload = encode_bmp(img)
    assert sniff_format(payload) == "bmp"
    assert np.array_equal(decode_bmp(payload), img)

    # top-down variant: flip rows in the body, negate biHeight
    flipped = bytearray(encode_bmp(img[::-1]))
    flipped[22:26] = (-5).to_bytes(4, "little", signed=True)
    assert np.array_equal(decode_bmp(bytes(flipped)), img)

    with __import__("pytest").raises(ValueError):
        decode_bmp(b"BM" + b"\x00" * 12 + (12).to_bytes(4, "little") + b"\x00" * 24)

    # same pixels through BMP and PPM give the same dhash
    h_bmp = dhash64(luma_gray(decode_bmp(payload)))
    from graphiti_ray.stages.multimodal import decode_ppm

    h_ppm = dhash64(luma_gray(decode_ppm(encode_ppm(img))))
    assert h_bmp == h_ppm

    # resize path keeps the format decodeable
    small = encode_bmp(resize_nearest(img, 4, 3))
    assert decode_bmp(small).shape == (3, 4, 3)


def _psnr(a, b):
    import numpy as np

    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)


def test_jpeg_codec_roundtrip():
    """Real baseline JPEG codec (functions/jpeg.py): encode→decode
    round-trips a smooth image above 35 dB PSNR across quality levels,
    both subsampling layouts (4:4:4 / 4:2:0), restart intervals, odd
    dimensions and grayscale; a flat color block is exact; progressive
    SOF2 raises at the documented seam."""
    import numpy as np
    import pytest as _pytest

    from graphiti_ray.functions.jpeg import decode_jpeg, encode_jpeg
    from graphiti_ray.stages.multimodal import decode_image, sniff_format

    yy, xx = np.mgrid[0:45, 0:77]
    img = (
        np.stack(
            [
                xx * 255 / 76,
                yy * 255 / 44,
                128 + 100 * np.sin(xx / 9.0) * np.cos(yy / 7.0),
            ],
            axis=-1,
        )
        .clip(0, 255)
        .astype(np.uint8)
    )

    for quality, sub, ri, floor in [
        (95, "444", 0, 45.0),
        (85, "444", 3, 40.0),
        (85, "420", 0, 34.0),
        (60, "420", 5, 32.0),
    ]:
        enc = encode_jpeg(img, quality, sub, restart_interval=ri)
        assert sniff_format(enc) == "jpeg"
        dec = decode_jpeg(enc)
        assert dec.shape == img.shape
        assert _psnr(img, dec) > floor
        assert np.array_equal(decode_image(enc), dec)

    # flat color block: every 8x8 is DC-only → exact round-trip
    flat = np.full((16, 24, 3), (200, 30, 90), np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(flat, 90)), flat)

    # grayscale single-component scan
    g = (yy * 255 / 44).astype(np.uint8)
    dg = decode_jpeg(encode_jpeg(g, 90))
    assert dg.shape == g.shape and _psnr(g, dg) > 40.0

    # progressive (SOF2) is the documented seam
    prog = bytearray(encode_jpeg(img, 85))
    sof = prog.find(b"\xff\xc0")
    prog[sof + 1] = 0xC2
    with _pytest.raises(ValueError, match="SOF"):
        decode_jpeg(bytes(prog))

    with _pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")


def test_jpeg_media_stages(ray_session):
    """JPEG payloads flow through the real-decode paths end to end:
    media_features(decode='real') extracts pixel-derived features,
    media_resize re-encodes a real JPEG at the target size, and
    image_phash_near_dup clusters a JPEG re-encode of an image with its
    PPM original (perceptual hash survives DCT loss)."""
    import numpy as np

    import ray.data as rd

    from graphiti_ray.functions.jpeg import encode_jpeg
    from graphiti_ray.stages.multimodal import (
        decode_image,
        encode_ppm,
        image_phash_near_dup,
        media_features,
        media_resize,
        sniff_format,
    )

    rng = np.random.RandomState(11)
    # distinct blocky images with ENFORCED horizontal contrast: adjacent
    # cells alternate dark/bright bands (gap ≥ 55 luma), so the dHash grid
    # comparisons sit far from their decision boundary and survive JPEG
    # quantization noise (banded blocking only guarantees recall at
    # hamming ≤ 3 with 4 bands — the fixture must keep dup pairs there).
    # A plain gradient would NOT work: every gradient dhashes to all-zeros.
    # 9 grid columns so each of dHash's 9 sample columns lands in a
    # DISTINCT cell (8 columns would put two samples in one cell — an
    # equal-pair comparison that flips on ±1 of codec noise). Cells walk
    # randomly over 4 well-separated gray levels with adjacent cells
    # always on different levels: every horizontal comparison has ≥ 75
    # luma of margin (JPEG-noise-proof bit) but a per-image random
    # DIRECTION (so distinct images get far-apart hashes — a fixed
    # dark/bright checkerboard would hash every image identically).
    def blocky():
        levels = np.array([15, 90, 165, 240], dtype=np.uint8)
        idx = np.zeros((6, 9), dtype=np.int64)
        idx[:, 0] = rng.randint(0, 4, 6)
        for c in range(1, 9):
            step = rng.randint(1, 4, 6)  # never 0 → never equal-adjacent
            idx[:, c] = (idx[:, c - 1] + step) % 4
        gray = levels[idx]
        grid = np.repeat(gray[..., None], 3, axis=2)
        return np.repeat(np.repeat(grid, 5, 0), 5, 1)

    base = [blocky() for _ in range(4)]

    rows = []
    for i, img in enumerate(base):
        rows.append(
            {
                "media_id": 2 * i,
                "mime": "image/x-portable-pixmap",
                "payload": encode_ppm(img),
                "meta": "{}",
            }
        )
        rows.append(
            {
                "media_id": 2 * i + 1,
                "mime": "image/jpeg",
                "payload": encode_jpeg(img, quality=95),
                "meta": "{}",
            }
        )
    media = rd.from_items(rows)

    feats = media_features(media, decode_stub=False).take_all()
    assert len(feats) == 8
    assert all(len(r["feature"]) == 32 for r in feats)

    resized = media_resize(media, width=16, height=12, decode_stub=False)
    for r in resized.take_all():
        fmt = sniff_format(r["payload"])
        assert fmt in ("ppm", "jpeg")
        assert decode_image(r["payload"]).shape == (12, 16, 3)

    pairs = image_phash_near_dup(media, max_hamming=6).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    for i in range(4):  # each JPEG re-encode pairs with its PPM original
        assert (2 * i, 2 * i + 1) in got
    # distinct images don't collapse into one cluster
    cross = {p for p in got if p[0] // 2 != p[1] // 2}
    assert len(cross) <= 1


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


def test_zscore_outliers_matches_numpy(ray_session):
    from graphiti_ray.stages.windows import zscore_outliers

    rng = np.random.default_rng(7)
    rows = []
    for uid in range(4):
        vals = rng.normal(100.0, 5.0, 40).round(2).clip(0.01)
        vals[0] = 400.0  # planted outlier per key
        rows += [
            {"event_id": uid * 100 + i, "user_id": uid, "value": float(v)}
            for i, v in enumerate(vals)
        ]
    out = (
        zscore_outliers(rd.from_items(rows).repartition(4), z=3, quant=1000)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(out) == len(rows)
    # exact-integer test agrees with the float z-score on every row
    import pandas as pd

    df = pd.DataFrame(rows)
    df["v_q"] = np.floor(df.value * 1000).astype(np.int64)
    g = df.groupby("user_id").v_q
    mu = g.transform("mean")
    sd = g.transform(lambda s: s.std(ddof=0))
    expect = (df.v_q - mu).abs() > 3 * sd
    got = out.sort_values("event_id").is_outlier.to_numpy()
    assert (got == expect.to_numpy()).all()
    # every planted spike flagged
    assert out[out.event_id % 100 == 0].is_outlier.all()


def test_zscore_outliers_overflow_guard(ray_session):
    from graphiti_ray.stages.windows import zscore_outliers

    rows = [
        {"event_id": i, "user_id": 0, "value": 5e6} for i in range(3)
    ]
    with pytest.raises(Exception):
        zscore_outliers(rd.from_items(rows), z=3, quant=1000).to_pandas()


def test_funnel_conversion_kernel(ray_session):
    import pandas as pd

    from graphiti_ray.stages.windows import funnel_conversion

    t0 = datetime(2024, 1, 1)
    rows = []
    # u1: signup at 0, purchase at 100 (converts), earlier purchase ignored
    rows += [
        {"user_id": 1, "ts": t0 + timedelta(seconds=s), "event_type": e}
        for s, e in [(-50, "purchase"), (0, "signup"), (100, "purchase"),
                     (200, "purchase")]
    ]
    # u2: signup at 0, purchase only past the window (no conversion)
    rows += [
        {"user_id": 2, "ts": t0 + timedelta(seconds=s), "event_type": e}
        for s, e in [(0, "signup"), (2000, "purchase")]
    ]
    # u3: purchases but never signs up — excluded entirely
    rows += [{"user_id": 3, "ts": t0, "event_type": "purchase"}]
    # u4: two signups; the FIRST anchors the window
    rows += [
        {"user_id": 4, "ts": t0 + timedelta(seconds=s), "event_type": e}
        for s, e in [(0, "signup"), (500, "signup"), (550, "purchase")]
    ]
    out = (
        funnel_conversion(
            rd.from_items(rows).repartition(3), within_s=600
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out.user_id.tolist() == [1, 2, 4]
    assert out.converted.tolist() == [True, False, True]
    assert out.delay_us.tolist()[0] == 100 * 1_000_000
    assert pd.isna(out.delay_us.tolist()[1])
    assert out.delay_us.tolist()[2] == 550 * 1_000_000  # anchored at first signup
    assert pd.isna(out.t_b[1])


def test_fixed_histogram_exact_and_clamped(ray_session):
    from graphiti_ray.stages.windows import fixed_histogram

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


def test_rolling_sum_matches_pandas(ray_session):
    from graphiti_ray.stages.windows import rolling_sum

    rng = np.random.default_rng(3)
    t0 = datetime(2024, 1, 1)
    rows = [
        {
            "event_id": i,
            "user_id": int(i % 4),
            "ts": t0 + timedelta(seconds=int(rng.integers(0, 10000))),
            "value_cents": int(rng.integers(-50, 500)),
        }
        for i in range(300)
    ]
    out = (
        rolling_sum(rd.from_items(rows).repartition(5), window_rows=3)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    df = pd.DataFrame(rows).sort_values(["user_id", "ts", "event_id"])
    df["want"] = (
        df.groupby("user_id").value_cents.rolling(3, min_periods=1).sum()
        .reset_index(level=0, drop=True)
    )
    merged = out.merge(df[["event_id", "want"]], on="event_id")
    assert (merged.roll_sum == merged.want.astype("int64")).all()


def test_mad_outliers_robust_vs_zscore(ray_session):
    """A single huge spike inflates the z-score threshold but not the MAD
    one: MAD flags the spike, and the spike alone."""
    from graphiti_ray.stages.windows import mad_outliers

    rows = [
        {"event_id": i, "user_id": 0, "value": 100.0 + (i % 7) * 0.5}
        for i in range(30)
    ]
    rows.append({"event_id": 99, "user_id": 0, "value": 10_000.0})
    out = mad_outliers(rd.from_items(rows).repartition(3)).to_pandas()
    assert len(out) == 31
    flagged = set(out[out.is_outlier].event_id)
    assert flagged == {99}
    # med/mad are the exact lattice medians
    import pandas as pd

    vq = pd.Series([int(np.floor(r["value"] * 1000)) for r in rows])
    med = int(vq.sort_values().iloc[(len(vq) - 1) // 2])
    absdev = (vq - med).abs()
    mad = int(absdev.sort_values().iloc[(len(absdev) - 1) // 2])
    assert (out.med == med).all() and (out["mad"] == mad).all()


def test_interval_overlap_pairs_exact_and_once(ray_session):
    """Pairs match the O(n²) reference exactly — including intervals that
    share MANY buckets (emitted once, not once per bucket) — and
    same-key pairs are excluded."""
    from graphiti_ray.stages.windows import interval_overlap_pairs

    t0 = datetime(2024, 1, 1)

    def iv(k, s_h, e_h):
        return {
            "user_id": k,
            "session_start": t0 + timedelta(hours=s_h),
            "session_end": t0 + timedelta(hours=e_h),
        }

    rows = [
        iv(1, 0, 50),    # long interval spanning many 6h buckets
        iv(2, 10, 60),   # overlaps 1 across ~7 buckets → exactly one pair
        iv(3, 55, 58),   # overlaps 2 only
        iv(4, 100, 101), # overlaps nothing
        iv(1, 70, 80),   # same key as row 0 — never pairs with key-1 rows
        iv(2, 72, 75),   # overlaps the second key-1 interval
    ]
    out = (
        interval_overlap_pairs(rd.from_items(rows).repartition(3))
        .to_pandas()
        .sort_values(["a_key", "a_start", "b_key", "b_start"])
        .reset_index(drop=True)
    )
    # reference: all cross-key overlapping pairs
    import itertools

    want = []
    for x, y in itertools.combinations(rows, 2):
        if x["user_id"] == y["user_id"]:
            continue
        if x["session_start"] <= y["session_end"] and y["session_start"] <= x["session_end"]:
            a, b = sorted([x, y], key=lambda r: (r["user_id"], r["session_start"]))
            ov = (
                min(a["session_end"], b["session_end"])
                - max(a["session_start"], b["session_start"])
            )
            want.append(
                (a["user_id"], a["session_start"], b["user_id"],
                 b["session_start"], int(ov.total_seconds() * 1_000_000))
            )
    want.sort()
    got = list(map(tuple, out.itertuples(index=False)))
    assert [(g[0], g[1].to_pydatetime(), g[2], g[3].to_pydatetime(), g[4]) for g in got] == want
    assert len(got) == 3  # (1,2), (2,3), (1b-2b) — each exactly once


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


def test_transition_counts_matches_reference(ray_session):
    from collections import Counter

    from graphiti_ray.stages.windows import transition_counts

    rng = np.random.default_rng(6)
    t0 = datetime(2024, 1, 1)
    rows = [
        {
            "event_id": i,
            "user_id": int(i % 5),
            "ts": t0 + timedelta(seconds=int(rng.integers(0, 100000))),
            "event_type": ["a", "b", "c"][int(rng.integers(0, 3))],
        }
        for i in range(400)
    ]
    out = transition_counts(rd.from_items(rows).repartition(4)).to_pandas()
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}

    want = Counter()
    import pandas as pd

    df = pd.DataFrame(rows).sort_values(["user_id", "ts", "event_id"])
    for _, g in df.groupby("user_id"):
        ts = g.event_type.tolist()
        want.update(zip(ts, ts[1:]))
    assert got == dict(want)
    assert sum(got.values()) == 400 - 5  # n - one terminal per user


def test_forward_fill_matches_pandas_ffill(ray_session):
    from graphiti_ray.stages.windows import forward_fill

    rng = np.random.default_rng(8)
    t0 = datetime(2024, 1, 1)
    rows = []
    for i in range(300):
        v = float(rng.integers(1, 100))
        rows.append(
            {
                "event_id": i,
                "user_id": int(i % 4),
                "ts": t0 + timedelta(seconds=int(rng.integers(0, 50000))),
                "value": None if rng.random() < 0.4 else v,
            }
        )
    out = (
        forward_fill(rd.from_items(rows).repartition(5), value_col="value")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    df = pd.DataFrame(rows).sort_values(["user_id", "ts", "event_id"])
    df["want"] = df.groupby("user_id").value.ffill()
    merged = out.merge(df[["event_id", "want"]], on="event_id")
    pd.testing.assert_series_equal(
        merged.filled, merged.want, check_names=False
    )
    # rows before a user's first observation stay null
    firsts = df.groupby("user_id").head(1)
    assert merged[merged.event_id.isin(
        firsts[firsts.value.isna()].event_id
    )].filled.isna().all()


def test_cohort_retention_matches_pandas(ray_session):
    from graphiti_ray.stages.windows import cohort_retention

    rng = np.random.default_rng(12)
    t0 = datetime(2024, 1, 1)
    rows = []
    for uid in range(30):
        start = int(rng.integers(0, 4))  # cohort week 0-3
        for w in sorted(set([start] + list(rng.integers(start, 8, 5)))):
            rows.append(
                {
                    "user_id": uid,
                    "ts": t0 + timedelta(weeks=int(w), hours=int(uid)),
                }
            )
    out = cohort_retention(rd.from_items(rows).repartition(4)).to_pandas()
    import pandas as pd

    df = pd.DataFrame(rows)
    df["period"] = (df.ts.astype("int64") // 1000) // (7 * 86400 * 1_000_000)
    first = df.groupby("user_id").period.min().rename("cohort")
    j = df.join(first, on="user_id")
    j["offset"] = j.period - j.cohort
    want = (
        j.drop_duplicates(["user_id", "cohort", "offset"])
        .groupby(["cohort", "offset"])
        .size()
    )
    got = out.set_index(["cohort", "offset"]).n_active.sort_index()
    assert got.to_dict() == want.sort_index().to_dict()
    # every cohort's offset-0 cell counts its full membership
    m = first.value_counts()
    for c, n in m.items():
        assert got[(c, 0)] == n


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


def test_events_growth_prefix_is_running_distinct(ray_session):
    """The operator pipeline (first-seen → per-day new → prefix sum)
    equals a brute-force running-distinct count over a staggered-user
    fixture."""
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry_mod

    rng = np.random.default_rng(21)
    t0 = datetime(2024, 1, 1)
    rows = []
    for uid in range(40):
        first_day = int(rng.integers(0, 10))
        for d in sorted(set([first_day] + list(rng.integers(first_day, 15, 4)))):
            rows.append({"user_id": uid, "ts": t0 + timedelta(days=int(d), minutes=uid)})
    import tempfile

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(
            pa.Table.from_pandas(pd.DataFrame(rows)), os.path.join(td, "events.parquet")
        )
        out = entry_mod._q_events_growth(td).to_pandas().sort_values("day")
    df = pd.DataFrame(rows)
    df["day"] = df.ts.astype("int64") // 1000 // (86400 * 1_000_000)
    first = df.groupby("user_id").day.min()
    seen = set()
    expect = {}
    for d in sorted(df.day.unique()):
        seen |= set(df[df.day == d].user_id)
        expect[d] = len(seen)
    # the op emits one row per day with >=1 NEW user (its SQL twin's
    # semantics); on those days the running total equals brute force
    assert set(out.day) == set(first.unique())
    assert all(expect[d] == t for d, t in zip(out.day, out.total_users))
    assert out.new_users.sum() == 40


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


def test_grouped_ols_matches_numpy_lattice(ray_session):
    from datetime import datetime, timedelta

    from graphiti_ray.stages.windows import grouped_ols

    origin = datetime(2024, 1, 1)
    rng = np.random.default_rng(11)
    rows = []
    # planted slopes: key 'up' trends +2.5/h, 'down' -1.25/h, 'flat' 0
    for key, slope, base in [("up", 2.5, 10.0), ("down", -1.25, 200.0), ("flat", 0.0, 50.0)]:
        for i in range(60):
            ts = origin + timedelta(hours=i, minutes=int(rng.integers(0, 59)))
            rows.append(
                {
                    "event_type": key,
                    "ts": ts,
                    "value": float(max(base + slope * i + rng.normal(0, 0.5), 0.01)),
                }
            )
    out = (
        grouped_ols(rd.from_items(rows).repartition(5))
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )
    assert len(out) == 3
    # re-derive on the same lattice with arbitrary-precision ints
    import pandas as pd

    df = pd.DataFrame(rows)
    df["x"] = ((df.ts - origin).dt.total_seconds() // 3600).astype(int)
    df["y"] = np.floor(df.value * 1000).astype(int)
    for key, g in df.groupby("event_type"):
        n = len(g)
        sx, sy = int(g.x.sum()), int(g.y.sum())
        sxy, sxx = int((g.x * g.y).sum()), int((g.x * g.x).sum())
        nu, de = n * sxy - sx * sy, n * sxx - sx * sx
        q = (abs(nu) * 10**6) // abs(de)
        want = -q if (nu < 0) != (de < 0) else q
        row = out.loc[key]
        assert row.num == nu and row.den == de and row.slope_e6 == want
    # slopes recover the planted trend: slope_e6 is in (value·1000)/hour
    # ×1e6 units, so +2.5/h → ~2.5e9 and −1.25/h → ~−1.25e9
    assert abs(out.loc["up"].slope_e6 - 2.5e9) < 0.25e9
    assert abs(out.loc["down"].slope_e6 + 1.25e9) < 0.125e9
    assert abs(out.loc["flat"].slope_e6) < 0.2e9


def test_grouped_ols_overflow_guard(ray_session):
    from datetime import datetime

    import pytest as _pytest

    from graphiti_ray.stages.windows import grouped_ols

    rows = [
        {"event_type": "a", "ts": datetime(2300, 1, 1), "value": 1e15},
        {"event_type": "a", "ts": datetime(2301, 1, 1), "value": 2e15},
        {"event_type": "a", "ts": datetime(2302, 1, 1), "value": 3e15},
    ]
    with _pytest.raises(Exception, match="lattice overflow|int64"):
        grouped_ols(rd.from_items(rows)).to_pandas()


def test_funnel_sequence_three_steps(ray_session):
    import pandas as pd
    from datetime import datetime, timedelta

    from graphiti_ray.stages.windows import funnel_sequence

    t0 = datetime(2024, 1, 1)

    def ev(u, k, minutes):
        return {"user_id": u, "event_type": k, "ts": t0 + timedelta(minutes=minutes)}

    rows = [
        # u1 completes all three in order, within the hop window
        ev(1, "view", 0), ev(1, "click", 5), ev(1, "purchase", 9),
        # u2: purchase BEFORE click → only 2 steps reached
        ev(2, "view", 0), ev(2, "purchase", 1), ev(2, "click", 3),
        # u3: click too late (hop window 10 min) → 1 step
        ev(3, "view", 0), ev(3, "click", 25),
        # u4: no view at all → no row
        ev(4, "click", 0), ev(4, "purchase", 1),
        # u5: earliest-first semantics — second view earlier window ignored
        ev(5, "view", 0), ev(5, "view", 50), ev(5, "click", 8),
        ev(5, "purchase", 30),  # >10 min after click → 2 steps
    ]
    out = (
        funnel_sequence(
            rd.from_items(rows).repartition(4),
            steps=["view", "click", "purchase"],
            within_s=600,
        )
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    assert list(out.index) == [1, 2, 3, 5]
    assert out.loc[1].reached == 3
    assert out.loc[2].reached == 2  # purchase precedes click, not counted
    assert out.loc[3].reached == 1
    assert out.loc[5].reached == 2
    assert out.loc[1].t_3 == t0 + timedelta(minutes=9)
    assert pd.isna(out.loc[3].t_2)


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


def test_markov_stationary_two_state(ray_session):
    from datetime import datetime

    from graphiti_ray.stages.windows import markov_stationary

    # one user alternating A<->B ... -> P = [[0,1],[1,0]], uniform start
    # stays exactly uniform at every round; C appears once as a final
    # event only (dangling, never a source, never a destination) ->
    # keeps its 1/3 mass via the self-loop rule
    rows = []
    seq = ["A", "B"] * 6 + ["C"]
    for j, et in enumerate(seq):
        rows.append(
            {
                "event_id": j,
                "user_id": 1 if j < 12 else 2,
                "ts": datetime(2024, 1, 1, 0, 0, j),
                "event_type": et,
            }
        )
    out = {
        r["event_type"]: r["prob"]
        for r in markov_stationary(rd.from_items(rows), rounds=4).take_all()
    }
    assert abs(out["C"] - 1 / 3) < 1e-12
    assert abs(out["A"] - 1 / 3) < 1e-12 and abs(out["B"] - 1 / 3) < 1e-12


def test_basket_pairs_counts(ray_session):
    from graphiti_ray.stages.windows import basket_pairs

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


def test_events_gaps_and_pred_pairs_queries(ray_session):
    import __ray_entry__ as e

    gaps = e.queries()["events_gaps"]("/root/testdata/sf0.001").to_pandas()
    # single-event users: n_gaps 0, null max
    solo = gaps[gaps.n_gaps == 0]
    assert solo.max_gap_us.isna().all() if len(solo) else True
    multi = gaps[gaps.n_gaps > 0]
    assert (multi.sum_gap_us >= multi.max_gap_us).all()
    assert (multi.max_gap_us > 0).all()

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


def test_user_streaks_gaps(ray_session):
    from datetime import datetime

    from graphiti_ray.stages.windows import user_streaks

    rows = []
    # u1: days 1,2,3, 7,8 -> n=5, streak 3; u2: day 4 twice -> n=1, streak 1
    for d in [1, 2, 3, 7, 8]:
        rows.append({"user_id": 1, "ts": datetime(2024, 1, d, 12)})
    rows += [
        {"user_id": 2, "ts": datetime(2024, 1, 4, 1)},
        {"user_id": 2, "ts": datetime(2024, 1, 4, 23)},
    ]
    out = (
        user_streaks(rd.from_items(rows)).to_pandas().set_index("user_id")
    )
    assert out.loc[1].tolist() == [5, 3]
    assert out.loc[2].tolist() == [1, 1]


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
    The windows/_entry day-bucket helpers rely on this; if a DuckDB
    upgrade flips it, this probe fails before any oracle does."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc

    con = duckdb.connect()
    got = con.sql(
        "SELECT (-7) // 2, epoch_us(TIMESTAMP '1969-12-30 13:00:00') "
        "// 86400000000"
    ).fetchone()
    assert got == (-3, -1)
    arrow = pc.divide(pa.array([-7], pa.int64()), 2)[0].as_py()
    assert arrow == -3

    from graphiti_ray.stages.windows import _floor_div

    vals = pa.array([-7, 7, -126000000000], pa.int64())
    assert _floor_div(vals, 2).to_pylist()[:2] == [-3, 3]
    assert _floor_div(vals, 86400000000).to_pylist()[2] == -1


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
