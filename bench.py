"""Benchmark harness (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) in one fresh Ray session with
num_cpus=$RAY_GRAFT_CPUS (default 32) and print ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "triples_per_sec": ...}

--scaling: run the headline pipeline in fresh subprocesses at a low and
a high cpu level on the same input (default: a quarter of the usable
cpus and all of them; GRAFT_SCALE_LO/HI override) and report both plus
efficiency = (t_lo/t_hi)/(hi/lo) (the sandbox proxy for the N vs 4N
cluster criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _machine_busy_jiffies() -> int:
    """Whole-machine busy CPU jiffies (user+nice+system+irq+softirq+steal)
    from /proc/stat. Delta/wall ≈ average cores busy — the decisive signal
    for adjudicating a slow sample: low busy-cores ⇒ I/O- or serial-bound,
    busy≈ncpu but slow ⇒ co-tenant steal."""
    with open("/proc/stat") as f:
        parts = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    vals = [int(x) for x in parts[1:]]
    return vals[0] + vals[1] + vals[2] + vals[5] + vals[6] + (vals[7] if len(vals) > 7 else 0)


def _headline(sf_dir: str) -> dict:
    """Full KG build: read documents → pages → ... → parquet tables."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import pyarrow.parquet as pq

    from graphiti_ray.pipelines.kg import run_kg
    from graphiti_ray.sources.pages import default_num_blocks
    from graphiti_ray.state.checkpoint import parquet_row_count, table_dir

    replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "8"))
    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8))
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows * replicate

    # warm the OS page cache so we measure compute+shuffle, not first IO
    pq.read_table(f"{sf_dir}/documents.parquet")

    out_root = "/tmp/graphiti_ray_bench/kg"
    shutil.rmtree(out_root, ignore_errors=True)

    num_blocks = default_num_blocks(n_docs, cpus)

    # noise telemetry: co-tenant CPU steal on this hypervisor swings wall
    # time up to 4x (BASELINE.md noise notes); recording the 1-min loadavg
    # around each run makes the JSON artifact self-adjudicating — a slow
    # sample with high recorded load is machine noise, not a regression
    timings: dict[str, float] = {}
    load_before = os.getloadavg()[0]
    jiffies0 = _machine_busy_jiffies()
    t0 = time.perf_counter()
    metrics = run_kg(sf_dir, out_root, replicate=replicate, num_blocks=num_blocks)
    wall = time.perf_counter() - t0
    timings["kg_build"] = round(wall, 3)
    # avg cores busy machine-wide during the build (jiffy = 1/USER_HZ sec)
    hz = os.sysconf("SC_CLK_TCK")
    busy_cores = (_machine_busy_jiffies() - jiffies0) / hz / wall
    load_after = os.getloadavg()[0]

    n_edges = parquet_row_count(table_dir(out_root, "edges"))
    n_triples = 2 * n_docs  # raw extracted triples (2 facts per page)

    return {
        "timings": timings,
        "stage_walls": {
            m["table"]: round(m["wall_sec"], 3)
            for m in metrics
            if not m.get("skipped") and "wall_sec" in m
        },
        "loadavg": [round(load_before, 2), round(load_after, 2)],
        "busy_cores_avg": round(busy_cores, 2),
        "n_docs": n_docs,
        "n_edges": n_edges,
        "n_triples": n_triples,
    }


def _extras(sf_dir: str) -> dict[str, float]:
    """Secondary pipelines, timed individually (each consumes its dataset)."""
    timings: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        fn()
        timings[name] = round(time.perf_counter() - t0, 3)

    try:
        from graphiti_ray.stages.dedup import exact_dedup_documents, minhash_near_dup
        import ray.data as rd

        docs = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("dedup_exact", lambda: exact_dedup_documents(docs).count())
        docs2 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("dedup_minhash", lambda: minhash_near_dup(docs2).count())
        from graphiti_ray.stages.dedup import ngram_jaccard_pairs

        timed("dedup_ngram", lambda: ngram_jaccard_pairs(docs2).count())
        from graphiti_ray.stages.dedup import levenshtein_verified_pairs

        timed("dedup_lev", lambda: levenshtein_verified_pairs(docs2).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.stages.similarity import knn_brute_force
        import ray.data as rd

        emb = rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        timed("knn_topk", lambda: knn_brute_force(emb, n_queries=32, k=10).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.pipelines.corpus import clean_corpus
        import ray.data as rd

        docs3 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("corpus_clean", lambda: clean_corpus(docs3).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.stages.dedup import remove_duplicated_spans
        from graphiti_ray.stages.similarity import semantic_dedup
        from graphiti_ray.stages.textstats import bigram_lm_scores
        import ray.data as rd

        docs4 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("dedup_spans", lambda: remove_duplicated_spans(docs4).count())
        timed("lm_score", lambda: bigram_lm_scores(docs4).count())
        emb2 = rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        timed("semdedup", lambda: semantic_dedup(emb2).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.stages.similarity import dbscan_cosine
        from graphiti_ray.stages.textstats import naive_bayes_lang, trending_terms
        import ray.data as rd

        docs6 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        timed("nb_lang", lambda: naive_bayes_lang(docs6).count())
        timed("trending", lambda: trending_terms(docs6).count())
        emb3 = rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        timed("dbscan", lambda: dbscan_cosine(emb3).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.stages.dedup import ngram_jaccard_ppjoin
        from graphiti_ray.stages.similarity import hard_negatives, ood_margin
        import ray.data as rd

        docs7 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("dedup_ppjoin", lambda: ngram_jaccard_ppjoin(docs7).count())
        emb4 = rd.read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding", "label"],
        )
        timed("hard_negatives", lambda: hard_negatives(emb4).count())
        timed("ood_margin", lambda: ood_margin(emb4).count())
    except ImportError:
        pass

    try:
        from graphiti_ray.stages.textstats import (
            llr_collocations,
            readability_fk,
            skipgram_pairs,
        )
        import ray.data as rd

        docs8 = rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        timed("readability", lambda: readability_fk(docs8).count())
        timed("skipgrams", lambda: len(skipgram_pairs(docs8)))
        timed("llr_colloc", lambda: len(llr_collocations(docs8)))
    except ImportError:
        pass

    try:
        from graphiti_ray.pipelines.web import clean_web_corpus
        from graphiti_ray.sources.pages import pages_dataset, read_documents
        from graphiti_ray.stages.urls import synthesize_robots

        replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "8"))
        pages = pages_dataset(sf_dir, replicate=replicate)
        docs5 = read_documents(sf_dir, columns=["doc_id", "source"])
        rules = synthesize_robots(docs5)
        timed("web_clean", lambda: clean_web_corpus(pages, rules).count())
    except ImportError:
        pass
    return timings


def run_once() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    # one DISCARDED warm-up build first: repeats share a Ray session, so
    # without it run 1 pays worker/actor spin-up that later runs don't and
    # min-wall systematically selects a warm run — warming everything keeps
    # cross-round comparisons like-for-like (round-2 advice item)
    warmup = int(os.environ.get("GRAFT_BENCH_WARMUP", "1"))
    for _ in range(warmup):
        _headline(sf_dir)

    # co-tenant CPU steal on this hypervisor swings wall time up to 4x
    # run-to-run (BASELINE.md noise note); best-of-N with min wall is the
    # standard least-interference estimator for the headline build; the
    # TRUE median (middle-two mean for even N) is reported alongside for a
    # noise-robust second read, and per-run loadavg adjudicates slow samples
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
    heads = [_headline(sf_dir) for _ in range(repeats)]
    head = min(heads, key=lambda h: h["timings"]["kg_build"])
    queries = dict(head["timings"])
    # --scaling subprocesses measure only the headline; the secondary
    # pipelines would just burn scaling wall-clock after the measurement
    if os.environ.get("GRAFT_BENCH_EXTRAS", "1") != "0":
        extra_runs = [_extras(sf_dir) for _ in range(repeats)]
        for name in extra_runs[0]:
            queries[name] = min(r[name] for r in extra_runs)

    walls = sorted(h["timings"]["kg_build"] for h in heads)
    n = len(walls)
    median = walls[n // 2] if n % 2 else (walls[n // 2 - 1] + walls[n // 2]) / 2

    total = head["timings"]["kg_build"]
    result = {
        "metric": "kg_build_wall_sec_sf",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "kg_build_all_runs": [h["timings"]["kg_build"] for h in heads],
        "kg_build_median": round(median, 3),
        "kg_build_stage_walls": head["stage_walls"],
        "loadavg_per_run": [h["loadavg"] for h in heads],
        "busy_cores_per_run": [h["busy_cores_avg"] for h in heads],
        "docs_per_sec": round(head["n_docs"] / total, 2),
        "triples_per_sec": round(head["n_triples"] / total, 2),
        "n_edges": head["n_edges"],
    }
    import ray

    ray.shutdown()
    return result


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        # scaling does best-of-N at THIS level (GRAFT_SCALE_REPEATS);
        # the inner headline must run exactly once per subprocess
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_REPEATS="1",
            GRAFT_BENCH_EXTRAS="0",
        )
        cmd = [sys.executable, os.path.abspath(__file__)]
        # HARD-cap the level to ncpu physical cores. Ray's num_cpus only
        # limits concurrent task slots — pyarrow/IO thread pools and the
        # raylet/object-store processes run outside it, and /proc/stat
        # telemetry shows a "4-cpu" level actually burning ~7 cores (so
        # t_lo comes out fast and the (t_lo/t_hi)/(hi/lo) formula divides
        # by a parallelism ratio the machine never expressed). taskset is
        # inherited by every forked Ray process, so the whole level — fair
        # cluster-of-N-cores proxy — sees exactly ncpu cores.
        if shutil.which("taskset"):
            cpus = ",".join(str(c) for c in sorted(os.sched_getaffinity(0))[:ncpu])
            cmd = ["taskset", "-c", cpus] + cmd
        out = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # scaling needs compute to dominate constant per-stage overheads (the
    # ~5 s of driver orchestration + stage barriers is fixed, so on a small
    # input it alone caps measurable efficiency at ~0.7), so default to a
    # larger deterministic replication than the plain bench. 2560 × the
    # sf0.1 corpus = 12.8M docs — possible since the pg2 warc_ts wrap
    # removed the old datetime overflow at replicate≈640.
    os.environ.setdefault("GRAFT_BENCH_REPLICATE", "2560")
    # N vs 4N parallelism levels: by default hi is every cpu this process
    # may run on and lo a quarter of it (at least 1), so the run fits the
    # box it lands on. Override with GRAFT_SCALE_LO/HI.
    usable = len(os.sched_getaffinity(0))
    hi = int(os.environ.get("GRAFT_SCALE_HI", str(usable)))
    lo = int(os.environ.get("GRAFT_SCALE_LO", str(max(1, hi // 4))))
    # co-tenant CPU steal on this hypervisor swings wall time up to 2×
    # run-to-run (BASELINE.md noise note); best-of-N with min wall per
    # level is the standard least-interference estimator
    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "2"))
    # INTERLEAVE the levels (lo, hi, lo, hi, ...): the box's budget swings
    # drift over minutes, so sampling all-lo-then-all-hi lets one slow
    # window land entirely on one level and corrupt the ratio; alternating
    # gives both levels the same noise exposure before the per-level min
    runs_lo, runs_hi = [], []
    for _ in range(repeats):
        runs_lo.append(run(lo))
        runs_hi.append(run(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": f"scaling_efficiency_{lo}_to_{hi}",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"sec_{lo}_all_runs": [r["value"] for r in runs_lo],
        f"sec_{hi}_all_runs": [r["value"] for r in runs_hi],
        f"throughput_docs_sec_{lo}": r_lo["docs_per_sec"],
        f"throughput_docs_sec_{hi}": r_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        # per-level noise + saturation telemetry (same adjudication story as
        # run_once): busy_cores ≈ ncpu ⇒ CPU-bound and the efficiency number
        # is about the engine; busy_cores ≪ ncpu at the hi level ⇒ the box's
        # single disk (parquet sink + object-store spill), not the engine,
        # is the ceiling
        f"loadavg_{lo}": [r["loadavg_per_run"] for r in runs_lo],
        f"loadavg_{hi}": [r["loadavg_per_run"] for r in runs_hi],
        f"busy_cores_{lo}": [r["busy_cores_per_run"] for r in runs_lo],
        f"busy_cores_{hi}": [r["busy_cores_per_run"] for r in runs_hi],
        f"stage_walls_{lo}": r_lo["kg_build_stage_walls"],
        f"stage_walls_{hi}": r_hi["kg_build_stage_walls"],
        "sf": r_hi["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_once()))
