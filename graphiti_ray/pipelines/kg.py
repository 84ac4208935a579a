"""The flagship pipeline: pages → temporal knowledge graph tables.

Generalizes ``Graphiti.add_episode`` (graphiti.py:267-484) /
``add_episode_bulk`` (graphiti.py:487-598) to a dataset-parallel run —
including the temporal invalidation pass that bulk mode skips
(graphiti.py:520-523 marks that a WIP; we run T1 always):

    pages ─ mb ─→ episodes ─ mb-actor(one fused pass) ─→ extracted
                                    │ filter(kind=m)        │ filter(kind=t)
                                    ▼                       ▼
                 gb(group) ─→ canonical map           raw triples
                      │ (small: vocabulary-sized)          │
                      ├────────── ray.put broadcast ───────┤
                      ▼                                    ▼
        nodes ←─ gb  │  mention_edges ←─ mb+distinct   resolved triples
                                                           │ sorted-run merge
                                                           │ (edge key)
                                                           ▼
                         edges ←─ sorted-lead temporal sweep (inval key)

The merge is a per-batch combiner, one range sort and a per-block
finalize over complete key runs (``ops.sorted_run_map``); the sweep is
``lead(valid_at)`` per invalidation key (``ops.sorted_lead``): one range
sort plus a block-boundary exchange, no per-key grouping.

Join strategy: the canonical map is vocabulary-sized (one row per distinct
(host, surface)), so it is broadcast via ``ray.put`` and applied inside
``map_batches`` — the corpus-sized mentions/triples sides are never
shuffled for linking. Above ``link.BROADCAST_LIMIT`` rows the pipeline
falls back to the hash-partitioned ``Dataset.join`` path
(``stages/link.apply_canonical``).

Two drivers:
- ``build_kg``  in-memory datasets (tests, driver queries);
- ``run_kg``    checkpointed parquet run (bench, production shape): each
                table lands under <out_root>/<table>/ with MANIFEST.json
                lineage + _SUCCESS (state/checkpoint.py), so a killed run
                resumes at the first incomplete table.
"""

from __future__ import annotations

from datetime import datetime

import ray.data as rd

import graphiti_ray as gr
from graphiti_ray.sources.pages import pages_dataset
from graphiti_ray.stages.extract import DEFAULT_RUN_TS, episodes_dataset
# auto_embedding: deterministic hashing embedder by default; the
# $GRAPHITI_RAY_EMBED_MODEL env flag swaps in a sentence-transformers
# actor pool when the package is installed (ST2 real-model seam)
from graphiti_ray.stages.models import auto_embedding as with_embedding
from graphiti_ray.stages.link import (
    BROADCAST_LIMIT,
    apply_canonical,
    apply_canonical_broadcast,
    canonical_map,
    canon_lookup_ref,
    mention_edges_broadcast,
    nodes_from_canonical,
)
from graphiti_ray.stages.nlp import extracted_dataset, split_extracted
from graphiti_ray.stages.temporal import (
    episodes_to_list,
    invalidation_sweep_scalable,
    merged_edges,
)


def build_kg(
    pages: rd.Dataset,
    run_ts: datetime = DEFAULT_RUN_TS,
    num_partitions: int | None = None,
    nlp_concurrency=None,
    embeddings: bool = True,
    node_summaries: bool = False,
    typed_attributes: bool = False,
) -> dict[str, rd.Dataset]:
    """All KG tables as datasets from an in-memory pages input.
    ``node_summaries=True`` replaces the template node summary with a
    fact-derived digest (M5 parity, link.with_node_summaries); it
    materializes edges so the edge pipeline doesn't run twice.
    ``typed_attributes=True`` fills each node's ``attributes`` bag through
    the runtime-typed extractors (M5 attribute parity,
    stages/attributes.py — the pydantic.create_model analogue,
    node_operations.py:449-536).

    Episodes and the fused extraction output are materialized once — each
    feeds two consumers and re-running the heaviest maps per consumer would
    double the work. At production scale use ``run_kg`` (parquet checkpoint
    instead of object-store pin).
    """
    episodes = episodes_dataset(pages, run_ts=run_ts)
    return build_kg_from_episodes(
        episodes,
        run_ts=run_ts,
        num_partitions=num_partitions,
        nlp_concurrency=nlp_concurrency,
        embeddings=embeddings,
        node_summaries=node_summaries,
        typed_attributes=typed_attributes,
    )


def build_kg_from_episodes(
    episodes: rd.Dataset,
    run_ts: datetime = DEFAULT_RUN_TS,
    num_partitions: int | None = None,
    nlp_concurrency=None,
    embeddings: bool = True,
    node_summaries: bool = False,
    typed_attributes: bool = False,
) -> dict[str, rd.Dataset]:
    """Same as :func:`build_kg` but from an EPISODES_SCHEMA dataset — any
    EpisodeType mix (text / message / json, sources/messages.py) flows
    through the one extraction → linking → temporal pipeline, matching the
    reference where add_episode handles all EpisodeTypes uniformly after
    per-source extraction prompts (graphiti.py:267-484)."""
    episodes = episodes.materialize()
    extracted = extracted_dataset(episodes, concurrency=nlp_concurrency).materialize()
    mentions, triples = split_extracted(extracted)

    canon = canonical_map(mentions).materialize()  # small: distinct surfaces
    nodes = nodes_from_canonical(canon)
    if embeddings:
        nodes = with_embedding(nodes, "name", "name_embedding")

    if canon.count() <= BROADCAST_LIMIT:
        lut = canon_lookup_ref(canon)
        resolved = apply_canonical_broadcast(triples, lut)
        m_edges = mention_edges_broadcast(mentions, lut)
    else:  # web-scale fallback: hash-partitioned join
        resolved = apply_canonical(triples, canon, num_partitions=num_partitions)
        from graphiti_ray.pipelines._joins import mention_edges_join

        m_edges = mention_edges_join(mentions, canon, num_partitions)

    edges = invalidation_sweep_scalable(merged_edges(resolved, run_ts), run_ts)
    if embeddings:
        edges = with_embedding(edges, "fact", "fact_embedding")
    edges = episodes_to_list(edges)

    if node_summaries:
        from graphiti_ray.stages.link import with_node_summaries

        edges = edges.materialize()
        nodes = with_node_summaries(nodes, edges, num_partitions=num_partitions)

    if typed_attributes:
        from graphiti_ray.stages.attributes import with_typed_attributes

        edges = edges.materialize()
        nodes = with_typed_attributes(nodes, edges)

    return {
        "episodes": episodes,
        "mentions": m_edges,
        "nodes": nodes,
        "edges": edges,
        "canonical_map": canon,
    }


def run_kg(
    sf_dir: str,
    out_root: str,
    run_ts: datetime = DEFAULT_RUN_TS,
    num_partitions: int | None = None,
    nlp_concurrency=None,
    embeddings: bool = True,
    replicate: int = 1,
    num_blocks: int | None = None,
    concurrent_stages: bool = False,
    communities: bool = False,
    node_summaries: bool = False,
    typed_attributes: bool = False,
) -> list[dict]:
    """Checkpointed staged run: every stage boundary is a parquet table with
    lineage + metrics; a rerun skips completed tables (resumability
    criterion, BASELINE.md). One fused extraction pass feeds everything."""
    from graphiti_ray.state.checkpoint import (
        checkpointed_write,
        is_complete,
        read_table,
        table_rows,
    )

    lineage = {
        "input": sf_dir,
        "versions": {
            "pagegen": gr.PAGEGEN_VERSION,
            "extract": gr.TEXT_EXTRACT_VERSION,
            "embed": gr.EMBED_VERSION,
        },
    }
    metrics: list[dict] = []

    def stage(name, make, **kw) -> rd.Dataset:
        """Write-or-skip one checkpointed table; returns it as a Dataset.
        A FRESH write materializes once and hands the object-store blocks
        straight to both the parquet sink and the next stage — no re-scan
        of the just-written files this run (the object store spills under
        pressure, so pinning a table is safe at any scale). A SKIPPED
        (resume) stage reads back from parquet — durability unchanged."""
        if is_complete(out_root, name):
            metrics.append({"table": name, "skipped": True})
            return read_table(out_root, name)
        import time

        t0 = time.perf_counter()
        ds = make().materialize()
        m = checkpointed_write(ds, out_root, name, lineage, **kw)
        # the stage's wall is compute (materialize) + sink, not just the
        # parquet flush — bench.py surfaces these per-stage walls
        m["wall_sec"] = time.perf_counter() - t0
        metrics.append(m)
        return ds

    episodes = stage(
        "episodes",
        lambda: episodes_dataset(
            pages_dataset(sf_dir, replicate=replicate, num_blocks=num_blocks),
            run_ts=run_ts,
        ),
    )

    extracted = stage(
        "extracted",
        lambda: extracted_dataset(episodes, concurrency=nlp_concurrency),
    )
    # episodes' only consumer is the extracted stage — drop the reference so
    # its materialized blocks can be evicted instead of staying pinned in
    # the object store for the rest of the run (at replicate=640 that's the
    # difference between streaming headroom and a spill storm)
    episodes = None
    mentions, triples = split_extracted(extracted)

    canon = stage("canonical_map", lambda: canonical_map(mentions))

    def make_nodes():
        nodes = nodes_from_canonical(canon)
        return with_embedding(nodes, "name", "name_embedding") if embeddings else nodes

    n_canon = table_rows(out_root, "canonical_map")
    use_broadcast = (n_canon or 0) <= BROADCAST_LIMIT
    if use_broadcast:
        # vocabulary-sized sidecar: plain pyarrow read, no streaming exec
        from graphiti_ray.state.checkpoint import read_table_pandas

        lut = canon_lookup_ref(read_table_pandas(out_root, "canonical_map"))
    else:
        lut = None

    def make_mention_edges():
        if use_broadcast:
            return mention_edges_broadcast(mentions, lut)
        from graphiti_ray.pipelines._joins import mention_edges_join

        return mention_edges_join(mentions, canon, num_partitions)

    def make_edges():
        if use_broadcast:
            resolved = apply_canonical_broadcast(triples, lut)
        else:
            resolved = apply_canonical(triples, canon, num_partitions=num_partitions)
        edges = invalidation_sweep_scalable(merged_edges(resolved, run_ts), run_ts)
        if embeddings:
            edges = with_embedding(edges, "fact", "fact_embedding")
        return episodes_to_list(edges)

    # nodes / mention_edges / edges only depend on (extracted, canon); they
    # can run concurrently (one thread per checkpointed write) — measured to
    # help under-provisioned sessions but to HURT a fully-provisioned one
    # (competing streaming executors thrash the object store), so default
    # sequential.
    if concurrent_stages:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=3) as pool:
            futs = [
                pool.submit(stage, "nodes", make_nodes),
                pool.submit(stage, "mention_edges", make_mention_edges),
                pool.submit(stage, "edges", make_edges),
            ]
            nodes_ds, _m_edges_ds, edges_ds = [f.result() for f in futs]
    else:
        nodes_ds = stage("nodes", make_nodes)
        stage("mention_edges", make_mention_edges)
        edges_ds = stage("edges", make_edges)

    if node_summaries:
        # M5 digest over the checkpointed edges; rewrite the nodes table
        # (idempotent: recomputing yields the same digests)
        from graphiti_ray.stages.link import with_node_summaries
        from graphiti_ray.state.checkpoint import replace_table

        nodes2 = with_node_summaries(
            nodes_ds, edges_ds, num_partitions=num_partitions
        )
        replace_table(out_root, "nodes", nodes2)
        nodes_ds = read_table(out_root, "nodes")  # replaced on disk → re-read
        metrics.append({"table": "nodes", "summarized": True})

    if typed_attributes:
        # M5 runtime-typed attributes over the checkpointed edges; rewrite
        # the nodes table (idempotent: same winners on recompute)
        from graphiti_ray.stages.attributes import with_typed_attributes
        from graphiti_ray.state.checkpoint import replace_table

        nodes3 = with_typed_attributes(nodes_ds, edges_ds)
        replace_table(out_root, "nodes", nodes3)
        nodes_ds = read_table(out_root, "nodes")
        metrics.append({"table": "nodes", "typed_attributes": True})

    if communities and not (
        is_complete(out_root, "communities")
        and is_complete(out_root, "community_edges")
    ):
        # one label-propagation pass feeds both tables
        from graphiti_ray.stages.graph import build_communities

        comm = build_communities(nodes_ds, edges_ds)
        stage("communities", lambda: comm["communities"])
        stage("community_edges", lambda: comm["community_edges"])
    elif communities:
        metrics.append({"table": "communities", "skipped": True})
        metrics.append({"table": "community_edges", "skipped": True})
    return metrics
