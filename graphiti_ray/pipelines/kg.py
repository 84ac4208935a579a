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

One chain, three runners: ``_kg_chain`` declares the tables in
dependency order (episodes → extracted → canonical_map → nodes →
mention_edges → edges, then the optional node rewrites and the two
community tables) and makes each through a stage runner the caller
passes in:
- ``build_kg``  in-memory: each table is ``make().materialize()``
                (tests, driver queries);
- ``run_kg``    checkpointed parquet run (bench, production shape): each
                table is written once under <out_root>/<table>/ with
                MANIFEST.json lineage + _SUCCESS (state/checkpoint.py), so
                a killed run resumes at the first incomplete table;
- ``incremental.add_pages``  one increment: each table is made for the
                affected groups only and swapped in beside the untouched
                groups' rows (pipelines/incremental.py).
The chain calls every kernel through the caller's module, so a wrapper
swapped in on ``kg`` or on ``incremental`` (perfbench's traced build and
ingest) is the one that runs. Kernels take a ``pa.Table`` as well as a
Dataset: when the ``extracted`` stage gives a table, the chain passes
tables from kernel to kernel in the calling process.

``run_kg`` writes each materialized table by one of two rules, whether it
fits the in-process bounds (``checkpoint.fits_in_process``: rows and
in-memory bytes, both metadata of the materialized Dataset): a table that
fits is fetched once as a ``pa.Table`` and written by pyarrow as one
parquet file; a larger one keeps Ray's parquet writers. Either way the
next stage gets the materialized Dataset, so nothing is re-read. The
sort-based kernels the stages call (``canonical_map``,
``nodes_from_canonical``, ``merged_edges``, the sweep) follow the same
rule inside ``stages/ops.py``: within the bounds each sorts and runs once
over one table in the calling process, so a small graph is built one
Arrow table per stage.
"""

from __future__ import annotations

import sys
from datetime import datetime

import pyarrow as pa
import ray.data as rd

import graphiti_ray as gr
from graphiti_ray.sources.pages import pages_dataset
from graphiti_ray.stages.extract import DEFAULT_RUN_TS, episodes_dataset

# The kernels _kg_chain calls through this module (``sys.modules[__name__]``)
# for build_kg and run_kg; incremental.py imports its own set.
# auto_embedding: deterministic hashing embedder by default; the
# $GRAPHITI_RAY_EMBED_MODEL env flag swaps in a sentence-transformers
# actor pool when the package is installed (ST2 real-model seam)
from graphiti_ray.stages.models import auto_embedding as with_embedding  # noqa: F401
from graphiti_ray.stages.link import (  # noqa: F401
    BROADCAST_LIMIT,
    apply_canonical,
    apply_canonical_broadcast,
    canonical_map,
    canon_lookup_ref,
    mention_edges_broadcast,
    nodes_from_canonical,
)
from graphiti_ray.stages.nlp import extracted_dataset, split_extracted  # noqa: F401
from graphiti_ray.stages.temporal import (  # noqa: F401
    episodes_to_list,
    invalidation_sweep_scalable,
    merged_edges,
)
from graphiti_ray.state.checkpoint import fetch_table


def _dataset(rows: rd.Dataset | pa.Table) -> rd.Dataset:
    """``rows`` as a Dataset."""
    return rd.from_arrow(rows) if isinstance(rows, pa.Table) else rows


def _kg_chain(
    kernels,
    stage,
    replace,
    make_episodes,
    run_ts: datetime,
    num_partitions: int | None,
    nlp_concurrency,
    embeddings: bool,
    node_summaries: bool,
    typed_attributes: bool = False,
    communities: bool = False,
) -> tuple:
    """Every KG table, in order, through the caller's runners:
    ``stage(name, make)`` makes one table from a zero-argument plan builder
    and returns it; ``replace(name, ds, tag)`` rewrites a made table.
    Each kernel is looked up on ``kernels``, the calling pipeline's module,
    at call time. Returns the final (nodes, edges)."""
    k = kernels
    episodes = stage("episodes", make_episodes)
    extracted = stage(
        "extracted", lambda: k.extracted_dataset(episodes, concurrency=nlp_concurrency)
    )
    # episodes' only consumer is the extracted stage — drop the reference so
    # its materialized blocks can be evicted instead of staying pinned in
    # the object store for the rest of the run (at replicate=640 that's the
    # difference between streaming headroom and a spill storm)
    episodes = None
    mentions, triples = k.split_extracted(extracted)
    if isinstance(extracted, pa.Table):
        # the views come back as Datasets (their rows are counted); fetched
        # once, the kernels below chain tables in this process
        mentions, triples = fetch_table(mentions), fetch_table(triples)

    canon = stage("canonical_map", lambda: k.canonical_map(mentions))
    rows = canon.num_rows if isinstance(canon, pa.Table) else canon.count()
    broadcast = rows <= k.BROADCAST_LIMIT
    lut = k.canon_lookup_ref(canon) if broadcast else None

    def make_nodes():
        nodes = k.nodes_from_canonical(canon)
        return k.with_embedding(nodes, "name", "name_embedding") if embeddings else nodes

    def make_mention_edges():
        if broadcast:
            return k.mention_edges_broadcast(mentions, lut)
        from graphiti_ray.pipelines._joins import mention_edges_join

        return mention_edges_join(_dataset(mentions), _dataset(canon), num_partitions)

    def make_edges():
        if broadcast:
            resolved = k.apply_canonical_broadcast(triples, lut)
        else:  # web-scale fallback: hash-partitioned join
            resolved = k.apply_canonical(
                _dataset(triples), _dataset(canon), num_partitions=num_partitions
            )
        edges = k.invalidation_sweep_scalable(k.merged_edges(resolved, run_ts), run_ts)
        if embeddings:
            edges = k.with_embedding(edges, "fact", "fact_embedding")
        return k.episodes_to_list(edges)

    nodes = stage("nodes", make_nodes)
    stage("mention_edges", make_mention_edges)
    edges = stage("edges", make_edges)

    if node_summaries:
        # M5 digest over the made edges (idempotent: same digests on rerun)
        from graphiti_ray.stages.link import with_node_summaries

        nodes = replace(
            "nodes",
            with_node_summaries(nodes, edges, num_partitions=num_partitions),
            "summarized",
        )
    if typed_attributes:
        from graphiti_ray.stages.attributes import with_typed_attributes

        nodes = replace(
            "nodes", with_typed_attributes(nodes, edges), "typed_attributes"
        )
    if communities:
        # one label-propagation pass feeds both tables, run when a runner
        # first makes one (a resumed run_kg that skips both never runs it)
        comm = {}

        def make_community(name):
            if not comm:
                from graphiti_ray.stages.graph import build_communities

                comm.update(build_communities(_dataset(nodes), _dataset(edges)))
            return comm[name]

        for name in ("communities", "community_edges"):
            stage(name, lambda name=name: make_community(name))
    return nodes, edges


def build_kg(
    pages: rd.Dataset,
    run_ts: datetime = DEFAULT_RUN_TS,
    num_partitions: int | None = None,
    nlp_concurrency=None,
    embeddings: bool = True,
    node_summaries: bool = False,
    typed_attributes: bool = False,
) -> dict[str, rd.Dataset]:
    """All KG tables as materialized datasets from an in-memory pages
    input. ``node_summaries=True`` replaces the template node summary with
    a fact-derived digest (M5 parity, link.with_node_summaries).
    ``typed_attributes=True`` fills each node's ``attributes`` bag through
    the runtime-typed extractors (M5 attribute parity,
    stages/attributes.py — the pydantic.create_model analogue,
    node_operations.py:449-536). At production scale use ``run_kg``
    (parquet checkpoint instead of object-store pin).
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
    tables: dict[str, rd.Dataset] = {}

    def stage(name, make) -> rd.Dataset:
        tables[name] = make().materialize()
        return tables[name]

    nodes, edges = _kg_chain(
        sys.modules[__name__],
        stage,
        lambda _name, ds, _tag: ds.materialize(),
        lambda: episodes,
        run_ts=run_ts,
        num_partitions=num_partitions,
        nlp_concurrency=nlp_concurrency,
        embeddings=embeddings,
        node_summaries=node_summaries,
        typed_attributes=typed_attributes,
    )
    return {
        "episodes": tables["episodes"],
        "mentions": tables["mention_edges"],
        "nodes": nodes,
        "edges": edges,
        "canonical_map": tables["canonical_map"],
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
    communities: bool = False,
    node_summaries: bool = False,
) -> list[dict]:
    """Checkpointed staged run: every stage boundary is a parquet table with
    lineage + metrics; a rerun skips completed tables (resumability
    criterion, BASELINE.md). One fused extraction pass feeds everything.
    Returns one metrics dict per table, in order."""
    import time

    # checkpoint functions are looked up on the module at call time, so a
    # wrapper swapped in there (perfbench's traced run) is the one called
    from graphiti_ray.state import checkpoint

    lineage = {
        "input": sf_dir,
        "versions": {
            "pagegen": gr.PAGEGEN_VERSION,
            "extract": gr.TEXT_EXTRACT_VERSION,
            "embed": gr.EMBED_VERSION,
        },
    }
    metrics: list[dict] = []

    def stage(name, make) -> rd.Dataset:
        """Write-or-skip one checkpointed table; returns it as a Dataset.
        A FRESH write materializes once and hands the object-store blocks
        straight to both the parquet sink and the next stage — no re-scan
        of the just-written files this run (the object store spills under
        pressure, so pinning a table is safe at any scale). A SKIPPED
        (resume) stage reads back from parquet — durability unchanged."""
        if checkpoint.is_complete(out_root, name):
            metrics.append({"table": name, "skipped": True})
            return checkpoint.read_table(out_root, name)
        t0 = time.perf_counter()
        ds = make().materialize()
        # the stage's wall (returned and in the MANIFEST) is compute
        # (materialize) + sink, not just the parquet flush (``sink_sec``)
        m = checkpoint.checkpointed_write(
            checkpoint.table_if_fits(ds), out_root, name, lineage, started=t0
        )
        metrics.append(m)
        return ds

    def replace(name, ds, tag) -> rd.Dataset:
        """Atomically rewrite a made table (idempotent node post-steps)."""
        t0 = time.perf_counter()
        ds = ds.materialize()
        checkpoint.replace_table(
            out_root, name, checkpoint.table_if_fits(ds), started=t0
        )
        metrics.append({"table": name, tag: True})
        return ds

    _kg_chain(
        sys.modules[__name__],
        stage,
        replace,
        lambda: episodes_dataset(
            pages_dataset(sf_dir, replicate=replicate, num_blocks=num_blocks),
            run_ts=run_ts,
        ),
        run_ts=run_ts,
        num_partitions=num_partitions,
        nlp_concurrency=nlp_concurrency,
        embeddings=embeddings,
        node_summaries=node_summaries,
        communities=communities,
    )
    return metrics
