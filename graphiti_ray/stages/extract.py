"""Stage 1: pages → episodes (deterministic HTML→text + episode rows).

Reference parity: an "episode" is graphiti's raw-document node
(EpisodicNode, graphiti_core/nodes.py:145-157); `valid_at` carries the
document's own event time (here `warc_ts`), `group_id` partitions the graph
(nodes.py:96) — we use the url host. Content cleaning parity:
llm_client/client.py:68-88. Episode summary stand-in (graphiti.py:426-454):
deterministic first sentence.

Execution shape: a single stateless vectorized ``map_batches`` over Arrow
batches (zero-copy). The per-row invariant — extracted text byte-identical
to the ground-truth ``text`` column per url — is enforced inline (cheap
string equality per row) and surfaces as a hard error, so a drifting
extractor can never silently produce a wrong graph.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pyarrow as pa

import ray.data as rd

from graphiti_ray.functions.text import (
    extract_text_from_html,
    first_sentence,
    md5_hex,
)

# Fixed transaction time for reproducible runs; real runs pass utcnow().
DEFAULT_RUN_TS = datetime(2024, 7, 1)

EPISODES_SCHEMA = pa.schema(
    [
        ("uuid", pa.string()),
        ("name", pa.string()),
        ("group_id", pa.string()),
        ("source", pa.string()),
        ("source_description", pa.string()),
        ("content", pa.string()),
        ("valid_at", pa.timestamp("us")),
        ("created_at", pa.timestamp("us")),
        ("summary_text", pa.string()),
    ]
)


def host_of(url: str) -> str:
    return url.split("/")[2]


class ExtractEpisodes:
    """pages batch → episodes batch. Stateless; plain function semantics but
    written as a class so config (run_ts, invariant check) is serialized once.
    """

    def __init__(self, run_ts: datetime = DEFAULT_RUN_TS, check_invariant: bool = True):
        self.run_us = np.datetime64(run_ts, "us").astype("int64")
        self.check_invariant = check_invariant

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        goldens = (
            batch.column("text").to_pylist() if "text" in batch.column_names else None
        )

        contents: list[str] = []
        uuids: list[str] = []
        groups: list[str] = []
        summaries: list[str] = []
        for i, (url, html_bytes) in enumerate(zip(urls, htmls)):
            text = extract_text_from_html(html_bytes)
            if self.check_invariant and goldens is not None and text != goldens[i]:
                raise ValueError(
                    f"extractor invariant violated for {url}: "
                    f"extracted text != golden text (version drift?)"
                )
            contents.append(text)
            uuids.append(md5_hex(url))
            groups.append(host_of(url))
            summaries.append(first_sentence(text))

        n = len(urls)
        created = pa.array(np.full(n, self.run_us, dtype="int64"), pa.timestamp("us"))
        return pa.table(
            {
                "uuid": pa.array(uuids, pa.string()),
                "name": batch.column("url"),
                "group_id": pa.array(groups, pa.string()),
                "source": pa.array(["text"] * n, pa.string()),
                "source_description": pa.array(["web page"] * n, pa.string()),
                "content": pa.array(contents, pa.string()),
                "valid_at": batch.column("warc_ts"),
                "created_at": created,
                "summary_text": pa.array(summaries, pa.string()),
            }
        )


def episodes_dataset(
    pages: rd.Dataset | pa.Table,
    run_ts: datetime = DEFAULT_RUN_TS,
    check_invariant: bool = True,
) -> rd.Dataset | pa.Table:
    """Episodes of ``pages``; a ``pa.Table`` is rendered in this process."""
    from graphiti_ray.stages.ops import map_table

    return map_table(
        pages,
        ExtractEpisodes(run_ts=run_ts, check_invariant=check_invariant),
        zero_copy_batch=True,
    )


def _filter_source(episodes: rd.Dataset, source: str | None) -> rd.Dataset:
    """S5 ``source`` filter parity (graph_data_operations.py:115-188 filters
    by EpisodeType when given): keep only episodes of one source kind."""
    if source is None:
        return episodes

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch.column("source"), source))

    return episodes.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def retrieve_episode_windows(
    episodes: rd.Dataset, window: int = 3, source: str | None = None
) -> rd.Dataset:
    """T3 parity (graph_data_operations.py:115-188, EPISODE_WINDOW_LEN=3):
    for each episode, the uuids of the previous `window` episodes of the same
    group with valid_at <= this one's, in chronological order; ``source``
    restricts to one EpisodeType like the reference's optional filter.

    Wide step: groupby(group_id) shuffle, then an in-group sort + sliding
    window — groups are per-host, bounded; skew note: a hub host only affects
    its own group block. Prefer :func:`retrieve_episode_windows_scalable`
    (the default path) when a single host can dominate the corpus.
    """
    import pandas as pd

    episodes = _filter_source(episodes, source)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["valid_at", "uuid"], kind="mergesort")
        prev: list[list[str]] = []
        buf: list[str] = []
        for u in g["uuid"]:
            prev.append(list(buf[-window:]))
            buf.append(u)
        return pd.DataFrame(
            {
                "uuid": g["uuid"].to_numpy(),
                "group_id": g["group_id"].to_numpy(),
                "valid_at": g["valid_at"].to_numpy(),
                "prev_episode_uuids": prev,
            }
        )

    return episodes.select_columns(["uuid", "group_id", "valid_at"]).groupby(
        "group_id"
    ).map_groups(per_group, batch_format="pandas")


def retrieve_episode_windows_scalable(
    episodes: rd.Dataset, window: int = 3, source: str | None = None
) -> rd.Dataset:
    """Hub-safe T3: same result as :func:`retrieve_episode_windows` but via
    ``ops.sorted_lag_list`` (global sort + ≤window-row boundary exchange) —
    no per-group grouping, so a hub host spanning many blocks is free."""
    from graphiti_ray.stages.ops import sorted_lag_list

    out = sorted_lag_list(
        _filter_source(episodes, source).select_columns(
            ["uuid", "group_id", "valid_at"]
        ),
        part_cols=["group_id"],
        order_cols=["valid_at", "uuid"],
        value_col="uuid",
        k=window,
        out_col="prev_episode_uuids",
    )
    return out
