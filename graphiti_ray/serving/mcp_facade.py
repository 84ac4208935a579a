"""S4: MCP-shaped serving façade over the batch KG (tool surface parity).

The reference exposes graphiti through an MCP server
(mcp_server/graphiti_mcp_server.py:653-1092): ``@mcp.tool()`` functions
``add_episode`` (queued, processed sequentially per group_id,
:619-651), ``search_nodes``, ``search_facts``, ``delete_entity_edge``,
``delete_episode``, ``get_entity_edge``, ``get_episodes``,
``clear_graph`` and a ``get_status`` resource.

This module reproduces that TOOL surface — names, argument schemas,
success/error response shapes, and the per-group sequential episode queue
— over a checkpointed parquet KG root instead of Neo4j.
``list_tools()``/``call_tool()`` are the protocol seam; the matching
stdio transport (the reference's default) lives in ``mcp_stdio.py``
(``python -m graphiti_ray.serving.mcp_stdio --root <kg>``) — an SSE/HTTP
transport would wrap the same two methods but has no server runtime in
this sandbox.

Episode text is wrapped in the pipeline's canonical page HTML so the
byte-identity extraction invariant keeps holding for served episodes.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Callable

import pyarrow as pa

import ray.data as rd

from graphiti_ray.functions.text import clean_text
from graphiti_ray.stages.extract import DEFAULT_RUN_TS

_EPISODE_HTML = (
    "<html><head><title>{name}</title></head>"
    '<body><div id="main">{paragraphs}</div></body></html>'
)

DEFAULT_GROUP = "mcp.example.com"

_PAGE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def episode_to_page(
    name: str,
    episode_body: str,
    group_id: str,
    warc_ts: datetime,
    lang: str = "en",
) -> dict:
    """One MCP episode → one canonical page row (url, warc_ts, html, text,
    lang). The golden ``text`` is what the extractor must reproduce
    byte-identically from ``html``."""
    paras = [clean_text(p).strip() for p in episode_body.split("\n") if p.strip()]
    golden = "\n".join(paras)
    body = "".join(f"<p>{_html.escape(p, quote=False)}</p>" for p in paras)
    doc = _EPISODE_HTML.format(name=_html.escape(name), paragraphs=body)
    from graphiti_ray.functions.text import md5_hex

    url = f"https://{group_id}/mcp/{md5_hex(name + '|' + golden)}"
    return {
        "url": url,
        "warc_ts": warc_ts,
        "html": doc.encode("utf-8"),
        "text": golden,
        "lang": lang,
    }


def _ok(message: str) -> dict:
    return {"message": message}  # SuccessResponse shape


def _err(error: str) -> dict:
    return {"error": error}  # ErrorResponse shape


@dataclass
class ToolSpec:
    name: str
    description: str
    input_schema: dict
    fn: Callable[..., Any]


@dataclass
class GraphitiFacade:
    """The MCP tool surface over a checkpointed KG at ``out_root``."""

    out_root: str
    run_ts: datetime = DEFAULT_RUN_TS
    # run_kg's default: add_pages refuses a flag that disagrees with the
    # stored edges table, rather than writing a table of mixed schemas
    embeddings: bool = True
    _pending: list[dict] = field(default_factory=list)
    _seq: int = 0

    # -- episode ingestion (queued, per-group sequential) --------------------

    def add_episode(
        self,
        name: str,
        episode_body: str,
        group_id: str | None = None,
        source: str = "text",
        source_description: str = "",
        uuid: str | None = None,
    ) -> dict:
        """Queue an episode (graphiti_mcp_server.py:653-792 contract: the
        tool returns immediately; processing is sequential per group_id).
        ``process_pending`` drains the queue in arrival order."""
        group = group_id or DEFAULT_GROUP
        ts = self.run_ts + timedelta(seconds=self._seq)
        self._seq += 1
        row = episode_to_page(name, episode_body, group, ts)
        self._pending.append({"group_id": group, "row": row})
        return _ok(f"episode '{name}' queued for group {group}")

    def process_pending(self) -> dict:
        """Drain the episode queue: one ``add_pages`` micro-batch per
        group in first-arrival order — the batch equivalent of the
        reference's per-group asyncio worker (:619-651). Idempotent at
        episode-uuid granularity (add_pages upserts)."""
        from graphiti_ray.pipelines.incremental import add_pages

        if not self._pending:
            return _ok("queue empty")
        by_group: dict[str, list[dict]] = {}
        order: list[str] = []
        for item in self._pending:
            g = item["group_id"]
            if g not in by_group:
                order.append(g)
            by_group.setdefault(g, []).append(item["row"])
        total = 0
        for g in order:  # sequential per group, groups in arrival order
            # a pa.Table: add_pages renders, extracts and links a queue-sized
            # batch in this process when the group tables are small
            pages = pa.Table.from_pylist(by_group[g], schema=_PAGE_SCHEMA)
            stats = add_pages(
                self.out_root, pages, run_ts=self.run_ts, embeddings=self.embeddings
            )
            total += stats["episodes_added"]
        self._pending.clear()
        return _ok(f"processed {total} episode(s)")

    # -- tables ---------------------------------------------------------------

    def _tables(
        self, names=("nodes", "edges", "episodes", "mention_edges")
    ) -> dict[str, rd.Dataset]:
        """Lazy scans of the completed tables among ``names``."""
        from graphiti_ray.state.checkpoint import is_complete, read_table

        out = {}
        for name in names:
            if is_complete(self.out_root, name):
                key = "mentions" if name == "mention_edges" else name
                out[key] = read_table(self.out_root, name)
        return out

    def _search_tables(self, name: str) -> dict:
        """The table ``name`` to search, if complete: a ``pa.Table`` read in
        this process when its footers put it within ``ops.SMALL_SORT_ROWS``
        rows and ``ops.SMALL_SORT_BYTES`` uncompressed parquet bytes
        (``checkpoint.table_fits_in_process``; the bounds ``ops`` puts on a
        sort in the calling process, there on Arrow bytes; see
        ``table_footprint`` for how the two compare), else the lazy
        Dataset of ``_tables``. Each search reads its own
        copy, so a threaded server holds up to (searches in flight) such
        tables."""
        from graphiti_ray.state.checkpoint import (
            is_complete,
            read_table_arrow,
            table_fits_in_process,
        )

        if not is_complete(self.out_root, name):
            return {}
        if table_fits_in_process(self.out_root, name):
            return {name: read_table_arrow(self.out_root, name)}
        return self._tables([name])

    # -- search ----------------------------------------------------------------

    def search_nodes(
        self, query: str, group_ids: list[str] | None = None, max_nodes: int = 10
    ) -> dict:
        from graphiti_ray.pipelines.dataset_search import KGDatasetSearcher
        from graphiti_ray.pipelines.search import NODE_HYBRID_SEARCH_RRF, SearchConfig

        t = self._search_tables("nodes")
        if "nodes" not in t:
            return _err("graph not built")
        cfg = SearchConfig(
            edge_config=None,
            node_config=NODE_HYBRID_SEARCH_RRF.node_config,
            episode_config=None,
            limit=max_nodes,
        )
        res = KGDatasetSearcher(t).search(query, cfg, group_ids=group_ids)
        nodes = [
            {
                "uuid": r.uuid,
                "name": r.name,
                "group_id": r.group_id,
                "summary": r.summary,
                "attributes": json.loads(getattr(r, "attributes", "{}") or "{}"),
            }
            for r in res.nodes.itertuples(index=False)
        ]
        return {"message": "Nodes retrieved successfully", "nodes": nodes}

    def search_facts(
        self, query: str, group_ids: list[str] | None = None, max_facts: int = 10
    ) -> dict:
        from graphiti_ray.pipelines.dataset_search import KGDatasetSearcher
        from graphiti_ray.pipelines.search import EDGE_HYBRID_SEARCH_RRF, SearchConfig

        t = self._search_tables("edges")
        if "edges" not in t:
            return _err("graph not built")
        cfg = SearchConfig(
            edge_config=EDGE_HYBRID_SEARCH_RRF.edge_config,
            node_config=None,
            episode_config=None,
            limit=max_facts,
        )
        res = KGDatasetSearcher(t).search(query, cfg, group_ids=group_ids)
        facts = [self._format_fact(r) for r in res.edges.itertuples(index=False)]
        return {"message": "Facts retrieved successfully", "facts": facts}

    @staticmethod
    def _format_fact(r) -> dict:
        """format_fact_result parity (:593-616): the edge as a dict with
        embeddings stripped."""
        out = {
            "uuid": r.uuid,
            "group_id": r.group_id,
            "source_node_uuid": r.subj_uuid,
            "target_node_uuid": r.obj_uuid,
            "name": r.pred,
            "fact": r.fact,
            "valid_at": str(r.valid_at),
            "invalid_at": str(r.invalid_at) if r.invalid_at is not None else None,
            "episodes": list(r.episodes),
        }
        return out

    # -- getters / deletes ------------------------------------------------------

    def get_entity_edge(self, uuid: str) -> dict:
        from graphiti_ray.pipelines.maintenance import get_by_uuids

        t = self._tables(["edges"])
        if "edges" not in t:
            return _err("graph not built")
        rows = get_by_uuids(t["edges"], [uuid]).take_all()
        if not rows:
            return _err(f"entity edge {uuid} not found")
        r = rows[0]
        return {
            k: (str(v) if k.endswith("_at") and v is not None else v)
            for k, v in r.items()
            if not k.endswith("_embedding")
        }

    def get_episodes(
        self, group_id: str | None = None, last_n: int = 10
    ) -> list[dict] | dict:
        t = self._tables(["episodes"])
        if "episodes" not in t:
            return _err("graph not built")
        eps = t["episodes"]
        if group_id:
            from graphiti_ray.pipelines.maintenance import get_by_group_ids

            eps = get_by_group_ids(eps, [group_id], limit=10**9)
        rows = (
            eps.sort(["valid_at", "uuid"], descending=[True, False])
            .limit(last_n)
            .take_all()
        )
        return [
            {
                "uuid": r["uuid"],
                "name": r["name"],
                "group_id": r["group_id"],
                "content": r["content"],
                "valid_at": str(r["valid_at"]),
            }
            for r in rows
        ]

    def delete_entity_edge(self, uuid: str) -> dict:
        from graphiti_ray.pipelines.maintenance import get_by_uuids
        from graphiti_ray.state.checkpoint import read_table, replace_table

        t = self._tables(["edges"])
        if "edges" not in t:
            return _err("graph not built")
        if not get_by_uuids(t["edges"], [uuid]).take_all():
            return _err(f"entity edge {uuid} not found")

        def drop(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(pc.not_equal(batch.column("uuid"), uuid))

        replace_table(
            self.out_root,
            "edges",
            read_table(self.out_root, "edges").map_batches(
                drop, batch_format="pyarrow", zero_copy_batch=True
            ),
        )
        return _ok(f"entity edge {uuid} deleted")

    def delete_episode(self, uuid: str) -> dict:
        from graphiti_ray.pipelines.maintenance import remove_episode
        from graphiti_ray.state.checkpoint import replace_table

        t = self._tables()
        if "episodes" not in t:
            return _err("graph not built")
        if not [r for r in t["episodes"].filter(expr=f"uuid == {uuid!r}").take(1)]:
            return _err(f"episode {uuid} not found")
        new_tables = remove_episode(t, uuid)
        name_map = {"mentions": "mention_edges"}
        for key, ds in new_tables.items():
            replace_table(self.out_root, name_map.get(key, key), ds)
        return _ok(f"episode {uuid} deleted")

    def save_entity_node(
        self,
        name: str,
        group_id: str | None = None,
        uuid: str | None = None,
        summary: str = "",
    ) -> dict:
        """Upsert one entity node (REST POST /entity-node,
        server/graph_service/routers/ingest.py:103-115): deterministic
        uuid unless given, last-write-wins on collision."""
        from graphiti_ray.functions.text import entity_uuid
        from graphiti_ray.state.checkpoint import read_table, replace_table

        group = group_id or DEFAULT_GROUP
        node_uuid = uuid or entity_uuid(group, name)
        t = self._tables(["nodes"])
        if "nodes" not in t:
            return _err("graph not built")
        nodes = t["nodes"]
        sch = nodes.schema().base_schema
        row = {
            "uuid": node_uuid,
            "name": name,
            "group_id": group,
            "labels": ["Entity"],
            "summary": summary or f"Entity {name}",
            "mention_count": 0,
        }
        new_row = rd.from_arrow(
            pa.table(
                {
                    f.name: pa.array([row.get(f.name)], f.type)
                    for f in sch
                }
            )
        )

        def drop(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.not_equal(batch.column("uuid"), node_uuid)
            )

        replace_table(
            self.out_root,
            "nodes",
            read_table(self.out_root, "nodes")
            .map_batches(drop, batch_format="pyarrow", zero_copy_batch=True)
            .union(new_row),
        )
        return {k: row[k] for k in ("uuid", "name", "group_id", "summary")}

    def delete_group(self, group_id: str) -> dict:
        """Wipe one graph partition (REST DELETE /group/{group_id},
        ingest.py:124-127): anti-filter every table on group_id."""
        from graphiti_ray.pipelines.maintenance import clear_groups
        from graphiti_ray.state.checkpoint import replace_table

        t = self._tables()
        if not t:
            return _err("graph not built")
        new_tables = clear_groups(t, [group_id])
        name_map = {"mentions": "mention_edges"}
        for key, ds in new_tables.items():
            replace_table(self.out_root, name_map.get(key, key), ds)
        return _ok(f"group {group_id} deleted")

    def get_groups(self) -> dict:
        """Distinct group_ids across the graph (admin GET /get-all-groups,
        graph_admin_routes.py:48-66)."""
        from graphiti_ray.stages.ops import distinct_by_key

        t = self._tables()
        if not t:
            return {"groups": []}
        parts = []
        for ds in t.values():
            if "group_id" in ds.schema().names:
                parts.append(ds.select_columns(["group_id"]))
        if not parts:
            return {"groups": []}
        ds = parts[0]
        for p in parts[1:]:
            ds = ds.union(p)
        groups = sorted(
            r["group_id"] for r in distinct_by_key(ds, "group_id").take_all()
        )
        return {"groups": groups}

    def clear_graph(self) -> dict:
        """clear_data parity (:1066-1090): wipe every table under the root."""
        import shutil

        shutil.rmtree(self.out_root, ignore_errors=True)
        self._pending.clear()
        return _ok("graph cleared")

    def get_status(self) -> dict:
        from graphiti_ray.state.checkpoint import is_complete, table_rows

        tables = {}
        for name in ["episodes", "nodes", "edges", "mention_edges"]:
            if is_complete(self.out_root, name):
                tables[name] = table_rows(self.out_root, name)
        return {
            "status": "ok" if tables else "empty",
            "root": self.out_root,
            "tables": tables,
            "pending_episodes": len(self._pending),
        }

    # -- MCP protocol seam -------------------------------------------------------

    def list_tools(self) -> list[ToolSpec]:
        def schema(required: list[str], optional: dict[str, str] | None = None):
            props = {k: {"type": "string"} for k in required}
            props.update({k: {"type": t} for k, t in (optional or {}).items()})
            return {"type": "object", "properties": props, "required": required}

        return [
            ToolSpec(
                "add_episode",
                "Add an episode to memory (queued; processed per group)",
                schema(["name", "episode_body"], {"group_id": "string", "source": "string", "source_description": "string", "uuid": "string"}),
                self.add_episode,
            ),
            ToolSpec(
                "search_nodes",
                "Search for relevant node summaries",
                schema(["query"], {"group_ids": "array", "max_nodes": "integer"}),
                self.search_nodes,
            ),
            ToolSpec(
                "search_facts",
                "Search for relevant facts (entity edges)",
                schema(["query"], {"group_ids": "array", "max_facts": "integer"}),
                self.search_facts,
            ),
            ToolSpec(
                "delete_entity_edge", "Delete an entity edge", schema(["uuid"]), self.delete_entity_edge
            ),
            ToolSpec(
                "delete_episode", "Delete an episode", schema(["uuid"]), self.delete_episode
            ),
            ToolSpec(
                "get_entity_edge", "Get an entity edge by uuid", schema(["uuid"]), self.get_entity_edge
            ),
            ToolSpec(
                "get_episodes",
                "Get the most recent episodes for a group",
                schema([], {"group_id": "string", "last_n": "integer"}),
                self.get_episodes,
            ),
            ToolSpec("clear_graph", "Clear all graph data", schema([]), self.clear_graph),
            ToolSpec("get_status", "Server and graph status", schema([]), self.get_status),
        ]

    def call_tool(self, name: str, arguments: dict | None = None) -> Any:
        """Protocol dispatch: validate required arguments against the tool's
        schema, then call. Unknown tool / missing args → ErrorResponse."""
        arguments = arguments or {}
        for spec in self.list_tools():
            if spec.name != name:
                continue
            missing = [
                k for k in spec.input_schema["required"] if k not in arguments
            ]
            if missing:
                return _err(f"missing required argument(s): {missing}")
            unknown = set(arguments) - set(spec.input_schema["properties"])
            if unknown:
                return _err(f"unknown argument(s): {sorted(unknown)}")
            return spec.fn(**arguments)
        return _err(f"unknown tool: {name}")
