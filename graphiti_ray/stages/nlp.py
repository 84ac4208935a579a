"""Stage 2: episodic NLP — entity mentions (NER) and relation triples.

Reference parity (deterministic stand-ins for LLM prompts):
- ``MentionExtractor`` ← ``extract_nodes`` (node_operations.py:73-218,
  prompts/extract_nodes.py): speaker/entity mention spotting over episode
  content, labels from type rules (Person/Organization/Place/Entity).
- ``TripleExtractor`` ← ``extract_edges`` (edge_operations.py:83-224,
  prompts/extract_edges.py:25-41): SCREAMING_SNAKE predicates, a natural
  language ``fact`` per edge, endpoints restricted to extracted mentions
  (edge_operations.py:186-203 drops unmapped endpoints).
- date attachment ← ``extract_edge_dates`` (temporal_operations.py:33-71):
  ``valid_at`` defaults to the episode's event time (warc_ts) and an explicit
  in-text date ("since 2023", "in March 2021") overrides it — resolved
  against the episode reference time like the reference's prompt does.

Execution shape: actor-pool ``map_batches`` (patterns compiled once per
actor in ``__init__``), Arrow in / Arrow out, one pass per output table.
The regex work is C-level per row; batch loops only assemble list columns.
"""

from __future__ import annotations

import re

import pyarrow as pa

import ray.data as rd

# A proper-name token: an initial ("A.") or a capitalized word; an entity is
# 1+ tokens separated by single spaces. RE2-compatible (works in DuckDB too).
ENT = r"(?:[A-Z]\.|[A-Z][A-Za-z]+)(?: (?:[A-Z]\.|[A-Z][A-Za-z]+))*"

# (pattern template, predicate). Applied with finditer over full content.
RELATION_TEMPLATES: list[tuple[str, str]] = [
    (rf"({ENT}) works at ({ENT})", "WORKS_AT"),
    (rf"({ENT}) is the CEO of ({ENT})", "CEO_OF"),
    (rf"({ENT}) likes ({ENT})", "LIKES"),
    (rf"({ENT}) dislikes ({ENT})", "DISLIKES"),
    (rf"({ENT}) is located in ({ENT})", "LOCATED_IN"),
    (rf"({ENT}) acquired ({ENT})", "ACQUIRED"),
    (rf"({ENT}) is married to ({ENT})", "MARRIED_TO"),
]

# Words the bare NER pattern would match but that are never entities.
NER_STOPWORDS = frozenset({"CEO", "The", "A", "I", "He", "She", "It", "They"})

ORG_SUFFIXES = frozenset(
    {"Corp", "Inc", "LLC", "Labs", "Industries", "Enterprises", "Software", "Ltd", "Company"}
)

# role → label vote (used at canonicalization to pick node labels)
SUBJ_LABEL = {
    "WORKS_AT": "Person",
    "CEO_OF": "Person",
    "LIKES": "Person",
    "DISLIKES": "Person",
    "MARRIED_TO": "Person",
    "LOCATED_IN": "Organization",
    "ACQUIRED": "Organization",
}
OBJ_LABEL = {
    "WORKS_AT": "Organization",
    "CEO_OF": "Organization",
    "LIKES": "Person",
    "DISLIKES": "Person",
    "MARRIED_TO": "Person",
    "LOCATED_IN": "Place",
    "ACQUIRED": "Organization",
}

# message episode body: "role(role_type): content" (nodes.py:57-79 says a
# message's content is "actor: content"; the server formats it with the
# role_type parenthetical, ingest.py:79 — we parse that exact shape)
_MSG_PREFIX_RE = re.compile(r"^([^:()]+)\(([^()]*)\): ")


def split_message(content: str) -> tuple[str | None, str]:
    """(speaker, body) of a message episode; (None, content) if the
    role prefix is absent (defensive: treat as plain text)."""
    m = _MSG_PREFIX_RE.match(content)
    if not m:
        return None, content
    return m.group(1).strip(), content[m.end() :]


# json episode extraction key-rule (the deterministic stand-in for
# prompts/extract_nodes.py:118-167 "extract entities from a JSON document"):
# a record with subject/predicate/object string fields yields the two
# entity mentions and one triple; the predicate verb is snake_case and
# SCREAMING_SNAKEs into the edge predicate (prompts/extract_edges.py:26).
_JSON_TRIPLE_KEYS = ("subject", "predicate", "object")


def extract_json_record(content: str):
    """Parse a json episode body → (subj, PRED, obj) or None."""
    import json

    try:
        rec = json.loads(content)
    except (ValueError, TypeError):
        return None
    if not isinstance(rec, dict):
        return None
    vals = [rec.get(k) for k in _JSON_TRIPLE_KEYS]
    if not all(isinstance(v, str) and v for v in vals):
        return None
    subj, verb, obj = vals
    return subj, verb.upper(), obj


# Explicit in-text date patterns (M4 stand-in). Year-only → Jan 1.
_MONTHS = (
    "January|February|March|April|May|June|July|"
    "August|September|October|November|December"
)
_DATE_RES = [
    (re.compile(rf"since ({_MONTHS}) (\d{{4}})"), "month_year"),
    (re.compile(r"since (\d{4})"), "year"),
    (re.compile(rf"in ({_MONTHS}) (\d{{4}})"), "month_year"),
]
_MONTH_IDX = {m: i + 1 for i, m in enumerate(_MONTHS.split("|"))}


def parse_explicit_date(sentence: str):
    """Return a naive datetime from an explicit textual date, else None."""
    from datetime import datetime

    for rx, kind in _DATE_RES:
        m = rx.search(sentence)
        if m:
            if kind == "year":
                return datetime(int(m.group(1)), 1, 1)
            return datetime(int(m.group(2)), _MONTH_IDX[m.group(1)], 1)
    return None


def label_for_name(name: str) -> str:
    """Fallback label from surface shape (suffix gazetteer)."""
    last = name.rsplit(" ", 1)[-1]
    return "Organization" if last in ORG_SUFFIXES else "Entity"


class MentionExtractor:
    """episodes batch → mention rows (M1 parity).

    Output: episode_uuid, group_id, name, label_hint, valid_at.
    """

    def __init__(self):
        self.ent_re = re.compile(ENT)
        self.rel_res = [(re.compile(p), pred) for p, pred in RELATION_TEMPLATES]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ep_uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid_ats = batch.column("valid_at").to_pylist()
        srcs = (
            batch.column("source").to_pylist()
            if "source" in batch.column_names
            else ["text"] * batch.num_rows
        )

        out_ep, out_g, out_name, out_label, out_ts = [], [], [], [], []
        for ep, g, content, ts, src in zip(
            ep_uuids, groups, contents, valid_ats, srcs
        ):
            seen: set[str] = set()
            scan = content
            if src == "json":
                rec = extract_json_record(content)
                if rec is not None:
                    subj, pred, obj = rec
                    for nm, lab in (
                        (subj, SUBJ_LABEL.get(pred) or label_for_name(subj)),
                        (obj, OBJ_LABEL.get(pred) or label_for_name(obj)),
                    ):
                        if nm in seen:
                            continue
                        seen.add(nm)
                        out_ep.append(ep)
                        out_g.append(g)
                        out_name.append(nm)
                        out_label.append(lab)
                        out_ts.append(ts)
                    continue
            elif src == "message":
                speaker, scan = split_message(content)
                if speaker is not None:
                    seen.add(speaker)
                    out_ep.append(ep)
                    out_g.append(g)
                    out_name.append(speaker)
                    out_label.append("Person")
                    out_ts.append(ts)
            # role-based labels from relation matches take priority
            role_label: dict[str, str] = {}
            for rx, pred in self.rel_res:
                for m in rx.finditer(scan):
                    role_label.setdefault(m.group(1), SUBJ_LABEL[pred])
                    role_label.setdefault(m.group(2), OBJ_LABEL[pred])
            for m in self.ent_re.finditer(scan):
                name = m.group(0)
                if name in NER_STOPWORDS or name in seen:
                    continue
                seen.add(name)
                out_ep.append(ep)
                out_g.append(g)
                out_name.append(name)
                out_label.append(role_label.get(name) or label_for_name(name))
                out_ts.append(ts)
        return pa.table(
            {
                "episode_uuid": pa.array(out_ep, pa.string()),
                "group_id": pa.array(out_g, pa.string()),
                "name": pa.array(out_name, pa.string()),
                "label_hint": pa.array(out_label, pa.string()),
                "valid_at": pa.array(out_ts, pa.timestamp("us")),
            }
        )


class TripleExtractor:
    """episodes batch → raw triple rows (M3+M4 parity).

    Output: episode_uuid, group_id, subj_name, pred, obj_name, fact, valid_at.
    Endpoints are by construction entity surfaces (the patterns only match
    ENT), mirroring the reference's "drop edges whose endpoints aren't
    extracted nodes" rule. ``fact`` is the matched sentence text.
    """

    def __init__(self):
        self.rel_res = [(re.compile(p), pred) for p, pred in RELATION_TEMPLATES]
        self.ent_re = re.compile(ENT)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ep_uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid_ats = batch.column("valid_at").to_pylist()
        srcs = (
            batch.column("source").to_pylist()
            if "source" in batch.column_names
            else ["text"] * batch.num_rows
        )

        o_ep, o_g, o_s, o_p, o_o, o_f, o_ts = [], [], [], [], [], [], []
        for ep, g, content, ts, src in zip(
            ep_uuids, groups, contents, valid_ats, srcs
        ):
            scan = content
            if src == "json":
                rec = extract_json_record(content)
                if rec is not None:
                    subj, pred, obj = rec
                    verb = pred.lower().replace("_", " ")
                    o_ep.append(ep)
                    o_g.append(g)
                    o_s.append(subj)
                    o_p.append(pred)
                    o_o.append(obj)
                    o_f.append(f"{subj} {verb} {obj}.")
                    o_ts.append(ts)
                    continue
            elif src == "message":
                _speaker, scan = split_message(content)
            for rx, pred in self.rel_res:
                for m in rx.finditer(scan):
                    fact = m.group(0) + "."  # sentence-final period
                    o_ep.append(ep)
                    o_g.append(g)
                    o_s.append(m.group(1))
                    o_p.append(pred)
                    o_o.append(m.group(2))
                    o_f.append(fact)
                    # explicit dates trail the matched clause ("... since
                    # March 2021."); scan a short window, same paragraph only
                    tail = scan[m.end() : m.end() + 40].split("\n", 1)[0]
                    explicit = parse_explicit_date(tail)
                    o_ts.append(explicit if explicit is not None else ts)
        return pa.table(
            {
                "episode_uuid": pa.array(o_ep, pa.string()),
                "group_id": pa.array(o_g, pa.string()),
                "subj_name": pa.array(o_s, pa.string()),
                "pred": pa.array(o_p, pa.string()),
                "obj_name": pa.array(o_o, pa.string()),
                "fact": pa.array(o_f, pa.string()),
                "valid_at": pa.array(o_ts, pa.timestamp("us")),
            }
        )


_NLP_COLS = ["uuid", "group_id", "content", "valid_at"]


def _nlp_cols(ds: rd.Dataset | pa.Table) -> list[str]:
    """The NLP projection; ``source`` rides along when present so the
    extractors can apply per-EpisodeType rules (message speaker, json
    key-rule). Episode datasets built by this repo always carry it; bare
    test fixtures without it default to text semantics."""
    names = ds.column_names if isinstance(ds, pa.Table) else ds.schema().names
    return _NLP_COLS + (["source"] if "source" in names else [])


class CombinedExtractor:
    """One-pass extraction: mention rows AND triple rows from a SINGLE
    relation scan per document (row_kind 'm' / 't', union schema with
    nulls). Semantics identical to MentionExtractor + TripleExtractor run
    separately (same per-pattern finditer order), but each relation
    pattern runs once per doc instead of twice — scanning content is the
    heaviest map in the pipeline. Downstream splits with a cheap
    vectorized filter on ``row_kind``.
    """

    def __init__(self):
        self.ent_re = re.compile(ENT)
        self.rel_res = [(re.compile(p), pred) for p, pred in RELATION_TEMPLATES]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ep_uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid_ats = batch.column("valid_at").to_pylist()
        srcs = (
            batch.column("source").to_pylist()
            if "source" in batch.column_names
            else ["text"] * batch.num_rows
        )

        kind, o_ep, o_g, o_ts = [], [], [], []
        o_name, o_label = [], []
        o_s, o_p, o_o, o_f = [], [], [], []

        def emit_mention(ep, g, ts, name, label):
            kind.append("m")
            o_ep.append(ep)
            o_g.append(g)
            o_ts.append(ts)
            o_name.append(name)
            o_label.append(label)
            o_s.append(None)
            o_p.append(None)
            o_o.append(None)
            o_f.append(None)

        def emit_triple(ep, g, ts, s, p, o, fact):
            kind.append("t")
            o_ep.append(ep)
            o_g.append(g)
            o_ts.append(ts)
            o_name.append(None)
            o_label.append(None)
            o_s.append(s)
            o_p.append(p)
            o_o.append(o)
            o_f.append(fact)

        for ep, g, content, ts, src in zip(
            ep_uuids, groups, contents, valid_ats, srcs
        ):
            seen: set[str] = set()
            scan = content
            if src == "json":
                # key-rule extraction for EpisodeType.json
                # (prompts/extract_nodes.py:118-167 stand-in)
                rec = extract_json_record(content)
                if rec is not None:
                    subj, pred, obj = rec
                    emit_mention(
                        ep, g, ts, subj, SUBJ_LABEL.get(pred) or label_for_name(subj)
                    )
                    if obj != subj:
                        emit_mention(
                            ep, g, ts, obj, OBJ_LABEL.get(pred) or label_for_name(obj)
                        )
                    verb = pred.lower().replace("_", " ")
                    emit_triple(ep, g, ts, subj, pred, obj, f"{subj} {verb} {obj}.")
                    continue
                # unparsable json: fall through to the text scan
            elif src == "message":
                # the speaker (before the colon) is ALWAYS extracted, as
                # the first entity (prompts/extract_nodes.py:98); relation
                # and entity scans then cover the message body only
                speaker, scan = split_message(content)
                if speaker is not None:
                    seen.add(speaker)
                    emit_mention(ep, g, ts, speaker, "Person")
            # ONE relation scan, reused for role labels AND triples
            rel_matches = [
                (pred, m) for rx, pred in self.rel_res for m in rx.finditer(scan)
            ]
            role_label: dict[str, str] = {}
            for pred, m in rel_matches:
                role_label.setdefault(m.group(1), SUBJ_LABEL[pred])
                role_label.setdefault(m.group(2), OBJ_LABEL[pred])
            for m in self.ent_re.finditer(scan):
                name = m.group(0)
                if name in NER_STOPWORDS or name in seen:
                    continue
                seen.add(name)
                emit_mention(
                    ep, g, ts, name, role_label.get(name) or label_for_name(name)
                )
            for pred, m in rel_matches:
                tail = scan[m.end() : m.end() + 40].split("\n", 1)[0]
                explicit = parse_explicit_date(tail)
                emit_triple(
                    ep,
                    g,
                    explicit if explicit is not None else ts,
                    m.group(1),
                    pred,
                    m.group(2),
                    m.group(0) + ".",
                )
        return pa.table(
            {
                "row_kind": pa.array(kind, pa.string()),
                "episode_uuid": pa.array(o_ep, pa.string()),
                "group_id": pa.array(o_g, pa.string()),
                "valid_at": pa.array(o_ts, pa.timestamp("us")),
                "name": pa.array(o_name, pa.string()),
                "label_hint": pa.array(o_label, pa.string()),
                "subj_name": pa.array(o_s, pa.string()),
                "pred": pa.array(o_p, pa.string()),
                "obj_name": pa.array(o_o, pa.string()),
                "fact": pa.array(o_f, pa.string()),
            }
        )


def split_extracted(
    extracted: rd.Dataset | pa.Table,
) -> tuple[rd.Dataset, rd.Dataset]:
    """(mentions, triples) views of a combined extraction table.

    A ``pa.Table`` is split in this process, but both views come back as
    Datasets (``rd.from_arrow``): callers count the triples with
    ``Dataset.count()`` (the benchmark's traced counter of triple rows),
    so the return type stays one thing."""
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import map_table

    def keep(kind, cols):
        def f(batch: pa.Table) -> pa.Table:
            sel = batch.filter(pc.equal(batch.column("row_kind"), kind))
            return sel.select(cols)

        return f

    mentions = map_table(
        extracted,
        keep("m", ["episode_uuid", "group_id", "name", "label_hint", "valid_at"]),
        zero_copy_batch=True,
    )
    triples = map_table(
        extracted,
        keep(
            "t",
            ["episode_uuid", "group_id", "subj_name", "pred", "obj_name", "fact", "valid_at"],
        ),
        zero_copy_batch=True,
    )
    if isinstance(extracted, pa.Table):
        return rd.from_arrow(mentions), rd.from_arrow(triples)
    return mentions, triples


# Actor pools autoscale (min, max); max sized so extraction doesn't starve
# the read/shuffle stages on a 32-cpu node. None → sized to session CPUs.
DEFAULT_POOL = None


def _pool(concurrency):
    if concurrency is not None:
        return concurrency
    from graphiti_ray.stages.link import auto_pool

    return auto_pool(0.75, min_actors=2)


# Task-mode extraction: state (compiled regexes) is cached once per WORKER
# PROCESS in a module global — same amortization as an actor pool, but the
# default worker pool is already warm, so chained executions pay zero
# actor spin-up. Use the actor-pool mode (compute="actors") when the per-
# worker state is heavyweight (a real NER model) and needs num_gpus/memory
# placement.
_WORKER_EXTRACTOR = None


def _combined_extract_fn(batch: pa.Table) -> pa.Table:
    global _WORKER_EXTRACTOR
    if _WORKER_EXTRACTOR is None:
        _WORKER_EXTRACTOR = CombinedExtractor()
    return _WORKER_EXTRACTOR(batch)


def extracted_dataset(
    episodes: rd.Dataset | pa.Table, concurrency=DEFAULT_POOL, compute: str = "tasks"
) -> rd.Dataset | pa.Table:
    """Combined mention + triple rows of ``episodes``; tasks mode extracts
    a ``pa.Table`` in this process."""
    if compute == "tasks":
        from graphiti_ray.stages.ops import map_table, select_columns

        return map_table(
            select_columns(episodes, _nlp_cols(episodes)),
            _combined_extract_fn,
            zero_copy_batch=True,
        )
    return episodes.select_columns(_nlp_cols(episodes)).map_batches(
        CombinedExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool(concurrency),
    )


def mentions_dataset(episodes: rd.Dataset, concurrency=DEFAULT_POOL) -> rd.Dataset:
    return episodes.select_columns(_nlp_cols(episodes)).map_batches(
        MentionExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool(concurrency),
    )


def triples_dataset(episodes: rd.Dataset, concurrency=DEFAULT_POOL) -> rd.Dataset:
    return episodes.select_columns(_nlp_cols(episodes)).map_batches(
        TripleExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool(concurrency),
    )


def mentions_with_reflexion(
    episodes: rd.Dataset,
    extractors: list | None = None,
    max_passes: int = 3,
) -> rd.Dataset:
    """M2 reflexion-loop control flow (node_operations.py extract_nodes'
    missed-entities re-prompt) with a deterministic critic: run extraction
    passes in sequence, union-dedup mentions per (episode, name) keeping
    the EARLIEST pass's row, and stop as soon as a pass contributes no new
    mention — the "nothing was missed" verdict, decided by a dataset-side
    count (no driver materialization of the mention set).

    ``extractors`` is the pass schedule (callables: episodes batch →
    mention table); the last entry repeats if ``max_passes`` exceeds the
    list. The default single-pass MentionExtractor is exhaustive by
    construction, so the loop terminates after pass 2 finding nothing —
    the test injects a deliberately weak first pass to show recovery.
    """
    import pyarrow.compute as pc

    from graphiti_ray.stages.ops import distinct_by_key

    if extractors is None:
        extractors = [MentionExtractor()]

    def tag(ds: rd.Dataset, pass_idx: int) -> rd.Dataset:
        def f(batch: pa.Table, _i=pass_idx) -> pa.Table:
            key = pc.binary_join_element_wise(
                batch.column("episode_uuid"), batch.column("name"), "|"
            )
            batch = batch.append_column("_mkey", key)
            return batch.append_column(
                "_pass", pa.array([_i] * batch.num_rows, pa.int64())
            )

        return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    found: rd.Dataset | None = None
    for i in range(max_passes):
        ext = extractors[min(i, len(extractors) - 1)]
        new = tag(
            episodes.map_batches(ext, batch_format="pyarrow", zero_copy_batch=True), i
        )
        if found is None:
            found = distinct_by_key(new, "_mkey", order_cols=["_pass"]).materialize()
            continue
        before = found.count()
        merged = distinct_by_key(
            found.union(new), "_mkey", order_cols=["_pass"]
        ).materialize()
        if merged.count() == before:
            found = merged
            break  # reflexion verdict: nothing missed
        found = merged
    return found.drop_columns(["_mkey", "_pass"])
