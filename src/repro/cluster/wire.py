"""JSON wire format for query specs and results.

One workload format shared by every serving surface: ``repro query
--input queries.jsonl``, the ``repro serve`` HTTP endpoint, the Python
client and ``benchmarks/bench_cluster.py`` all speak these shapes, so a
load file generated once drives any of them.

A spec is one JSON object::

    {"kind": "mliq", "mu": [..], "sigma": [..], "k": 5}
    {"kind": "tiq",  "mu": [..], "sigma": [..], "tau": 0.3, "eps": 0.0}
    {"kind": "rank", "mu": [..], "sigma": [..], "k": 5, "min_mass": 0.95}
    {"kind": "consensus", "mu": [..], "sigma": [..], "k": 5}
    {"kind": "erank", "mu": [..], "sigma": [..], "k": 5}

Write specs (served by ``POST /insert`` / ``POST /delete`` and
writable sessions)::

    {"kind": "insert", "mu": [..], "sigma": [..], "key": "O7"}
    {"kind": "delete", "mu": [..], "sigma": [..], "key": "O7"}

Keys may be null, booleans, numbers or strings directly; tuple keys —
the only other persistable kind — encode as ``{"tuple": [..]}`` (JSON
has no tuple type, and a bare list would decode as an unhashable key).

A JSONL workload file holds one spec per line (blank lines ignored). A
match serializes as ``{"key": .., "probability": .., "log_density": ..}``
— the identification answer, not the stored vector (keys that are not
JSON types are stringified, flagged by ``"key_repr": true``). Answers
to the ranked semantics additionally carry ``"score"`` — the
consensus membership probability or the expected rank. The full
endpoint/error contract is documented in ``docs/wire-protocol.md``.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.core.pfv import PFV
from repro.core.queries import Match
from repro.engine.result import ResultSet
from repro.engine.spec import (
    MLIQ,
    TIQ,
    ConsensusTopK,
    Delete,
    ExpectedRank,
    Insert,
    Query,
    RankQuery,
    Spec,
)

__all__ = [
    "WireError",
    "spec_to_json",
    "spec_from_json",
    "pfv_to_json",
    "pfv_from_json",
    "match_to_json",
    "result_to_json",
    "load_jsonl",
    "dump_jsonl",
    "REQUEST_OPS",
    "request_from_json",
    "response_to_json",
]

#: Operations a pipelined-JSONL request envelope may name. ``query``,
#: ``insert`` and ``delete`` mirror the HTTP POST endpoints;
#: ``healthz``, ``stats`` and ``metrics`` the GET ones (``metrics``
#: answers with the Prometheus exposition text in a ``{"text": ..}``
#: payload).
REQUEST_OPS = frozenset(
    {"query", "insert", "delete", "healthz", "stats", "metrics"}
)


class WireError(ValueError):
    """A payload that does not parse as the documented wire format."""


def _key_to_json(key):
    """Wire encoding of an application key (tuples become
    ``{"tuple": [..]}`` — JSON has no tuple type)."""
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    if isinstance(key, tuple):
        return {"tuple": [_key_to_json(k) for k in key]}
    raise WireError(
        f"cannot serialize key {key!r} of type {type(key).__name__}; "
        "supported: None, bool, int, float, str and tuples thereof"
    )


def _key_from_json(data):
    """Inverse of :func:`_key_to_json` (validating)."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict) and set(data) == {"tuple"}:
        items = data["tuple"]
        if not isinstance(items, list):
            raise WireError('"tuple" key encoding must hold a list')
        return tuple(_key_from_json(k) for k in items)
    raise WireError(
        f"bad wire key {data!r} (expected a JSON scalar or "
        '{"tuple": [..]})'
    )


def pfv_to_json(v: PFV) -> dict:
    """Serialize one stored pfv (mu, sigma and its application key)."""
    payload = {
        "mu": [float(x) for x in v.mu],
        "sigma": [float(x) for x in v.sigma],
    }
    if v.key is not None:
        payload["key"] = _key_to_json(v.key)
    return payload


def pfv_from_json(data: object) -> PFV:
    """Parse one wire pfv dict (mu/sigma required, key optional)."""
    if not isinstance(data, dict):
        raise WireError(f"a pfv must be a JSON object, got {data!r}")
    try:
        return PFV(
            data["mu"], data["sigma"], key=_key_from_json(data.get("key"))
        )
    except KeyError as exc:
        raise WireError(f"pfv is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad pfv: {exc}") from exc


def spec_to_json(spec: Spec) -> dict:
    """Serialize one engine spec (read or write) to its wire dict."""
    base = {
        "kind": spec.kind,
        "mu": [float(x) for x in (spec.q if hasattr(spec, "q") else spec.v).mu],
        "sigma": [
            float(x) for x in (spec.q if hasattr(spec, "q") else spec.v).sigma
        ],
    }
    if isinstance(spec, MLIQ):
        base["k"] = spec.k
    elif isinstance(spec, TIQ):
        base["tau"] = spec.tau
        if spec.eps:
            base["eps"] = spec.eps
    elif isinstance(spec, RankQuery):
        base["k"] = spec.k
        if spec.min_mass is not None:
            base["min_mass"] = spec.min_mass
    elif isinstance(spec, (ConsensusTopK, ExpectedRank)):
        base["k"] = spec.k
    elif isinstance(spec, (Insert, Delete)):
        if spec.v.key is not None:
            base["key"] = _key_to_json(spec.v.key)
    else:  # pragma: no cover - spec union is closed today
        raise WireError(f"cannot serialize spec {spec!r}")
    return base


def spec_from_json(data: object) -> Spec:
    """Parse one wire dict back into an engine spec (validating)."""
    if not isinstance(data, dict):
        raise WireError(f"query spec must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind in ("insert", "delete"):
        v = pfv_from_json(
            {k: data[k] for k in ("mu", "sigma", "key") if k in data}
        )
        return Insert(v) if kind == "insert" else Delete(v)
    try:
        q = PFV(data["mu"], data["sigma"])
    except KeyError as exc:
        raise WireError(f"query spec is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad query pfv: {exc}") from exc
    try:
        if kind == "mliq":
            return MLIQ(q, int(data.get("k", 1)))
        if kind == "tiq":
            return TIQ(
                q, float(data.get("tau", 0.5)), float(data.get("eps", 0.0))
            )
        if kind == "rank":
            min_mass = data.get("min_mass")
            return RankQuery(
                q,
                int(data.get("k", 1)),
                min_mass=None if min_mass is None else float(min_mass),
            )
        if kind == "consensus":
            return ConsensusTopK(q, int(data.get("k", 1)))
        if kind == "erank":
            return ExpectedRank(q, int(data.get("k", 1)))
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad {kind} parameters: {exc}") from exc
    raise WireError(
        f"unknown query kind {kind!r} "
        "(expected mliq, tiq, rank, consensus, erank, insert or delete)"
    )


def match_to_json(match: Match) -> dict:
    """Serialize one answer match (key + posterior + log density, plus
    the semantics ``score`` when the spec attached one)."""
    key = match.key
    try:
        json.dumps(key)
    except (TypeError, ValueError):
        out = {
            "key": repr(key),
            "key_repr": True,
            "probability": match.probability,
            "log_density": match.log_density,
        }
    else:
        out = {
            "key": key,
            "probability": match.probability,
            "log_density": match.log_density,
        }
    if match.score is not None:
        out["score"] = match.score
    return out


def result_to_json(rs: ResultSet) -> dict:
    """Serialize a whole ResultSet (per-query matches + merged stats)."""
    stats = rs.stats
    payload = {
        "backend": rs.backend,
        "n_queries": len(rs),
        "results": [
            [match_to_json(m) for m in matches] for matches in rs
        ],
        "stats": {
            "pages_accessed": stats.pages_accessed,
            "page_faults": stats.page_faults,
            "objects_refined": stats.objects_refined,
            "swept": stats.swept,
            "nodes_expanded": stats.nodes_expanded,
            "cpu_seconds": stats.cpu_seconds,
            "io_seconds": stats.io_seconds,
            "modeled_cpu_seconds": stats.modeled_cpu_seconds,
            "buffer_evictions": stats.buffer_evictions,
            "buffer_hit_ratio": round(stats.buffer_hit_ratio, 6),
        },
    }
    if rs.trace is not None:
        payload["trace"] = rs.trace
    if rs.provenance:
        payload["provenance"] = [
            {
                "shard": name,
                "pages_accessed": s.pages_accessed,
                "objects_refined": s.objects_refined,
            }
            for name, s in rs.provenance
        ]
    return payload


def request_from_json(data: object) -> tuple:
    """Validate one pipelined-JSONL request envelope.

    The async serving tier (``docs/serving.md``) frames requests as one
    JSON object per line: ``{"op":
    "query"|"insert"|"delete"|"healthz"|"stats", "id": ..,
    ...payload}``. Returns ``(id, op, data)``; ``id`` is the
    client's correlation token (echoed verbatim on the response, so
    pipelined responses may arrive out of order), ``op`` selects the
    operation and the remaining keys are the op's payload — the same
    shapes the HTTP endpoints take (``"queries"`` for ``query``,
    ``"vectors"`` for ``insert`` and ``delete``).
    """
    if not isinstance(data, dict):
        raise WireError(f"a request must be a JSON object, got {data!r}")
    op = data.get("op")
    if op not in REQUEST_OPS:
        raise WireError(
            f"unknown op {op!r} (expected one of {sorted(REQUEST_OPS)})"
        )
    rid = data.get("id")
    if rid is not None and not isinstance(rid, (bool, int, float, str)):
        raise WireError(
            f"request id must be a JSON scalar, got {rid!r}"
        )
    return rid, op, data


def response_to_json(rid: object, status: int, payload: dict) -> dict:
    """Stamp one response envelope: the payload plus the echoed request
    ``id`` and an HTTP-alike ``status`` (200 success, 4xx/5xx carrying
    ``{"error": ..}`` and — for 429/503 — a ``retry_after`` hint)."""
    out = dict(payload)
    out["id"] = rid
    out["status"] = int(status)
    return out


def load_jsonl(f: IO[str]) -> list[Query]:
    """Read a JSONL workload (one spec per line; blank lines skipped)."""
    specs: list[Query] = []
    for lineno, line in enumerate(f, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WireError(f"line {lineno}: not JSON ({exc})") from exc
        try:
            specs.append(spec_from_json(data))
        except WireError as exc:
            raise WireError(f"line {lineno}: {exc}") from None
    return specs


def dump_jsonl(specs: Iterable[Query], f: IO[str]) -> int:
    """Write specs as a JSONL workload; returns the number written."""
    count = 0
    for spec in specs:
        f.write(json.dumps(spec_to_json(spec)))
        f.write("\n")
        count += 1
    return count
