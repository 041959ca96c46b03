"""Output checks for served verdicts.

A verdict must agree with the :class:`Oracle`'s ``check_document`` on
the same document, and with what the document is known to be by
construction: fault-injected traces hold a masked write and must be
rejected with a witness; faithful BACKER traces must be admitted by LC.
A cache hit from a relabelled twin may carry a different, equally valid
witness, so its witness is validated in its own node numbering instead.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection

from perfbench.inputs import Doc

CORE = ("kind", "nodes", "verdicts", "admitted")


class Oracle:
    """``check_document`` under default options, with the library's memo
    tables off, in a process of its own (a context manager).

    Its memory and memo tables never count in the client's footprint.
    It is forked from the client before the service starts, so no
    thread exists to be forked mid-operation, and so it hashes strings
    as the client and the service's worker do: among equally valid
    witnesses the checkers pick by set order, which follows the hash.
    """

    def __enter__(self) -> "Oracle":
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_oracle_loop, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        return self

    def __exit__(self, *exc: object) -> None:
        self._conn.send(None)
        self._proc.join(timeout=30)
        self._conn.close()

    def verdicts(self, docs: list[dict]) -> list[dict]:
        """One document at a time, so the client never holds a whole
        batch's worth of pickled documents."""
        out = []
        for doc in docs:
            self._conn.send(doc)
            out.append(self._conn.recv())
        return out


def _oracle_loop(conn: Connection) -> None:
    from repro._caching import sweep_caching
    from repro.serve import CheckOptions
    from repro.serve.service import check_document

    options = CheckOptions()
    with sweep_caching(False):
        while (doc := conn.recv()) is not None:
            conn.send(check_document(doc, options))


def verdict_problem(doc: Doc, verdict: dict, expected: dict, cached: bool) -> str | None:
    """Why ``verdict`` is wrong for ``doc``, or ``None`` if it is right."""
    for key in CORE:
        if verdict.get(key) != expected.get(key):
            return f"{key} {verdict.get(key)!r} != oracle {expected.get(key)!r}"
    verdicts = verdict["verdicts"]
    if doc.faulty:
        if verdict["admitted"] is not False or verdicts.get("lc") is not False:
            return "fault-injected trace admitted"
        if not verdict.get("witness"):
            return "fault-injected trace rejected without a witness"
    elif verdicts.get("lc") is not True or verdicts.get("streaming") is not True:
        return "faithful BACKER trace not admitted by LC"
    for key, validate in (("witness", lc_witness_problem), ("sc_witness", sc_order_problem)):
        got = verdict.get(key)
        if got == expected.get(key):
            continue
        if not cached:
            return f"{key} differs from the oracle's"
        problem = validate(doc.doc, got)
        if problem:
            return f"cached twin: {problem}"
    return None


def lc_witness_problem(doc: dict, witness: dict | None) -> str | None:
    """The streaming witness must name nodes of this document."""
    if not isinstance(witness, dict):
        return "missing LC witness"
    ops = doc["computation"]["ops"]
    node = witness.get("node")
    if not isinstance(node, int) or not 0 <= node < len(ops):
        return f"witness node {node!r} out of range"
    loc = ops[node].get("loc")
    if repr(loc) != witness.get("loc"):
        return f"witness node {node} does not access {witness.get('loc')}"
    for block in witness.get("blocks", []):
        if block is None:
            continue
        if not (0 <= block < len(ops)) or ops[block] != {"kind": "W", "loc": loc}:
            return f"witness block {block} is not a write of {loc!r}"
    return None


def sc_order_problem(doc: dict, order: list[int] | None) -> str | None:
    """An SC witness must be a topological order explaining every read."""
    comp = doc["computation"]
    n = comp["num_nodes"]
    if order is None or sorted(order) != list(range(n)):
        return "SC witness is not an order of this document's nodes"
    position = {u: i for i, u in enumerate(order)}
    if any(position[u] > position[v] for u, v in comp["edges"]):
        return "SC witness breaks a dag edge"
    observed = {e["node"]: e["observed"] for e in doc["reads"]}
    last: dict[str, int | None] = {}
    for u in order:
        op = comp["ops"][u]
        if op["kind"] == "W":
            last[repr(op["loc"])] = u
        elif op["kind"] == "R" and u in observed:
            if last.get(repr(op["loc"])) != observed[u]:
                return f"SC witness does not explain the read at node {u}"
    return None
