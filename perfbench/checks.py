"""Output checks run on every pass, outside the timed region."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.mesh.netlog_stream import StreamingNetworkLog, materialize_manifest

#: Columns hashed into a netlog digest, in this order.
DIGEST_COLUMNS = (
    "msg_id", "src", "dst", "length_bytes", "inject_time", "start_time",
    "deliver_time", "contention", "hops",
)


def sealed(log):
    """An in-memory sealed log; a spilled log is read back from its segments."""
    if isinstance(log, StreamingNetworkLog):
        return materialize_manifest(log.manifest_path)
    log.seal()
    return log


def log_digest(log) -> str:
    """SHA-256 over a sealed log's columns, in record order.

    ``msg_id`` is rebased to the log's smallest id: applications draw
    ids from a process-wide counter, so absolute ids depend on how many
    messages the process made before this run.
    """
    cols, vocab = log.columns()
    digest = hashlib.sha256()
    for name in DIGEST_COLUMNS:
        values = cols[name]
        if name == "msg_id" and values.size:
            values = values - values.min()
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(values).tobytes())
    kinds = [vocab[code] for code in cols["kind"]] if vocab else []
    digest.update("\x00".join(kinds).encode())
    return digest.hexdigest()


class HopTable:
    """``topology.hops(src, dst)`` for every node pair of a config."""

    def __init__(self) -> None:
        self._tables: Dict[str, np.ndarray] = {}

    def for_config(self, config) -> np.ndarray:
        key = config.spec.canonical()
        table = self._tables.get(key)
        if table is None:
            topology = config.make_topology()
            n = config.num_nodes
            table = np.array(
                [[topology.hops(s, d) for d in range(n)] for s in range(n)], dtype=np.int64
            )
            self._tables[key] = table
        return table


def check_log(log, config, hop_table: HopTable,
              scheduled_ids: Optional[np.ndarray] = None) -> List[str]:
    """Problems with one sealed log: duplicate or missing deliveries,
    hop counts off the topology's route, delivery before injection."""
    cols, _ = log.columns()
    problems = []
    ids = np.sort(cols["msg_id"])
    if ids.size and np.any(ids[1:] == ids[:-1]):
        problems.append("a message was delivered more than once")
    if scheduled_ids is not None and not np.array_equal(ids, scheduled_ids):
        problems.append(
            f"delivered {ids.size} messages, scheduled {len(scheduled_ids)}; ids differ"
        )
    expected_hops = hop_table.for_config(config)[cols["src"], cols["dst"]]
    bad_hops = int(np.count_nonzero(cols["hops"] != expected_hops))
    if bad_hops:
        problems.append(f"{bad_hops} records have hops != topology.hops(src, dst)")
    early = int(np.count_nonzero(cols["deliver_time"] < cols["inject_time"]))
    if early:
        problems.append(f"{early} records delivered before they were injected")
    return problems


def check_networks(networks) -> List[str]:
    """Every message each network injected was delivered and logged once."""
    problems = []
    for network in networks:
        logged = len(network.log)
        if not network.total_injected == network.total_delivered == logged:
            problems.append(
                f"network injected {network.total_injected}, delivered "
                f"{network.total_delivered}, logged {logged}"
            )
    return problems


def load_recorded(path: str) -> Dict[str, object]:
    """The digests recorded for the default seed (empty if no file)."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare_digests(observed: Dict[str, str], recorded: Dict[str, str]) -> List[str]:
    """Labels whose digest differs from (or is missing in) the record."""
    return [
        f"{label}: digest {observed.get(label)} != recorded {digest}"
        for label, digest in sorted(recorded.items())
        if observed.get(label) != digest
    ]
