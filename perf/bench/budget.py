"""The per-layer cost budget of one committed transaction at n=4.

Unit costs come from the layer tape (:mod:`bench.tape`: CPU µs per call
into each layer's public entry point); how many of each call one
committed transaction takes comes from what the replicas of a deployed
run published in-band.  Their product, summed over the four replicas,
is what the layers account for; what is left of the measured replica
CPU per transaction — the event loop, syscalls, the client port,
timers — is stated as ``unattributed``, not hidden.
"""

from __future__ import annotations

N = 4


def rows(tape: dict[str, float], run: dict[str, float], durable: bool, gateway: bool):
    """[(layer, what, µs per committed txn summed over replicas)]."""
    slots = run["slots_per_txn"]  # finalized slots per committed txn
    frames_in = run["multishot.frames_per_slot"]  # Σ replicas, per slot
    blocks_per_txn = slots * N
    out = [
        (
            "net.codec",
            "decode peer frames (votes + the leader's vote+proposal frame)",
            slots
            * (
                max(frames_in - N, 0.0) * tape["codec.decode_us.vote"]
                + N * tape["codec.decode_us.vote_batch"]
            ),
        ),
        (
            "net.codec",
            "encode own vote / vote+proposal frame, once per slot per replica",
            slots * ((N - 1) * tape["codec.encode_us.vote"] + tape["codec.encode_us.vote_batch"]),
        ),
        (
            "net.codec",
            "decode the client submit, encode the commit ack, per replica",
            N * (tape["codec.decode_us.client_submit"] + tape["codec.encode_us.commit_ack"]),
        ),
        ("multishot", "engine activations (receive, self time)", slots * N * tape["tape.receive_us_per_slot"]),
        ("smr", "execute finalized blocks", blocks_per_txn * tape["smr.execute_us_per_block"]),
        ("smr", "build payloads (one leader per slot)", slots * tape["smr.make_payload_us_per_block"]),
    ]
    if durable:
        out.append(
            ("storage", "WAL append + group fsync + snapshots", blocks_per_txn * tape["storage.append_us_per_block"])
        )
    if gateway:
        out.append(("gateway", "admit + batch (GatewayService.submit)", tape["gateway.submit_us"]))
        # The default-config snapshot refresh ships the whole chain from
        # every replica each time; the tape priced a 4,000-block reply and
        # the cost is linear in the chain.
        per_txn = run["snapshot_refreshes"] / max(run["commits"], 1.0)
        scale = run["snapshot_chain_blocks"] / 4000.0
        out.append(
            (
                "net.codec",
                "snapshot refresh: replicas encode their whole chain",
                per_txn * N * scale * tape["codec.encode_us.collect_reply_4k"],
            )
        )
        out.append(
            (
                "gateway",
                "snapshot refresh: decode 4 whole-chain replies + replay one",
                per_txn
                * scale
                * (
                    N * tape["codec.decode_us.collect_reply_4k"]
                    + 1000.0 * tape["gateway.ingest_snapshot_ms_4k"]
                ),
            )
        )
    return out


def table(tape: dict[str, float], run: dict[str, float], durable: bool, gateway: bool):
    """(lines to print, unattributed share of the measured CPU per txn)."""
    measured = 1000.0 * run["replica_cpu_ms_per_txn"]
    budget = rows(tape, run, durable, gateway)
    attributed = sum(us for _layer, _what, us in budget)
    lines = [f"{'layer':<12} {'µs/txn':>9} {'share':>7}  what"]
    for layer, what, us in budget:
        lines.append(f"{layer:<12} {us:>9.1f} {100 * us / measured:>6.1f}%  {what}")
    rest = measured - attributed
    lines.append(
        f"{'unattributed':<12} {rest:>9.1f} {100 * rest / measured:>6.1f}%  "
        "event loop, syscalls, client port, timers, transport queues"
    )
    lines.append(f"{'measured':<12} {measured:>9.1f} {100.0:>6.1f}%  Σ replica CPU per committed txn")
    return lines, rest / measured if measured else 0.0
