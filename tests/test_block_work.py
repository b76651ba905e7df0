"""A default block's work, pinned exactly: the frames and bytes it sends
per message type, how often the ends take turns, what Cascade asks and
flips, and the key left, for seeds 1 and 2, blocks 0-11.  These are
counts, not timings, so they do not depend on the machine.  A change that
keeps a block's work keeps block_work.tsv; one that changes it states its
effect as a diff of that file."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np

from cvqkdsim import postprocess as pp
from cvqkdsim import protocol as proto
from cvqkdsim.config import SystemConfig
from cvqkdsim.pipeline import (distill_block, run_chain,
                               simulate_quantum_exchange)
from cvqkdsim.postprocess import drive
from cvqkdsim.protocol import Frame, MsgType, encode_frame

from peers import RecordingAnswer

TABLE = Path(__file__).with_name("block_work.tsv")
TABLE_SHA256 = (
    "fc8b6148a682f353a37dbf0e3409dfd0f16f197066dede9d0e969cbc76f867fd")
COLUMNS = ("seed", "block",
           *(f"{t.name}.{what}" for t in MsgType
             for what in ("frames", "bytes")),
           "direction_changes", "oracle_calls", "leak", "passes", "flipped",
           "key_bits")


class _RecordingCascade:
    """cascade_steps, keeping its last run's requests, the passes it
    reached and the bits it flipped."""

    def __init__(self, steps):
        self.steps = steps

    def __call__(self, alice_bits, initial_block, perms):
        asked = []
        steps = self.steps(alice_bits, initial_block, perms)
        parities = None
        try:
            while True:
                request = steps.send(parities)
                asked.append(request[0])
                parities = yield request
        except StopIteration as stop:
            bits, leak = stop.value
        self.calls, self.passes = len(asked), max(asked) + 1
        self.flipped = int(np.count_nonzero(bits != alice_bits))
        return bits, leak


def block_work(cfg, block_id, cascade) -> list:
    """One row of the table: the block's frames as run_session sends them,
    its two HELLOs first, with `cascade` recording its Cascade."""
    answer = RecordingAnswer()
    result = drive(run_chain(cfg, block_id, simulate_quantum_exchange(
        cfg, block_id, cfg.drift.mean_state())), answer)
    hello = encode_frame(Frame(MsgType.HELLO, proto._hello(cfg, block_id)))
    frames = [hello, hello, *answer.frames]
    senders = ["alice", "bob", *answer.senders]
    row = [cfg.seed, block_id]
    for t in MsgType:
        sizes = [len(f) for f in frames if f[4] == t]
        row += [len(sizes), sum(sizes)]
    return row + [sum(a != b for a, b in zip(senders, senders[1:])),
                  cascade.calls, result.report.leak_bits, cascade.passes,
                  cascade.flipped, result.report.final_key_bits]


def work_table(monkeypatch) -> str:
    cascade = _RecordingCascade(pp.cascade_steps)
    monkeypatch.setattr(pp, "cascade_steps", cascade)
    rows = [COLUMNS] + [block_work(SystemConfig(seed=seed), block_id, cascade)
                        for seed in (1, 2) for block_id in range(12)]
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def test_block_work_is_pinned(monkeypatch):
    pinned = TABLE.read_text(encoding="utf-8")
    assert hashlib.sha256(pinned.encode()).hexdigest() == TABLE_SHA256, (
        f"{TABLE.name} is not the pinned table")
    got = work_table(monkeypatch)
    moved = [f"- {old}\n+ {new}" for old, new in
             zip(pinned.splitlines(), got.splitlines()) if old != new]
    assert got == pinned, "rows that moved:\n" + "\n".join(moved)


def test_block_allocations_bounded():
    # measured at 947-1,070 KiB over seed 1's blocks 0-11.  The first call
    # fills the per-config caches (Cascade's permutation draw, model_qber),
    # so the second's peak is the block's own
    cfg = SystemConfig(seed=1)
    drift = cfg.drift.mean_state()
    distill_block(cfg, 0, drift)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        distill_block(cfg, 0, drift)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.25 * 2 ** 20, peak - start
