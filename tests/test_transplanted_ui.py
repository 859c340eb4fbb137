"""The transplanted UI: a *genuine* UI attached to a *different* body.

A UI carries the digest of the message it binds, and the verifier
memoizes only the attestation HMAC under the attestation's own scalars —
so what stands between a Byzantine primary and a second PREPARE for a
counter it already used is the comparison of that carried digest with the
digest of the message actually delivered. No attack in the registry
exercises it: every registered attack mints its lies with the hardware
(fresh counter, matching digest). This one does not touch the hardware at
all. It is local to the tests on purpose — a registry entry would add
cells to the ``chaos_campaign`` benchmark workload.
"""

from __future__ import annotations

from typing import Any, Optional

import pytest

from repro.consensus import build_minbft_system, check_replication
from repro.consensus.minbft import PREPARE, USIG_WRAP
from repro.consensus.replica import request_key
from repro.crypto.serialize import caching_disabled, reset_crypto_caches
from repro.faults.attacks import Attack, AttackerProcess
from repro.sim.adversary import ReliableAsynchronous

PRIMARY, OTHER, VICTIM = 0, 1, 2
OPS = 3


class TransplantedUI(Attack):
    """Primary withholds one PREPARE from the victim and sends it the UI of
    that PREPARE wrapped around another pending request instead — at once
    (``late=False``: before the victim has seen the genuine binding in
    anyone's COMMIT) or behind its first message to the victim after the
    victim executed the slot (``late=True``: the victim has verified the
    genuine binding embedded in the other replica's COMMIT by then)."""

    name = "transplant-ui"

    def __init__(self, late: bool) -> None:
        super().__init__()
        self.victim_replica: Any = None  # set once the system is built
        self._late = late
        self._held: Optional[tuple] = None
        self.slot: Optional[int] = None
        self.alt: Any = None
        self.victim_had_executed: Optional[bool] = None

    def _victim_executed(self) -> bool:
        return self.victim_replica.exec_next > self.slot

    def _send_transplant(self) -> tuple:
        self.victim_had_executed = self._victim_executed()
        self.injected += 1
        return (VICTIM, self._held)

    def outgoing(self, src: int, dst: int, msg: Any) -> Any:
        if dst != VICTIM:
            return msg
        if self.slot is not None:
            if (self._late and self.victim_had_executed is None
                    and self._victim_executed()):
                return [(dst, msg), self._send_transplant()]
            return msg
        if not (isinstance(msg, tuple) and len(msg) == 3 and msg[0] == USIG_WRAP
                and msg[1][0] == PREPARE):
            return msg
        message, ui = msg[1], msg[2]
        taken = request_key(message[3])
        alts = [r for key, r in sorted(self._inner._pending.items()) if key != taken]
        if not alts:
            self.missed += 1
            return msg
        self.slot, self.alt = message[2], alts[0]
        self._held = (USIG_WRAP, (PREPARE, message[1], message[2], self.alt), ui)
        self.strikes += 1
        self.suppressed += 1  # the victim never gets the genuine PREPARE
        return None if self._late else [self._send_transplant()]


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("late", [False, True], ids=["before", "after"])
def test_transplanted_ui_is_rejected_and_the_slot_still_executes(late, cached):
    reset_crypto_caches()
    attack = TransplantedUI(late)

    def run():
        # constant delays: delivery order is send order
        sim, replicas, clients = build_minbft_system(
            f=1, n_clients=2, ops_per_client=OPS, seed=5,
            adversary=ReliableAsynchronous(0.1, 0.1),
            replica_wrapper=lambda pid, r: (
                AttackerProcess(r, attack) if pid == PRIMARY else r
            ),
        )
        attack.victim_replica = replicas[VICTIM]
        sim.run(until=4000.0)
        return sim, replicas, clients

    if cached:
        sim, replicas, clients = run()
    else:
        with caching_disabled():
            sim, replicas, clients = run()

    victim = replicas[VICTIM]
    assert attack.strikes == 1 and attack.injected == 1
    assert attack.victim_had_executed is late
    # the transplant is refused at the door, and for what it is
    assert victim.malformed_rejects == 1
    assert replicas[OTHER].malformed_rejects == 0
    # ... so the victim certified the slot from the other replica's COMMIT
    # (its embedded prepare UI counts as the primary's vote) with the
    # genuine request, never the alternative
    n = len(replicas)
    report = check_replication(
        sim.trace, (OTHER, VICTIM), expected_ops={n: OPS, n + 1: OPS}
    )
    report.assert_ok()
    by_slot = {e.seq: e for e in report.log_of(VICTIM)}
    assert request_key(attack.alt) != (by_slot[attack.slot].client,
                                       by_slot[attack.slot].req_id)
    assert [e.seq for e in report.log_of(VICTIM)] == [
        e.seq for e in report.log_of(OTHER)
    ]
    assert victim.commits_executed == replicas[OTHER].commits_executed == 2 * OPS
    assert all(len(c.results) == OPS for c in clients)

