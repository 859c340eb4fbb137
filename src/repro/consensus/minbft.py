"""MinBFT (Veronese et al.): trusted-hardware BFT replication at n = 2f+1.

The paper's motivating application class: with a trusted monotonic counter
(USIG over TrInc) at every replica, Byzantine state-machine replication
needs only **2f+1** replicas and **two** message rounds — versus PBFT's
3f+1 replicas and three rounds. This module implements the protocol over
the simulator's asynchronous network, with the USIG-specific view change
(tamper-evident sent logs; see :mod:`repro.consensus.viewchange`).

Normal case (view v, primary = v mod n):

1. client → all replicas: signed ``REQUEST``;
2. primary assigns the next slot: ``PREPARE(v, seq, req)`` with a fresh UI;
3. every replica, processing the primary's stream in UI order, accepts the
   *first* PREPARE per slot (the USIG makes a later conflicting PREPARE
   harmless: correct replicas all see the same first one) and broadcasts
   ``COMMIT(v, seq, req, prepare_ui)`` with its own UI;
4. a slot is committed once f+1 distinct replicas vouch for the same
   ``(v, seq, req, prepare_ui)`` (the primary's PREPARE counts); slots are
   executed in order and replies sent to the client, who waits for f+1
   matching replies.

View change: f+1 signed ``REQ-VIEW-CHANGE`` messages move replicas to send
``VIEW-CHANGE(v', full_sent_log)``; the new primary bundles f+1 verified
logs into ``NEW-VIEW``; everyone recomputes the re-proposal set
deterministically and the new primary re-PREPAREs it. Safety across views
follows from log tamper-evidence (gap-free USIG counters).

Timing assumption: liveness needs partial synchrony (timeouts eventually
find a correct primary); safety never depends on time.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.serialize import IdentityMemo, content_hash
from ..crypto.signatures import SignatureScheme, Signer
from ..errors import ConfigurationError
from ..types import ProcessId, SeqNum
from .apps import StateMachine
from .replica import REQUEST, ReplicaCore, proposal_requests, request_key
from .usig import UI, UIOrderEnforcer, USIG, USIGVerifier, ui_like
from .viewchange import compute_reproposals, verify_log_from

USIG_WRAP = "USIG"
PREPARE = "PREPARE"
COMMIT = "COMMIT"
CHECKPOINT = "CHECKPOINT"
REQ_VIEW_CHANGE = "REQ-VIEW-CHANGE"
VIEW_CHANGE = "VIEW-CHANGE"
NEW_VIEW = "NEW-VIEW"
RESYNC = "RESYNC"
RESYNC_INFO = "RESYNC-INFO"


def rvc_domain(replica: ProcessId, new_view: int) -> tuple:
    return ("MINBFT-RVC", replica, new_view)


def resync_domain(replica: ProcessId, nonce: int) -> tuple:
    return ("MINBFT-RESYNC", replica, nonce)


def resync_info_domain(replica: ProcessId, nonce: int, digest: bytes) -> tuple:
    return ("MINBFT-RESYNC-INFO", replica, nonce, digest)


def prepare_message(memo: IdentityMemo, view: Any, seq: Any, request: Any) -> tuple:
    """The PREPARE that a COMMIT's embedded prepare UI re-binds.

    Every replica (and the accountability observer) rebuilds it for every
    COMMIT it sees; interned per ``(view, seq, request object)`` the tuple
    is one object, so its digest is computed once and found by identity
    after that.
    """
    message = (PREPARE, view, seq, request)
    interned = memo.get(message)
    if interned is not None:
        return interned
    memo.put(message, message)
    return message


class MinBFTReplica(ReplicaCore):
    """One MinBFT replica.

    Parameters: ``n`` replicas tolerate ``f = (n-1)//2`` Byzantine; the
    replica ids are ``0..n-1`` and clients live at higher pids. ``usig``
    is this replica's trusted component, ``verifier``/``scheme`` are the
    public verification roots shared by everyone. ``options`` are
    :class:`~repro.consensus.replica.ReplicaCore`'s, which holds everything
    not specific to the USIG (intake, execution, pipeline, view adoption).
    """

    VC_TIMER = "minbft-vc"
    BATCH_TAG = "minbft-batch"

    def __init__(
        self,
        n: int,
        usig: USIG,
        verifier: USIGVerifier,
        scheme: SignatureScheme,
        signer: Signer,
        app: StateMachine,
        **options: Any,
    ) -> None:
        if n < 3 or n % 2 == 0:
            raise ConfigurationError(
                f"MinBFT runs with n = 2f+1 >= 3 replicas, got n={n}"
            )
        super().__init__(n, (n - 1) // 2, scheme, signer, app, **options)
        self.quorum = self.f + 1
        self.usig = usig
        self.verifier = verifier
        self.sent_log: list[tuple[Any, UI]] = []
        self._enforcer = UIOrderEnforcer()
        # slot -> (view, prepare_counter, request) first-accepted prepare
        self._accepted: dict[SeqNum, tuple[int, SeqNum, Any]] = {}
        # vote key -> set of replicas
        self._votes: dict[tuple, set[ProcessId]] = {}
        self._expected_reproposals: dict[SeqNum, Any] = {}
        self._log_base: SeqNum = 0  # my counter at the stable checkpoint
        # last verified NEW-VIEW (message, ui) — served to recovering peers
        self._latest_new_view: Optional[tuple] = None
        self._resynced: set[ProcessId] = set()
        self._started_incarnation: Optional[int] = None
        # pre-execution state: the rollback anchor when no checkpoint has
        # stabilized yet (conviction may void every unattested slot)
        self._genesis_state = self._state_blob()
        self.resyncs_answered = 0

    # -- lifecycle --------------------------------------------------------------

    def on_start(self) -> None:
        # Restart hygiene: a previous incarnation's timer ids must never be
        # acted on by this one. The simulator purges a crashed pid's timers,
        # but a recycled replica object (or a factory that pre-builds its
        # replacement) could still carry ids across the reboot — clear them
        # and remember which incarnation armed our timers.
        self._vc_timer = None
        self._batch_timer = None
        self._batch_stalled = False
        self._started_incarnation = self.ctx.incarnation
        if self.ctx.incarnation > 0:
            self._request_resync()

    # -- USIG send path ----------------------------------------------------------

    def _usig_broadcast(self, message: tuple) -> None:
        ui = self.usig.create_ui(message)
        self.sent_log.append((message, ui))
        # consensus traffic stays inside the replica group (pids 0..n-1 by
        # the harness layout everywhere): clients, ingresses, and tenants
        # never consume USIG messages, and in a served deployment they can
        # outnumber replicas 10:1 — a full broadcast would amplify every
        # PREPARE/COMMIT (and every view-change re-proposal) by that factor
        wrapped = (USIG_WRAP, message, ui)
        for dst in range(self.n):
            self.ctx.send(dst, wrapped)

    # -- receive dispatch -----------------------------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and msg and isinstance(msg[0], str)):
            self.malformed_rejects += 1
            return
        kind = msg[0]
        if kind == USIG_WRAP and len(msg) == 3:
            _, message, ui = msg
            if not ui_like(ui):
                self.malformed_rejects += 1
                return
            if not self.verifier.verify_ui(ui, message, ui.replica):
                self.malformed_rejects += 1
                return
            if not (0 <= ui.replica < self.n):
                self.malformed_rejects += 1
                return
            if ui.replica in self._convicted:
                self.convicted_rejects += 1
                return
            self._enforcer.submit(
                ui.replica, ui.counter, (message, ui), self._on_usig_released
            )
        elif kind == REQUEST and len(msg) == 5:
            self._on_request(msg)
        elif kind == REQ_VIEW_CHANGE and len(msg) == 4:
            if src in self._convicted:
                self.convicted_rejects += 1
                return
            self._on_req_view_change(src, msg)
        elif kind == RESYNC and len(msg) == 4:
            self._on_resync(msg)
        elif kind == RESYNC_INFO and len(msg) == 7:
            self._on_resync_info(msg)
        else:
            # unknown kind, or a known kind with the wrong arity: typed
            # reject (Byzantine babble must never throw a replica)
            self.malformed_rejects += 1

    def _emit_slot(self, seq: SeqNum, proposal: Any) -> None:
        """Core hook: one assigned slot onto the wire, USIG-ordered."""
        self._usig_broadcast((PREPARE, self.view, seq, proposal))

    # -- USIG-ordered processing -----------------------------------------------------------

    def _on_usig_released(self, replica: ProcessId, counter: SeqNum, item: Any) -> None:
        message, ui = item
        if not (isinstance(message, tuple) and message and isinstance(message[0], str)):
            return
        kind = message[0]
        if kind == PREPARE and len(message) == 4:
            self._on_prepare(replica, ui, message)
        elif kind == COMMIT and len(message) == 5:
            self._on_commit(replica, ui, message)
        elif kind == CHECKPOINT and len(message) == 3:
            self._on_checkpoint(replica, ui, message)
        elif kind == VIEW_CHANGE and len(message) == 6:
            self._on_view_change(replica, ui, message)
        elif kind == NEW_VIEW and len(message) == 3:
            self._on_new_view(replica, ui, message)
        else:
            # USIG-signed babble: sequenced, authentic, still garbage
            self.malformed_rejects += 1

    def _on_prepare(self, replica: ProcessId, ui: UI, message: tuple) -> None:
        _, view, seq, request = message
        if not isinstance(view, int) or not isinstance(seq, int) or seq < 1:
            return
        if view != self.view or self.in_view_change is not None:
            return
        if replica != self.primary_of(view):
            return
        if not self._valid_proposal(request):
            return
        # after a view change the primary must re-propose exactly S
        expected = self._expected_reproposals.get(seq)
        if expected is not None and expected != request:
            return
        if seq in self._accepted and self._accepted[seq][0] >= view:
            return  # first PREPARE per slot wins within a view
        self._accepted[seq] = (view, ui.counter, request)
        for req in proposal_requests(request):
            self._proposed_keys.add(request_key(req))
        self._vote(replica, view, seq, request, ui)
        self._usig_broadcast((COMMIT, view, seq, request, ui))

    def _on_commit(self, replica: ProcessId, ui: UI, message: tuple) -> None:
        _, view, seq, request, prepare_ui = message
        if not isinstance(view, int) or not isinstance(seq, int):
            return
        if view != self.view or self.in_view_change is not None:
            return
        if not ui_like(prepare_ui):
            return
        prepare = prepare_message(self.scheme.memo, view, seq, request)
        if not self.verifier.verify_ui(prepare_ui, prepare, self.primary_of(view)):
            return
        if not self._valid_proposal(request):
            return
        self._vote(replica, view, seq, request, prepare_ui)
        # the embedded prepare UI is verifiable proof of the primary's vote —
        # count it. This is load-bearing for liveness: a replica whose view
        # of the primary's stream is gapped (Byzantine primary) can still
        # assemble certificates from correct replicas' COMMITs alone.
        self._vote(self.primary_of(view), view, seq, request, prepare_ui)

    def _vote(self, replica: ProcessId, view: int, seq: SeqNum,
              request: Any, prepare_ui: UI) -> None:
        if replica in self._convicted:
            # a proven-Byzantine replica's vote (including the embedded
            # primary vote a COMMIT re-asserts) certifies nothing
            self.convicted_rejects += 1
            return
        key = (view, seq, prepare_ui.counter, content_hash(request))
        voters = self._votes.setdefault(key, set())
        voters.add(replica)
        if (
            len(voters) >= self.f + 1
            and seq >= self.exec_next  # executed slots leave _certified
            and seq not in self._certified
        ):
            self._certified[seq] = request
            self._execute_ready()

    # -- checkpointing / log garbage collection ------------------------------------------

    def _send_checkpoint(self, seq: SeqNum, digest: bytes) -> None:
        self._usig_broadcast((CHECKPOINT, seq, digest))

    def _on_checkpoint(self, replica: ProcessId, ui: UI, message: tuple) -> None:
        _, seq, digest = message
        if not isinstance(seq, int) or not isinstance(digest, bytes):
            return
        self._on_ckpt_vote(replica, seq, digest, (replica, message, ui))

    def _check_ckpt_entry(self, entry: Any) -> Optional[tuple]:
        """Core hook: a certificate entry is ``(replica, ("CHECKPOINT", seq,
        digest), ui)``; the UI's counter is what lets a verifier pin that
        replica's log base."""
        if not (isinstance(entry, tuple) and len(entry) == 3):
            return None
        replica, message, ui = entry
        if not (isinstance(message, tuple) and len(message) == 3
                and message[0] == CHECKPOINT):
            return None
        _, seq, digest = message
        if not isinstance(seq, int) or not isinstance(digest, bytes):
            return None
        if not ui_like(ui) or ui.replica != replica:
            return None
        if not self.verifier.verify_ui(ui, message, replica):
            return None
        return replica, seq, digest

    def _prune_slots(self, seq: SeqNum, my_entry: tuple) -> None:
        """Core hook: truncate the sent log at the counter of OUR checkpoint
        message, and drop the accepted-prepare / vote maps of settled slots."""
        my_counter = my_entry[2].counter
        keep = [(m, u) for (m, u) in self.sent_log if u.counter > my_counter]
        self.log_entries_gced += len(self.sent_log) - len(keep)
        self.sent_log = keep
        self._log_base = my_counter
        self._accepted = {s: v for s, v in self._accepted.items() if s > seq}
        self._votes = {k: v for k, v in self._votes.items() if k[1] > seq}
        self._expected_reproposals = {
            s: r for s, r in self._expected_reproposals.items() if s > seq
        }

    def _protocol_state_size(self) -> int:
        return (len(self._accepted) + len(self.sent_log)
                + sum(len(v) for v in self._votes.values()))

    # -- crash-recovery resync ---------------------------------------------------------------
    #
    # A rebooted replica keeps its trusted USIG but loses everything
    # volatile, including the UI-order enforcer's per-peer cursors. Peers'
    # frames acked by the dead incarnation are never retransmitted, so
    # without help the fresh enforcer waits forever at each peer's counter 1
    # and the recovered replica is deaf. The resync handshake repairs this:
    # the rebooted replica announces itself (signed, tagged with its new
    # incarnation as a nonce), and each peer answers with (a) its current
    # USIG counter — authorizing the enforcer to skip the unrecoverable
    # prefix of that peer's stream, which is safe because a peer can only
    # truncate its *own* stream — (b) its latest USIG-signed NEW-VIEW, whose
    # bundle is validated exactly like a live NEW-VIEW before the view is
    # adopted, and (c) its stable checkpoint certificate + state blob for
    # fast-forwarding execution. The nonce rejects replayed RESYNC-INFO from
    # before the latest reboot (stale-incarnation guard).

    def _request_resync(self) -> None:
        nonce = self.ctx.incarnation
        sig = self.signer.sign(resync_domain(self.pid, nonce))
        for dst in range(self.n):
            if dst != self.pid:
                self.ctx.send(dst, (RESYNC, self.pid, nonce, sig))

    def _on_resync(self, msg: tuple) -> None:
        _, claimed, nonce, sig = msg
        if not (
            isinstance(claimed, int)
            and 0 <= claimed < self.n
            and claimed != self.pid
            and isinstance(nonce, int)
        ):
            return
        if not self.scheme.verify_from(claimed, resync_domain(claimed, nonce), sig):
            return
        counter = self.usig.counter
        nv = self._latest_new_view
        stable = (
            (self.stable_seq, self._stable_cert, self._stable_blob)
            if self.stable_seq > 0
            else None
        )
        digest = content_hash((counter, nv, stable))
        info_sig = self.signer.sign(resync_info_domain(self.pid, nonce, digest))
        self.resyncs_answered += 1
        self.ctx.send(
            claimed, (RESYNC_INFO, self.pid, nonce, counter, nv, stable, info_sig)
        )

    def _on_resync_info(self, msg: tuple) -> None:
        _, peer, nonce, counter, nv, stable, sig = msg
        if not (isinstance(peer, int) and 0 <= peer < self.n and peer != self.pid):
            return
        if nonce != self.ctx.incarnation:
            return  # stale: answers a resync from a previous incarnation
        if peer in self._resynced:
            return
        if not isinstance(counter, int) or counter < 0:
            return
        try:
            # attacker-controlled nv/stable may be unserializable garbage;
            # a typed reject, never an exception escaping the handler
            digest = content_hash((counter, nv, stable))
        except Exception:
            self.malformed_rejects += 1
            return
        if not self.scheme.verify_from(
            peer, resync_info_domain(peer, nonce, digest), sig
        ):
            return
        self._resynced.add(peer)
        self._enforcer.resync(peer, counter, self._on_usig_released)
        # newest view first: the bundle is the primary's USIG-signed NEW-VIEW,
        # validated exactly as if it had arrived through the live protocol
        if isinstance(nv, tuple) and len(nv) == 2:
            nv_msg, nv_ui = nv
            if (
                isinstance(nv_msg, tuple)
                and len(nv_msg) == 3
                and nv_msg[0] == NEW_VIEW
                and ui_like(nv_ui)
                and self._accepts_new_view(nv_ui.replica, nv_msg[1])
                and self.verifier.verify_ui(nv_ui, nv_msg, nv_ui.replica)
            ):
                self._adopt_new_view(nv_msg[1], nv_msg[2])
        # then certified checkpoint state, which may be newer still
        if isinstance(stable, tuple) and len(stable) == 3:
            s_seq, cert, blob = stable
            claim = self._stable_claim(False, cert, blob)
            if (
                claim is not None
                and claim[0] == s_seq
                and isinstance(blob, tuple)
                and len(blob) == 4
                and s_seq >= self.exec_next
            ):
                self._install_state(s_seq, blob)
                self._execute_ready()
                self._pipeline_resume()  # the transfer moved the window base

    # -- view change -------------------------------------------------------------------------

    def on_timer(self, tag: Any) -> None:
        if (
            self._started_incarnation is not None
            and self.ctx.incarnation != self._started_incarnation
        ):
            return  # a previous incarnation armed this timer
        super().on_timer(tag)

    def _send_demand(self, new_view: int) -> None:
        """Core hook: the demand is a signed REQ-VIEW-CHANGE; the USIG-logged
        VIEW-CHANGE follows once f+1 replicas back the view."""
        sig = self.signer.sign(rvc_domain(self.pid, new_view))
        for dst in range(self.n):
            self.ctx.send(dst, (REQ_VIEW_CHANGE, self.pid, new_view, sig))

    def _on_req_view_change(self, src: ProcessId, msg: tuple) -> None:
        _, claimed, new_view, sig = msg
        if (
            claimed == src and isinstance(new_view, int) and new_view > self.view
            and 0 <= src < self.n
            and self.scheme.verify_from(src, rvc_domain(src, new_view), sig)
        ):
            self._on_demand(src, new_view)

    def _send_evidence(self, new_view: int) -> None:
        """Core hook: the USIG-logged VIEW-CHANGE carries the sent log since
        the stable checkpoint; entering the view change restarts the timer."""
        self._usig_broadcast((
            VIEW_CHANGE, new_view, self._log_base, self._stable_cert,
            self._stable_blob, tuple(self.sent_log),
        ))
        self._restart_vc_timer()

    def _validate_vc(self, replica: ProcessId, base: Any, cert: Any,
                     state_blob: Any, log: Any,
                     end_counter: SeqNum) -> Optional[tuple]:
        """Validate a VIEW-CHANGE body; returns (stable_seq, blob, entries).

        ``base = 0`` means a full log (no garbage collection yet). A
        non-zero base must come with a checkpoint certificate that (a) has
        f+1 matching attestations, (b) contains *this replica's* checkpoint
        message at exactly counter ``base`` and (c) matches the digest of the
        piggybacked state blob. The log must then fill every counter from
        ``base + 1`` to the VIEW-CHANGE's own, ``end_counter``: nothing
        since the checkpoint can be hidden.
        """
        if not isinstance(base, int) or base < 0:
            return None
        claim = self._stable_claim(base == 0, cert, state_blob)
        if claim is None:
            return None
        stable_seq, attested = claim
        if base and (
            replica not in attested or attested[replica][2].counter != base
        ):
            return None
        entries = verify_log_from(
            self.verifier, replica, log, base + 1, end_counter
        )
        return None if entries is None else (stable_seq, state_blob, entries)

    def _on_view_change(self, replica: ProcessId, ui: UI, message: tuple) -> None:
        _, new_view, *evidence = message
        if not isinstance(new_view, int) or new_view <= self.view:
            return
        if self._validate_vc(replica, *evidence, ui.counter) is not None:
            self._on_evidence(replica, new_view, (*evidence, ui))

    def _new_view_ready(self, new_view: int) -> bool:
        """Core hook: only once the primary entered that view change."""
        return self.in_view_change == new_view

    def _send_new_view(self, new_view: int, bundle: tuple) -> None:
        """Core hook: the NEW-VIEW is USIG-logged like any other message."""
        self._usig_broadcast((NEW_VIEW, new_view, bundle))

    def _validate_evidence(self, new_view: int,
                           item: tuple) -> Optional[tuple[SeqNum, Any, Any]]:
        """Core hook: ``(replica, base, cert, blob, log, ui)`` where ``ui``
        is the replica's UI on its VIEW-CHANGE for ``new_view``, which pins
        the end of the log :meth:`_validate_vc` checks; the record is the
        log's verified entries."""
        if len(item) != 6:
            return None
        r, base, cert, state_blob, log, ui = item
        message = (VIEW_CHANGE, new_view, base, cert, state_blob, log)
        if not (ui_like(ui) and self.verifier.verify_ui(ui, message, r)):
            return None
        return self._validate_vc(r, base, cert, state_blob, log, ui.counter)

    def _reproposals(self, records: dict[ProcessId, Any],
                     best_stable: SeqNum) -> dict[SeqNum, Any]:
        """Core hook: the best candidate per slot across the f+1 verified
        logs (:func:`~repro.consensus.viewchange.compute_reproposals`)."""
        return {
            seq: cand.request
            for seq, cand in compute_reproposals(records).items()
            if seq > best_stable
        }

    def _on_new_view(self, replica: ProcessId, ui: UI, message: tuple) -> None:
        _, new_view, bundle = message
        if (self._accepts_new_view(replica, new_view)
                and self._adopt_new_view(new_view, bundle)):
            self._latest_new_view = (message, ui)

    def _reset_view_slots(self, stable_seq: SeqNum,
                          reproposals: dict[SeqNum, Any]) -> None:
        """Core hook: the new primary must PREPARE exactly the re-proposal
        set, and no PREPARE of an old view counts in the new one."""
        self._expected_reproposals = reproposals
        self._accepted = {}

    # -- forensic conviction / graceful degradation ------------------------------------

    def convict(self, culprit: ProcessId) -> None:
        """Quarantine a replica proven Byzantine (a transferable UI-conflict
        proof — see :mod:`repro.consensus.forensics`) and degrade gracefully.

        A compromised trusted counter voids MinBFT's core premise, so every
        slot not yet covered by a stable checkpoint is suspect: the culprit
        may have split the group with per-destination UIs and any f+1
        certificate it contributed to can disagree across survivors. The
        recovery is therefore: refuse all further input from the culprit
        (messages, votes, view-change requests), purge its held stream,
        roll state back to the last attested blob (stable checkpoint, or
        the pre-execution genesis state), and force a view change to the
        next view led by an unconvicted replica — the surviving f+1 re-form
        a live group and re-certify the voided slots consistently.
        """
        if culprit == self.pid or culprit in self._convicted:
            return
        self._convicted.add(culprit)
        self._enforcer.purge(culprit)
        self._rollback_to_attested()
        self.ctx.record("custom", event="convict", culprit=culprit)
        self._view_change_past_convicted((self.in_view_change or self.view) + 1)
        self._restart_vc_timer()

    def _rollback_to_attested(self) -> None:
        """Rewind execution to the newest state a quorum attested to."""
        if self.stable_seq > 0 and self._stable_blob is not None:
            blob = self._stable_blob
            base_seq = self.stable_seq
        else:
            blob = self._genesis_state
            base_seq = 0
        _tag, snapshot, dedup_image, exec_next = blob
        rolled_from = self.exec_next
        self.app.restore(snapshot)
        self._dedup.restore(dedup_image)
        self.exec_next = exec_next
        self._certified = {}
        self._votes = {}
        self._accepted = {s: v for s, v in self._accepted.items() if s <= base_seq}
        self._proposed_keys = {
            k for k in self._proposed_keys if self._is_executed(k)
        }
        if rolled_from != exec_next:
            self.ctx.record(
                "custom", event="rollback", to_seq=exec_next - 1,
                rolled_from=rolled_from - 1,
            )
