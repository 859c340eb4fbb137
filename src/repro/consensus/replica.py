"""The replica core: everything MinBFT and PBFT do identically.

The paper's point is that trusted hardware changes *one thing* —
non-equivocation, hence n = 2f+1 with f+1 quorums instead of n = 3f+1
with 2f+1 quorums. :class:`ReplicaCore` holds, once, everything that is
**not** that difference: client-request intake (validation, dedup and
cached replies, pending set, view-change timer), the primary-side
windowed/batched proposal engine, in-order execution of certified slots
(apply, dedup record, latency feedback, REPLY, no-op slots, checkpoint
trigger), the checkpoint state blob, its installation and the adoption
of a checkpoint a peer ships (:meth:`~ReplicaCore._adopt_checkpoint`), the
view-change machine (demand, join at f+1, NEW-VIEW once per view at the
quorum, its acceptance test and bundle check) ending in the adoption of the
view (fast-forward, slot-state reset, timers, re-proposal), and the
escalation tail of the view-change timer and of a conviction.
:class:`~repro.consensus.minbft.MinBFTReplica` and
:class:`~repro.consensus.pbft.PBFTReplica` add how a slot gets
*certified* — a replica class defines **evidence and quorum**, the core
defines everything else — and plug in through a handful of hooks, none of
them on the per-request path: :meth:`~ReplicaCore._emit_slot`,
:meth:`~ReplicaCore._slot_requests`, for the view change
:meth:`~ReplicaCore._send_demand`, :meth:`~ReplicaCore._send_evidence`,
:meth:`~ReplicaCore._validate_evidence`, :meth:`~ReplicaCore._reproposals`
and :meth:`~ReplicaCore._send_new_view` (with
:meth:`~ReplicaCore._join_view_change` and
:meth:`~ReplicaCore._new_view_ready` where the two differ),
:meth:`~ReplicaCore._before_vc_retry`, for view adoption
:meth:`~ReplicaCore._reset_view_slots` and :meth:`~ReplicaCore._repropose`,
:meth:`~ReplicaCore._protocol_state_size`, :attr:`ReplicaCore.STATE_TAG`,
and for checkpoints :attr:`ReplicaCore.quorum`,
:meth:`~ReplicaCore._send_checkpoint` / :meth:`~ReplicaCore._check_ckpt_entry`
(one replica's evidence out, one certificate entry in),
:meth:`~ReplicaCore._prune_slots` and
:meth:`~ReplicaCore._on_checkpoint_ahead` (DESIGN.md §5.2 says which
paper-level difference each one carries).

**Bounded in-flight window.** ``window_size > 0`` caps how many slots may
be outstanding between the window base — ``max(stable_seq, exec_next-1)``,
i.e. the newer of the stable checkpoint and the execution frontier — and
``next_seq``. A primary at the window edge *stalls* its proposals (the
requests simply stay pending) and resumes when execution progress or
checkpoint stabilization moves the base. Anchoring the base on the
execution frontier as well as the stable checkpoint means a window
smaller than the checkpoint interval cannot deadlock (classic
PBFT watermarks, which anchor on the checkpoint alone, require
``window > interval``); the checkpoint anchor still matters after a
state-transfer fast-forward, where ``stable_seq`` leads ``exec_next``.

**Batching** follows a :mod:`~repro.consensus.batching` policy. A batch
flush that meets a full window **re-queues**: the unproposed requests
stay pending, a stall is counted, and the flush re-runs as soon as the
window reopens. Nothing is ever dropped at the window edge.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto.serialize import content_hash
from ..crypto.signatures import SignatureScheme, Signer
from ..errors import ConfigurationError
from ..sim.process import Process
from ..types import ProcessId, SeqNum
from .apps import StateMachine
from .batching import make_batch_policy
from .dedup import MISSING, ClientDedup

REQUEST = "REQUEST"
REPLY = "REPLY"


def request_key(request: Any) -> tuple:
    """Stable identity of a client request: (client, req_id)."""
    return (request[1], request[2])


def proposal_requests(proposal: Any) -> list:
    """The client requests a slot proposal carries (a batch or a single one)."""
    if isinstance(proposal, tuple) and proposal and proposal[0] == "BATCH":
        return list(proposal[1:])
    return [proposal]


def request_domain(client: ProcessId, req_id: int, op: Any) -> tuple:
    return ("MINBFT-REQ", client, req_id, op)


def validate_checkpoint_cert(
    cert: Any,
    quorum: int,
    check_entry: Callable[[Any], Optional[tuple[ProcessId, SeqNum, bytes]]],
) -> Optional[tuple[SeqNum, bytes, dict[ProcessId, Any]]]:
    """Validate a stable-checkpoint certificate.

    ``cert`` is a tuple of protocol-specific entries; ``check_entry`` maps
    one entry to ``(replica, seq, digest)`` when it is that replica's
    verified attestation of the state after ``seq``, else to None. Valid
    when at least ``quorum`` *distinct* replicas attested the same
    ``(seq, digest)`` and nothing else rides along (every entry must
    check out, match the first and name a new replica). Returns
    ``(seq, digest, {replica: entry})``.
    """
    if not isinstance(cert, tuple) or not cert or len(cert) < quorum:
        return None
    claim: Optional[tuple] = None
    entries: dict[ProcessId, Any] = {}
    for entry in cert:
        checked = check_entry(entry)
        if checked is None:
            return None
        replica, *this = checked
        if claim is None:
            claim = this
        if this != claim or replica in entries:
            return None
        entries[replica] = entry
    return claim[0], claim[1], entries


class ReplicaCore(Process):
    """Protocol-independent replica state and behaviour (see module doc).

    Subclasses dispatch ``REQUEST`` messages to :meth:`_on_request`, put a
    slot in :attr:`_certified` and call :meth:`_execute_ready` once their
    quorum vouches for it, and call :meth:`_pipeline_resume` whenever the
    window base may have moved (checkpoint stabilization, state transfer).
    They hand a verified demand to :meth:`_on_demand`, a verified VIEW-CHANGE
    to :meth:`_on_evidence`, an authentic NEW-VIEW that passes
    :meth:`_accepts_new_view` to :meth:`_adopt_new_view`, and a checkpoint
    blob a peer shipped to :meth:`_adopt_checkpoint`.
    Options: ``window_size`` bounds in-flight slots (0 = unbounded);
    ``batch_policy`` is ``None``/"fixed" (the ``batch_delay`` timer) or
    "adaptive"; a ``None`` ``timeout_policy`` fixes ``req_timeout``.
    """

    VC_TIMER = "vc"
    BATCH_TAG = "batch"
    STATE_TAG = "CKPT-STATE"
    quorum: int
    """Hook: how many matching votes certify a checkpoint, and how many
    replicas' VIEW-CHANGEs a NEW-VIEW bundles (f+1 behind trusted hardware,
    2f+1 without); set by the subclass constructor."""

    def __init__(
        self,
        n: int,
        f: int,
        scheme: SignatureScheme,
        signer: Signer,
        app: StateMachine,
        *,
        req_timeout: float = 60.0,
        checkpoint_interval: int = 0,
        batching: bool = False,
        batch_delay: float = 0.2,
        batch_policy: Any = None,
        window_size: int = 0,
        timeout_policy: Any = None,
    ) -> None:
        super().__init__()
        if window_size < 0:
            raise ConfigurationError(
                f"window_size must be >= 0, got {window_size}"
            )
        self.n = n
        self.f = f
        self.scheme = scheme
        self.signer = signer
        self.app = app
        self.req_timeout = req_timeout
        if timeout_policy is None:
            from ..faults.timeouts import FixedTimeout  # lazy: faults builds on consensus

            timeout_policy = FixedTimeout(self.req_timeout)
        elif callable(timeout_policy) and not hasattr(timeout_policy, "current"):
            timeout_policy = timeout_policy()
        self.timeout_policy = timeout_policy

        self.view = 0
        self.in_view_change: Optional[int] = None
        self.next_seq: SeqNum = 1  # primary's next slot to assign
        self.exec_next: SeqNum = 1
        self._certified: dict[SeqNum, Any] = {}
        self._proposed_keys: set[tuple] = set()
        # bounded executed-request memory + reply cache (replaces the old
        # unbounded _executed_keys set and latest-only _client_cache, which
        # a multi-outstanding client would race past)
        self._dedup = ClientDedup()
        self._pending: dict[tuple, Any] = {}  # request_key -> request
        # request arrival times feed the adaptive timeout's RTT estimator
        self._pending_since: dict[tuple, float] = {}
        self._vc_timer: Optional[int] = None
        # the view-change machine: views demanded, and per view the verified
        # demands, the verified VIEW-CHANGEs, and whether its NEW-VIEW went out
        self._demanded: set[int] = set()
        self._demands: dict[int, set[ProcessId]] = {}
        self._vcs: dict[int, dict[ProcessId, tuple]] = {}
        self._new_view_sent: set[int] = set()
        # checkpointing / garbage collection
        self.checkpoint_interval = checkpoint_interval
        # (seq, digest) -> {replica: its certificate entry}
        self._ckpt_votes: dict[tuple, dict[ProcessId, Any]] = {}
        self._ckpt_blobs: dict[SeqNum, Any] = {}  # my own state blobs by seq
        self.stable_seq: SeqNum = 0
        self._stable_cert: tuple = ()
        self._stable_blob: Any = None
        # forensics: replicas proven Byzantine (see consensus/forensics);
        # their messages and votes are refused from conviction on
        self._convicted: set[ProcessId] = set()
        # pipeline
        self.batching = bool(batching)
        self.batch_delay = batch_delay
        self.batch_policy = make_batch_policy(
            batch_policy if batching else None, batch_delay
        )
        self.window_size = window_size
        self._batch_timer: Optional[int] = None
        self._batch_stalled = False
        # counters (all deterministic for a fixed seed)
        self.commits_executed = 0
        self.view_changes_completed = 0
        self.log_entries_gced = 0
        self.state_transfers = 0
        self.malformed_rejects = 0
        self.convicted_rejects = 0
        self.proposal_stalls = 0
        self.batches_flushed = 0
        self.noop_slots = 0
        self.batch_size_hist: dict[int, int] = {}
        self._window_peak = 0
        self._window_sum = 0
        self._window_samples = 0

    # -- identity helpers --------------------------------------------------

    def primary_of(self, view: int) -> ProcessId:
        return view % self.n

    @property
    def is_primary(self) -> bool:
        return self.in_view_change is None and self.primary_of(self.view) == self.pid

    # -- client requests ---------------------------------------------------

    def _valid_request(self, request: Any) -> bool:
        if not (isinstance(request, tuple) and len(request) == 5
                and request[0] == REQUEST):
            return False
        _, client, req_id, op, sig = request
        return (
            isinstance(client, int)
            and isinstance(req_id, int)
            and self.scheme.verify_from(
                client, request_domain(client, req_id, op), sig
            )
        )

    def _is_executed(self, key: tuple) -> bool:
        """Whether (client, req_id) was executed — directly or via a
        checkpoint fast-forward (the dedup structure survives transfer)."""
        return self._dedup.executed(key[0], key[1])

    def _on_request(self, request: tuple) -> None:
        if not self._valid_request(request):
            return
        _, client, req_id, _op, _sig = request
        if self._dedup.executed(client, req_id):
            result = self._dedup.reply(client, req_id)
            if result is not MISSING:  # retransmission of an answered request
                self.ctx.send(client, (REPLY, self.pid, req_id, result, self.view))
            return
        key = (client, req_id)
        if key not in self._pending:
            self._pending[key] = request
            self._pending_since[key] = self.ctx.now
            self.batch_policy.note_arrival(self.ctx.now)
        if self.is_primary:
            self._propose_pending()
        if self._vc_timer is None and self._pending:
            self._arm_vc_timer()

    def _valid_proposal(self, proposal: Any) -> bool:
        """A slot proposal: one valid request, or a non-empty BATCH of them
        with no duplicate request keys.

        Memoized per proposal *object* in the scheme's protocol memo: the
        same proposal is re-validated at every replica in every phase that
        carries it. A Byzantine primary's list-shaped copy of a request is a
        different object (and, being mutable, never stored), so it can
        neither cache its rejection for the genuine tuple nor inherit the
        tuple's acceptance.
        """
        key = ("proposal", proposal)
        verdict = self.scheme.memo.get(key)
        if verdict is None:
            requests = proposal_requests(proposal)
            verdict = (
                bool(requests)
                and all(self._valid_request(r) for r in requests)
                and len({request_key(r) for r in requests}) == len(requests)
            )
            self.scheme.memo.put(key, verdict)
        return verdict

    # -- window --------------------------------------------------------------

    def _window_base(self) -> SeqNum:
        return max(self.stable_seq, self.exec_next - 1)

    def _window_full(self) -> bool:
        return bool(self.window_size) and (
            self.next_seq - self._window_base() > self.window_size
        )

    def _note_window_slot(self) -> None:
        occupancy = self.next_seq - 1 - self._window_base()
        if occupancy > self._window_peak:
            self._window_peak = occupancy
        self._window_sum += occupancy
        self._window_samples += 1

    # -- proposal path -------------------------------------------------------

    def _fresh_pending(self) -> list[tuple[tuple, Any]]:
        return [
            (key, request)
            for key, request in sorted(self._pending.items())
            if key not in self._proposed_keys and not self._is_executed(key)
        ]

    def _propose_pending(self) -> None:
        if not self.is_primary:
            return
        fresh = self._fresh_pending()
        if not fresh:
            return
        if self.batching:
            cap = self.batch_policy.cap()
            size_ready = cap is not None and len(fresh) >= cap
            if (size_ready or self._batch_stalled) and not self._window_full():
                self._flush_batch_now(fresh)
            elif self._batch_timer is None:
                # open the batch window; the deadline timer flushes it
                self._batch_timer = self.ctx.set_timer(
                    self.batch_policy.deadline(), self.BATCH_TAG
                )
            return
        stalled = False
        for key, request in fresh:
            if self._window_full():
                stalled = True
                break
            seq = self.next_seq
            self.next_seq += 1
            self._proposed_keys.add(key)
            self._emit_slot(seq, request)
            self._note_window_slot()
        if stalled:
            self.proposal_stalls += 1

    def _on_batch_timer(self) -> None:
        self._batch_timer = None
        if not self.is_primary:
            return
        self._flush_batch_now(self._fresh_pending())

    def _flush_batch_now(self, fresh: list[tuple[tuple, Any]]) -> None:
        """Flush pending requests into slots, capped per slot by the policy.

        A full window mid-flush re-queues the remainder (the requests stay
        pending, :attr:`_batch_stalled` re-triggers the flush the moment
        the window reopens) — a deadline firing at the window edge must
        never drop requests.
        """
        self._batch_stalled = False
        while fresh:
            if self._window_full():
                self.proposal_stalls += 1
                self._batch_stalled = True
                return
            cap = self.batch_policy.cap()
            if cap is None:
                take, fresh = fresh, []
            else:
                take, fresh = fresh[:cap], fresh[cap:]
            seq = self.next_seq
            self.next_seq += 1
            for key, _request in take:
                self._proposed_keys.add(key)
            batch = ("BATCH", *(request for _key, request in take))
            self.batches_flushed += 1
            self.batch_size_hist[len(take)] = (
                self.batch_size_hist.get(len(take), 0) + 1
            )
            self._emit_slot(seq, batch)
            self._note_window_slot()

    def _pipeline_resume(self) -> None:
        """Re-run stalled proposals after the window base moved."""
        if not self.window_size or not self.is_primary:
            return
        if self._batch_stalled:
            self._flush_batch_now(self._fresh_pending())
        else:
            self._propose_pending()

    # -- hooks: where the two protocols differ -------------------------------

    def _emit_slot(self, seq: SeqNum, proposal: Any) -> None:
        """One assigned slot onto the wire."""
        raise NotImplementedError

    def _slot_requests(self, proposal: Any) -> list:
        """The client requests inside a certified slot proposal."""
        return proposal_requests(proposal)

    def _send_checkpoint(self, seq: SeqNum, digest: bytes) -> None:
        """Attest, with this protocol's evidence, that the state after
        executing ``seq`` hashes to ``digest``."""
        raise NotImplementedError

    def _check_ckpt_entry(self, entry: Any) -> Optional[tuple]:
        """``(replica, seq, digest)`` when ``entry`` is one replica's
        verified checkpoint attestation in this protocol's certificate
        format, else None."""
        raise NotImplementedError

    def _prune_slots(self, seq: SeqNum, my_entry: Any) -> None:
        """Drop the protocol's own per-slot state that a stable checkpoint
        at ``seq`` settles; ``my_entry`` is this replica's own entry in the
        certificate."""
        raise NotImplementedError

    def _on_checkpoint_ahead(self, seq: SeqNum, digest: bytes,
                             votes: dict[ProcessId, Any]) -> None:
        """A quorum certified a checkpoint this replica has not attested."""

    def _send_demand(self, new_view: int) -> None:
        """Tell the group this replica wants ``new_view``."""
        raise NotImplementedError

    def _send_evidence(self, new_view: int) -> None:
        """Broadcast this replica's VIEW-CHANGE for ``new_view``."""
        raise NotImplementedError

    def _validate_evidence(self, new_view: int,
                           item: tuple) -> Optional[tuple[SeqNum, Any, Any]]:
        """One NEW-VIEW bundle item ``(replica, *evidence)``: when it is
        that replica's valid VIEW-CHANGE for ``new_view``, its
        ``(stable_seq, state_blob, record)``, else None."""
        raise NotImplementedError

    def _reproposals(self, records: dict[ProcessId, Any],
                     best_stable: SeqNum) -> dict[SeqNum, Any]:
        """``{seq: proposal}`` the new view re-issues above ``best_stable``."""
        raise NotImplementedError

    def _send_new_view(self, new_view: int, bundle: tuple) -> None:
        """As ``new_view``'s primary, broadcast its NEW-VIEW, authenticated."""
        raise NotImplementedError

    def _new_view_ready(self, new_view: int) -> bool:
        """Whether the primary, at the quorum, may send NEW-VIEW now."""
        return True

    def _before_vc_retry(self) -> None:
        """A view-change timer expired unproductively; runs before it
        escalates."""

    def _reset_view_slots(self, stable_seq: SeqNum,
                          reproposals: dict[SeqNum, Any]) -> None:
        """Drop the protocol's per-slot state of the view being left."""
        raise NotImplementedError

    def _repropose(self, seq: SeqNum, proposal: Any) -> None:
        """As the new primary, re-issue a slot the NEW-VIEW carries."""
        for request in self._slot_requests(proposal):
            self._proposed_keys.add(request_key(request))
        self._emit_slot(seq, proposal)

    def _protocol_state_size(self) -> int:
        """The protocol's own per-slot entries (see :meth:`slot_state_size`)."""
        return 0

    def on_execute(self, seq: SeqNum, request: Any, result: Any) -> None:
        """Hook: called once per locally executed request (adapters override)."""

    # -- execution -----------------------------------------------------------

    def _execute_ready(self) -> None:
        executed_any = False
        exec_start = self.exec_next
        while self.exec_next in self._certified:
            seq = self.exec_next
            requests = self._slot_requests(self._certified[seq])
            slot_applied = False
            for request in requests:
                _, client, req_id, op, _sig = request
                key = (client, req_id)
                if self._is_executed(key):
                    continue
                result = self.app.apply(op)
                self._dedup.record(client, req_id, result)
                self._pending.pop(key, None)
                since = self._pending_since.pop(key, None)
                if since is not None:
                    # arrival-to-execution latency is the "round trip" the
                    # view-change timer actually waits on — and the horizon
                    # the adaptive batch policy sizes its cap against
                    latency = self.ctx.now - since
                    self.timeout_policy.observe(latency)
                    self.batch_policy.note_commit(latency, len(requests))
                executed_any = True
                self.commits_executed += 1
                self.ctx.record(
                    "custom", event="execute", seq=seq, client=client,
                    req_id=req_id, op=op, result=result,
                )
                self.ctx.send(client, (REPLY, self.pid, req_id, result, self.view))
                self.on_execute(seq, request, result)
                slot_applied = True
            if not slot_applied:
                # every request in this slot was a duplicate already applied
                # from an earlier slot (retry storms get stale resubmits
                # batched before the dedup caches catch up); the slot is
                # ordered but a no-op — record it so stream auditors can
                # tell a benign hole from a lost slot
                self.noop_slots += 1
                self.ctx.record("custom", event="execute_noop", seq=seq)
            self.exec_next = seq + 1
            del self._certified[seq]
            if (
                self.checkpoint_interval
                and seq % self.checkpoint_interval == 0
            ):
                self._emit_checkpoint(seq)
        if executed_any:
            self.timeout_policy.note_progress()
        if not self._pending:
            self._stop_vc_timer()
        if self.exec_next != exec_start:
            # execution progress moved the window base: stalled proposals
            # (and stalled batch flushes) may proceed now
            self._pipeline_resume()

    # -- checkpointing -------------------------------------------------------

    def _state_blob(self) -> tuple:
        """Transferable state at the current execution point."""
        return (
            self.STATE_TAG,
            self.app.snapshot(),
            self._dedup.snapshot(),
            self.exec_next,
        )

    def _restore_state(self, blob: tuple) -> None:
        """Restore app, dedup and execution frontier from a state blob."""
        _tag, snapshot, dedup_image, exec_next = blob
        self.app.restore(snapshot)
        self._dedup.restore(dedup_image)
        self.exec_next = exec_next

    def _install_state(self, stable_seq: SeqNum, blob: tuple) -> None:
        """Fast-forward to a checkpoint blob the caller has verified against
        a quorum-certified digest: restore app and dedup state, move the
        execution frontier, drop what the blob settles, and record the
        transfer (stream auditors treat the skipped slots as legitimate)."""
        self._restore_state(blob)
        exec_next = self.exec_next
        self._certified = {
            s: r for s, r in self._certified.items() if s >= exec_next
        }
        self._pending = {
            k: r for k, r in self._pending.items() if not self._is_executed(k)
        }
        self._pending_since = {
            k: t for k, t in self._pending_since.items() if k in self._pending
        }
        self.ctx.record(
            "custom", event="state_transfer", stable_seq=stable_seq,
            exec_next=exec_next,
        )

    def _emit_checkpoint(self, seq: SeqNum) -> None:
        """Keep the state blob after executing ``seq`` and attest to it."""
        blob = self._state_blob()
        self._ckpt_blobs[seq] = blob
        self._send_checkpoint(seq, content_hash(blob))

    def _on_ckpt_vote(self, replica: ProcessId, seq: SeqNum, digest: bytes,
                      entry: Any) -> None:
        """Count one replica's verified attestation (``entry``: its
        certificate entry). Stabilizes only once our own vote is in — it
        pins the blob we ship and, under MinBFT, the log truncation point."""
        votes = self._ckpt_votes.setdefault((seq, digest), {})
        votes.setdefault(replica, entry)
        if len(votes) < self.quorum or seq <= self.stable_seq:
            return
        if self.pid in votes:
            self._stabilize(seq, votes)
        else:
            self._on_checkpoint_ahead(seq, digest, votes)

    def _adopt_checkpoint(self, seq: Any, blob: Any) -> None:
        """Install a checkpoint blob an untrusted peer shipped, and adopt it
        as our own: it must hash to a digest at or past our frontier that a
        local ``quorum`` of votes pins, and move that frontier. Re-announcing
        it adds our vote, so it stabilizes through :meth:`_on_ckpt_vote`."""
        if not isinstance(seq, int) or seq < self.exec_next:
            return  # already caught up past this checkpoint
        try:
            digest = content_hash(blob)
        except Exception:  # attacker-controlled blob may not serialize
            return
        if len(self._ckpt_votes.get((seq, digest), ())) < self.quorum:
            return  # no local certificate pins this blob
        if not (isinstance(blob, tuple) and len(blob) == 4
                and blob[0] == self.STATE_TAG and isinstance(blob[3], int)
                and blob[3] > self.exec_next):
            return
        self.next_seq = max(self.next_seq, blob[3])
        self.state_transfers += 1
        self._install_state(seq, blob)
        self._emit_checkpoint(seq)  # our state now hashes to the digest
        self._execute_ready()
        self._pipeline_resume()

    def _stabilize(self, seq: SeqNum, votes: dict[ProcessId, Any]) -> None:
        self.stable_seq = seq
        chosen = sorted(votes)[: self.quorum]
        if self.pid not in chosen:
            chosen = [self.pid, *chosen[: self.quorum - 1]]
        self._stable_cert = tuple(votes[r] for r in sorted(chosen))
        self._stable_blob = self._ckpt_blobs.get(seq)
        # a quorum attests to the executed prefix, so per-slot state at or
        # below it can never be consulted again: this is what bounds replica
        # memory by checkpoint_interval + window instead of O(total requests)
        self._prune_slots(seq, votes[self.pid])
        self._ckpt_blobs = {s: b for s, b in self._ckpt_blobs.items() if s >= seq}
        self._certified = {
            s: r for s, r in self._certified.items() if s >= self.exec_next
        }
        self._ckpt_votes = {
            k: v for k, v in self._ckpt_votes.items() if k[0] > seq
        }
        self._proposed_keys = {
            k for k in self._proposed_keys if not self._is_executed(k)
        }
        self.ctx.record("custom", event="checkpoint_stable", seq=seq)
        # a stabilized checkpoint moves the window's low watermark
        self._pipeline_resume()

    def _stable_claim(self, none_yet: bool, cert: Any,
                      blob: Any) -> Optional[tuple[SeqNum, dict]]:
        """Check a peer's claim "my stable checkpoint is ``cert`` and its
        state is ``blob``"; returns ``(stable_seq, {replica: entry})``.

        ``none_yet`` (the peer says it has no stable checkpoint) must come
        with an empty certificate and no blob; otherwise the certificate
        must hold a quorum and the blob must hash to the certified digest —
        that is what makes the blob safe to install. Only VIEW-CHANGEs carry
        such claims; a shipped checkpoint meets :meth:`_adopt_checkpoint`.
        """
        if none_yet:
            return (0, {}) if cert == () and blob is None else None
        checked = validate_checkpoint_cert(
            cert, self.quorum, self._check_ckpt_entry
        )
        if checked is None:
            return None
        seq, digest, entries = checked
        try:
            if content_hash(blob) != digest:
                return None
        except Exception:  # attacker-controlled blob may not serialize
            return None
        return seq, entries

    # -- the view-change machine ----------------------------------------------
    #
    # demand -> join at f+1 -> evidence -> NEW-VIEW at the quorum -> accept,
    # validate the bundle -> adopt. A protocol supplies the evidence hooks.

    def _demand_view(self, new_view: int) -> None:
        """Demand, once per view, that the group move to ``new_view``."""
        if new_view in self._demanded:
            return
        self._demanded.add(new_view)
        self._send_demand(new_view)

    def _on_demand(self, replica: ProcessId, new_view: int) -> None:
        """Count ``replica``'s verified demand for ``new_view``."""
        backers = self._demands.setdefault(new_view, set())
        backers.add(replica)
        self._maybe_join(new_view, len(backers))

    def _on_evidence(self, replica: ProcessId, new_view: int,
                     evidence: tuple) -> None:
        """Keep ``replica``'s verified VIEW-CHANGE for ``new_view``."""
        backers = self._vcs.setdefault(new_view, {})
        backers[replica] = evidence
        self._maybe_join(new_view, len(backers))
        self._maybe_send_new_view(new_view)

    def _maybe_join(self, new_view: int, backers: int) -> None:
        if backers >= self.f + 1:  # a correct replica among them
            self._join_view_change(new_view)

    def _join_view_change(self, new_view: int) -> None:
        """Enter ``new_view``'s change unless already at it or past it."""
        if self.in_view_change is None or self.in_view_change < new_view:
            self._enter_view_change(new_view)

    def _enter_view_change(self, new_view: int) -> None:
        """Stop ordering, demand ``new_view`` and send the evidence for it."""
        self.in_view_change = max(self.in_view_change or 0, new_view)
        self.ctx.record("custom", event="view_change_start", new_view=new_view)
        self._demand_view(new_view)  # join the chorus
        self._send_evidence(new_view)
        self._maybe_send_new_view(new_view)

    def _maybe_send_new_view(self, new_view: int) -> None:
        """As ``new_view``'s primary, send its NEW-VIEW once, bundling the
        evidence of the lowest-numbered quorum of replicas."""
        evidence = self._vcs.get(new_view, {})
        if (
            self.primary_of(new_view) == self.pid
            and len(evidence) >= self.quorum
            and new_view not in self._new_view_sent
            and self._new_view_ready(new_view)
        ):
            self._new_view_sent.add(new_view)
            chosen = sorted(evidence)[: self.quorum]
            self._send_new_view(
                new_view, tuple((r, *evidence[r]) for r in chosen)
            )

    def _accepts_new_view(self, sender: Any, new_view: Any) -> bool:
        """The NEW-VIEW acceptance test: a later view, from its primary."""
        return (
            isinstance(new_view, int)
            and new_view > self.view
            and sender == self.primary_of(new_view)
        )

    def _adopt_new_view(self, new_view: int, bundle: Any) -> bool:
        """Adopt ``new_view`` if its NEW-VIEW ``bundle`` holds a quorum of
        distinct replicas' valid evidence; True when adopted."""
        if not isinstance(bundle, tuple) or len(bundle) < self.quorum:
            return False
        records: dict[ProcessId, Any] = {}
        best_stable: SeqNum = 0
        best_blob: Any = None
        for item in bundle:
            r = item[0] if isinstance(item, tuple) and item else None
            if not isinstance(r, int) or r in records or not 0 <= r < self.n:
                return False
            checked = self._validate_evidence(new_view, item)
            if checked is None:
                return False
            stable_seq, blob, records[r] = checked
            if stable_seq > best_stable:
                best_stable, best_blob = stable_seq, blob
        self._adopt_view(new_view, best_stable, best_blob,
                         self._reproposals(records, best_stable))
        return True

    # -- view adoption --------------------------------------------------------

    def _adopt_view(self, new_view: int, stable_seq: SeqNum, stable_blob: Any,
                    reproposals: dict[SeqNum, Any]) -> None:
        """Enter a validated view: its newest certified checkpoint and the
        ``{seq: proposal}`` its primary re-issues above it."""
        self.view = new_view
        self.in_view_change = None
        self.view_changes_completed += 1
        if stable_seq >= self.exec_next and stable_blob is not None:
            # fast-forward over the checkpointed slots we fell behind
            self._install_state(stable_seq, stable_blob)
            self._execute_ready()
        self._reset_view_slots(stable_seq, reproposals)
        self._proposed_keys = set()
        if self._batch_timer is not None:
            # a batch window opened under the old view must not flush into
            # the new one with a stale timer
            self.ctx.cancel_timer(self._batch_timer)
            self._batch_timer = None
        self._batch_stalled = False
        self.ctx.record("custom", event="view_adopted", view=new_view)
        max_slot = max(reproposals, default=stable_seq)
        self.next_seq = max(max_slot + 1, self.exec_next)
        self.timeout_policy.note_progress()  # the view change delivered
        self._stop_vc_timer()
        if self._pending:
            self._arm_vc_timer()
        if self.primary_of(new_view) == self.pid:
            # re-propose every carried slot in order — even ones we already
            # executed, because a lagging correct replica may still need a
            # certificate in the new view — then any fresh pending requests
            for seq in sorted(reproposals):
                self._repropose(seq, reproposals[seq])
            self._propose_pending()

    # -- view-change timer / conviction tails --------------------------------

    def _arm_vc_timer(self) -> None:
        self._vc_timer = self.ctx.set_timer(
            self.timeout_policy.current(), self.VC_TIMER
        )

    def _stop_vc_timer(self) -> None:
        if self._vc_timer is not None:
            self.ctx.cancel_timer(self._vc_timer)
            self._vc_timer = None

    def _restart_vc_timer(self) -> None:
        self._stop_vc_timer()
        self._arm_vc_timer()

    def on_timer(self, tag: Any) -> None:
        if tag == self.BATCH_TAG:
            self._on_batch_timer()
            return
        if tag != self.VC_TIMER:
            return
        self._vc_timer = None
        if not self._pending and self.in_view_change is None:
            return
        self._before_vc_retry()
        # unproductive expiry: back the timeout off before re-arming
        self.timeout_policy.escalate()
        self._demand_view((self.in_view_change or self.view) + 1)
        self._arm_vc_timer()  # keep escalating while stuck

    def _view_change_past_convicted(self, target: int) -> None:
        """Demand the first view at or after ``target`` that a convicted
        replica does not lead."""
        while self.primary_of(target) in self._convicted:
            target += 1
        self._demand_view(target)

    # -- counters ------------------------------------------------------------

    def slot_state_size(self) -> int:
        """Per-slot/per-request entries held; the soak tests assert it stays
        bounded by checkpoint interval + window, not by requests served."""
        return (len(self._certified) + len(self._proposed_keys)
                + len(self._ckpt_blobs) + len(self._ckpt_votes)
                + len(self._pending) + self._dedup.size()
                + self._protocol_state_size())

    def consensus_stats(self) -> dict[str, Any]:
        """Pipeline counters for :class:`~repro.sim.scheduler.RunStats` /
        ``ChaosResult.stats["consensus"]`` aggregation (numeric values are
        summed key-wise across replicas; the histogram merges key-wise)."""
        return {
            "commits_executed": self.commits_executed,
            "batches_flushed": self.batches_flushed,
            "proposal_stalls": self.proposal_stalls,
            "noop_slots": self.noop_slots,
            "window_peak": self._window_peak,
            "window_occupancy_sum": self._window_sum,
            "window_samples": self._window_samples,
            # peer-shipped checkpoints adopted (_adopt_checkpoint: PBFT's
            # STATE, MinBFT's RESYNC-INFO); a NEW-VIEW fast-forward is not one
            "state_transfers": self.state_transfers,
            # typed rejects of malformed/Byzantine input (babble hardening)
            # and of convicted-replica input (forensic quarantine)
            "malformed_rejects": self.malformed_rejects,
            "convicted_rejects": self.convicted_rejects,
            "batch_size_hist": dict(self.batch_size_hist),
        }
