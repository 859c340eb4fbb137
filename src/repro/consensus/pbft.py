"""PBFT (Castro & Liskov) — the hardware-free baseline at n = 3f+1.

The comparison the paper's motivation implies: without trusted hardware,
asynchronous BFT replication needs **3f+1** replicas and **three** message
rounds (PRE-PREPARE → PREPARE → COMMIT) with 2f+1-sized quorums; MinBFT's
trusted counters cut both (2f+1 replicas, two rounds, f+1 quorums). The
benches run both stacks over identical networks and workloads.

Implementation notes: signed messages, in-order execution, a view change
whose VIEW-CHANGE carries prepared certificates (the new primary's
NEW-VIEW re-issues pre-prepares for every certified slot above the stable
checkpoint, chosen by highest view), and classic checkpointing: 2f+1
matching CHECKPOINT messages form a stable certificate that garbage-
collects per-slot state and, piggybacked on VIEW-CHANGE, fast-forwards
replicas that fell behind the low watermark.

State transfer is proactive, not view-change-only: a replica that holds
a 2f+1 checkpoint certificate for a sequence number at or above its own
execution frontier is provably behind and fetches the certified blob
directly from the voters (GET-STATE/STATE). The blob needs no signature
of its own — it must hash to the digest the certificate already pins.
Without this path a replica wedged behind an execution hole (e.g. one
that missed a slot across a view change) can only catch up via the next
NEW-VIEW, and if its peers are idle that view change never completes:
its view-change timer re-arms forever against a non-empty pending set.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.serialize import content_hash
from ..crypto.signatures import SignatureScheme, Signer
from ..errors import ConfigurationError
from ..types import ProcessId, SeqNum
from .apps import StateMachine
from .replica import REQUEST, ReplicaCore, proposal_requests, request_key

PRE_PREPARE = "PBFT-PRE-PREPARE"
PREPARE = "PBFT-PREPARE"
COMMIT = "PBFT-COMMIT"
VIEW_CHANGE = "PBFT-VIEW-CHANGE"
NEW_VIEW = "PBFT-NEW-VIEW"
CHECKPOINT = "PBFT-CHECKPOINT"
GET_STATE = "PBFT-GET-STATE"
STATE = "PBFT-STATE"

#: NEW-VIEW gap filler (Castro & Liskov §4.4): a sequence number between
#: the stable checkpoint and the highest prepared slot that no VIEW-CHANGE
#: in the bundle carries a prepared certificate for cannot have committed
#: anywhere (committed => prepared at 2f+1 => at least one of any 2f+1
#: VIEW-CHANGEs shows it), so the new primary re-proposes a null request
#: there and in-order execution steps over the hole as a no-op.
NULL_REQUEST = ("PBFT-NULL",)


def pp_domain(view: int, seq: SeqNum, digest: bytes) -> tuple:
    return ("PBFT-PP", view, seq, digest)


def prep_domain(view: int, seq: SeqNum, digest: bytes, replica: ProcessId) -> tuple:
    return ("PBFT-P", view, seq, digest, replica)


def commit_domain(view: int, seq: SeqNum, digest: bytes, replica: ProcessId) -> tuple:
    return ("PBFT-C", view, seq, digest, replica)


def vc_domain(new_view: int, body: Any, replica: ProcessId) -> tuple:
    return ("PBFT-VC", new_view, content_hash(body), replica)


def ckpt_domain(seq: SeqNum, digest: bytes, replica: ProcessId) -> tuple:
    return ("PBFT-CKPT", seq, digest, replica)


def gs_domain(seq: SeqNum, digest: bytes, replica: ProcessId) -> tuple:
    return ("PBFT-GS", seq, digest, replica)


class PBFTReplica(ReplicaCore):
    """One PBFT replica (n = 3f+1, f = (n-1)//3).

    ``options`` are :class:`~repro.consensus.replica.ReplicaCore`'s; a
    slot may carry a ``("BATCH", *requests)`` proposal as in MinBFT, the
    PRE-PREPARE signed over the whole batch digest.
    """

    VC_TIMER = "pbft-vc"
    BATCH_TAG = "pbft-batch"
    STATE_TAG = "PBFT-CKPT-STATE"

    def __init__(
        self,
        n: int,
        scheme: SignatureScheme,
        signer: Signer,
        app: StateMachine,
        **options: Any,
    ) -> None:
        if n < 4 or (n - 1) % 3 != 0:
            raise ConfigurationError(
                f"PBFT runs with n = 3f+1 >= 4 replicas, got n={n}"
            )
        super().__init__(n, (n - 1) // 3, scheme, signer, app, **options)
        self.quorum = 2 * self.f + 1
        # seq -> (view, digest, request)
        self._accepted_pp: dict[SeqNum, tuple[int, bytes, Any]] = {}
        self._prepares: dict[tuple, set[ProcessId]] = {}
        self._commits: dict[tuple, set[ProcessId]] = {}
        self._prepared_certs: dict[SeqNum, tuple] = {}  # best cert per slot
        self._commit_sent: set[tuple] = set()
        self._requests: dict[bytes, Any] = {}  # digest -> slot proposal
        # proactive state transfer: highest seq we already asked for, so a
        # growing vote set doesn't re-send per vote (retries go through the
        # view-change timer, which forces past this guard)
        self._state_requested: SeqNum = 0

    # -- helpers -----------------------------------------------------------------

    def _valid_proposal(self, proposal: Any) -> bool:
        """The core's slot-proposal shape (same as MinBFT's), or the
        NEW-VIEW null filler."""
        return proposal == NULL_REQUEST or super()._valid_proposal(proposal)

    def _slot_requests(self, proposal: Any) -> list:
        """Core hook: the NEW-VIEW null filler carries no client requests."""
        return [] if proposal == NULL_REQUEST else proposal_requests(proposal)

    # -- dispatch -------------------------------------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and msg and isinstance(msg[0], str)):
            self.malformed_rejects += 1
            return
        if src in self._convicted:
            self.convicted_rejects += 1
            return
        kind = msg[0]
        if kind == REQUEST and len(msg) == 5:
            self._on_request(msg)
        elif kind == PRE_PREPARE and len(msg) == 5:
            self._on_pre_prepare(src, msg)
        elif kind == PREPARE and len(msg) == 6:
            self._on_prepare(src, msg)
        elif kind == COMMIT and len(msg) == 6:
            self._on_commit(src, msg)
        elif kind == CHECKPOINT and len(msg) == 5:
            self._on_checkpoint(src, msg)
        elif kind == GET_STATE and len(msg) == 5:
            self._on_get_state(src, msg)
        elif kind == STATE and len(msg) == 3:
            self._on_state(src, msg)
        elif kind == VIEW_CHANGE and len(msg) == 8:
            self._on_view_change(src, msg)
        elif kind == NEW_VIEW and len(msg) == 4:
            self._on_new_view(src, msg)
        else:
            # unknown kind or wrong arity: signed-or-not babble
            self.malformed_rejects += 1

    def _emit_slot(self, seq: SeqNum, proposal: Any) -> None:
        """Core hook: one assigned slot onto the wire, signed."""
        digest = content_hash(proposal)
        sig = self.signer.sign(pp_domain(self.view, seq, digest))
        self.ctx.broadcast(
            (PRE_PREPARE, self.view, seq, proposal, sig), include_self=True
        )

    # -- three phases -------------------------------------------------------------------

    def _on_pre_prepare(self, src: ProcessId, msg: tuple) -> None:
        _, view, seq, request, sig = msg
        if not isinstance(view, int) or not isinstance(seq, int) or seq < 1:
            return
        if seq <= self.stable_seq:
            return  # below the low watermark: already covered by a checkpoint
        if view != self.view or self.in_view_change is not None:
            return
        if src != self.primary_of(view):
            return
        if not self._valid_proposal(request):
            return
        digest = content_hash(request)
        if not self.scheme.verify_from(src, pp_domain(view, seq, digest), sig):
            return
        existing = self._accepted_pp.get(seq)
        if existing is not None and existing[0] == view and existing[1] != digest:
            return  # equivocating primary: first pre-prepare wins locally
        self._accepted_pp[seq] = (view, digest, request)
        self._requests[digest] = request
        for req in self._slot_requests(request):
            self._proposed_keys.add(request_key(req))
        my_sig = self.signer.sign(prep_domain(view, seq, digest, self.pid))
        self.ctx.broadcast(
            (PREPARE, view, seq, digest, self.pid, my_sig), include_self=True
        )

    def _on_prepare(self, src: ProcessId, msg: tuple) -> None:
        _, view, seq, digest, replica, sig = msg
        if not isinstance(digest, bytes):
            # an unhashable "digest" (a Byzantine peer can sign anything)
            # must not reach the vote-set keys
            self.malformed_rejects += 1
            return
        if replica != src or view != self.view or self.in_view_change is not None:
            return
        if src == self.primary_of(view):
            return  # the primary's pre-prepare is its prepare
        if not self.scheme.verify_from(
            src, prep_domain(view, seq, digest, src), sig
        ):
            return
        key = (view, seq, digest)
        self._prepares.setdefault(key, set()).add(src)
        self._maybe_prepared(key)

    def _maybe_prepared(self, key: tuple) -> None:
        view, seq, digest = key
        accepted = self._accepted_pp.get(seq)
        if accepted is None or accepted[0] != view or accepted[1] != digest:
            return
        if len(self._prepares.get(key, ())) < 2 * self.f:
            return
        if key in self._commit_sent:
            return
        self._commit_sent.add(key)
        self._prepared_certs[seq] = (view, digest)
        sig = self.signer.sign(commit_domain(view, seq, digest, self.pid))
        self.ctx.broadcast(
            (COMMIT, view, seq, digest, self.pid, sig), include_self=True
        )

    def _on_commit(self, src: ProcessId, msg: tuple) -> None:
        _, view, seq, digest, replica, sig = msg
        if not isinstance(digest, bytes):
            self.malformed_rejects += 1
            return
        if replica != src or view != self.view or self.in_view_change is not None:
            return
        if not self.scheme.verify_from(
            src, commit_domain(view, seq, digest, src), sig
        ):
            return
        key = (view, seq, digest)
        commits = self._commits.setdefault(key, set())
        commits.add(src)
        if (
            len(commits) >= 2 * self.f + 1
            and seq >= self.exec_next  # executed slots leave _certified
            and seq not in self._certified
        ):
            request = self._requests.get(digest)
            accepted = self._accepted_pp.get(seq)
            if request is None or accepted is None or accepted[1] != digest:
                return
            self._certified[seq] = request
            self._execute_ready()

    # -- checkpointing / garbage collection ------------------------------------------------

    def _send_checkpoint(self, seq: SeqNum, digest: bytes) -> None:
        sig = self.signer.sign(ckpt_domain(seq, digest, self.pid))
        self.ctx.broadcast(
            (CHECKPOINT, seq, digest, self.pid, sig), include_self=True
        )

    def _on_checkpoint(self, src: ProcessId, msg: tuple) -> None:
        _, seq, digest, replica, sig = msg
        if replica != src or not isinstance(digest, bytes):
            return
        entry = (src, seq, digest, sig)
        if self._check_ckpt_entry(entry) is not None:
            self._on_ckpt_vote(src, seq, digest, entry)

    def _check_ckpt_entry(self, entry: Any) -> Optional[tuple]:
        """Core hook: a certificate entry is ``(replica, seq, digest, sig)``."""
        if not (isinstance(entry, tuple) and len(entry) == 4):
            return None
        r, seq, digest, sig = entry
        if not isinstance(seq, int) or not self.scheme.verify_from(
            r, ckpt_domain(seq, digest, r), sig
        ):
            return None
        return r, seq, digest

    def _on_checkpoint_ahead(self, seq: SeqNum, digest: bytes,
                             votes: dict[ProcessId, Any]) -> None:
        """Core hook: a quorum certified a checkpoint we have not even
        executed — we are provably behind, fetch the certified state."""
        if seq >= self.exec_next:
            self._request_state(seq, digest, votes)

    def _prune_slots(self, seq: SeqNum, my_entry: tuple) -> None:
        """Core hook: garbage-collect per-slot protocol state at or below
        the low watermark."""
        before = len(self._prepared_certs) + len(self._accepted_pp)
        self._prepared_certs = {
            s: c for s, c in self._prepared_certs.items() if s > seq
        }
        self._accepted_pp = {
            s: a for s, a in self._accepted_pp.items() if s > seq
        }
        self._prepares = {
            k: v for k, v in self._prepares.items() if k[1] > seq
        }
        self._commits = {
            k: v for k, v in self._commits.items() if k[1] > seq
        }
        self.log_entries_gced += before - (
            len(self._prepared_certs) + len(self._accepted_pp)
        )
        # commit-sent markers, and the digest->proposal store (keep only
        # digests still referenced by a live accepted pre-prepare or
        # prepared certificate)
        self._commit_sent = {k for k in self._commit_sent if k[1] > seq}
        live = {a[1] for a in self._accepted_pp.values()} | {
            c[1] for c in self._prepared_certs.values()
        }
        self._requests = {
            d: r for d, r in self._requests.items() if d in live
        }

    # -- proactive state transfer ----------------------------------------------------------

    def _request_state(self, seq: SeqNum, digest: bytes,
                       votes: dict[ProcessId, Any],
                       force: bool = False) -> None:
        """Ask the checkpoint's voters for the blob behind a 2f+1-certified
        digest at or above our execution frontier. Asked of every voter,
        not f+1: a correct voter that stabilized a *later* checkpoint has
        pruned this blob and stays silent, and at most f are faulty."""
        if seq <= self._state_requested and not force:
            return
        self._state_requested = seq
        sig = self.signer.sign(gs_domain(seq, digest, self.pid))
        for r in sorted(votes):
            if r != self.pid:
                self.ctx.send(r, (GET_STATE, seq, digest, self.pid, sig))

    def _on_get_state(self, src: ProcessId, msg: tuple) -> None:
        _, seq, digest, replica, sig = msg
        if replica != src or not isinstance(seq, int) or not isinstance(digest, bytes):
            return
        if not self.scheme.verify_from(src, gs_domain(seq, digest, src), sig):
            return
        blob = self._ckpt_blobs.get(seq)
        if blob is not None and content_hash(blob) == digest:
            self.ctx.send(src, (STATE, seq, blob))

    def _on_state(self, src: ProcessId, msg: tuple) -> None:
        """Install a fetched checkpoint blob. The sender is untrusted: the
        blob is accepted only if it hashes to a digest we hold a local
        2f+1 certificate for, exactly the check NEW-VIEW fast-forward
        applies to blobs piggybacked on VIEW-CHANGE messages."""
        _, seq, blob = msg
        if not isinstance(seq, int) or seq < self.exec_next:
            return  # already caught up past this checkpoint
        try:
            digest = content_hash(blob)
        except Exception:
            return
        votes = self._ckpt_votes.get((seq, digest))
        if votes is None or len(votes) < self.quorum:
            return  # no local certificate pins this blob
        if not (
            isinstance(blob, tuple) and len(blob) == 4
            and blob[0] == self.STATE_TAG and isinstance(blob[3], int)
        ):
            return
        exec_next = blob[3]
        if exec_next <= self.exec_next:
            return
        self.next_seq = max(self.next_seq, exec_next)
        self.state_transfers += 1
        self._install_state(seq, blob)
        # adopt the checkpoint as our own: after the restore our state blob
        # reproduces the certified digest bit-for-bit, so re-announcing it
        # adds our vote to the certificate and stabilization (log GC, the
        # window's low watermark) follows the normal _on_checkpoint path
        self._emit_checkpoint(seq)
        self._execute_ready()
        self._pipeline_resume()

    def _before_vc_retry(self) -> None:
        """Core hook: a pending set stuck behind a certified-but-unfetched
        checkpoint is a catch-up problem, not a primary problem — re-send
        the best outstanding state request alongside the view change, in
        case that GET-STATE/STATE exchange was lost after the certificate
        formed and no further checkpoint traffic will re-trigger it."""
        best = None
        for (seq, digest), votes in self._ckpt_votes.items():
            if (
                len(votes) >= self.quorum
                and seq >= self.exec_next
                and self.pid not in votes
                and (best is None or seq > best[0])
            ):
                best = (seq, digest, votes)
        if best is not None:
            self._request_state(*best, force=True)

    # -- view change ----------------------------------------------------------------------

    def on_timer(self, tag: Any) -> None:
        # the core's handler, unchanged — but defined in this class body:
        # the end-to-end benchmark attributes handler time to the class
        # whose body defines the handler
        super().on_timer(tag)

    def _send_demand(self, new_view: int) -> None:
        """Core hook: the demand *is* the evidence (the VIEW-CHANGE)."""
        self._enter_view_change(new_view)

    def _join_view_change(self, new_view: int) -> None:
        """Core hook: joining is demanding, even below a demanded view."""
        self._demand_view(new_view)

    def _send_evidence(self, new_view: int) -> None:
        """Core hook: the signed VIEW-CHANGE carries this replica's stable
        checkpoint and ``(seq, view, digest, request)`` per prepared slot."""
        prepared = tuple(
            (seq, view, digest, self._requests[digest])
            for seq, (view, digest) in sorted(self._prepared_certs.items())
            if digest in self._requests
        )
        body = (self.stable_seq, self._stable_cert, self._stable_blob, prepared)
        sig = self.signer.sign(vc_domain(new_view, body, self.pid))
        self.ctx.broadcast(
            (VIEW_CHANGE, new_view, *body, self.pid, sig), include_self=True
        )

    def _validate_evidence(self, new_view: int,
                           item: tuple) -> Optional[tuple[SeqNum, Any, Any]]:
        """Core hook: ``(replica, stable_seq, cert, blob, prepared, sig)``,
        signed by the replica for ``new_view``, with a checkpoint claim that
        holds for exactly ``stable_seq``; the record is ``prepared``."""
        if len(item) != 6:
            return None
        r, stable_seq, cert, blob, prepared, sig = item
        try:
            domain = vc_domain(new_view, (stable_seq, cert, blob, prepared), r)
        except Exception:
            # unserializable body: nothing could have been signed over it
            self.malformed_rejects += 1
            return None
        if not (self.scheme.verify_from(r, domain, sig)
                and isinstance(stable_seq, int) and stable_seq >= 0
                and isinstance(prepared, tuple)):
            return None
        claim = self._stable_claim(stable_seq == 0, cert, blob)
        if claim is None or claim[0] != stable_seq:
            return None
        return stable_seq, blob, prepared

    def _on_view_change(self, src: ProcessId, msg: tuple) -> None:
        _, new_view, *body, replica, sig = msg
        if replica != src or not isinstance(new_view, int) or new_view <= self.view:
            return
        evidence = (*body, sig)
        if self._validate_evidence(new_view, (src, *evidence)) is not None:
            self._on_evidence(src, new_view, evidence)

    def _reproposals(self, records: dict[ProcessId, Any],
                     best_stable: SeqNum) -> dict[SeqNum, Any]:
        """Core hook: per slot above the stable checkpoint, the request of
        the highest-view prepared certificate in the bundle, and
        :data:`NULL_REQUEST` in the gaps below the highest such slot."""
        best: dict[SeqNum, tuple[Any, Any]] = {}
        for prepared in records.values():
            for entry in prepared:
                if not (isinstance(entry, tuple) and len(entry) == 4):
                    continue
                seq, view, _digest, request = entry
                if not (isinstance(seq, int) and isinstance(view, int)
                        and seq > best_stable):
                    continue
                cur = best.get(seq)
                if cur is None or view > cur[0]:
                    best[seq] = (view, request)
        return {
            s: best[s][1] if s in best else NULL_REQUEST
            for s in range(best_stable + 1, max(best, default=best_stable) + 1)
        }

    def _send_new_view(self, new_view: int, bundle: tuple) -> None:
        """Core hook: signed over the bundle; each replica derives S from it."""
        sig = self.signer.sign(
            ("PBFT-NV", new_view, content_hash(bundle), self.pid)
        )
        self.ctx.broadcast((NEW_VIEW, new_view, bundle, sig), include_self=True)

    def _on_new_view(self, src: ProcessId, msg: tuple) -> None:
        _, new_view, bundle, sig = msg
        if not self._accepts_new_view(src, new_view):
            return
        try:
            digest = content_hash(bundle)
        except Exception:
            self.malformed_rejects += 1
            return
        if self.scheme.verify_from(src, ("PBFT-NV", new_view, digest, src), sig):
            self._adopt_new_view(new_view, bundle)

    def _reset_view_slots(self, stable_seq: SeqNum,
                          reproposals: dict[SeqNum, Any]) -> None:
        """Core hook: pre-prepares the new view's checkpoint settles are
        dropped, and every prepared slot may be committed again."""
        self._accepted_pp = {
            s: a for s, a in self._accepted_pp.items() if s > stable_seq
        }
        self._commit_sent = set()

    def _repropose(self, seq: SeqNum, proposal: Any) -> None:
        """Core hook: a VIEW-CHANGE's prepared request is unvalidated input,
        so a proposal that is not valid is not re-issued."""
        if self._valid_proposal(proposal):
            super()._repropose(seq, proposal)

    # -- forensic quarantine ----------------------------------------------------------------

    def convict(self, culprit: ProcessId) -> None:
        """Stop accepting input from a convicted replica.

        With n = 3f+1 the quorum intersection already tolerates the
        culprit's worst behaviour, so unlike MinBFT — whose f+1 quorums
        lean on the very hardware a conviction discredits and which must
        therefore roll back — a PBFT conviction only silences the source,
        and moves the view along if the culprit happens to be primary.
        """
        if culprit == self.pid or culprit in self._convicted:
            return
        self._convicted.add(culprit)
        self.ctx.record("custom", event="convict", culprit=culprit)
        if self.primary_of(self.view) == culprit and self.in_view_change is None:
            self._view_change_past_convicted(self.view + 1)

    def _protocol_state_size(self) -> int:
        return (len(self._accepted_pp) + len(self._prepared_certs)
                + len(self._commit_sent) + len(self._requests)
                + sum(len(v) for v in self._prepares.values())
                + sum(len(v) for v in self._commits.values()))
