"""The write ledger: the data half of the failover oracle.

For every key with an acknowledged write the ledger records which
nodes hold a copy of its latest acked value, and keeps that record
current across acks, owner changes, crashes, promotions and ring
membership changes (DESIGN.md section 13).  Losses are counted and
stamped with the request index they happened at; a read served by a
node lacking the latest acked value is a lost read.  An accelerator is
never a holder — its on-chip copy is a cache — so its hits are judged
by the node the copy was installed from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .failover import FailoverScheduler
from .topology import ClusterTopology

__all__ = ["WriteLedger"]


class _AckedWrite:
    """Latest acknowledged value of one key: who holds a copy."""

    __slots__ = ("holders", "had_replica")

    def __init__(self, holders: Set[int]) -> None:
        self.holders = holders
        self.had_replica = len(holders) > 1


class WriteLedger:
    """Who holds each key's latest acked value, across fleet events."""

    def __init__(self, topology: ClusterTopology,
                 failover: Optional[FailoverScheduler] = None) -> None:
        self.topology = topology
        self._failover = failover
        #: key -> latest acked write; slot -> keys with an acked write
        self.acked: Dict[int, _AckedWrite] = {}
        self.slot_keys: Dict[int, Set[int]] = {}
        #: (accelerator node, key) copies installed from a node lacking
        #: the key's latest acked value
        self.stale_copies: Set[Tuple[int, int]] = set()
        #: index of the request being processed (stamps loss_window)
        self.index = 0
        self.lost_reads = self.loss_events = 0
        self.loss_window: List[int] = []

    # -- the request path ----------------------------------------------

    def ack(self, key_id: int, slot: int, primary: int) -> None:
        """``primary`` acked a write and synchronously replicated it to
        the slot's current replica set."""
        holders = {primary} | set(self.topology.replicas_of(slot))
        record = self.acked.get(key_id)
        if record is None:
            self.acked[key_id] = _AckedWrite(holders)
            self.slot_keys.setdefault(slot, set()).add(key_id)
        else:
            record.holders = holders
            record.had_replica = len(holders) > 1

    def installed(self, accel: int, key_id: int, source: int) -> None:
        """Accelerator ``accel`` installed ``key_id`` from ``source``.
        Writes invalidate the copy, so only an install from a node
        lacking the latest acked value makes its later hits lost."""
        record = self.acked.get(key_id)
        if record is not None and source not in record.holders:
            self.stale_copies.add((accel, key_id))
        else:
            self.stale_copies.discard((accel, key_id))

    def read(self, node: int, key_id: int) -> None:
        """Judge a read of ``key_id`` that ``node`` served."""
        if self.topology.is_accel(node):
            lost = (node, key_id) in self.stale_copies
        else:
            record = self.acked.get(key_id)
            lost = record is not None and node not in record.holders
        if lost:
            self.lost_reads += 1

    # -- fleet events --------------------------------------------------

    def _mark_loss(self, keys_lost: int) -> None:
        if keys_lost <= 0:
            return
        self.loss_events += keys_lost
        if not self.loss_window:
            self.loss_window.extend((self.index, self.index))
        else:
            self.loss_window[1] = self.index

    def _can_sync_from(self, node: int) -> bool:
        # a graceful handover ships the slot's data with it — possible
        # only while the previous owner is alive and reachable
        return self._failover is None or self._failover.reachable(node)

    def _live_holder(self, holders: Set[int]) -> bool:
        return any(self._can_sync_from(node) for node in holders)

    def owner_changed(self, slot: int, old: int, new: int) -> None:
        """Re-replicate the slot's acked keys onto the new regime when
        the data can actually get there: the heir already holds a copy,
        or the old owner can ship it — an accelerator owner holds none,
        so its slot ships from a live holder behind it."""
        keys = self.slot_keys.get(slot)
        if not keys:
            return
        # durable copies live on the backer + replicas: for a mixed
        # fleet that excludes accelerator primaries
        durable = self.topology.durable_set(slot)
        from_accel = self.topology.is_accel(old)
        for key in keys:
            holders = self.acked[key].holders
            if not holders:
                continue
            if new in holders or (
                    self._live_holder(holders) if from_accel
                    else old in holders and self._can_sync_from(old)):
                holders.clear()
                holders.update(durable)

    def node_crashed(self, node: int) -> None:
        """Every copy ``node`` held is gone; keys whose last copy just
        vanished are lost."""
        lost = 0
        for record in self.acked.values():
            if node in record.holders:
                record.holders.discard(node)
                if not record.holders:
                    lost += 1
        self._mark_loss(lost)

    def promoted(self, node: int, slots: List[int]) -> None:
        """Slots whose new owner has no copy serve fenced/empty data
        from here on: the loss becomes visible now."""
        fenced = 0
        for slot in slots:
            owner = self.topology.owner(slot)
            for key in self.slot_keys.get(slot, ()):
                holders = self.acked[key].holders
                if holders and owner not in holders:
                    fenced += 1
        self._mark_loss(fenced)

    def membership_changed(self) -> None:
        """The ring moved, so replica sets of slots whose owner stayed
        put may have changed: the replication daemon re-syncs every key
        the slot's backer (its write authority) still holds.  In a
        mixed fleet a change of the full set can move the backer to a
        node holding no copy yet; it then syncs from a live holder."""
        topology = self.topology
        for slot, keys in self.slot_keys.items():
            durable: Optional[Set[int]] = None
            authority = topology.backer_of(slot)
            for key in keys:
                holders = self.acked[key].holders
                if authority in holders or (
                        topology.hetero and self._live_holder(holders)):
                    if durable is None:
                        durable = topology.durable_set(slot)
                    holders.clear()
                    holders.update(durable)

    def verdict(self) -> Tuple[int, int]:
        """``(failover_violations, acked_write_losses)`` over the acked
        keys their slot's read set no longer holds: a live holder of a
        value replicated at ack time is a failover bug; no replica at
        ack time, or every holder crashed, is an unavoidable loss."""
        violations = losses = 0
        for slot, keys in self.slot_keys.items():
            legal = set(self.topology.read_set(slot))
            for key in keys:
                record = self.acked[key]
                if record.holders & legal:
                    continue
                if record.had_replica and record.holders:
                    violations += 1
                else:
                    losses += 1
        return violations, losses
