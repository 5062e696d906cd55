"""Red-black tree: the GCC ``std::map`` (ordered_map) benchmark.

A faithful CLRS-style red-black tree with a sentinel NIL node.  Each tree
node models the 80-byte ``_Rb_tree_node`` of libstdc++ holding color,
parent/left/right pointers and a ``pair<const string, value>`` whose
string data lives out-of-line — so every comparison during descent costs
a record access on top of the node access.  That doubled pointer chase
per level is exactly the "more irregularity in memory accesses on trees"
the paper credits for the largest STLT speedups.

Insert and remove implement the full rebalancing (recolouring and
rotations), with each structural write charged to the memory model.
"""

from __future__ import annotations

from typing import Optional

from ..mem.types import AccessKind
from .base import Index, SimContext
from .records import Record

NODE_BYTES = 80
RED = True
BLACK = False


class _Node:
    __slots__ = ("va", "record", "color", "left", "right", "parent")

    def __init__(self, va: int, record: Optional[Record], color: bool) -> None:
        self.va = va
        self.record = record
        self.color = color
        self.left: "_Node" = None  # type: ignore[assignment]
        self.right: "_Node" = None  # type: ignore[assignment]
        self.parent: "_Node" = None  # type: ignore[assignment]


class RBTreeIndex(Index):
    """Self-balancing red-black tree over simulated memory."""

    name = "ordered_map"
    build_node_bytes = NODE_BYTES

    def __init__(self, ctx: SimContext, expected_keys: int = 0) -> None:
        super().__init__(ctx)
        # the sentinel lives in the tree header allocation, like libstdc++
        self.nil = _Node(ctx.alloc.alloc(NODE_BYTES), None, BLACK)
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil

    # -- timed access helpers ----------------------------------------------

    def _touch(self, node: _Node, write: bool = False) -> None:
        self.ctx.mem.access(node.va, NODE_BYTES, write=write,
                            kind=AccessKind.INDEX)

    def _compare_at(self, node: _Node, key: bytes) -> int:
        """Timed comparison against the key stored at ``node``."""
        self.ctx.records.access_for_compare(node.record)
        self.ctx.charge_compare()
        if key < node.record.key:
            return -1
        if key > node.record.key:
            return 1
        return 0

    # -- timed operations ----------------------------------------------------

    def lookup(self, key: bytes) -> Optional[Record]:
        node = self.root
        while node is not self.nil:
            self._touch(node)
            cmp = self._compare_at(node, key)
            if cmp == 0:
                return node.record
            node = node.left if cmp < 0 else node.right
        return None

    def insert(self, key: bytes, record: Record) -> None:
        self._check_new_key(key)
        parent = self.nil
        node = self.root
        while node is not self.nil:
            self._touch(node)
            parent = node
            cmp = self._compare_at(node, key)
            node = node.left if cmp < 0 else node.right
        fresh = self._attach(parent, key, record,
                             self.ctx.alloc.alloc(NODE_BYTES))
        self._touch(fresh, write=True)
        self._insert_fixup(fresh, timed=True)

    def remove(self, key: bytes) -> Optional[Record]:
        node = self.root
        while node is not self.nil:
            self._touch(node)
            cmp = self._compare_at(node, key)
            if cmp == 0:
                record = node.record
                self._delete_node(node, timed=True)
                return record
            node = node.left if cmp < 0 else node.right
        return None

    # -- untimed operations -----------------------------------------------

    def build_link(self, key: bytes, record: Record, node_va: int) -> None:
        parent = self.nil
        node = self.root
        while node is not self.nil:
            parent = node
            node = node.left if key < node.record.key else node.right
        fresh = self._attach(parent, key, record, node_va)
        self._insert_fixup(fresh, timed=False)

    def probe(self, key: bytes) -> Optional[Record]:
        node = self.root
        while node is not self.nil:
            if key == node.record.key:
                return node.record
            node = node.left if key < node.record.key else node.right
        return None

    # -- structure ---------------------------------------------------------

    def _attach(self, parent: _Node, key: bytes, record: Record,
                node_va: int) -> _Node:
        fresh = _Node(node_va, record, RED)
        fresh.left = fresh.right = self.nil
        fresh.parent = parent
        if parent is self.nil:
            self.root = fresh
        elif key < parent.record.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self.size += 1
        return fresh

    def _rotate_left(self, x: _Node, timed: bool) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        if timed:
            self._touch(x, write=True)
            self._touch(y, write=True)

    def _rotate_right(self, x: _Node, timed: bool) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        if timed:
            self._touch(x, write=True)
            self._touch(y, write=True)

    def _insert_fixup(self, z: _Node, timed: bool) -> None:
        while z.parent.color is RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    if timed:
                        self._touch(z.parent, write=True)
                        self._touch(uncle, write=True)
                        self._touch(z.parent.parent, write=True)
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z, timed)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    if timed:
                        self._touch(z.parent, write=True)
                        self._touch(z.parent.parent, write=True)
                    self._rotate_right(z.parent.parent, timed)
            else:
                uncle = z.parent.parent.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    if timed:
                        self._touch(z.parent, write=True)
                        self._touch(uncle, write=True)
                        self._touch(z.parent.parent, write=True)
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z, timed)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    if timed:
                        self._touch(z.parent, write=True)
                        self._touch(z.parent.parent, write=True)
                    self._rotate_left(z.parent.parent, timed)
        self.root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: _Node, timed: bool) -> _Node:
        while node.left is not self.nil:
            if timed:
                self._touch(node)
            node = node.left
        return node

    def _delete_node(self, z: _Node, timed: bool) -> None:
        y = z
        y_original_color = y.color
        if z.left is self.nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self.nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right, timed)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
            if timed:
                self._touch(y, write=True)
        if timed:
            self._touch(z, write=True)
        self.ctx.alloc.free(z.va)
        self.size -= 1
        if y_original_color is BLACK:
            self._delete_fixup(x, timed)
        self.nil.parent = self.nil  # keep the sentinel clean

    def _delete_fixup(self, x: _Node, timed: bool) -> None:
        while x is not self.root and x.color is BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent, timed)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    if timed:
                        self._touch(w, write=True)
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w, timed)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent, timed)
                    x = self.root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent, timed)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    if timed:
                        self._touch(w, write=True)
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w, timed)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent, timed)
                    x = self.root
        x.color = BLACK

    # -- invariants (used by property tests) --------------------------------

    def check_invariants(self) -> int:
        """Validate RB invariants; returns the tree's black height."""
        if self.root.color is not BLACK:
            raise AssertionError("root must be black")
        return self._check(self.root)

    def _check(self, node: _Node) -> int:
        if node is self.nil:
            return 1
        if node.color is RED:
            if node.left.color is RED or node.right.color is RED:
                raise AssertionError("red node with a red child")
        if node.left is not self.nil and \
                node.left.record.key >= node.record.key:
            raise AssertionError("BST order violated on the left")
        if node.right is not self.nil and \
                node.right.record.key <= node.record.key:
            raise AssertionError("BST order violated on the right")
        lh = self._check(node.left)
        rh = self._check(node.right)
        if lh != rh:
            raise AssertionError("black heights differ")
        return lh + (0 if node.color is RED else 1)
