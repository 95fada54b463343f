"""Sparse third-order tensors holding structure constants.

A SparseTensor3 stores a map (i, j, k) -> scalar with no zero values and
lexicographic iteration order.  Multiplication tensors are read through
the (i, j) -> [(k, c)] index and its right-neighbour lists
i -> [(j, [(k, c)])], comultiplication tensors through the
i -> [(j, k, c)] index.
"""

from __future__ import annotations

from .errors import UsageError


class SparseTensor3:
    __slots__ = ("field", "dims", "entries", "_pair_index", "_right_index", "_first_index",
                 "_third_index")

    def __init__(self, field, dims, entries=None):
        self.field = field
        self.dims = tuple(dims)
        if len(self.dims) != 3:
            raise UsageError("SparseTensor3 needs three dimensions")
        self.entries = {}
        if entries:
            for (i, j, k), v in entries.items() if isinstance(entries, dict) else entries:
                self.set(i, j, k, v)
        self._pair_index = None
        self._right_index = None
        self._first_index = None
        self._third_index = None

    def set(self, i, j, k, v):
        d = self.dims
        if not (0 <= i < d[0] and 0 <= j < d[1] and 0 <= k < d[2]):
            raise UsageError(f"tensor index {(i, j, k)} out of bounds {d}")
        if self.field.is_zero(v):
            self.entries.pop((i, j, k), None)
        else:
            self.entries[(i, j, k)] = v
        self._pair_index = None
        self._right_index = None
        self._first_index = None
        self._third_index = None

    def add_to(self, i, j, k, v):
        cur = self.entries.get((i, j, k), self.field.zero)
        self.set(i, j, k, self.field.add(cur, v))

    def get(self, i, j, k):
        return self.entries.get((i, j, k), self.field.zero)

    def items_sorted(self):
        return sorted(self.entries.items())

    def pair_index(self):
        """(i, j) -> list of (k, c), deterministic order."""
        if self._pair_index is None:
            idx = {}
            for (i, j, k), v in self.items_sorted():
                idx.setdefault((i, j), []).append((k, v))
            self._pair_index = idx
        return self._pair_index

    def right_index(self):
        """i -> list of (j, [(k, c)]) over the j with a nonempty (i, j) entry
        of pair_index, in increasing j: the right neighbours of e_i."""
        if self._right_index is None:
            idx = {}
            for (i, j), terms in self.pair_index().items():
                idx.setdefault(i, []).append((j, terms))
            self._right_index = idx
        return self._right_index

    def first_index(self):
        """i -> list of (j, k, c), deterministic order."""
        if self._first_index is None:
            idx = {}
            for (i, j, k), v in self.items_sorted():
                idx.setdefault(i, []).append((j, k, v))
            self._first_index = idx
        return self._first_index

    def third_index(self):
        """k -> list of (i, j, c); for a multiplication tensor this is the
        transposed comultiplication read off the output slot."""
        if self._third_index is None:
            idx = {}
            for (i, j, k), v in self.items_sorted():
                idx.setdefault(k, []).append((i, j, v))
            self._third_index = idx
        return self._third_index

    def __eq__(self, other):
        return (
            isinstance(other, SparseTensor3)
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseTensor3(dims={self.dims}, nnz={len(self.entries)})"
