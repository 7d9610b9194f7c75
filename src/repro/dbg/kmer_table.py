"""The k-mer vertices of a de Bruijn graph: NumPy columns plus an overlay.

Operations ①–③ of the paper treat a freshly built graph as flat vertex
records — an ID, the adjacency entries its 32-bit bitmap names and
their coverage (Section IV-A/B) — and merging then deletes almost every
one of them.  :class:`KmerTable` keeps the k-mers that construction
produces in exactly that shape: columns sorted by ID, the adjacency
entries in CSR form, the vertex type of every k-mer and an alive mask.

It is the ``kmers`` mapping of :class:`~repro.dbg.graph.DeBruijnGraph`
(k-mer ID → :class:`~repro.dbg.kmer_vertex.KmerVertexData`).  Fetching
a k-mer (``table[kmer_id]``, ``table.get(kmer_id)``, iterating values)
*materialises* it into an overlay dict, so every mutation made through
the fetched vertex persists; k-mers added later (``table[kmer_id] =
vertex``) live in the overlay too.  Deleting a column k-mer clears its
alive bit; :meth:`discard` drops the dead rows once they are the
majority.  Iteration follows the column order construction gives
(destination worker, then ascending ID), followed by added k-mers in
insertion order: what a dict filled the same way would give.

Bulk readers — the chain build, contig-end recognition, type counts and
merging's removal of chain members — go through :meth:`select`,
:meth:`ids_of_type`, :meth:`type_counts` and :meth:`discard`, which read
the columns without materialising anything.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from itertools import repeat
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..dna import vectorized
from .kmer_vertex import (
    TYPE_AMBIGUOUS,
    TYPE_DEAD_END,
    TYPE_UNAMBIGUOUS,
    ContigLink,
    KmerAdjacency,
    KmerVertexData,
)

#: One adjacency entry as a plain tuple: ``(neighbor_id, my_port,
#: neighbor_port, coverage, via_contig)``, the fields of
#: :class:`~repro.dbg.kmer_vertex.KmerAdjacency` in order.
Entry = Tuple[int, int, int, int, Optional[ContigLink]]

#: Vertex type → the code the ``types`` column stores.
_TYPE_CODES = {TYPE_DEAD_END: 0, TYPE_UNAMBIGUOUS: 1, TYPE_AMBIGUOUS: 2}
_ID_LIMIT = 1 << 64


def _entries(vertex: KmerVertexData) -> List[Entry]:
    return [
        (a.neighbor_id, a.my_port, a.neighbor_port, a.coverage, a.via_contig)
        for a in vertex.adjacencies
    ]


class KmerTable(MutableMapping):
    """k-mer ID → :class:`KmerVertexData`, backed by construction's columns."""

    def __init__(self, k: int) -> None:
        self.k = k
        #: Column k-mers, ascending, and their rows in iteration order.
        self._ids = np.zeros(0, dtype=np.uint64)
        self._order = np.zeros(0, dtype=np.int64)
        self._alive = np.zeros(0, dtype=bool)
        self._types = np.zeros(0, dtype=np.int8)
        #: Row ``r``'s adjacency entries are ``_offsets[r]:_offsets[r + 1]``.
        self._offsets = np.zeros(1, dtype=np.int64)
        self._neighbors = np.zeros(0, dtype=np.uint64)
        self._my_ports = np.zeros(0, dtype=np.int8)
        self._neighbor_ports = np.zeros(0, dtype=np.int8)
        self._coverage = np.zeros(0, dtype=np.int64)
        self._alive_count = 0
        #: Materialised column k-mers (their alive bit stays set).
        self._fetched: Dict[int, KmerVertexData] = {}
        #: k-mers with no alive column row, in insertion order.
        self._extra: Dict[int, KmerVertexData] = {}

    @classmethod
    def from_slots(cls, k: int, slot_keys, slot_positions, slot_coverage, order) -> "KmerTable":
        """The k-mers of construction's occupied bitmap slots.

        ``slot_keys / slot_positions / slot_coverage`` are parallel
        arrays sorted by (k-mer, slot) with coverage summed per slot;
        ``order`` lists the distinct k-mers' ranks in iteration order.
        Every k-mer equals ``KmerVertexData.from_bitmap`` over its slots,
        adjacency order included.
        """
        table = cls(k)
        size = int(slot_keys.size)
        if not size:
            return table
        neighbors, my_ports, neighbor_ports = vectorized.expand_slots(
            slot_keys, slot_positions, k
        )
        # Two slots of one k-mer can name the same (neighbour, ports) —
        # palindromes and self-loops.  As in ``add_adjacency``, the first
        # keeps its place with the summed coverage and the others go.
        ports = 2 * my_ports + neighbor_ports
        by_entry = np.lexsort((ports, neighbors, slot_keys))  # stable
        keys, nexts, sides = slot_keys[by_entry], neighbors[by_entry], ports[by_entry]
        starts = np.ones(size, dtype=bool)
        starts[1:] = (keys[1:] != keys[:-1]) | (nexts[1:] != nexts[:-1]) | (sides[1:] != sides[:-1])
        firsts = by_entry[starts]
        coverage = np.asarray(slot_coverage, dtype=np.int64).copy()
        coverage[firsts] = np.add.reduceat(coverage[by_entry], np.flatnonzero(starts))
        keep = np.zeros(size, dtype=bool)
        keep[firsts] = True

        is_first = np.ones(size, dtype=bool)
        is_first[1:] = slot_keys[1:] != slot_keys[:-1]
        rows = np.cumsum(is_first)[keep] - 1
        table._ids = slot_keys[is_first].astype(np.uint64)
        count = int(table._ids.size)
        degrees = np.bincount(rows, minlength=count)
        table._offsets = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        table._neighbors = neighbors[keep]
        table._my_ports = my_ports[keep].astype(np.int8)
        table._neighbor_ports = neighbor_ports[keep].astype(np.int8)
        table._coverage = coverage[keep]
        # ⟨1-1⟩ is two entries, one on each port (every row has an entry).
        in_ports = np.add.reduceat(table._my_ports.astype(np.int64), table._offsets[:-1])
        one_one = (degrees == 2) & (in_ports == 1)
        table._types = np.where(degrees <= 1, 0, np.where(one_one, 1, 2)).astype(np.int8)
        table._order = np.asarray(order, dtype=np.int64)
        table._alive = np.ones(count, dtype=bool)
        table._alive_count = count
        return table

    # ------------------------------------------------------------------
    # the mapping
    # ------------------------------------------------------------------
    def _row(self, key) -> int:
        """Column row of the alive k-mer ``key``, or -1."""
        ids = self._ids
        if not (ids.size and isinstance(key, int) and 0 <= key < _ID_LIMIT):
            return -1
        row = int(ids.searchsorted(np.uint64(key)))
        if row < ids.size and int(ids[row]) == key and self._alive[row]:
            return row
        return -1

    def _column_entries(self, index) -> List[Entry]:
        """Entries ``index`` (a slice or an index array) of the columns."""
        return list(
            zip(
                self._neighbors[index].tolist(),
                self._my_ports[index].tolist(),
                self._neighbor_ports[index].tolist(),
                self._coverage[index].tolist(),
                repeat(None),
            )
        )

    def _row_entries(self, row: int) -> List[Entry]:
        start, end = self._offsets[row : row + 2].tolist()
        return self._column_entries(slice(start, end))

    def _stored(self, key) -> Optional[KmerVertexData]:
        """The overlay's vertex for ``key``, if it holds one."""
        vertex = self._fetched.get(key)
        return self._extra.get(key) if vertex is None else vertex

    def get(self, key, default=None):
        vertex = self._stored(key)
        if vertex is None:
            row = self._row(key)
            if row < 0:
                return default
            adjacencies = [KmerAdjacency(*entry) for entry in self._row_entries(row)]
            vertex = self._fetched[key] = KmerVertexData(key, self.k, adjacencies)
        return vertex

    def __getitem__(self, key) -> KmerVertexData:
        vertex = self.get(key)
        if vertex is None:
            raise KeyError(key)
        return vertex

    def __contains__(self, key) -> bool:
        return key in self._fetched or key in self._extra or self._row(key) >= 0

    def __setitem__(self, key, vertex: KmerVertexData) -> None:
        if key in self._fetched or self._row(key) >= 0:
            self._fetched[key] = vertex
        else:
            self._extra[key] = vertex

    def __delitem__(self, key) -> None:
        if key in self._extra:
            del self._extra[key]
            return
        row = self._row(key)
        if row < 0:
            raise KeyError(key)
        self._alive[row] = False
        self._alive_count -= 1
        self._fetched.pop(key, None)

    def __len__(self) -> int:
        return self._alive_count + len(self._extra)

    def __iter__(self) -> Iterator[int]:
        yield from self._ids[self._ordered_rows(self._alive)].tolist()
        yield from list(self._extra)

    # ------------------------------------------------------------------
    # bulk readers: nothing is materialised
    # ------------------------------------------------------------------
    def _ordered_rows(self, mask):
        """The rows ``mask`` selects, in iteration order."""
        return self._order[mask[self._order]]

    def _entry_index(self, rows):
        """``(index, bounds)``: the entries of ``rows`` concatenated, row
        ``i``'s being ``index[bounds[i]:bounds[i + 1]]``."""
        starts = self._offsets[rows]
        counts = self._offsets[rows + 1] - starts
        bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return np.repeat(starts - bounds[:-1], counts) + np.arange(bounds[-1]), bounds

    def _compact(self) -> None:
        """Drop the dead rows, keeping the iteration order of the rest."""
        rows = np.flatnonzero(self._alive)
        index, self._offsets = self._entry_index(rows)
        self._order = (np.cumsum(self._alive) - 1)[self._ordered_rows(self._alive)]
        self._ids = self._ids[rows]
        self._types = self._types[rows]
        self._neighbors = self._neighbors[index]
        self._my_ports = self._my_ports[index]
        self._neighbor_ports = self._neighbor_ports[index]
        self._coverage = self._coverage[index]
        self._alive = np.ones(rows.size, dtype=bool)

    def _codes(self):
        """The type code of every row; fetched k-mers are typed from
        their (possibly mutated) adjacency lists."""
        codes = self._types
        if self._fetched:
            codes = codes.copy()
            fetched = np.fromiter(self._fetched, dtype=np.uint64, count=len(self._fetched))
            codes[self._ids.searchsorted(fetched)] = [
                _TYPE_CODES[vertex.vertex_type()] for vertex in self._fetched.values()
            ]
        return codes

    def _type_mask(self, types: Collection[str]):
        """Alive rows whose vertex type is in ``types``."""
        return self._alive & np.isin(self._codes(), [_TYPE_CODES[name] for name in types])

    def _extra_of_type(self, types: Collection[str]) -> List[Tuple[int, KmerVertexData]]:
        return [
            (key, vertex) for key, vertex in self._extra.items() if vertex.vertex_type() in types
        ]

    def ids_of_type(self, types: Collection[str]) -> List[int]:
        """IDs of the k-mers whose vertex type is in ``types``, in iteration order."""
        rows = self._ordered_rows(self._type_mask(types))
        return self._ids[rows].tolist() + [key for key, _ in self._extra_of_type(types)]

    def type_counts(self) -> Dict[str, int]:
        """Number of k-mers of each vertex type."""
        column = np.bincount(self._codes()[self._alive], minlength=len(_TYPE_CODES)).tolist()
        counts = dict(zip(_TYPE_CODES, column))
        for vertex in self._extra.values():
            counts[vertex.vertex_type()] += 1
        return counts

    def select(self, types: Collection[str]) -> Iterator[Tuple[int, List[Entry]]]:
        """``(k-mer ID, adjacency entries)`` of the k-mers whose vertex type
        is in ``types``, in iteration order, entries as :data:`Entry` tuples."""
        rows = self._ordered_rows(self._type_mask(types))
        index, bounds = self._entry_index(rows)
        flat = self._column_entries(index)
        fetched = self._fetched
        bounds = bounds.tolist()
        for kmer_id, start, end in zip(self._ids[rows].tolist(), bounds, bounds[1:]):
            vertex = fetched.get(kmer_id)
            yield kmer_id, flat[start:end] if vertex is None else _entries(vertex)
        for kmer_id, vertex in self._extra_of_type(types):
            yield kmer_id, _entries(vertex)

    def entries(self, key) -> Optional[List[Entry]]:
        """The adjacency entries of k-mer ``key`` (None if absent); a
        column k-mer is not materialised."""
        vertex = self._stored(key)
        if vertex is not None:
            return _entries(vertex)
        row = self._row(key)
        return None if row < 0 else self._row_entries(row)

    def discard(self, keys: Sequence[int]) -> List[int]:
        """Delete every k-mer of ``keys`` that is present, column rows in
        one array pass, and drop the dead rows once they are the majority;
        returns the keys that were not k-mers."""
        keys = list(keys)
        ids = self._ids
        found = [False] * len(keys)
        if ids.size and keys:
            wanted = np.array(keys, dtype=np.uint64)
            rows = np.minimum(ids.searchsorted(wanted), ids.size - 1)
            hits = (ids[rows] == wanted) & self._alive[rows]
            gone = np.unique(rows[hits])
            self._alive[gone] = False
            self._alive_count -= int(gone.size)
            found = hits.tolist()
        missing = []
        for key, hit in zip(keys, found):
            if hit:
                self._fetched.pop(key, None)
            elif key in self._extra:
                del self._extra[key]
            else:
                missing.append(key)
        # Merging leaves a few ambiguous k-mers of thousands; without
        # this, stage checkpoints would keep pickling the dead rows.
        if 2 * self._alive_count < self._ids.size:
            self._compact()
        return missing
