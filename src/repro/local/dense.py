"""Dense node data: a vectorized solve's result, from kernel to bytes.

A network indexes its nodes densely in ``network.nodes`` order, and the
vectorized engine keeps every per-node quantity as an array in that
order.  This module keeps them arrays after the engine is done, behind
read-only views that compare equal to the Python objects they stand for:

* :class:`NodeValues`, a node → value map over a dense array (a
  kernel's outputs, a shared coloring), equal to the dict the object
  engine builds;
* :class:`NodeSet`, a set of nodes held as member indices (an MIS, a
  ruling set);
* :class:`PairSet`, a set of two-node frozensets held as index pairs (a
  matching).

The sets build frozensets only when a caller iterates them.  Checkers
read their indices; :func:`~repro.utils.serialization.canonical_dumps`
writes their canonical JSON straight from the arrays, in the order
:func:`~repro.utils.serialization.to_jsonable` sorts a set: by each
element's ``json.dumps`` key.  For labels that are non-negative ints or
``(int, side)`` pairs (:meth:`Network.label_arrays`) that order is
:func:`str_rank` arithmetic and the digits are written by numpy; any
other label costs one key per node, never one ``json.dumps`` per
element.  The bytes equal those of the same report holding plain sets.
"""

from __future__ import annotations

import json
from collections.abc import Callable, ItemsView, Mapping, Set, ValuesView

import numpy as np

from repro.utils.serialization import canonical_dumps, register_encoder, to_jsonable

_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)


def _digit_counts(values: np.ndarray) -> np.ndarray:
    return 1 + np.searchsorted(_POWERS, values, side="right")


def str_rank(values: np.ndarray, sides: np.ndarray | None = None) -> np.ndarray:
    """Rank of each label in ``str`` order, for labels ``v`` (``sides``
    omitted) or ``(v, s)``, with ``v ≥ 0`` and ``s`` one digit.

    ``str(v)`` compares digit by digit and a proper prefix sorts first;
    the same holds after ``"("`` and before ``", s)"``, because ``","``
    sorts below every digit.  So the order is by ``v`` scaled to the
    widest digit count, then by digit count, then by ``s``.  The JSON
    spellings ``v`` and ``[v, s]`` sort the same way.
    """
    values = np.asarray(values, dtype=np.int64)
    rank = np.empty(values.shape[0], dtype=np.int64)
    rank[np.lexsort(_str_keys(values, sides))] = np.arange(values.shape[0])
    return rank


def _str_keys(values: np.ndarray, sides: np.ndarray | None) -> tuple:
    digits = _digit_counts(values)
    widest = int(digits.max(initial=1))
    scaled = values * 10 ** (widest - digits)
    return (digits, scaled) if sides is None else (sides, digits, scaled)


def _same_nodes(ours: tuple, nodes: tuple) -> bool:
    return ours is nodes or ours == nodes


class NodeValues(Mapping):
    """A read-only node → value map over dense per-node data.

    ``array`` holds one entry per node in ``network.nodes`` order (a
    numpy array or a list); ``decode``, when given, turns an entry (a
    Python scalar) into the node's value.  It equals the dict
    ``{node: value}``, iterates in node order, and builds the Python
    values (and ``network.index``, for a lookup by node) only on use.
    """

    def __init__(self, network, array, decode: Callable | None = None) -> None:
        self.network = network
        self.array = array
        self.decode = decode
        self._values = None

    def _list(self) -> list:
        if self._values is None:
            entries = self.array
            if isinstance(entries, np.ndarray):
                entries = entries.tolist()
            decode = self.decode
            self._values = entries if decode is None else [decode(e) for e in entries]
        return self._values

    def __getitem__(self, node):
        return self._list()[self.network.index[node]]

    def __iter__(self):
        return iter(self.network.nodes)

    def __len__(self) -> int:
        return len(self.network.nodes)

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __repr__(self) -> str:
        return f"NodeValues({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping.network.nodes, self._mapping._list())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._list())


def dense_values(values, nodes: tuple, dtype=None) -> np.ndarray:
    """``values``, a node → value map, as an array in ``nodes`` order.

    A :class:`NodeValues` over these nodes hands over its array, decoded
    once per distinct entry; any other map is read node by node.
    """
    if isinstance(values, NodeValues) and _same_nodes(values.network.nodes, nodes):
        entries = np.asarray(values.array)
        if values.decode is None:
            return entries if dtype is None else entries.astype(dtype, copy=False)
        codes = sorted_distinct(entries)
        decoded = [values.decode(code) for code in codes.tolist()]
        return np.array(decoded, dtype=dtype)[np.searchsorted(codes, entries)]
    return np.array([values[node] for node in nodes], dtype=dtype)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending (``np.unique`` by
    sorting: its hash table costs the process ~1 MB of resident code)."""
    ordered = np.sort(values)
    keep = np.ones(ordered.shape[0], dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def raw_values(values, nodes: tuple, decode: Callable) -> np.ndarray | None:
    """The array behind ``values`` when it is a :class:`NodeValues` over
    ``nodes`` decoded by ``decode``, else ``None``."""
    if (
        isinstance(values, NodeValues)
        and values.decode is decode
        and _same_nodes(values.network.nodes, nodes)
    ):
        return np.asarray(values.array)
    return None


class _DenseSet(Set):
    """A read-only set over dense indices of ``network``'s nodes.

    It keeps the node labels and their :meth:`Network.label_arrays`, not
    the network, so a kept report does not keep the graph alive.  Set
    operators return frozensets; membership materializes the elements
    once.
    """

    def __init__(self, network, indices: np.ndarray) -> None:
        self.nodes = network.nodes
        self.labels = network.label_arrays()
        self.indices = indices
        self._frozen = None

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def over(self, nodes: tuple) -> bool:
        """Do the indices point into ``nodes`` (the network's node order)?"""
        return _same_nodes(self.nodes, nodes)

    def __contains__(self, element) -> bool:
        if self._frozen is None:
            self._frozen = frozenset(self)
        return element in self._frozen

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({set(self)!r})"

    def canonical_json(self) -> str:
        """The compact canonical JSON of this set (see the module doc)."""
        if not len(self):
            return "[]"
        return self._spell(_Labels(self, self.indices.ravel()))

    def jsonable(self) -> list:
        """:func:`~repro.utils.serialization.to_jsonable` of this set:
        its elements as sorted JSON-ready lists."""
        if not len(self):
            return []
        return self._sorted(_Labels(self, self.indices.ravel()))


class NodeSet(_DenseSet):
    """A set of nodes held as distinct dense indices (``members``),
    iterated in that order."""

    @property
    def members(self) -> np.ndarray:
        return self.indices

    def __iter__(self):
        nodes = self.nodes
        return (nodes[i] for i in self.indices.tolist())

    def _spell(self, labels: "_Labels") -> str:
        return labels.spell(np.argsort(labels.rank, kind="stable")[:, None])

    def _sorted(self, labels: "_Labels") -> list:
        order = np.argsort(labels.rank, kind="stable")
        return [labels.jsonable(i) for i in order.tolist()]


class PairSet(_DenseSet):
    """A set of two-node frozensets held as a ``(k, 2)`` array of dense
    index pairs (``pairs``): distinct pairs of distinct nodes, iterated
    in row order."""

    @property
    def pairs(self) -> np.ndarray:
        return self.indices

    def __iter__(self):
        nodes = self.nodes
        return (frozenset((nodes[a], nodes[b])) for a, b in self.indices.tolist())

    def _order(self, labels: "_Labels") -> np.ndarray:
        """Rows of ``labels`` entries: each pair as (first, second) in
        sorted element order, the pairs in sorted set order.

        A pair sorts inside by its ends' keys.  The set sorts by
        ``"[" + key(a) + ", " + key(b) + "]"``: no key is a proper prefix
        of another followed by a character below ``","``, so that is by
        ``a``'s rank, then by ``key(b) + "]"`` — which differs from
        ``b``'s rank for ints ("12" before "1]"), so it is only computed
        when two pairs share a first end.
        """
        k = len(self)
        rank = labels.rank.reshape(k, 2)
        flip = (rank[:, 1] < rank[:, 0]).astype(np.int64)
        base = 2 * np.arange(k, dtype=np.int64)
        ends = np.column_stack((base + flip, base + 1 - flip))
        first = labels.rank[ends[:, 0]]
        order = np.argsort(first, kind="stable")
        ordered = first[order]
        if np.any(ordered[1:] == ordered[:-1]):
            order = np.lexsort((labels.bracket_rank()[ends[:, 1]], first))
        return ends[order]

    def _spell(self, labels: "_Labels") -> str:
        return labels.spell(self._order(labels))

    def _sorted(self, labels: "_Labels") -> list:
        return [
            [labels.jsonable(a), labels.jsonable(b)]
            for a, b in self._order(labels).tolist()
        ]


class _Labels:
    """Sort keys and compact JSON texts of the labels of a set's nodes
    at ``entries`` (dense indices, repeats allowed).

    ``rank[j]`` orders entry ``j`` by its label's ``json.dumps`` key,
    equal keys ranking equal.  Arithmetic labels keep their texts as the
    rows of a zero-padded byte grid (JSON text has no NUL byte, so
    dropping the zeros of concatenated rows spells them out); other
    labels keep a list of strings.
    """

    def __init__(self, dense: _DenseSet, entries: np.ndarray) -> None:
        self.nodes = dense.nodes
        self.entries = entries
        self.grid = self.texts = None
        labels = dense.labels
        if labels is None:
            self._generic()
        else:
            values, sides = labels
            values = values[entries]
            sides = None if sides is None else sides[entries]
            self._arithmetic(values, sides)

    def _arithmetic(self, values: np.ndarray, sides: np.ndarray | None) -> None:
        keys = _str_keys(values, sides)
        order = np.lexsort(keys)
        step = np.zeros(order.shape[0], dtype=bool)
        for key in keys:
            ordered = key[order]
            step[1:] |= ordered[1:] != ordered[:-1]
        self.rank = np.empty(order.shape[0], dtype=np.int64)
        self.rank[order] = np.cumsum(step)
        # Right-aligned digits, one row per entry: "ddd" for ints,
        # "[ddd,s]" for pairs (the "[" lands just before the digits).
        k, digits = values.shape[0], _digit_counts(values)
        width = int(digits.max(initial=1))
        pad = 0 if sides is None else 1
        grid = np.zeros((k, width + 4 * pad), dtype=np.uint8)
        rest = values.copy()
        for place in range(width):
            grid[:, pad + width - 1 - place] = np.where(place < digits, 48 + rest % 10, 0)
            rest //= 10
        if sides is not None:
            grid[np.arange(k), width - digits] = ord("[")
            grid[:, width + 1] = ord(",")
            grid[:, width + 2] = 48 + sides
            grid[:, width + 3] = ord("]")
        self.grid = grid
        self._sides = sides is not None

    def _generic(self) -> None:
        nodes = self.nodes
        jsonables = [to_jsonable(nodes[i]) for i in self.entries.tolist()]
        self._keys = [json.dumps(item, sort_keys=True) for item in jsonables]
        self.texts = [
            json.dumps(item, sort_keys=True, separators=(",", ":"))
            for item in jsonables
        ]
        self.rank = _dense_rank(self._keys)
        self._sides = False

    def bracket_rank(self) -> np.ndarray:
        """Each entry ranked by ``key + "]"``."""
        if self._sides:  # no "[v, s]" key prefixes another
            return self.rank
        if self.texts is None:  # an int's key is its text
            keys = [row[row != 0].tobytes().decode("ascii") for row in self.grid]
        else:
            keys = self._keys
        return _dense_rank([key + "]" for key in keys])

    def jsonable(self, j: int):
        return to_jsonable(self.nodes[int(self.entries[j])])

    def spell(self, items: np.ndarray) -> str:
        """The JSON list of the items, in row order: item ``i`` is entry
        ``items[i, 0]``'s text, or for two columns the pair
        ``[text, text]``."""
        k, pairs = items.shape[0], items.shape[1] == 2
        if self.texts is not None:
            texts = self.texts
            if pairs:
                body = ",".join(f"[{texts[a]},{texts[b]}]" for a, b in items.tolist())
            else:
                body = ",".join(texts[i] for i in items[:, 0].tolist())
            return f"[{body}]"

        def column(char: str) -> np.ndarray:
            return np.full((k, 1), ord(char), dtype=np.uint8)

        first = self.grid[items[:, 0]]
        if pairs:
            rows = (column("["), first, column(","), self.grid[items[:, 1]], column("]"))
        else:
            rows = (first,)
        spelled = np.concatenate((*rows, column(",")), axis=1).ravel()
        # The zeros are padding; the last item's trailing "," goes too.
        return "[" + spelled[spelled != 0][:-1].tobytes().decode("ascii") + "]"


def _dense_rank(keys: list[str]) -> np.ndarray:
    position = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return np.array([position[key] for key in keys], dtype=np.int64)


register_encoder(NodeSet, NodeSet.jsonable, NodeSet.canonical_json)
register_encoder(PairSet, PairSet.jsonable, PairSet.canonical_json)
register_encoder(
    NodeValues,
    lambda values: to_jsonable(dict(values.items())),
    lambda values: canonical_dumps(dict(values.items())),
)
