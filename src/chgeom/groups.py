"""Finitely generated isometry groups: orbits, packings, limit sets.

A group is given by labeled generators; inverse labels are the swapcase of
the generator label, and labels listed as involutive are their own inverse.
Word enumeration is breadth-first over reduced words with deterministic
lexicographic ordering.  A level of the ball is columnar: (parent, symbol)
links into the previous level and alphabet, and a matrix stack built with
one matrix product per symbol and chunk, real (float64) when every
generator matrix is real and complex128 otherwise.  Word strings are
spelled by `Words`, from the links, only for the elements a caller reads.
An orbit is one columnar `Orbit` (word lengths, a lift stack, distances
to the basepoint, and the words on demand) in that order; nothing is
built per point.

The budget caps the elements of a ball: as soon as a level shows that
the next level cannot fit, `element_ball` raises, and it has not yet
computed that level's matrices, which the error discards.  A level's new
key hashes often show it before any repeat is confirmed; its kept links
always do.

Dedup (`_FirstKept`, shared by `element_ball` and `orbit_enumerate`) keeps
the first word for each element or orbit point: the ball a level at a
time, the orbit in one pass over the whole ball's lifts in word order,
which keeps what a pass per level would, as a key depends on its item
alone.  Items are keyed by their
entries divided by a pivot entry and rounded to 9 digits, and two keys are
equal when their bytes are.  Only 64-bit key hashes are stored: one sorted
index of them, with 32-bit back-pointers into the kept stacks, serves every
level.  A ball level's candidates are not stored either: `_Products`
computes any of their rows from the links on demand.  A level hashes its
keys a chunk at a time and sorts the hashes once, which groups the level
and searches the index.  One pass then confirms each repeat against its
presumed representative on the full keys, recomputed from the two items,
which is exact because a key depends on its item alone; keys that share a
hash are told apart by their bytes, so a hash collision never merges
items.  Equal keys decide every merge: an item with a new key is kept, and
an item with a seen key is dropped.  Equal keys bound the projective
matrix gap of two elements by about 6e-9, within the 1e-6 that elements
are told apart by, and the lift gap of two points by 2 sqrt(2) 1e-9
(1 + 1e-6), about 2.83e-9.  Items with different keys are never compared.
The kept items are computed last.  All of this is float64, so far-out
orbit points whose lifts agree to rounding merge though distinct.

Keys are short rows (6, 9 or 18 words), and numpy reduces a short last
axis slowly, row by row.  So their maxima, hash sums and equality tests
go a column at a time (`core._fold`), with operations that give the
axis reductions' results exactly: maxima of moduli, sums that wrap around
2^64, and word equality.
"""

from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core
from . import heisenberg as hb
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionError,
    InvalidPackingError,
    ParameterError,
)

DEFAULT_BUDGET = 2_000_000


class GroupGens:
    """Labeled generating set of a subgroup of PU(n,1).

    labels are single symbols; the inverse of label 'a' is written 'A'
    (swapcase), except labels in `involutive`, which square to the identity
    and serve as their own inverse.  labels and isometries are tuples,
    involutive a frozenset.  The isometries act on one ball: generators of
    different sizes raise DimensionError.
    """

    __slots__ = ("labels", "isometries", "involutive")

    def __init__(self, generators, involutive=()):
        labels = []
        isos = []
        for label, iso in generators:
            if len(label) != 1:
                raise ParameterError(f"label {label!r} is not a single symbol")
            if not isinstance(iso, core.Isometry):
                iso = core.Isometry(np.asarray(iso, dtype=complex))
            labels.append(label)
            isos.append(iso)
        if not labels:
            raise DegenerateInputError("empty generator set")
        if len({iso.n for iso in isos}) > 1:
            raise DimensionError("generators act on balls of different dimensions")
        if len(set(labels)) != len(labels):
            raise ParameterError("generator labels must be unique")
        inv = frozenset(involutive)
        for label in labels:
            if label not in inv and label.swapcase() == label:
                raise ParameterError(
                    f"label {label!r} has no case pair; declare it involutive"
                )
            if label not in inv and label.swapcase() in labels:
                raise ParameterError(f"label {label!r} collides with an inverse label")
        unknown = inv - set(labels)
        if unknown:
            raise ParameterError(
                f"involutive labels {sorted(unknown)} are not generators")
        self.labels = tuple(labels)
        self.isometries = tuple(isos)
        self.involutive = inv

    @property
    def dim(self):
        return self.isometries[0].matrix.shape[0]

    def check_dim(self, point, role):
        """Raise DimensionError unless the point has dim coordinates."""
        if len(point.lift) != self.dim:
            raise DimensionError(f"{role} has {len(point.lift)} coordinates, "
                                 f"but the group acts on {self.dim}")

    def alphabet(self):
        """Sorted (symbol, matrix) pairs for generators and their inverses."""
        entries = {}
        for label, iso in zip(self.labels, self.isometries):
            entries[label] = iso.matrix
            if label not in self.involutive:
                entries[label.swapcase()] = iso.inverse().matrix
        return sorted(entries.items())

    def inverse_label(self, label):
        return label if label in self.involutive else label.swapcase()


class Words:
    """The words of a ball's elements, spelled on demand.

    Elements are numbered level by level in the order of element_ball's
    levels, so level k holds elements starts[k] to starts[k + 1] - 1.  A
    word is its parent's word followed by its symbol: `take` walks the
    (parent, symbol) links back to the identity, a level at a time.
    """

    def __init__(self, gens, levels):
        self.symbols = np.array([s for s, _ in gens.alphabet()])
        self.links = [links for links, _ in levels]
        self.starts = np.cumsum([0] + [len(links) for links in self.links])

    def lengths(self, index):
        """The word lengths of the elements with these indices."""
        return np.searchsorted(self.starts, index, side="right") - 1

    def take(self, index):
        """The words, as a list of str, of the elements with these indices."""
        index = np.asarray(index, dtype=np.int64)
        length = self.lengths(index)
        words = np.full(len(index), "", dtype=object)
        for k in set(length.tolist()) - {0}:
            at = np.flatnonzero(length == k)
            rows = index[at] - self.starts[k]
            letters = np.empty((len(at), k), dtype=self.symbols.dtype)
            for lv in range(k, 0, -1):
                rows, sym = self.links[lv][rows].T
                letters[:, lv - 1] = self.symbols[sym]
            words[at] = letters.view((np.str_, k))[:, 0].tolist()
        return words.tolist()


class Orbit:
    """Orbit points as columns; row i is one point.

    word_lengths[i] is the length of the first word reaching the point,
    lifts[i] a lift (the stack is validated as one batch), distances[i] the
    Bergman distance to the basepoint, and elements[i] the index of that
    word's element in ball_words.  `words` spells the words on first use.
    """

    # no __slots__: cached_property keeps `words` in the instance __dict__
    def __init__(self, word_lengths, lifts, distances, elements, ball_words):
        self.word_lengths = word_lengths
        self.lifts = core._checked_lifts(lifts, ndim=2)
        self.distances = distances
        self.elements = elements
        self.ball_words = ball_words

    def __len__(self):
        return len(self.word_lengths)

    @cached_property
    def words(self):
        return tuple(self.ball_words.take(self.elements))


class HeisCloud:
    """Columnar batch of boundary points; indexes like a list of HeisPoint."""

    __slots__ = ("xi", "v")

    def __init__(self, xi, v):
        self.xi = np.atleast_2d(np.asarray(xi, dtype=complex))
        self.v = np.asarray(v, dtype=float)
        if self.xi.shape[0] != self.v.shape[0]:
            raise DimensionError("xi and v batches disagree in length")

    def __len__(self):
        return self.v.shape[0]

    def __getitem__(self, i):
        return hb.HeisPoint(self.xi[i], self.v[i])


def _canonical_rows(items):
    """Scale-and-phase canonical rounded rows for projective dedup.

    Each item, a vector or a flattened matrix, is divided by its pivot
    entry (first within a whisker of its maximum), then rounded; equal
    projective objects then produce identical rows up to rounding-boundary
    luck.  A row depends on its item alone, bit for bit.  Two matrices with
    equal rows differ by a projective matrix gap of at most about 6e-9:
    divided by their pivots, their largest moduli are 1 to within the 1e-6
    whisker, and their entries agree to 1e-9 in every real part.
    """
    flat = items.reshape(len(items), -1)
    mag = np.abs(flat)
    whisker = core._fold(np.maximum, mag)
    whisker *= 1.0 - 1e-6
    pivot = np.argmax(mag >= whisker[:, None], axis=1)
    canon = (flat / flat[np.arange(len(flat)), pivot][:, None]).view(float)
    return np.round(canon, 9, out=canon)


_MIX = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB],
                dtype=np.uint64)


def _key_hash(words):
    """A 64-bit hash of each row of a (k, m) uint64 array.

    Each word gets its column's offset, so equal words in different columns
    differ, and is then mixed by two multiply-xorshift rounds; a row's
    mixed words are summed modulo 2^64.  Dedup is exact for any function of
    the row, since every hash match is confirmed on the full key; a good
    hash only keeps the collision path idle.
    """
    mixed = words + np.arange(words.shape[1], dtype=np.uint64) * _MIX[0]
    mixed *= _MIX[1]
    mixed ^= mixed >> 32
    mixed *= _MIX[2]
    mixed ^= mixed >> 29
    return core._fold(np.add, mixed)


def _byte_rows(words):
    """The rows of a 2-D array as single void scalars, compared as bytes."""
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, words.itemsize * words.shape[1])))[:, 0]


_CHUNK = 2048  # items per batch of products or keys, to bound temporaries


class _FirstKept:
    """Projective dedup, level by level, in which the first item wins.

    key maps a batch of items to one key row per item, which must depend
    on its item alone, bit for bit, in any batch: keys are not stored but
    computed again, a chunk at a time, wherever they are compared.  Keys
    are compared as bytes, read as uint64 words, so -0.0 and +0.0 differ
    and a NaN equals only its own bit pattern.  Two items merge exactly
    when their keys are equal, and a key's first kept item is its
    representative.  The index is the sorted `_key_hash` of every key seen
    so far, each with its representative's row in the kept stacks, which
    are stored per level and never copied.

    A level's items are an array or `_Products`, indexed by slices and
    index arrays; only their hashes are held.  One sort of the hashes
    groups the level, gives the sorted queries of one search into the
    index, and orders the new keys for the index merge.  Each item then
    has a presumed representative: the first index entry with its hash,
    else the first item of its group.  The hash groups that miss the index
    are a lower bound on the level's new keys, so a caller's limit on them
    is checked before any representative is built.  One chunked pass
    confirms every repeat on the two full keys.  A key unequal to its
    representative's marks a collision, two keys with one hash, and its
    group takes an exact path: regrouped by bytes with every index entry of
    its hash (np.unique).  So a collision costs time but never merges items
    or fails.  Items whose key is new are kept, and the rest dropped.
    `decide` leaves the index and the stacks as they are, and `commit`
    enters its decision and computes the kept items, last.
    """

    def __init__(self, key):
        self.key = key  # batched: stack -> key rows, each of its item alone
        self.hashes = np.empty(0, dtype=np.uint64)  # sorted
        self.reps = np.empty(0, dtype=np.int32)  # kept row of each hash's key
        self.kept = []  # per level: kept items
        self.starts = np.zeros(1, dtype=np.int64)  # first kept row per level

    def _words(self, items):
        """The keys of a batch of items as rows of uint64 words."""
        return np.ascontiguousarray(self.key(items)).view(np.uint64)

    def _rows(self, rows):
        """The given rows of the kept stacks."""
        level = np.searchsorted(self.starts, rows, side="right") - 1
        out = np.empty((len(rows),) + self.kept[0].shape[1:], dtype=self.kept[0].dtype)
        for lv in np.flatnonzero(np.bincount(level)).tolist():
            at = level == lv
            out[at] = self.kept[lv][rows[at] - self.starts[lv]]
        return out

    def _confirm(self, items, at, rep):
        """For each of items[at], whether its key equals its representative's.
        rep[i] >= 0 is a kept row, and rep[i] < 0 stands for items[~rep[i]]."""
        equal = np.empty(len(at), dtype=bool)
        for lo in range(0, len(at), _CHUNK):
            c = slice(lo, lo + _CHUNK)
            x, r = items[at[c]], rep[at[c]]
            y = np.empty_like(x)
            earlier = r >= 0
            if np.any(earlier):
                y[earlier] = self._rows(r[earlier])
            y[~earlier] = items[~r[~earlier]]
            equal[c] = core._fold(np.logical_and, self._words(x) == self._words(y))
        return equal

    def _insert(self, hashes, rows):
        """Merge new keys' sorted hashes and representative rows into the index."""
        at = np.searchsorted(self.hashes, hashes) + np.arange(len(hashes))
        old = np.ones(len(self.hashes) + len(hashes), dtype=bool)
        old[at] = False

        def merged(index, new):
            out = np.empty(len(old), dtype=index.dtype)
            out[at] = new
            out[old] = index
            return out

        self.hashes = merged(self.hashes, hashes)
        self.reps = merged(self.reps, rows)

    def _presumed(self, hashes, order, most_new):
        """Each item's presumed representative: the kept row of the first
        index entry with its hash, else ~(the level's first item with its
        hash); order sorts hashes.  None if more than most_new hashes miss
        the index."""
        ordered = hashes[order]
        head = np.ones(len(hashes), dtype=bool)
        head[1:] = ordered[1:] != ordered[:-1]
        group_hashes = ordered[head]
        del ordered
        hit = np.zeros(len(group_hashes), dtype=bool)
        if len(self.hashes):
            lo = np.searchsorted(self.hashes, group_hashes)
            np.minimum(lo, len(self.hashes) - 1, out=lo)  # lo == len is no hit
            hit = self.hashes[lo] == group_hashes
            found = self.reps[lo[hit]]
            del lo
        del group_hashes
        if len(hit) - np.count_nonzero(hit) > most_new:
            return None
        rep_of = ~np.minimum.reduceat(order, np.flatnonzero(head).astype(np.int32))
        if len(self.hashes):
            rep_of[hit] = found
        rep = np.empty(len(hashes), dtype=np.int32)
        rep[order] = rep_of[np.cumsum(head, dtype=np.int32) - 1]
        return rep

    def _classify(self, items, hashes, rep):
        """Whether each item's key is new, given the presumed representatives."""
        own = ~np.arange(len(items), dtype=np.int32)
        repeat = np.flatnonzero(rep != own)
        equal = self._confirm(items, repeat, rep)
        if not np.all(equal):
            # keys that share a hash: regroup by bytes, with the index's keys
            rows = np.flatnonzero(np.isin(hashes, hashes[repeat[~equal]]))
            entries = self.reps[np.isin(self.hashes, hashes[rows])]
            words = self._words(items[rows])
            if len(entries):
                words = np.concatenate([self._words(self._rows(entries)), words])
            _, first, inverse = np.unique(_byte_rows(words), return_index=True,
                                          return_inverse=True)
            rep[rows] = np.concatenate([entries, ~rows])[first][inverse[len(entries):]]
        return rep == own

    def decide(self, items, most_new=np.inf):
        """One level's decision: the ascending indices of the items to keep,
        and the sorted hashes of its new keys with their representatives'
        rows in the kept stacks.  None, before any repeat is confirmed, if
        the level's hashes alone show more than most_new new keys."""
        hashes = np.empty(len(items), dtype=np.uint64)
        for lo in range(0, len(items), _CHUNK):
            hashes[lo:lo + _CHUNK] = _key_hash(self._words(items[lo:lo + _CHUNK]))
        order = np.argsort(hashes).astype(np.int32)
        rep = self._presumed(hashes, order, most_new)
        if rep is None:
            return None
        new = self._classify(items, hashes, rep)
        first = order[new[order]]  # the first items of new keys, in hash order
        rows = np.cumsum(new, dtype=np.int32)[first] + (self.starts[-1] - 1)
        return np.flatnonzero(new), hashes[first], rows

    def commit(self, items, decision):
        """Enter a level's decision into the index, and store its kept items."""
        idx, hashes, rows = decision
        self._insert(hashes, rows)
        self.starts = np.append(self.starts, self.starts[-1] + len(idx))
        self.kept.append(items[idx])
        return self.kept[-1]

    def keep(self, items):
        """Ascending indices of the items kept from one level, and the items."""
        decision = self.decide(items)
        return decision[0], self.commit(items, decision)


class _Products:
    """The candidates of a ball level, computed for any rows on demand.

    Row i is stack[parent] @ mats[symbol] for links[i] = (parent, symbol).
    Rows are computed a chunk at a time with one (d k, d) @ (d, d) product
    per symbol, bit for bit the k stacked products, so a row does not depend
    on the batch it is computed in.
    """

    def __init__(self, links, stack, mats):
        self.parent, self.sym = links.T
        self.stack, self.mats = stack, mats

    def __len__(self):
        return len(self.parent)

    def __getitem__(self, rows):
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(len(self)))
        d = self.stack.shape[1]
        out = np.empty((len(rows), d, d), dtype=self.stack.dtype)
        for lo in range(0, len(rows), _CHUNK):  # to bound the temporaries
            chunk = rows[lo:lo + _CHUNK]
            parent, sym = self.parent[chunk], self.sym[chunk]
            for si, mat in enumerate(self.mats):
                at = np.flatnonzero(sym == si)
                out[lo + at] = (self.stack[parent[at]].reshape(-1, d) @ mat
                                ).reshape(-1, d, d)
        return out


def element_ball(gens, max_len, budget=DEFAULT_BUDGET, dedup=True):
    """Breadth-first reduced-word ball of group elements.

    Returns (levels, completed) where levels[k] = (links, matrix stack) for
    word length k, ordered lexicographically, and completed == max_len.
    Raises BudgetExceededError with completed_radius L at the first L < max_len
    whose elements up to L and children at L + 1 exceed the budget: before
    level L's stack is computed or its keys enter the index, and before any
    repeat of level L is confirmed when its new key hashes, each an element
    with len(alphabet) - 1 children, already show it.  Row i of the
    (m, 2) int32 array links is (parent, symbol): element i of level k
    is element parent of level k - 1 times the matrix of symbol, an index
    into gens.alphabet().  The identity's links are (-1, -1).  `Words`
    spells the words from the links.  Element dedup keeps the first
    (shortest, then lexicographically first) word for each group element,
    and merges two elements when their keys are equal.
    Stacks are float64 when every generator matrix is real, else complex128.
    A real stack's keys are its complex keys' real parts up to the last bit
    before rounding, so decisions differ only at a rounding boundary, or
    where a negative pivot's -0.0 imaginary key parts split equal elements.
    """
    alpha = gens.alphabet()
    symbols = [s for s, _ in alpha]
    mats = np.stack([m for _, m in alpha])
    mats = mats if np.any(mats.imag) else mats.real
    inv_idx = np.array(
        [symbols.index(gens.inverse_label(s)) for s in symbols], dtype=int
    )
    d = gens.dim

    links = np.full((1, 2), -1, dtype=np.int32)
    items = np.eye(d, dtype=mats.dtype)[None, :, :]
    levels = []
    total = 0
    if dedup:
        seen = _FirstKept(_canonical_rows)
    for length in range(max_len + 1):
        over = BudgetExceededError(f"enumeration budget exhausted at radius {length}",
                                   completed_radius=length)
        if dedup:
            # a kept element and its children count len(alpha) or more
            # against the budget, so more new keys than this cannot fit
            most = (budget - total) // len(alpha) if length < max_len else np.inf
            decision = seen.decide(items, most)
            if decision is None:
                raise over
            if len(decision[0]) == 0:
                break
            links = links[decision[0]]
        total += len(links)
        # the next level's children in word order: by parent, then by symbol
        child = links[:, 1, None] != inv_idx
        if length < max_len and total + np.count_nonzero(child) > budget:
            raise over
        stack = seen.commit(items, decision) if dedup else items[:]
        levels.append((links, stack))
        if length == max_len:
            break
        links = np.argwhere(child).astype(np.int32)
        items = _Products(links, stack, mats)
    return levels, max_len


def orbit_enumerate(gens, max_len, basepoint, budget=DEFAULT_BUDGET):
    """Orbit of the basepoint under reduced words of length <= max_len.

    Points are deduplicated projectively, so each orbit point appears once,
    labeled by the first word (breadth-first, lexicographic) that reaches
    it: a point is dropped when its key equals an earlier point's.  Equal
    keys bound the two lifts' projective gap by about 2.83e-9, and points
    are never compared otherwise.  The lifts of every ball element are
    decided in one pass, in word order, and Bergman distances are taken
    for the kept points only.  Returns an Orbit in that order.  Raises
    BudgetExceededError carrying the completed radius, before any orbit
    point is computed, when the enumeration budget runs out.
    """
    if max_len < 1:
        raise ParameterError("max_len must be >= 1")
    gens.check_dim(basepoint, "basepoint")
    if core.point_class(basepoint) != "negative":
        raise DegenerateInputError("basepoint must be an interior point")

    levels, _ = element_ball(gens, max_len, budget)
    base = basepoint.lift
    d = len(base)
    ball_words = Words(gens, levels)
    # the whole ball's lifts in word order, one level's product at a time
    lifts = np.concatenate([(stack.reshape(-1, d) @ base).reshape(-1, d)
                            for _, stack in levels])
    elements, kept = _FirstKept(_canonical_rows).keep(lifts)
    norm = float(core.herm_inner(base, base).real)
    # the lifts are images of the basepoint, so every norm is its norm
    dists = core._bergman_distances(kept, base[None, :], norm, norm)[:, 0]
    return Orbit(ball_words.lengths(elements), kept, dists, elements, ball_words)


def word_metric_profile(gens, max_len, basepoint=None, budget=DEFAULT_BUDGET):
    """Per word length, (length, min distance, max distance) to the base orbit."""
    if basepoint is None:
        basepoint = core.ball_origin(gens.dim - 1)
    orbit = orbit_enumerate(gens, max_len, basepoint, budget=budget)
    # the orbit comes level by level, in increasing word length
    lengths, starts = np.unique(orbit.word_lengths, return_index=True)
    return list(zip(lengths.tolist(),
                    np.minimum.reduceat(orbit.distances, starts).tolist(),
                    np.maximum.reduceat(orbit.distances, starts).tolist()))


class SpherePacking(namedtuple("SpherePacking", "spheres")):
    """Disjoint closed Cygan balls on the Heisenberg boundary."""

    __slots__ = ()

    def __new__(cls, spheres):
        items = []
        for center, radius in spheres:
            if not isinstance(center, hb.HeisPoint):
                center = hb.HeisPoint(*center)
            radius = float(radius)
            if radius <= 0:
                raise InvalidPackingError("radii must be positive")
            items.append((center, radius))
        return super().__new__(cls, tuple(items))

    # _replace builds through _make, so it validates as well
    _make = classmethod(lambda cls, fields: cls(*fields))


class PingPongCertificate(NamedTuple):
    """Ping-pong bound for the inversions of a disjoint sphere packing.

    pairs_checked counts the ordered pairs (i, j), i != j, of balls, and
    min_margin is the least lower bound, over those pairs, on r_i minus the
    Cygan distance from c_i to the image of ball j under inversion i.  It
    is inf for a single ball.
    """

    pairs_checked: int
    min_margin: float


def sphere_inversion(center, radius):
    """Inversion in the Cygan sphere S(center, radius) as an Isometry."""
    t = hb.embed_translation(center)
    d = hb.embed_dilation(radius, n=center.n)
    i0 = hb.inversion_matrix(center.n)
    return t @ d @ i0 @ d.inverse() @ t.inverse()


def packing_inversion_group(packing):
    """Inversion generators for a sphere packing, with a ping-pong certificate.

    One involutive generator per sphere.  The closed balls must be pairwise
    disjoint.  Inversion in S(c, r) satisfies d(I(p), c) d(p, c) = r^2 for
    the Cygan distance (Koranyi-Reimann 1985).  On ball j the triangle
    inequality gives d(p, c_i) >= d(c_i, c_j) - r_j, so inversion i maps
    all of ball j into ball i with a margin of at least
    r_i - r_i^2 / (d(c_i, c_j) - r_j).  The certificate's min_margin is the
    least such bound over ordered pairs.  It is positive for every disjoint
    packing, and ping-pong then makes the group discrete and the free
    product of the inversions.
    """
    spheres = packing.spheres
    if not spheres:
        raise InvalidPackingError("empty packing")
    dist = {}
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            (ci, ri), (cj, rj) = spheres[i], spheres[j]
            dist[i, j] = dist[j, i] = hb.cygan_dist(ci, cj)
            if dist[i, j] <= ri + rj:
                raise InvalidPackingError(
                    f"balls {i} and {j} are not disjoint"
                )

    labels = "123456789"
    if len(spheres) > len(labels):
        raise InvalidPackingError("too many spheres for single-symbol labels")
    gens = GroupGens(
        [(labels[i], sphere_inversion(c, r)) for i, (c, r) in enumerate(spheres)],
        involutive=labels[: len(spheres)],
    )
    margins = [ri - ri**2 / (dist[i, j] - rj)
               for i, (_, ri) in enumerate(spheres)
               for j, (_, rj) in enumerate(spheres) if i != j]
    return gens, PingPongCertificate(
        pairs_checked=len(margins),
        min_margin=float(min(margins, default=np.inf)),
    )


def identity_word_probe(gens, max_len=8, tol=1e-6, budget=DEFAULT_BUDGET):
    """Scan nonempty reduced words for hidden relations.

    Returns (passed, min_gap): the smallest projective gap to the identity
    over all reduced words of length <= max_len, without element dedup, and
    whether it stays above tol.
    """
    levels, _ = element_ball(gens, max_len, budget, dedup=False)
    gaps = [core.identity_gap(stack) for _, stack in levels[1:]]
    min_gap = np.fmin.reduce(np.concatenate(gaps + [[np.inf]]))  # skips NaN
    return bool(min_gap > tol), float(min_gap)


def limit_set_sample(gens, depth, seeds, budget=DEFAULT_BUDGET):
    """Boundary images of the seeds under all words of length == depth.

    Long words push interior or boundary seeds toward the limit set; the
    images are reported in Heisenberg coordinates (the single point at
    infinity, if hit exactly, is dropped).  Deterministic for fixed input.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    if not len(seeds):
        raise ParameterError("need at least one seed")
    for seed in seeds:
        gens.check_dim(seed, "seed")
    levels, _ = element_ball(gens, depth, budget)
    if depth >= len(levels):
        raise DegenerateInputError("no reduced words at the requested depth")
    _, stack = levels[depth]
    flat = stack.reshape(-1, gens.dim)  # one matrix-vector product per seed
    coords = [hb._lift_coords((flat @ seed.lift).reshape(len(stack), -1), 1e-9)
              for seed in seeds]
    return HeisCloud(np.concatenate([xi for _, xi, _, _ in coords]),
                     np.concatenate([v for _, _, v, _ in coords]))


class BoxDimFit(NamedTuple):
    """Least-squares box-counting fit: slope, max log-residual, raw counts."""

    slope: float
    residual: float
    counts: tuple


def _distinct_rows(cells):
    """The number of distinct rows of a nonempty 2-D integer array."""
    s = cells[np.lexsort(cells.T)]
    return 1 + int(np.count_nonzero(np.any(s[1:] != s[:-1], axis=1)))


def boxdim_estimate(cloud, scales):
    """Box-counting dimension of a HeisCloud in the Cygan metric.

    Cells are anisotropic to match the metric scaling: size eps in each
    real coordinate of xi and eps^2 in v.  Returns the least-squares slope
    of log N(eps) against log(1/eps).
    """
    xi, v = cloud.xi, cloud.v
    if len(v) < 1000:
        raise ParameterError("need at least 1000 points")
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if not np.all((scales > 0.0) & (scales < np.inf)):
        raise ParameterError("scales must be finite and positive")
    if len(scales) < 4 or scales[0] / scales[-1] < 10.0:
        raise ParameterError("need >= 4 scales spanning at least a decade")

    coords = np.column_stack([xi.real, xi.imag, v[:, None]])
    spread = coords.max(axis=0) - coords.min(axis=0)
    if float(np.max(spread)) <= 1e-12:
        raise DegenerateInputError("all points coincide")

    counts = []
    for eps in scales:
        cell = np.floor(coords / ([eps] * (coords.shape[1] - 1) + [eps**2]))
        counts.append(_distinct_rows(cell.astype(np.int64)))
    logs = np.log(np.asarray(counts, dtype=float))
    x = np.log(1.0 / scales)
    slope, intercept = np.polyfit(x, logs, 1)
    residual = float(np.max(np.abs(slope * x + intercept - logs)))
    return BoxDimFit(slope=float(slope), residual=residual, counts=tuple(counts))
