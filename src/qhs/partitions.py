"""Colored words, set partitions, and the six partition categories.

Words are strings over 'o' (white, exponent 1) and 'b' (black, exponent *).
Partitions live on 0-based points internally; the textual literal (blocks of
1-based digits separated by '|', e.g. ``12|34``) is the CLI/test interface.
Enumeration is in restricted-growth-string lexicographic order, which fixes
every basis ordering downstream.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product
from math import comb, factorial, prod

from .exact import DomainError, Echelon, ExactMatrix, Frozen, ParseError, ResourceGuardError

WHITE = "o"
BLACK = "b"
COLORS = WHITE + BLACK
_FLIP = str.maketrans(COLORS, BLACK + WHITE)

FAMILIES = ("S", "O", "U", "S+", "O+", "U+")
DENSE_GUARD = 1 << 20  # entries of one dense output: a partition vector or a projection
# u = ubar for these, so colors are invisible to the category.
SELF_CONJUGATE_FAMILIES = frozenset({"S", "O", "S+", "O+"})


def check_word(word: str) -> str:
    # stripping the colors from both ends leaves text iff some letter is not a color
    if word.strip(COLORS):
        raise ParseError(f"word must be over '{WHITE}'/'{BLACK}', got {word!r}")
    return word


def colored_words(max_len: int) -> list:
    """Every word of length 0..max_len, by length, then in product order."""
    return [
        "".join(w) for length in range(max_len + 1) for w in product(COLORS, repeat=length)
    ]


def conjugate_word(word: str) -> str:
    """Reverse the word and flip every color."""
    return word[::-1].translate(_FLIP)


class CategorySpec(Frozen):
    """One of the six categories S, O, U, S+, O+, U+ at a fixed size N."""

    def __init__(self, family: str, N: int):
        if family not in FAMILIES:
            raise ParseError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if N < 1:
            raise ParseError(f"N must be positive, got {N}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "N", N)

    def _key(self):
        return self.family, self.N

    def __hash__(self):  # _key inlined, so a hash is one call
        return hash((self.family, self.N))

    @property
    def self_conjugate(self) -> bool:
        return self.family in SELF_CONJUGATE_FAMILIES

    def __str__(self):
        return f"{self.family}({self.N})"

    @classmethod
    def parse(cls, text: str) -> "CategorySpec":
        text = text.strip()
        if not (text.endswith(")") and "(" in text):
            raise ParseError(f"bad category spec {text!r}; expected e.g. S(4) or O+(3)")
        family, arg = text[:-1].split("(", 1)
        try:
            n = int(arg)
        except ValueError as exc:
            raise ParseError(f"bad size in category spec {text!r}") from exc
        return cls(family, n)


class SetPartition(Frozen):
    """Partition of {0..k-1}, held as its restricted growth string:
    block_index[p] is the label of the block of point p, as bytes, the
    blocks labelled in order of their least points.  That string is also
    the kernel name of kernel_position."""

    def __init__(self, block_index: bytes):
        block_index = bytes(block_index)
        top = -1
        for label in block_index:
            if label > top:
                if label != top + 1:
                    raise ValueError("not a restricted growth string")
                top = label
        object.__setattr__(self, "block_index", block_index)

    def _key(self):
        return (self.block_index,)

    def __hash__(self):  # bytes caches its own hash
        return hash(self.block_index)

    @classmethod
    def from_blocks(cls, point_count: int, blocks) -> "SetPartition":
        """The partition with these blocks, labelled by their least points."""
        blocks = list(blocks)
        if sorted(p for block in blocks for p in block) != list(range(point_count)):
            raise ValueError("blocks do not partition the point set")
        owner = [0] * point_count
        for label, block in enumerate(blocks):
            for p in block:
                owner[p] = label
        return cls(kernel_position.__wrapped__(owner))

    @property
    def point_count(self) -> int:
        return len(self.block_index)

    @cached_property
    def block_count(self) -> int:
        return max(self.block_index, default=-1) + 1

    @cached_property
    def blocks(self) -> tuple:
        """The blocks in label order, each sorted."""
        out = [[] for _ in range(self.block_count)]
        for p, label in enumerate(self.block_index):
            out[label].append(p)
        return tuple(map(tuple, out))

    def join_block_count(self, other: "SetPartition") -> int:
        """The block count of the finest partition coarser than both: a
        union-find over the blocks of self, joined by other's."""
        bi = self.block_index
        if len(other.block_index) != len(bi):
            raise DomainError("point count mismatch in join")
        parent = list(range(self.block_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for block in other.blocks:
            root = find(bi[block[0]])
            for p in block[1:]:
                parent[find(bi[p])] = root
        return len({find(b) for b in bi})

    def __str__(self):
        return format_partition(self)


def format_partition(part: SetPartition) -> str:
    if part.point_count > 9:
        raise ValueError("digit literal only defined for at most 9 points")
    return "|".join("".join(str(p + 1) for p in block) for block in part.blocks)


def parse_partition(text: str) -> SetPartition:
    text = text.strip()
    if not text:
        return SetPartition(b"")
    blocks = []
    for chunk in text.split("|"):
        if not chunk.isdigit():
            raise ParseError(f"bad partition literal {text!r}")
        blocks.append([int(ch) - 1 for ch in chunk])
    points = sorted(p for b in blocks for p in b)
    if points != list(range(len(points))):
        raise ParseError(f"partition literal {text!r} does not cover 1..k")
    return SetPartition.from_blocks(len(points), blocks)


def bell(k: int) -> int:
    """The number of partitions of k points, by the Bell triangle."""
    row = [1]
    for _ in range(k):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


@cache
def all_partitions(k: int) -> tuple:
    """All partitions of k points, restricted-growth-string lexicographic:
    the S case of _category, cached here alone."""
    check_dense(bell(k), f"the list of partitions of {k} points")
    return _category.__wrapped__(WHITE * k, False, False, False)


@cache
def _category(word: str, noncrossing: bool, pairs: bool, colored: bool) -> tuple:
    """The partitions of the word's points in one category, built point by
    point in restricted-growth order: each point joins, in label order, a
    block that can still take it, or it opens the next label.  Under
    noncrossing, joining a block closes every block opened after it.  Under
    pairs, a block takes exactly one point after its opener, colored, one
    of the other color; so under noncrossing only the last open block may
    close, and a block opens only while every open block can still find a
    closer.  S is (False, False, False) and S+ (True, False, False)."""
    k = len(word)
    if pairs and (k % 2 or (colored and 2 * word.count(WHITE) != k)):
        return ()
    out = []
    labels = []  # per point so far, the label of its block

    def extend(p, open_, top):  # open_: the labels that can still take a point, ascending
        if p == k:
            out.append(_shared(bytes(labels)))
            return
        for i in range(max(len(open_) - 1, 0) if pairs and noncrossing else 0, len(open_)):
            label = open_[i]
            if colored and word[labels.index(label)] == word[p]:
                continue
            kept = open_[:i] if pairs else open_[: i + 1]
            labels.append(label)
            extend(p + 1, kept if noncrossing else kept + open_[i + 1 :], top)
            labels.pop()
        if not pairs or len(open_) + 2 <= k - p:
            labels.append(top)
            extend(p + 1, open_ + (top,), top + 1)
            labels.pop()

    extend(0, (), 0)
    return tuple(out)


@cache
def _shared(block_index: bytes) -> SetPartition:
    """One shared object per string, in every category: the caches keyed by
    a partition then match it by identity."""
    return SetPartition(block_index)


def catalan(n: int) -> int:
    """The noncrossing partitions of n points, and pairings of 2n."""
    return comb(2 * n, n) // (n + 1)


@cache
def _noncrossing_matched(word: str) -> int:
    """The noncrossing pairings of the word joining opposite colors, by the
    partner m of its first point, which splits the rest in two."""
    if not word:
        return 1
    return sum(
        _noncrossing_matched(word[1:m]) * _noncrossing_matched(word[m + 1 :])
        for m in range(1, len(word), 2)
        if word[m] != word[0]
    )


def category_size(spec: CategorySpec, word: str) -> int:
    """The number of the category's partitions of the word, counted without
    listing them: Bell(k) for S, Catalan(k) for S+, (k-1)!! for O,
    Catalan(k/2) for O+, and on a word with as many of each color, (k/2)!
    for U and the recursion above for U+."""
    k = len(word)
    family = spec.family
    if family == "S":
        return bell(k)
    if family == "S+":
        return catalan(k)
    if k % 2 or (family[0] == "U" and 2 * word.count(WHITE) != k):
        return 0
    if family == "O":
        return prod(range(k - 1, 0, -2))
    if family == "O+":
        return catalan(k // 2)
    return factorial(k // 2) if family == "U" else _noncrossing_matched(word)


def enumerate_category(spec: CategorySpec, word: str) -> list:
    """The category's partitions for a colored word, in canonical order:
    all partitions (S), the noncrossing ones (S+), and the pairings (O),
    joining opposite colors (U), and noncrossing (O+, U+).  An odd-length
    word in a pairing family yields the empty list."""
    check_word(word)
    family = spec.family
    if family == "S":
        return list(all_partitions(len(word)))
    colored = family[0] == "U"
    # colors are invisible to S+, O and O+: one cached list per length
    return list(
        _category(word if colored else WHITE * len(word), family.endswith("+"), family != "S+", colored)
    )


@cache
def kernel_position(idx: tuple) -> bytes:
    """The kernel of one index (its classes of equal entries), named by its
    restricted growth string: each value replaced by the order of its first
    appearance, as bytes, which is the kernel's block_index.  Every kernel
    of qhs is named so.  O(k); the memo holds only the indices queried."""
    first = {}
    rgs = [first.setdefault(v, len(first)) for v in idx]
    if len(first) > 256:  # a byte each
        raise ResourceGuardError(f"an index with {len(first)} distinct values has no kernel name")
    return bytes(rgs)


def check_dense(entries: int, what: str) -> None:
    """Refuse a dense output of more than DENSE_GUARD entries before any of
    it is allocated."""
    if entries > DENSE_GUARD:
        raise ResourceGuardError(
            f"{what} has {entries} entries, exceeding the guard DENSE_GUARD = {DENSE_GUARD}"
        )


@cache
def partition_support(part: SetPartition, n: int) -> tuple:
    """The N^|part| flat indices constant on each block, unordered: one value
    per block, times its weight sum_p N^(k-1-p); a check and a T build share it."""
    flats = [0]
    for block in part.blocks:
        weight = sum(n ** (part.point_count - 1 - p) for p in block)
        flats = [f + o for f in flats for o in range(0, n * weight, weight)]
    return tuple(flats)


@cache
def kernel_ids(n: int, k: int) -> tuple:
    """kernel_ids[flat index] is kernel_position of that index, for every
    index at once, one bytes object per kernel.  The support of a partition
    holds the indices whose kernel it refines, and in all_partitions(k) a
    kernel comes before its refinements; so writing the support (uncached:
    this is the cache) of each partition with at most n blocks, last to
    first, leaves every index at its own kernel."""
    out = [b""] * (n**k)
    for part in reversed(all_partitions(k)):
        if part.block_count <= n:
            name = part.block_index
            for f in partition_support.__wrapped__(part, n):
                out[f] = name
    return tuple(out)


@cache
def coarsenings(part: SetPartition) -> tuple:
    """The kernels of the partitions that part refines, one per partition of
    its blocks, in that order; reads only all_partitions(part.block_count)."""
    bi = part.block_index
    return tuple(
        bytes(map(merge.block_index.__getitem__, bi)) for merge in all_partitions(part.block_count)
    )


def partition_vector(part: SetPartition, n: int) -> ExactMatrix:
    """The 0/1 column over N^k supported on multi-indices constant on each
    block, that is on the indices whose kernel part refines."""
    k = part.point_count
    check_dense(n**k, f"partition vector over N^k = {n}^{k}")
    entries = [0] * n**k
    for f in partition_support(part, n):
        entries[f] = 1
    return ExactMatrix(n**k, 1, entries)


class FixBasis(Frozen):
    """Partitions spanning an invariant-vector space through their vectors,
    with a selected linearly independent sublist (same span)."""

    def __init__(self, members: tuple, independent: tuple):
        object.__setattr__(self, "members", members)  # (SetPartition, ...)
        object.__setattr__(self, "independent", independent)  # indices into members

    def _key(self):
        return self.members, self.independent

    @cached_property
    def selected(self) -> tuple:
        return tuple(self.members[i] for i in self.independent)

    @property
    def dimension(self) -> int:
        return len(self.independent)


def _zeta_row(part: SetPartition, n: int, columns: dict) -> list:
    """1 at each kernel with at most n blocks that the partition refines, over
    the kernels numbered in columns; a new one gets the next column."""
    above = {columns.setdefault(c, len(columns)) for c in coarsenings(part) if max(c) < n}
    return [int(c in above) for c in range(len(columns))]


def select_basis(members, n: int) -> FixBasis:
    """Scan the members, in canonical order, keeping a partition iff its
    zeta row raises the rank.  kernel_ids maps onto exactly the kernels with
    at most n blocks, with disjoint nonempty index classes, so the partition
    vectors (the rows read through kernel_ids) have the same ranks.  Rows
    run over the kernels that occur, in order of first appearance (no rank
    depends on the column order or on a column of zeros), so no row is
    shorter than an earlier one, and Echelon reads those as 0 past their end.

    In canonical order every coarsening of a partition comes before it, so
    a member with at most n blocks has a 1 in its own column, where every
    earlier row is 0: it is kept without elimination.  The Echelon of the
    kept rows is built only once a member with more than n blocks arrives;
    span holds the rows of keep[:len(span.rows)].  The selection's Gram
    matrix may reach len(members)**2 entries, which fix_basis checks first."""
    span = Echelon()
    columns = {}
    keep = []
    for t, part in enumerate(members):
        if part.block_count > n:
            for s in keep[len(span.rows):]:
                span.add(_zeta_row(members[s], n, columns))
            if not span.add(_zeta_row(part, n, columns)):
                continue
        keep.append(t)
    return FixBasis(tuple(members), tuple(keep))


def fix_basis(spec: CategorySpec, word: str) -> FixBasis:
    """Count the category, refuse it past the guard on its Gram matrix,
    then enumerate it and select a basis of its partitions."""
    count = category_size(spec, word)
    check_dense(count**2, f"the Gram matrix of {count} candidate partitions")
    return select_basis(enumerate_category(spec, word), spec.N)
