"""Frobenius duality: reshuffling between operators and invariant vectors.

A linear map T in M_{N^l x N^k} corresponds to the vector xi on the word
l + conjugate(k) via xi[i_1..i_l, j_k..j_1] = T[i, j]; the column index is
reversed.  Both directions are exact index permutations and invert each
other on the nose.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .exact import DomainError, ExactMatrix, flat_index, multi_indices
from .partitions import check_word, conjugate_word


@cache
def frobenius_map(n: int, k: int, l: int) -> tuple:
    """The reshuffle on flat indices: r N^k + c -> r N^k + rev[c], where
    rev[flat(j_1..j_k)] = flat(j_k..j_1), for rows r < N^l.  Reversal is an
    involution, so the map is its own inverse: xi[map[f]] = T[f] and
    T[f] = xi[map[f]] for every flat f."""
    cols = n**k
    rev = [flat_index(tuple(reversed(idx)), n) for idx in multi_indices(n, k)]
    return tuple(base + c for base in range(0, n**l * cols, cols) for c in rev)


def frobenius_to_fix(T: ExactMatrix, k_word: str, l_word: str, n: int):
    """Map an operator to its invariant vector; returns (N^(l+k) x 1
    column, word)."""
    check_word(k_word)
    check_word(l_word)
    k, l = len(k_word), len(l_word)
    if T.rows != n**l or T.cols != n**k:
        raise DomainError(
            f"shape mismatch: expected {n**l}x{n**k} for words "
            f"({k_word!r}, {l_word!r}), got {T.rows}x{T.cols}"
        )
    entries = T.entries
    fix = [entries[f] for f in frobenius_map(n, k, l)]
    return ExactMatrix(len(fix), 1, fix), l_word + conjugate_word(k_word)


def frobenius_to_hom(xi: ExactMatrix, k_word: str, l_word: str, n: int) -> ExactMatrix:
    """Inverse of frobenius_to_fix; exact roundtrip in both directions."""
    check_word(k_word)
    check_word(l_word)
    k, l = len(k_word), len(l_word)
    if (xi.rows, xi.cols) != (n ** (l + k), 1):
        raise DomainError(
            f"shape mismatch: expected a {n ** (l + k)}x1 column for words "
            f"({k_word!r}, {l_word!r}), got {xi.rows}x{xi.cols}"
        )
    moved = itemgetter(*frobenius_map(n, k, l))(xi.entries)  # a bare entry for N^(l+k) = 1
    return ExactMatrix(n**l, n**k, moved if n ** (l + k) > 1 else (moved,))
