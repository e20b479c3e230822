"""Reference case lists of the axiom sweeps, built whole.

The package streams its cases (``words.Cases``); the tests compare every
stream, tuple by tuple, with these lists.  ``word_tuples_with_total`` is the
list builder the order sweeps of ``check_bvinf`` used before they streamed.
"""

import itertools

from shufflebv.words import words_up_to


def word_product_list(space, max_len, repeat):
    """``itertools.product`` over ``words_up_to``, as a list."""
    return list(itertools.product(words_up_to(space, max_len), repeat=repeat))


def word_tuples_with_total(space, count, max_total):
    """All tuples of ``count`` nonempty basis words with total length <= max_total.

    Ordered lexicographically by the positions of the words in
    ``words_up_to``; built one tuple position at a time, which keeps that
    order.
    """
    if count > max_total:
        return []
    nonempty = [w for w in words_up_to(space, max(0, max_total - count + 1)) if w]
    level = [((), 0)]
    for remaining in range(count - 1, -1, -1):
        level = [
            (prefix + (w,), used + len(w))
            for prefix, used in level
            for w in nonempty
            if used + len(w) + remaining <= max_total
        ]
    return [prefix for prefix, _ in level]
