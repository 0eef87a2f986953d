"""Concordance pair counting.

``ctd_pair_stats`` sums weighted concordance over comparable pairs without
enumerating them: it sorts records by time and counts score ranks over
time-ordered prefixes the way a Fenwick tree does, in O(n log^2 n) time and
O(n) memory.
"""

import numpy as np

# There is no compiled kernel path; the flag stays for callers that record it.
USE_NUMBA = False


def ctd_pair_stats(times, eligible, scores, weights):
    """Weighted concordance statistics over comparable pairs.

    A pair (i, j) is comparable when ``eligible[i]`` (record i has the event
    of interest no later than the horizon) and ``times[i] < times[j]``. Each
    pair carries record i's weight. Concordant means record i, who failed
    earlier, has the strictly lower predicted survival; equal predictions
    count one half.

    Records are put in decreasing time order (stable, so the result is
    deterministic). Record i's partners are then the records before the first
    one sharing its time, so tied times are never comparable, and they split
    by score rank into greater, equal and lower.

    Returns:
        (concordant_weight, total_weight, pair_count)
    """
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(-times, kind="stable")
    neg_times = -times[order]  # ascending
    later = np.searchsorted(neg_times, neg_times)  # records with a strictly later time
    _, ranks = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True)
    ranks = ranks[order]
    chosen = np.asarray(eligible, dtype=np.bool_)[order]
    later, rank = later[chosen], ranks[chosen]
    weight = np.asarray(weights, dtype=np.float64)[order][chosen]
    at_most, below = _prefix_rank_counts(ranks, later, rank)
    num = np.sum(weight * ((later - at_most) + 0.5 * (at_most - below)))
    den = np.sum(weight * later)
    return float(num), float(den), int(later.sum())


def _prefix_rank_counts(ranks, stops, query_ranks):
    """For each query q, count the entries of ``ranks[:stops[q]]`` that are
    at most ``query_ranks[q]`` and those below it.

    As in a Fenwick tree (Fenwick 1994), the prefix [0, stop) is the union of
    one aligned block of 2**level entries per set bit of ``stop``. Sorting
    every block of one level by rank answers that level's part of every query
    with two binary searches, so all queries take O(n log^2 n) time and O(n)
    memory.
    """
    span = int(ranks.max()) + 1 if ranks.size else 1
    positions = np.arange(ranks.size, dtype=np.int64)
    at_most = np.zeros(stops.size, dtype=np.int64)
    below = np.zeros(stops.size, dtype=np.int64)
    for level in range(ranks.size.bit_length()):
        keys = np.sort((positions >> level) * span + ranks)  # block-major, then rank
        hit = (stops >> level) & 1 == 1
        block_start = ((stops[hit] >> (level + 1)) << 1) * span
        first = np.searchsorted(keys, block_start)
        at_most[hit] += np.searchsorted(keys, block_start + query_ranks[hit], side="right") - first
        below[hit] += np.searchsorted(keys, block_start + query_ranks[hit], side="left") - first
    return at_most, below
