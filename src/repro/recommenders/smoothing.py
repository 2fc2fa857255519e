"""Interpolated Kneser–Ney smoothing for move n-grams.

The paper smooths its Markov chain transition counts with Kneser–Ney
(via BerkeleyLM); this is a from-scratch implementation of the standard
interpolated estimator.  The highest order interpolates raw counts with
lower-order *continuation* probabilities — "how many distinct contexts
has this move followed?" — which predicts novel contexts far better than
raw frequency backoff.  The recursion bottoms out at a uniform
distribution over the vocabulary, so every move always has non-zero
probability.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from collections.abc import Hashable, Sequence

#: How many contexts' distributions one estimator remembers (least
#: recently used dropped first); Markov3 over nine moves has 820.
DISTRIBUTION_MEMO_CONTEXTS = 1024


class KneserNeyEstimator:
    """Interpolated Kneser–Ney over fixed-vocabulary symbol sequences.

    Parameters
    ----------
    order:
        N-gram order: contexts are ``order`` symbols long (the paper's
        "Markov3" is ``order=3``).
    vocabulary:
        The complete symbol set (the nine interface moves).
    discount:
        Absolute discount ``D`` in (0, 1).
    """

    def __init__(
        self,
        order: int,
        vocabulary: Sequence[Hashable],
        discount: float = 0.75,
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        self.order = order
        self.vocabulary = tuple(dict.fromkeys(vocabulary))
        self.discount = discount
        # _counts[k][context][symbol]: at the highest order these are raw
        # n-gram counts; at lower orders, continuation counts (number of
        # distinct one-symbol extensions to the left).
        self._counts: list[dict[tuple, Counter]] = [
            defaultdict(Counter) for _ in range(order + 1)
        ]
        self._fitted = False
        # The counts only change in fit(), so a context's distribution
        # is worked out once; bound per instance, dropped by fit().
        self._distribution = functools.lru_cache(
            maxsize=DISTRIBUTION_MEMO_CONTEXTS
        )(self._find_distribution)

    def fit(self, sequences: Sequence[Sequence[Hashable]]) -> "KneserNeyEstimator":
        """Count n-grams (and derive continuation counts) from sequences."""
        vocab = set(self.vocabulary)
        raw: list[dict[tuple, Counter]] = [
            defaultdict(Counter) for _ in range(self.order + 1)
        ]
        for sequence in sequences:
            symbols = list(sequence)
            unknown = set(symbols) - vocab
            if unknown:
                raise ValueError(f"symbols outside vocabulary: {sorted(map(str, unknown))}")
            for k in range(self.order + 1):
                # Count (context of length k) -> next symbol.
                for i in range(k, len(symbols)):
                    context = tuple(symbols[i - k : i])
                    raw[k][context][symbols[i]] += 1

        counts = [defaultdict(Counter) for _ in range(self.order + 1)]
        counts[self.order] = raw[self.order]
        # Continuation counts for each lower order k: how many distinct
        # symbols v extend (v + context) at order k+1 with count > 0.
        for k in range(self.order - 1, -1, -1):
            for context, successors in raw[k + 1].items():
                suffix = context[1:]
                for symbol in successors:
                    counts[k][suffix][symbol] += 1
        self._counts = counts
        self._fitted = True
        self._distribution.cache_clear()
        return self

    # ------------------------------------------------------------------
    # probabilities
    # ------------------------------------------------------------------
    def probability(self, symbol: Hashable, context: Sequence[Hashable]) -> float:
        """Smoothed ``P(symbol | context)``.

        Longer contexts are truncated to the estimator's order; shorter
        ones start the recursion at their own length.
        """
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")
        context = tuple(context)[-self.order :]
        return self._probability(symbol, context, len(context))

    def distribution(self, context: Sequence[Hashable]) -> dict[Hashable, float]:
        """Smoothed distribution over the whole vocabulary.

        Remembered per (truncated) context; every call returns its own
        ``dict``.
        """
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")
        return dict(self._distribution(tuple(context)[-self.order :]))

    def _find_distribution(self, context: tuple) -> dict[Hashable, float]:
        return {
            symbol: self._probability(symbol, context, len(context))
            for symbol in self.vocabulary
        }

    def _probability(self, symbol: Hashable, context: tuple, k: int) -> float:
        if k == 0:
            return self._base_probability(symbol)
        table = self._counts[k].get(context)
        lower = self._probability(symbol, context[1:], k - 1)
        if not table:
            return lower
        total = sum(table.values())
        distinct = len(table)
        discounted = max(table.get(symbol, 0) - self.discount, 0.0) / total
        interpolation = self.discount * distinct / total
        return discounted + interpolation * lower

    def _base_probability(self, symbol: Hashable) -> float:
        """Continuation-count unigram, interpolated with uniform."""
        table = self._counts[0].get((), Counter())
        uniform = 1.0 / len(self.vocabulary)
        total = sum(table.values())
        if total == 0:
            return uniform
        discounted = max(table.get(symbol, 0) - self.discount, 0.0) / total
        interpolation = self.discount * len(table) / total
        return discounted + interpolation * uniform
