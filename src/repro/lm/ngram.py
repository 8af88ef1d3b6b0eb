"""Character n-gram language model with interpolated Kneser-Ney smoothing.

BAYWATCH trains a 3-gram model over popular domain names and scores each
candidate destination: algorithmically generated (DGA) names combine
characters that rarely co-occur in human-chosen names and receive very
low log-probabilities (paper Section V-C; Kneser-Ney smoothing is used
for previously unseen n-grams, footnote 3).

The model is order-recursive interpolated Kneser-Ney:

``P(c | h) = max(count(hc) - D, 0) / count(h.)
           + D * distinct(h.) / count(h.) * P(c | h')``

where ``h'`` drops the oldest history character; the unigram base case
uses continuation counts, falling back to a uniform distribution over
the alphabet for characters never seen at all.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, Tuple

from repro.utils.validation import require, require_in_range

_START = "\x02"
_END = "\x03"
_MIN_PROB = 1e-12


class NgramLanguageModel:
    """An order-``n`` character language model over short strings."""

    def __init__(self, order: int = 3, discount: float = 0.75) -> None:
        require(order >= 2, "order must be at least 2")
        require_in_range(discount, "discount", 0.0, 1.0, inclusive=False)
        self.order = order
        self.discount = discount
        # counts[k][(history, char)] and totals[k][history] for k-grams,
        # k = 1..order (history length k-1).
        self._counts: Tuple[Dict[Tuple[str, str], int], ...] = tuple(
            defaultdict(int) for _ in range(order)
        )
        self._totals: Tuple[Dict[str, int], ...] = tuple(
            defaultdict(int) for _ in range(order)
        )
        self._distinct: Tuple[Dict[str, int], ...] = tuple(
            defaultdict(int) for _ in range(order)
        )
        # Continuation counts for the unigram base case.
        self._continuation: Dict[str, set] = defaultdict(set)
        self._alphabet: set = set()
        self._trained = False

    # -- training ------------------------------------------------------------

    def fit(self, corpus: Iterable[str]) -> "NgramLanguageModel":
        """Count n-grams over the corpus; returns self for chaining.

        Each padded text's ``order``-length windows are counted once.
        The ``k``-gram ending at a position is the last ``k`` characters
        of the window ending there, so every order's counts, totals and
        distinct-continuation counts, the unigram continuation sets and
        the alphabet follow from the distinct windows and their counts.
        Repeated calls accumulate: ``fit(a).fit(b)`` equals
        ``fit(a + b)``.
        """
        n = self.order
        padding = _START * (n - 1)
        padded = [padding + text.lower() + _END for text in corpus if text]
        require(
            len(padded) > 0,
            "corpus must contain at least one non-empty string",
        )
        windows = Counter(
            text[i : i + n]
            for text in padded
            for i in range(len(text) - n + 1)
        )
        for window, count in windows.items():
            char = window[-1]
            for k in range(1, n + 1):
                history = window[n - k : -1]
                key = (history, char)
                level = self._counts[k - 1]
                if key not in level:
                    self._distinct[k - 1][history] += 1
                level[key] += count
                self._totals[k - 1][history] += count
            self._continuation[char].add(window[-2])
        # Every character of a padded text lies in one of its windows.
        self._alphabet.update("".join(windows))
        self._trained = True
        return self

    # -- scoring ---------------------------------------------------------------

    def probability(self, char: str, history: str) -> float:
        """Smoothed ``P(char | history)`` (history may be any length)."""
        require(self._trained, "model must be fitted before scoring")
        history = history[-(self.order - 1):] if self.order > 1 else ""
        return max(self._kn_probability(char, history), _MIN_PROB)

    def _kn_probability(self, char: str, history: str) -> float:
        k = len(history) + 1
        if k == 1:
            # Continuation-count unigram with uniform fallback.
            total_continuations = sum(
                len(preds) for preds in self._continuation.values()
            )
            if total_continuations == 0:
                return 1.0 / max(len(self._alphabet), 1)
            cont = len(self._continuation.get(char, ()))
            uniform = 1.0 / max(len(self._alphabet) + 1, 1)
            # Reserve a sliver of mass for truly unseen characters.
            lam = 0.1
            return (1 - lam) * cont / total_continuations + lam * uniform
        level = k - 1
        total = self._totals[level].get(history, 0)
        backoff = self._kn_probability(char, history[1:])
        if total == 0:
            return backoff
        count = self._counts[level].get((history, char), 0)
        distinct = self._distinct[level].get(history, 0)
        discounted = max(count - self.discount, 0.0) / total
        lam = self.discount * distinct / total
        return discounted + lam * backoff

    def log_score(self, text: str) -> float:
        """``log10 P(text)`` under the model (lower = more anomalous)."""
        require(self._trained, "model must be fitted before scoring")
        require(len(text) > 0, "text must not be empty")
        padded = _START * (self.order - 1) + text.lower() + _END
        score = 0.0
        for pos in range(self.order - 1, len(padded)):
            history = padded[pos - self.order + 1 : pos]
            score += math.log10(self.probability(padded[pos], history))
        return score

    def normalized_score(self, text: str) -> float:
        """Length-normalized log score (log10 probability per transition).

        Long strings accumulate large negative totals regardless of how
        natural they look; normalizing by the number of scored
        transitions makes strings of different lengths comparable.
        """
        return self.log_score(text) / (len(text) + 1)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct characters observed during training."""
        return len(self._alphabet)
