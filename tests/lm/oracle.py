"""Position-by-position counting: the oracle ``NgramLanguageModel.fit`` is
checked against."""

from repro.lm.ngram import _END, _START
from repro.utils.validation import require


def reference_fit(model, corpus):
    """What ``model.fit(corpus)`` must leave in ``model``.

    Walks every padded text one position at a time and, for each order
    ``k``, counts the ``k``-gram ending there, adds its history's total
    and, the first time the level sees the ``k``-gram, its history's
    distinct-continuation count.  The unigram continuation set of each
    character gathers the characters seen just before it.  Returns
    ``model``, like ``fit``.
    """
    n_items = 0
    for text in corpus:
        if not text:
            continue
        n_items += 1
        padded = _START * (model.order - 1) + text.lower() + _END
        model._alphabet.update(padded)
        for pos in range(model.order - 1, len(padded)):
            char = padded[pos]
            for k in range(1, model.order + 1):
                history = padded[pos - k + 1 : pos]
                key = (history, char)
                level = model._counts[k - 1]
                if key not in level:
                    model._distinct[k - 1][history] += 1
                level[key] += 1
                model._totals[k - 1][history] += 1
            if pos >= 1:
                model._continuation[char].add(padded[pos - 1])
    require(n_items > 0, "corpus must contain at least one non-empty string")
    model._trained = True
    return model
