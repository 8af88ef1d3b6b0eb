"""Unit tests for the Kneser-Ney n-gram language model."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lm.ngram import NgramLanguageModel
from tests.lm.oracle import reference_fit

#: Mixed case, non-ASCII (with ``"İ".lower()`` two characters long) and
#: the model's own padding characters.
_TEXTS = st.text(alphabet="abAB.-0éÉİßΣ\x02\x03", max_size=6)
_CORPORA = st.lists(_TEXTS, max_size=8)


@pytest.fixture(scope="module")
def english_model():
    corpus = [
        "google", "facebook", "youtube", "amazon", "network", "internet",
        "computer", "download", "software", "security", "service", "cloud",
        "market", "social", "search", "update", "mobile", "online", "digital",
        "system", "account", "message", "player", "stream", "center",
    ] * 4
    return NgramLanguageModel(order=3).fit(corpus)


class TestTraining:
    def test_fit_returns_self(self):
        model = NgramLanguageModel()
        assert model.fit(["abc"]) is model

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            NgramLanguageModel().fit([])

    def test_empty_strings_skipped(self):
        model = NgramLanguageModel().fit(["", "abc", ""])
        assert model.vocabulary_size > 0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            NgramLanguageModel(order=1)

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            NgramLanguageModel(discount=1.0)


class TestProbabilities:
    def test_probabilities_are_valid(self, english_model):
        for char in "abcxyz":
            p = english_model.probability(char, "oo")
            assert 0.0 < p <= 1.0

    def test_seen_transition_beats_unseen(self, english_model):
        # "oog" occurs (google); "oqz" never does.
        assert english_model.probability("g", "oo") > english_model.probability(
            "z", "oq"
        )

    def test_unseen_character_gets_smoothed_mass(self, english_model):
        assert english_model.probability("q", "zz") > 0.0

    def test_distribution_sums_to_at_most_one(self, english_model):
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        total = sum(english_model.probability(c, "co") for c in alphabet)
        assert total <= 1.0 + 1e-6

    def test_requires_fit(self):
        with pytest.raises(ValueError):
            NgramLanguageModel().probability("a", "bc")


class TestScoring:
    def test_natural_scores_higher_than_random(self, english_model):
        natural = english_model.log_score("computer")
        random_text = english_model.log_score("xqzjwkvp")
        assert natural > random_text + 5

    def test_score_decreases_with_length(self, english_model):
        short = english_model.log_score("net")
        long = english_model.log_score("networknetworknetwork")
        assert long < short

    def test_normalized_score_is_length_stable(self, english_model):
        short = english_model.normalized_score("network")
        long = english_model.normalized_score("networknetwork")
        assert abs(short - long) < 1.0

    def test_empty_text_rejected(self, english_model):
        with pytest.raises(ValueError):
            english_model.log_score("")

    def test_case_insensitive(self, english_model):
        assert english_model.log_score("GOOGLE") == english_model.log_score("google")

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
    def test_scores_are_finite_and_negative(self, english_model, text):
        score = english_model.log_score(text)
        assert math.isfinite(score)
        assert score < 0


def _fitted(fit, order, *corpora):
    """A model of ``order`` after ``fit`` over each corpus in turn, or the
    ``ValueError`` the first all-empty corpus raises."""
    model = NgramLanguageModel(order=order)
    try:
        for corpus in corpora:
            fit(model, corpus)
    except ValueError as exc:
        return exc
    return model


def _state(model):
    return (
        model._counts,
        model._totals,
        model._distinct,
        model._continuation,
        model._alphabet,
        model._trained,
    )


class TestFitMatchesOracle:
    """``fit`` counts windows once; the per-position loop is the oracle."""

    @staticmethod
    def _assert_same(model, reference, probes):
        if isinstance(reference, ValueError):
            assert isinstance(model, ValueError)
            return
        assert _state(model) == _state(reference)
        for text in probes:
            assert model.log_score(text) == reference.log_score(text)

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(min_value=2, max_value=4),
        first=_CORPORA,
        second=_CORPORA,
    )
    @example(order=3, first=["", "", ""], second=["a"])
    @example(order=4, first=["a", "ab", ""], second=["b"])
    @example(order=3, first=["Ab", "ab", "AB", "ab"], second=["ab", "ba"])
    @example(order=2, first=["İß", "Σσ"], second=["ΣΣ", "é"])
    @example(order=3, first=["abab"], second=["abab", "ba"])
    def test_fit_equals_oracle(self, order, first, second):
        probes = [t for t in first + second if t] + ["abΣ", "\x02", "zq"]
        fit = NgramLanguageModel.fit
        for corpora in ((first,), (first, second), (first + second,)):
            self._assert_same(
                _fitted(fit, order, *corpora),
                _fitted(reference_fit, order, *corpora),
                probes,
            )
        # Repeated fits accumulate: fit(a).fit(b) holds what fit(a + b)
        # holds, also in the distinct counts of keys both corpora have.
        chained = _fitted(fit, order, first, second)
        joined = _fitted(fit, order, first + second)
        if not isinstance(chained, ValueError):
            assert _state(chained) == _state(joined)

    def test_bundled_corpus(self):
        from repro.lm.corpus import training_corpus

        corpus = training_corpus()
        model = NgramLanguageModel().fit(corpus)
        reference = reference_fit(NgramLanguageModel(), corpus)
        assert _state(model) == _state(reference)
