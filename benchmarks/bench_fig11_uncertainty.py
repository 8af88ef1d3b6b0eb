"""Fig. 11 — false negatives vs cases reviewed in uncertainty order.

The paper clears its 41 false negatives by reviewing candidate cases in
decreasing classifier uncertainty: after about 550 of 2352 reviews the
remaining false negatives drop below 10, far faster than random order.
We regenerate the curve on the synthetic corpus and check:

- the curve is monotone non-increasing,
- uncertainty order clears FNs using markedly fewer reviews than the
  worst case (reviewing everything),
- a random review order is slower at the same review budget.
"""

import numpy as np
import pytest

from benchmarks.common import ExperimentReport, ascii_series, check
from benchmarks.conftest import TRAIN_WINDOWS
from repro.analysis.investigate import Investigator
from repro.ml.metrics import false_negatives_vs_reviewed


def test_fig11_uncertainty_review(benchmark, case_corpus):
    per_window, labeler, _truths = case_corpus
    train_cases = [c for w in per_window[:TRAIN_WINDOWS] for c in w]
    eval_cases = [c for w in per_window[TRAIN_WINDOWS:] for c in w]

    investigator = Investigator(labeler, n_trees=200, seed=0)
    investigator.train(train_cases)
    result = investigator.classify(eval_cases)

    benchmark(lambda: false_negatives_vs_reviewed(
        result.labels, result.predictions, result.review_order
    ))

    total_fn = int(result.fn_curve[0])
    n_cases = len(eval_cases)
    clear_at = result.cases_to_clear_fn
    half_at = result.reviews_until_fn_below(max(total_fn // 2, 0))

    rng = np.random.default_rng(0)
    random_order = rng.permutation(n_cases)
    random_curve = false_negatives_vs_reviewed(
        result.labels, result.predictions, random_order
    )
    budget = min(clear_at, n_cases)
    random_left = int(random_curve[budget])

    report = ExperimentReport(
        "fig11", "False negatives vs cases reviewed (uncertainty order)"
    )
    points = [0, n_cases // 8, n_cases // 4, n_cases // 2, n_cases]
    report.table(
        ("cases reviewed", "FN left (uncertainty)", "FN left (random)"),
        [
            (p, int(result.fn_curve[p]), int(random_curve[p]))
            for p in sorted(set(points))
        ],
    )
    report.line()
    stride = max(1, n_cases // 60)
    report.line(
        "FN curve (uncertainty order): "
        f"[{ascii_series(result.fn_curve[::stride])}]"
    )
    report.line(
        "FN curve (random order):      "
        f"[{ascii_series(random_curve[::stride])}]"
    )
    report.line()
    report.line(f"initial false negatives: {total_fn}")
    report.line(f"reviews to halve FNs:    {half_at}")
    report.line(f"reviews to clear FNs:    {clear_at} of {n_cases}")
    report.metric("initial_false_negatives", total_fn, "count")
    report.metric("reviews_to_clear_fn", clear_at, "count", cases=n_cases)
    report.metric("reviews_to_halve_fn", half_at, "count")
    report.paper_vs_measured(
        [
            (
                "curve monotone non-increasing",
                "yes" if np.all(np.diff(result.fn_curve) <= 0) else "no",
                check(bool(np.all(np.diff(result.fn_curve) <= 0))),
            ),
            (
                "FNs cleared well before full review "
                "(paper: <10 FN after ~550 of 2352 = 23%)",
                f"cleared at {clear_at}/{n_cases} = "
                f"{clear_at / n_cases:.0%}",
                check(total_fn == 0 or clear_at <= 0.6 * n_cases),
            ),
            (
                "uncertainty order at least as good as random",
                f"at budget {budget}: uncertainty "
                f"{int(result.fn_curve[budget])} vs random {random_left}",
                check(random_left >= int(result.fn_curve[budget])),
            ),
        ]
    )
    text = report.finish()
    assert np.all(np.diff(result.fn_curve) <= 0)
    assert "NO" not in text
