"""Table IV — confusion matrix of bootstrap case classification.

The paper trains a 200-tree random forest on one month of manually
investigated cases and classifies the remaining five-month cases; the
confusion matrix against VirusTotal labels is

              classified benign   classified malicious
true benign                2163                      0
true malicious               41                    148

i.e. a false positive rate of exactly 0, high accuracy, and a modest
false-negative tail (handled by Fig. 11's uncertainty review).  We
reproduce the protocol on the synthetic multi-window corpus and check
the same qualitative properties.
"""

import pytest

from benchmarks.common import ExperimentReport, check
from benchmarks.conftest import TRAIN_WINDOWS
from repro.analysis.investigate import Investigator


def test_table4_confusion_matrix(benchmark, case_corpus):
    per_window, labeler, _truths = case_corpus
    train_cases = [c for w in per_window[:TRAIN_WINDOWS] for c in w]
    eval_cases = [c for w in per_window[TRAIN_WINDOWS:] for c in w]

    investigator = Investigator(labeler, n_trees=200, seed=0)
    investigator.train(train_cases)
    report_obj = benchmark(lambda: investigator.classify(eval_cases))
    cm = report_obj.confusion

    report = ExperimentReport(
        "table4", "Confusion matrix of case classification"
    )
    report.line(f"training cases (month 1): {len(train_cases)}")
    report.line(f"evaluation cases:         {len(eval_cases)}")
    report.line()
    report.line("paper (2352 cases):")
    report.line("              classified benign   classified malicious")
    report.line("true benign                2163                      0")
    report.line("true malicious               41                    148")
    report.line()
    report.line("measured:")
    report.line(cm.as_table())
    report.metric("evaluation_cases", len(eval_cases), "count")
    for cell in ("tn", "fp", "fn", "tp"):
        report.metric(cell, getattr(cm, cell), "count")
    report.metric("accuracy", cm.accuracy, "ratio")
    report.metric("recall", cm.recall, "ratio")
    report.metric("false_positive_rate", cm.false_positive_rate, "ratio")
    report.paper_vs_measured(
        [
            (
                "false positive rate = 0",
                f"{cm.false_positive_rate:.4f}",
                check(cm.false_positive_rate <= 0.01),
            ),
            (
                "majority correctly classified (paper: 98.3%)",
                f"accuracy {cm.accuracy:.3f}",
                check(cm.accuracy >= 0.9),
            ),
            (
                "most malicious cases caught (paper recall: 78%)",
                f"recall {cm.recall:.3f}",
                check(cm.recall >= 0.6),
            ),
            (
                "false negatives exist but are a small minority",
                f"{cm.fn} FN of {cm.total}",
                check(cm.fn < 0.1 * cm.total),
            ),
        ]
    )
    text = report.finish()
    assert cm.false_positive_rate <= 0.01
    assert cm.accuracy >= 0.9
    assert "NO" not in text
