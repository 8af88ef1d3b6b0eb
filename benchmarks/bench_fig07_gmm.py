"""Fig. 7 — GMM interval analysis for multiple periods (Conficker).

The paper fits Gaussian mixtures to a Conficker bot's interval list —
bursts of ~4.5 s beacons interleaved with ~175 s pauses and a rare
outlier — and selects the component count by BIC; the component means
are the candidate periods.  Our Conficker model beacons every 7.5 s for
two minutes and sleeps three hours; the mixture must recover both time
scales, and BIC must prefer the two-component model over one and three.
"""

import numpy as np
import pytest

from benchmarks.common import ExperimentReport, check
from repro.core.gmm import fit_gmm, select_gmm
from repro.core.timeseries import intervals_from_timestamps
from repro.synthetic import conficker_spec

DAY = 86_400.0


@pytest.fixture(scope="module")
def intervals():
    rng = np.random.default_rng(3)
    trace = conficker_spec(DAY).generate(rng)
    ivals = intervals_from_timestamps(trace)
    return ivals[ivals > 0]


def test_fig07_gmm_components(benchmark, intervals):
    best = benchmark(
        lambda: select_gmm(intervals, max_components=4,
                           rng=np.random.default_rng(0))
    )
    bics = {
        k: fit_gmm(intervals, k, rng=np.random.default_rng(0)).bic
        for k in range(1, 5)
    }

    report = ExperimentReport(
        "fig07", "GMM for detecting multiple periods (Conficker)"
    )
    report.line("fitted mixture components:")
    report.table(
        ("mean (s)", "std (s)", "weight"),
        [
            (f"{c.mean:.2f}", f"{c.std:.2f}", f"{c.weight:.3f}")
            for c in best.components
        ],
    )
    report.line()
    report.line("BIC vs number of components:")
    report.table(
        ("components", "BIC", "selected"),
        [
            (k, f"{bic:.1f}", "<-- best" if k == best.n_components else "")
            for k, bic in sorted(bics.items())
        ],
    )

    means = sorted(c.mean for c in best.components)
    for rank, mean in enumerate(means):
        report.metric("component_mean", mean, "s", rank=rank)
    report.metric("components", best.n_components, "count")
    report.paper_vs_measured(
        [
            (
                "burst period recovered (model: 7.5 s)",
                f"{means[0]:.2f} s",
                check(abs(means[0] - 7.5) < 1.0),
            ),
            (
                "sleep period recovered (model: 10800 s)",
                f"{means[-1]:.1f} s",
                check(abs(means[-1] - 10_800.0) < 300.0),
            ),
            (
                "BIC selects 2 components",
                f"{best.n_components}",
                check(best.n_components == 2),
            ),
            (
                "dominant weight on the burst component (paper: ~0.5/0.5;"
                " our bursts are longer)",
                f"{max(c.weight for c in best.components):.3f}",
                check(max(c.weight for c in best.components) > 0.5),
            ),
        ]
    )
    text = report.finish()
    assert best.n_components == 2
    assert "NO" not in text
