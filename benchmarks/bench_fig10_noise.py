"""Fig. 10(a-d) — robustness against injected noise.

The paper sweeps Gaussian interval jitter against a clean baseline
(Fig. 10a), then repeats the sweep with missing-event noise at
probabilities 0.25/0.5/0.75 and adding-event noise layered on top
(Fig. 10d).  The published qualitative result: the tolerable Gaussian
level ("threshold") drops from about 30 in the Gaussian-only setting to
around 11 and 7 once the event-level noise is combined, the worst
combination being Gaussian + missing events at p = 0.75; within the
tolerated region accuracy stays high (delta_d < 5%).

We reproduce the sweep matrix on a 300 s beacon over one day and check
the same orderings.  Absolute thresholds depend on the (unpublished)
baseline period; ratios and orderings are the reproduction target.
"""

import pytest

from benchmarks.common import ExperimentReport, ascii_series, check
from repro.analysis.synthetic_eval import noise_sweep, tolerated_sigma

DAY = 86_400.0
PERIOD = 300.0
SIGMAS = [0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0]
TRIALS = 5


@pytest.fixture(scope="module")
def sweeps():
    configs = {
        "gaussian only": dict(drop_probability=0.0, add_rate=0.0),
        "+ missing p=0.25": dict(drop_probability=0.25, add_rate=0.0),
        "+ missing p=0.50": dict(drop_probability=0.50, add_rate=0.0),
        "+ missing p=0.75": dict(drop_probability=0.75, add_rate=0.0),
        "+ adding 1/600s": dict(drop_probability=0.0, add_rate=1 / 600.0),
        "+ missing 0.5 & adding": dict(
            drop_probability=0.5, add_rate=1 / 600.0
        ),
    }
    out = {}
    for name, kwargs in configs.items():
        out[name] = noise_sweep(
            SIGMAS, period=PERIOD, duration=DAY, trials=TRIALS, seed=42,
            **kwargs,
        )
    return out


def test_fig10_noise_robustness(benchmark, sweeps):
    benchmark(
        lambda: noise_sweep([10.0], period=PERIOD, duration=DAY, trials=1)
    )
    report = ExperimentReport(
        "fig10", "delta_d / gamma_d vs Gaussian sigma under event noise"
    )
    thresholds = {}
    for name, results in sweeps.items():
        report.line(f"\n[{name}]")
        report.table(
            ("sigma (s)", "delta_d", "gamma_d"),
            [
                (f"{s:.0f}", f"{r.delta_d:.4f}", f"{r.gamma_d:.2f}")
                for s, r in zip(SIGMAS, results)
            ],
        )
        report.line(
            "gamma_d shape over sigma: "
            f"[{ascii_series([r.gamma_d for r in results], width=3)}]"
        )
        thresholds[name] = tolerated_sigma(SIGMAS, results)
    report.line("\ntolerated Gaussian sigma per configuration:")
    report.table(
        ("configuration", "tolerated sigma (s)"),
        [(name, f"{t:.0f}") for name, t in thresholds.items()],
    )
    for name, tolerated in thresholds.items():
        report.metric("tolerated_sigma", tolerated, "s", configuration=name)

    clean = thresholds["gaussian only"]
    worst = thresholds["+ missing p=0.75"]
    combined = thresholds["+ missing 0.5 & adding"]
    low_noise_delta = max(
        results[1].delta_d  # sigma = 5 s
        for results in sweeps.values()
    )
    report.paper_vs_measured(
        [
            (
                "threshold drops when event noise is added "
                "(paper: 30 -> ~11 and ~7)",
                f"{clean:.0f} -> {combined:.0f} and {worst:.0f}",
                check(worst < clean and combined < clean),
            ),
            (
                "missing p=0.75 is (one of) the worst combination(s)",
                f"{worst:.0f} <= all others",
                check(worst <= min(thresholds.values()) + 1e-9),
            ),
            (
                "delta_d < 5% while noise is below threshold",
                f"max delta_d at sigma=5: {low_noise_delta:.4f}",
                check(low_noise_delta < 0.05),
            ),
            (
                "graceful degradation, not a cliff at sigma=0",
                f"clean threshold {clean:.0f} s >= 20 s",
                check(clean >= 20.0),
            ),
        ]
    )
    text = report.finish()
    assert worst < clean
    assert "NO" not in text
