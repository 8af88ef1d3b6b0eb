"""The stage protocol and the funnel executor.

A :class:`Stage` is one step of the BAYWATCH funnel (paper Fig. 3): it
consumes the surviving items of the previous step and emits its own
survivors.  :func:`run_stages` threads a list of stages over a
:class:`~repro.stages.context.StageContext`, recording each step's
in/out counts in the context's
:class:`~repro.filtering.pipeline.FunnelStats`, timing it under a
telemetry span named after the stage, and surfacing the counts as
``stage.<span_name>.pairs_{in,out}`` counters — so funnel semantics and
telemetry have exactly one source of truth, wherever
:class:`~repro.filtering.BaywatchPipeline` runs detection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Sequence

from repro.obs import get_registry, journal_emit, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.stages.context import StageContext

__all__ = ["Stage", "run_stages"]


class Stage:
    """One funnel step: a named filter/transform over the survivor list.

    Subclasses set ``name`` (the canonical funnel label, e.g.
    ``"1 global whitelist"``) and ``span_name`` (the telemetry span the
    step is timed under) and implement :meth:`apply`.
    """

    #: Canonical funnel label recorded in :class:`FunnelStats`.
    name: str = ""
    #: Telemetry span (and counter) name for this step.
    span_name: str = ""

    def apply(self, context: "StageContext", items: Sequence[Any]) -> Iterable[Any]:
        """Run the step over ``items``, returning its survivors."""
        raise NotImplementedError


def run_stages(
    context: "StageContext",
    stages: Sequence[Stage],
    items: Iterable[Any],
) -> List[Any]:
    """Apply ``stages`` in order, with funnel accounting per step.

    Each stage runs under ``span(stage.span_name)`` — nesting beneath
    whatever span the caller opened — and records
    ``(stage.name, n_in, n_out)`` in ``context.funnel``.
    """
    registry = get_registry()
    survivors = list(items)
    for stage in stages:
        n_in = len(survivors)
        with span(stage.span_name):
            survivors = list(stage.apply(context, survivors))
        context.funnel.record(stage.name, n_in, len(survivors))
        registry.counter(f"stage.{stage.span_name}.pairs_in").inc(n_in)
        registry.counter(f"stage.{stage.span_name}.pairs_out").inc(len(survivors))
        journal_emit(
            "stage",
            stage=stage.span_name,
            pairs_in=n_in,
            pairs_out=len(survivors),
        )
    return survivors
