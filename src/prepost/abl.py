"""Conditional outcome probabilities for pre- and post-selected systems.

The central quantity is the ABL rule: given a system prepared in |a> at an
early time and later found in outcome b of a final measurement, the
probability that an intermediate projective measurement Q would have shown
outcome q_j is

    P(q_j | a, b) = |<b|q_j>|^2 |<q_j|a>|^2 / sum_i |<b|q_i>|^2 |<q_i|a>|^2

for nondegenerate Q and rank-1 selections. This module computes it by the
operational three-step reading, which also covers degenerate outcomes and
nontrivial evolution: Born weight of the outcome from the evolved
preparation, collapse onto the outcome branch, then the Born weight of the
final result from the evolved branch. For rank-1 projectors and identity
evolution the composition reduces to the displayed formula.

Evolution operators are carried in the Protocol and default to the identity
(a zero Hamiltonian between the selections).
"""
from __future__ import annotations

import numpy as np

from .core import (
    EPS_PROB,
    Distribution,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    Protocol,
    PureState,
    Stage,
    UnitaryOp,
    stage_branches,
)


class ImpossiblePostSelection(ValueError):
    """The final outcome cannot occur no matter how the query turns out.

    The conditional probability is undefined at a vanishing denominator;
    raising keeps the failure explicit instead of letting NaN leak into
    downstream comparisons.
    """


class SelectionContext(Protocol):
    """A pre- and post-selection: |a> at the start, outcome b at the end.

    A Protocol with no intermediate stage that selects ``post_label``.
    Post-selection is a (PVM, label) pair so degenerate selections are
    expressible; use ProjectiveMeasurement.binary_from_state to lift a bare
    state |b> into the pair {|b><b|, 1 - |b><b|}.
    """

    def __init__(self, pre: PureState, post_pvm: ProjectiveMeasurement,
                 post_label: str, pre_to_t: UnitaryOp | None = None,
                 t_to_post: UnitaryOp | None = None) -> None:
        super().__init__(pre, post_pvm, pre_to_t=pre_to_t, t_to_post=t_to_post,
                         selection=post_label)


def _abl(p: np.ndarray, rows: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ABL's rule over a stack of joint tables, core._branches' (p, rows): for
    each instance's selected final outcomes k (B, S), or (1, S) for the same
    in all, the path weights p * rows[:, :, k] over their sum, (B, S, n), and
    that sum (B, S). A selection whose sum is at most EPS_PROB gets zeros."""
    weights = p[:, None, :] * rows[np.arange(len(p))[:, None], :, k]
    # accumulate adds the branches in order, as the scalar rule's sum did.
    denominator = np.add.accumulate(weights, axis=2)[..., -1]
    return weights / np.where(denominator > EPS_PROB, denominator, np.inf)[..., None], denominator


def _reachable(selection: str, denominator: float) -> None:
    """Raise ImpossiblePostSelection unless the ABL denominator exceeds EPS_PROB."""
    if denominator <= EPS_PROB:
        raise ImpossiblePostSelection(
            f"outcome {selection!r} is unreachable through any outcome "
            f"of the query (total weight {float(denominator)!r})")


def abl_distribution(ctx: Protocol, q: ProjectiveMeasurement) -> Distribution:
    """Distribution of query outcomes conditioned on both selections of
    ``ctx``, with q measured in place of its intermediate stage: _abl for the
    batch of one.

    Raises ImpossiblePostSelection when every path weight vanishes, meaning
    that with Q measured in between, outcome b can never occur.
    """
    labels, p, rows = stage_branches(ctx, MeasureStage(q))
    if ctx.selection is None:
        raise ValueError("the protocol must fix a selected outcome")
    k = ctx.post_pvm.index(ctx.selection)
    conditional, denominator = _abl(p[None], rows[None], np.array([[k]]))
    _reachable(ctx.selection, denominator[0, 0])
    return Distribution(list(zip(labels, conditional[0, 0])))


def final_distribution(protocol: Protocol) -> Distribution:
    """Final-outcome distribution of ``protocol``: the incoherent mixture over
    the branches of its intermediate stage, core.stage_branches'."""
    stage = protocol.intermediate
    return _mixture(protocol, stage, stage_branches(protocol, stage))


def _mixture(protocol: Protocol, stage: Stage, table: tuple) -> Distribution:
    _, p, rows = table
    post = protocol.post_pvm
    if isinstance(stage, FilterStage):
        j = stage.pvm.index(stage.pass_label)
        mixture = p[j] * rows[j]
        mixture[post.index(stage.absorb_label)] += 1.0 - min(p[j], 1.0)
    else:
        # accumulate adds the rows in branch order, as the per-branch loop did.
        mixture = np.add.accumulate(p[:, None] * rows)[-1]
    return Distribution(list(zip(post.labels, mixture)))


def post_outcome_distribution(
    pre: PureState,
    post_pvm: ProjectiveMeasurement,
    intermediate: Stage | ProjectiveMeasurement = None,
    pre_to_t: UnitaryOp | None = None,
    t_to_post: UnitaryOp | None = None,
) -> Distribution:
    """Distribution over all final outcomes, with or without an intervening stage.

    A bare PVM (or MeasureStage) produces the incoherent mixture over its
    outcome branches: measure, collapse, evolve, Born. A FilterStage lets
    only its pass branch reach the final measurement and books the absorbed
    weight under the filter's absorb_label, which must name a final outcome.
    """
    if isinstance(intermediate, ProjectiveMeasurement):
        intermediate = MeasureStage(intermediate)
    return final_distribution(Protocol(pre, post_pvm, intermediate, pre_to_t, t_to_post))
