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

Evolution operators are carried in the context and default to the identity
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
    PureState,
    Stage,
    UnitaryOp,
    UnitaryStage,
    born_distribution,
    branch_distributions,
    evolve,
)


class ImpossiblePostSelection(ValueError):
    """The final outcome cannot occur no matter how the query turns out.

    The conditional probability is undefined at a vanishing denominator;
    raising keeps the failure explicit instead of letting NaN leak into
    downstream comparisons.
    """


class SelectionContext:
    """A pre- and post-selection: |a> at the start, outcome b at the end.

    Post-selection is a (PVM, label) pair so degenerate selections are
    expressible; use ProjectiveMeasurement.binary_from_state to lift a bare
    state |b> into the pair {|b><b|, 1 - |b><b|}.
    """

    def __init__(self, pre: PureState, post_pvm: ProjectiveMeasurement,
                 post_label: str, pre_to_t: UnitaryOp | None = None,
                 t_to_post: UnitaryOp | None = None) -> None:
        dim = pre.dim
        if post_pvm.dim != dim:
            raise ValueError(f"post measurement dim {post_pvm.dim} != {dim}")
        post_pvm.index(post_label)  # raises KeyError if absent
        for u in (pre_to_t, t_to_post):
            if u is not None and u.dim != dim:
                raise ValueError(f"unitary dim {u.dim} != {dim}")
        self.pre = pre
        self.post_pvm = post_pvm
        self.post_label = post_label
        self.pre_to_t = pre_to_t if pre_to_t is not None else UnitaryOp.identity(dim)
        self.t_to_post = t_to_post if t_to_post is not None else UnitaryOp.identity(dim)

    @property
    def dim(self) -> int:
        return self.pre.dim

    def __repr__(self) -> str:
        return (f"SelectionContext(dim={self.dim}, "
                f"post_label={self.post_label!r})")


def _branch_weights(ctx: SelectionContext,
                    q: ProjectiveMeasurement) -> list[float]:
    """Unnormalized path weight for each query outcome.

    weight(j) = Born(j | evolved preparation) * Born(b | evolved branch j).
    """
    if q.dim != ctx.dim:
        raise ValueError(f"query dim {q.dim} != {ctx.dim}")
    p, rows = branch_distributions(evolve(ctx.pre, ctx.pre_to_t), q,
                                   ctx.t_to_post, ctx.post_pvm)
    return (p * rows[:, ctx.post_pvm.index(ctx.post_label)]).tolist()


def abl_distribution(ctx: SelectionContext,
                     q: ProjectiveMeasurement) -> Distribution:
    """Distribution of query outcomes conditioned on both selections.

    Raises ImpossiblePostSelection when every path weight vanishes, meaning
    that with Q measured in between, outcome b can never occur.
    """
    weights = _branch_weights(ctx, q)
    denominator = sum(weights)
    if denominator <= EPS_PROB:
        raise ImpossiblePostSelection(
            f"outcome {ctx.post_label!r} is unreachable through any outcome "
            f"of the query (total weight {denominator!r})")
    return Distribution(
        [(label, w / denominator) for label, w in zip(q.labels, weights)])


def sequence_probability(
    ctx: SelectionContext,
    intermediate: tuple[ProjectiveMeasurement, str] | None,
) -> float:
    """Joint probability of the stated intermediate event and the final outcome.

    With no intermediate event this is the direct transition probability
    |<b| V U |a>|^2; with (pvm, label) it is the weight of the single path
    passing through that outcome.
    """
    if intermediate is None:
        final = evolve(evolve(ctx.pre, ctx.pre_to_t), ctx.t_to_post)
        return born_distribution(final, ctx.post_pvm).probability(ctx.post_label)
    pvm, label = intermediate
    return _branch_weights(ctx, pvm)[pvm.index(label)]


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
    dim = pre.dim
    u = pre_to_t if pre_to_t is not None else UnitaryOp.identity(dim)
    v = t_to_post if t_to_post is not None else UnitaryOp.identity(dim)
    if isinstance(intermediate, ProjectiveMeasurement):
        intermediate = MeasureStage(intermediate)
    at_t = evolve(pre, u)

    if intermediate is None:
        return born_distribution(evolve(at_t, v), post_pvm)

    if isinstance(intermediate, UnitaryStage):
        return born_distribution(evolve(evolve(at_t, intermediate.unitary), v),
                                 post_pvm)

    if not isinstance(intermediate, (MeasureStage, FilterStage)):
        raise TypeError(f"not an intermediate stage: {intermediate!r}")
    p, rows = branch_distributions(at_t, intermediate.pvm, v, post_pvm)
    if isinstance(intermediate, MeasureStage):
        # Python's sum adds the rows in outcome order from zero, as the
        # per-branch loop did; ndarray.sum may reorder the additions.
        mixture = sum(p[:, None] * rows, np.zeros(len(post_pvm.labels)))
    else:
        j = intermediate.pvm.index(intermediate.pass_label)
        mixture = p[j] * rows[j]
        mixture[post_pvm.index(intermediate.absorb_label)] += 1.0 - min(p[j], 1.0)
    return Distribution(list(zip(post_pvm.labels, mixture)))
