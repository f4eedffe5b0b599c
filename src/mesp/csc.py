"""Constrained set cover: pick exactly one candidate per group so that the
chosen satisfaction sets jointly cover all requirements.

Requirements are indices ``0..r-1`` and satisfaction sets are int bitmasks.
The solver runs a DP with one layer per group prefix.  Layer ``i`` maps each
requirement set that some choice of one candidate from each of the first
``i`` groups covers *exactly* to a back-pointer: the chosen candidate of
group ``i-1`` and the set of layer ``i-1`` it extends.  A selection covering
a target is any set of the last layer that contains the target, read back
through its back-pointers.  Memory is proportional to the reachable sets,
not to all 2^r subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import CapacityError

DEFAULT_R_CAP = 26


@dataclass(frozen=True)
class Candidate:
    """One selectable element of a group; ``mask`` is its satisfaction set."""

    payload: object
    mask: int


@dataclass(frozen=True)
class CscInstance:
    r: int
    groups: tuple[tuple[Candidate, ...], ...]

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"negative requirement count {self.r}")
        limit = 1 << self.r
        for gi, group in enumerate(self.groups):
            for cand in group:
                if not 0 <= cand.mask < limit:
                    raise ValueError(
                        f"candidate mask {cand.mask:#x} in group {gi} out of range for r={self.r}"
                    )


@dataclass(frozen=True)
class CscSolution:
    """One candidate index per group, in group order."""

    indices: tuple[int, ...]

    def candidates(self, inst: CscInstance) -> tuple[Candidate, ...]:
        return tuple(inst.groups[i][ci] for i, ci in enumerate(self.indices))


def dp_layers(inst: CscInstance) -> list[dict[int, tuple[int, int] | None]]:
    """All DP layers, one per group prefix 0..m.

    ``layers[i]`` for i >= 1 maps each set covered exactly by some choice
    from the first i groups to ``(ci, K)``: candidate ``ci`` of group i-1
    joined to set ``K`` of layer i-1.  Layer 0 maps the empty set to None.
    Pairs are tried candidate by candidate, each against the previous
    layer's sets in insertion order; the first pair to reach a set wins.
    An empty group gives an empty layer, and every later layer is empty too.
    """
    if inst.r > DEFAULT_R_CAP:
        raise CapacityError(f"requirement count {inst.r} exceeds cap {DEFAULT_R_CAP}")
    layers: list[dict] = [{0: None}]
    for group in inst.groups:
        prev, cur = layers[-1], {}
        for ci, cand in enumerate(group):
            mk = cand.mask
            for k in prev:
                q = k | mk
                if q not in cur:
                    cur[q] = (ci, k)
        layers.append(cur)
    return layers


def reconstruct_selection(layers: list[dict], target: int) -> CscSolution | None:
    """Selection covering ``target`` from precomputed layers, or None.

    Takes the first set of the last layer that contains ``target`` and walks
    its back-pointers down to layer 0.
    """
    q = next((s for s in layers[-1] if s & target == target), None)
    if q is None:
        return None
    chosen = []
    for layer in reversed(layers[1:]):
        ci, q = layer[q]
        chosen.append(ci)
    chosen.reverse()
    return CscSolution(tuple(chosen))


def solve_csc(inst: CscInstance) -> CscSolution | None:
    """Return one selection covering all requirements, or None if infeasible."""
    return reconstruct_selection(dp_layers(inst), (1 << inst.r) - 1)

