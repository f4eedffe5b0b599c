"""Constrained set cover: pick exactly one candidate per group so that the
chosen satisfaction sets jointly cover all requirements.

Requirements are indices ``0..r-1`` and satisfaction sets are int bitmasks.
The solver runs a DP over one table per group, indexed by requirement
subsets: a subset ``Q`` is reachable at layer ``i`` iff some choice of one
candidate from each of the first ``i`` groups covers ``Q``.  Each reachable
entry remembers one witnessing candidate of its layer, which makes the
chosen tuple reconstructible backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from .errors import CapacityError
from .graph import _bits

DEFAULT_R_CAP = 26
DEFAULT_BRUTE_CAP = 2_000_000

UNREACHABLE = -1


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

    @property
    def m(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class CscSolution:
    """One candidate index per group, in group order."""

    indices: tuple[int, ...]

    def candidates(self, inst: CscInstance) -> tuple[Candidate, ...]:
        return tuple(inst.groups[i][ci] for i, ci in enumerate(self.indices))

    def covered_mask(self, inst: CscInstance) -> int:
        got = 0
        for i, ci in enumerate(self.indices):
            got |= inst.groups[i][ci].mask
        return got


def dp_layers(inst: CscInstance, r_cap: int = DEFAULT_R_CAP) -> list[list[int]]:
    """All DP tables, one per layer 0..m.

    ``layers[i][Q]`` for i >= 1 is the index (within group i-1) of the witness
    candidate for subset ``Q``, or -1 if ``Q`` is not reachable at layer i.
    Layer 0 has a single reachable entry, the empty subset (stored as 0).

    A layer is built by marking ``K | mask(c)`` for every subset ``K``
    reachable at the previous layer and every candidate ``c``, then running
    one downward-closure sweep so that subsets of reachable sets become
    reachable too.  The first candidate in group order to mark a subset wins;
    later marks never overwrite.
    """
    if inst.r > r_cap:
        raise CapacityError(f"requirement count {inst.r} exceeds cap {r_cap}")
    size = 1 << inst.r
    layer0 = [UNREACHABLE] * size
    layer0[0] = 0
    layers = [layer0]
    prev = layer0
    for group in inst.groups:
        cur = [UNREACHABLE] * size
        reach_prev = [k for k in range(size) if prev[k] != UNREACHABLE]
        for ci, cand in enumerate(group):
            mk = cand.mask
            for k in reach_prev:
                q = k | mk
                if cur[q] == UNREACHABLE:
                    cur[q] = ci
        for b in range(inst.r):
            bit = 1 << b
            for q in range(size):
                if q & bit and cur[q] != UNREACHABLE and cur[q ^ bit] == UNREACHABLE:
                    cur[q ^ bit] = cur[q]
        layers.append(cur)
        prev = cur
    return layers


def reconstruct_selection(
    inst: CscInstance, layers: list[list[int]], target: int
) -> CscSolution | None:
    """Selection covering ``target`` from precomputed layers, or None.

    Walks the layers backwards, always querying the part of the target set
    not yet covered by later choices (tables are closed downward, so the
    shrunken subset is reachable whenever the full one was).
    """
    if layers[-1][target] == UNREACHABLE:
        return None
    chosen = []
    need = target
    for i in range(inst.m, 0, -1):
        ci = layers[i][need]
        assert ci != UNREACHABLE
        chosen.append(ci)
        need &= ~inst.groups[i - 1][ci].mask
    assert need == 0
    chosen.reverse()
    return CscSolution(tuple(chosen))


def solve_csc(
    inst: CscInstance, r_cap: int = DEFAULT_R_CAP, target: int | None = None
) -> CscSolution | None:
    """Return one selection covering all requirements, or None if infeasible.

    With ``target`` given, only that subset of the requirements has to be
    covered (used by callers that pre-satisfy part of the universe).
    """
    if any(len(group) == 0 for group in inst.groups):
        return None
    layers = dp_layers(inst, r_cap)
    if target is None:
        target = (1 << inst.r) - 1
    return reconstruct_selection(inst, layers, target)


def solve_csc_bruteforce(
    inst: CscInstance, work_cap: int = DEFAULT_BRUTE_CAP
) -> CscSolution | None:
    """Reference solver: try every tuple of candidates in lexicographic order."""
    work = 1
    for group in inst.groups:
        work *= len(group)
        if work > work_cap:
            raise CapacityError(f"brute-force work {work} exceeds cap {work_cap}")
    full = (1 << inst.r) - 1
    for combo in product(*(range(len(g)) for g in inst.groups)):
        got = 0
        for i, ci in enumerate(combo):
            got |= inst.groups[i][ci].mask
        if got == full:
            return CscSolution(tuple(combo))
    return None


# ---------------------------------------------------------------------------
# debug text format


def parse_csc_instance(text: str) -> CscInstance:
    """Parse the debug format: line ``r m``, then per group a count line
    followed by that many candidate lines of space-separated requirement
    indices (a blank line is a candidate satisfying nothing)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty instance text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}")
    r, m = int(head[0]), int(head[1])
    pos = 1
    groups = []
    for gi in range(m):
        if pos >= len(lines):
            raise ValueError(f"missing count line for group {gi}")
        count = int(lines[pos])
        pos += 1
        cands = []
        for ci in range(count):
            if pos >= len(lines):
                raise ValueError(f"missing candidate {ci} of group {gi}")
            mask = 0
            for tok in lines[pos].split():
                idx = int(tok)
                if not 0 <= idx < r:
                    raise ValueError(f"requirement index {idx} out of range for r={r}")
                mask |= 1 << idx
            cands.append(Candidate(payload=(gi, ci), mask=mask))
            pos += 1
        groups.append(tuple(cands))
    return CscInstance(r=r, groups=tuple(groups))


def format_csc_instance(inst: CscInstance) -> str:
    out = [f"{inst.r} {inst.m}"]
    for group in inst.groups:
        out.append(str(len(group)))
        for cand in group:
            out.append(" ".join(str(b) for b in _bits(cand.mask)))
    return "\n".join(out) + "\n"
