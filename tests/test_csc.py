"""Constrained set cover: DP layers, reconstruction, oracle agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesp import CapacityError, Candidate, CscInstance, solve_csc
from mesp.csc import dp_layers, reconstruct_selection

import oracles


def inst(r, *groups):
    return CscInstance(
        r,
        tuple(
            tuple(Candidate(payload=(gi, ci), mask=mask) for ci, mask in enumerate(g))
            for gi, g in enumerate(groups)
        ),
    )


def covered(instance, sol):
    """The OR of the selected candidates' masks."""
    got = 0
    for cand in sol.candidates(instance):
        got |= cand.mask
    return got


class TestExamples:
    def test_two_singletons(self):
        sol = solve_csc(inst(2, [0b01], [0b10]))
        assert sol.indices == (0, 0)
        assert covered(inst(2, [0b01], [0b10]), sol) == 0b11

    def test_second_candidate_needed(self):
        sol = solve_csc(inst(1, [0b0, 0b1]))
        assert sol.indices == (1,)

    def test_cross_pairing(self):
        # C1 = {a:{0,1}, b:{1,2}}, C2 = {c:{2}, d:{0}}: only (a,c) and (b,d) work
        instance = inst(3, [0b011, 0b110], [0b100, 0b001])
        sol = solve_csc(instance)
        assert sol.indices in ((0, 0), (1, 1))
        assert covered(instance, sol) == 0b111
        assert oracles.csc_feasible(3, [[0b011, 0b110], [0b100, 0b001]])

    def test_vacuous(self):
        sol = solve_csc(inst(0))
        assert sol.indices == ()

    def test_uncoverable(self):
        assert solve_csc(inst(2, [0b01])) is None
        assert not oracles.csc_feasible(2, [[0b01]])

    def test_empty_group_infeasible(self):
        assert solve_csc(inst(1, [])) is None

    def test_r_cap(self):
        with pytest.raises(CapacityError):
            solve_csc(inst(30, [1]))

    @pytest.mark.parametrize(
        "r, mask", [(-1, 0), (2, 0b100), (0, 1), (3, -1)],
        ids=["negative-r", "mask-past-r", "mask-with-r-zero", "negative-mask"],
    )
    def test_malformed_instance_rejected(self, r, mask):
        with pytest.raises(ValueError):
            inst(r, [mask])


class TestLayers:
    def test_layer0(self):
        # with no group chosen yet only the empty target is covered
        layers = dp_layers(inst(2))
        assert reconstruct_selection(layers, 0).indices == ()
        assert all(reconstruct_selection(layers, q) is None for q in (1, 2, 3))

    def test_layer_semantics_small_random(self):
        # a prefix choice covering q exists iff one is reconstructed, and it covers q
        rng = random.Random(5)
        for _ in range(300):
            r = rng.randint(0, 6)
            m = rng.randint(0, 4)
            groups = [
                [rng.randrange(1 << r) for _ in range(rng.randint(1, 3))]
                for _ in range(m)
            ]
            for i in range(m + 1):
                prefix = inst(r, *groups[:i])
                layers = dp_layers(prefix)
                unions = _unions(groups[:i])
                for q in range(1 << r):
                    sel = reconstruct_selection(layers, q)
                    want = any(cov & q == q for cov in unions)
                    assert (sel is not None) == want, (groups, i, q)
                    if sel is not None:
                        assert covered(prefix, sel) & q == q, (groups, i, q)

    def test_layers_hold_only_reachable_sets(self):
        # r = 20 but only halves and their union are ever covered
        low = (1 << 10) - 1
        high = low << 10
        instance = inst(20, *[[low, high]] * 3)
        layers = dp_layers(instance)
        assert all(len(layer) <= 4 for layer in layers)
        assert covered(instance, solve_csc(instance)) == (1 << 20) - 1

    def test_target_reconstruction(self):
        instance = inst(3, [0b011, 0b110], [0b100, 0b001])
        layers = dp_layers(instance)
        # partial targets are reachable even when smaller than full cover
        sol = reconstruct_selection(layers, 0b010)
        assert covered(instance, sol) & 0b010 == 0b010

    def test_reversed_candidate_order_same_feasibility(self):
        rng = random.Random(6)
        for _ in range(300):
            r = rng.randint(0, 6)
            m = rng.randint(0, 4)
            groups = [
                [rng.randrange(1 << r) for _ in range(rng.randint(1, 3))]
                for _ in range(m)
            ]
            fwd = solve_csc(inst(r, *groups)) is not None
            rev = solve_csc(inst(r, *[list(reversed(g)) for g in groups])) is not None
            assert fwd == rev


def _unions(prefix_groups):
    if not prefix_groups:
        return [0]
    out = []
    for cov in _unions(prefix_groups[:-1]):
        for mask in prefix_groups[-1]:
            out.append(cov | mask)
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_feasibility_matches_oracle(data):
    r = data.draw(st.integers(0, 8))
    m = data.draw(st.integers(0, 5))
    groups = [
        data.draw(st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=4))
        for _ in range(m)
    ]
    instance = inst(r, *groups)
    sol = solve_csc(instance)
    assert (sol is not None) == oracles.csc_feasible(r, groups)
    if sol is not None:
        assert covered(instance, sol) == (1 << r) - 1

