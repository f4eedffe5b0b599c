"""Instance generators used by the bench command."""

import random

import pytest

from mesp import modular_decomposition, modular_width, modulator_is_valid
from mesp.generators import (
    GENERATOR_VERSION,
    gen_cluster_plus_p,
    gen_random_connected,
    gen_subdivided_core,
    gen_substitution,
)


def test_version_pinned():
    assert GENERATOR_VERSION == "1"


def test_random_connected_counts():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 20)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = gen_random_connected(n, m, rng)
        assert g.n == n and g.m == m  # Graph() would have raised if disconnected


def test_tree():
    rng = random.Random(2)
    for n in (1, 2, 7, 25):
        g = gen_random_connected(n, n - 1, rng)
        assert g.n == n and g.m == n - 1


def test_cluster_plus_p_witness_is_valid():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 40)
        p = rng.randint(0, min(4, n))
        g, mod = gen_cluster_plus_p(n, p, rng)
        assert g.n == n
        assert mod.kind == "cluster" and mod.size == p
        assert modulator_is_valid(g, mod)


def test_subdivided_core_params():
    rng = random.Random(4)
    for _ in range(20):
        core_n = rng.randint(2, 7)
        core_m = rng.randint(core_n - 1, core_n * (core_n - 1) // 2)
        n = rng.randint(core_n + core_m, core_n + 6 * core_m)
        g, info = gen_subdivided_core(core_n, core_m, n, rng)
        assert g.n == n
        assert info == {"core_n": core_n, "core_m": core_m}
        # subdividing adds only degree-2 vertices
        branchy = sum(1 for v in range(g.n) if g.degree(v) != 2)
        assert branchy <= core_n + 2 * core_m  # stretched cycles keep ends


def test_substitution_width_bound():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 40)
        cap = rng.randint(4, 8)  # smallest prime pattern has 4 vertices
        g, bound = gen_substitution(n, cap, rng)
        assert g.n == n and bound <= max(cap, 0)
        assert modular_width(modular_decomposition(g)) <= bound


def test_same_seed_same_graph():
    a = gen_random_connected(15, 30, random.Random(9))
    b = gen_random_connected(15, 30, random.Random(9))
    assert list(a.edges()) == list(b.edges())


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: gen_random_connected(0, 0, rng),
        lambda rng: gen_random_connected(5, 3, rng),
        lambda rng: gen_cluster_plus_p(4, 5, rng),
        lambda rng: gen_subdivided_core(5, 4, 4, rng),
        lambda rng: gen_substitution(0, 6, rng),
        lambda rng: gen_substitution(10, 3, rng),
    ],
    ids=["n-zero", "m-below-tree", "p-above-n", "n-below-core", "substitution-n-zero",
         "cap-below-4"],
)
def test_out_of_range_sizes_rejected(build):
    with pytest.raises(ValueError):
        build(random.Random(0))
