"""Byte-level goldens for the built objects and the search traversal.

The sha256 values of built objects were recorded before the colex layout
replaced the per-edge constructions; any change to an edge order, a
construction or a renderer shows up here as a changed digest.  The
search goldens (leaf order, seeded samples, avoiders and node totals)
were recorded before the recursive searches became one iterative engine.
The n = 6 sweep golden was recorded before the sweep was read off the
wires' local sequences instead of a constraint graph.
"""

import hashlib
from types import SimpleNamespace

import pytest

from signotopes import (
    block_coloring,
    completions,
    count_monotone,
    dumps,
    enumerate_monotone,
    find_avoiding_coloring,
    longest_mono_paths,
    ramsey_number,
    random_monotone_coloring,
    render_svg,
    sweep_text,
    tower_coloring,
    wiring_diagram,
)
from signotopes.acceptance import GOLDEN_COUNTS
from signotopes.enumeration import _search, project


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


TOWER = {
    (3, 3): "75be692df6095bc78fdc2f5c55c4f2a59481bf0b87a24b8a056606eaeaacc857",
    (3, 4): "e97529c42c9151b862f37c1f0b7478635052cf1ff0cd4a4ceb4c77a94432c1c3",
    (3, 5): "a372e553bb5c927a79bc63c06c69322dd546c094cbd7499000712362ae8b59e4",
    (3, 6): "19b9783e6ed6820dc66f5e123250b2d40ac2d0301271a04c32c20e001e61b8ae",
    (4, 3): "213aff5ee41a80bbba27715639b12f8dd6d5520ae03902ec70f7b1c4f988180d",
}

BLOCK = {
    (3, 2): "f434b4f9bbfddaf17137a250900e0f504156d023329f73bce1e7f6c5dd3c24e0",
    (3, 3): "aa6fbc471538e9f6b186b01246bf72c1eb16cf6a15fdc53e28915ac7df279b0c",
    (4, 2): "b3f89a449d07b72d20bab644a6d51706a3bd45817c91ef570aafc54704e4697c",
    (5, 2): "e2b9f6149a1f98df8e45188fcb366ccce7ef3a0b40bef7d8547b3ccc513f65d8",
}


@pytest.fixture(scope="module")
def tower36():
    return tower_coloring(3, 6)


@pytest.mark.parametrize("r,n", sorted(TOWER))
def test_tower_mono_bytes(r, n):
    assert sha(dumps(tower_coloring(r, n))) == TOWER[(r, n)]


@pytest.mark.parametrize("r,h", sorted(BLOCK))
def test_block_mono_bytes(r, h):
    assert sha(dumps(block_coloring(r, h).fun)) == BLOCK[(r, h)]


def test_reversed_order(tower36):
    digest = sha(dumps(tower36.reversed_order()))
    assert digest == "1676299856081cf331f46ddb097d15a694f223cff973cafa5e254fe6d721f52f"


def test_projection(tower36):
    digest = sha(dumps(project(tower36, 40)))
    assert digest == "61f298f049f2fbcf771eac02e52b6b087196050fe88444e251a8344701424a2d"


def test_wiring_outputs(tower36):
    w = wiring_diagram(tower36)
    assert sha(render_svg(w)) == "b5b6d7c5ad73a0c9a6ee2ce7cd7a630f4994414323b20cce153c927018756f7c"
    assert sha(sweep_text(w)) == "773aa7187cc25283ab96bac6ca8b3fc6427ab9b842d5465203e20d1b95040dd6"


def test_sweeps_of_every_coloring_n6():
    digest = sha("".join(sweep_text(wiring_diagram(c)) for c in enumerate_monotone(3, 6)))
    assert digest == "7ddebb32bd31f35663945ceccf79cf085f080b3265d64627479cd271405b2fa9"


def test_path_witnesses(tower36):
    rep = longest_mono_paths(tower36)
    assert (rep.best_minus, rep.best_plus) == (7, 7)
    assert rep.witness_minus == (1, 33, 49, 57, 61, 63, 64)
    assert rep.witness_plus == (1, 2, 3, 5, 9, 17, 33)


def test_completions():
    fills = completions(block_coloring(3, 3), mode="sample", count=5, seed=7)
    digest = sha("".join(dumps(c) for c in fills))
    assert digest == "8199175580facf15a40745810e628262ef54b1edd483d9f047de4335f34bfed7"
    digest = sha("".join(dumps(c) for c in completions(block_coloring(3, 2), mode="all")))
    assert digest == "70a4cb7edac84bfe12d91ceeb5c99b21785a7e422081282c1fddbf0d58e0b3d6"


def test_transversal_zeros_block_5_2():
    assert len(block_coloring(5, 2).transversal_zero_positions()) == 255


ENUMERATION = {
    3: "5108030ed0033573a589d97a25315e60a133e2ae81805600e3d14273019cce77",
    4: "e1336caaa3d44a64906329184ffbb44667ee11c1eea11152d79070fd68d10cf1",
}


@pytest.mark.parametrize("r", sorted(ENUMERATION))
def test_enumeration_order(r):
    digest = sha("".join(dumps(c) for c in enumerate_monotone(r, 6)))
    assert digest == ENUMERATION[r]


def test_seeded_samples():
    digest = sha("".join(dumps(random_monotone_coloring(3, 7, s)) for s in range(200)))
    assert digest == "06ae038be572a2533260115025e3276fce48ad192c64e5290d618bfe7839a67b"


def test_avoider():
    avoider, nodes = find_avoiding_coloring(2, 9, 4)
    assert nodes == 5666
    assert sha(dumps(avoider)) == "b8dee6c54b0c1e5be486eeebe9fa34eaf6de78eb80cb113e146ea8c2d34897e5"


@pytest.mark.parametrize("n,nodes,digest", [
    (9, 56_365, "888d63de8e65abd17f9e21aa1de870ccac462a437542d23b1f33f67cfe4e43b9"),
    # the ramsey benchmark's avoider search
    (10, 1_456_213, "039438ff0b2d8298513eb9c1f544d078dd6123bd2991e88d753a423493430077"),
    # recorded before the bands below vertex n were walked as joins
    (11, 60_158_006, "57fae985d55981aa23855440a48fcccb75b75ad8da9382ec08ceb7e5670c01d4"),
])
def test_avoider_r3_m5(n, nodes, digest):
    avoider, total = find_avoiding_coloring(3, n, 5, max_edges=165)
    assert total == nodes
    assert sha(dumps(avoider)) == digest


# These two were recorded on the engine alone, before the edges through
# vertex n were walked as a join per batch of avoiders on [n-1].
def test_refutation_on_its_own():
    # the exhaustive step inside ramsey_number(2, 4, 12): no avoider on [9] extends
    assert find_avoiding_coloring(2, 10, 4, max_edges=200) == (None, 259_590)


def test_avoider_r4_m6():
    avoider, total = find_avoiding_coloring(4, 9, 6, max_edges=200)
    assert total == 435_983
    assert sha(dumps(avoider)) == "2cf90ab4cbc05eddd181e1641249ff4aa033696337025e1d92db2f113bed8c08"


# Recorded while every batch still doubled from one row.  (2, 14, 5) now
# grows its batches on [9]..[13] by how much their band walks share;
# (5, 9, 7) walks the same batches, each a long walk of rank-4 p's.
@pytest.mark.parametrize("r,n,m,nodes,digest", [
    (2, 14, 5, 2_459_844, "9e41ab6f8c29d3400c8961e5c6750d3f0529c5fe2228247adfb039f75095886c"),
    (5, 9, 7, 1_228_449, "674e1200e09de7f73694692ab826743ea94ea74722773a3949ed5d972af1a42c"),
])
def test_avoiders_r2_m5_and_r5_m7(r, n, m, nodes, digest):
    avoider, total = find_avoiding_coloring(r, n, m, max_edges=400)
    assert total == nodes
    assert sha(dumps(avoider)) == digest


# Recorded while a batch's band walk was narrowed in place to the rows
# below a found row; these two searches walk those rows on their own most
# often, 10 and 21 times.
@pytest.mark.parametrize("n,m,nodes,digest", [
    (8, 5, 135_585, "407130293a1a179ba5c271d415930b1c540e275085ab4a1b5211ff665b2911ac"),
    (10, 6, 98_482_486, "4b9ba779857b2455b9766ad7a1e49345957a47e7c65b6b1f9e78f29d7aea9d90"),
])
def test_avoiders_r4(n, m, nodes, digest):
    avoider, total = find_avoiding_coloring(4, n, m, max_edges=400)
    assert total == nodes
    assert sha(dumps(avoider)) == digest


def halved_engine(r, n):
    """The engine below the first edge minus: the half the counting join builds."""
    nodes = [0]
    for _ in _search(r, n, nodes, prefix=(-1,)):
        pass
    return SimpleNamespace(nodes=nodes[0])


@pytest.mark.parametrize("search,args,kwargs,nodes", [
    (count_monotone, (3, 6), {}, 11_338),
    (count_monotone, (4, 6), {}, 2_486),
    (halved_engine, (3, 6), {}, 5_668),  # 11,338 = 2 + 2 * 5,668
    (ramsey_number, (2, 3, 6), {}, 135),
    (ramsey_number, (3, 4, 8), {}, 5_309),
    (ramsey_number, (2, 4, 12), {}, 266_296),
])
def test_node_totals(search, args, kwargs, nodes):
    assert search(*args, **kwargs).nodes == nodes


@pytest.mark.parametrize("r,nodes", [(3, 29_888_526), (4, 93_202_606)])
def test_counts_n8(r, nodes):
    # both node totals were counted by exhaustive backtracking, a second method
    rep = count_monotone(r, 8, max_edges=100)
    assert (rep.count, rep.nodes) == (GOLDEN_COUNTS[r, 8], nodes)


# Rank goldens of the counting join, whose hook walks p of rank r - 1:
# S_5(8) and the S_r(r+2) column.  The engine counts S_6(8) and S_7(9)
# leaf by leaf as well, a second method for the count and the node total.
@pytest.mark.parametrize("r,n,count,nodes,engine", [
    (5, 8, 78_032, 7_059_550, False),
    (6, 8, 752, 64_526, True),
    (7, 9, 1_646, 340_666, True),
    (8, 10, 3_564, 1_879_198, False),
])
def test_counts_across_ranks(r, n, count, nodes, engine):
    rep = count_monotone(r, n)
    assert (rep.count, rep.nodes) == (count, nodes)
    if engine:
        total = [0]
        assert sum(1 for _ in _search(r, n, total)) == count
        assert total[0] == nodes
