import math
import random
from collections import Counter

import pytest

import gfoperad.trees
from gfoperad.operad import GenFunction, compose, identity, select_trees
from gfoperad.poisson import PoissonStructure
from gfoperad.solver import solve_deformation
from gfoperad.symbols import PolySymbol, x_key
from gfoperad.trees import (
    BLACK,
    DEFAULT_WEIGHT_CAP,
    WHITE,
    _flatten,
    automorphism_count,
    butcher_product,
    enumerate_rooted,
    enumerate_unrooted,
    forget_root,
    graft,
    leaf,
    rerootings,
    symmetry_coefficient,
)
from labeled_trees import distinct_relabelings, labeled_structures, structure_of_rooted


def test_leaf_basics():
    t = leaf(WHITE, 1)
    assert t.size == 1 and t.total_weight == 1
    assert t.encoding == "w1"
    b = leaf(BLACK, 3)
    assert b.total_weight == 3
    assert b.encoding == "b3"


def test_leaf_rejects_zero_weight():
    with pytest.raises(ValueError):
        leaf(WHITE, 0)


def test_graft_edge_tree():
    e = graft([leaf(WHITE, 1)], BLACK, 1)
    assert e.size == 2 and e.total_weight == 2
    assert e.encoding == "b1(w1)"


def test_graft_two_children():
    t = graft([leaf(WHITE, 1), leaf(WHITE, 1)], BLACK, 2)
    assert t.total_weight == 4
    assert t.encoding == "b2(w1,w1)"


def test_graft_color_clash():
    with pytest.raises(ValueError):
        graft([leaf(BLACK, 1)], BLACK, 1)


def test_encoding_sorts_children():
    inner = graft([leaf(BLACK, 3)], WHITE, 1)
    t = graft([inner, leaf(WHITE, 1)], BLACK, 2)
    assert t.encoding == "b2(w1,w1(b3))"
    # permutation invariance
    t2 = graft([leaf(WHITE, 1), inner], BLACK, 2)
    assert t == t2


def test_symmetry_coefficient_examples():
    assert symmetry_coefficient(leaf(WHITE, 1)) == 1
    assert symmetry_coefficient(graft([leaf(WHITE, 1), leaf(WHITE, 1)], BLACK, 2)) == 2
    assert symmetry_coefficient(graft([leaf(WHITE, 1), leaf(WHITE, 2)], BLACK, 1)) == 1


def test_automorphism_examples():
    assert automorphism_count(leaf(WHITE, 1)) == 1
    assert automorphism_count(graft([leaf(WHITE, 1), leaf(WHITE, 1)], BLACK, 2)) == 2
    twig = graft([leaf(BLACK, 1)], WHITE, 1)
    assert automorphism_count(graft([twig, twig], BLACK, 1)) == 2


def test_automorphism_size_limit():
    chain = leaf(WHITE, 1)
    for _ in range(10):
        chain = graft([chain], "w" if chain.color == "b" else "b", 1)
    with pytest.raises(ValueError):
        automorphism_count(chain)


def test_butcher_product():
    w, b = leaf(WHITE, 1), leaf(BLACK, 1)
    assert butcher_product(w, b) == graft([b], WHITE, 1)
    assert butcher_product(b, w) == graft([w], BLACK, 1)
    assert forget_root(butcher_product(w, b)) == forget_root(butcher_product(b, w))
    with pytest.raises(ValueError):
        butcher_product(leaf(WHITE, 1), leaf(WHITE, 2))


def test_forget_root_examples():
    assert forget_root(graft([leaf(WHITE, 1)], BLACK, 1)) == forget_root(
        graft([leaf(BLACK, 1)], WHITE, 1)
    )
    assert forget_root(leaf(WHITE, 2)) != forget_root(leaf(BLACK, 2))
    cherry = graft([leaf(WHITE, 1), leaf(WHITE, 1)], BLACK, 1)
    roots = rerootings(cherry)
    assert len(roots) == 3
    assert len({r.encoding for r in roots}) == 2


def test_enumerate_rooted_counts():
    assert {t.encoding for t in enumerate_rooted(1)} == {"w1", "b1"}
    exactly2 = [t for t in enumerate_rooted(2) if t.total_weight == 2]
    assert {t.encoding for t in exactly2} == {"w2", "b2", "w1(b1)", "b1(w1)"}
    exactly3 = [t for t in enumerate_rooted(3) if t.total_weight == 3]
    assert len(exactly3) == 10


def test_enumeration_below_weight_one_is_empty():
    for w in (0, -1):
        assert enumerate_rooted(w) == [] and enumerate_unrooted(w) == []


def test_enumerate_rooted_root_color_and_cap():
    whites = enumerate_rooted(3, root_color=WHITE)
    assert all(t.color == WHITE for t in whites)
    with pytest.raises(ValueError):
        enumerate_rooted(11)


def test_enumerate_unrooted_counts():
    exactly1 = [t for t in enumerate_unrooted(1)]
    assert {t.encoding for t in exactly1} == {"w1", "b1"}
    exactly2 = [t for t in enumerate_unrooted(2) if t.total_weight == 2]
    assert len(exactly2) == 3
    exactly3 = [t for t in enumerate_unrooted(3) if t.total_weight == 3]
    # quotient of the 10 rooted classes under re-rooting
    tops = {forget_root(t).encoding for t in enumerate_rooted(3) if t.total_weight == 3}
    assert len(exactly3) == len(tops)


def test_enumeration_complete_against_labeled_oracle():
    # Independent completeness check: summing labeled copies over the classes
    # found by the enumerator must reproduce the raw labeled count.
    for total in range(1, 6):
        classes = [t for t in enumerate_unrooted(total) if t.total_weight == total]
        copies = 0
        for top in classes:
            n, edges, colors, weights = structure_of_rooted(top.canonical)
            copies += len(distinct_relabelings(n, edges, colors, weights))
        assert copies == len(set(
            (e, c, w) for _, e, c, w in labeled_structures(total)
        ))


def test_sigma_equals_brute_force_rooted():
    for t in enumerate_rooted(6):
        assert symmetry_coefficient(t) == automorphism_count(t), t.encoding


def test_sigma_equals_brute_force_unrooted():
    for top in enumerate_unrooted(6):
        assert symmetry_coefficient(top) == automorphism_count(top), top.encoding


def test_labeled_count_times_sigma_is_factorial():
    for top in enumerate_unrooted(7):
        n, edges, colors, weights = structure_of_rooted(top.canonical)
        copies = len(distinct_relabelings(n, edges, colors, weights))
        assert copies * symmetry_coefficient(top) == math.factorial(n), top.encoding


def test_graft_permutation_invariance_random():
    rng = random.Random(7)
    pool = enumerate_rooted(4, root_color=WHITE)
    for _ in range(25):
        kids = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        t1 = graft(kids, BLACK, rng.randint(1, 3))
        rng.shuffle(kids)
        t2 = graft(kids, BLACK, t1.weight)
        assert t1 == t2


def test_forget_root_of_butcher_products_random():
    rng = random.Random(11)
    whites = enumerate_rooted(4, root_color=WHITE)
    blacks = enumerate_rooted(4, root_color=BLACK)
    for _ in range(30):
        u, v = rng.choice(whites), rng.choice(blacks)
        assert forget_root(butcher_product(u, v)) == forget_root(butcher_product(v, u))


def test_reroot_orbit_lemma():
    # |sym(t)| / |sym(t_v)| counts the vertices whose rooting is isomorphic to t_v.
    for top in enumerate_unrooted(6):
        sym_t = symmetry_coefficient(top)
        roots = rerootings(top.canonical)
        for tv in roots:
            matching = sum(1 for r in roots if r == tv)
            assert sym_t == symmetry_coefficient(tv) * matching, top.encoding


#: a valence bound that no tree to the weight cap reaches
UNBOUNDED = DEFAULT_WEIGHT_CAP

#: vertex weights restricted, valences not
RESTRICTED = {(c, w): UNBOUNDED for c, ws in ((WHITE, (1, 2)), (BLACK, (1, 3))) for w in ws}

#: weights and valences restricted: no black 3 has a neighbour, no white 2
#: more than one, and no black 1 more than two
VALENCE_BOUNDED = {
    (WHITE, 1): UNBOUNDED,
    (WHITE, 2): 1,
    (BLACK, 1): 2,
    (BLACK, 2): UNBOUNDED,
    (BLACK, 3): 0,
}

SELECTIONS = [None, RESTRICTED, VALENCE_BOUNDED]
SELECTION_IDS = ["all-weights", "restricted", "valence-bounded"]


def valences(t, above=0):
    """The (colour, weight, valence) of each vertex of the rooted tree ``t``,
    counted on the edges of a vertex walk of its own, not the labels that
    ``select_trees`` caches; the root has ``above`` more neighbours."""
    nodes, edges = _flatten(t)
    degree = Counter(i for edge in edges for i in edge)
    degree[0] += above
    return [(c, w, degree[i]) for i, (c, w) in enumerate(nodes)]


def admissible(t, bounds, above=0):
    """Every vertex of the rooted tree ``t`` has at most ``bounds[c, w]``
    neighbours, and (c, w) has an entry; the root has ``above`` more."""
    return all(v <= bounds.get((c, w), -1) for c, w, v in valences(t, above))


def rooted_classes(w, bounds, above=0):
    """The rooted classes of total weight <= ``w``, all or the admissible ones,
    whose root has ``above`` more neighbours."""
    return [t for t in enumerate_rooted(w) if bounds is None or admissible(t, bounds, above)]


def unrooted_classes(w, bounds):
    """The unrooted classes of total weight <= ``w``, all or the selected ones."""
    return enumerate_unrooted(w) if bounds is None else select_trees(w, bounds)


@pytest.mark.parametrize(
    "bounds, counts",
    [
        (None, [2, 3, 6, 12, 28, 65, 170, 449]),
        (RESTRICTED, [2, 2, 4, 6, 14, 27, 67, 153]),
        (VALENCE_BOUNDED, [2, 3, 5, 6, 12, 21, 46, 95]),
    ],
    ids=SELECTION_IDS,
)
def test_unrooted_counts_match_otter(bounds, counts):
    # An edge joins two colors, so no edge of a bicolored tree is symmetric, and
    # Otter's dissimilarity theorem counts the unrooted classes as classes
    # rooted at a vertex minus classes rooted at an edge: rooted_w(w) +
    # rooted_b(w) - sum_a planted_w(a) * planted_b(w - a).  The theorem holds
    # for any vertex-local restriction: a vertex rooting keeps every valence,
    # so its root has as many neighbours as children, and an edge rooting
    # joins two planted trees, whose roots have one neighbour more.
    top = len(counts)
    rooted = Counter((t.color, t.total_weight) for t in rooted_classes(top, bounds))
    planted = Counter((t.color, t.total_weight) for t in rooted_classes(top, bounds, above=1))
    unrooted = Counter(t.total_weight for t in unrooted_classes(top, bounds))
    for w in range(1, top + 1):
        edges = sum(planted[WHITE, a] * planted[BLACK, w - a] for a in range(1, w))
        otter = rooted[WHITE, w] + rooted[BLACK, w] - edges
        assert unrooted[w] == otter == counts[w - 1], w


@pytest.mark.parametrize("bounds", SELECTIONS, ids=SELECTION_IDS)
def test_unrooted_classes_match_forget_root_of_every_rooted_tree(bounds):
    # the canonicalize-every-rooted-tree algorithm as the oracle
    for w in range(1, 8):
        expected = {forget_root(t).encoding for t in rooted_classes(w, bounds)}
        assert {top.encoding for top in unrooted_classes(w, bounds)} == expected


def rerooting_sigma(top):
    """sigma of an unrooted class by counting the canonical root's copies in a
    fresh rerooting walk."""
    root = top.canonical
    return symmetry_coefficient(root) * sum(1 for r in rerootings(root) if r == root)


@pytest.mark.parametrize("bounds", SELECTIONS, ids=SELECTION_IDS)
def test_carried_sigma_matches_rerooting_count(bounds):
    for top in unrooted_classes(8, bounds):
        assert top.sigma == rerooting_sigma(top), top.encoding
    for t in rooted_classes(6, bounds):
        top = forget_root(t)
        assert top.sigma == rerooting_sigma(top), t.encoding


def clear_enumeration_caches():
    gfoperad.trees._unrooted_classes.cache_clear()
    gfoperad.trees._rooted_classes.cache_clear()


@pytest.fixture
def walks(monkeypatch):
    """The rerooting walks made from a cold enumeration cache on."""
    calls = []

    def counted(t):
        calls.append(t)
        return rerootings(t)

    clear_enumeration_caches()
    monkeypatch.setattr(gfoperad.trees, "rerootings", counted)
    return calls


def test_one_rerooting_walk_per_class(walks):
    tops = enumerate_unrooted(6)
    assert len(walks) == len(tops) == 116


def test_a_solve_and_a_compose_canonicalize_each_class_once(walks):
    # every compose of the solve and the compose after it read one cached
    # enumeration, so no class is walked twice in the process
    alpha = PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): 1})})
    series = solve_deformation(alpha, 6)
    assert len(walks) == 116
    product = GenFunction(2, 2, series)
    compose(product, [product, identity(2)], 6)
    assert len(walks) == 116


def test_a_smaller_enumeration_after_a_larger_one_matches_a_cold_one():
    clear_enumeration_caches()
    cold = [(t.encoding, t.sigma) for t in enumerate_unrooted(5)]
    clear_enumeration_caches()
    enumerate_unrooted(8)
    warm = [(t.encoding, t.sigma) for t in enumerate_unrooted(5)]
    assert warm == cold
    assert len(cold) == 51
