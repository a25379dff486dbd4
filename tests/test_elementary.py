import random
from fractions import Fraction

from gfoperad.elementary import elementary_differential, elementary_function
from gfoperad.symbols import FormalSeries, PolySymbol, p_key, x_key
from gfoperad.trees import (
    BLACK,
    WHITE,
    butcher_product,
    enumerate_rooted,
    forget_root,
    graft,
    leaf,
    rerootings,
)


def mono(dim, blocks, powers, coeff=1):
    return PolySymbol(dim, blocks, {tuple(sorted(powers)): Fraction(coeff)})


def pair_m1():
    # m = 1: F^(1) = p^2, G^(1) = x^2 on shape dim=1, blocks=1
    f = FormalSeries(1, 1, {1: mono(1, 1, [(p_key(1, 1), 2)])}, graded=False)
    g = FormalSeries(1, 1, {1: mono(1, 1, [(x_key(1), 2)])}, graded=False)
    return f, g


def random_pair(rng, dim, orders, max_deg=3, blocks=1):
    def rand_series():
        series = {}
        variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
        variables += [x_key(i) for i in range(1, dim + 1)]
        for order in orders:
            acc = {}
            for _ in range(3):
                m = {}
                for _ in range(rng.randint(1, max_deg)):
                    v = rng.choice(variables)
                    m[v] = m.get(v, 0) + 1
                key = tuple(sorted(m.items()))
                acc[key] = acc.get(key, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            series[order] = PolySymbol(dim, blocks, acc)
        return FormalSeries(dim, blocks, series, graded=False)

    return rand_series(), rand_series()


def pair(a, b) -> PolySymbol:
    """Natural pairing of two differentials: the sum of component products."""
    total = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        total = total + u * v
    return total


def test_dc_white_leaf():
    f, g = pair_m1()
    dc = elementary_differential(leaf(WHITE, 1), f, (g,))
    assert dc == (mono(1, 1, [(x_key(1), 1)], 2),)


def test_dc_black_root_with_white_child():
    f, g = pair_m1()
    dc = elementary_differential(graft([leaf(WHITE, 1)], BLACK, 1), f, (g,))
    # grad_p^2 F * grad_x G = 2 * 2x = 4x
    assert dc == (mono(1, 1, [(x_key(1), 1)], 4),)


def test_dc_missing_order_is_zero():
    f, g = pair_m1()
    dc = elementary_differential(leaf(WHITE, 7), f, (g,))
    assert all(c.is_zero() for c in dc)


def test_c_edge_tree():
    f, g = pair_m1()
    edge = graft([leaf(BLACK, 1)], WHITE, 1)
    c = elementary_function(edge, f, (g,))
    assert c == mono(1, 1, [(x_key(1), 1), (p_key(1, 1), 1)], 4)
    # root choice is irrelevant
    assert elementary_function(graft([leaf(WHITE, 1)], BLACK, 1), f, (g,)) == c


def test_c_cherry():
    f, g = pair_m1()
    cherry = graft([leaf(WHITE, 1), leaf(WHITE, 1)], BLACK, 1)
    assert elementary_function(cherry, f, (g,)) == mono(1, 1, [(x_key(1), 2)], 8)


def test_c_missing_order_is_zero():
    f, g = pair_m1()
    assert elementary_function(leaf(WHITE, 2), f, (g,)).is_zero()


def test_root_invariance_random_data():
    rng = random.Random(23)
    f, g = random_pair(rng, 2, orders=range(1, 7))
    for t in enumerate_rooted(6):
        memo = {}
        values = {elementary_function(r, f, (g,), memo=memo) for r in rerootings(t)}
        assert len(values) == 1, t.encoding


def check_pairing_lemma(slots):
    # with n slots the differentials have n*dim components, paired one to one
    rng = random.Random(29)
    f, g = random_pair(rng, 2, orders=range(1, 6), blocks=slots)
    gs = (g,) + tuple(random_pair(rng, 2, range(1, 6), blocks=slots)[1] for _ in range(1, slots))
    whites = enumerate_rooted(4, root_color=WHITE)
    blacks = enumerate_rooted(4, root_color=BLACK)
    for _ in range(25):
        u = rng.choice(whites)
        v = rng.choice(blacks)
        memo = {}
        du = elementary_differential(u, f, gs, memo=memo)
        dv = elementary_differential(v, f, gs, memo=memo)
        assert len(du) == len(dv) == 2 * slots
        paired = pair(du, dv)
        assert paired == elementary_function(butcher_product(u, v), f, gs, memo=memo)
        assert paired == elementary_function(butcher_product(v, u), f, gs, memo=memo)


def test_butcher_product_pairing_lemma():
    check_pairing_lemma(1)


def test_butcher_product_pairing_lemma_two_slots():
    check_pairing_lemma(2)


def test_white_vertex_sums_the_slots():
    f, g = pair_m1()
    h = FormalSeries(1, 1, {1: mono(1, 1, [(x_key(1), 3)])}, graded=False)
    # DC of a white leaf concatenates the slot gradients; C sums the slots
    assert elementary_differential(leaf(WHITE, 1), f, (g, h)) == (
        mono(1, 1, [(x_key(1), 1)], 2),
        mono(1, 1, [(x_key(1), 2)], 3),
    )
    assert elementary_function(leaf(WHITE, 1), f, (g, h)) == g.order(1) + h.order(1)


def test_elementary_function_on_top_tree():
    f, g = pair_m1()
    edge = graft([leaf(BLACK, 1)], WHITE, 1)
    assert elementary_function(forget_root(edge), f, (g,)) == elementary_function(edge, f, (g,))
