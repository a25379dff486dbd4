"""Weighted bipartite trees, rooted and unrooted.

Vertices are colored white (``w``) or black (``b``), adjacent vertices carry
opposite colors, and every vertex has a positive integer weight.  Rooted trees
are kept in a canonical form (children sorted by their text encoding), so
structural equality coincides with isomorphism of weighted bipartite rooted
trees.  Unrooted isomorphism classes are represented by :class:`TopTree`,
whose canonical representative minimizes the rooted encoding over all
re-rootings; enumeration canonicalizes each class once and counts its
automorphisms in the same rerooting walk.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

WHITE = "w"
BLACK = "b"
COLORS = (WHITE, BLACK)

#: Hard cap on total weight for enumeration (tree counts grow quickly).
DEFAULT_WEIGHT_CAP = 10

#: Brute-force automorphism counting refuses larger trees.
AUTOMORPHISM_SIZE_LIMIT = 10


def opposite(color: str) -> str:
    if color == WHITE:
        return BLACK
    if color == BLACK:
        return WHITE
    raise ValueError(f"unknown color {color!r}")


class RootedTree:
    """Immutable rooted weighted bipartite tree.

    ``children`` are stored sorted by canonical encoding, so two trees compare
    equal exactly when they are isomorphic as rooted weighted bipartite trees.
    """

    __slots__ = ("color", "weight", "children", "encoding", "size", "total_weight", "_hash")

    def __init__(self, color: str, weight: int, children: tuple["RootedTree", ...] = ()):
        if color not in COLORS:
            raise ValueError(f"color must be {WHITE!r} or {BLACK!r}, got {color!r}")
        if not isinstance(weight, int) or weight < 1:
            raise ValueError(f"vertex weight must be a positive integer, got {weight!r}")
        children = tuple(sorted(children, key=lambda t: t.encoding))
        for child in children:
            if child.color == color:
                raise ValueError(
                    f"bipartite violation: child root color {child.color!r} equals parent color"
                )
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "children", children)
        if children:
            enc = f"{color}{weight}({','.join(c.encoding for c in children)})"
        else:
            enc = f"{color}{weight}"
        object.__setattr__(self, "encoding", enc)
        object.__setattr__(self, "size", 1 + sum(c.size for c in children))
        object.__setattr__(self, "total_weight", weight + sum(c.total_weight for c in children))
        object.__setattr__(self, "_hash", hash(enc))

    def __setattr__(self, name, value):
        raise AttributeError("RootedTree is immutable")

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.encoding == other.encoding

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RootedTree({self.encoding!r})"


class TopTree:
    """Unrooted (topological) isomorphism class of a weighted bipartite tree.

    ``sigma`` is its automorphism count, found with the canonical root by the
    rerooting walk that classifies the tree (:func:`forget_root`,
    :func:`enumerate_unrooted`).
    """

    __slots__ = ("canonical", "sigma")

    def __init__(self, canonical: RootedTree, sigma: int):
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name, value):
        raise AttributeError("TopTree is immutable")

    @property
    def encoding(self) -> str:
        return self.canonical.encoding

    @property
    def size(self) -> int:
        return self.canonical.size

    @property
    def total_weight(self) -> int:
        return self.canonical.total_weight

    def __eq__(self, other):
        return isinstance(other, TopTree) and self.encoding == other.encoding

    def __hash__(self):
        return hash(("top", self.encoding))

    def __repr__(self):
        return f"TopTree({self.encoding!r})"


def leaf(color: str, weight: int) -> RootedTree:
    """Single-vertex tree with the given color and weight."""
    return RootedTree(color, weight)


def graft(children, color: str, weight: int) -> RootedTree:
    """Connect the roots of ``children`` to a new root of the given color/weight.

    Invariant under permutations of ``children``; raises on a color clash.
    """
    return RootedTree(color, weight, tuple(children))


def canonical_encoding(t: RootedTree) -> str:
    """Deterministic text form, e.g. ``b2(w1,w1(b3))``.

    Equal encodings characterize isomorphic rooted weighted bipartite trees.
    """
    return t.encoding


def butcher_product(u: RootedTree, v: RootedTree) -> RootedTree:
    """Graft the root of ``v`` as an extra child of the root of ``u``."""
    if u.color == v.color:
        raise ValueError("Butcher product needs roots of opposite colors")
    return RootedTree(u.color, u.weight, u.children + (v,))


@lru_cache(maxsize=None)
def symmetry_coefficient(t) -> int:
    """Automorphism count sigma(t).

    For a rooted tree: product over groups of isomorphic children of
    mu! times the children's coefficients (automorphisms fixing the root).
    For a :class:`TopTree`: automorphisms of the unrooted tree, carried on
    the class since its rerooting walk (see :func:`_top_tree`).
    """
    if isinstance(t, TopTree):
        return t.sigma
    sigma = 1
    for _, group in itertools.groupby(t.children, key=lambda c: c.encoding):
        mu = len(list(group))
        for k in range(2, mu + 1):
            sigma *= k
    for child in t.children:
        sigma *= symmetry_coefficient(child)
    return sigma


def _flatten(t: RootedTree):
    """Vertex labels and edge set of a rooted tree, root at index 0."""
    nodes = []
    edges = set()

    def visit(node, parent_idx):
        idx = len(nodes)
        nodes.append((node.color, node.weight))
        if parent_idx is not None:
            edges.add(frozenset((parent_idx, idx)))
        for child in node.children:
            visit(child, idx)

    visit(t, None)
    return nodes, edges


def _grouped_permutations(nodes, fixed=()):
    """Yield label-preserving vertex permutations as index tuples.

    Vertices listed in ``fixed`` must map to themselves.
    """
    n = len(nodes)
    groups = {}
    for idx, label in enumerate(nodes):
        if idx in fixed:
            continue
        groups.setdefault(label, []).append(idx)
    group_lists = list(groups.values())
    for images in itertools.product(*(itertools.permutations(g) for g in group_lists)):
        perm = list(range(n))
        for sources, targets in zip(group_lists, images):
            for s, tgt in zip(sources, targets):
                perm[s] = tgt
        yield tuple(perm)


def automorphism_count(t) -> int:
    """Count structure-preserving vertex permutations by brute force.

    Rooted trees fix the root; :class:`TopTree` counts unrooted automorphisms.
    Oracle for :func:`symmetry_coefficient`; limited to small trees.
    """
    rooted = not isinstance(t, TopTree)
    tree = t if rooted else t.canonical
    if tree.size > AUTOMORPHISM_SIZE_LIMIT:
        raise ValueError(f"tree has {tree.size} vertices, limit is {AUTOMORPHISM_SIZE_LIMIT}")
    nodes, edges = _flatten(tree)
    count = 0
    fixed = (0,) if rooted else ()
    edge_pairs = [tuple(e) for e in edges]
    for perm in _grouped_permutations(nodes, fixed=fixed):
        if all(frozenset((perm[a], perm[b])) in edges for a, b in edge_pairs):
            count += 1
    return count


def rerootings(t: RootedTree) -> list[RootedTree]:
    """``t`` re-rooted at each of its vertices, in preorder of ``t``, root first."""
    out = []

    def walk(node, above):
        # ``above`` is empty at the root, else the rest of the tree seen from ``node``
        out.append(RootedTree(node.color, node.weight, node.children + above))
        for i, child in enumerate(node.children):
            rest = node.children[:i] + node.children[i + 1:] + above
            walk(child, (RootedTree(node.color, node.weight, rest),))

    walk(t, ())
    return out


def _top_tree(roots) -> TopTree:
    """The class whose rerootings are ``roots``; the canonical root minimizes
    the encoding.  The vertices whose rooting is isomorphic to the canonical
    one form an orbit of the unrooted automorphisms, and the stabilizer is the
    rooted automorphism group, so sigma = sigma(canonical) * copies.
    """
    canonical = min(roots, key=lambda r: r.encoding)
    copies = sum(1 for r in roots if r == canonical)
    return TopTree(canonical, symmetry_coefficient(canonical) * copies)


def forget_root(t: RootedTree) -> TopTree:
    """Unrooted class of ``t``; canonical root minimizes the encoding."""
    return _top_tree(rerootings(t))


def _multisets_with_weight(pool, target):
    """Multisets (as tuples) from ``pool`` whose total weights sum to ``target``.

    ``pool`` must be sorted by total weight first; indices are chosen
    non-decreasing so every multiset appears exactly once.
    """
    results = []

    def rec(start, remaining, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            w = pool[i].total_weight
            if w > remaining:
                break  # the pool is sorted, so every later tree is heavier
            acc.append(pool[i])
            rec(i, remaining - w, acc)
            acc.pop()

    rec(0, target, [])
    return results


def _rooted_table(max_total_weight, allowed_weights):
    """All rooted classes keyed by (color, exact total weight)."""
    table = {}
    for total in range(1, max_total_weight + 1):
        for color in COLORS:
            out = []
            child_color = opposite(color)
            pool = [
                t
                for w in range(1, total)
                for t in table.get((child_color, w), ())
            ]
            pool.sort(key=lambda t: (t.total_weight, t.encoding))
            allowed = allowed_weights.get(color) if allowed_weights else None
            root_weights = range(1, total + 1) if allowed is None else sorted(allowed)
            for rw in root_weights:
                if rw > total:
                    break
                rest = total - rw
                if rest == 0:
                    out.append(RootedTree(color, rw))
                    continue
                for combo in _multisets_with_weight(pool, rest):
                    out.append(RootedTree(color, rw, combo))
            table[(color, total)] = out
    return table


def enumerate_rooted(
    max_total_weight: int,
    root_color: str | None = None,
    *,
    allowed_weights: dict[str, set[int] | None] | None = None,
) -> list[RootedTree]:
    """All rooted isomorphism classes with total weight <= ``max_total_weight``.

    ``allowed_weights`` optionally restricts vertex weights per color (used to
    prune expansions where some series orders vanish identically).
    """
    if max_total_weight > DEFAULT_WEIGHT_CAP:
        raise ValueError(
            f"max total weight {max_total_weight} exceeds cap {DEFAULT_WEIGHT_CAP}"
        )
    if max_total_weight < 1:
        return []
    table = _rooted_table(max_total_weight, allowed_weights or {})
    colors = COLORS if root_color is None else (root_color,)
    out = []
    for total in range(1, max_total_weight + 1):
        for color in colors:
            out.extend(table.get((color, total), ()))
    out.sort(key=lambda t: (t.total_weight, t.encoding))
    return out


def enumerate_unrooted(
    max_total_weight: int,
    *,
    allowed_weights: dict[str, set[int] | None] | None = None,
) -> list[TopTree]:
    """Unrooted classes of total weight <= ``max_total_weight``, each canonicalized once."""
    classes = {}
    for t in enumerate_rooted(max_total_weight, allowed_weights=allowed_weights):
        if t.encoding not in classes:
            roots = rerootings(t)
            top = _top_tree(roots)
            classes.update((r.encoding, top) for r in roots)
    return sorted(set(classes.values()), key=lambda t: (t.total_weight, t.encoding))
