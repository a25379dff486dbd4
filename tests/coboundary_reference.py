"""The coboundary as the signed sum of its n+2 face maps, for checking the
closed form in ``gfoperad.deformation``.

Face k drops p_1 (k = 0), merges p_k + p_{k+1} (1 <= k <= n) or drops p_{n+1}
(k = n+1), shifting the blocks above k up by one; it enters with sign
(-1)^(n+k+1).  Each face is one ``PolySymbol.map_blocks`` call.
"""

from gfoperad.symbols import PolySymbol


def face_map_coboundary(sym: PolySymbol, arity: int) -> PolySymbol:
    """d of one arity-``arity`` symbol, face map by face map."""
    n = arity
    total = PolySymbol.zero(sym.dim, n + 1)
    for k in range(n + 2):
        rows = {b: [(b + 1, 1)] for b in range(k + 1, n + 1)}
        if 1 <= k <= n:
            rows[k] = [(k, 1), (k + 1, 1)]
        face = sym.map_blocks(rows, n + 1)
        total = total + (face.scale(-1) if (n + k + 1) % 2 else face)
    return total
