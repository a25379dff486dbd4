"""Polynomial Poisson structures: antisymmetric bivectors with Jacobi validation."""

from __future__ import annotations

from dataclasses import dataclass

from gfoperad.symbols import PolySymbol, json_check, json_dumps, json_loads, poly_from_obj, x_key


@dataclass
class PoissonReport:
    antisymmetric: bool
    jacobi: bool
    failing_triple: tuple | None

    @property
    def ok(self) -> bool:
        return self.antisymmetric and self.jacobi


class PoissonStructure:
    """alpha^{ij}(x): polynomial entries in x only, stored for i < j."""

    __slots__ = ("dim", "entries", "max_degree")

    def __init__(self, dim: int, entries: dict):
        clean = {}
        for (i, j), sym in entries.items():
            if type(i) is not int or type(j) is not int or not (1 <= i < j <= dim):
                raise ValueError(f"entries must be indexed with 1 <= i < j <= dim, got {(i, j)}")
            if sym.blocks != 0 or sym.dim != dim:
                raise ValueError(f"entry {(i, j)} must be an x-only symbol of dim {dim}")
            if not sym.is_zero():
                clean[(i, j)] = sym
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(
            self, "max_degree", max((s.max_x_degree() for s in clean.values()), default=0)
        )

    def __setattr__(self, name, value):
        raise AttributeError("PoissonStructure is immutable")

    def entry(self, i: int, j: int) -> PolySymbol:
        """alpha^{ij} including the sign convention alpha^{ji} = -alpha^{ij}."""
        if i == j:
            return PolySymbol.zero(self.dim, 0)
        if i < j:
            return self.entries.get((i, j), PolySymbol.zero(self.dim, 0))
        return -self.entries.get((j, i), PolySymbol.zero(self.dim, 0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, PoissonStructure)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        body = ", ".join(f"a[{i}{j}]={s}" for (i, j), s in sorted(self.entries.items()))
        return f"PoissonStructure(dim={self.dim}, {body or '0'})"

    @staticmethod
    def from_matrix(dim: int, matrix) -> "PoissonStructure":
        """Build from a full d x d symbol matrix, checking antisymmetry exactly."""
        entries = {}
        for i in range(1, dim + 1):
            if not matrix[i - 1][i - 1].is_zero():
                raise ValueError(f"diagonal entry ({i},{i}) is nonzero")
            for j in range(i + 1, dim + 1):
                if matrix[i - 1][j - 1] != -matrix[j - 1][i - 1]:
                    raise ValueError(f"matrix is not antisymmetric at ({i},{j})")
                entries[(i, j)] = matrix[i - 1][j - 1]
        return PoissonStructure(dim, entries)


def jacobiator(alpha: PoissonStructure, i: int, j: int, k: int) -> PolySymbol:
    """sum_m alpha^{im} d_m alpha^{jk} + cyclic; zero exactly iff Jacobi holds."""
    total = PolySymbol.zero(alpha.dim, 0)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m in range(1, alpha.dim + 1):
            total = total + alpha.entry(a, m) * alpha.entry(b, c).diff(x_key(m))
    return total


def validate_poisson(alpha: PoissonStructure) -> PoissonReport:
    """Check antisymmetry (structural) and the Jacobi identity exactly."""
    for (i, j), _ in alpha.entries.items():
        if not (i < j):
            return PoissonReport(False, False, (i, j, 0))
    for i in range(1, alpha.dim + 1):
        for j in range(i + 1, alpha.dim + 1):
            for k in range(j + 1, alpha.dim + 1):
                if not jacobiator(alpha, i, j, k).is_zero():
                    return PoissonReport(True, False, (i, j, k))
    return PoissonReport(True, True, None)


def poisson_from_obj(obj) -> PoissonStructure:
    json_check(obj, dict, "Poisson structure")
    dim = json_check(obj["dim"], int, "dim")
    entries = {}
    for e in json_check(obj["entries"], list, "entries"):
        json_check(e, dict, "entry")
        i = json_check(e["i"], int, "entry index i")
        j = json_check(e["j"], int, "entry index j")
        sym = poly_from_obj(e["terms"], dim, 0)
        # entries that share (i, j) add, as repeated monomials do
        entries[(i, j)] = entries[(i, j)] + sym if (i, j) in entries else sym
    return PoissonStructure(dim, entries)


def poisson_dumps(alpha: PoissonStructure) -> str:
    entries = [{"i": i, "j": j, "terms": sym} for (i, j), sym in sorted(alpha.entries.items())]
    return json_dumps({"dim": alpha.dim, "entries": entries})


def poisson_loads(text: str) -> PoissonStructure:
    return poisson_from_obj(json_loads(text))
