"""The index set X_k, the order-24 transformation group, and Burnside counts.

Every map is linear on (Z_k)^5 and is held as its 5x5 matrix mod k.  A
linear map is fixed by the images of the unit vectors, so equal matrices
mod k are equal maps, even when two words in the generators collide as
functions for small k.  Orbits and fixed points are computed on one
C-contiguous int16 block of X_k per k, in one pass that applies each group
element once through AffineMap.apply, the one block kernel: each output
row is an int16 multiply-add of contiguous input rows, reduced mod k as
x - x // k * k (numpy's floor divide by a scalar is far faster than its
remainder on small ints), and the image columns are indexed by Horner in
int32.  Entries are kept mod k, so a sum is at most 5 (k - 1)^2 <= 1125
within GRID_LIMIT (k <= 16) and never leaves int16.
The decomposition holds the orbits as a sort order of the block's
columns and the cut points between orbits, plus each element's
fixed-point count; the tuple-of-tuples form `.orbits` is built only when
read.  Orbit representatives are lexicographic minima, keeping every
table output deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import SizeLimit

# largest k^5 grid built, X_k's and residue_histogram's (k <= 16); it also
# keeps AffineMap.apply's sums on an int16 block, at most 5(k-1)^2, in int16
GRID_LIMIT = 1 << 20

# column recipes for the seven generators; c[i] is the i-th input column
_GEN_COLUMNS = {
    "T1": lambda c: (c[1] - c[3], c[0] - c[3], c[2] - c[3], -c[3], c[4] - c[3]),
    "T2": lambda c: (c[0], c[0] - c[3], c[0] - c[4], c[0] - c[1], c[0] - c[2]),
    "T3": lambda c: (c[1] - c[3], c[1], c[1] - c[4], c[1] - c[0], c[1] - c[2]),
    "T4": lambda c: (c[0], c[1], c[4] - c[2], c[0] + c[1] - c[3], c[4]),
    "T5": lambda c: (c[0], c[3] - c[1], c[2], c[3], c[0] + c[2] - c[4]),
    "T6": lambda c: (c[3] - c[0], c[1], c[2], c[3], c[1] + c[2] - c[4]),
    "T7": lambda c: (c[3] - c[0], c[3] - c[1], c[2], c[3],
                     c[3] + c[4] - c[0] - c[1]),
}


@dataclass(frozen=True, eq=False)
class AffineMap:
    """A linear map on (Z_k)^5 held as its 5x5 matrix mod k; equal
    matrices mod k are equal maps, since a linear map is fixed by the
    images of the unit vectors."""
    k: int
    name: str
    matrix: np.ndarray = field(repr=False)

    def apply(self, t):
        """Image of one tuple, or of every column of a (5, n) block.

        A block keeps its dtype: each output row is a multiply-add of the
        input rows at the row's nonzero entries, then the whole image is
        reduced mod k as x - x // k * k, exact for the nonnegative sums of
        entries in [0, k).  Those sums are at most 5 (k - 1)^2, so an int16
        block holds them for every k <= 16; rows are read fastest from a
        C-contiguous block, as _xk_block stores X_k."""
        rows = self.matrix.tolist()
        if isinstance(t, tuple):
            return tuple(sum(t[i] * c for i, c in enumerate(row) if c) % self.k
                         for row in rows)
        out = np.zeros_like(t)
        term = np.empty_like(t[0])
        for acc, row in zip(out, rows):
            for x, c in zip(t, row):
                if c:
                    acc += x if c == 1 else np.multiply(x, c, out=term)
        quotient = out // self.k
        quotient *= self.k
        out -= quotient
        return out

    def compose(self, other: AffineMap) -> AffineMap:
        """self after other (standard composition order)."""
        if self.k != other.k:
            raise ValueError(f"cannot compose maps mod {self.k} and mod {other.k}")
        return AffineMap(self.k, f"{self.name}*{other.name}",
                         self.matrix @ other.matrix % self.k)

    def key(self) -> bytes:
        return self.matrix.tobytes()

    def __eq__(self, other):
        return (isinstance(other, AffineMap) and self.k == other.k
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.k, self.key()))


@lru_cache(maxsize=None)
def generators(k: int) -> dict:
    """T1..T7 as matrices: each recipe applied to the unit vectors."""
    if k < 2:
        raise ValueError(f"the orbit layer needs k >= 2, got k={k}")
    units = list(np.eye(5, dtype=np.int64))
    return {name: AffineMap(k, name, np.stack(recipe(units)) % k)
            for name, recipe in _GEN_COLUMNS.items()}


def identity_map(k: int) -> AffineMap:
    if k < 2:
        raise ValueError(f"the orbit layer needs k >= 2, got k={k}")
    return AffineMap(k, "T0", np.eye(5, dtype=np.int64))


@lru_cache(maxsize=None)
def generate_group(k: int) -> tuple[AffineMap, ...]:
    """Closure of the generators under composition; the order is computed,
    never assumed (it does come out 24 for every k including 2)."""
    gens = list(generators(k).values())
    ident = identity_map(k)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = g.compose(h)
                if c.key() not in seen:
                    seen[c.key()] = c
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen.values(), key=AffineMap.key))


@lru_cache(maxsize=None)
def named_composites(k: int) -> dict:
    """The 24 named elements of the group list: the identity, the seven
    generators, T_j*T_l for j in 1..3 and l in 4..7, plus T4*T1, T6*T2,
    T5*T3 and T1*T4*T1 (right factor applied first)."""
    g = generators(k)
    named = {"T0": identity_map(k)}
    named.update(g)
    for j in (1, 2, 3):
        for ell in (4, 5, 6, 7):
            named[f"T{j}*T{ell}"] = g[f"T{j}"].compose(g[f"T{ell}"])
    named["T4*T1"] = g["T4"].compose(g["T1"])
    named["T6*T2"] = g["T6"].compose(g["T2"])
    named["T5*T3"] = g["T5"].compose(g["T3"])
    named["T1*T4*T1"] = g["T1"].compose(g["T4"]).compose(g["T1"])
    return named


# ---------------------------------------------------------------------------
# the index set X_k and its orbit decomposition
# ---------------------------------------------------------------------------

def xk_closed_form(k: int) -> int:
    return (k - 1) * (k ** 4 - 9 * k ** 3 + 36 * k ** 2 - 69 * k + 51)


@lru_cache(maxsize=None)
def _xk_block(k: int) -> np.ndarray:
    """X_k as the columns of a read-only, C-contiguous (5, |X_k|) int16
    block, in lexicographic order."""
    if k < 2:
        raise ValueError(f"the orbit layer needs k >= 2, got k={k}")
    if k ** 5 > GRID_LIMIT:
        raise SizeLimit(f"X_k enumerates k^5 = {k ** 5} vectors, "
                        f"over the cap {GRID_LIMIT} (k <= 16)")
    t = np.indices((k,) * 5, dtype=np.int16).reshape(5, -1)
    keep = (t[0] + t[1] + t[2] - t[3] - t[4]) % k != 0
    for x in t[:3]:
        keep &= (x != 0) & (x != t[3]) & (x != t[4])
    block = np.ascontiguousarray(t[:, keep])
    assert block.shape[1] == xk_closed_form(k)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def build_Xk(k: int) -> tuple[tuple[int, ...], ...]:
    """Index vectors with t1, t2, t3 distinct from 0, t4, t5 and
    t1+t2+t3 != t4+t5 (mod k), in lexicographic order."""
    return tuple(zip(*_xk_block(k).tolist()))


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    """X_k's columns listed orbit by orbit: order[bounds[i]:bounds[i+1]] are
    the column indices of orbit i, in lexicographic order, representative
    first.  fixed_points maps each group element's key to the number of
    vectors it fixes."""
    k: int
    group_order: int
    order: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    fixed_points: Mapping[bytes, int] = field(repr=False)

    @property
    def n_orbits(self) -> int:
        return len(self.bounds) - 1

    @property
    def representatives(self) -> list[tuple[int, ...]]:
        reps = _xk_block(self.k)[:, self.order[self.bounds[:-1]]]
        return list(zip(*reps.tolist()))

    def rep_sizes(self) -> list[tuple[tuple[int, ...], int]]:
        return list(zip(self.representatives, np.diff(self.bounds).tolist()))

    @cached_property
    def orbits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each orbit as a sorted tuple of vectors, representative first."""
        vectors = list(zip(*_xk_block(self.k)[:, self.order].tolist()))
        ends = self.bounds.tolist()
        return tuple(tuple(vectors[a:b]) for a, b in zip(ends, ends[1:]))


def _grid_index(block: np.ndarray, k: int) -> np.ndarray:
    """Each column's place in (Z_k)^5's lexicographic order, by Horner in
    int32 (k^5 <= GRID_LIMIT)."""
    index = block[0].astype(np.int32)
    for row in block[1:]:
        index *= k
        index += row
    return index


@lru_cache(maxsize=None)
def orbit_decompose(k: int) -> OrbitDecomposition:
    """Orbits of the group on X_k.  A vector's representative is its
    least image in lexicographic order; a stable sort by representative
    lists each orbit in lexicographic order, representative first.  The
    same pass counts each element's fixed points: the vectors whose image
    index equals their own."""
    group = generate_group(k)
    block = _xk_block(k)
    index = _grid_index(block, k)
    in_x = np.zeros(k ** 5, dtype=bool)
    in_x[index] = True
    rep, fixed_points = index.copy(), {}
    for g in group:
        image = _grid_index(g.apply(block), k)
        assert in_x[image].all(), "group does not preserve X_k"
        fixed_points[g.key()] = int(np.count_nonzero(image == index))
        np.minimum(rep, image, out=rep)
    order = np.argsort(rep, kind="stable")
    cuts = np.flatnonzero(np.diff(rep[order])) + 1
    bounds = np.concatenate(([0], cuts, [len(order)]))
    order.flags.writeable = bounds.flags.writeable = False
    return OrbitDecomposition(k=k, group_order=len(group), order=order,
                              bounds=bounds,
                              fixed_points=MappingProxyType(fixed_points))


def fixed_point_count(m: AffineMap, k: int) -> int:
    """|X_T| for a group element T, as counted by orbit_decompose."""
    if m.k != k:
        raise ValueError(f"map {m.name} is taken mod {m.k}, not mod {k}")
    count = orbit_decompose(k).fixed_points.get(m.key())
    if count is None:
        raise ValueError(f"map {m.name} is not in the group mod {k}")
    return count


def burnside_Nk(k: int) -> int:
    """Closed-form orbit count with the six-way residue correction mod 12."""
    base = k ** 5 - 10 * k ** 4 + 54 * k ** 3 - 162 * k ** 2 + 245 * k - 128
    res = k % 12
    if res in (1, 5, 7, 11):
        corr = 0
    elif res in (3, 9):
        corr = 16 * k - 64
    elif res in (2, 10):
        corr = 45 * k - 84
    elif res in (4, 8):
        corr = 45 * k - 96
    elif res == 6:
        corr = 61 * k - 148
    else:  # res == 0
        corr = 61 * k - 160
    total = base + corr
    assert total % 24 == 0
    return total // 24


def fixed_point_closed_forms(k: int) -> dict[str, int]:
    """Predicted |X_T| for every named element, from the five closed-form
    families (split on parity, mod 4, and divisibility by 3)."""
    odd = k % 2 == 1
    fam1 = k ** 3 - 5 * k ** 2 + 9 * k - 5 if odd else k ** 3 - 5 * k ** 2 + 10 * k - 7
    fam2 = (k - 1) * (k - 3) ** 2 + (0 if odd else 6 * (k - 2))
    if odd:
        fam3 = 0
    elif k % 4 == 2:
        fam3 = k - 1
    else:
        fam3 = k - 3
    fam4 = 3 * (k - 3) if k % 3 == 0 else k - 1
    forms = {"T0": xk_closed_form(k)}
    for name in ("T1", "T7", "T1*T7"):
        forms[name] = fam1
    for name in ("T2", "T3", "T4", "T5", "T6", "T1*T4*T1"):
        forms[name] = fam2
    for name in ("T1*T4", "T1*T5", "T1*T6", "T2*T7", "T3*T7", "T4*T1"):
        forms[name] = fam3
    for name in ("T2*T4", "T2*T5", "T2*T6", "T3*T4", "T3*T5", "T3*T6",
                 "T6*T2", "T5*T3"):
        forms[name] = fam4
    return forms


def tables_json(k: int) -> dict:
    dec = orbit_decompose(k)
    return {
        "k": k,
        "Xk_size": _xk_block(k).shape[1],
        "group_order": dec.group_order,
        "N_k": dec.n_orbits,
        "N_k_closed_form": burnside_Nk(k),
        "orbit_reps_with_sizes": [
            {"rep": list(rep), "size": size} for rep, size in dec.rep_sizes()
        ],
    }
