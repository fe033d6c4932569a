"""G_k(q), its subgraphs H and H1, and the K3/K4 counting routes.

The K4 routes and the kernels they read:

  naive      count_cliques over the packed uint64 rows of adjacency_rows
             (a gather of the field's difference table L, made once per
             (ctx, k) for the K3 and K4 counts alike): popcounts of
             ANDs of upper-triangle rows over edges (K3) and triangles
             (K4), in blocks of at most BLOCK_ELEMENTS bytes; the oracle,
             for q <= ORACLE_CAP[m].
  subgraph   K4 = q(q-1)/(12k) * #E(H1), edges by _edge_count, a cyclic
             correlation of packed uint64 bit rows: a phase table of about
             16 |S| bytes plus row blocks of at most BLOCK_ELEMENTS bytes.
             It reads one degree row per orbit of H1 under the stabiliser
             of {0, 1} (1/x, 1 - x and Frobenius, _h1_orbits): 257 rows
             instead of 14761 for GF(3^10), k = 2.  It reads powers(k),
             the k-th powers in exponent order, and the residue mask only:
             no exp, log or difference table.  The production path for the
             Ramsey searches.
  thm1       k^5 times residue_histogram's all-zero bin (= 2 #E(H1)), to
             which orthogonality folds Theorem 1's (Z_k)^5 sum; k <= 16.
             It checks the histogram against _edge_count, no more.
  thm2       R_k and S_k (cyclotomic numbers) and the sum of 3F2 values
             over X_k: one int64 product of the histogram with the
             process-wide weight table of k (_orbit_weights), which reads
             X_k and the histogram, not the order-24 group or its orbits;
             k <= 16, and (q-2)(q-3)|X_k| < 2^63 (checked).
  corollary  k = 2, 3, 4 closed forms from quadratic forms; k = 3, 4 also
             read 3F2 values from the histogram.

The K3 routes: subgraph (q #E(H) / 3, where H is vertex-transitive, so
#E(H) = |S| |H1| / 2 is one row: q(q-1)|H1| / (6k); the production path),
thm (the R_k closed form), corollary (k = 2, 3, 4, quadratic forms) and
naive.  clique_count's 'auto' is subgraph for both orders.

thm1, thm2 and the k = 3, 4 K4 corollaries share residue_histogram, whose
class sums come from forward pocketfft transforms contracted by one real
float64 GEMM per block (hypergeometric._class_sums); it raises InexactTransform
unless they round within 1/4, match the exact mass and the a = b count,
and obey the a <-> b swap law.  One fault there moves the three together;
the naive and subgraph routes read neither it nor the direct windowed pass
(a test makes both raise).

ROUTES holds every route by (m, method), and routes_for(k, m, q) the ones
within their limits; clique_count, verify's cross-method check and the
searches read them.  A search recounts a sampled q by every other route
that applies, and a zero by naive when it applies.

Every division the formulas perform is checked exact; a remainder raises
instead of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CycInt
from .errors import NonIntegerResult, SizeLimit
from .finite_field import (FieldContext, residue_mask, row_blocks,
                           validate_paley_params, windows)
from .hypergeometric import (_coef_vector, f32_full_grid_sum, f32_indexed,
                             residue_histogram)
from .jacobi import (EISENSTEIN, TWO_SQUARES, TWO_TIMES_SQUARE, R_k, S_k,
                     solve_quadform)
from .orbits import GRID_LIMIT, _xk_block, xk_closed_form

ORACLE_CAP = {3: 1000, 4: 300}    # largest q the naive oracle counts, by m


@dataclass(frozen=True)
class CliqueCountResult:
    k: int
    q: int
    m: int
    count: int
    method: str

    def to_json(self) -> dict:
        return {"k": self.k, "q": self.q, "m": self.m,
                "count": str(self.count), "method": self.method}


@dataclass(eq=False)
class PaleyGraph:
    ctx: FieldContext
    k: int
    in_S: np.ndarray              # bool lookup by element index

    @property
    def q(self) -> int:
        return self.ctx.q

    @cached_property
    def S(self) -> tuple[int, ...]:
        """The sorted k-th power residues."""
        return tuple(np.flatnonzero(self.in_S).tolist())


def build_graph(ctx: FieldContext, k: int) -> PaleyGraph:
    validate_paley_params(k, ctx)
    return PaleyGraph(ctx=ctx, k=k, in_S=residue_mask(ctx, k))


def _graph(ctx: FieldContext, k: int) -> PaleyGraph:
    """G_k(q) for the graph routes: build_graph runs once per (ctx, k), and
    later calls reuse its residue mask.  ctx._caches keeps the mask, not the
    graph: a cached graph would point back at ctx, and that cycle would keep
    every field of a scan alive until a full garbage collection."""
    key = ("residue mask", k)
    if key not in ctx._caches:
        ctx._caches[key] = build_graph(ctx, k).in_S
    return PaleyGraph(ctx=ctx, k=k, in_S=ctx._caches[key])


# ---------------------------------------------------------------------------
# packed adjacency words and the naive clique oracle
# ---------------------------------------------------------------------------

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _byte_lookup_count(words: np.ndarray) -> np.ndarray:
    """Set bits per byte of a contiguous uint64 array, for numpy < 2.0."""
    return _BYTE_POPCOUNT[words.view(np.uint8)]


_bitwise_count = getattr(np, "bitwise_count", _byte_lookup_count)


def row_popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits in each row (last axis) of a contiguous uint64 array."""
    return _bitwise_count(words).sum(axis=-1, dtype=np.int64)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a 2-D bool array as ceil(n_cols / 64) uint64 words: bit j
    is bit j % 64 of word j // 64, and the padding bits are 0."""
    n_rows, n_cols = bits.shape
    packed = np.zeros((n_rows, 8 * -(-n_cols // 64)), dtype=np.uint8)
    packed[:, :-(-n_cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def unpack_words(words: np.ndarray, n_cols: int) -> np.ndarray:
    """The first n_cols bits of each row of pack_words output, as bools."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n_cols,
                         bitorder="little").view(bool)


def adjacency_rows(g: PaleyGraph) -> np.ndarray:
    """(q, W) packed rows: bit b of row a is set when a ~ b (vertices are
    element indices).  ind(a - b) = ind a + L(ind b - ind a), L(0) = -1 at
    a = b; numpy's negative indexing reads L cyclically."""
    ctx, q = g.ctx, g.q
    log, one_minus = ctx.np_log[1:], ctx.log_one_minus
    rows = np.empty((q, -(-q // 64)), dtype="<u8")
    rows[0] = pack_words(g.in_S[None, :])[0]    # 0 - b = -b, and -1 is in S
    for blk in row_blocks(q - 1, q):
        d = one_minus[log[None, :] - log[blk, None]]
        adj = np.empty((len(d), q), dtype=bool)
        adj[:, 0] = g.in_S[1:][blk]           # a - 0 = a
        adj[:, 1:] = d >= 0
        d += log[blk, None]                    # ind(a - b), read mod k | q - 1
        adj[:, 1:] &= d % g.k == 0
        rows[blk.start + 1:blk.stop + 1] = pack_words(adj)
    return rows


def _above_diagonal(rows: np.ndarray) -> np.ndarray:
    """rows with bit j of row i cleared for every j <= i."""
    n, n_words = rows.shape
    i = np.arange(n)
    ones = ~np.uint64(0)
    keep = np.where(np.arange(n_words) > (i >> 6)[:, None], ones, np.uint64(0))
    # << s << 1 keeps the bits above s without a shift by 64 at s = 63
    keep[i, i >> 6] = ones << (i & 63).astype(np.uint64) << np.uint64(1)
    return rows & keep


def _set_bits(words: np.ndarray):
    """(row, bit) index pairs of the set bits of a (n, W) word array, in
    row-major order, in pieces whose index arrays and whose gathered rows
    each take at most BLOCK_ELEMENTS bytes."""
    n_words = words.shape[1]
    for blk in row_blocks(len(words), 1024 * n_words):
        bits = np.flatnonzero(unpack_words(words[blk], 64 * n_words))
        i, j = np.divmod(bits, 64 * n_words)
        i += blk.start
        for part in row_blocks(len(i), 8 * n_words):
            yield i[part], j[part]


def count_cliques(rows: np.ndarray, m: int) -> int:
    """K_m count (m <= 4) of the graph given by (n, W) packed adjacency rows.

    With up = each row masked to the columns above its own index, K2 is
    the popcount of up, K3 sums popcount(up[u] & up[v]) over the edges
    u < v, and K4 sums popcount(up[u] & up[v] & up[w]) over the triangles
    u < v < w, read from the set bits of those ANDs."""
    if m == 1:
        return len(rows)
    if m not in (2, 3, 4):
        raise ValueError(f"unsupported clique order {m}")
    up = _above_diagonal(rows)
    if m == 2:
        return int(row_popcounts(up).sum())
    count = 0
    for u, v in _set_bits(up):
        common = up[u]                         # gathers are fresh: AND in place
        common &= up[v]
        if m == 3:
            count += int(_bitwise_count(common).sum())
        else:
            for e, w in _set_bits(common):
                tri = common[e]
                tri &= up[w]
                count += int(_bitwise_count(tri).sum())
    return count


def brute_force_K(g: PaleyGraph, m: int, cap: int | None = None) -> CliqueCountResult:
    limit = cap if cap is not None else ORACLE_CAP.get(m, ORACLE_CAP[4])
    if g.q > limit:
        raise SizeLimit(f"naive oracle capped at q={limit}, got {g.q}")
    key, rows_key = ("naive", g.k, m), ("adjacency rows", g.k)
    if key not in g.ctx._caches:
        # one build serves K3 and K4: at most 125 KiB within ORACLE_CAP[3]
        if rows_key not in g.ctx._caches:
            g.ctx._caches[rows_key] = adjacency_rows(g)
        g.ctx._caches[key] = count_cliques(g.ctx._caches[rows_key], m)
    return CliqueCountResult(g.k, g.q, m, g.ctx._caches[key], "naive")


# ---------------------------------------------------------------------------
# the subgraphs H (on S_k) and H1 (neighbors of 1 inside H)
# ---------------------------------------------------------------------------

def _minus_one(g: PaleyGraph) -> np.ndarray:
    """omega^(kt) - 1 for t in [0, |S|), from powers(k) alone: plain x - 1
    in a prime field; in an extension field subtracting 1 changes only the
    constant digit of a packed index."""
    x = g.ctx.powers(g.k)
    if g.ctx.r == 1:
        return x - 1
    p = g.ctx.p
    return np.where(x % p == 0, x + (p - 1), x - 1)


def _difference_table(g: PaleyGraph) -> np.ndarray:
    """T[t] = (omega^(kt) - 1 in S) for t in [0, |S|).

    For a = omega^(ki) and b = omega^(kj) in S, a - b = -a (omega^(k(j-i)) - 1)
    with a and -1 in S, so a ~ b exactly when T[(j - i) mod |S|].  As
    |j - i| < |S|, numpy's negative indexing reads T[j - i] as exactly
    that.  T is symmetric (T[t] = T[-t]) and T[0] is False.  It reads
    powers(k) and the residue mask only."""
    return g.in_S[_minus_one(g)]


def h1_vertices(g: PaleyGraph) -> list[int]:
    """H1 = {a in S : a - 1 in S}; a = omega^(kt) is in it exactly when T[t]."""
    return np.sort(g.ctx.powers(g.k)[np.flatnonzero(_difference_table(g))]).tolist()


def subgraph_masks(g: PaleyGraph, verts: list[int]) -> np.ndarray:
    """(n, W) packed adjacency rows of the induced subgraph on verts (a
    subset of S), reindexed 0..n-1."""
    table = _difference_table(g)
    t = g.ctx.np_log[np.asarray(verts, dtype=np.int64)] // g.k
    rows = np.empty((len(t), -(-len(t) // 64)), dtype="<u8")
    for blk in row_blocks(len(t), len(t)):
        rows[blk] = pack_words(table[t[None, :] - t[blk, None]])
    return rows


def _edge_count(table: np.ndarray, t: np.ndarray, rows: np.ndarray,
                weights: np.ndarray) -> int:
    """Edges among the vertices with distinct exponents t: pairs i < j with
    T[t_j - t_i], as half the degree sum.  Only the degrees of the vertices
    rows (exponents among t) are read, rows[i] standing for weights[i]
    vertices of its degree; rows = t with unit weights is the plain sum.

    Vertex x has degree #{y in V : T[y - x]}, a cyclic correlation of the
    vertex indicator V with T: the popcount of V AND (T rotated by x).
    V and the doubled table T||T are packed into uint64 words once (bit y
    in word y // 64 at place y % 64), and row x is the window of T||T that
    starts at bit n - x.  Word w of the window starting at bit 64 b + s
    is (D[b+w] >> s) | (D[b+w+1] << (64 - s)); that shift is made once for
    each of the 64 phases s, so each row is one gather of contiguous words.

    Memory: the phase table is 64 x 2W words, about 16 |S| bytes for
    W = ceil(|S| / 64).  It is filled, and rows are read, in blocks of at
    most BLOCK_ELEMENTS bytes of words."""
    n = len(table)
    n_words = -(-n // 64)
    # one spare word: the window starting at bit n reads word 2 n_words
    bits = np.zeros((2, 64 * (2 * n_words + 1)), dtype=bool)
    bits[0, t] = True
    bits[1, :n] = bits[1, n:2 * n] = table
    words = pack_words(bits)
    del bits
    v_words, d_words = words[0, :n_words], words[1]
    s = np.arange(64, dtype=np.uint64)[:, None]
    phases = d_words[:-1] >> s
    # << 1 << (63 - s) is << (64 - s) without a shift by 64 at s = 0
    high = d_words[1:] << np.uint64(1)
    for blk in row_blocks(64, 16 * n_words):
        phases[blk] |= high << (np.uint64(63) - s[blk])
    starts = windows(phases.ravel(), n_words)
    degrees = 0
    for blk in row_blocks(len(rows), 8 * n_words):
        start = n - rows[blk]
        row = starts[(start & 63) * (2 * n_words) + (start >> 6)]
        row &= v_words
        degrees += int(row_popcounts(row) @ weights[blk])
    return _exact_div(degrees, 2, "H1 degree sum")


def _h1_orbits(g: PaleyGraph, minus_one: np.ndarray, table: np.ndarray):
    """(reps, sizes): the orbits of H1's exponents t (T[t]) under the maps
    below, each by its least member and its size.  Each map sends H1 onto
    itself and keeps adjacency inside it, so degrees in H1 are constant
    on an orbit: 1 - x is an automorphism of G that swaps 0 and 1, x^p
    one that fixes both, and 1/x one of H that fixes 1 (1/a - 1/b =
    (b - a)/(ab) with ab in S).  For x = omega^(kt):

      1/x      t -> -t
      1 - x    t -> tau(t) = pos(x - 1) + ind_S(-1), pos(y) the place of y
               in powers(k) and ind_S(-1) = ind(-1)/k: |S|/2 for odd q, 0
               for p = 2, as 1 - x = (-1)(x - 1)
      x^p      t -> p t, for r > 1 (Frobenius)

    1/x and 1 - x generate the six maps x, 1/x, 1 - x, 1/(1 - x),
    (x - 1)/x, x/(x - 1), read here as t, -t, tau(t), -tau(t), tau(-t),
    -tau(-t); their least value at each Frobenius image p^i t is the
    orbit minimum.  That minimum over i < r is taken by doubling over
    the permutation t -> p t of H1's places: ceil(log2 r) rounds of a
    gather and a minimum, the permutation squared between rounds.  tau
    is checked to map H1 into H1, one gather, before any label is
    read."""
    n = len(table)
    h1 = np.flatnonzero(table)
    pos = np.zeros(g.q, dtype=np.int64)
    pos[g.ctx.powers(g.k)] = np.arange(n)
    tau = np.zeros(n, dtype=np.int64)
    tau[h1] = (pos[minus_one[h1]] + g.ctx.log_neg_one // g.k) % n
    if not table[tau[h1]].all():
        raise AssertionError(f"G_{g.k}({g.q}): x -> 1 - x leaves H1")
    neg = n - h1                                # T[0] is False, so t > 0
    a, b = tau[h1], tau[neg]
    label = np.minimum.reduce([h1, neg, a, n - a, b, n - b])
    if g.ctx.r > 1:
        place = np.zeros(n, dtype=np.int64)
        place[h1] = np.arange(len(h1))
        frob = h1 * g.ctx.p
        step = place[frob - frob // n * n]      # place of p t; p^r t = t
        span = 1                                # label: least over p^i t, i < span
        while span < g.ctx.r:
            np.minimum(label, label[step], out=label)
            step = step[step]
            span *= 2
    sizes = np.bincount(label, minlength=n)
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


def h1_edge_count(g: PaleyGraph) -> int:
    """#E(H1) from one degree row per orbit of _h1_orbits."""
    minus_one = _minus_one(g)
    table = g.in_S[minus_one]
    return _edge_count(table, np.flatnonzero(table),
                       *_h1_orbits(g, minus_one, table))


def h_edge_count(g: PaleyGraph) -> int:
    """#E(H) = |S| |H1| / 2.  Multiplication by omega^k is an automorphism
    of H that moves exponent t to t + 1, so every vertex has the degree of
    t = 0, whose neighbours are the t with T[t]: |H1| = popcount(T)."""
    table = _difference_table(g)
    return _exact_div(len(table) * int(np.count_nonzero(table)), 2, "H degree sum")


# ---------------------------------------------------------------------------
# closed-form counters
# ---------------------------------------------------------------------------

def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise NonIntegerResult(f"{what}: {num} is not divisible by {den}")
    return num // den


def K4_subgraph_method(g: PaleyGraph) -> CliqueCountResult:
    count = _exact_div(g.q * (g.q - 1) * h1_edge_count(g), 12 * g.k, "K4 subgraph")
    return CliqueCountResult(g.k, g.q, 4, count, "subgraph")


def K3_subgraph_method(g: PaleyGraph) -> CliqueCountResult:
    count = _exact_div(g.q * h_edge_count(g), 3, "K3 via H edges")
    return CliqueCountResult(g.k, g.q, 3, count, "subgraph")


def K3_closed(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    count = _exact_div(q * (q - 1) * (R_k(ctx, k) + q - 3 * k + 1),
                       6 * k ** 3, "K3 closed form")
    return CliqueCountResult(k, q, 3, count, "thm")


def K3_corollary(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    if k == 2:
        count = _exact_div(q * (q - 1) * (q - 5), 2 ** 4 * 3, "K3 k=2")
    elif k == 3:
        c = solve_quadform(EISENSTEIN, ctx).a
        count = _exact_div(q * (q - 1) * (q + c - 8), 2 * 3 ** 4, "K3 k=3")
    elif k == 4:
        x = solve_quadform(TWO_SQUARES, ctx).a
        count = _exact_div(q * (q - 1) * (q - 6 * x - 11), 2 ** 7 * 3, "K3 k=4")
    else:
        raise ValueError("K3 corollary forms exist for k = 2, 3, 4 only")
    return CliqueCountResult(k, q, 3, count, "corollary")


def K4_thm1(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    total = f32_full_grid_sum(ctx, k).as_integer()
    count = _exact_div(q * (q - 1) * total, 24 * k ** 6, "K4 full grid")
    return CliqueCountResult(k, q, 4, count, "thm1")


@lru_cache(maxsize=None)
def _orbit_weights(k: int) -> np.ndarray:
    """W[x, j] = #{t in X_k : <x, c(t)> = j (mod k)}, c = _coef_vector, as
    a read-only (k^5, k) int64 table whose rows x run over (Z_k)^5 in
    residue_histogram's bin order.  The sum of q^2 * 3F2(t | 1) over X_k,
    Theorem 2's own sum, is then sum_j (hist @ W)[j] zeta^j.  It reads X_k
    (orbits._xk_block) only: no group and no orbit decomposition.  Summing
    each orbit's representative times its size gives the same integer,
    since the 3F2 values are constant on orbits, but not the same table.

    Start from g[c] = 1 at each c = c(t), t in X_k (c is a bijection of
    (Z_k)^5, so no two t share a cell), held with an extra axis j at
    j = 0.  Five exact axis passes follow; pass d turns axis d from c_d
    into x_d, summing over c_d the table with its j axis turned by
    x_d c_d.  The axis being turned is held first and j second, so each
    turn is two contiguous slices: a pass is O(k^7) adds, and the two
    k^6-cell buffers are reused."""
    cells = np.ravel_multi_index(_coef_vector(k, _xk_block(k)), (k,) * 5)
    g = np.bincount(cells, minlength=k ** 5)
    table = np.zeros((k, k, k ** 4), dtype=np.int64)       # [c_1, j, c_2..c_5]
    table[:, 0] = g.reshape(k, k ** 4)
    turned = np.empty_like(table)                           # [x_d, j, rest]
    for _ in range(5):
        turned.fill(0)
        for x in range(k):
            for c in range(k):
                r = x * c % k
                turned[x, r:] += table[c, :k - r]
                turned[x, :r] += table[c, k - r:]
        # the next axis to turn goes first, and x_d last
        np.copyto(table.reshape(k, k, -1, k),
                  turned.reshape(k, k, k, -1).transpose(2, 1, 3, 0))
    weights = turned.reshape(k, k ** 4, k)                  # [x_1, x_2..x_5, j]
    np.copyto(weights, table.transpose(0, 2, 1))            # table: [x_1, j, x_2..x_5]
    weights = weights.reshape(k ** 5, k)
    weights.flags.writeable = False
    return weights


def xk_orbit_sum(ctx: FieldContext, k: int) -> int:
    """Sum of q^2 * 3F2(t | 1) over X_k: one fold of residue_histogram
    through _orbit_weights(k), which reads X_k and not the group.  It is
    exact in int64 while (q - 2)(q - 3) |X_k| < 2^63, as the bins total
    (q - 2)(q - 3) and no weight exceeds |X_k|; past that, SizeLimit."""
    q = ctx.q
    if (q - 2) * (q - 3) * xk_closed_form(k) >= 2 ** 63:
        raise SizeLimit(f"the X_k fold overflows int64 at q={q}, k={k}")
    counts = residue_histogram(ctx, k) @ _orbit_weights(k)
    return CycInt.from_zeta_counts(k, counts.tolist()).as_integer()


def K4_thm2(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    xk_sum = xk_orbit_sum(ctx, k)             # first: its limits are checked
    R = R_k(ctx, k)
    S = S_k(ctx, k)
    bracket = (10 * R * R + 5 * (q - 2 * k ** 2 + 1) * R - 15 * S
               + q * q - 5 * (2 * k ** 2 - 3 * k + 2) * q
               + 15 * k ** 3 - 10 * k ** 2 + 1 + xk_sum)
    count = _exact_div(q * (q - 1) * bracket, 24 * k ** 6, "K4 reduced bracket")
    return CliqueCountResult(k, q, 4, count, "thm2")


def K4_corollary(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    if k == 2:
        y = solve_quadform(TWO_SQUARES, ctx).b
        count = _exact_div(q * (q - 1) * ((q - 9) ** 2 - 4 * y * y),
                           2 ** 9 * 3, "K4 k=2")
    elif k == 3:
        c = solve_quadform(EISENSTEIN, ctx).a
        hyp = f32_indexed(ctx, 3, (1, 1, 2, 0, 0)).as_integer()
        bracket = q * q + 5 * q * (c - 11) + 10 * c * c - 85 * c + 316 + 12 * hyp
        count = _exact_div(q * (q - 1) * bracket, 2 ** 3 * 3 ** 7, "K4 k=3")
    elif k == 4:
        x = solve_quadform(TWO_SQUARES, ctx).a
        u = solve_quadform(TWO_TIMES_SQUARE, ctx).a
        hyp1 = f32_indexed(ctx, 4, (1, 1, 3, 0, 0)).as_integer()
        hyp2 = f32_indexed(ctx, 4, (1, 2, 2, 0, 0)).as_integer()
        bracket = (q * q - 2 * q * (15 * x + 101) + 304 * x * x
                   + (930 - 40 * u) * x + 801 + 120 * u * u
                   + 12 * hyp1 + 30 * hyp2)
        count = _exact_div(q * (q - 1) * bracket, 2 ** 15 * 3, "K4 k=4")
    else:
        raise ValueError("K4 corollary forms exist for k = 2, 3, 4 only")
    return CliqueCountResult(k, q, 4, count, "corollary")


# (m, method) -> route(ctx, k).  Each entry looks its function up as a
# module attribute when called, so a wrapper set on this module (a tracer,
# a test's counter) sees every call made through the table.  The subgraph
# and naive entries share one build_graph call per (ctx, k).
ROUTES = {
    (3, "thm"): lambda ctx, k: K3_closed(ctx, k),
    (3, "subgraph"): lambda ctx, k: K3_subgraph_method(_graph(ctx, k)),
    (3, "corollary"): lambda ctx, k: K3_corollary(ctx, k),
    (3, "naive"): lambda ctx, k: brute_force_K(_graph(ctx, k), 3),
    (4, "subgraph"): lambda ctx, k: K4_subgraph_method(_graph(ctx, k)),
    (4, "thm2"): lambda ctx, k: K4_thm2(ctx, k),
    (4, "thm1"): lambda ctx, k: K4_thm1(ctx, k),
    (4, "corollary"): lambda ctx, k: K4_corollary(ctx, k),
    (4, "naive"): lambda ctx, k: brute_force_K(_graph(ctx, k), 4),
}


def routes_for(k: int, m: int, q: int) -> list[str]:
    """The ROUTES methods for K_m(G_k(q)) that apply within their limits:
    corollary for k = 2, 3, 4, thm1 and thm2 for k^5 <= GRID_LIMIT (k <= 16)
    and naive for q <= ORACLE_CAP[m]; the others have none."""
    grid = k ** 5 <= GRID_LIMIT
    applies = {"corollary": k in (2, 3, 4), "thm1": grid, "thm2": grid,
               "naive": q <= ORACLE_CAP[m]}
    return [method for order, method in ROUTES
            if order == m and applies.get(method, True)]


def clique_count(ctx: FieldContext, k: int, m: int, method: str = "auto") -> CliqueCountResult:
    """K_m(G_k(q)) by the ROUTES entry (m, method); 'auto' is the scalable
    exact route, subgraph for both m."""
    if method == "auto":
        method = "subgraph"
    if (m, method) not in ROUTES:
        raise ValueError(f"no K{m} route named {method!r}")
    return ROUTES[m, method](ctx, k)
