"""G_k(q), its subgraphs H and H1, and the K3/K4 counting routes.

The K4 routes and the kernels they read:

  naive      count_cliques over the packed uint64 rows of adjacency_rows
             (a gather of the field's difference table L): popcounts of
             ANDs of upper-triangle rows over edges (K3) and triangles
             (K4), in blocks of at most BLOCK_ELEMENTS bytes; the oracle,
             for q <= ORACLE_CAP[m].
  subgraph   K4 = q(q-1)/(12k) * #E(H1), edges by _edge_count, a cyclic
             correlation of packed uint64 bit rows: a phase table of about
             16 |S| bytes plus row blocks of at most BLOCK_ELEMENTS bytes,
             about 0.03 s for GF(3^10), k = 2.  It reads np_exp and the
             residue mask only, no log or difference table.  The production
             path for the Ramsey searches.
  thm1       k^5 times residue_histogram's all-zero bin (= 2 #E(H1)), to
             which orthogonality folds Theorem 1's (Z_k)^5 sum; k <= 8.
             It checks the histogram against _edge_count, no more.
  thm2       R_k and S_k (cyclotomic numbers) and one 3F2 per X_k orbit, read
             from the histogram for k <= 8.
  corollary  k = 2, 3, 4 closed forms from quadratic forms; k = 3, 4 also
             read 3F2 values from the histogram.

The K3 routes: thm (the R_k closed form), subgraph (q #E(H) / 3 by
_edge_count), corollary (k = 2, 3, 4, quadratic forms) and naive.

thm1, thm2 and the k = 3, 4 K4 corollaries share residue_histogram, so one
fault there moves them together; the naive and subgraph routes do not.

ROUTES holds every route by (m, method), and routes_for(k, m, q) the ones
within their limits; clique_count, verify's cross-method check and the
searches read them.  A search recounts a sampled q by every other route
that applies, and a zero by naive when it applies.

Every division the formulas perform is checked exact; a remainder raises
instead of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonIntegerResult, SizeLimit
from .finite_field import (FieldContext, residue_mask, row_blocks,
                           validate_paley_params)
from .hypergeometric import HIST_K_CAP, f32_full_grid_sum, f32_indexed
from .jacobi import (EISENSTEIN, TWO_SQUARES, TWO_TIMES_SQUARE, R_k, S_k,
                     solve_quadform)
from .orbits import orbit_decompose

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
        common = up[u] & up[v]
        if m == 3:
            count += int(row_popcounts(common).sum())
        else:
            for e, w in _set_bits(common):
                count += int(row_popcounts(common[e] & up[w]).sum())
    return count


def brute_force_K(g: PaleyGraph, m: int, cap: int | None = None) -> CliqueCountResult:
    limit = cap if cap is not None else ORACLE_CAP.get(m, ORACLE_CAP[4])
    if g.q > limit:
        raise SizeLimit(f"naive oracle capped at q={limit}, got {g.q}")
    key = ("naive", g.k, m)
    if key not in g.ctx._caches:
        g.ctx._caches[key] = count_cliques(adjacency_rows(g), m)
    return CliqueCountResult(g.k, g.q, m, g.ctx._caches[key], "naive")


# ---------------------------------------------------------------------------
# the subgraphs H (on S_k) and H1 (neighbors of 1 inside H)
# ---------------------------------------------------------------------------

def _difference_table(g: PaleyGraph) -> np.ndarray:
    """T[t] = (omega^(kt) - 1 in S) for t in [0, |S|).

    For a = omega^(ki) and b = omega^(kj) in S, a - b = -a (omega^(k(j-i)) - 1)
    with a and -1 in S, so a ~ b exactly when T[(j - i) mod |S|].  As
    |j - i| < |S|, numpy's negative indexing reads T[j - i] as exactly
    that.  T is symmetric (T[t] = T[-t]) and T[0] is False.

    It reads np_exp and the residue mask only: subtracting 1 changes only
    the constant digit of a packed index."""
    x = g.ctx.np_exp[::g.k]                     # omega^(kt)
    p = g.ctx.p
    return g.in_S[np.where(x % p == 0, x + (p - 1), x - 1)]


def h1_vertices(g: PaleyGraph) -> list[int]:
    """H1 = {a in S : a - 1 in S}; a = omega^(kt) is in it exactly when T[t]."""
    return np.sort(g.ctx.np_exp[g.k * np.flatnonzero(_difference_table(g))]).tolist()


def subgraph_masks(g: PaleyGraph, verts: list[int]) -> np.ndarray:
    """(n, W) packed adjacency rows of the induced subgraph on verts (a
    subset of S), reindexed 0..n-1."""
    table = _difference_table(g)
    t = g.ctx.np_log[np.asarray(verts, dtype=np.int64)] // g.k
    rows = np.empty((len(t), -(-len(t) // 64)), dtype="<u8")
    for blk in row_blocks(len(t), len(t)):
        rows[blk] = pack_words(table[t[None, :] - t[blk, None]])
    return rows


def _edge_count(table: np.ndarray, t: np.ndarray) -> int:
    """Edges among the vertices with distinct exponents t: pairs i < j with
    T[t_j - t_i].

    Vertex i has degree #{x in V : T[x - t_i]}, a cyclic correlation of the
    vertex indicator V with T: the popcount of V AND (T rotated by t_i).
    V and the doubled table T||T are packed into uint64 words once (bit x
    in word x // 64 at place x % 64), and row i is the window of T||T that
    starts at bit n - t_i.  Word w of the window starting at bit 64 b + s
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
    windows = sliding_window_view(phases.ravel(), n_words)
    degrees = 0
    for blk in row_blocks(len(t), 8 * n_words):
        start = n - t[blk]
        row = windows[(start & 63) * (2 * n_words) + (start >> 6)]
        row &= v_words
        degrees += int(_bitwise_count(row).sum())
    return _exact_div(degrees, 2, "H/H1 degree sum")


def h1_edge_count(g: PaleyGraph) -> int:
    table = _difference_table(g)
    return _edge_count(table, np.flatnonzero(table))


def h_edge_count(g: PaleyGraph) -> int:
    table = _difference_table(g)
    return _edge_count(table, np.arange(len(table)))


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


def xk_orbit_sum(ctx: FieldContext, k: int) -> int:
    """Sum of q^2 * 3F2(t | 1) over X_k, one evaluation per orbit."""
    dec = orbit_decompose(k)
    total = None
    for rep, size in dec.rep_sizes():
        v = f32_indexed(ctx, k, rep).value * size
        total = v if total is None else total + v
    return total.as_integer()


def K4_thm2(ctx: FieldContext, k: int) -> CliqueCountResult:
    validate_paley_params(k, ctx)
    q = ctx.q
    R = R_k(ctx, k)
    S = S_k(ctx, k)
    bracket = (10 * R * R + 5 * (q - 2 * k ** 2 + 1) * R - 15 * S
               + q * q - 5 * (2 * k ** 2 - 3 * k + 2) * q
               + 15 * k ** 3 - 10 * k ** 2 + 1
               + xk_orbit_sum(ctx, k))
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
        hyp = f32_indexed(ctx, 3, (1, 1, 2, 0, 0)).value.as_integer()
        bracket = q * q + 5 * q * (c - 11) + 10 * c * c - 85 * c + 316 + 12 * hyp
        count = _exact_div(q * (q - 1) * bracket, 2 ** 3 * 3 ** 7, "K4 k=3")
    elif k == 4:
        x = solve_quadform(TWO_SQUARES, ctx).a
        u = solve_quadform(TWO_TIMES_SQUARE, ctx).a
        hyp1 = f32_indexed(ctx, 4, (1, 1, 3, 0, 0)).value.as_integer()
        hyp2 = f32_indexed(ctx, 4, (1, 2, 2, 0, 0)).value.as_integer()
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
    corollary for k = 2, 3, 4, thm1 for k <= HIST_K_CAP and naive for
    q <= ORACLE_CAP[m]; the others have none."""
    applies = {"corollary": k in (2, 3, 4), "thm1": k <= HIST_K_CAP,
               "naive": q <= ORACLE_CAP[m]}
    return [method for order, method in ROUTES
            if order == m and applies.get(method, True)]


def clique_count(ctx: FieldContext, k: int, m: int, method: str = "auto") -> CliqueCountResult:
    """K_m(G_k(q)) by the ROUTES entry (m, method); 'auto' is the scalable
    exact route, subgraph for m = 4 and thm for m = 3."""
    if method == "auto":
        method = "thm" if m == 3 else "subgraph"
    if (m, method) not in ROUTES:
        raise ValueError(f"no K{m} route named {method!r}")
    return ROUTES[m, method](ctx, k)
