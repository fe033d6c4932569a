"""Scans of admissible q for zero clique counts and the implied Ramsey bounds.

A zero count K_m(G_k(q)) = 0 certifies q < R_k(m), so each search reports
the largest zero q found and the bound (zero + 1).  The m = 4 scans use the
near-linear subgraph route; the hypergeometric formulas re-verify a seeded
10% sample of the scanned range below their size caps, and every zero found
under the naive oracle's cap is confirmed by direct enumeration.

Results append to a JSON Lines cache, one record per (k, q, m), with counts
as decimal strings and the full field construction record for replay.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import CrossCheckMismatch, InvalidCongruence, MismatchAgainstPaper
from .finite_field import (build_field, is_prime, paley_congruence,
                           split_prime_power)
from .hypergeometric import HIST_K_CAP
from .paley_graph import (K3_ORACLE_CAP, K4_ORACLE_CAP, K3_closed,
                          K3_corollary, K4_corollary, K4_subgraph_method,
                          K4_thm1, K4_thm2, brute_force_K, build_graph)

THM2_CROSSCHECK_CAP = 600
CACHE_ENV = "GPALEY_CACHE"

# (m, k) -> (paper bound, witness q); the k = 5, 6 witnesses are bound - 1,
# re-verified by direct computation because only the bounds are published.
PAPER_BOUNDS = {
    (4, 2): (18, 17), (4, 3): (128, 127), (4, 4): (458, 457),
    (4, 5): (942, 941), (4, 6): (3458, 3457),
    (3, 2): (6, 5), (3, 3): (17, 16), (3, 4): (42, 41),
    (3, 5): (102, 101), (3, 6): (278, 277),
}

# ranges the searches explicitly swept (known upper bounds for R_k(4))
STATED_QMAX = {(4, 2): 40, (4, 3): 230, (4, 4): 6306}


def admissible_q(k: int, q_max: int) -> list[int]:
    """Prime powers q <= q_max with q = 1 mod k (even q) or mod 2k (odd q)."""
    out = []
    for p in range(2, q_max + 1):
        if not is_prime(p):
            continue
        q = p
        while q <= q_max:
            if paley_congruence(k, q):
                out.append(q)
            q *= p
    return sorted(out)


@dataclass(frozen=True)
class SearchRecord:
    q: int
    count: int
    method: str
    elapsed: float
    field: dict

    def to_json(self) -> dict:
        return {"q": self.q, "count": str(self.count), "method": self.method,
                "elapsed": round(self.elapsed, 6), "field": self.field}


@dataclass
class SearchReport:
    k: int
    m: int
    q_max: int
    records: list[SearchRecord] = field(default_factory=list)
    partial: bool = False
    error: str | None = None

    @property
    def zero_qs(self) -> list[int]:
        return [r.q for r in self.records if r.count == 0]

    @property
    def bound(self) -> int | None:
        zs = self.zero_qs
        return zs[-1] + 1 if zs else None

    def to_json(self) -> dict:
        return {
            "k": self.k, "m": self.m, "q_max": self.q_max,
            "zero_qs": self.zero_qs, "bound": self.bound,
            "partial": self.partial, "error": self.error,
            "records": [r.to_json() for r in self.records],
        }


def _count_one(k: int, q: int, m: int) -> tuple[int, str, dict]:
    p, r = split_prime_power(q)
    ctx = build_field(p, r)
    if m == 4:
        return K4_subgraph_method(build_graph(ctx, k)).count, "subgraph", ctx.record()
    return K3_closed(ctx, k).count, "thm", ctx.record()


def _search_worker(args: tuple[int, int, int]) -> SearchRecord:
    k, q, m = args
    t0 = time.perf_counter()
    count, method, record = _count_one(k, q, m)
    return SearchRecord(q, count, method, time.perf_counter() - t0, record)


def _load_cache(path: str) -> dict:
    out = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    out[(rec["k"], rec["q"], rec["m"])] = (
                        int(rec["count"]), rec["method"], rec["field"])
                except (ValueError, TypeError, KeyError):
                    continue          # blank or torn line: that q is recomputed
    return out


def _append_cache(path: str, k: int, m: int, fresh: list[SearchRecord]) -> None:
    text = "".join(json.dumps({
        "k": k, "q": rec.q, "m": m, "count": str(rec.count),
        "method": rec.method, "field": rec.field,
    }) + "\n" for rec in fresh)
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":       # a torn last line: start a new one
                fh.write(b"\n")
        fh.write(text.encode())


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CrossCheckMismatch(message)


def _cross_check(k: int, m: int, qs: list[int], counts: dict[int, int],
                 seed: int) -> None:
    """Re-derive a seeded 10% sample through the independent formula routes."""
    rng = random.Random(seed)
    eligible = [q for q in qs if q <= THM2_CROSSCHECK_CAP]
    if not eligible:
        return
    sample = sorted(rng.sample(eligible, max(1, len(eligible) // 10)))
    for q in sample:
        p, r = split_prime_power(q)
        ctx = build_field(p, r)
        if m == 4:
            _require(K4_thm2(ctx, k).count == counts[q], f"thm2 mismatch at q={q}")
            if k <= HIST_K_CAP:       # thm1 reads the k^5-bin histogram
                _require(K4_thm1(ctx, k).count == counts[q], f"thm1 mismatch at q={q}")
            if k in (2, 3, 4):
                _require(K4_corollary(ctx, k).count == counts[q],
                         f"corollary mismatch at q={q}")
        else:
            if k in (2, 3, 4):
                _require(K3_corollary(ctx, k).count == counts[q],
                         f"corollary mismatch at q={q}")
            if q <= K3_ORACLE_CAP:
                g = build_graph(ctx, k)
                _require(brute_force_K(g, 3).count == counts[q],
                         f"naive mismatch at q={q}")


def _confirm_zeros(k: int, m: int, zero_qs: list[int]) -> None:
    cap = K4_ORACLE_CAP if m == 4 else K3_ORACLE_CAP
    for q in zero_qs:
        if q > cap:
            continue
        p, r = split_prime_power(q)
        g = build_graph(build_field(p, r), k)
        _require(brute_force_K(g, m).count == 0,
                 f"oracle contradicts zero at q={q}")


def search_zeros(k: int, m: int, q_max: int, *, jobs: int = 1,
                 cache_path: str | None = None, cross_check: bool = True,
                 seed: int = 0) -> SearchReport:
    if m not in (3, 4):
        raise ValueError("clique order must be 3 or 4")
    if k < 2:
        raise InvalidCongruence(f"k={k} must be at least 2")
    qs = admissible_q(k, q_max)
    cache = _load_cache(cache_path) if cache_path else {}
    hits = {q: cache[(k, q, m)] for q in qs if (k, q, m) in cache}
    todo = [q for q in qs if q not in hits]

    results: dict[int, SearchRecord] = {
        q: SearchRecord(q, count, method, 0.0, record)
        for q, (count, method, record) in hits.items()
    }
    fresh: list[SearchRecord] = []
    error: str | None = None
    if todo:
        work = [(k, q, m) for q in todo]
        rows: list[SearchRecord] = []
        try:
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    for rec in pool.map(_search_worker, work, chunksize=8):
                        rows.append(rec)
            else:
                for w in work:
                    rows.append(_search_worker(w))
        except Exception as exc:   # abort but keep the completed prefix
            error = f"{type(exc).__name__}: {exc}"
        for rec in rows:
            results[rec.q] = rec
            fresh.append(rec)
    if cache_path and fresh:
        _append_cache(cache_path, k, m, sorted(fresh, key=lambda r: r.q))

    report = SearchReport(k=k, m=m, q_max=q_max,
                          records=[results[q] for q in qs if q in results],
                          partial=error is not None, error=error)
    if cross_check and not report.partial:
        counts = {q: results[q].count for q in qs}
        _cross_check(k, m, qs, counts, seed)
        _confirm_zeros(k, m, report.zero_qs)
    return report


def paper_bounds_suite(*, jobs: int = 1, margin: int = 40,
                       cache_path: str | None = None, seed: int = 0) -> dict:
    """Run all ten searches and assert the published bounds and witnesses.

    For ranges the source stated explicitly, any extra zero is an error.  For
    the searches where only the bound is published, the scan extends a margin
    past the witness and unexpected zeros beyond it are flagged, not fatal.
    """
    suite: dict = {"searches": [], "flags": []}
    for m in (4, 3):
        for k in range(2, 7):
            bound, witness = PAPER_BOUNDS[(m, k)]
            stated = STATED_QMAX.get((m, k))
            q_max = stated if stated is not None else witness + margin
            rep = search_zeros(k, m, q_max, jobs=jobs, cache_path=cache_path,
                               seed=seed)
            if rep.partial:
                raise MismatchAgainstPaper(
                    f"k={k}, m={m}: search aborted ({rep.error})")
            zeros = rep.zero_qs
            if witness not in zeros:
                raise MismatchAgainstPaper(
                    f"K_{m}(G_{k}({witness})) is not zero")
            beyond = [z for z in zeros if z > witness]
            if beyond:
                if stated is not None:
                    raise MismatchAgainstPaper(
                        f"unexpected zeros {beyond} above the k={k}, m={m} witness")
                suite["flags"].append(
                    {"k": k, "m": m, "zeros_beyond_witness": beyond})
            implied = max(z for z in zeros if z <= witness) + 1
            if implied != bound:
                raise MismatchAgainstPaper(
                    f"k={k}, m={m}: reproduced bound {implied}, published {bound}")
            suite["searches"].append({
                "k": k, "m": m, "q_max": q_max, "bound": bound,
                "witness": witness, "n_scanned": len(rep.records),
            })
    return suite
