"""Scans of admissible q for zero clique counts and the implied Ramsey bounds.

A zero count K_m(G_k(q)) = 0 certifies q < R_k(m), so each search reports
the largest zero q found and the bound (zero + 1).  Each q is one step on
one field build: the count through clique_count's auto route (subgraph for
both m), then that q's checks on the same
field, by one rule: a q in a seeded 10% sample of the range up to
THM2_CROSSCHECK_CAP is recounted by every other route of
paley_graph.routes_for, and a zero by the naive oracle when it applies.
The field build is deterministic, so a rebuilt field would be
byte-identical and sharing one gives up no independence.

Results append to a JSON Lines cache, one record per (k, q, m), with counts
as decimal strings and the full field construction record for replay.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from .errors import CrossCheckMismatch, InvalidCongruence, MismatchAgainstPaper
from .finite_field import (build_field, paley_congruence, prime_powers,
                           split_prime_power)
from .paley_graph import ROUTES, CliqueCountResult, clique_count, routes_for

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
# how far the other searches scan past their witness
WITNESS_MARGIN = 40


def admissible_q(k: int, q_max: int) -> list[int]:
    """Prime powers q <= q_max with q = 1 mod k (even q) or mod 2k (odd q)."""
    return [q for q in prime_powers(q_max) if paley_congruence(k, q)]


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


def _load_cache(path: str | None) -> dict:
    out = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    out[(rec["k"], rec["q"], rec["m"])] = SearchRecord(
                        rec["q"], int(rec["count"]), rec["method"], 0.0,
                        rec["field"])
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


def _require(check: CliqueCountResult, rec: SearchRecord) -> None:
    if check.count != rec.count:
        raise CrossCheckMismatch(
            f"{check.method} mismatch at q={rec.q}: {check.count} against "
            f"the {rec.method} count {rec.count}")


def _rechecks(k: int, m: int, q: int, rec: SearchRecord, sampled: bool) -> list[str]:
    """The routes_for(k, m, q) methods that recount rec: every one but its
    own when q is sampled, else naive when rec is a zero and naive applies."""
    return [method for method in routes_for(k, m, q) if method != rec.method
            and (sampled or (method == "naive" and rec.count == 0))]


def _search_q(args: tuple) -> SearchRecord:
    """One q of a search: its count and its checks on one field build.

    args is (k, q, m, rec, sampled).  With rec None, q is counted through
    clique_count's auto route; otherwise rec is a cached record, taken as
    it is.  On the same field, the record is recounted by each _rechecks
    method, and returned only when every recount agrees."""
    k, q, m, rec, sampled = args
    t0 = time.perf_counter()
    ctx = build_field(*split_prime_power(q))
    if rec is None:
        res = clique_count(ctx, k, m)
        rec = SearchRecord(q, res.count, res.method, time.perf_counter() - t0,
                           ctx.record())
    for method in _rechecks(k, m, q, rec, sampled):
        _require(ROUTES[m, method](ctx, k), rec)
    return rec


def search_zeros(k: int, m: int, q_max: int, *, jobs: int = 1,
                 cache_path: str | None = None, seed: int = 0) -> SearchReport:
    """K_m(G_k(q)) for every admissible q <= q_max, each count checked.

    Each q is one _search_q step on one field build, in worker processes
    when jobs > 1.  Before the scan, a seeded 10% of the q up to
    THM2_CROSSCHECK_CAP are drawn.  One rule checks the counts: a sampled q
    is recounted by every other method of paley_graph.routes_for(k, m, q),
    and a zero by the naive oracle when routes_for lists it (q up to
    ORACLE_CAP[m]).

    A cached record is reused without building its field, unless _rechecks
    lists a method for it (its q is sampled, or it is a zero the oracle can
    recount): then it goes through the same checks, with the cached count in
    place of a fresh one.  A
    recount that disagrees raises CrossCheckMismatch.  Only fresh records
    whose checks passed are appended to the cache, so a count that failed
    its checks is never cached.  Any other per-q error stops the scan: the
    report is partial, holding the steps finished before it and the cached
    records that needed no step.
    """
    if m not in (3, 4):
        raise ValueError("clique order must be 3 or 4")
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be at least 1")
    if k < 2:
        raise InvalidCongruence(f"k={k} must be at least 2")
    qs = admissible_q(k, q_max)
    eligible = [q for q in qs if q <= THM2_CROSSCHECK_CAP]
    sample = set(random.Random(seed).sample(
        eligible, max(1, len(eligible) // 10)) if eligible else ())
    cache = _load_cache(cache_path)

    results: dict[int, SearchRecord] = {}
    work = []
    for q in qs:
        rec = cache.get((k, q, m))
        if rec is None or _rechecks(k, m, q, rec, q in sample):
            work.append((k, q, m, rec, q in sample))
        else:
            results[q] = rec
    fresh: list[SearchRecord] = []
    error: str | None = None
    try:
        with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
            for rec in (pool.map(_search_q, work, chunksize=8) if pool
                        else map(_search_q, work)):
                results[rec.q] = rec
                if (k, rec.q, m) not in cache:
                    fresh.append(rec)
    except CrossCheckMismatch:
        raise
    except Exception as exc:   # abort but keep the completed prefix
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if cache_path and fresh:
            _append_cache(cache_path, k, m, fresh)

    return SearchReport(k=k, m=m, q_max=q_max,
                        records=[results[q] for q in qs if q in results],
                        partial=error is not None, error=error)


def paper_bounds_suite(*, jobs: int = 1) -> dict:
    """Run all ten searches and assert the published bounds and witnesses.

    For ranges the source stated explicitly, any extra zero is an error.  For
    the searches where only the bound is published, the scan extends
    WITNESS_MARGIN past the witness and unexpected zeros beyond it are
    flagged, not fatal.
    """
    suite: dict = {"searches": [], "flags": []}
    for m in (4, 3):
        for k in range(2, 7):
            bound, witness = PAPER_BOUNDS[(m, k)]
            stated = STATED_QMAX.get((m, k))
            q_max = stated if stated is not None else witness + WITNESS_MARGIN
            rep = search_zeros(k, m, q_max, jobs=jobs)
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
