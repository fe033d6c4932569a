"""Recompute the large-q count table ``workloads.EXPECTED``.

    python3 perfbench/derive_constants.py      # a few minutes; prints the table

The counts come from code that shares nothing with gpaley's count routes:
the field is built here from a primitive polynomial of its own, and K4 and
K3 are counted from the edges of H1 and H,

    K4 = q (q-1) #E(H1) / (12 k),    K3 = q #E(H) / 3,

with the edges enumerated by plain numpy.  For k = 2 and k = 3 every count
is also required to equal gpaley's ``K4_corollary``, the quadratic-form
route, which the timed workload does not run.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import LARGE_Q, Band  # noqa: E402


def _step_by_x(digits: list[int], f: list[int], p: int) -> list[int]:
    """digits * x modulo the monic f (low degree first)."""
    lead = digits[-1]
    out = [0] + digits[:-1]
    return [(c - lead * fc) % p for c, fc in zip(out, f)]


def power_table(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp table of a primitive element, digit matrix of every element).

    Elements are the integers sum d_i p^i.  For r > 1 the primitive element
    is x modulo the first monic f, counted from the top coefficient down,
    under which x has order q - 1."""
    q = p ** r
    idx = np.arange(q, dtype=np.int64)
    digits = np.stack([(idx // p ** i) % p for i in range(r)], axis=1)
    if r == 1:
        primes, n, d = [], q - 1, 2
        while n > 1:
            if n % d == 0:
                primes.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        g = next(g for g in range(2, q) if all(pow(g, (q - 1) // d, q) != 1 for d in primes))
        return np.array([pow(g, i, q) for i in range(q - 1)], dtype=np.int64), digits
    weights = [p ** i for i in range(r)]
    for code in range(q - 1, -1, -1):
        f = [(code // p ** i) % p for i in range(r)]
        if f[0] == 0:
            continue
        cur, exp = [1] + [0] * (r - 1), []
        for _ in range(q - 1):
            exp.append(sum(d * w for d, w in zip(cur, weights)))
            cur = _step_by_x(cur, f, p)
            if cur[0] == 1 and not any(cur[1:]):
                break
        if len(exp) == q - 1:
            return np.array(exp, dtype=np.int64), digits
    raise RuntimeError(f"no primitive polynomial for GF({p}^{r})")


def edge_count(verts: np.ndarray, in_S: np.ndarray, digits: np.ndarray, p: int) -> int:
    """Edges of the induced subgraph on verts, in row blocks."""
    weights = p ** np.arange(digits.shape[1], dtype=np.int64)
    ordered = 0
    for lo in range(0, len(verts), 64):
        diff = (digits[verts[lo:lo + 64]][:, None, :] - digits[verts][None, :, :]) % p
        ordered += int(in_S[diff @ weights].sum())
    return ordered // 2


def independent_count(q: int, k: int, m: int) -> int:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = 1
    while p ** r < q:
        r += 1
    exp, digits = power_table(p, r)
    in_S = np.zeros(q, dtype=bool)
    in_S[exp[0::k]] = True
    S = np.flatnonzero(in_S)
    if m == 3:
        return q * edge_count(S, in_S, digits, p) // 3
    one_minus = ((digits[S] - digits[1]) % p) @ (p ** np.arange(r, dtype=np.int64))
    h1 = S[(S != 1) & in_S[one_minus]]
    return q * (q - 1) * edge_count(h1, in_S, digits, p) // (12 * k)


def main() -> None:
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    from gpaley.finite_field import build_field, split_prime_power
    from gpaley.paley_graph import K4_corollary

    cases = []
    for c in LARGE_Q:
        if isinstance(c, Band):
            cases += [(q, c.k, c.m) for q in c.candidates()]
        else:
            cases.append(c[1:4])
    print("EXPECTED = {")
    for q, k, m in cases:
        count = independent_count(q, k, m)
        if m == 4 and k in (2, 3):
            corollary = K4_corollary(build_field(*split_prime_power(q)), k).count
            if corollary != count:
                raise SystemExit(f"q={q} k={k}: corollary {corollary} != {count}")
        print(f"    ({q}, {k}, {m}): {count},", flush=True)
    print("}")


if __name__ == "__main__":
    main()
