"""Model-text generators owned by the benchmark.

``brp`` instances come from ``parmreach.benchgen``; the two families
below live here so that the benchmark controls exactly what it feeds
the program and the program's own generators can change freely.

* ``ruin(n)`` is gambler's ruin on ``0..n``: from state i the walk moves
  up with probability ``p`` and down with ``1 - p``; 0 and n absorb and
  the target is n.  The start is state 1, so the SCC engine peels one
  nested single-input component per level (nesting depth n - 2) and the
  reachability function is ``p^(n-1) (2p - 1) / (p^n - (1 - p)^n)``.
* ``fuzz_model(rng, index)`` is a random model of 7-14 states with 1-3
  parameters, 1-3 initial states and cycles.  Rows come from splitting a
  unit of mass by factors that lie strictly between 0 and 1 on the open
  unit box (the construction of ``tests/fuzzgen.py``), written as model
  text, so every row sums to exactly 1 symbolically and every point with
  all parameters in (0, 1) is graph-preserving.
"""

from __future__ import annotations

import random
from fractions import Fraction

FUZZ_MODELS = 40
FUZZ_MIN_STATES = 7
# One 25-state model took 13.6 s and one 40-state model 174 s, so a
# larger cap lets a single instance dominate the whole run.
FUZZ_MAX_STATES = 14

_CONSTS = ["1/2", "1/3", "2/5", "3/10", "7/10"]


def ruin(n: int) -> str:
    if n < 3:
        raise ValueError("need n >= 3")
    lines = [f"# gambler's ruin on 0..{n}", "@params p"]
    lines += [f"@state s{i}" for i in range(n + 1)]
    lines.append("@init s1 : 1")
    lines.append("@trans s0 -> s0 : 1")
    for i in range(1, n):
        lines.append(f"@trans s{i} -> s{i + 1} : p")
        lines.append(f"@trans s{i} -> s{i - 1} : 1 - p")
    lines.append(f"@trans s{n} -> s{n} : 1")
    lines.append(f"@target s{n}")
    return "\n".join(lines) + "\n"


def ruin_closed_form(n: int, p: Fraction) -> Fraction:
    """Probability of reaching n from 1; undefined at p = 1/2."""
    return p ** (n - 1) * (2 * p - 1) / (p**n - (1 - p) ** n)


def _pick_factor(
    rng: random.Random, params: list[str], dn: int, dd: int
) -> tuple[str, int, int]:
    """A factor g with 0 < g < 1 on the unit box, plus the degree cost
    that multiplying a weight by g (or 1 - g) adds."""
    kinds = ["const"]
    if params:
        if dn + 1 <= 2:
            kinds += ["lin", "lin"]
        if dn + 2 <= 2:
            kinds.append("quad")
        if dn + 1 <= 2 and dd + 1 <= 2:
            kinds.append("inv")
    kind = rng.choice(kinds)
    if kind == "const":
        return rng.choice(_CONSTS), 0, 0
    if kind == "lin":
        return rng.choice(params), 1, 0
    if kind == "quad":
        return f"{rng.choice(params)} * {rng.choice(params)}", 2, 0
    return f"1 / (1 + {rng.choice(params)})", 1, 1


def split_unit(rng: random.Random, k: int, params: list[str]) -> list[str]:
    """``k`` expressions, positive on the unit box, summing to exactly 1."""
    weights: list[tuple[list[str], int, int]] = [([], 0, 0)]
    while len(weights) < k:
        factors, dn, dd = weights.pop(rng.randrange(len(weights)))
        g, cn, cd = _pick_factor(rng, params, dn, dd)
        weights.append((factors + [f"({g})"], dn + cn, dd + cd))
        weights.append((factors + [f"(1 - ({g}))"], dn + cn, dd + cd))
    return [" * ".join(factors) or "1" for factors, _, _ in weights]


def fuzz_model(rng: random.Random, index: int) -> str:
    """Model text for fuzz instance ``index``.

    State and parameter counts cycle with ``index`` so every seed gets
    the same size mix; the seed varies the structure and the rows.
    """
    span = FUZZ_MAX_STATES - FUZZ_MIN_STATES + 1
    n = FUZZ_MIN_STATES + index % span
    params = ["a", "b", "c"][: 1 + index % 3]
    names = [f"n{i}" for i in range(n)]
    targets = rng.sample(names, rng.randint(1, 2))
    lines = [f"# fuzz instance {index}", "@params " + " ".join(params)]
    lines += [f"@state {s}" for s in names]
    initial = rng.sample(names, rng.randint(1, 3))
    init_params = params if rng.random() < 0.3 else []
    for s, w in zip(initial, split_unit(rng, len(initial), init_params)):
        lines.append(f"@init {s} : {w}")
    for s in names:
        if s in targets:
            lines.append(f"@trans {s} -> {s} : 1")
            continue
        succs = rng.sample(names, rng.randint(1, min(4, n)))
        for t, w in zip(succs, split_unit(rng, len(succs), params)):
            lines.append(f"@trans {s} -> {t} : {w}")
    lines.append("@target " + " ".join(targets))
    return "\n".join(lines) + "\n"
