"""Random model generation for property tests.

Rows are built by repeatedly splitting a unit of probability mass with
factors that lie strictly between 0 and 1 on the open unit box, so the
symbolic row sums are exactly 1 by construction and *every* point with
all parameters in (0, 1) is graph-preserving.  Numerator and
denominator degrees of every edge stay at most 2.  The rows are the
texts of ``perfbench/gen.split_unit``, the benchmark's fuzz generator,
parsed, so both draw the same rows from the same random stream.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from fractions import Fraction

from parmreach.model import Pdtmc, parse_expression, preprocess
from parmreach.polycore import Variable, variable
from parmreach.ratfun import RationalFunction, rf_one, rf_sum


def _load_bench_gen():
    """``perfbench/gen.py``, loaded from its path: the benchmark's directory is no package."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_GEN = _load_bench_gen()


def split_unit(
    rng: random.Random, k: int, params: list[Variable]
) -> list[RationalFunction]:
    """``k`` positive functions summing to exactly 1 symbolically: the
    benchmark's ``split_unit`` texts, parsed."""
    names = {v.name: v for v in params}
    return [
        parse_expression(text, names)
        for text in BENCH_GEN.split_unit(rng, k, list(names))
    ]


def random_pdtmc(
    rng: random.Random,
    min_states: int = 4,
    max_states: int = 25,
    max_params: int = 3,
) -> Pdtmc:
    """A random model: 1-2 absorbing targets, 1-3 initial states, edges
    of degree <= 2, symbolic row sums exactly 1, cycles allowed."""
    n = rng.randint(min_states, max_states)
    k = rng.randint(1, max_params)
    names = [f"n{i}" for i in range(n)]
    params = [variable(ch) for ch in "abc"[:k]]
    targets = rng.sample(names, rng.randint(1, 2))

    trans: dict[str, dict[str, RationalFunction]] = {}
    for s in names:
        if s in targets:
            trans[s] = {s: rf_one()}
            continue
        succs = rng.sample(names, rng.randint(1, min(4, n)))
        parts = split_unit(rng, len(succs), params)
        trans[s] = dict(zip(succs, parts))
        assert rf_sum(trans[s].values()) == rf_one()

    initial = rng.sample(names, rng.randint(1, 3))
    init_params = params if rng.random() < 0.3 else []
    init = dict(zip(initial, split_unit(rng, len(initial), init_params)))
    return Pdtmc(
        states=tuple(names),
        params=tuple(params),
        init=init,
        trans=trans,
        targets=tuple(targets),
    )


def random_preprocessed(rng: random.Random, **kwargs) -> Pdtmc:
    return preprocess(random_pdtmc(rng, **kwargs))


def graph_preserving_point(
    rng: random.Random, m: Pdtmc
) -> dict[Variable, Fraction]:
    """Any point in the open unit box preserves the graph by construction."""
    return {v: Fraction(rng.randint(1, 19), 20) for v in m.params}
