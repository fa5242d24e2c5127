"""Seeded random generators shared by the unit and acceptance suites, and
a reference enumeration of lattice shells."""

from __future__ import annotations

import functools

import numpy as np

from eggsum import BlockSpec, DomainSpec, GroupFactor, AbsFactor, ZetaSeriesSpec
from eggsum.commutator import atom_partition, entry_atoms
from eggsum.zetalab import critical_b

def brute_shell(d: int, n: int) -> np.ndarray:
    """The d-tuples of nonnegative integers summing to n in lexicographic
    order, shape (count, d), int64: the first entry k runs over 0..n, each
    followed by the (d - 1)-tuples summing to n - k.  A reference for
    ``lattice.shell_indices`` built without its split loop."""
    if d == 1:
        return np.array([[n]], dtype=np.int64)
    tails = [_brute_tail(d - 1, n - k) for k in range(n + 1)]
    heads = np.repeat(np.arange(n + 1, dtype=np.int64), [t.shape[0] for t in tails])
    return np.column_stack([heads, np.concatenate(tails)])


@functools.lru_cache(maxsize=None)
def _brute_tail(d: int, n: int) -> np.ndarray:
    """``brute_shell(d, n)``, read-only and built once: the tails of the
    shells of d + 1 variables."""
    rows = brute_shell(d, n)
    rows.setflags(write=False)
    return rows


def entries_alone(dom: DomainSpec, kind) -> list[list[int]]:
    """``atom_partition`` with a cross kind's raised and lowered columns
    split out, in order of first column: a partition finer than the atoms,
    whose columns the kernel cannot tell apart, entry terms included.  The
    self kind's raised column is an atom of its own already."""
    atoms = atom_partition(dom, kind)
    alone = [col for cols in entry_atoms(dom, kind, atoms).values() for col in cols]
    groups = [[col] for col in alone] + [[c for c in atom if c not in alone] for atom in atoms]
    return sorted((g for g in groups if g), key=lambda g: g[0])


# power grid for zeta specs: off -1 so no logarithmic boundary layers creep
# into the randomized verdict suites
_POWER_GRID = [v / 4.0 for v in range(-8, 9) if v != -4]


def random_domain(
    rng: np.random.Generator,
    max_dim: int = 5,
    force_a_one: float = 0.3,
    min_blocks: int = 1,
) -> DomainSpec:
    """Random egg domain with p, a in [0.5, 4] and total dimension <= max_dim."""
    d = int(rng.integers(1, max_dim + 1))
    pieces = []
    left = d
    while left > 0:
        s = int(rng.integers(1, left + 1))
        pieces.append(s)
        left -= s
    while len(pieces) < min_blocks:
        big = max(range(len(pieces)), key=lambda i: pieces[i])
        if pieces[big] == 1:
            break
        pieces[big] -= 1
        pieces.append(1)
    blocks = []
    for s in pieces:
        p = tuple(float(v) for v in np.round(rng.uniform(0.5, 4.0, s), 2))
        a = 1.0 if rng.random() < force_a_one else round(float(rng.uniform(0.5, 4.0)), 2)
        blocks.append(BlockSpec(p=p, a=a))
    return DomainSpec(blocks=tuple(blocks))


def domain_with_all_kinds(rng: np.random.Generator) -> DomainSpec:
    """Random domain guaranteed to host self, cross-within and cross-between."""
    n_extra = int(rng.integers(1, 3))
    blocks = [BlockSpec(tuple(float(v) for v in np.round(rng.uniform(0.5, 4.0, 2), 2)),
                        round(float(rng.uniform(0.5, 4.0)), 2))]
    for _ in range(n_extra):
        blocks.append(
            BlockSpec((round(float(rng.uniform(0.5, 4.0)), 2),),
                      round(float(rng.uniform(0.5, 4.0)), 2))
        )
    return DomainSpec(blocks=tuple(blocks))


def _grid(rng: np.random.Generator) -> float:
    return float(rng.choice(_POWER_GRID))


def random_plain_spec(rng: np.random.Generator, b: float = 0.0) -> ZetaSeriesSpec:
    """Product-of-powers spec, any m in 2..5 (the no-factor family)."""
    m = int(rng.integers(2, 6))
    return ZetaSeriesSpec(m=m, powers=tuple(_grid(rng) for _ in range(m)), b=b)


def random_family_spec(rng: np.random.Generator, shape: str) -> ZetaSeriesSpec:
    """A spec from one named structural family, side conditions satisfied."""
    if shape == "product-only":
        return random_plain_spec(rng)
    if shape == "fresh-group":
        n_free = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        m = n_free + k
        powers = [_grid(rng) for _ in range(n_free)] + [0.0] * k
        group = GroupFactor(vars=tuple(range(n_free, m)), a=_grid(rng))
        return ZetaSeriesSpec(m=m, powers=tuple(powers), groups=(group,))
    if shape == "pair-plus-one":
        return ZetaSeriesSpec(
            m=3,
            powers=tuple(_grid(rng) for _ in range(3)),
            groups=(GroupFactor((0, 1), _grid(rng)),),
        )
    if shape == "pair-plus-two":
        return ZetaSeriesSpec(
            m=4,
            powers=tuple(_grid(rng) for _ in range(4)),
            groups=(GroupFactor((0, 1), _grid(rng)),),
        )
    if shape == "triple-plus-one":
        return ZetaSeriesSpec(
            m=4,
            powers=tuple(_grid(rng) for _ in range(4)),
            groups=(GroupFactor((0, 1, 2), _grid(rng)),),
        )
    if shape == "triple-abs":
        return ZetaSeriesSpec(
            m=4,
            powers=tuple(_grid(rng) for _ in range(4)),
            groups=(GroupFactor((0, 1, 2), _grid(rng)),),
            abs_factor=AbsFactor(neg=3, a=float(rng.choice([0.25, 0.5, 1.0, 1.5]))),
        )
    if shape in ("two-pairs", "two-pairs-plus-one"):
        m = 4 if shape == "two-pairs" else 5
        while True:
            powers = tuple(_grid(rng) for _ in range(m))
            a12 = _grid(rng)
            if powers[0] + a12 > -0.75:  # displayed side condition with slack
                break
        return ZetaSeriesSpec(
            m=m,
            powers=powers,
            groups=(GroupFactor((0, 1), a12), GroupFactor((2, 3), _grid(rng))),
        )
    raise ValueError(shape)


def random_zeta_spec(rng: np.random.Generator, max_m: int = 5) -> ZetaSeriesSpec:
    """Any spec of m <= max_m variables: 0-3 groups on random subsets, which
    may overlap, repeat or hold one variable, and an abs factor in about a
    third of the draws, on a variable that a group may hold too (b = 0)."""
    m = int(rng.integers(1, max_m + 1))
    groups = tuple(
        GroupFactor(
            tuple(int(j) for j in rng.choice(m, int(rng.integers(1, m + 1)), replace=False)),
            _grid(rng),
        )
        for _ in range(int(rng.integers(0, 4)))
    )
    abs_factor = None
    if rng.random() < 0.35:
        abs_factor = AbsFactor(int(rng.integers(0, m)), float(rng.choice([0.25, 1.5, -0.5])))
    return ZetaSeriesSpec(
        m=m, powers=tuple(_grid(rng) for _ in range(m)), groups=groups, abs_factor=abs_factor
    )


FAMILY_SHAPES = (
    "product-only",
    "fresh-group",
    "pair-plus-one",
    "pair-plus-two",
    "triple-plus-one",
    "triple-abs",
    "two-pairs",
    "two-pairs-plus-one",
)


def with_offset_b(spec: ZetaSeriesSpec, offset: float) -> ZetaSeriesSpec:
    """Same spec with b set to critical_b + offset."""
    return ZetaSeriesSpec(
        m=spec.m,
        powers=spec.powers,
        groups=spec.groups,
        abs_factor=spec.abs_factor,
        b=critical_b(spec) + offset,
    )
