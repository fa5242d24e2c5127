"""Egg domains and Bergman monomial norms.

A domain is a finite list of blocks; block k groups j_k coordinates with
inner exponents p_jk > 0 under an outer power a_k > 0, and the domain is

    sum_k ( sum_j |z_jk|^(2 p_jk) )^(a_k)  <  1.

Monomials are pairwise orthogonal here (the domain is Reinhardt), and the
squared L2 norm of z^idx has a closed form built from multi-variable Beta
factors: one per block plus an outer one coupling the blocks, divided by
the total outer weight.  All evaluation is in log space; the values
themselves overflow double precision for index entries beyond a few
hundred.

``mc_norm_oracle`` is an independent Monte-Carlo check of the closed form:
the squared norm in radial coordinates is (2 pi)^d times the integral of
prod r_j^(2 idx_j + 1) over the moduli region, estimated by uniform
rejection sampling from the unit box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gammakit
from .errors import ValidationError, finite_real, integer, is_sequence, parsed_json, sequence

__all__ = [
    "BlockSpec",
    "DomainSpec",
    "dimension",
    "as_multi_index",
    "flatten_index",
    "log_norm_omega1",
    "log_norm",
    "log_norm_bulk",
    "mc_norm_oracle",
]

_MC_CHUNK = 1_000_000
_MAX_ENTRY = 2**53


@dataclass(frozen=True)
class BlockSpec:
    """One block: inner exponents ``p`` and the outer power ``a``."""

    p: tuple[float, ...]
    a: float

    def __post_init__(self):
        p = sequence(self.p, "inner exponents p")
        object.__setattr__(self, "p", tuple(finite_real(v, "inner exponent") for v in p))
        object.__setattr__(self, "a", finite_real(self.a, "outer power a"))
        if len(self.p) == 0:
            raise ValidationError("block needs at least one inner exponent")
        if not all(v > 0.0 for v in self.p):
            raise ValidationError("inner exponents must be positive")
        if not self.a > 0.0:
            raise ValidationError("outer power must be positive")

    @property
    def size(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class DomainSpec:
    """An ordered, nonempty list of blocks."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) == 0:
            raise ValidationError("domain needs at least one block")
        if not all(isinstance(b, BlockSpec) for b in self.blocks):
            raise ValidationError("blocks must be BlockSpec instances")

    @property
    def dimension(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def flat_position(self, block: int, coord: int) -> int:
        """Flat coordinate column for (block, coord), both 0-based."""
        if not 0 <= block < len(self.blocks):
            raise ValidationError(f"block {block} out of range")
        if not 0 <= coord < self.blocks[block].size:
            raise ValidationError(f"coordinate {coord} out of range in block {block}")
        return sum(b.size for b in self.blocks[:block]) + coord

    @classmethod
    def single_block(cls, p, a: float = 1.0) -> "DomainSpec":
        return cls(blocks=(BlockSpec(p=tuple(p), a=a),))

    @classmethod
    def from_json(cls, text_or_obj) -> "DomainSpec":
        obj = parsed_json(text_or_obj, "domain")
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise ValidationError('domain JSON must be {"blocks": [{"p": [...], "a": ...}, ...]}')
        blocks = []
        for entry in sequence(obj["blocks"], "domain blocks"):
            if not isinstance(entry, dict) or "p" not in entry or "a" not in entry:
                raise ValidationError('each block must be {"p": [...], "a": ...}')
            blocks.append(BlockSpec(p=entry["p"], a=entry["a"]))
        return cls(blocks=tuple(blocks))

    def to_json(self) -> dict:
        return {"blocks": [{"p": list(b.p), "a": b.a} for b in self.blocks]}


def dimension(dom: DomainSpec) -> int:
    """Total number of coordinates."""
    return dom.dimension


def as_multi_index(dom: DomainSpec, entries) -> tuple[tuple[int, ...], ...]:
    """Normalize an index to per-block tuples, validating shape and signs.

    Accepts either nested per-block sequences or one flat sequence of
    length ``dimension(dom)``.
    """
    entries = sequence(entries, "index")
    sizes = dom.block_sizes
    if entries and not any(is_sequence(e) for e in entries):
        flat = entries
        if len(flat) != sum(sizes):
            raise ValidationError(
                f"flat index has length {len(flat)}, domain has dimension {sum(sizes)}"
            )
        nested = []
        pos = 0
        for s in sizes:
            nested.append(flat[pos : pos + s])
            pos += s
        entries = nested
    if len(entries) != len(sizes):
        raise ValidationError(f"index has {len(entries)} blocks, domain has {len(sizes)}")
    out = []
    for k, part in enumerate(entries):
        part = tuple(integer(v, "index entry") for v in sequence(part, f"block {k} of the index"))
        if len(part) != sizes[k]:
            raise ValidationError(
                f"block {k} of the index has length {len(part)}, expected {sizes[k]}"
            )
        if any(v < 0 for v in part):
            raise ValidationError("index entries must be nonnegative")
        if any(v > _MAX_ENTRY for v in part):
            raise ValidationError(
                "index entries must be at most 2^53, where doubles still hold every integer"
            )
        out.append(part)
    return tuple(out)


def flatten_index(dom: DomainSpec, idx) -> np.ndarray:
    """Index as a flat int row in domain coordinate order."""
    nested = as_multi_index(dom, idx)
    return np.array([v for part in nested for v in part], dtype=np.int64)


def log_norm_omega1(p, i) -> float:
    """ln of the squared monomial norm on the single-power-sum domain
    {sum |z_j|^(2 p_j) < 1}: pi^m / prod(p) * B((i+1)/p) / |(i+1)/p|."""
    pv = np.asarray(p, dtype=np.float64).ravel()
    iv = np.asarray(i, dtype=np.float64).ravel()
    if pv.size == 0 or pv.size != iv.size:
        raise ValidationError("p and i must be nonempty vectors of equal length")
    if not np.all(pv > 0.0):
        raise ValidationError("exponents p must be positive")
    if not np.all(iv >= 0.0):
        raise ValidationError("index entries must be nonnegative")
    v = np.sort((iv + 1.0) / pv)
    return float(
        pv.size * math.log(math.pi)
        - np.sum(np.log(pv))
        + gammakit.log_multibeta(v)
        - math.log(float(np.sum(v)))
    )


def log_norm_bulk(dom: DomainSpec, idx_rows: np.ndarray) -> np.ndarray:
    """ln of the squared monomial norm for each row of ``idx_rows``.

    Rows are flat indices in domain coordinate order.  Only the shape is
    validated here; entries must keep every Gamma argument positive, i.e.
    be >= 0.
    """
    rows = np.asarray(idx_rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[np.newaxis, :]
    d = dom.dimension
    if rows.shape[1] != d:
        raise ValidationError(f"index rows have {rows.shape[1]} columns, expected {d}")
    const = d * math.log(math.pi)
    out = np.zeros(rows.shape[0], dtype=np.float64)
    outer_args = []
    pos = 0
    for blk in dom.blocks:
        const -= math.fsum(math.log(v) for v in blk.p) + math.log(blk.a)
        v = (rows[:, pos : pos + blk.size] + 1.0) / np.asarray(blk.p)
        pos += blk.size
        if blk.size == 1:
            s = v[:, 0]
            # single-variable Beta factor is identically 1
        else:
            # sorting the per-block weights first makes the result exactly
            # invariant under coordinate permutations within equal-p blocks
            v = np.sort(v, axis=1)
            s = v.sum(axis=1)
            out += gammakit.log_gamma(v).sum(axis=1) - gammakit.log_gamma(s)
        outer_args.append(s / blk.a)
    total = outer_args[0].copy()
    for x in outer_args[1:]:
        total += x
    if len(outer_args) > 1:
        for x in outer_args:
            out += gammakit.log_gamma(x)
        out -= gammakit.log_gamma(total)
    out -= np.log(total)
    return out + const


def log_norm(dom: DomainSpec, idx) -> float:
    """ln of the squared monomial norm of z^idx on ``dom``."""
    row = flatten_index(dom, idx)
    return float(log_norm_bulk(dom, row[np.newaxis, :])[0])


def mc_norm_oracle(
    dom: DomainSpec, idx, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the squared monomial norm, with its stderr.

    Uniform moduli in [0,1]^d, rejection against the defining inequality,
    integrand (2 pi)^d prod r_j^(2 idx_j + 1).  Deterministic for a given
    seed (fixed chunking).  Practical up to d ~ 3.
    """
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    row = flatten_index(dom, idx)
    d = dom.dimension
    exponents = 2.0 * row.astype(np.float64) + 1.0
    scale = (2.0 * math.pi) ** d
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    sizes = []
    pos = 0
    for blk in dom.blocks:
        sizes.append((pos, pos + blk.size, np.asarray(blk.p), blk.a))
        pos += blk.size
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        u = rng.random((m, d))
        lhs = np.zeros(m)
        for lo, hi, p, a in sizes:
            lhs += np.sum(u[:, lo:hi] ** (2.0 * p), axis=1) ** a
        vals = np.prod(u**exponents, axis=1) * scale
        vals[lhs >= 1.0] = 0.0
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    if samples > 1:
        var *= samples / (samples - 1.0)
    stderr = math.sqrt(var / samples)
    return mean, stderr
