"""Conditional-oracle abstractions and the exact tabular model families.

Every diagnostic in this package consumes the same query surface: a family
of normalized local conditionals ``log q(x_i = a | visible assignment)`` in
nats, exposed by :class:`ConditionalOracle` as row gathers by context class
index (one base ``V+1`` digit per other position, 0 when unassigned).  A
:class:`TabularJointModel` answers from one padded log-marginal array, so it
is the exact ("Bayes") oracle for its own distribution;
:class:`PerturbedConditionalModel` and :class:`LogitTableOracle` layer
controlled incompatibility on top of the same surface.

All arithmetic is in the log domain, through the one ``logsumexp``/
``log_normalize`` pair and the one ``kl``/``entropy`` pair below.

Keyed randomness (derived seeds, the decoders' sample draws) comes from one
kernel, :func:`seed_states`: numpy's ``SeedSequence`` hash written as masked
integer arithmetic, so one call hashes one key or a whole array of keys and
gives ``SeedSequence``'s bits either way.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ContractViolationError, DimensionError, SizeCapError

# Desk-scale caps: every brute-force enumeration stays comfortably under a
# second at these sizes (max 8**6 = 262144 joint states).
MAX_POSITIONS = 6
MAX_VOCAB = 8
LOG_MASS_FLOOR = -50.0
# a log-mass table within this of normalized and floored is kept bit for bit
_NORMALIZED_TOL = 1e-12
# rankings, strata, scheduler picks and witnesses are decided on this grid: exact
# enumerations of equal values agree to ~1e-15, so rounding noise cannot split them
TIE_GRID = 1e-12
# numpy reduces a short last axis one row at a time; from this many rows of 1 to 8
# entries, logsumexp and row_sum reduce columns (crossover: timeit, numpy 2.4.6, 2 vCPUs)
_COLUMN_ROWS = 48
# from this many rows of 8, numpy's row sum beats the transposed copy (timeit, as above)
_SUM8_ROWS = 30_000


def tie_key(value: float):
    """The cell of ``value`` on the tie grid, as an int (a value too large to scale stays as it is)."""
    cell = value / TIE_GRID
    return round(cell) if math.isfinite(cell) else cell


def _columns(arr: np.ndarray):
    """A C-contiguous transposed copy of ``arr``'s rows if there are many short ones, else None."""
    n = arr.shape[-1] if arr.ndim else 0
    return arr.reshape(-1, n).T.copy() if 0 < n <= 8 and arr.size >= _COLUMN_ROWS * n else None


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """The column sums, added in numpy's order for one row (see ``logsumexp``)."""
    if len(cols) < 8:
        return cols.sum(axis=0)
    pairs = cols[0::2] + cols[1::2]
    return (pairs[0] + pairs[1]) + (pairs[2] + pairs[3]) + 0.0


def row_sum(values) -> np.ndarray:
    """``values.sum(axis=-1)`` with the same bits, bar the sign of a NaN where an input NaN meets inf - inf."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    cols = None if arr.shape[-1:] == (8,) and arr.size >= 8 * _SUM8_ROWS else _columns(arr)
    return arr.sum(axis=-1) if cols is None else _column_sum(cols).reshape(arr.shape[:-1])


def logsumexp(values) -> np.ndarray:
    """log(sum(exp(values))) over the last axis, kept as a length-1 axis; the axis
    is made C-contiguous, so a row gives the same bits alone and inside a batch.
    From ``_COLUMN_ROWS`` rows of 1 to 8 entries, the max and the sum run over the
    columns: the max is exact, and the sum adds in numpy's order for one contiguous
    row, left to right below 8 entries and ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)) at 8,
    from +0.0 (eight -0.0 sum to +0.0).  The bits are those of the row reductions."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if (cols := _columns(arr)) is None:
        top = arr.max(axis=-1, keepdims=True)
        return np.log(np.exp(arr - top).sum(axis=-1, keepdims=True)) + top
    top = cols.max(axis=0)
    return (np.log(_column_sum(np.exp(cols - top))) + top).reshape(arr.shape[:-1] + (1,))


def log_normalize(values) -> np.ndarray:
    """Shift log weights so every row along the last axis is a normalized log distribution."""
    return np.asarray(values, dtype=np.float64) - logsumexp(values)


def kl(log_p, log_q, axis=None):
    """KL(p || q) in nats from two log tables, summed over ``axis`` (all axes
    when None); cells where p is 0 add nothing."""
    p = np.exp(log_p)
    with np.errstate(invalid="ignore"):
        return np.where(p > 0, p * (log_p - log_q), 0.0).sum(axis=axis)


def entropy(log_p, axis=None):
    """Shannon entropy in nats from a log table, summed over ``axis`` (all axes
    when None): minus the KL against the all-ones measure."""
    return -kl(log_p, 0.0, axis=axis)


def _seed_key(*parts: int) -> list[int]:
    """Flatten non-negative integers into the 32-bit words SeedSequence takes."""
    key: list[int] = []
    for part in parts:
        value = int(part)
        if value < 0:
            raise ContractViolationError(f"seed components must be non-negative, got {part}")
        while True:
            key.append(value & 0xFFFFFFFF)
            value >>= 32
            if value == 0:
                break
    return key


# constants of numpy's SeedSequence pool hash (O'Neill's seed_seq alternative)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _multipliers(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` (xor, multiplier) pairs of a hash chain: a step xors in
    the running constant, then multiplies by its next value."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return list(zip(consts, consts[1:]))


@functools.cache
def _pool_steps(n_words: int) -> tuple[tuple, tuple]:
    """The pool hash of a key of ``n_words`` words as a fixed program: the (xor,
    multiplier) pairs that hash the first words into the pool, then one (source,
    pool word, xor, multiplier) step per mix, where a source indexes the pool
    followed by the key words past it.  The constants never depend on the key."""
    pairs = [(src, dst) for src in range(max(_POOL, n_words)) for dst in range(_POOL) if src != dst]
    consts = _multipliers(_INIT_A, _MULT_A, _POOL + len(pairs))
    return tuple(consts[:_POOL]), tuple(pair + const for pair, const in zip(pairs, consts[_POOL:]))


_OUTPUT_STEPS = _multipliers(_INIT_B, _MULT_B, 2)


def _hashed(value, xor: int, mult: int):
    """One hash step on a 32-bit word, or on an array of them."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def seed_states(words):
    """``SeedSequence(words).generate_state(1, np.uint64)[0]``, bit for bit, for a
    key of 32-bit words (see `_seed_key`).

    This is numpy's pool hash: the first key words are hashed into a 4-word
    pool, then every pool word and every later key word is hashed and mixed
    into every other pool word, and the first two pool words are hashed out
    as the low and high half.  Every step masks to 32 bits and no
    intermediate reaches 2**64, so the same code runs on a list of Python
    ints (one key, giving an int) and on a list of non-negative integer
    arrays, or ints, that broadcast together (one key per element, giving a
    uint64 array).
    """
    words = [w if isinstance(w, int) else np.asarray(w, dtype=np.uint64) for w in words]
    first, steps = _pool_steps(len(words))
    state = [_hashed(words[k] if k < len(words) else 0, *const) for k, const in enumerate(first)] + words[_POOL:]
    for src, dst, xor, mult in steps:
        # mix: (L * pool word - R * hashed source) mod 2**32, with 2**32 added before the subtraction
        value = (_MIX_L * state[dst] + (_MASK32 + 1) - (_MIX_R * _hashed(state[src], xor, mult) & _MASK32)) & _MASK32
        state[dst] = value ^ (value >> 16)
    (low_xor, low_mult), (high_xor, high_mult) = _OUTPUT_STEPS
    return _hashed(state[0], low_xor, low_mult) | (_hashed(state[1], high_xor, high_mult) << 32)


def uniform_of(state):
    """The uniform in [0, 1) of a 64-bit state (an int or a uint64 array): its top 53 bits."""
    return (state >> 11) * 2.0**-53


def derived_seed(*parts: int) -> int:
    """Deterministically derive a 64-bit sub-seed from integer components."""
    return seed_states(_seed_key(*parts))


def stable_uniform(*parts: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by integer components.

    Stable across runs and across query order: the draw is a pure function
    of the key, not of any generator state.
    """
    return uniform_of(seed_states(_seed_key(*parts)))


def seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_seed_key(*parts)))


@dataclass(frozen=True)
class Vocabulary:
    """Dense zero-based token alphabet."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 2:
            raise ContractViolationError(f"vocabulary size must be an integer >= 2, got {self.size!r}")

    def tokens(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class PartialContext:
    """Observed position->token assignment plus the ordered unresolved block.

    ``time`` is an opaque non-negative label carried through for provenance;
    the tabular oracles here are time-homogeneous and ignore it.
    """

    observed: Mapping[int, int]
    block: tuple[int, ...]
    time: float = 0.0

    def __post_init__(self):
        observed = {int(p): int(t) for p, t in dict(self.observed).items()}
        block = tuple(int(p) for p in self.block)
        if any(p < 0 or t < 0 for p, t in observed.items()):
            raise ContractViolationError("observed positions and tokens must be non-negative")
        if any(p < 0 for p in block):
            raise ContractViolationError("block positions must be non-negative")
        if len(set(block)) != len(block):
            raise ContractViolationError(f"block has repeated positions: {block}")
        overlap = set(observed) & set(block)
        if overlap:
            raise ContractViolationError(f"positions {sorted(overlap)} are both observed and in the block")
        if not (self.time >= 0):
            raise ContractViolationError(f"time label must be non-negative, got {self.time}")
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "time", float(self.time))

    def assign(self, position: int, token: int) -> "PartialContext":
        """Move one block position into the observed set with the given value."""
        if position not in self.block:
            raise ContractViolationError(f"position {position} is not in the unresolved block")
        observed = dict(self.observed)
        observed[int(position)] = int(token)
        block = tuple(p for p in self.block if p != position)
        return PartialContext(observed=observed, block=block, time=self.time)

    def assigned_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.observed.items()))

    def to_dict(self) -> dict:
        return {
            "observed": {str(p): t for p, t in sorted(self.observed.items())},
            "block": list(self.block),
            "time": self.time,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "PartialContext":
        return PartialContext(data.get("observed", {}), data.get("block", ()), data.get("time", 0.0))


def context_class_index(position: int, assigned: Mapping[int, int], positions: int, vocab_size: int) -> int:
    """Mixed-radix index of a visible context as seen from one position.

    Every other position contributes a digit in base ``vocab_size + 1``:
    0 when unassigned, ``token + 1`` otherwise.  This is the row index used
    by logit tables and perturbation tables.
    """
    index = 0
    for j in range(positions):
        if j == position:
            continue
        tok = assigned.get(j)
        index = index * (vocab_size + 1) + (0 if tok is None else int(tok) + 1)
    return index


def context_class_count(positions: int, vocab_size: int) -> int:
    return (vocab_size + 1) ** (positions - 1)


def class_strides(positions: int, vocab_size: int) -> list[list[int]]:
    """Per-position weights of the context class index as plain ints:
    ``sum(strides[i][j] * (t + 1) for j, t in assigned.items())`` equals
    :func:`context_class_index`; ``strides[i][i]`` is 0."""
    radix = vocab_size + 1
    return [
        [0 if j == i else radix ** (positions - 2 - j + (j > i)) for j in range(positions)] for i in range(positions)
    ]


class ConditionalOracle:
    """Abstract query surface: one normalized log conditional per (position, context class).

    Subclasses implement :meth:`log_rows`; every other query is a gather
    through it.  Implementations are immutable after construction and keep
    no cache, so concurrent read-only queries are safe.
    """

    def __init__(self, vocab_size: int, positions: int):
        self.vocab = Vocabulary(int(vocab_size))
        self.positions = int(positions)
        self.strides = class_strides(self.positions, self.vocab.size)

    def log_rows(self, position: int, cls) -> np.ndarray:
        """Normalized log conditionals of ``position`` for an int array of
        context class indices, shaped ``cls.shape + (V,)``."""
        raise NotImplementedError

    def log_dist(self, position: int, assigned: Mapping[int, int]) -> np.ndarray:
        """Log conditional over all tokens given an assigned position set.

        Hot path used by the scalar loops; validation is minimal.
        """
        if position in assigned:
            raise ContractViolationError(f"position {position} is already observed")
        strides = self.strides[position]
        cls = 0
        for p, t in assigned.items():
            cls += strides[p] * (t + 1)
        return self.log_rows(position, cls)

    def class_grid(self, position: int, observed: Mapping[int, int] | np.ndarray, free) -> np.ndarray:
        """Class indices of ``position`` over a grid of contexts: ``observed``
        plus, for the k-th entry of ``free``, an axis k along which that
        position takes every token.  A ``None`` entry gives a length-1 axis.
        ``observed`` is a position -> token map or token rows (-1 unassigned), whose leading axes lead."""
        strides, digits = self.strides[position], np.arange(1, self.vocab.size + 1)
        rows = isinstance(observed, np.ndarray)
        base = (observed + 1) @ strides if rows else sum(strides[p] * (t + 1) for p, t in observed.items())
        grid = np.asarray(base)[(...,) + (None,) * len(free)]
        for k, p in enumerate(free):
            if p is not None:
                grid = grid + (strides[p] * digits).reshape((1,) * k + (-1,) + (1,) * (len(free) - k - 1))
        return grid

    def _validate_query(self, position: int, context: PartialContext) -> None:
        if not (0 <= position < self.positions):
            raise DimensionError(f"position {position} outside model with {self.positions} positions")
        for p, t in context.observed.items():
            if not (0 <= p < self.positions):
                raise DimensionError(f"observed position {p} outside model with {self.positions} positions")
            if not (0 <= t < self.vocab.size):
                raise DimensionError(f"token {t} outside vocabulary of size {self.vocab.size}")
        for p in context.block:
            if not (0 <= p < self.positions):
                raise DimensionError(f"block position {p} outside model with {self.positions} positions")
        if position in context.observed:
            raise ContractViolationError(f"position {position} is already observed in the context")

    def log_conditional_dist(self, position: int, context: PartialContext) -> np.ndarray:
        """Validated log conditional vector over the vocabulary."""
        self._validate_query(position, context)
        return self.log_dist(position, context.observed)

    def log_conditional(self, position: int, token: int, context: PartialContext) -> float:
        """log q(x_position = token | context's observed assignment), in nats."""
        dist = self.log_conditional_dist(position, context)
        if not (0 <= token < self.vocab.size):
            raise DimensionError(f"token {token} outside vocabulary of size {self.vocab.size}")
        return float(dist[token])

    def to_dict(self) -> dict:
        raise NotImplementedError


class TabularJointModel(ConditionalOracle):
    """Exact joint over ``vocab_size ** positions`` states.

    The log-mass table is normalized and floored at :data:`LOG_MASS_FLOOR`
    per state, so every state keeps strictly positive mass; a table that is
    already normalized and floored (to 1e-12) is kept as given, so a saved
    model reloads to the same bits.  Conditionals are ratios of exact
    marginals, which makes the model its own exact oracle (``q = p``) and
    the brute-force reference for every other oracle.
    """

    def __init__(self, vocab_size: int, positions: int, log_mass):
        if not (1 <= positions <= MAX_POSITIONS):
            raise SizeCapError(f"positions must be in 1..{MAX_POSITIONS}, got {positions}")
        if not (2 <= vocab_size <= MAX_VOCAB):
            raise SizeCapError(f"vocab size must be in 2..{MAX_VOCAB}, got {vocab_size}")
        super().__init__(vocab_size, positions)
        arr = np.array(log_mass, dtype=np.float64).reshape(-1)
        if arr.size != vocab_size**positions:
            raise DimensionError(
                f"log mass has {arr.size} entries, expected {vocab_size}**{positions} = {vocab_size**positions}"
            )
        if np.any(np.isnan(arr)) or np.any(arr == np.inf):
            raise ContractViolationError("log mass entries must be finite or -inf")
        total = float(logsumexp(arr)[0])
        if not (abs(total) <= _NORMALIZED_TOL and arr.min() >= LOG_MASS_FLOOR - _NORMALIZED_TOL):
            arr = np.maximum(arr - total, LOG_MASS_FLOOR)
            arr = arr - logsumexp(arr)
        arr.flags.writeable = False
        self._log_mass = arr
        self._nd = arr.reshape((self.vocab.size,) * self.positions)

        # log_marginal[d_0, ..., d_{m-1}]: digit d > 0 fixes that position to
        # token d - 1, digit 0 sums it out; filled one axis at a time in place
        m, radix = self.positions, self.vocab.size + 1
        marginal = np.zeros((radix,) * m)
        marginal[(slice(1, None),) * m] = np.exp(self._nd)
        for axis in range(m):
            head = (slice(None),) * axis
            np.sum(marginal[head + (slice(1, None),)], axis=axis, keepdims=True, out=marginal[head + (slice(0, 1),)])
        np.log(marginal, out=marginal)
        marginal.flags.writeable = False
        self._log_marginal = marginal
        # per position i, the same array as [digits before i, digit i, digits after i]
        self._by_position = [marginal.reshape(radix**i, radix, radix ** (m - 1 - i)) for i in range(m)]

    @classmethod
    def from_probabilities(cls, table) -> "TabularJointModel":
        arr = np.asarray(table, dtype=np.float64)
        if arr.ndim < 1 or any(d != arr.shape[0] for d in arr.shape):
            raise DimensionError(f"probability table must be a (V,)*m hypercube, got shape {arr.shape}")
        with np.errstate(divide="ignore"):
            return cls(arr.shape[0], arr.ndim, np.log(arr))

    @classmethod
    def uniform(cls, vocab_size: int, positions: int) -> "TabularJointModel":
        return cls(vocab_size, positions, np.zeros(vocab_size**positions))

    @property
    def log_mass(self) -> np.ndarray:
        """Flat normalized log-mass table, row-major (last position fastest)."""
        return self._log_mass

    @property
    def log_mass_nd(self) -> np.ndarray:
        return self._nd

    def log_rows(self, position: int, cls) -> np.ndarray:
        # the digits before and after `position` index the outer and inner axis
        low = (self.vocab.size + 1) ** (self.positions - 1 - position)
        hi, lo = cls // low, cls % low
        rows = self._by_position[position][hi, :, lo]
        return rows[..., 1:] - rows[..., 0:1]

    def log_block_conditional(self, context: PartialContext) -> np.ndarray:
        """Exact log p(x_block | observed) as an array with one axis per block position.

        Positions that are neither observed nor in the block are marginalized
        out.  Axes follow the block tuple's own order.
        """
        if not context.block:
            raise ContractViolationError("block must be non-empty")
        self._validate_query(context.block[0], context)
        digits: list = [0] * self.positions
        for p, v in context.observed.items():
            digits[p] = v + 1
        evidence = self._log_marginal[tuple(digits)]
        for p in context.block:
            digits[p] = slice(1, None)
        joint = self._log_marginal[tuple(digits)]
        kept = sorted(context.block)
        return np.transpose(joint, [kept.index(p) for p in context.block]) - evidence

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab.size,
            "positions": self.positions,
            "log_mass": [float(v) for v in self._log_mass],
        }


def bayes_conditional(joint: TabularJointModel, position: int, token: int, context: PartialContext) -> float:
    """Exact conditional of the joint: log of a ratio of summed state masses."""
    return joint.log_conditional(position, token, context)


class PerturbedConditionalModel(ConditionalOracle):
    """Exact conditionals with seeded per-context logit noise of magnitude delta.

    One Gaussian offset vector is drawn per (position, visible-context class)
    at construction, so identical (seed, delta) give bit-identical conditionals
    regardless of query order.  ``delta = 0`` reproduces the base conditionals
    exactly (after renormalization).
    """

    def __init__(self, base: TabularJointModel, delta: float, perturbation_seed: int):
        if not (math.isfinite(delta) and delta >= 0):
            raise ContractViolationError(f"delta must be finite and >= 0, got {delta}")
        super().__init__(base.vocab.size, base.positions)
        self.base = base
        self.delta = float(delta)
        self.perturbation_seed = int(perturbation_seed)
        shape = (self.positions, context_class_count(self.positions, self.vocab.size), self.vocab.size)
        offsets = seeded_rng(self.perturbation_seed).standard_normal(shape)
        offsets.flags.writeable = False
        self._offsets = offsets

    def log_rows(self, position: int, cls) -> np.ndarray:
        return log_normalize(self.base.log_rows(position, cls) + self.delta * self._offsets[position, cls])

    def to_dict(self) -> dict:
        out = self.base.to_dict()
        out["perturbation"] = {"delta": self.delta, "seed": self.perturbation_seed}
        return out


def perturbed_conditional(
    model: PerturbedConditionalModel, position: int, token: int, context: PartialContext
) -> float:
    return model.log_conditional(position, token, context)


@dataclass(frozen=True)
class LogitTable:
    """Raw pre-softmax logits, one vector per (position, visible-context class).

    The induced conditional at a cell is the softmax of its vector, so adding
    a scalar to a whole vector leaves the conditional unchanged; only those
    shift-invariant objects are identifiable.
    """

    vocab: Vocabulary
    positions: int
    logits: np.ndarray

    def __post_init__(self):
        if not (1 <= self.positions <= MAX_POSITIONS):
            raise SizeCapError(f"positions must be in 1..{MAX_POSITIONS}, got {self.positions}")
        if self.vocab.size > MAX_VOCAB:
            raise SizeCapError(f"vocab size must be <= {MAX_VOCAB}, got {self.vocab.size}")
        expected = (self.positions, context_class_count(self.positions, self.vocab.size), self.vocab.size)
        arr = np.array(self.logits, dtype=np.float64)
        if arr.shape != expected:
            raise DimensionError(f"logit table must have shape {expected}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("logit table entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "logits", arr)

    @property
    def n_classes(self) -> int:
        return context_class_count(self.positions, self.vocab.size)

    @classmethod
    def zeros(cls, vocab_size: int, positions: int) -> "LogitTable":
        shape = (positions, context_class_count(positions, vocab_size), vocab_size)
        return cls(Vocabulary(vocab_size), positions, np.zeros(shape))

    @classmethod
    def random(cls, vocab_size: int, positions: int, seed: int, scale: float = 1.0) -> "LogitTable":
        shape = (positions, context_class_count(positions, vocab_size), vocab_size)
        return cls(Vocabulary(vocab_size), positions, scale * seeded_rng(seed).standard_normal(shape))


def apply_logit_shift(table: LogitTable, shifts) -> LogitTable:
    """Add one scalar per (position, context class) to every logit in that cell."""
    arr = np.broadcast_to(np.asarray(shifts, dtype=np.float64), (table.positions, table.n_classes))
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError("logit shifts must be finite")
    return LogitTable(table.vocab, table.positions, table.logits + arr[:, :, None])


class LogitTableOracle(ConditionalOracle):
    """Oracle whose conditionals are softmaxes of a logit table's cells."""

    def __init__(self, table: LogitTable):
        super().__init__(table.vocab.size, table.positions)
        self.table = table

    def log_rows(self, position: int, cls) -> np.ndarray:
        return log_normalize(self.table.logits[position, cls])

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab.size,
            "positions": self.positions,
            "logit_table": {"values": [float(v) for v in self.table.logits.reshape(-1)]},
        }


@dataclass(frozen=True)
class ModelBundle:
    """A loaded model file: the oracle to diagnose plus, when available, the
    exact reference joint supplying p."""

    oracle: ConditionalOracle
    joint: TabularJointModel | None
    model_id: str


def model_from_dict(data: Mapping) -> ModelBundle:
    """Build oracle + reference joint from the model JSON schema.

    Schema: ``{vocab_size, positions, log_mass?: flat row-major array,
    perturbation?: {delta, seed}, logit_table?: {values}, train_config?}``.
    Row-major means the last position varies fastest.
    """
    known = {"vocab_size", "positions", "log_mass", "perturbation", "logit_table", "train_config"}
    unknown = set(data) - known
    if unknown:
        raise DimensionError(f"unknown model fields: {sorted(unknown)}")
    vocab_size = int(data["vocab_size"])
    positions = int(data["positions"])
    joint = None
    if "log_mass" in data:
        joint = TabularJointModel(vocab_size, positions, data["log_mass"])
    if "logit_table" in data:
        values = np.asarray(data["logit_table"]["values"], dtype=np.float64)
        shape = (positions, context_class_count(positions, vocab_size), vocab_size)
        table = LogitTable(Vocabulary(vocab_size), positions, values.reshape(shape))
        oracle: ConditionalOracle = LogitTableOracle(table)
    elif "perturbation" in data:
        if joint is None:
            raise DimensionError("perturbed model files need a log_mass table")
        pert = data["perturbation"]
        oracle = PerturbedConditionalModel(joint, float(pert["delta"]), int(pert["seed"]))
    else:
        if joint is None:
            raise DimensionError("model file needs log_mass and/or logit_table")
        oracle = joint
    return ModelBundle(oracle=oracle, joint=joint, model_id=model_id(oracle, joint))


def model_id(oracle: ConditionalOracle, joint: TabularJointModel | None) -> str:
    """Hash of a model's content, the same for a recipe and the file it saves to:
    canonical JSON of the sizes and the perturbation, then the raw float64
    bytes of the log-mass table and of the logit table where present."""
    perturbation = None
    if isinstance(oracle, PerturbedConditionalModel):
        perturbation = {"delta": oracle.delta, "seed": oracle.perturbation_seed}
    header = {"vocab_size": oracle.vocab.size, "positions": oracle.positions, "perturbation": perturbation}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    # the tables are C-contiguous, so the digest reads their buffers without a copy
    if joint is not None:
        digest.update(b"log_mass")
        digest.update(joint.log_mass)
    if isinstance(oracle, LogitTableOracle):
        digest.update(b"logit_table")
        digest.update(oracle.table.logits)
    return digest.hexdigest()[:12]


def plain_json(obj):
    """Copy of obj with numpy scalars and arrays turned into plain JSON types."""
    if (kind := type(obj)) in (float, int, str, bool, type(None)):  # exact types skip the slow ABC and numpy checks
        return obj
    if kind is dict or kind not in (list, tuple) and isinstance(obj, Mapping):
        return {str(k): plain_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_json(v) for v in obj]
    if isinstance(obj, np.ndarray):  # tolist() gives a scalar for a 0-d array
        return plain_json(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def load_model(path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: ConditionalOracle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=1)
        fh.write("\n")
