"""Counter-split random streams.

All randomness in the package flows from a single 64-bit master seed.  Each
consumer derives an independent Philox stream keyed by (purpose, *counters),
so trajectories are reproducible and stable under changes in agent count,
replica count or batching: the values drawn for (replica r, step s) never
depend on how many other replicas or steps exist.

The stream of a key is numpy's Generator(Philox(SeedSequence(master_seed,
spawn_key=key))): its Philox key is SeedSequence(master_seed,
spawn_key=key).generate_state(2, uint64) and its counter starts at 0, so any
slot can be reproduced with plain numpy.  philox_keys computes those keys
for many slots at once, and normal_block draws from them through one reused
bit generator.
"""

from __future__ import annotations

import numpy as np

# purpose tags for stream derivation
INIT = 1      # initial particle draws
NOISE = 2     # per-step diffusion increments
BOOTSTRAP = 3 # bootstrap resampling in gap estimators
GRAPH = 4     # random graph sampling

# numpy's SeedSequence hash constants (bit_generator.pyx), pool of 4 words
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key).

    Distinct keys give statistically independent Philox streams; the same
    key always reproduces the same stream.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _words(value: int) -> list[int]:
    """value as little-endian uint32 words, as SeedSequence reads an int."""
    value = int(value)
    if value < 0:
        raise ValueError("seeds and keys must be >= 0")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, h: int, mult: int = _MULT_A):
    """numpy's hashmix of value (a Python int or a uint32 array) with hash
    constant h, and the next h; arithmetic is mod 2**32."""
    value = value ^ h
    h = (h * mult) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def philox_keys(master_seed: int, key: tuple[int, ...], counters) -> np.ndarray:
    """Philox keys of stream(master_seed, *key, *c) for each row c of the
    (slots, k) counters, shape (slots, 2) uint64.

    numpy's SeedSequence hash (hashmix and mix over a 4-word pool, then
    generate_state(2, uint64)): the words of master_seed and key in Python
    ints, then each counter column as a uint32 array, one lane per slot.
    Each counter must lie in [0, 2**32), one entropy word as SeedSequence
    reads it.
    """
    c = np.asarray(counters, dtype=np.int64)
    if c.ndim != 2:
        raise ValueError("counters must have shape (slots, k)")
    if c.size and not (c.min() >= 0 and c.max() <= _MASK32):
        raise ValueError("counters must lie in [0, 2**32)")
    run = _words(master_seed)
    run += [0] * (_POOL - len(run))            # padded because a spawn key follows
    entropy = run + [w for k in key for w in _words(k)] + list(c.T.astype(np.uint32))
    h, pool = _INIT_A, []
    for word in entropy[:_POOL]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(2, uint64): four words, read as two little-endian pairs
    state, h = np.empty((c.shape[0], 4), dtype="<u4"), _INIT_B
    for i in range(4):
        state[:, i], h = _hashmix(pool[i], h, _MULT_B)
    return state.view("<u8").astype(np.uint64)


def normal_block(keys: np.ndarray, shape) -> np.ndarray:
    """Standard-normal blocks, shape (len(keys), *shape): block i is the
    first draw standard_normal(shape) of the stream with Philox key
    keys[i], i.e. stream(master_seed, *key).standard_normal(shape) for the
    keys philox_keys gives.

    Row j of a block is a function of (key, j) only, so growing the leading
    dimension of shape extends the block without changing earlier rows.
    """
    out = np.empty((len(keys), *shape))
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state          # fresh: counter 0, empty buffer; the key is set per slot
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        bit_gen.state = state
        gen.standard_normal(out=out[i])
    return out
