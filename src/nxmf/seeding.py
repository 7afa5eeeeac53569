"""Counter-split random streams.

All randomness in the package flows from a single 64-bit master seed.  Each
consumer derives an independent Philox stream keyed by (purpose, *counters),
so trajectories are reproducible and stable under changes in agent count,
replica count or batching: the values drawn for (replica r, step s) never
depend on how many other replicas or steps exist.

The stream of a key is numpy's Generator(Philox(SeedSequence(master_seed,
spawn_key=key))).  Path noise is the exception: it uses the one Philox key K
of stream(master_seed, NOISE) with the (step, replica) slot in the counter,
so slot (replica r, global step s) is Generator(Philox(key=K, counter=[0, 0,
s, r])).  Philox is counter-based (Salmon et al., SC'11): distinct counters
give disjoint blocks of one keyed stream, and no slot draws anywhere near
2**128 blocks, so no two slots overlap.  normal_block draws the slots of one
step through one reused bit generator.
"""

from __future__ import annotations

import numpy as np

# purpose tags for stream derivation
INIT = 1      # initial particle draws
NOISE = 2     # per-step diffusion increments
BOOTSTRAP = 3 # bootstrap resampling in gap estimators
GRAPH = 4     # random graph sampling


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key).

    Distinct keys give statistically independent Philox streams; the same
    key always reproduces the same stream.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def normal_block(key: np.ndarray, step: int, replicas, shape) -> np.ndarray:
    """Standard-normal blocks, shape (len(replicas), *shape): block i is the
    first draw standard_normal(shape) of Generator(Philox(key=key,
    counter=[0, 0, step, replicas[i]])).

    Row j of a block is a function of (key, step, replica, j) only, so
    growing the leading dimension of shape extends the block without
    changing earlier rows.
    """
    out = np.empty((len(replicas), *shape))
    bit_gen = np.random.Philox(key=key)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state          # fresh: counter 0, empty buffer; the counter is set per slot
    counter = state["state"]["counter"]
    counter[2] = step
    for i, r in enumerate(replicas):
        counter[3] = r
        bit_gen.state = state
        gen.standard_normal(out=out[i])
    return out
