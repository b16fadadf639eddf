"""Counter-based pseudo-random streams (Philox 4x32, 10 rounds).

Draw number i of a given stream is a pure function of (seed, stream, i),
so disjoint index ranges can be generated independently and the merged
result is identical to a single sequential pass.  The generator is
fixed: changing it would silently change every sampled experiment.
Every block, of a point batch or of a stream's refill, comes from
_blocks and its one lane-packed philox4x32 call, whose ten rounds are
one loop that bumps the key after each round.
"""

import sys
from array import array

from .errors import RangeError

# prefilled_streams computes the first blocks of at most BATCH consecutive
# streams per batch, and of at most _BATCH_BLOCKS blocks in all, so a point
# in thousands of variables takes fewer streams per batch, not more memory.
# A stream's own refill computes at most BATCH consecutive blocks at once.
BATCH = 256
_BATCH_BLOCKS = 4096


def _lane_ones(lanes):
    """The int with a 1 at the bottom of each of `lanes` 64-bit lanes."""
    return ((1 << 64 * lanes) - 1) // 0xFFFFFFFFFFFFFFFF


def philox4x32(key0, key1, c0, c1, c2, c3, lanes=1):
    """Apply one 10-round Philox 4x32 block in each of `lanes` lanes.

    Every argument, and each of the four results, packs `lanes` 64-bit
    lanes (lane j is bits 64j to 64j + 63) that each hold one 32-bit word,
    so lane j of the results is the block of lane j of the arguments.
    With lanes=1 the words are plain 32-bit ints.  Each round multiplies
    c0 by 0xD2511F53 and c2 by 0xCD9E8D57, mixes the high and low halves
    with the round key, then adds the Weyl constants 0x9E3779B9 and
    0xBB67AE85 to every lane of the key.  A 32x32-bit product fits its
    lane and every `>> 32` is masked to the low half of each lane, so no
    bit crosses from one lane to another.
    """
    if lanes < 1:
        raise RangeError(f"need at least one lane, got {lanes}")
    ones = _lane_ones(lanes)
    m = 0xFFFFFFFF * ones
    da, db = 0x9E3779B9 * ones, 0xBB67AE85 * ones
    for _ in range(10):
        p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (r >> 32 & m) ^ c1 ^ key0, r & m, (p >> 32 & m) ^ c3 ^ key1, p & m
        key0, key1 = (key0 + da) & m, (key1 + db) & m
    return c0, c1, c2, c3


class RandomStream:
    """One logical stream of uniform draws, addressed by (seed, stream).

    Within a stream, 32-bit words are consumed in block order; each block
    is philox4x32(seed_lo, seed_hi, block_lo, block_hi, stream_lo, stream_hi).
    A refill computes the next `_lanes` blocks in one _blocks call, and
    `_lanes` doubles with each refill up to BATCH (1, 2, 4, ...), so a
    stream that draws a few words computes a block or two and a long one
    pays for few calls.  below_many raises `_lanes` to the blocks it still
    needs before a refill.
    """

    __slots__ = ("seed", "stream", "_block", "_lanes", "_words")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.stream = stream & 0xFFFFFFFFFFFFFFFF
        self._block = 0
        self._lanes = 1
        self._words = []

    def _refill(self):
        block, lanes = self._block, self._lanes
        self._block = block + lanes
        self._lanes = min(2 * lanes, BATCH)
        # lane j counts block + j, wrapping mod 2^64
        counters = _pack([(block + j) & 0xFFFFFFFFFFFFFFFF for j in range(lanes)])
        words = _blocks(self.seed, counters, self.stream * _lane_ones(lanes), lanes)
        words.reverse()  # blocks in order, w0 to w3 each; pop() takes the first w0 first
        self._words = words

    def next_u32(self) -> int:
        words = self._words
        if not words:
            self._refill()
            words = self._words
        return words.pop()

    def next_u64(self) -> int:
        lo = self.next_u32()
        return lo | (self.next_u32() << 32)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection, no modulo bias."""
        if 0 < bound <= 0x100000000:
            limit = 0x100000000 - 0x100000000 % bound
            w = self.next_u32()
            while w >= limit:
                w = self.next_u32()
            return w % bound
        if bound <= 0:
            raise RangeError(f"bound must be positive, got {bound}")
        if bound > 1 << 63:
            raise RangeError("bounds beyond 2^63 are not supported")
        limit = 0x10000000000000000 - 0x10000000000000000 % bound
        v = self.next_u64()
        while v >= limit:
            v = self.next_u64()
        return v % bound

    def below_many(self, bound: int, count: int) -> list:
        """The list that `count` calls of next_below(bound) would return.

        It reads the same words and leaves the stream at the same word.
        Below 2^32 the words are taken from the buffer a run at a time, never
        more than the draws still missing, and the rejected ones are dropped;
        a refill computes at least the blocks still missing, up to BATCH,
        which changes how many blocks a call computes but not the words.
        Larger bounds take count next_below calls.
        """
        if not 0 < bound <= 0x100000000:
            if bound <= 0:
                raise RangeError(f"bound must be positive, got {bound}")
            if bound > 1 << 63:
                raise RangeError("bounds beyond 2^63 are not supported")
            return [self.next_below(bound) for _ in range(count)]
        limit = 0x100000000 - 0x100000000 % bound
        out = []
        while len(out) < count:
            missing = count - len(out)
            if not self._words:
                self._lanes = max(self._lanes, min((missing + 3) // 4, BATCH))
                self._refill()
            words = self._words
            take = min(missing, len(words))
            run = words[-take:]  # the next words, the last one first
            del words[-take:]
            run.reverse()
            out += map(bound.__rmod__, filter(limit.__gt__, run))
        return out


def _pack(words):
    return int.from_bytes(array("Q", words), sys.byteorder)


def _blocks(seed, blocks, streams, lanes):
    """The words of `lanes` blocks of `seed`, lane by lane, w0 to w3 each.

    Lane j is block (lane j of `blocks`) of stream (lane j of `streams`),
    both packed as 64-bit lanes, computed in one lane-packed philox4x32
    call.
    """
    ones = _lane_ones(lanes)
    m = 0xFFFFFFFF * ones
    out = philox4x32(
        (seed & 0xFFFFFFFF) * ones,
        (seed >> 32) * ones,
        blocks & m,
        blocks >> 32 & m,
        streams & m,
        streams >> 32 & m,
        lanes,
    )
    words = [0] * (4 * lanes)
    for r, w in enumerate(out):
        words[r::4] = array("Q", w.to_bytes(8 * lanes, sys.byteorder))
    return words


def prefilled_streams(seed: int, lo: int, hi: int, blocks: int):
    """RandomStream(seed, i) for i = lo..hi-1, each holding its first blocks.

    For each batch of consecutive streams, blocks 0 to blocks - 1 (at least
    one) of every stream in it come from one _blocks call, stream by stream
    and block by block.  A stream holds those words and goes on from block
    `blocks`, so every draw it makes, rejections included, is the draw a
    fresh stream would make.  Its refills double from one block, as a
    fresh stream's do.
    """
    seed &= 0xFFFFFFFFFFFFFFFF
    blocks = max(blocks, 1)
    new = RandomStream.__new__
    step = max(1, min(BATCH, _BATCH_BLOCKS // blocks))
    for start in range(lo, hi, step):
        index = range(start, min(start + step, hi))
        lanes = len(index) * blocks
        # lane (i, b), the b-th of stream i's lanes, is block b of stream i
        ids = array("Q", [i & 0xFFFFFFFFFFFFFFFF for i in index])
        streams = array("Q", bytes(8 * lanes))
        for b in range(blocks):
            streams[b::blocks] = ids
        words = _blocks(seed, _pack(list(range(blocks)) * len(index)), _pack(streams), lanes)
        words.reverse()  # the last stream first; each pops w0 of its block 0 first
        size = 4 * blocks
        for i, at in zip(index, range(len(words) - size, -1, -size)):
            # every field is set here, once: a batch builds a stream per point
            stream = new(RandomStream)
            stream.seed = seed
            stream.stream = i & 0xFFFFFFFFFFFFFFFF
            stream._block = blocks
            stream._lanes = 1
            stream._words = words[at : at + size]
            yield stream
