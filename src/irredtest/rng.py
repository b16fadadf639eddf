"""Counter-based pseudo-random streams (Philox 4x32, 10 rounds).

Draw number i of a given stream is a pure function of (seed, stream, i),
so disjoint index ranges can be generated independently and the merged
result is identical to a single sequential pass.  The generator is
fixed: changing it would silently change every sampled experiment.
"""

from .errors import RangeError

# (key0, key1) -> the round keys (a0, b0, ..., a9, b9).  A run keys every
# block with its one seed, so one entry serves it; the cap bounds callers
# that cycle through many seeds.  An entry is a function of its key, so
# sharing the memo across callers and threads changes no output.
_SCHEDULES = {}
_SCHEDULES_MAX = 64


def _key_schedule(key0, key1):
    keys = []
    a, b = key0, key1
    for _ in range(10):
        keys += (a, b)
        a = (a + 0x9E3779B9) & 0xFFFFFFFF
        b = (b + 0xBB67AE85) & 0xFFFFFFFF
    if len(_SCHEDULES) >= _SCHEDULES_MAX:
        _SCHEDULES.clear()
    _SCHEDULES[key0, key1] = keys = tuple(keys)
    return keys


def philox4x32(key0, key1, c0, c1, c2, c3):
    """Apply one 10-round Philox 4x32 block; returns four 32-bit words.

    Each round multiplies c0 by 0xD2511F53 and c2 by 0xCD9E8D57 and mixes
    the high and low halves with the round key.  The rounds are written
    out and the constants are literals: in CPython that runs about 1.6
    times as fast as a loop over the rounds.
    """
    keys = _SCHEDULES.get((key0, key1)) or _key_schedule(key0, key1)
    a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8, a9, b9 = keys
    m = 0xFFFFFFFF
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a0, r & m, (p >> 32) ^ c3 ^ b0, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a1, r & m, (p >> 32) ^ c3 ^ b1, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a2, r & m, (p >> 32) ^ c3 ^ b2, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a3, r & m, (p >> 32) ^ c3 ^ b3, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a4, r & m, (p >> 32) ^ c3 ^ b4, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a5, r & m, (p >> 32) ^ c3 ^ b5, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a6, r & m, (p >> 32) ^ c3 ^ b6, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a7, r & m, (p >> 32) ^ c3 ^ b7, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a8, r & m, (p >> 32) ^ c3 ^ b8, p & m
    p, r = 0xD2511F53 * c0, 0xCD9E8D57 * c2
    c0, c1, c2, c3 = (r >> 32) ^ c1 ^ a9, r & m, (p >> 32) ^ c3 ^ b9, p & m
    return c0, c1, c2, c3


class RandomStream:
    """One logical stream of uniform draws, addressed by (seed, stream).

    Within a stream, 32-bit words are consumed in block order; each block
    is philox4x32(seed_lo, seed_hi, block_lo, block_hi, stream_lo, stream_hi).
    """

    __slots__ = ("seed", "stream", "_block", "_words")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.stream = stream & 0xFFFFFFFFFFFFFFFF
        self._block = 0
        self._words = []

    def _refill(self):
        seed, stream, block = self.seed, self.stream, self._block
        self._block = block + 1
        w0, w1, w2, w3 = philox4x32(
            seed & 0xFFFFFFFF,
            seed >> 32,
            block & 0xFFFFFFFF,
            (block >> 32) & 0xFFFFFFFF,
            stream & 0xFFFFFFFF,
            stream >> 32,
        )
        self._words = [w3, w2, w1, w0]  # pop() consumes w0 first

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
