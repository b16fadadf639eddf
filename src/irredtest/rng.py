"""Counter-based pseudo-random streams (Philox 4x32, 10 rounds).

Draw number i of a given stream is a pure function of (seed, stream, i),
so disjoint index ranges can be generated independently and the merged
result is identical to a single sequential pass.  The generator is
fixed: changing it would silently change every sampled experiment.
"""

from .errors import RangeError

_M0 = 0xD2511F53
_M1 = 0xCD9E8D57
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def philox4x32(key0, key1, c0, c1, c2, c3):
    """Apply one 10-round Philox 4x32 block; returns four 32-bit words."""
    for _ in range(10):
        hi0, lo0 = divmod(_M0 * c0, 0x100000000)
        hi1, lo1 = divmod(_M1 * c2, 0x100000000)
        c0 = hi1 ^ c1 ^ key0
        c1 = lo1
        c2 = hi0 ^ c3 ^ key1
        c3 = lo0
        key0 = (key0 + _W0) & _MASK32
        key1 = (key1 + _W1) & _MASK32
    return c0, c1, c2, c3


class RandomStream:
    """One logical stream of uniform draws, addressed by (seed, stream).

    Within a stream, 32-bit words are consumed in block order; each block
    is philox4x32(seed_lo, seed_hi, block_lo, block_hi, stream_lo, stream_hi).
    """

    __slots__ = ("seed", "stream", "_block", "_words")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._block = 0
        self._words = []

    def _refill(self):
        k0 = self.seed & _MASK32
        k1 = (self.seed >> 32) & _MASK32
        c0 = self._block & _MASK32
        c1 = (self._block >> 32) & _MASK32
        c2 = self.stream & _MASK32
        c3 = (self.stream >> 32) & _MASK32
        self._block += 1
        w = philox4x32(k0, k1, c0, c1, c2, c3)
        self._words = [w[3], w[2], w[1], w[0]]  # pop() consumes w0 first

    def next_u32(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop()

    def next_u64(self) -> int:
        lo = self.next_u32()
        return lo | (self.next_u32() << 32)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection, no modulo bias."""
        if bound <= 0:
            raise RangeError(f"bound must be positive, got {bound}")
        if bound <= 0x100000000:
            limit = 0x100000000 - (0x100000000 % bound)
            while True:
                w = self.next_u32()
                if w < limit:
                    return w % bound
        if bound > 1 << 63:
            raise RangeError("bounds beyond 2^63 are not supported")
        limit = 0x10000000000000000 - (0x10000000000000000 % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound
