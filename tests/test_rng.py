from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import naive_philox
from irredtest import RandomStream, RangeError, philox4x32, rng

WORD = st.sampled_from([0, 0xFFFFFFFF]) | st.integers(0, 0xFFFFFFFF)


def test_philox_known_answer_vectors():
    # reference vectors for philox4x32-10 from the original counter-based
    # generator distribution
    assert philox4x32(0, 0, 0, 0, 0, 0) == (
        0x6627E8D5,
        0xE169C58D,
        0xBC57AC4C,
        0x9B00DBD8,
    )
    ff = 0xFFFFFFFF
    assert philox4x32(ff, ff, ff, ff, ff, ff) == (
        0x408F276D,
        0x41C83B0E,
        0xA20BC7C6,
        0x6D5451FD,
    )
    assert philox4x32(
        0xA4093822, 0x299F31D0, 0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344
    ) == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)


def test_word_stream_regression():
    rs = RandomStream(42)
    assert [rs.next_u32() for _ in range(6)] == [
        2632642643,
        2012563771,
        314527917,
        1463989207,
        4242219303,
        1404726525,
    ]
    rs = RandomStream(42)
    assert [rs.next_u64() for _ in range(2)] == [
        8643895580192075859,
        6287785766076502189,
    ]
    rs = RandomStream(42, stream=7)
    assert rs.next_u32() == 1743679276


@settings(max_examples=300, deadline=None)
@given(WORD, WORD, WORD, WORD, WORD, WORD)
@example(0, 0, 0, 0, 0, 0)
@example(*[0xFFFFFFFF] * 6)
def test_philox_matches_the_loop_over_rounds(key0, key1, c0, c1, c2, c3):
    # twice: the first call may build the key schedule, the second reuses it
    want = naive_philox(key0, key1, c0, c1, c2, c3)
    assert philox4x32(key0, key1, c0, c1, c2, c3) == want
    assert philox4x32(key0, key1, c0, c1, c2, c3) == want


def _pack(words):
    return sum(w << 64 * j for j, w in enumerate(words))


def _lane(packed, j):
    return packed >> 64 * j & 0xFFFFFFFFFFFFFFFF


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[WORD] * 6), min_size=1, max_size=70))
@example([(0xFFFFFFFF,) * 6] * 70)
@example([(0,) * 6, (0xFFFFFFFF,) * 6, (0, 0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0xFFFFFFFF)])
def test_lane_packed_block_matches_each_lane(lanes):
    # every lane has its own keys and counters, high words included; a lane
    # whose products carry into its top bits must not disturb its neighbours
    args = [_pack(col) for col in zip(*lanes)]
    out = philox4x32(*args, lanes=len(lanes))
    for j, words in enumerate(lanes):
        assert tuple(_lane(w, j) for w in out) == naive_philox(*words)
    assert all(w >> 64 * len(lanes) == 0 for w in out)


def test_lane_count_must_be_positive():
    for lanes in (0, -3):
        with pytest.raises(RangeError):
            philox4x32(0, 0, 0, 0, 0, 0, lanes)


def test_key_schedule_memo_stays_small():
    # one schedule per distinct key pair, so a caller cycling through many
    # seeds must not grow the memo without bound
    for key in range(500):
        assert philox4x32(key, 1, 2, 3, 4, 5) == naive_philox(key, 1, 2, 3, 4, 5)
    assert len(rng._SCHEDULES) <= rng._SCHEDULES_MAX
    # lane-packed keys are as large as the batch and never kept, so batches
    # over many seeds leave the memo as it was
    kept = dict(rng._SCHEDULES)
    for key in range(200):
        out = philox4x32(_pack([key] * 40), _pack([1] * 40), 0, 0, _pack(range(40)), 0, 40)
        assert _lane(out[0], 39) == naive_philox(key, 1, 0, 0, 39, 0)[0]
        for stream in rng.prefilled_streams(key, 0, 300, 1):
            stream.next_u32()
    assert rng._SCHEDULES == kept


@pytest.mark.parametrize(
    "seed, lo, hi, blocks",
    [
        (7, 0, 600, 1),
        (-1, 2**32 - 70, 2**32 + 70, 3),
        (2**64 + 5, 2**64 - 5, 2**64 + 5, 2),
        (2**40 + 7, 250, 520, 0),
        # so many blocks a stream that a batch holds only 16 streams
        (3, 0, 40, rng._BATCH_BLOCKS // 16),
    ],
)
def test_prefilled_streams_continue_as_fresh_streams(seed, lo, hi, blocks):
    # a prefilled stream hands out its words, then refills from block
    # `blocks` on, exactly as a fresh RandomStream(seed, i) does
    streams = list(rng.prefilled_streams(seed, lo, hi, blocks))
    assert [s.stream for s in streams] == [i & 0xFFFFFFFFFFFFFFFF for i in range(lo, hi)]
    for i, stream in zip(range(lo, hi), streams):
        fresh = RandomStream(seed, i)
        take = 4 * max(blocks, 1) + 5
        assert [stream.next_u32() for _ in range(take)] == [fresh.next_u32() for _ in range(take)]


def test_next_below_draws_are_frozen():
    # 2^31 + 1 rejects about half the words, so the draws cross refills
    rs = RandomStream(20261018, stream=3)
    assert [rs.next_below(2**31 + 1) for _ in range(60)] == [
        982316159, 1609555984, 734788221, 644307863, 1982630102, 1061999342,
        2086460316, 1746265215, 1216390908, 1144511921, 1487899370, 356755863,
        934707882, 712930978, 1181034382, 48076097, 1798849374, 1530400850,
        476930281, 1366280504, 1264765148, 1895075541, 2121086725, 727915307,
        521338863, 2059032358, 263550852, 188512784, 37704911, 2031842249,
        415026559, 1703358670, 1690831734, 1457871666, 217190927, 17028124,
        1735065429, 815013834, 54804210, 162941009, 451402337, 952925335,
        2062809922, 1373851610, 1714435875, 2140134797, 531214174, 2029866147,
        1979585067, 671650500, 499616663, 423952267, 252779939, 1793769572,
        270920998, 1265414836, 1629390695, 1844770285, 1698073013, 461455954,
    ]
    assert rs.next_u32() == 2816363060  # the rejections consumed their words
    rs = RandomStream(20261018, stream=4)
    assert [rs.next_below(2**40 + 7) for _ in range(20)] == [
        760863424255, 978424742723, 960517637660, 476615384745, 758587629880,
        774197121878, 1086240753099, 146160466943, 116466014546, 1038474497830,
        990499326461, 688849796138, 364444979432, 424127173882, 45991931510,
        985022990194, 572959189600, 1022758848066, 1093715309711, 212393910583,
    ]
    assert rs.next_u32() == 2802836763


def test_streams_are_reproducible_and_distinct():
    a = [RandomStream(5, stream=i).next_u32() for i in range(100)]
    b = [RandomStream(5, stream=i).next_u32() for i in range(100)]
    assert a == b
    assert len(set(a)) == 100  # no collisions across substreams here
    c = [RandomStream(6, stream=i).next_u32() for i in range(100)]
    assert a != c


def test_next_below_range_and_errors():
    rs = RandomStream(1)
    draws = [rs.next_below(7) for _ in range(2000)]
    assert all(0 <= d < 7 for d in draws)
    counts = Counter(draws)
    assert len(counts) == 7
    assert min(counts.values()) > 180
    with pytest.raises(RangeError):
        rs.next_below(0)
    with pytest.raises(RangeError):
        rs.next_below(-4)
    with pytest.raises(RangeError):
        rs.next_below(1 << 64)


def test_next_below_large_bound_uses_64_bits():
    rs = RandomStream(2)
    bound = (1 << 40) + 7
    draws = [rs.next_below(bound) for _ in range(50)]
    assert all(0 <= d < bound for d in draws)
    assert max(draws) > 1 << 32  # actually exercises the wide path


def test_bound_one_is_constant_zero():
    rs = RandomStream(3)
    assert [rs.next_below(1) for _ in range(5)] == [0] * 5


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(1, 2**63),
    st.integers(0, 30),
)
def test_next_below_stays_in_range(seed, stream, bound, skip):
    rs = RandomStream(seed, stream=stream)
    for _ in range(skip):
        rs.next_below(bound)
    assert 0 <= rs.next_below(bound) < bound


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_word_order_matches_raw_blocks(seed, stream):
    # the stream must hand out w0..w3 of each block before advancing
    rs = RandomStream(seed, stream=stream)
    first = philox4x32(
        seed & 0xFFFFFFFF,
        seed >> 32,
        0,
        0,
        stream & 0xFFFFFFFF,
        stream >> 32,
    )
    second = philox4x32(
        seed & 0xFFFFFFFF,
        seed >> 32,
        1,
        0,
        stream & 0xFFFFFFFF,
        stream >> 32,
    )
    assert [rs.next_u32() for _ in range(8)] == list(first) + list(second)


def test_batches_hold_a_bounded_number_of_blocks(monkeypatch):
    # up to rng.BATCH streams a batch, fewer when their blocks would pass
    # rng._BATCH_BLOCKS; a batch is one call with a lane per (stream, block),
    # and the kernel is looked up at call time, so the spy sees every call
    seen = []
    kernel = rng.philox4x32

    def spy(*args):
        seen.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(rng, "philox4x32", spy)
    cap = rng._BATCH_BLOCKS
    cases = ((1, 600, 256, 3), (3, 600, 768, 3), (cap // 16, 40, cap, 3), (cap + 1, 2, cap + 1, 2))
    for blocks, count, lanes, calls in cases:
        seen.clear()
        assert len(list(rng.prefilled_streams(1, 0, count, blocks))) == count
        assert max(seen) == lanes <= max(cap, blocks)
        assert all(n % blocks == 0 for n in seen)
        assert len(seen) == calls


def test_blocks_match_one_block_per_lane():
    # lane j is block (lane j of blocks) of stream (lane j of streams); the
    # stream ids pass 2^32 and the block numbers wrap past 2^64
    seed = 2**63 + 12345
    cases = [(s, b % 2**64) for s in (2**40 + 3, 7) for b in (2**64 - 2, 2**64 - 1, 2**64)]
    blocks, streams = _pack([b for _, b in cases]), _pack([s for s, _ in cases])
    words = rng._blocks(seed, blocks, streams, len(cases))
    want = []
    for s, b in cases:
        want += naive_philox(
            seed & 0xFFFFFFFF, seed >> 32, b & 0xFFFFFFFF, b >> 32, s & 0xFFFFFFFF, s >> 32
        )
    assert words == want


class _OneBlockStream:
    """Words from one naive_philox block at a time, from block `start` on;
    u64 and bounded draws are RandomStream's own, read off these words."""

    def __init__(self, seed, stream, start):
        seed &= 0xFFFFFFFFFFFFFFFF
        stream &= 0xFFFFFFFFFFFFFFFF
        self.key = (seed & 0xFFFFFFFF, seed >> 32)
        self.ctr = (stream & 0xFFFFFFFF, stream >> 32)
        self.block = start
        self.words = []

    def next_u32(self):
        if not self.words:
            b = self.block & 0xFFFFFFFFFFFFFFFF
            self.block += 1
            self.words = list(naive_philox(*self.key, b & 0xFFFFFFFF, b >> 32, *self.ctr))[::-1]
        return self.words.pop()

    next_u64 = RandomStream.next_u64
    next_below = RandomStream.next_below


def _draw(stream, op, arg):
    if op == "u32":
        return [stream.next_u32() for _ in range(arg)]
    if op == "u64":
        return [stream.next_u64() for _ in range(arg)]
    return [stream.next_below(arg) for _ in range(50)]


START = st.sampled_from([0, 2**32 - 5, 2**32 - 700, 2**64 - 40, 2**64 - 900])
START |= st.integers(0, 2**64 - 1)
# 2^31 + 5 rejects about half the words, 2^64 // 3 + 1 about a third of the pairs
BOUND = st.sampled_from([7, 2**31 + 5, 2**32, 2**40 + 3, 2**64 // 3 + 1, 2**63])
BOUND |= st.integers(1, 2**63)
OPS = st.lists(
    st.tuples(st.just("u32"), st.integers(1, 1500))
    | st.tuples(st.just("u64"), st.integers(1, 40))
    | st.tuples(st.just("below"), BOUND),
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-(2**64), 2**65), st.integers(0, 2**64 - 1), START, st.sampled_from([0, 1]), OPS
)
# past the doublings (511 blocks) and then across BATCH-lane refills, over
# the 2^32 carry into the high counter word and the 2^64 wrap
@example(7, 1 << 32, 2**32 - 700, 1, [("u32", 3500), ("below", 2**31 + 5), ("u64", 3)])
@example(-1, 2**64 - 1, 2**64 - 900, 0, [("below", 2**63), ("u32", 3500), ("below", 7)])
def test_refills_hand_out_the_one_block_words(seed, stream, start, lanes, ops):
    # however long the refills grow, a stream pops the words of its blocks
    # in order, rejections included, as one block per refill would; lanes
    # 0 is how a prefilled stream starts
    rs = RandomStream(seed, stream)
    rs._block = start
    rs._lanes = lanes
    ref = _OneBlockStream(seed, stream, start)
    for op, arg in ops:
        assert _draw(rs, op, arg) == _draw(ref, op, arg)
    assert _draw(rs, "u32", 9) == _draw(ref, "u32", 9)


def test_refills_double_up_to_a_batch(monkeypatch):
    # the kernel is looked up at call time, so the spy sees every call
    seen = []
    kernel = rng.philox4x32

    def spy(*args):
        seen.append(args[6] if len(args) > 6 else 1)
        return kernel(*args)

    monkeypatch.setattr(rng, "philox4x32", spy)
    words = 10_000
    rs = RandomStream(11, stream=5)
    for _ in range(words):
        rs.next_u32()
    batch = rng.BATCH
    assert seen[: batch.bit_length()] == [1 << j for j in range(batch.bit_length())]
    assert max(seen) == batch
    assert len(seen) <= batch.bit_length() + -(-words // (4 * batch))
    # a prefilled stream refills for rejected words, which mostly need a
    # block: its first two refills are one lane each, then it doubles
    (stream,) = rng.prefilled_streams(11, 5, 6, 2)
    for _ in range(8):
        stream.next_u32()
    seen.clear()
    for _ in range(4 * 7):
        stream.next_u32()
    assert seen == [1, 1, 2, 4]


def _stream_at(seed, stream, start, lanes):
    if lanes is None:  # a prefilled stream: `_lanes` 0 and its first 2 blocks held
        (rs,) = rng.prefilled_streams(seed, stream, stream + 1, 2)
        return rs
    rs = RandomStream(seed, stream)
    rs._block = start
    rs._lanes = lanes
    return rs


# 1 and 2^32 reject nothing, 2^31 + 5 about half the words; 2^40 + 3 and
# 2^63 take 64-bit draws through next_below
MANY_BOUND = st.sampled_from([1, 3, 19, 2**31 + 5, 2**32, 2**40 + 3, 2**63])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-(2**64), 2**65),
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**32 - 5, 2**64 - 40]),
    st.sampled_from([None, 0, 1]),
    MANY_BOUND,
    st.lists(st.integers(0, 1500), max_size=4),
)
@example(7, 1 << 32, 2**32 - 5, 1, 2**31 + 5, [0, 1, 1500, 1499])
@example(-1, 2**64 - 1, 2**64 - 40, None, 3, [1500, 1500, 0, 4])
def test_below_many_equals_next_below_calls(seed, stream, start, lanes, bound, counts):
    # the same values, and the stream left at the same word: the next
    # 50 words of both streams agree
    rs = _stream_at(seed, stream, start, lanes)
    ref = _stream_at(seed, stream, start, lanes)
    for count in counts:
        assert rs.below_many(bound, count) == [ref.next_below(bound) for _ in range(count)]
    assert [rs.next_u32() for _ in range(50)] == [ref.next_u32() for _ in range(50)]


@pytest.mark.parametrize("bound", [0, -3, 2**63 + 1, 2**64])
@pytest.mark.parametrize("count", [0, 5])
def test_below_many_checks_the_bound_as_next_below_does(bound, count):
    rs = RandomStream(1)
    with pytest.raises(RangeError) as many:
        rs.below_many(bound, count)
    with pytest.raises(RangeError) as single:
        rs.next_below(bound)
    assert str(many.value) == str(single.value)
    assert rs._words == [] and rs._block == 0  # nothing was drawn


def test_below_many_refills_the_blocks_it_still_needs(monkeypatch):
    seen = []
    kernel = rng.philox4x32

    def spy(*args):
        seen.append(args[6] if len(args) > 6 else 1)
        return kernel(*args)

    monkeypatch.setattr(rng, "philox4x32", spy)
    rs = RandomStream(11, stream=5)
    rs.below_many(3, 210)  # 53 blocks in one call, where doubling makes six
    assert seen == [53]
    rs.below_many(3, 2)  # the two words left over
    rs.below_many(7, 5000)  # 1,250 blocks, at most BATCH at a time
    assert seen == [53] + [rng.BATCH] * 5
    # a refill never takes fewer blocks than the doubling would
    rs = RandomStream(11, stream=6)
    rs.next_u32()
    rs.next_u32()
    rs.next_u32()
    rs.next_u32()
    rs.next_u32()  # the second refill: two blocks, 7 words left, 4 lanes next
    seen.clear()
    rs.below_many(5, 7 + 3)  # 3 words short: one block would do, 4 it is
    assert seen == [4]
