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


def test_key_schedule_memo_stays_small():
    # one schedule per distinct key pair, so a caller cycling through many
    # seeds must not grow the memo without bound
    for key in range(500):
        assert philox4x32(key, 1, 2, 3, 4, 5) == naive_philox(key, 1, 2, 3, 4, 5)
    assert len(rng._SCHEDULES) <= rng._SCHEDULES_MAX


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
