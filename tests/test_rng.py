import numpy as np

from hjhomog.rng import derive_seed, derive_seeds, mix, splitmix64, uniform01


def test_determinism():
    a = uniform01(12345, 7, -3, 2)
    b = uniform01(12345, 7, -3, 2)
    assert a == b


def test_range_and_spread():
    vals = uniform01(99, np.arange(20000), 0)
    assert np.all((vals >= 0.0) & (vals < 1.0))
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(vals.mean() - 0.5) < 0.01
    assert abs(vals.var() - 1.0 / 12.0) < 0.005


def test_distinct_streams():
    a = uniform01(1, np.arange(1000), 0)
    b = uniform01(1, np.arange(1000), 1)
    c = uniform01(2, np.arange(1000), 0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # independent-looking: sample correlation small
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_negative_indices_ok():
    # lattice cells can be negative; keys must stay distinct
    vals = uniform01(5, np.arange(-50, 50), 3)
    assert len(np.unique(vals)) == 100


def test_derive_seed_distinct():
    seeds = {derive_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000


def test_mix_vectorizes():
    out = mix(3, np.array([[1], [2]]), np.array([[10, 20]]))
    assert out.shape == (2, 2)
    assert len(np.unique(out)) == 4


def test_mix_with_a_seed_array_equals_the_scalar_loop():
    seeds = np.array([0, 1, -1, 2**63 - 1, -2**63, 123456789], dtype=np.int64)
    cells = np.array([[-3], [0], [5]])
    got = mix(seeds[:, None, None], 0, cells, np.arange(4))
    assert got.shape == (6, 3, 4)
    for i, s in enumerate(seeds):
        assert mix(int(s), 0, cells, np.arange(4)).tobytes() == got[i].tobytes()
        assert mix(int(s)) == mix(seeds[i:i + 1])[0]
    one_by_one = np.array([uniform01(int(s), 7) for s in seeds])
    assert uniform01(seeds, 7).tobytes() == one_by_one.tobytes()


def test_one_call_seed_derivation_equals_derive_seed():
    # words recorded before seeds could be derived in one call
    assert derive_seed(2026, 0) == 9144135664207004107
    assert derive_seed(2026, 63) == 7673439127580382150
    assert derive_seed(-5, 2, 1, 4) == 971630898604949875
    for M in range(1, 65):
        got = derive_seeds(2026, np.arange(M))
        assert got.dtype == np.int64
        assert got.tolist() == [derive_seed(2026, i) for i in range(M)]
        # a rate study's banks: tag 1 then tag 2, per epsilon
        tags = np.repeat([1, 2], [3, M])
        index = np.concatenate([np.arange(3), np.arange(M)])
        bank = derive_seeds(-5, tags, np.arange(2)[:, None], index)
        assert bank.tolist() == [[derive_seed(-5, t, e, i) for t, i in zip(tags, index)]
                                 for e in range(2)]


def test_splitmix_known_scalar():
    # self-consistency: pure function of the input
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
