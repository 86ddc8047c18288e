import numpy as np

from cswin_seg.initializers import trunc_normal

from oracles import trunc_normal_reference


class TestTruncNormal:
    def test_bitwise_equal_to_whole_array_resampling(self):
        cases = [((7,), 0.02), ((3, 4, 5), 1.0), ((1, 1, 64, 16), 0.5), ((200_000,), 0.02)]
        rounds_seen = []
        for seed, (shape, std) in enumerate(cases):
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = trunc_normal(rng_got, shape, std, "f64").data
            want, rounds = trunc_normal_reference(rng_want, shape, std)
            assert got.shape == tuple(shape)
            assert (got == want).all(), (shape, std)
            assert rng_got.random() == rng_want.random(), "different number of draws"
            rounds_seen.append(rounds)
        # the large case needs several resampling rounds
        assert max(rounds_seen) >= 3
