import numpy as np
import pytest
from hypothesis import given, strategies as st

from sobolmc.core import (
    MAX_DIM,
    BlockSampler,
    DimensionError,
    EvalCounter,
    IndexSet,
    RngSpec,
    blend,
)


def sets(max_dim=10):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.integers(0, (1 << d) - 1).map(lambda b: IndexSet(b, d))
    )


class TestIndexSet:
    def test_members_and_contains(self):
        u = IndexSet.from_indices([1, 3], 3)
        assert u.members() == (1, 3)
        assert 1 in u and 3 in u and 2 not in u
        assert len(u) == 2
        assert str(u) == "{1,3}"
        assert str(IndexSet.empty(3)) == "{}"

    def test_from_indices_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="coordinate 9"):
            IndexSet.from_indices([9], 6)
        with pytest.raises(ValueError, match="coordinate 0"):
            IndexSet.from_indices([0], 6)

    def test_from_indices_rejects_a_repeated_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 1 is repeated"):
            IndexSet.from_indices([1, 1], 3)
        with pytest.raises(ValueError, match="coordinate 2 is repeated"):
            IndexSet.parse("2,3,2", 3)

    def test_parse(self):
        assert IndexSet.parse("1,3", 3) == IndexSet.from_indices([1, 3], 3)
        assert IndexSet.parse("{2, 3}", 3) == IndexSet.from_indices([2, 3], 3)
        assert IndexSet.parse("", 3) == IndexSet.empty(3)
        assert IndexSet.parse("{}", 3) == IndexSet.empty(3)

    def test_dim_cap(self):
        IndexSet.empty(MAX_DIM)
        with pytest.raises(DimensionError):
            IndexSet.empty(MAX_DIM + 1)
        with pytest.raises(ValueError):
            IndexSet(1 << 3, 3)  # bit at position >= d

    def test_complement_examples(self):
        assert IndexSet.empty(3).complement() == IndexSet.full(3)
        assert IndexSet.from_indices([1], 3).complement() == IndexSet.from_indices([2, 3], 3)

    @given(sets())
    def test_complement_involution_and_xor(self, u):
        assert u.complement().complement() == u
        assert u.complement().bits ^ u.bits == (1 << u.dim) - 1

    @given(sets(max_dim=12))
    def test_subsets_enumerates_each_once(self, u):
        subs = list(u.subsets())
        assert len(subs) == 2 ** len(u)
        assert len(set(subs)) == len(subs)
        assert all(v.bits & u.bits == v.bits for v in subs)
        # increasing bitmask order makes the smallest-mask tie-break natural
        assert [v.bits for v in subs] == sorted(v.bits for v in subs)

    @given(sets(), sets())
    def test_set_algebra(self, u, v):
        if u.dim != v.dim:
            with pytest.raises(DimensionError):
                u.isdisjoint(v)
            return
        w = IndexSet(u.bits | v.bits, u.dim)
        assert set(w.members()) == set(u.members()) | set(v.members())
        both = IndexSet(u.bits & v.bits, u.dim)
        neither = IndexSet(u.complement().bits & v.complement().bits, u.dim)
        assert both.isdisjoint(neither)
        assert u.isdisjoint(v) == (both == IndexSet.empty(u.dim))


class TestBlend:
    def test_empty_takes_y_full_takes_x(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(5), rng.random(5)
        assert np.array_equal(blend(x, y, IndexSet.empty(5)), y)
        assert np.array_equal(blend(x, y, IndexSet.full(5)), x)

    def test_equal_points_idempotent(self):
        x = np.random.default_rng(1).random(4)
        for u in IndexSet.full(4).subsets():
            assert np.array_equal(blend(x, x, u), x)

    def test_coordinatewise(self):
        x = np.array([0.1, 0.2, 0.3])
        y = np.array([0.7, 0.8, 0.9])
        got = blend(x, y, IndexSet.from_indices([1, 3], 3))
        assert np.array_equal(got, [0.1, 0.8, 0.3])

    @given(sets(max_dim=8), st.integers(0, 2**32 - 1))
    def test_blend_swap_complement(self, u, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random(u.dim), rng.random(u.dim)
        assert np.array_equal(blend(x, y, u), blend(y, x, u.complement()))

    def test_batch_shape(self):
        rng = np.random.default_rng(2)
        xs, ys = rng.random((10, 4)), rng.random((10, 4))
        u = IndexSet.from_indices([2], 4)
        out = blend(xs, ys, u)
        assert out.shape == (10, 4)
        assert np.array_equal(out[:, 1], xs[:, 1])
        assert np.array_equal(out[:, 0], ys[:, 0])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            blend(np.zeros(3), np.zeros(4), IndexSet.empty(3))
        with pytest.raises(DimensionError):
            blend(np.zeros(3), np.zeros(3), IndexSet.empty(4))


class TestEvalCounter:
    def test_monotone(self):
        c = EvalCounter()
        c.add()
        c.add(5)
        assert c.count == 6
        with pytest.raises(ValueError):
            c.add(-1)


class TestStreams:
    def test_same_spec_reproduces_block(self):
        a = BlockSampler(RngSpec(42, replicate=3), 5)
        b = BlockSampler(RngSpec(42, replicate=3), 5)
        for role in "xyzw":
            assert np.array_equal(a.draw_role(role, 1), b.draw_role(role, 1))

    def test_roles_and_replicates_differ(self):
        sampler = BlockSampler(RngSpec(42), 8)
        coords = np.concatenate([sampler.draw_role(role, 1) for role in "xyzw"])
        assert len(np.unique(coords)) == coords.size
        other = BlockSampler(RngSpec(42, replicate=1), 8)
        assert not np.array_equal(coords[:1], other.draw_role("x", 1))

    def test_role_consumption_is_independent(self):
        # consuming z must not shift the x stream
        s1 = BlockSampler(RngSpec(7), 3)
        s2 = BlockSampler(RngSpec(7), 3)
        s2.draw_role("z", 100)
        assert np.array_equal(s1.draw_role("x", 10), s2.draw_role("x", 10))

    def test_half_open_range_and_mean(self):
        xs = BlockSampler(RngSpec(123), 4).draw_role("x", 250_000)
        assert xs.min() >= 0.0 and xs.max() < 1.0
        # 1e6 coordinates: CLT bound 3 * (1/sqrt(12)) / 1e3 < 0.002
        assert abs(xs.mean() - 0.5) < 0.002

    def test_streams_open_on_first_draw(self, monkeypatch):
        eager = {role: RngSpec(8, 2).stream(role).random((6, 3)) for role in "xy"}
        opened = []
        real_stream = RngSpec.stream

        def counting_stream(spec, role):
            opened.append(role)
            return real_stream(spec, role)

        monkeypatch.setattr(RngSpec, "stream", counting_stream)
        sampler = BlockSampler(RngSpec(8, 2), 3)
        assert opened == []
        got = {role: np.concatenate([sampler.draw_role(role, 2), sampler.draw_role(role, 4)])
               for role in "xy"}
        assert opened == ["x", "y"]
        for role in "xy":
            assert got[role].tobytes() == eager[role].tobytes()
        with pytest.raises(ValueError, match="'q'"):
            sampler.draw_role("q", 1)

    def test_rejects_bad_role_and_seed(self):
        with pytest.raises(ValueError):
            RngSpec(1).stream("q")
        with pytest.raises(ValueError):
            RngSpec(-1)
