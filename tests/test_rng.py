"""Stream-keyed RNG: same key -> same sequence, no matter who asks when."""
import numpy as np
import pytest

import spinnet.rng as rng
from spinnet.dynamics import DiagnosticPlan, InitSpec, TrainConfig, run_schedule
from spinnet.rng import RngStream, _pcg64_states, _StepStreams, generator_for, stream, subseed
from spinnet.targets import SpinTensor
from spinnet.units import SigmoidUnit

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_stream_is_deterministic():
    a = stream(42, "batch", 7).generator().standard_normal(16)
    b = stream(42, "batch", 7).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_generator_starts_fresh_each_time():
    s = stream(1, "noise", 0)
    g1 = s.generator()
    g1.standard_normal(100)  # advance one generator
    g2 = s.generator()
    a = stream(1, "noise", 0).generator().standard_normal(4)
    assert np.array_equal(g2.standard_normal(4), a)


def test_streams_are_order_independent():
    # building streams in a different order must not change their output
    first = [stream(9, "cell", i).generator().standard_normal(3) for i in range(5)]
    second = [stream(9, "cell", i) for i in reversed(range(5))]
    for i, s in zip(reversed(range(5)), second):
        assert np.array_equal(s.generator().standard_normal(3), first[i])


def test_distinct_roles_and_indices_differ():
    base = stream(3, "batch", 0).generator().standard_normal(8)
    assert not np.array_equal(stream(3, "noise", 0).generator().standard_normal(8), base)
    assert not np.array_equal(stream(3, "batch", 1).generator().standard_normal(8), base)
    assert not np.array_equal(stream(4, "batch", 0).generator().standard_normal(8), base)


def test_stream_id_depends_on_full_key():
    # "ab", 1 vs "a", 11 could collide under naive string concatenation
    assert stream(0, "ab", 1).stream_id != stream(0, "a", 11).stream_id


def test_subseed_is_deterministic_and_distinct():
    s1 = subseed(5, "tensor", 0)
    assert s1 == subseed(5, "tensor", 0)
    assert 0 <= s1 < 2**64
    assert s1 != subseed(5, "tensor", 1)
    assert s1 != subseed(5, "cell", 0)
    assert s1 != subseed(6, "tensor", 0)


def test_seed_is_masked_to_64_bits():
    wide = stream(2**64 + 17, "x").generator().standard_normal(4)
    assert np.array_equal(wide, stream(17, "x").generator().standard_normal(4))


def test_generator_for_accepts_both_kinds():
    s = stream(8, "y")
    assert np.array_equal(
        generator_for(s).standard_normal(4), s.generator().standard_normal(4)
    )
    g = np.random.Generator(np.random.PCG64(0))
    assert generator_for(g) is g
    with pytest.raises(TypeError):
        generator_for(12345)


def test_rngstream_is_value_like():
    assert stream(7, "z", 2) == stream(7, "z", 2)
    assert hash(RngStream(1, 2)) == hash(RngStream(1, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_states_equal_seedsequence_pcg64(seed):
    # ids below 2^32 are one entropy word, like seeds below 2^32 (and 0)
    ids = [0, 1, 2, 12345, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    ids += [stream(seed, "batch", k).stream_id for k in range(5)]
    for i, got in zip(ids, _pcg64_states(seed, ids)):
        want = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
        assert got == (want["state"], want["inc"]), (seed, i)


@pytest.mark.parametrize("seed", SEEDS)
def test_step_streams_draw_what_fresh_generators_draw(seed):
    steps = _StepStreams(seed, "noise")
    steps.cover(0, 1000)
    for k in range(1000):
        want = stream(seed, "noise", k).generator().standard_normal(3)
        assert np.array_equal(steps.generator(k).standard_normal(3), want), k
    # a second table starts where the caller asks
    steps.cover(5000, 5002)
    assert np.array_equal(steps.generator(5001).standard_normal(3),
                          stream(seed, "noise", 5001).generator().standard_normal(3))


def test_seed_state_mismatch_raises(monkeypatch):
    monkeypatch.setattr(rng, "_PCG_MULT", rng._PCG_MULT + 2)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        _StepStreams(3, "batch").cover(0, 4)
    unit = SigmoidUnit(d=3)
    cfg = TrainConfig(dt=1e-3, steps=3, dynamics="sgd", init=InitSpec(c_law="normal"),
                      master_seed=3, batch_schedule=((0, 4),))
    e0 = cfg.init.sample(unit, 5, stream(3, "init"))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        run_schedule(cfg, e0, SpinTensor.sample(3, 3), DiagnosticPlan())
