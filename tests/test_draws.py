"""Fingerprints of the random draws every report depends on.

The kernel draws from numpy's `Generator` distributions, and NEP 19 does
not promise their values across numpy feature releases. Each test hashes a
few hundred draws of one distribution, at a fixed seed and in the call
shapes the kernel and the relay use, against a value recorded on numpy 2.4.
A numpy release that moves a distribution fails its named test here, not the
report digests one by one.
"""

import hashlib
import math

import numpy as np
import pytest

from slamsim.engine import Engine

SEED = 20240917


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


def _standard_normal(rng):
    return [rng.standard_normal((100, 6))]  # draw_imu's (samples, columns) block


def _normal(rng):
    return [rng.normal(0.0, 0.02, 6) for _ in range(50)]  # update_pose's six


def _uniform(rng):
    return [rng.uniform(0.0, 2.0 * math.pi, 200),  # generate_landmarks' arrays
            [rng.uniform(1.0, 3.0) for _ in range(100)]]  # one relay copy time a frame


def _choice(rng):
    # extract_features' subset; numpy picks its algorithm by the population
    # and sample sizes, so from a small and from a large population
    return [rng.choice(1000, size=300, replace=False),
            rng.choice(20_000, size=600, replace=False)]


def _stream_seeding(_rng):
    engine = Engine(seed=SEED)
    return [engine.stream(name).bit_generator.random_raw(60)
            for name in ("landmarks", "relay", "imu", "features", "obs")]


RECORDED = {
    _standard_normal:
        "c1b1afe96feb325bb1cca5dcaa1462db1f3757861d58b2ef7e29d8ff738b8549",
    _normal:
        "948208ec19ce3032f8eedbb72f9512c1511a76de6e7b4e3539794cd4a1f71b15",
    _uniform:
        "77ad572961ceaaf1c7f6f35c03f1f30399e501fea59b81718ed47328fcbd94e2",
    _choice:
        "f2210fdb67ccbcd9763bc595e3052444bf4a086e28bc34b91f1726f8e8029111",
    _stream_seeding:
        "ce46fc7236f52c022d935f81443c6290da16e3dc1f0cb22604967ed7eff4dd60",
}


@pytest.mark.parametrize("draw", RECORDED, ids=lambda f: f.__name__.lstrip("_"))
def test_draws_match_recorded(draw):
    assert _sha256(*draw(np.random.default_rng(SEED))) == RECORDED[draw], np.__version__
