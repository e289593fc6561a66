import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from slamsim import kernel
from slamsim.engine import NS_PER_S
from slamsim.kernel import (CameraFrame, CircleTrajectory, ImuModel, ImuSample,
                            LandmarkField, Pose, StationaryTrajectory, WorldMap,
                            draw_imu, extend_map, extract_features, feature_capacity,
                            generate_landmarks, imu_rows, integrate, propagate, quat_exp,
                            quat_from_yaw, quat_multiply, quat_normalize, quat_rotate, quat_slerp,
                            sample_imu, sample_imu_block, update_pose, _exact, _norm, _row_norms,
                            FEATURE_BLOCK_HEADER_BYTES, FEATURE_RECORD_BYTES)
from slamsim.pipeline import IMU_BLOCK
from slamsim.soc import SocConfig


class TestQuaternions:
    def test_yaw_rotation_matches_rotation_matrix(self):
        yaw = 0.7
        q = quat_from_yaw(yaw)
        v = (1.0, 2.0, 3.0)
        c, s = math.cos(yaw), math.sin(yaw)
        expected = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])
        assert np.allclose(quat_rotate(q, v), expected)

    def test_exp_of_zero_is_identity(self):
        assert np.allclose(quat_exp((0.0, 0.0, 0.0)), [1.0, 0.0, 0.0, 0.0])

    def test_exp_composes_like_angles(self):
        a = quat_exp((0.0, 0.0, 0.3))
        b = quat_exp((0.0, 0.0, 0.5))
        assert np.allclose(quat_normalize(quat_multiply(a, b)),
                           quat_exp((0.0, 0.0, 0.8)), atol=1e-9)


class TestTrajectories:
    def test_stationary_has_zero_signals(self):
        tr = StationaryTrajectory((1.0, 2.0, 3.0))
        assert np.allclose(tr.pose_at(5 * NS_PER_S).position, [1.0, 2.0, 3.0])
        assert np.allclose(tr.gyro_body(123), 0.0)
        assert np.allclose(tr.accel_body(123), 0.0)

    def test_circle_period_closes_the_loop(self):
        tr = CircleTrajectory(radius_m=5.0, period_s=60.0)
        p0 = tr.pose_at(0)
        p1 = tr.pose_at(60 * NS_PER_S)
        assert np.allclose(p0.position, p1.position, atol=1e-9)

    def test_circle_kinematics(self):
        tr = CircleTrajectory(radius_m=5.0, period_s=60.0)
        w = 2 * math.pi / 60.0
        pose = tr.pose_at(7 * NS_PER_S)
        assert np.linalg.norm(pose.velocity) == pytest.approx(5.0 * w)
        # counterclockwise motion: centripetal acceleration is body +y (left)
        a = tr.accel_body(7 * NS_PER_S)
        assert np.linalg.norm(a) == pytest.approx(5.0 * w * w)
        assert a[1] == pytest.approx(5.0 * w * w, abs=1e-9)
        assert a[0] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(tr.gyro_body(0), [0.0, 0.0, w])

    def test_circle_velocity_is_position_derivative(self):
        tr = CircleTrajectory()
        t = 11 * NS_PER_S
        h = 1000  # 1 us
        numeric = np.subtract(tr.pose_at(t + h).position, tr.pose_at(t - h).position) \
            / (2 * h / NS_PER_S)
        assert np.allclose(numeric, tr.pose_at(t).velocity, atol=1e-6)


class TestImuSampling:
    def test_bias_without_noise_is_exact(self):
        model = ImuModel(accel_bias=(0.1, 0.0, 0.0), gyro_bias=(0.0, 0.01, 0.0))
        s = sample_imu(model, StationaryTrajectory(), 0, np.random.default_rng(0))
        assert np.allclose(s.accel, [0.1, 0.0, 0.0])
        assert np.allclose(s.gyro, [0.0, 0.01, 0.0])

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ImuModel(rate_hz=0)
        with pytest.raises(ValueError):
            ImuModel(rate_hz=1001)


def _biased_batch(bias, rate_hz, duration_s):
    truth = StationaryTrajectory()
    model = ImuModel(accel_bias=bias)
    step = NS_PER_S // rate_hz
    return [sample_imu(model, truth, k * step, np.random.default_rng(0))
            for k in range(1, rate_hz * duration_s + 1)]


class TestPropagation:
    def test_constant_accel_double_integration_is_exact(self):
        """Trapezoidal integration of a constant signal has zero error, so the
        drift law p = b t^2 / 2 holds exactly."""
        batch = _biased_batch([0.1, 0.0, 0.0], 200, 10)
        pose = propagate(Pose.identity(), batch, 0)
        assert pose.position[0] == pytest.approx(0.5 * 0.1 * 10.0 ** 2, rel=1e-9)
        assert pose.velocity[0] == pytest.approx(0.1 * 10.0, rel=1e-9)

    def test_batched_equals_sample_by_sample(self):
        rng = np.random.default_rng(7)
        truth = CircleTrajectory()
        model = ImuModel(accel_bias=(0.05, 0.02, 0.0),
                         accel_noise_std=0.02, gyro_noise_std=0.002)
        step = NS_PER_S // 200
        batch = [sample_imu(model, truth, k * step, rng) for k in range(1, 401)]

        whole = propagate(truth.pose_at(0), batch, 0)
        stepped = truth.pose_at(0)
        prev = None
        prev_t = 0
        for i in range(0, len(batch), 7):  # uneven chunking
            chunk = batch[i:i + 7]
            stepped = propagate(stepped, chunk, prev_t, prev_sample=prev)
            prev = chunk[-1]
            prev_t = chunk[-1].t_ns
        assert np.array_equal(whole.position, stepped.position)
        assert np.array_equal(whole.velocity, stepped.velocity)
        assert np.array_equal(whole.orientation, stepped.orientation)

    def test_non_increasing_timestamps_rejected(self):
        s = ImuSample(t_ns=10, gyro=(0.0, 0.0, 0.0), accel=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            propagate(Pose.identity(), [s], 10)

    def test_empty_batch_is_a_copy(self):
        pose = Pose.identity()
        out = propagate(pose, [], 0)
        assert out is not pose
        assert np.array_equal(out.position, pose.position)


def _frame(ids, frame_id=0):
    return CameraFrame(frame_id=frame_id, t_ns=0,
                       visible_landmarks=np.asarray(ids, dtype=np.intp))


class TestFeatures:
    def test_capacity_is_200(self):
        assert feature_capacity() == 200
        assert (SocConfig().bank_capacity_bytes - FEATURE_BLOCK_HEADER_BYTES) \
            // FEATURE_RECORD_BYTES == 200

    def test_block_never_exceeds_bank_capacity(self):
        block = extract_features(_frame(range(500), frame_id=1), np.random.default_rng(0))
        assert len(block.features) == 200
        assert block.serialized_bytes <= SocConfig().bank_capacity_bytes
        block = extract_features(_frame(range(500), frame_id=1), np.random.default_rng(0),
                                 max_bytes=1024)
        assert len(block.features) == feature_capacity(1024) == 46
        assert block.serialized_bytes <= 1024

    def test_small_frame_keeps_all_features(self):
        block = extract_features(_frame(range(5), frame_id=2))
        assert block.features.tolist() == list(range(5))
        assert block.serialized_bytes == FEATURE_BLOCK_HEADER_BYTES \
            + 5 * FEATURE_RECORD_BYTES


def _map(size, ids, point=(0.0, 0.0, 0.0)):
    wm = WorldMap(size)
    wm.insert(ids, np.tile(point, (len(ids), 1)))
    return wm


class TestUpdateAndMap:
    def _block(self, ids):
        return extract_features(_frame(ids))

    def test_too_few_matches_leaves_pose_unchanged(self):
        wm = _map(10, range(5))
        pose = Pose((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        out, matched = update_pose(pose, self._block(range(5)), wm, Pose.identity())
        assert matched == 5
        assert np.array_equal(out.position, pose.position)

    def test_update_blends_toward_truth_with_gain(self):
        wm = _map(20, range(20))
        pose = Pose((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        out, matched = update_pose(pose, self._block(range(20)), wm,
                                   Pose.identity(), gain=0.8)
        assert matched == 20
        # error shrinks by exactly (1 - gain) without observation noise
        assert out.position[0] == pytest.approx(0.2)

    def test_extend_map_inserts_only_new(self):
        wm = _map(4, [0], point=(9.0, 9.0, 9.0))
        truth = np.array([[float(i), 0.0, 0.0] for i in range(4)])
        inserted = extend_map(wm, self._block(range(4)), truth)
        assert inserted == 3
        assert len(wm) == 4
        assert np.array_equal(wm.point(0), [9.0, 9.0, 9.0])  # insert-only
        assert np.array_equal(wm.point(3), [3.0, 0.0, 0.0])

    def test_map_rejects_non_finite_points(self):
        wm = WorldMap(4)
        with pytest.raises(ValueError):
            wm.insert([1], [[np.nan, 0.0, 0.0]])
        assert len(wm) == 0


@pytest.mark.blas_bits
class TestVisibility:
    def test_generate_landmarks_shape(self):
        lm = generate_landmarks(400, np.random.default_rng(3))
        assert lm.shape == (400, 3)
        radii = np.hypot(lm[:, 0], lm[:, 1])
        assert np.all((7.0 <= radii) & (radii <= 9.0))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_vectorized_visibility_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        lm = generate_landmarks(60, rng)
        pose = Pose(tuple(rng.uniform(-6, 6, 3)), (0.0, 0.0, 0.0),
                    quat_normalize(tuple(rng.normal(size=4))))
        ids = LandmarkField(lm).visible(pose)
        fast = set(ids.tolist())
        assert len(ids) == len(fast)

        heading = np.array(quat_rotate(pose.orientation, (1.0, 0.0, 0.0)))
        cos_half = math.cos(math.radians(100.0) / 2)
        slow = set()
        for i, p in enumerate(lm):
            rel = p - pose.position
            d = np.linalg.norm(rel)
            if 1e-6 < d <= 12.0 and float(rel @ heading) / d >= cos_half:
                slow.add(i)
        assert fast == slow


# ---------------------------------------------------------------------------
# Bit-exactness against the numpy reference formulation. The oracles below
# are the array-per-vector and loop-per-feature implementations the kernel
# is specified by; the kernel must reproduce them to the last bit and draw
# the same random numbers in the same order, because every simulated report
# depends on it.

def _np_normalize(q):
    return q / np.linalg.norm(q)


def _np_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _np_rotate(q, v):
    qv = np.array([0.0, v[0], v[1], v[2]])
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    return _np_multiply(_np_multiply(q, qv), conj)[1:]


def _np_exp(omega_dt):
    angle = np.linalg.norm(omega_dt)
    if angle < 1e-12:
        return np.array([1.0, 0.5 * omega_dt[0], 0.5 * omega_dt[1], 0.5 * omega_dt[2]])
    axis = omega_dt / angle
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


def _np_slerp(a, b, t):
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b, dot = -b, -dot
    if dot > 0.9995:
        return _np_normalize(a + t * (b - a))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    return (math.sin((1 - t) * theta) / s) * a + (math.sin(t * theta) / s) * b


def _np_sample_imu(model, truth, t_ns, rng):
    gyro = np.array(truth.gyro_body(t_ns)) + np.array(model.gyro_bias)
    accel = np.array(truth.accel_body(t_ns)) + np.array(model.accel_bias)
    if model.gyro_noise_std > 0:
        gyro = gyro + rng.normal(0.0, model.gyro_noise_std, 3)
    if model.accel_noise_std > 0:
        accel = accel + rng.normal(0.0, model.accel_noise_std, 3)
    return t_ns, gyro, accel


def _np_propagate(p, v, q, batch, from_t_ns, prev_sample=None):
    prev_t = from_t_ns
    prev_accel_world = _np_rotate(q, prev_sample[2]) if prev_sample is not None else None
    prev_gyro = prev_sample[1] if prev_sample is not None else None
    for t_ns, gyro_s, accel_s in batch:
        dt = (t_ns - prev_t) / NS_PER_S
        gyro = gyro_s if prev_gyro is None else 0.5 * (prev_gyro + gyro_s)
        q = _np_normalize(_np_multiply(q, _np_exp(gyro * dt)))
        accel_world = _np_rotate(q, accel_s)
        a0 = accel_world if prev_accel_world is None else prev_accel_world
        v_new = v + 0.5 * (a0 + accel_world) * dt
        p = p + 0.5 * (v + v_new) * dt
        v = v_new
        prev_t = t_ns
        prev_accel_world = accel_world
        prev_gyro = gyro_s
    return p, v, q


def _rerotating_propagate(pose, batch, from_t_ns, prev_sample=None):
    """`propagate` written with the quaternion helpers, one call each per
    sample; every call rotates `prev_sample.accel` afresh with the pose's
    orientation."""
    if not batch:
        return pose.copy()
    q = pose.orientation
    vx, vy, vz = pose.velocity
    px, py, pz = pose.position
    prev_t = from_t_ns
    if prev_sample is not None:
        prev_accel_world = quat_rotate(q, prev_sample.accel)
        prev_gyro = prev_sample.gyro
    else:
        prev_accel_world = prev_gyro = None
    for t_ns, gyro, accel in batch:
        dt = (t_ns - prev_t) / NS_PER_S
        gx, gy, gz = gyro
        if prev_gyro is not None:
            hx, hy, hz = prev_gyro
            gx, gy, gz = 0.5 * (hx + gx), 0.5 * (hy + gy), 0.5 * (hz + gz)
        q = quat_normalize(quat_multiply(q, quat_exp((gx * dt, gy * dt, gz * dt))))
        accel_world = quat_rotate(q, accel)
        ax, ay, az = accel_world
        a0x, a0y, a0z = accel_world if prev_accel_world is None else prev_accel_world
        nvx = vx + 0.5 * (a0x + ax) * dt
        nvy = vy + 0.5 * (a0y + ay) * dt
        nvz = vz + 0.5 * (a0z + az) * dt
        px = px + 0.5 * (vx + nvx) * dt
        py = py + 0.5 * (vy + nvy) * dt
        pz = pz + 0.5 * (vz + nvz) * dt
        vx, vy, vz = nvx, nvy, nvz
        prev_t = t_ns
        prev_accel_world = accel_world
        prev_gyro = gyro
    return Pose((px, py, pz), (vx, vy, vz), q)


def _pose_bits(pose):
    return tuple(np.asarray(c, float).tobytes()
                 for c in (pose.position, pose.velocity, pose.orientation))


def _assert_pose_equal(pose, p, v, q):
    assert np.array_equal(pose.position, p)
    assert np.array_equal(pose.velocity, v)
    assert np.array_equal(pose.orientation, q)


def _imu_bits(sample):
    """A sample as exact bytes: equal only if every float is bit-identical."""
    t_ns, gyro, accel = sample
    return t_ns, np.asarray(gyro, float).tobytes(), np.asarray(accel, float).tobytes()


def _assert_signals_match_scalar(truth, times):
    """`imu_signals` gives the bits of `gyro_body` and `accel_body`."""
    gyro, accel = truth.imu_signals(times)
    assert gyro.shape == accel.shape == (len(times), 3)
    assert [_imu_bits(s) for s in zip(times, gyro, accel)] == \
        [_imu_bits((t, truth.gyro_body(t), truth.accel_body(t))) for t in times]


def _unit_quats(rng, n):
    return [quat_normalize(tuple(q)) for q in rng.normal(size=(n, 4))]


def _trajectory_poses(rng, n):
    """n consecutive camera frames of a circle trajectory."""
    fps, first = int(rng.choice([1, 30, 50, 60, 1000])), int(rng.integers(0, 10_000))
    truth = CircleTrajectory(rng.uniform(0.0, 10.0), rng.uniform(1.0, 120.0))
    return [truth.pose_at(k * NS_PER_S // fps) for k in range(first, first + n)]


def _arbitrary_poses(rng, n):
    return [Pose(tuple(p), (0.0, 0.0, 0.0), q)
            for p, q in zip(rng.uniform(-15.0, 15.0, (n, 3)), _unit_quats(rng, n))]


def _spread_poses(rng, n):
    """A tight cluster of positions and headings, or one of the block's poses
    far from the rest."""
    centre, scale = rng.uniform(-10.0, 10.0, 3), 10.0 ** rng.uniform(-9.0, 2.0)
    q0, turn = rng.normal(size=4), 10.0 ** rng.uniform(-9.0, 0.5)
    poses = [Pose(tuple(centre + rng.normal(0.0, scale, 3)), (0.0, 0.0, 0.0),
                  quat_normalize(tuple(q0 + rng.normal(0.0, turn, 4)))) for _ in range(n)]
    if n > 1 and rng.uniform() < 0.5:
        poses[rng.integers(n)] = _arbitrary_poses(rng, 1)[0]
    return poses


_BLOCK_POSES = {"trajectory": _trajectory_poses, "arbitrary": _arbitrary_poses,
                "spread": _spread_poses}


def _boundary_points(rng, pose, max_range_m, fov_deg):
    """Landmarks just inside and just outside the range and the cone of
    `pose`, and exactly on them up to the rounding of their coordinates."""
    heading = np.array(quat_rotate(pose.orientation, (1.0, 0.0, 0.0)))
    heading /= np.linalg.norm(heading)
    side = np.cross(heading, rng.normal(size=3))
    side /= np.linalg.norm(side)
    half = math.radians(fov_deg) / 2.0
    out = []
    for eps in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6):
        a = rng.uniform(0.0, half)  # inside the cone, on the range boundary
        out.append(max_range_m * (1.0 + eps) * (math.cos(a) * heading + math.sin(a) * side))
        a = half * (1.0 + eps)  # inside the range, on the cone boundary
        out.append(rng.uniform(1e-3, max_range_m) * (math.cos(a) * heading + math.sin(a) * side))
    return np.array(pose.position) + np.array(out)


def _eager_visible(points, pose, max_range_m=12.0, fov_deg=100.0):
    """The visibility pass as first specified: a C-order landmark array and
    the norm by np.linalg.norm. Returns the visible ids."""
    heading = np.array(quat_rotate(pose.orientation, (1.0, 0.0, 0.0)))
    cos_half = math.cos(math.radians(fov_deg) / 2.0)
    rel = np.ascontiguousarray(points) - pose.position
    dist = np.linalg.norm(rel, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        depth = (rel @ heading) / dist
    mask = (dist > 1e-6) & (dist <= max_range_m) & (depth >= cos_half)
    return np.nonzero(mask)[0]


def _visible_block(field, poses, max_range_m=12.0, fov_deg=100.0):
    """`visible(i)` of one `field.block(poses)` for every pose i."""
    block = field.block(poses, max_range_m, fov_deg)
    return [block.visible(i) for i in range(len(poses))]


_bias = st.floats(-0.5, 0.5, allow_nan=False)
_std = st.one_of(st.just(0.0), st.floats(0.0, 0.2, allow_nan=False))
_period = st.floats(1.0, 600.0)
_trajectories = st.one_of(
    st.builds(StationaryTrajectory, st.tuples(_bias, _bias, _bias)),
    st.builds(CircleTrajectory, st.just(0.0), _period),
    st.builds(CircleTrajectory, st.floats(0.0, 20.0), _period))


_coord = st.floats(-1e4, 1e4, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord)


def _first_update_pose(pose, block, world_map, truth_pose, rng=None, gain=0.8,
                       obs_noise_std=0.0, min_matches=10):
    """`update_pose` in its first form, the reference of its bits and draws:
    two noise draws of 3, and blends over `zip`."""
    matched = int(np.count_nonzero(world_map.known[block.features]))
    if matched < min_matches:
        return pose.copy(), matched
    est_p, est_v = truth_pose.position, truth_pose.velocity
    if obs_noise_std > 0 and rng is not None:
        noise = rng.normal(0.0, obs_noise_std, 3).tolist()
        est_p = tuple(e + n for e, n in zip(est_p, noise))
        noise = rng.normal(0.0, obs_noise_std, 3).tolist()
        est_v = tuple(e + n for e, n in zip(est_v, noise))
    corrected = Pose(
        position=tuple(c + gain * (e - c) for c, e in zip(pose.position, est_p)),
        velocity=tuple(c + gain * (e - c) for c, e in zip(pose.velocity, est_v)),
        orientation=quat_normalize(quat_slerp(pose.orientation, truth_pose.orientation, gain)),
    )
    return corrected, matched


class _FirstWorldMap(WorldMap):
    """`WorldMap` with `insert` in its first form: a finiteness test per row,
    and gathers of the new ids and points."""

    def insert(self, ids, points) -> None:
        ids = np.asarray(ids, dtype=np.intp)
        points = np.asarray(points, dtype=float).reshape(len(ids), 3)
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite map point for landmark {int(ids[bad][0])}")
        new = ~self.known[ids]
        if self.points is None:
            self.points = np.empty((len(self.known), 3))
        self.points[ids[new]] = points[new]
        self.known[ids] = True


def _first_extend_map(world_map, block, landmark_points, rng=None, noise_std=0.0):
    """`extend_map` in its first form: the noise added to a new array."""
    ids = block.features[~world_map.known[block.features]]
    if not len(ids):
        return 0
    points = landmark_points[ids]
    if noise_std > 0 and rng is not None:
        points = points + rng.normal(0.0, noise_std, (len(ids), 3))
    world_map.insert(ids, points)
    return len(ids)


def _map_bits(world_map):
    """Which ids a map knows and their points, as exact bytes."""
    known = world_map.known
    points = b"" if world_map.points is None else world_map.points[known].tobytes()
    return known.tobytes(), points


# The IMU-path properties draw long sample batches; shrinking a failure of
# theirs takes minutes, so they report the first failing example as drawn.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


class TestBitExactness:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           accel_bias=st.tuples(_bias, _bias, _bias),
           gyro_bias=st.tuples(_bias, _bias, _bias),
           accel_std=_std, gyro_std=_std,
           rate_hz=st.sampled_from([1, 7, 30, 200, 333, 1000]),
           radius=st.floats(0.0, 20.0), period=st.floats(1.0, 600.0),
           chunks=st.lists(st.integers(1, 12), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_imu_path_matches_numpy_reference(self, seed, accel_bias, gyro_bias,
                                              accel_std, gyro_std, rate_hz, radius,
                                              period, chunks):
        truth = CircleTrajectory(radius, period)
        model = ImuModel(accel_bias=accel_bias, gyro_bias=gyro_bias,
                         accel_noise_std=accel_std, gyro_noise_std=gyro_std,
                         rate_hz=rate_hz)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        step = NS_PER_S // rate_hz
        ticks = range(1, sum(chunks) + 1)
        batch = [sample_imu(model, truth, k * step, rng) for k in ticks]
        ref_batch = [_np_sample_imu(model, truth, k * step, ref_rng) for k in ticks]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for s, (t_ns, gyro, accel) in zip(batch, ref_batch):
            assert s.t_ns == t_ns
            assert np.array_equal(s.gyro, gyro) and np.array_equal(s.accel, accel)

        # chunked as the pipeline drains its IMU buffer: no prev sample at first
        pose = truth.pose_at(0)
        p, v, q = (np.array(c) for c in (pose.position, pose.velocity, pose.orientation))
        prev = ref_prev = None
        start = 0
        for n in chunks:
            chunk, ref_chunk = batch[start:start + n], ref_batch[start:start + n]
            from_t = start * step
            pose = propagate(pose, chunk, from_t, prev_sample=prev)
            p, v, q = _np_propagate(p, v, q, ref_chunk, from_t, prev_sample=ref_prev)
            _assert_pose_equal(pose, p, v, q)
            prev, ref_prev = chunk[-1], ref_chunk[-1]
            start += n

    @given(seed=st.integers(0, 2 ** 32 - 1),
           accel_bias=st.tuples(_bias, _bias, _bias),
           gyro_bias=st.tuples(_bias, _bias, _bias),
           accel_std=_std, gyro_std=_std,
           rate_hz=st.sampled_from([1, 7, 30, 200, 333, 1000]),
           blocks=st.lists(st.integers(1, 150), min_size=1, max_size=6),
           truth=_trajectories, start_s=st.integers(0, 3600))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_block_sampling_matches_per_sample(self, seed, accel_bias, gyro_bias,
                                               accel_std, gyro_std, rate_hz, blocks,
                                               truth, start_s):
        times = [(k * NS_PER_S) // rate_hz + start_s * NS_PER_S
                 for k in range(1, sum(blocks) + 1)]
        _assert_signals_match_scalar(truth, times)
        model = ImuModel(accel_bias=accel_bias, gyro_bias=gyro_bias,
                         accel_noise_std=accel_std, gyro_noise_std=gyro_std,
                         rate_hz=rate_hz)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        samples, start = [], 0
        for n in blocks:
            samples += sample_imu_block(model, truth, times[start:start + n], rng)
            start += n
        ref = [sample_imu(model, truth, t, ref_rng) for t in times]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [_imu_bits(s) for s in samples] == [_imu_bits(s) for s in ref]

    @given(truth=_trajectories,
           times=st.lists(st.integers(0, 10 ** 13), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_truth_signals_match_scalar(self, truth, times):
        _assert_signals_match_scalar(truth, times)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           rate_hz=st.sampled_from([1, 7, 200, 333, 1000]),
           steps=st.lists(st.tuples(st.integers(1, 9),
                                    st.sampled_from(["none", "update", "no-match",
                                                     "equal-copy", "set-orientation",
                                                     "skip", "restart"])),
                          min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_propagate_matches_rerotating_reference(self, seed, rate_hz, steps):
        """`propagate` inlines the quaternion helpers; chained batches with
        updates, copies, orientations set in place and skipped samples
        between them must give the bits of the helper-call reference."""
        truth = CircleTrajectory(4.0, 30.0)
        model = ImuModel(accel_bias=(0.05, 0.02, 0.0), gyro_bias=(0.0005, 0.0, 0.0002),
                         accel_noise_std=0.02, gyro_noise_std=0.002, rate_hz=rate_hz)
        rng = np.random.default_rng(seed)
        count = sum(n + 1 for n, _ in steps)
        times = [(k * NS_PER_S) // rate_hz for k in range(1, count + 1)]
        samples = sample_imu_block(model, truth, times, rng)
        world_map = _map(20, range(20))
        block = extract_features(_frame(range(20)))

        pose = ref = truth.pose_at(0)
        prev, from_t, start = None, 0, 0
        for n, between in steps:
            batch = samples[start:start + n]
            pose = propagate(pose, batch, from_t, prev_sample=prev)
            ref = _rerotating_propagate(ref, batch, from_t, prev_sample=prev)
            assert _pose_bits(pose) == _pose_bits(ref)
            prev, from_t, start = batch[-1], batch[-1].t_ns, start + n
            truth_pose = truth.pose_at(from_t)
            if between == "update":
                pose, _ = update_pose(pose, block, world_map, truth_pose, gain=0.5)
                ref, _ = update_pose(ref, block, world_map, truth_pose, gain=0.5)
            elif between == "no-match":  # too few matches: an unchanged copy
                pose, _ = update_pose(pose, block, world_map, truth_pose, min_matches=21)
                ref, _ = update_pose(ref, block, world_map, truth_pose, min_matches=21)
            elif between == "equal-copy":  # equal values in new tuples
                pose = Pose(*(tuple(list(c)) for c in (pose.position, pose.velocity,
                                                        pose.orientation)))
            elif between == "set-orientation":
                pose.orientation = ref.orientation = truth_pose.orientation
            elif between == "skip":  # the next batch starts after another sample
                prev, from_t, start = samples[start], samples[start].t_ns, start + 1
            elif between == "restart":
                prev = None

    @given(seed=st.integers(0, 2 ** 32 - 1), rate_hz=st.integers(1, 1000),
           noise=st.sampled_from(["none", "gyro", "accel", "both"]),
           std=st.floats(1e-4, 0.2), accel_bias=st.tuples(_bias, _bias, _bias),
           gyro_bias=st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(_bias, _bias, _bias)),
           truth=st.one_of(st.builds(StationaryTrajectory),
                           st.builds(CircleTrajectory, st.floats(0.0, 20.0), _period)),
           data=st.data())
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_block_rows_match_propagate_and_numpy_reference(
            self, seed, rate_hz, noise, std, accel_bias, gyro_bias, truth, data):
        """Rows drawn block by block as the pipeline draws them, integrated
        over chunks that cross block boundaries, give the bits of the public
        `propagate` over the same chunks and of the numpy reference. Sample 1
        takes the rectangle rule; a stationary IMU without gyro bias or noise
        has rotation vectors of norm exactly 0."""
        model = ImuModel(accel_bias=accel_bias, gyro_bias=gyro_bias,
                         accel_noise_std=std if noise in ("accel", "both") else 0.0,
                         gyro_noise_std=std if noise in ("gyro", "both") else 0.0,
                         rate_hz=rate_hz)
        total = data.draw(st.integers(IMU_BLOCK + 1, 3 * IMU_BLOCK))
        cuts = data.draw(st.lists(st.integers(1, total - 1), max_size=12))
        bounds = [0] + sorted(set(cuts)) + [total]
        times = [(k * NS_PER_S) // rate_hz for k in range(1, total + 1)]

        rng = np.random.default_rng(seed)
        rows, prev_t, prev_gyro = [], 0, None
        for first in range(0, total, IMU_BLOCK):
            block = times[first:first + IMU_BLOCK]
            gyro, accel = draw_imu(model, truth, block, rng)
            rows += imu_rows(block, gyro, accel, prev_t, prev_gyro)
            prev_t, prev_gyro = block[-1], gyro[-1]
        samples = sample_imu_block(model, truth, times, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        ref = [_np_sample_imu(model, truth, t, ref_rng) for t in times]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(truth, StationaryTrajectory) and noise in ("none", "accel") \
                and gyro_bias == (0.0, 0.0, 0.0):
            assert all(row[1:5] == [1.0, 0.0, 0.0, 0.0] for row in rows)

        pose = public = truth.pose_at(0)
        p, v, q = (np.array(c) for c in (pose.position, pose.velocity, pose.orientation))
        prev_accel = None
        for a, b in zip(bounds, bounds[1:]):
            from_t = times[a - 1] if a else 0
            pose = integrate(pose, rows[a:b], prev_accel)
            public = propagate(public, samples[a:b], from_t,
                               prev_sample=samples[a - 1] if a else None)
            p, v, q = _np_propagate(p, v, q, ref[a:b], from_t,
                                    prev_sample=ref[a - 1] if a else None)
            assert _pose_bits(pose) == _pose_bits(public)
            _assert_pose_equal(pose, p, v, q)
            prev_accel = rows[b - 1][5:]

    def test_stacked_norms_are_the_per_row_blas_dot(self):
        """`imu_rows` takes a block's rotation-vector norms with one stacked
        matmul; it must give the bits of `_norm`'s BLAS dot on every row (a
        left-to-right sum of squares differs on about a fifth of them), or
        every digest would move."""
        rng = np.random.default_rng(2017)
        v = rng.standard_normal((20_000, 3)) * 10.0 ** rng.uniform(-8.0, 2.0, (20_000, 1))
        assert _row_norms(v).tolist() == [_norm(row) for row in v.tolist()]

    @pytest.mark.blas_bits
    def test_stacked_gemv_is_the_per_pose_gemv_of_the_whole_array(self):
        """A block takes the depth numerators of its edge landmarks with a
        gemv on those rows for one pose, or with one stacked matmul (poses,
        rows, 3) @ (poses, 3, 1) for all; each pose's rows must have the bits
        of the gemv `rel @ heading` on the whole array, whatever rows the
        subset keeps, as long as it keeps at least two (one row is a BLAS
        dot)."""
        rng = np.random.default_rng(2017)
        for _ in range(40):
            n, poses = int(rng.integers(2, 5000)), int(rng.integers(1, 33))
            points = rng.normal(0.0, 8.0, (n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            positions = rng.normal(0.0, 5.0, (poses, 3))
            heads = rng.normal(size=(poses, 3))
            heads /= np.linalg.norm(heads, axis=1)[:, None]
            keep = np.sort(rng.choice(n, int(rng.integers(2, n + 1)), replace=False))
            stacked = np.matmul(points[keep] - positions[:, None, :], heads[:, :, None])
            for b in range(poses):
                whole = np.ascontiguousarray(points - positions[b]) @ heads[b]
                assert stacked[b, :, 0].tobytes() == whole[keep].tobytes()
                subset = np.ascontiguousarray(points[keep] - positions[b]) @ heads[b]
                assert subset.tobytes() == whole[keep].tobytes()

    @pytest.mark.blas_bits
    def test_one_pose_exact_is_the_2d_gemv(self):
        """`_exact` takes one pose's depth numerators with a stacked matmul
        (1, rows, 3) @ (1, 3, 1); its mask must be that of the 2-D formula
        `(rel @ heading) / dist`, the gemv `visible` was specified on (a
        BLAS dot for one row). Cones through the depths of sampled rows, and
        one ulp above them, pin those rows' depths to the last bit."""
        rng = np.random.default_rng(2017)
        for n in [1, 2, 3] + rng.integers(4, 5000, 40).tolist():
            points = rng.normal(0.0, 8.0, (n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            position, heading = rng.normal(0.0, 5.0, 3), rng.normal(size=3)
            heading /= np.linalg.norm(heading)
            rel = np.ascontiguousarray(points - position)
            dist = np.linalg.norm(rel, axis=1)
            depth = (rel @ heading) / dist
            for row in rng.choice(n, min(n, 6), replace=False):
                for cos_half in (depth[row], np.nextafter(depth[row], 2.0)):
                    mask = _exact(np.ascontiguousarray(points.T), position[None],
                                  heading[None], math.inf, cos_half)
                    assert mask.tolist() == [((dist > 1e-6) & (depth >= cos_half)).tolist()]

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 1200),
           visible_share=st.floats(0.0, 1.0), known_share=st.floats(0.0, 1.0),
           use_rng=st.booleans(), gain=st.floats(0.0, 1.0),
           obs_std=_std, map_std=_std, min_matches=st.integers(0, 30),
           orientation=st.sampled_from(["near", "far", "opposite"]))
    @settings(max_examples=60, deadline=None)
    def test_feature_path_matches_loop_reference(self, seed, size, visible_share,
                                                 known_share, use_rng, gain, obs_std,
                                                 map_std, min_matches, orientation):
        world = np.random.default_rng(seed)
        landmarks = generate_landmarks(size, world)
        ids = np.flatnonzero(world.uniform(size=size) < visible_share)
        known = np.flatnonzero(world.uniform(size=size) < known_share)
        known_points = world.normal(0.0, 5.0, (len(known), 3))
        truth_q = quat_normalize(tuple(world.normal(size=4)))
        # Near the truth orientation, slerp takes its normalized-lerp branch;
        # "opposite" exercises the hemisphere flip.
        q = quat_normalize(tuple(np.add(truth_q, world.normal(0.0, 1e-3, 4)))
                           if orientation == "near" else world.normal(size=4))
        if orientation == "opposite":
            q = tuple(-c for c in q) if np.dot(q, truth_q) > 0 else q
        truth = Pose(tuple(world.normal(size=3)), tuple(world.normal(size=3)), truth_q)
        pose = Pose(tuple(world.normal(size=3)), tuple(world.normal(size=3)), q)
        state = world.bit_generator.state

        rng = np.random.default_rng(seed + 1) if use_rng else None
        wm = WorldMap(size)
        wm.insert(known, known_points)
        block = extract_features(_frame(ids), rng)
        corrected, matched = update_pose(pose, block, wm, truth, rng=rng, gain=gain,
                                         obs_noise_std=obs_std, min_matches=min_matches)
        inserted = extend_map(wm, block, landmarks, rng=rng, noise_std=map_std)

        ref_rng = np.random.default_rng(seed + 1) if use_rng else None
        ref_map = {int(i): pt for i, pt in zip(known, known_points)}
        # extract_features: one feature per visible landmark, a sorted subset over the cap
        visible = ids.tolist()
        if len(visible) > 200:
            if ref_rng is not None:
                idx = sorted(ref_rng.choice(len(visible), size=200, replace=False))
                visible = [visible[i] for i in idx]
            else:
                visible = visible[:200]
        # update_pose
        ref_matched = sum(1 for lid in visible if lid in ref_map)
        p, v, oq = (np.array(c) for c in (pose.position, pose.velocity, pose.orientation))
        if ref_matched >= min_matches:
            est_p, est_v = np.array(truth.position), np.array(truth.velocity)
            if obs_std > 0 and ref_rng is not None:
                est_p = est_p + ref_rng.normal(0.0, obs_std, 3)
                est_v = est_v + ref_rng.normal(0.0, obs_std, 3)
            p, v = p + gain * (est_p - p), v + gain * (est_v - v)
            oq = _np_normalize(_np_slerp(oq, np.array(truth.orientation), gain))
        # extend_map
        ref_inserted = 0
        for lid in visible:
            if lid in ref_map:
                continue
            point = landmarks[lid]
            if map_std > 0 and ref_rng is not None:
                point = point + ref_rng.normal(0.0, map_std, 3)
            ref_map[lid] = point
            ref_inserted += 1

        assert world.bit_generator.state == state
        if use_rng:
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert block.features.tolist() == visible
        assert matched == ref_matched
        _assert_pose_equal(corrected, p, v, oq)
        assert inserted == ref_inserted
        assert len(wm) == len(ref_map)
        for lid, point in ref_map.items():
            assert np.array_equal(wm.point(lid), point)

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 400),
           position=_vec, velocity=_vec, truth_position=_vec, truth_velocity=_vec,
           gain=st.floats(0.0, 1.0), obs_std=_std, map_std=_std,
           min_matches=st.integers(0, 30), seen_share=st.floats(0.0, 1.0),
           rounds=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_update_and_mapping_match_their_first_forms(
            self, seed, size, position, velocity, truth_position, truth_velocity, gain,
            obs_std, map_std, min_matches, seen_share, rounds):
        """`update_pose`, the pipeline's position error and `extend_map`
        give the bits, the draws and the map of their first forms, round
        after round on a growing map; a miss of `min_matches` and a std of 0
        draw nothing."""
        world = np.random.default_rng(seed)
        landmarks = generate_landmarks(size, world)
        pose = Pose(position, velocity, quat_normalize(tuple(world.normal(size=4))))
        truth = Pose(truth_position, truth_velocity,
                     quat_normalize(tuple(world.normal(size=4))))
        wm, ref_map = WorldMap(size), _FirstWorldMap(size)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(rounds):
            block = extract_features(_frame(np.flatnonzero(world.uniform(size=size)
                                                           < seen_share)))
            state = rng.bit_generator.state
            out, matched = update_pose(pose, block, wm, truth, rng=rng, gain=gain,
                                       obs_noise_std=obs_std, min_matches=min_matches)
            ref, ref_matched = _first_update_pose(pose, block, ref_map, truth, ref_rng,
                                                  gain, obs_std, min_matches)
            assert matched == ref_matched
            assert _pose_bits(out) == _pose_bits(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if matched < min_matches or obs_std == 0:
                assert rng.bit_generator.state == state
            # Simulation._apply_update's error, against its first form
            (px, py, pz), (tx, ty, tz) = out.position, truth.position
            error = _norm((px - tx, py - ty, pz - tz))
            assert error.hex() == \
                float(np.linalg.norm(np.subtract(ref.position, truth.position))).hex()

            state = rng.bit_generator.state
            inserted = extend_map(wm, block, landmarks, rng=rng, noise_std=map_std)
            assert inserted == _first_extend_map(ref_map, block, landmarks, ref_rng, map_std)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if not inserted or map_std == 0:
                assert rng.bit_generator.state == state
            assert _map_bits(wm) == _map_bits(ref_map)
            pose = out

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 60),
           batches=st.lists(st.tuples(st.integers(0, 40),
                                      st.sampled_from([None, math.nan, math.inf, -math.inf])),
                            min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_map_insert_matches_its_first_form(self, seed, size, batches):
        """Inserts of new, known and repeated ids store what the first form
        stores; a batch with a non-finite coordinate raises its error, naming
        the first bad landmark, and leaves the map as it was."""
        rng = np.random.default_rng(seed)
        wm, ref_map = WorldMap(size), _FirstWorldMap(size)
        for count, bad_value in batches:
            ids = rng.integers(0, size, count)
            points = rng.normal(0.0, 5.0, (count, 3))
            if bad_value is None or not count:
                wm.insert(ids, points)
                ref_map.insert(ids, points)
            else:
                rows = rng.uniform(size=count) < 0.3
                rows[rng.integers(count)] = True
                points[rows, rng.integers(0, 3, np.count_nonzero(rows))] = bad_value
                before = _map_bits(wm)
                with pytest.raises(ValueError) as ref_error:
                    ref_map.insert(ids, points)
                with pytest.raises(ValueError) as error:
                    wm.insert(ids, points)
                first = int(ids[np.flatnonzero(rows)[0]])
                assert str(error.value) == str(ref_error.value) \
                    == f"non-finite map point for landmark {first}"
                assert _map_bits(wm) == before
            assert _map_bits(wm) == _map_bits(ref_map)

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 5000),
           where=st.sampled_from(["trajectory", "off", "inside", "on-landmark"]),
           fov_deg=st.one_of(st.floats(1e-3, 360.0), st.just(360.0)),
           max_range_m=st.floats(0.5, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_visibility_matches_eager_reference(self, seed, count, where, fov_deg,
                                                max_range_m):
        rng = np.random.default_rng(seed)
        points = generate_landmarks(count, rng)
        q = quat_normalize(tuple(rng.normal(size=4)))
        if where == "trajectory":
            position = CircleTrajectory().pose_at(int(rng.integers(0, 60 * NS_PER_S))).position
        elif where == "off":
            position = tuple(rng.uniform(-15.0, 15.0, 3))
        elif where == "inside":  # inside the landmark ring, off the loop
            r, a = rng.uniform(0.0, 6.5), rng.uniform(0.0, 2.0 * math.pi)
            position = (r * math.cos(a), r * math.sin(a), rng.uniform(-2.0, 2.0))
        else:  # exactly at a landmark: a zero distance, excluded by the 1e-6 floor
            position = tuple(points[rng.integers(count)]) if count else (0.0, 0.0, 0.0)
        pose = Pose(position, (0.0, 0.0, 0.0), q)
        ids = LandmarkField(points).visible(pose, max_range_m, fov_deg)
        assert ids.tobytes() == _eager_visible(points, pose, max_range_m, fov_deg).tobytes()

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 600),
           n_poses=st.integers(1, 40), kind=st.sampled_from(sorted(_BLOCK_POSES)),
           fov_deg=st.one_of(st.floats(1e-3, 360.0), st.sampled_from([180.0, 360.0])),
           max_range_m=st.floats(0.5, 30.0), on_landmark=st.booleans(),
           boundary=st.integers(0, 12),
           stretch=st.sampled_from([0.0, 1e-12, 4e-10, 5e-10, 6e-10, 1e-6, 0.3, -0.2]),
           stacked_rows=st.sampled_from([0, 1 << 40]))
    @settings(max_examples=300, deadline=None)
    def test_block_visibility_matches_eager_reference(self, seed, count, n_poses, kind,
                                                      fov_deg, max_range_m, on_landmark,
                                                      boundary, stretch, stacked_rows):
        """Every pose's ids are the eager formula's, whether the block tests
        its edge landmarks for all poses at once or one pose at a time, and
        however far its poses spread: a block is classified whatever its
        poses, since only the pipeline asks `is_compact`."""
        rng = np.random.default_rng(seed)
        points = generate_landmarks(count, rng)
        poses = _BLOCK_POSES[kind](rng, n_poses)
        # A quaternion of norm 1 + stretch gives a heading of about 1 +
        # 2 stretch, on both sides of the 1e-9 beyond which the exact test
        # takes every landmark.
        share = rng.choice([0.5, 1.0])
        poses = [Pose(p.position, p.velocity, tuple(c * (1.0 + stretch) for c in p.orientation))
                 if rng.uniform() < share else p for p in poses]
        if on_landmark and count:
            b = int(rng.integers(n_poses))
            poses[b] = Pose(tuple(points[rng.integers(count)]), (0.0, 0.0, 0.0),
                            poses[b].orientation)
        if boundary:
            points = np.vstack([points] + [
                _boundary_points(rng, poses[rng.integers(n_poses)], max_range_m, fov_deg)
                for _ in range(boundary)])
        with mock.patch.object(kernel, "_STACKED_ROWS", stacked_rows):
            blocks = _visible_block(LandmarkField(points), poses, max_range_m, fov_deg)
        assert len(blocks) == len(poses)
        for pose, ids in zip(poses, blocks):
            assert ids.tobytes() == _eager_visible(points, pose, max_range_m, fov_deg).tobytes()

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(2, 2000),
           n_poses=st.integers(2, 48), fps=st.sampled_from([30, 50, 60]),
           period_s=st.floats(1.0, 120.0), radius_m=st.floats(0.0, 10.0),
           fov_deg=st.floats(1.0, 360.0), max_range_m=st.floats(0.5, 30.0),
           boundary=st.integers(0, 6), stacked_rows=st.sampled_from([0, 1 << 40]))
    @settings(max_examples=150, deadline=None)
    def test_trajectory_block_visibility_matches_eager_reference(
            self, seed, count, n_poses, fps, period_s, radius_m, fov_deg, max_range_m,
            boundary, stacked_rows):
        """Consecutive camera frames, the blocks the pipeline classifies:
        each frame's ids are the eager formula's."""
        rng = np.random.default_rng(seed)
        points = generate_landmarks(count, rng)
        truth, first = CircleTrajectory(radius_m, period_s), int(rng.integers(0, 10_000))
        poses = [truth.pose_at(k * NS_PER_S // fps) for k in range(first, first + n_poses)]
        if boundary:
            points = np.vstack([points] + [
                _boundary_points(rng, poses[rng.integers(n_poses)], max_range_m, fov_deg)
                for _ in range(boundary)])
        with mock.patch.object(kernel, "_STACKED_ROWS", stacked_rows):
            blocks = _visible_block(LandmarkField(points), poses, max_range_m, fov_deg)
        for pose, ids in zip(poses, blocks):
            assert ids.tobytes() == _eager_visible(points, pose, max_range_m, fov_deg).tobytes()

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("stretch", [4e-10, 6e-10, 0.3, -0.2])
    def test_non_unit_headings_match_eager_reference(self, stretch):
        """A heading's norm scales its depths; the classification takes unit
        headings, so it runs only on headings of norm 1 within 1e-9."""
        points = generate_landmarks(500, np.random.default_rng(3))
        truth = CircleTrajectory()
        poses = [truth.pose_at(k * NS_PER_S // 30) for k in range(100, 132)]
        poses = [Pose(p.position, p.velocity, tuple(c * (1.0 + stretch) for c in p.orientation))
                 for p in poses]
        for pose, ids in zip(poses, _visible_block(LandmarkField(points), poses)):
            assert ids.tobytes() == _eager_visible(points, pose).tobytes()

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("stacked_rows", [0, 1 << 40])
    def test_single_edge_landmark_keeps_the_gemv(self, stacked_rows):
        """A block with one edge landmark tests it with a second row: numpy
        takes a one-row product as a BLAS dot, whose last bit may differ
        from the gemv of the whole array. The landmarks are nudged by ulps
        across the cone boundary of a pose; on each where the dot and the
        gemv fall on two sides of it, a block of that pose twice, where the
        other landmark is sure-in, must give the gemv's answer."""
        rng = np.random.default_rng(5)
        cos_half = math.cos(math.radians(100.0) / 2.0)
        straddled = 0
        for _ in range(200):
            q = quat_from_yaw(rng.uniform(0.0, 2.0 * math.pi))
            pose = Pose(tuple(rng.uniform(-5.0, 5.0, 3)), (0.0, 0.0, 0.0), q)
            h = np.array(quat_rotate(q, (1.0, 0.0, 0.0)))
            side, a = np.array([-h[1], h[0], 0.0]), math.radians(50.0)
            ahead = np.array(pose.position) + h  # seen by the pose: the other row
            edge = np.array(pose.position) + rng.uniform(2.0, 10.0) * (
                math.cos(a) * h + math.sin(a) * side)
            for k in range(-20, 21):
                points = np.array([edge, ahead])
                points[0, 0] += k * math.ulp(edge[0])
                rel = points - pose.position
                dist = np.linalg.norm(rel[0])
                gemv, dot = (rel @ h)[0] / dist, (rel[:1] @ h)[0] / dist
                if straddled and (gemv >= cos_half) == (dot >= cos_half):
                    continue
                straddled += (gemv >= cos_half) != (dot >= cos_half)
                block = LandmarkField(points).block((pose, pose))
                assert block.seen.tolist() == [False, True]
                with mock.patch.object(kernel, "_STACKED_ROWS", stacked_rows):
                    ids = block.visible(1)
                assert ids.tobytes() == _eager_visible(points, pose).tobytes()
            if straddled >= 3:
                break

    @given(seed=st.integers(0, 2 ** 32 - 1), use_rng=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_capped_block_ids_match_eager_subset(self, seed, use_rng):
        world = np.random.default_rng(seed)
        points = generate_landmarks(4000, world)
        pose = CircleTrajectory().pose_at(int(world.integers(0, 60 * NS_PER_S)))
        ids = _eager_visible(points, pose)
        assert len(ids) > feature_capacity()
        frame = CameraFrame(frame_id=0, t_ns=0,
                            visible_landmarks=LandmarkField(points).visible(pose))
        rng = np.random.default_rng(seed + 1) if use_rng else None
        block = extract_features(frame, rng)
        if use_rng:
            ref_rng = np.random.default_rng(seed + 1)
            keep = np.sort(ref_rng.choice(len(ids), size=feature_capacity(), replace=False))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        else:
            keep = slice(feature_capacity())
        assert block.features.tobytes() == ids[keep].tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_landmarks_match_per_landmark_reference(self, seed, count):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lm = generate_landmarks(count, rng)
        angles = ref_rng.uniform(0.0, 2.0 * math.pi, count)
        radii = 8.0 + ref_rng.uniform(-1.0, 1.0, count)
        heights = ref_rng.uniform(-2.0, 2.0, count)
        ref = [[radii[i] * math.cos(angles[i]), radii[i] * math.sin(angles[i]), heights[i]]
               for i in range(count)]
        assert np.array_equal(lm, np.array(ref).reshape(count, 3))
