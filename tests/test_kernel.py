import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from slamsim.engine import NS_PER_S
from slamsim.kernel import (CameraFrame, CircleTrajectory, ImuModel, ImuSample,
                            LandmarkField, Pose, StationaryTrajectory, WorldMap,
                            draw_imu, extend_map, extract_features, feature_capacity,
                            generate_landmarks, imu_rows, integrate, propagate, quat_exp,
                            quat_from_yaw, quat_multiply, quat_normalize, quat_rotate,
                            sample_imu, sample_imu_block, update_pose, _norm, _row_norms,
                            FEATURE_BLOCK_HEADER_BYTES, FEATURE_BLOCK_MAX_BYTES,
                            FEATURE_RECORD_BYTES)
from slamsim.pipeline import IMU_BLOCK


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
        assert (FEATURE_BLOCK_MAX_BYTES - FEATURE_BLOCK_HEADER_BYTES) \
            // FEATURE_RECORD_BYTES == 200

    def test_block_never_exceeds_bank_capacity(self):
        block = extract_features(_frame(range(500), frame_id=1), np.random.default_rng(0))
        assert len(block.features) == 200
        assert block.serialized_bytes <= FEATURE_BLOCK_MAX_BYTES

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


_bias = st.floats(-0.5, 0.5, allow_nan=False)
_std = st.one_of(st.just(0.0), st.floats(0.0, 0.2, allow_nan=False))
_period = st.floats(1.0, 600.0)
_trajectories = st.one_of(
    st.builds(StationaryTrajectory, st.tuples(_bias, _bias, _bias)),
    st.builds(CircleTrajectory, st.just(0.0), _period),
    st.builds(CircleTrajectory, st.floats(0.0, 20.0), _period))


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
