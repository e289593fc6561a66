import ast
import dataclasses
import importlib
import math

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from slamsim import kernel
from slamsim.engine import NS_PER_S
from slamsim.kernel import (CameraFrame, CircleTrajectory, FeatureBlock, ImuModel, ImuSample,
                            LandmarkField, Pose, StationaryTrajectory, VisibilityBlock, WorldMap,
                            draw_imu, extend_map, extract_features, feature_capacity,
                            generate_landmarks, imu_rows, integrate, is_compact, propagate,
                            quat_from_yaw, quat_normalize, quat_rotate,
                            sample_imu, sample_imu_block, update_pose, _dot, _exact, _norm,
                            _row_norms,
                            FEATURE_BLOCK_HEADER_BYTES, FEATURE_RECORD_BYTES)
from slamsim.pipeline import IMU_BLOCK
from slamsim.scenario import KernelConfig
from slamsim.soc import SocConfig

import reference

# The model values a simulation passes the kernel by default.
K = KernelConfig()


def _default_circle():
    return CircleTrajectory(K.trajectory_radius_m, K.trajectory_period_s)


class TestQuaternions:
    def test_yaw_rotation_matches_rotation_matrix(self):
        yaw = 0.7
        q = quat_from_yaw(yaw)
        v = (1.0, 2.0, 3.0)
        c, s = math.cos(yaw), math.sin(yaw)
        expected = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])
        assert np.allclose(quat_rotate(q, v), expected)


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
        tr = _default_circle()
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
        truth = _default_circle()
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
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        block = extract_features(_frame(range(5), frame_id=2), rng)
        assert rng.bit_generator.state == state
        assert block.features.tolist() == list(range(5))
        assert block.serialized_bytes == FEATURE_BLOCK_HEADER_BYTES \
            + 5 * FEATURE_RECORD_BYTES


def _map(size, ids):
    wm = WorldMap(size)
    wm.known[list(ids)] = True
    return wm


class TestUpdateAndMap:
    def _block(self, ids):
        return extract_features(_frame(ids), np.random.default_rng(0))

    def test_too_few_matches_leaves_pose_unchanged(self):
        wm = _map(10, range(5))
        pose = Pose((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        out, matched = update_pose(pose, self._block(range(5)), wm, Pose.identity(),
                                   np.random.default_rng(0), K.update_gain, K.obs_noise_std,
                                   K.min_matches)
        assert matched == 5 < K.min_matches
        assert np.array_equal(out.position, pose.position)

    def test_update_blends_toward_truth_with_gain(self):
        wm = _map(20, range(20))
        pose = Pose((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        out, matched = update_pose(pose, self._block(range(20)), wm, Pose.identity(),
                                   np.random.default_rng(0), K.update_gain, 0.0, K.min_matches)
        assert matched == 20
        # error shrinks by exactly (1 - gain) without observation noise
        assert out.position[0] == pytest.approx(1.0 - K.update_gain)

    def test_extend_map_inserts_only_new(self):
        wm = _map(6, [0, 4])
        inserted = extend_map(wm, self._block(range(4)))
        assert inserted == 3
        assert len(wm) == 5
        assert wm.known.tolist() == [True, True, True, True, True, False]


@pytest.mark.blas_bits
class TestVisibility:
    def test_generate_landmarks_shape(self):
        lm = generate_landmarks(400, np.random.default_rng(3))
        assert lm.shape == (400, 3)
        radii = np.hypot(lm[:, 0], lm[:, 1])
        assert np.all((7.0 <= radii) & (radii <= 9.0))


class TestCompactBlocks:
    """`is_compact` judges a block by its first and last rows against its
    middle row, n // 2: each within _SPREAD of the range of it, and its
    heading within _SPREAD of the cone's half angle of the middle heading."""

    @staticmethod
    def _block(n, end, offset=(0.0, 0.0, 0.0), turn=0.0):
        """n rows at the middle row's pose, but the `end` row ("first" or
        "last") moved by `offset` and its heading turned by `turn` rad about
        the vertical. For n = 2 the last row is the middle one, and for n = 1
        both ends are."""
        middle, yaw = np.array([3.0, -1.5, 0.25]), 0.7
        positions = np.tile(middle, (n, 1))
        heads = np.tile([math.cos(yaw), math.sin(yaw), 0.0], (n, 1))
        row = 0 if end == "first" else n - 1
        positions[row] = middle + offset
        heads[row] = (math.cos(yaw + turn), math.sin(yaw + turn), 0.0)
        return positions, heads

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 31, 32])
    @pytest.mark.parametrize("end", ["first", "last"])
    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("max_range_m, fov_deg", [(K.visibility_range_m, K.fov_deg),
                                                      (3.0, 170.0)])
    def test_spread_boundary(self, n, end, inside, max_range_m, fov_deg):
        """A row just inside or just outside either bound, for odd and even
        lengths; a 1-row block is its own middle, so it is always compact."""
        scale = 1.0 - 1e-9 if inside else 1.0 + 1e-9
        reach = kernel._SPREAD * max_range_m * scale
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        turn = kernel._SPREAD * math.radians(fov_deg) / 2.0 * (1.0 - 1e-6 if inside
                                                                else 1.0 + 1e-6)
        compact = inside or n == 1
        far = self._block(n, end, offset=reach * direction)
        assert is_compact(*far, max_range_m, fov_deg) is compact
        turned = self._block(n, end, turn=turn)
        assert is_compact(*turned, max_range_m, fov_deg) is compact

    @pytest.mark.parametrize("n", [3, 4, 32])
    def test_ends_spread_on_both_sides_of_the_middle(self, n):
        """The first and last rows may each lie almost _SPREAD of the range
        from the middle row on opposite sides, nearly twice that from each
        other, and turn almost _SPREAD of the half angle each way."""
        max_range_m, fov_deg = K.visibility_range_m, K.fov_deg
        reach = 0.99 * kernel._SPREAD * max_range_m
        turn = 0.99 * kernel._SPREAD * math.radians(fov_deg) / 2.0
        positions, heads = self._block(n, "first", offset=(-reach, 0.0, 0.0), turn=-turn)
        last = self._block(n, "last", offset=(reach, 0.0, 0.0), turn=turn)
        positions[-1], heads[-1] = last[0][-1], last[1][-1]
        assert is_compact(positions, heads, max_range_m, fov_deg)
        positions[-1] += (0.02 * kernel._SPREAD * max_range_m, 0.0, 0.0)
        assert not is_compact(positions, heads, max_range_m, fov_deg)


# ---------------------------------------------------------------------------
# Bit-exactness against `reference` (tests/reference.py), the kernel's
# numerics written once, per sample, per landmark and per feature. The kernel
# must reproduce it to the last bit and draw the same random numbers in the
# same order, because every simulated report depends on it.

def _bits(values):
    """Floats as exact bytes: equal only if every float is bit-identical."""
    return np.asarray(values, float).tobytes()


def _pose_bits(pose):
    return tuple(_bits(c) for c in (pose.position, pose.velocity, pose.orientation))


def _imu_bits(sample):
    t_ns, gyro, accel = sample
    return t_ns, _bits(gyro), _bits(accel)


def _assert_map(world_map, ref_map):
    """A `WorldMap` knows exactly the ids of a reference map."""
    assert np.flatnonzero(world_map.known).tolist() == sorted(ref_map)


def _assert_ids(ids, expected):
    """The kernel's ids are an intp array of the reference's ids."""
    assert ids.dtype == np.intp and ids.tolist() == expected


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


def _block_arrays(poses):
    """The (n, 3) positions and headings of `poses`, the input of
    `VisibilityBlock` and `is_compact`: each row the pose's position, and
    its heading as the reference turns the body +x axis."""
    return (np.array([p.position for p in poses], dtype=float),
            np.array([reference._rotate(p.orientation, (1.0, 0.0, 0.0)) for p in poses],
                     dtype=float))


def _visible_block(field, poses, max_range_m, fov_deg):
    """`visible(i)` of one `VisibilityBlock` of `poses` for every pose i."""
    block = VisibilityBlock(field, *_block_arrays(poses), max_range_m, fov_deg)
    return [block.visible(i) for i in range(len(poses))]


_bias = st.floats(-0.5, 0.5, allow_nan=False)
_std = st.one_of(st.just(0.0), st.floats(0.0, 0.2, allow_nan=False))
_period = st.floats(1.0, 600.0)
_trajectories = st.one_of(
    st.builds(StationaryTrajectory, st.tuples(_bias, _bias, _bias)),
    st.builds(CircleTrajectory, st.just(0.0), _period),
    st.builds(CircleTrajectory, st.floats(0.0, 20.0), _period))
_coord = st.floats(-1e4, 1e4, allow_nan=False)
# Any double: every magnitude from subnormal to the largest, the signed
# zeros, the infinities and NaN, each of the named ones drawn often.
_component = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                        math.inf, -math.inf, math.nan]),
                       st.floats())
_vec = st.tuples(_coord, _coord, _coord)


# The IMU-path properties draw long sample batches, and the feature path runs
# rounds on maps of up to 1200 landmarks; shrinking a failure of theirs takes
# minutes, so they report the first failing example as drawn.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
BANK_BYTES = SocConfig().bank_capacity_bytes


_REFERENCE = ast.parse(Path(reference.__file__).read_text())
_BLAS = {"@", "dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


class TestReference:
    """The reference reaches BLAS only through `norm` and `depths`, so that
    writing those reductions term by term changes it in one place, and it
    computes nothing with the kernel it checks."""

    def test_blas_only_in_norm_and_depths(self):
        helpers = [f for f in _REFERENCE.body
                   if isinstance(f, ast.FunctionDef) and f.name in ("norm", "depths")]
        assert len(helpers) == 2
        found = []
        for node in ast.walk(ast.Module([s for s in _REFERENCE.body if s not in helpers], [])):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.alias, ast.ImportFrom)):
                names = set((getattr(node, "name", None) or node.module or "").split("."))
            else:
                names = {"@"} if isinstance(getattr(node, "op", None), ast.MatMult) else set()
            if names & _BLAS:
                found.append(ast.unparse(node))
        assert found == []

    def test_imports_no_kernel_function(self):
        """What it takes from `slamsim` is a constant or a record type: no
        function, no class that computes and no module."""
        for node in ast.walk(_REFERENCE):
            if isinstance(node, ast.Import):
                assert not [a.name for a in node.names if a.name.split(".")[0] == "slamsim"]
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "slamsim":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    obj = getattr(module, alias.name)
                    assert isinstance(obj, (int, float)) or isinstance(obj, type) and (
                        dataclasses.is_dataclass(obj) or issubclass(obj, tuple)), alias.name


class TestBitExactness:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           accel_bias=st.tuples(_bias, _bias, _bias),
           gyro_bias=st.tuples(_bias, _bias, _bias),
           accel_std=_std, gyro_std=_std,
           rate_hz=st.sampled_from([1, 7, 30, 200, 333, 1000]),
           radius=st.floats(0.0, 20.0), period=st.floats(1.0, 600.0),
           chunks=st.lists(st.integers(1, 12), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_imu_path_matches_reference(self, seed, accel_bias, gyro_bias, accel_std,
                                        gyro_std, rate_hz, radius, period, chunks):
        truth = CircleTrajectory(radius, period)
        model = ImuModel(accel_bias=accel_bias, gyro_bias=gyro_bias,
                         accel_noise_std=accel_std, gyro_noise_std=gyro_std,
                         rate_hz=rate_hz)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        step = NS_PER_S // rate_hz
        ticks = range(1, sum(chunks) + 1)
        batch = [sample_imu(model, truth, k * step, rng) for k in ticks]
        ref_batch = [reference.sample_imu(model, truth, k * step, ref_rng) for k in ticks]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [_imu_bits(s) for s in batch] == [_imu_bits(s) for s in ref_batch]

        # chunked as the pipeline drains its IMU buffer: no prev sample at first
        pose = ref = truth.pose_at(0)
        prev, start = None, 0
        for n in chunks:
            chunk = batch[start:start + n]
            pose = propagate(pose, chunk, start * step, prev_sample=prev)
            ref = reference.propagate(ref, chunk, start * step, prev_sample=prev)
            assert _pose_bits(pose) == _pose_bits(ref)
            prev = chunk[-1]
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
        """Blocks of samples give the bits and the draws of the reference's
        samples taken one by one."""
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
        ref = [reference.sample_imu(model, truth, t, ref_rng) for t in times]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [_imu_bits(s) for s in samples] == [_imu_bits(s) for s in ref]

    @given(truth=_trajectories,
           times=st.lists(st.integers(0, 10 ** 13), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_truth_signals_match_scalar(self, truth, times):
        _assert_signals_match_scalar(truth, times)

    @given(radius_m=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
           period_s=st.floats(min_value=1e-3, allow_infinity=False),
           times=st.lists(st.integers(0, 3600 * NS_PER_S), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_block_poses_match_pose_at(self, radius_m, period_s, times):
        """A frame block's positions and headings are, bit for bit and signed
        zeros included, each time's `pose_at` position and the heading the
        reference turns from its orientation."""
        truth = CircleTrajectory(radius_m, period_s)
        positions, heads = truth.positions_and_headings(times)
        assert positions.shape == heads.shape == (len(times), 3)
        assert positions.flags.c_contiguous and heads.flags.c_contiguous
        poses = [truth.pose_at(t) for t in times]
        assert positions.tobytes() == _bits([p.position for p in poses])
        assert heads.tobytes() == _bits(
            [reference._rotate(p.orientation, (1.0, 0.0, 0.0)) for p in poses])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           rate_hz=st.sampled_from([1, 7, 200, 333, 1000]),
           steps=st.lists(st.tuples(st.integers(1, 9),
                                    st.sampled_from(["none", "update", "no-match",
                                                     "equal-copy", "set-orientation",
                                                     "skip", "restart"])),
                          min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_chained_propagate_matches_reference(self, seed, rate_hz, steps):
        """Chained batches with updates, copies, orientations set in place
        and skipped samples between them give the reference's bits."""
        truth = CircleTrajectory(4.0, 30.0)
        model = ImuModel(accel_bias=(0.05, 0.02, 0.0), gyro_bias=(0.0005, 0.0, 0.0002),
                         accel_noise_std=0.02, gyro_noise_std=0.002, rate_hz=rate_hz)
        rng = np.random.default_rng(seed)
        count = sum(n + 1 for n, _ in steps)
        times = [(k * NS_PER_S) // rate_hz for k in range(1, count + 1)]
        samples = sample_imu_block(model, truth, times, rng)
        world_map, ref_map = _map(20, range(20)), set(range(20))
        block = extract_features(_frame(range(20)), rng)
        features = block.features.tolist()

        pose = ref = truth.pose_at(0)
        prev, from_t, start = None, 0, 0
        for n, between in steps:
            batch = samples[start:start + n]
            pose = propagate(pose, batch, from_t, prev_sample=prev)
            ref = reference.propagate(ref, batch, from_t, prev_sample=prev)
            assert _pose_bits(pose) == _pose_bits(ref)
            prev, from_t, start = batch[-1], batch[-1].t_ns, start + n
            truth_pose = truth.pose_at(from_t)
            if between in ("update", "no-match"):
                # without observation noise, or too few matches: no draw
                args = (0.5, 0.0, K.min_matches) if between == "update" else \
                    (K.update_gain, K.obs_noise_std, 21)
                state = rng.bit_generator.state
                pose, _ = update_pose(pose, block, world_map, truth_pose, rng, *args)
                ref, _ = reference.update_pose(ref, features, ref_map, truth_pose, rng, *args)
                assert rng.bit_generator.state == state
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
    def test_block_rows_match_propagate_and_reference(
            self, seed, rate_hz, noise, std, accel_bias, gyro_bias, truth, data):
        """Rows drawn block by block as the pipeline draws them, integrated
        over chunks that cross block boundaries, give the bits of the public
        `propagate` over the same chunks and of the reference. Sample 1
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
        ref = [reference.sample_imu(model, truth, t, ref_rng) for t in times]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(truth, StationaryTrajectory) and noise in ("none", "accel") \
                and gyro_bias == (0.0, 0.0, 0.0):
            assert all(row[1:5] == [1.0, 0.0, 0.0, 0.0] for row in rows)

        pose = public = expected = truth.pose_at(0)
        prev_accel = None
        for a, b in zip(bounds, bounds[1:]):
            from_t = times[a - 1] if a else 0
            pose = integrate(pose, rows[a:b], prev_accel)
            public = propagate(public, samples[a:b], from_t,
                               prev_sample=samples[a - 1] if a else None)
            expected = reference.propagate(expected, ref[a:b], from_t,
                                           prev_sample=ref[a - 1] if a else None)
            assert _pose_bits(pose) == _pose_bits(public) == _pose_bits(expected)
            prev_accel = rows[b - 1][5:]

    @pytest.mark.blas_bits
    @given(first=st.sampled_from([3, 4]),
           pairs=st.lists(st.tuples(st.tuples(*[_component] * 4),
                                    st.tuples(*[_component] * 4)), min_size=2, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_scratch_dots_are_the_dots_of_fresh_arrays(self, first, pairs):
        """`_dot` writes two quaternions and `_norm` a 3- or 4-vector into
        reused scratch arrays; each must give the bits of the same dot on
        fresh arrays. The norms' lengths alternate between calls, so a
        component left in a scratch array by the previous call cannot reach
        a later result."""
        for i, (a, b) in enumerate(pairs):
            n = 3 + (first + i) % 2
            with np.errstate(over="ignore", invalid="ignore"):
                assert _dot(a, b).hex() == float(np.array(a).dot(np.array(b))).hex()
                a, b = a[:n], b[:n]
                assert _norm(a).hex() == math.sqrt(np.array(a).dot(np.array(a))).hex()
                assert _norm(b).hex() == math.sqrt(np.array(b).dot(np.array(b))).hex()

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
           position=_vec, velocity=_vec, truth_position=_vec, truth_velocity=_vec,
           gain=st.floats(0.0, 1.0), obs_std=_std,
           min_matches=st.integers(0, 30), rounds=st.integers(1, 4),
           orientation=st.sampled_from(["near", "far", "opposite"]))
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_feature_path_matches_reference(self, seed, size, visible_share, known_share,
                                            position, velocity, truth_position,
                                            truth_velocity, gain, obs_std, min_matches,
                                            rounds, orientation):
        """`extract_features`, `update_pose`, the pipeline's position error
        and `extend_map` give the reference's features, bits, draws and map,
        round after round on a growing map; a miss of `min_matches`, a std
        of 0 and `extend_map` draw nothing."""
        world = np.random.default_rng(seed)
        landmarks = generate_landmarks(size, world)
        known = np.flatnonzero(world.uniform(size=size) < known_share)
        truth_q = quat_normalize(tuple(world.normal(size=4)))
        # Near the truth orientation, slerp takes its normalized-lerp branch;
        # "opposite" exercises the hemisphere flip.
        q = quat_normalize(tuple(np.add(truth_q, world.normal(0.0, 1e-3, 4)))
                           if orientation == "near" else world.normal(size=4))
        if orientation == "opposite":
            q = tuple(-c for c in q) if np.dot(q, truth_q) > 0 else q
        truth, pose = Pose(truth_position, truth_velocity, truth_q), Pose(position, velocity, q)
        wm, ref_map = _map(size, known), set(known.tolist())
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(rounds):
            ids = np.flatnonzero(world.uniform(size=size) < visible_share)
            block = extract_features(_frame(ids), rng)
            features, size_bytes = reference.extract_features(ids.tolist(), ref_rng,
                                                              BANK_BYTES)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            _assert_ids(block.features, features)
            assert block.serialized_bytes == size_bytes

            state = rng.bit_generator.state
            out, matched = update_pose(pose, block, wm, truth, rng=rng, gain=gain,
                                       obs_noise_std=obs_std, min_matches=min_matches)
            ref, ref_matched = reference.update_pose(pose, features, ref_map, truth, ref_rng,
                                                     gain, obs_std, min_matches)
            assert matched == ref_matched
            assert _pose_bits(out) == _pose_bits(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if matched < min_matches or obs_std == 0:
                assert rng.bit_generator.state == state
            # Simulation._apply_update's error
            (px, py, pz), (tx, ty, tz) = out.position, truth.position
            assert _norm((px - tx, py - ty, pz - tz)).hex() == reference.norm(
                [r - t for r, t in zip(ref.position, truth.position)]).hex()

            state = rng.bit_generator.state
            assert extend_map(wm, block) == reference.extend_map(ref_map, features)
            assert rng.bit_generator.state == state
            _assert_map(wm, ref_map)
            pose = out

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 60),
           known_share=st.floats(0.0, 1.0),
           batches=st.lists(st.integers(0, 40), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_extend_map_matches_reference(self, seed, size, known_share, batches):
        """Blocks of new, already-known and repeated ids, in any order, leave
        the reference's map and count what it counts."""
        rng = np.random.default_rng(seed)
        known = np.flatnonzero(rng.uniform(size=size) < known_share)
        wm, ref_map = _map(size, known), set(known.tolist())
        for count in batches:
            ids = rng.integers(0, size, count)
            block = FeatureBlock(0, ids, 0)
            assert extend_map(wm, block) == reference.extend_map(ref_map, ids.tolist())
            _assert_map(wm, ref_map)

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 5000),
           where=st.sampled_from(["trajectory", "off", "inside", "on-landmark"]),
           fov_deg=st.one_of(st.floats(1e-3, 360.0), st.just(360.0)),
           max_range_m=st.floats(0.5, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_visibility_matches_reference(self, seed, count, where, fov_deg, max_range_m):
        rng = np.random.default_rng(seed)
        points = generate_landmarks(count, rng)
        q = quat_normalize(tuple(rng.normal(size=4)))
        if where == "trajectory":
            position = _default_circle().pose_at(int(rng.integers(0, 60 * NS_PER_S))).position
        elif where == "off":
            position = tuple(rng.uniform(-15.0, 15.0, 3))
        elif where == "inside":  # inside the landmark ring, off the loop
            r, a = rng.uniform(0.0, 6.5), rng.uniform(0.0, 2.0 * math.pi)
            position = (r * math.cos(a), r * math.sin(a), rng.uniform(-2.0, 2.0))
        else:  # exactly at a landmark: a zero distance, excluded by the 1e-6 floor
            position = tuple(points[rng.integers(count)]) if count else (0.0, 0.0, 0.0)
        pose = Pose(position, (0.0, 0.0, 0.0), q)
        _assert_ids(LandmarkField(points).visible(pose, max_range_m, fov_deg),
                    reference.visible(points, pose, max_range_m, fov_deg))

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 600),
           n_poses=st.integers(1, 40), kind=st.sampled_from(sorted(_BLOCK_POSES)),
           fov_deg=st.one_of(st.floats(1e-3, 360.0), st.sampled_from([180.0, 360.0])),
           max_range_m=st.floats(0.5, 30.0), on_landmark=st.booleans(),
           boundary=st.integers(0, 12),
           stretch=st.sampled_from([0.0, 1e-12, 4e-10, 5e-10, 6e-10, 1e-6, 0.3, -0.2]),
           stacked_rows=st.sampled_from([0, 1 << 40]))
    @settings(max_examples=300, deadline=None)
    def test_block_visibility_matches_reference(self, seed, count, n_poses, kind, fov_deg,
                                                max_range_m, on_landmark, boundary, stretch,
                                                stacked_rows):
        """Every pose's ids are the reference's, whether the block tests its
        edge landmarks for all poses at once or one pose at a time, and
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
            _assert_ids(ids, reference.visible(points, pose, max_range_m, fov_deg))

    @pytest.mark.blas_bits
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(2, 2000),
           n_poses=st.integers(2, 48), fps=st.sampled_from([30, 50, 60]),
           period_s=st.floats(1.0, 120.0), radius_m=st.floats(0.0, 10.0),
           fov_deg=st.floats(1.0, 360.0), max_range_m=st.floats(0.5, 30.0),
           boundary=st.integers(0, 6), stacked_rows=st.sampled_from([0, 1 << 40]))
    @settings(max_examples=150, deadline=None)
    def test_trajectory_block_visibility_matches_reference(
            self, seed, count, n_poses, fps, period_s, radius_m, fov_deg, max_range_m,
            boundary, stacked_rows):
        """Consecutive camera frames, the blocks the pipeline classifies:
        each frame's ids are the reference's."""
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
            _assert_ids(ids, reference.visible(points, pose, max_range_m, fov_deg))

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("stretch", [4e-10, 6e-10, 0.3, -0.2])
    def test_non_unit_headings_match_reference(self, stretch):
        """A heading's norm scales its depths; the classification takes unit
        headings, so it runs only on headings of norm 1 within 1e-9."""
        points = generate_landmarks(500, np.random.default_rng(3))
        truth = _default_circle()
        poses = [truth.pose_at(k * NS_PER_S // 30) for k in range(100, 132)]
        poses = [Pose(p.position, p.velocity, tuple(c * (1.0 + stretch) for c in p.orientation))
                 for p in poses]
        blocks = _visible_block(LandmarkField(points), poses, K.visibility_range_m, K.fov_deg)
        for pose, ids in zip(poses, blocks):
            _assert_ids(ids, reference.visible(points, pose, K.visibility_range_m, K.fov_deg))

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
        cos_half = math.cos(math.radians(K.fov_deg) / 2.0)
        straddled = 0
        for _ in range(200):
            q = quat_from_yaw(rng.uniform(0.0, 2.0 * math.pi))
            pose = Pose(tuple(rng.uniform(-5.0, 5.0, 3)), (0.0, 0.0, 0.0), q)
            h = np.array(quat_rotate(q, (1.0, 0.0, 0.0)))
            side, a = np.array([-h[1], h[0], 0.0]), math.radians(K.fov_deg / 2.0)
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
                block = VisibilityBlock(LandmarkField(points), *_block_arrays((pose, pose)),
                                        K.visibility_range_m, K.fov_deg)
                assert block.seen.tolist() == [False, True]
                with mock.patch.object(kernel, "_STACKED_ROWS", stacked_rows):
                    ids = block.visible(1)
                _assert_ids(ids, reference.visible(points, pose, K.visibility_range_m,
                                                   K.fov_deg))
            if straddled >= 3:
                break

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_capped_block_ids_match_reference(self, seed):
        world = np.random.default_rng(seed)
        points = generate_landmarks(4000, world)
        pose = _default_circle().pose_at(int(world.integers(0, 60 * NS_PER_S)))
        ids = reference.visible(points, pose, K.visibility_range_m, K.fov_deg)
        assert len(ids) > feature_capacity()
        frame = CameraFrame(frame_id=0, t_ns=0, visible_landmarks=LandmarkField(points).visible(
            pose, K.visibility_range_m, K.fov_deg))
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        block = extract_features(frame, rng)
        features, _ = reference.extract_features(ids, ref_rng, BANK_BYTES)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        _assert_ids(block.features, features)

    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_landmarks_match_reference(self, seed, count):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lm = generate_landmarks(count, rng)
        assert lm.shape == (count, 3)
        assert lm.tobytes() == _bits(reference.generate_landmarks(count, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
