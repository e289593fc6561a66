"""Functional SLAM math executed inside the simulated pipeline.

Ground-truth trajectory synthesis, IMU sampling with bias/noise, pose
propagation by double integration, synthetic feature extraction, map-based
drift correction, and map extension. Everything here is a pure function over
explicit state so architectural stalls in the pipeline produce measurable
tracking error without hidden coupling.

Data layout. The per-sample IMU path (`sample_imu`, `propagate`) and the
trajectories work on Python floats: vectors are 3-tuples, quaternions are
4-tuples (w, x, y, z), and a `Pose` holds three such tuples. The feature path
is struct-of-arrays over the dense landmark ids 0..N-1: landmark truth is one
(N, 3) array, a frame's `Sightings` and a `FeatureBlock` are an int id array
plus a (k, 2) pixel array, and a `WorldMap` is a bool `known` mask plus an
(N, 3) point array, so matching and map extension are single masked
gathers.

Numerics. Every sum, product and quotient is written term by term in the
order of the reference numpy formulation, so results are bit-identical to
it. Vector norms and quaternion dot products are the exception: numpy takes
them with its BLAS dot product, which may accumulate with fused multiply-adds
and so differs in the last bit from a Python sum of squares. `_dot` and
`_norm` keep that BLAS call.

Conventions: accelerometer samples are gravity-compensated specific force
(gravity handling is out of scope for this model). The drift-correction
estimator is deliberately abstract: a truth-anchored blend with gain `alpha`
plus observation noise. The simulator's purpose is architecture evaluation,
not estimator research.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import NS_PER_S

FEATURE_RECORD_BYTES = 20
FEATURE_BLOCK_HEADER_BYTES = 96
FEATURE_BLOCK_MAX_BYTES = 4096


# ---------------------------------------------------------------------------
# vector and quaternion helpers on float tuples; quaternions are (w, x, y, z)

def _dot(a, b) -> float:
    """Dot product as numpy's BLAS dot computes it (see the module notes)."""
    return float(np.array(a).dot(np.array(b)))


def _norm(v) -> float:
    """Euclidean norm as np.linalg.norm computes it: sqrt of a BLAS dot."""
    a = np.array(v)
    return math.sqrt(a.dot(a))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def quat_normalize(q):
    n = _norm(q)
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conjugate(q):
    return (q[0], -q[1], -q[2], -q[3])


def quat_rotate(q, v):
    """Rotate vector v from body frame to world frame by unit quaternion q."""
    out = quat_multiply(quat_multiply(q, (0.0, v[0], v[1], v[2])), quat_conjugate(q))
    return out[1:]


def quat_exp(omega_dt):
    """Quaternion exponential of a rotation vector (axis * angle)."""
    angle = _norm(omega_dt)
    x, y, z = omega_dt
    if angle < 1e-12:
        return (1.0, 0.5 * x, 0.5 * y, 0.5 * z)
    half = 0.5 * angle
    s = math.sin(half)
    return (math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle))


def quat_from_yaw(yaw):
    return (math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2))


def quat_slerp(a, b, t):
    dot = _dot(a, b)
    if dot < 0.0:
        b, dot = tuple(-c for c in b), -dot
    if dot > 0.9995:
        return quat_normalize(tuple(ac + t * (bc - ac) for ac, bc in zip(a, b)))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    wa, wb = math.sin((1 - t) * theta) / s, math.sin(t * theta) / s
    return tuple(wa * ac + wb * bc for ac, bc in zip(a, b))


# ---------------------------------------------------------------------------
# domain types

@dataclass
class Pose:
    position: tuple  # m, world frame
    velocity: tuple  # m/s, world frame
    orientation: tuple  # unit quaternion (w, x, y, z), body->world

    @classmethod
    def identity(cls) -> "Pose":
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))

    def copy(self) -> "Pose":
        return Pose(self.position, self.velocity, self.orientation)


class ImuSample(NamedTuple):
    t_ns: int
    gyro: tuple  # rad/s, body frame
    accel: tuple  # m/s^2, body frame, gravity-compensated


def _vec3(value, name: str) -> tuple:
    v = tuple(float(c) for c in value)
    if len(v) != 3:
        raise ValueError(f"{name} needs 3 components, got {len(v)}")
    return v


@dataclass(frozen=True)
class ImuModel:
    accel_bias: tuple = (0.0, 0.0, 0.0)
    gyro_bias: tuple = (0.0, 0.0, 0.0)
    accel_noise_std: float = 0.0
    gyro_noise_std: float = 0.0
    rate_hz: int = 200

    def __post_init__(self):
        object.__setattr__(self, "accel_bias", _vec3(self.accel_bias, "accel_bias"))
        object.__setattr__(self, "gyro_bias", _vec3(self.gyro_bias, "gyro_bias"))
        if not 1 <= self.rate_hz <= 1000:
            raise ValueError(f"imu rate_hz {self.rate_hz} out of [1, 1000]")


@dataclass(frozen=True)
class Sightings:
    """Landmarks seen in one frame: ascending ids and their (k, 2) pixels."""
    ids: np.ndarray
    pixels: np.ndarray

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class CameraFrame:
    frame_id: int
    t_ns: int
    visible_landmarks: Sightings
    size_bytes: int = 3 * 1024 * 1024


@dataclass(frozen=True)
class FeatureBlock:
    frame_id: int
    features: np.ndarray  # landmark ids, one per feature
    pixels: np.ndarray  # (len(features), 2)
    serialized_bytes: int


class WorldMap:
    """Map points of landmark ids 0..size-1; insert-only, so its size never
    decreases. `known` marks the ids inserted so far; `points` rows of
    unknown ids are meaningless. Points are allocated on the first insert."""

    def __init__(self, size: int):
        self.known = np.zeros(size, dtype=bool)
        self.points: np.ndarray | None = None

    def __len__(self):
        return int(np.count_nonzero(self.known))

    def point(self, landmark_id):
        if not self.known[landmark_id]:
            raise KeyError(landmark_id)
        return self.points[landmark_id]

    def insert(self, ids, points) -> None:
        """Store `points` (one row per id) for the distinct `ids` not yet in
        the map; known ids keep their points."""
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


# ---------------------------------------------------------------------------
# ground-truth trajectories

class StationaryTrajectory:
    """Agent at rest at a fixed point; zero true IMU signals."""

    def __init__(self, position=(0.0, 0.0, 0.0)):
        self._position = _vec3(position, "position")

    def pose_at(self, t_ns: int) -> Pose:
        return Pose(self._position, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))

    def gyro_body(self, t_ns: int) -> tuple:
        return (0.0, 0.0, 0.0)

    def accel_body(self, t_ns: int) -> tuple:
        return (0.0, 0.0, 0.0)


class CircleTrajectory:
    """Smooth closed loop: constant-speed horizontal circle, heading along
    the tangent. Twice continuously differentiable with analytic body-frame
    acceleration and angular velocity."""

    def __init__(self, radius_m: float = 5.0, period_s: float = 60.0):
        self.radius = float(radius_m)
        self.omega = 2.0 * math.pi / float(period_s)

    def _theta(self, t_ns: int) -> float:
        return self.omega * (t_ns / NS_PER_S)

    def pose_at(self, t_ns: int) -> Pose:
        th = self._theta(t_ns)
        r, w = self.radius, self.omega
        position = (r * math.cos(th), r * math.sin(th), 0.0)
        velocity = (-r * w * math.sin(th), r * w * math.cos(th), 0.0)
        yaw = th + math.pi / 2  # body +x points along the velocity
        return Pose(position, velocity, quat_from_yaw(yaw))

    def gyro_body(self, t_ns: int) -> tuple:
        return (0.0, 0.0, self.omega)

    def accel_body(self, t_ns: int) -> tuple:
        th = self._theta(t_ns)
        r, w = self.radius, self.omega
        ax, ay = -r * w * w * math.cos(th), -r * w * w * math.sin(th)
        yaw = th + math.pi / 2
        c, s = math.cos(-yaw), math.sin(-yaw)
        # Rz(-yaw) @ a_world; a_world has no vertical component
        return (c * ax - s * ay, s * ax + c * ay, 0.0)


# ---------------------------------------------------------------------------
# operations

def sample_imu(model: ImuModel, truth, t_ns: int, rng: np.random.Generator) -> ImuSample:
    """True analytic signal + bias + Gaussian noise (six scalars)."""
    gyro = _add(truth.gyro_body(t_ns), model.gyro_bias)
    accel = _add(truth.accel_body(t_ns), model.accel_bias)
    if model.gyro_noise_std > 0:
        gyro = _add(gyro, rng.normal(0.0, model.gyro_noise_std, 3).tolist())
    if model.accel_noise_std > 0:
        accel = _add(accel, rng.normal(0.0, model.accel_noise_std, 3).tolist())
    return ImuSample(t_ns, gyro, accel)


def propagate(pose: Pose, batch: list[ImuSample], from_t_ns: int,
              prev_sample: ImuSample | None = None) -> Pose:
    """Advance pose through an IMU batch by double integration.

    Trapezoidal rule for velocity and position, first-order quaternion
    exponential for orientation. `prev_sample` supplies the signal value at
    `from_t_ns`, which makes batched and sample-by-sample integration give
    bit-identical results (each interval is paired with the same endpoints
    either way); without it the first interval degrades to a rectangle rule.
    """
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
    for sample in batch:
        t_ns, gyro, accel = sample
        if t_ns <= prev_t:
            raise ValueError("IMU batch timestamps must be strictly increasing")
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


def feature_capacity(max_bytes: int = FEATURE_BLOCK_MAX_BYTES,
                     record_bytes: int = FEATURE_RECORD_BYTES,
                     header_bytes: int = FEATURE_BLOCK_HEADER_BYTES) -> int:
    return (max_bytes - header_bytes) // record_bytes


def extract_features(frame: CameraFrame, rng: np.random.Generator | None = None,
                     max_bytes: int = FEATURE_BLOCK_MAX_BYTES) -> FeatureBlock:
    """Synthetic stand-in for a real detector: one feature per visible
    landmark, capped so the serialized block fits a scratchpad bank. Over the
    cap, a sorted random subset is kept (the first `cap` without `rng`)."""
    cap = feature_capacity(max_bytes)
    ids, pixels = frame.visible_landmarks.ids, frame.visible_landmarks.pixels
    if len(ids) > cap:
        keep = (np.sort(rng.choice(len(ids), size=cap, replace=False))
                if rng is not None else slice(cap))
        ids, pixels = ids[keep], pixels[keep]
    size = FEATURE_BLOCK_HEADER_BYTES + FEATURE_RECORD_BYTES * len(ids)
    return FeatureBlock(frame_id=frame.frame_id, features=ids, pixels=pixels,
                        serialized_bytes=size)


def update_pose(pose: Pose, block: FeatureBlock, world_map: WorldMap, truth_pose: Pose,
                rng: np.random.Generator | None = None, gain: float = 0.8,
                obs_noise_std: float = 0.0, min_matches: int = 10) -> tuple[Pose, int]:
    """Correct drift against the map: if enough features match known
    landmarks, blend the pose toward a (noisy) observation of the truth pose
    with the configured gain. Returns (pose, matched feature count)."""
    matched = int(np.count_nonzero(world_map.known[block.features]))
    if matched < min_matches:
        return pose.copy(), matched
    est_p, est_v = truth_pose.position, truth_pose.velocity
    if obs_noise_std > 0 and rng is not None:
        est_p = _add(est_p, rng.normal(0.0, obs_noise_std, 3).tolist())
        est_v = _add(est_v, rng.normal(0.0, obs_noise_std, 3).tolist())
    corrected = Pose(
        position=tuple(c + gain * (e - c) for c, e in zip(pose.position, est_p)),
        velocity=tuple(c + gain * (e - c) for c, e in zip(pose.velocity, est_v)),
        orientation=quat_normalize(quat_slerp(pose.orientation, truth_pose.orientation, gain)),
    )
    return corrected, matched


def extend_map(world_map: WorldMap, block: FeatureBlock, landmark_points: np.ndarray,
               rng: np.random.Generator | None = None, noise_std: float = 0.0) -> int:
    """Insert unmatched landmarks at their true position (a row of
    `landmark_points`) perturbed by mapping noise; matched ids are left
    intact. Returns the number inserted."""
    ids = block.features[~world_map.known[block.features]]
    if not len(ids):
        return 0
    points = landmark_points[ids]
    if noise_std > 0 and rng is not None:
        points = points + rng.normal(0.0, noise_std, (len(ids), 3))
    world_map.insert(ids, points)
    return len(ids)


# ---------------------------------------------------------------------------
# synthetic world

def generate_landmarks(count: int, rng: np.random.Generator,
                       ring_radius_m: float = 8.0, height_spread_m: float = 2.0) -> np.ndarray:
    """Scatter landmarks on a cylinder around the trajectory loop; row i of
    the (count, 3) result is the position of landmark id i."""
    angles = rng.uniform(0.0, 2.0 * math.pi, count).tolist()
    radii = ring_radius_m + rng.uniform(-1.0, 1.0, count)
    heights = rng.uniform(-height_spread_m, height_spread_m, count)
    # libm's cos/sin, not numpy's vector kernels, which may round differently
    cos = np.fromiter(map(math.cos, angles), float, count)
    sin = np.fromiter(map(math.sin, angles), float, count)
    return np.column_stack((radii * cos, radii * sin, heights))


class LandmarkField:
    """Landmark truth positions with a vectorized visibility query."""

    def __init__(self, points: np.ndarray):
        self.points = points

    def visible(self, true_pose: Pose, max_range_m: float = 12.0,
                fov_deg: float = 100.0) -> Sightings:
        """Landmarks inside a forward field-of-view cone and range of the
        true pose, with a simple pinhole projection to pixels."""
        heading = np.array(quat_rotate(true_pose.orientation, (1.0, 0.0, 0.0)))
        cos_half = math.cos(math.radians(fov_deg) / 2.0)
        rel = self.points - true_pose.position
        dist = np.linalg.norm(rel, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            depth = (rel @ heading) / dist
        mask = (dist > 1e-6) & (dist <= max_range_m) & (depth >= cos_half)
        idx = np.nonzero(mask)[0]
        lateral = rel[idx] - np.outer(rel[idx] @ heading, heading)
        scale = np.maximum(depth[idx] * dist[idx], 1e-6)
        pixels = 300.0 * lateral[:, :2] / scale[:, None]
        return Sightings(idx, pixels)
