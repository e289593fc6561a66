"""Functional SLAM math executed inside the simulated pipeline.

Ground-truth trajectory synthesis, IMU sampling with bias/noise, pose
propagation by double integration, synthetic feature extraction, map-based
drift correction, and map extension. Everything here is a pure function over
explicit state so architectural stalls in the pipeline produce measurable
tracking error without hidden coupling.

Data layout. The IMU path's sequential loop (`integrate`) and the
trajectories work on Python floats: vectors are 3-tuples, quaternions are
4-tuples (w, x, y, z), and a `Pose` holds three such tuples. The feature path
is struct-of-arrays over the dense landmark ids 0..N-1: landmark truth is one
(N, 3) array with contiguous coordinates, a frame's visible landmarks and a
`FeatureBlock`'s features are ascending int id arrays, and a `WorldMap` is a
bool `known` mask plus an (N, 3) point array, so matching and map extension
are single masked gathers. Drift correction and mapping read only which
landmarks were seen, so no pixel is projected.

Numerics. Every sum, product and quotient is written term by term in the
order of the reference numpy formulation, so results are bit-identical to
it. Vector norms and quaternion dot products are the exception: numpy takes
them with its BLAS dot product, which may accumulate with fused multiply-adds
and so differs in the last bit from a Python sum of squares. These small
BLAS dots are left: `_dot` in `quat_slerp`; `_norm` in `quat_normalize`,
`quat_exp` and the position error of `Simulation._apply_update` (the
`np.linalg.norm` of a 1-D array is the square root of the same dot);
`_row_norms`'s stacked matmul in `imu_rows`, one dot per row; and the
normalization dot in `integrate`.

Visibility distance. `np.linalg.norm(rel, axis=1)` is the square root of
numpy's add-reduce of the squares over each row of 3. numpy adds fewer than 8
terms one after another, from the left, so the norm is
`sqrt((x*x + y*y) + z*z)`; summing the squared columns left to right gives
the same IEEE result while reading the coordinates as whole columns instead
of a strided reduce over a length-3 axis. `rel` itself is written by one
subtraction from the contiguous coordinate rows of the landmark array
(`generate_landmarks` stores them that way) into a C-order (N, 3) array per
pose: subtraction is exact per element, so only the gemv depends on the
layout, and it gets the C-order matrix it is specified on.

Block visibility. `VisibilityBlock(field, poses, max_range_m, fov_deg)`
classifies the landmarks once for all the poses; its `visible(i)` is
`field.visible(poses[i], max_range_m, fov_deg)`, bit for bit. The pipeline
makes one block per run of consecutive camera frames and asks it only for the
frames it accepts. A block is classified once, from its first pose: delta is
the largest distance of a pose from it and phi the largest angle of a heading
from its heading. For a landmark at distance r and angle theta from the
first pose, every pose sees it at a distance in [r - delta, r + delta] and
at an angle within theta +- (asin(delta / r) + phi), by the triangle
inequality for distances and for angles between directions; the asin bounds
how far the direction to the landmark turns, and needs r > 2 delta, so only
those landmarks are sorted by angle. Sure-out landmarks fail the range test
or the cone test for every pose, sure-in landmarks pass all three tests for
every pose, and the rest, including every landmark within about 2 delta of
the first pose, are edge landmarks. The classification is conservative:
distances are widened by the relative margin 1e-9, angles by 1e-9 rad, and
the cone's cosine by 2e-9, far above the ~1e-15 rounding error of the exact
formula and the 1e-9 by which a heading's norm may differ from 1 (the depths
scale with it). Angles are taken as atan2(|v x h|, v . h), accurate near 0
and pi too. numpy's arctan2 and arcsin, and libm's acos, may round
differently on another host; within the margins that moves no landmark
across a class it does not belong to, so no output bit. A block with a
non-finite position, a non-finite cone or a heading norm outside 1 +- 1e-9
makes every landmark an edge landmark: slower, still exact. Classifying
pays only for a compact block, whose middle and last poses lie within a
quarter of the range of its first pose and whose headings turn by at most a
quarter of the cone's half angle (`_SPREAD`); a wider block leaves most
landmarks on the edge. The pipeline alone checks that, before it makes a
block, by passing those three poses to `is_compact`, and the frames of a
block that is not compact call `visible` one by one.

The exact test (`_exact`) is the one visibility formula. It takes a stack of
poses and returns a (poses, landmarks) mask: `visible(pose)` runs it for one
pose on the whole landmark array, and a block runs it on its edge landmarks
only. The element-wise steps run on the flattened rel stack, and the depth
numerators come from one stacked matmul (poses, rows, 3) @ (poses, 3, 1),
which numpy evaluates as one gemv per pose: for one pose, the reference
formula's gemv of rel by the heading. A gemv on a subset of rows gives each
row the bits of the gemv on the whole array, whichever rows the subset
keeps, on the OpenBLAS kernels measured (SkylakeX, Haswell, Prescott). A
one-row product is the exception: numpy takes it as a BLAS dot, which may
differ in the last bit, so a lone edge landmark is tested with a second row.
A block with at most `_STACKED_ROWS` (pose, edge landmark) pairs tests all
its poses at once on its first query; a larger block tests each queried pose
alone, so a frame that is never queried costs nothing and no array grows
past one pose's test of the whole map. Each pose's ids are then the sure-in
landmarks plus the edge landmarks the exact test passes, in ascending order.
A block keeps the ids that any pose may see, which of them are sure-in,
where the edge landmarks sit among them and their coordinates, and, once it
has tested all its poses at once, one bool per pose and edge landmark; no id
array outlives its query.

Array-drawn IMU blocks. numpy's `rng.normal(0.0, std, 3)` returns
`0.0 + std * z` for three standard normals `z` taken one after another from
the generator. `draw_imu` draws the noise of n samples at once as
`rng.standard_normal((n, cols))` and forms `0.0 + std * z` from it: gyro noise
from the first 3 columns and accel noise from the last 3, with cols 6, or 3
when only one of the two stds is > 0 (no draw when both are 0). Row i then
holds exactly the six numbers, in the same draw order, that sample i taken
alone would draw, so the samples and the generator state after the block are
bit-identical to n single-sample calls. The true signals come from the
trajectory's `imu_signals` as (n, 3) arrays, the same operations as
`gyro_body` / `accel_body` done column-wise with libm's sin and cos, and
every component is summed column-wise as `(truth + bias) + noise`: each
element meets the same IEEE operations on the same operands as in the scalar
form. `draw_imu` returns the gyro and accel arrays; `sample_imu_block` makes
them `ImuSample`s with a single `.tolist()`, and `sample_imu` is the
1-sample block.

Two-half integration. `propagate` is `imu_rows` then `integrate`. An
interval's rotation increment, `quat_exp(0.5 * (h + g) * dt)` for gyro
samples h and g, depends on two consecutive samples and never on the
estimate, so `imu_rows` computes it for a block of samples at once with the
scalar operations element-wise: `g * dt` for a first interval without a
previous sample (the rectangle rule), the `angle < 1e-12` branch as a mask,
libm's sin and cos through `map`, and the angles from one stacked matmul
(n, 1, 3) @ (n, 3, 1), which numpy evaluates as the BLAS dot `_norm` calls,
once per row. `integrate` loops over the rows only, with `quat_multiply`,
`quat_normalize` and `quat_rotate` written out in the helpers' operand order
(including the `0.0` terms of the pure quaternion and the negated conjugate).
The normalization takes `_norm`'s BLAS dot on one scratch 4-vector per call,
whose components each row writes in place through a memoryview: the same
dot on the same four doubles, without a fresh array per row. The helpers
stay for their other callers and as the specification of both halves.

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
from .soc import FEATURE_BLOCK_HEADER_BYTES, FEATURE_RECORD_BYTES, MAX_CONVERTED, MIB, SocConfig

MAX_IMU_RATE_HZ = 1000
# A camera frame's size: 3 MiB by default, and never less in a scenario.
MIN_FRAME_BYTES = 3 * MIB
# ... and never more than the largest heap budget, MAX_CONVERTED MiB, so that
# the relay's allocation total in MiB stays finite.
MAX_FRAME_BYTES = int(MAX_CONVERTED) * MIB


# ---------------------------------------------------------------------------
# vector and quaternion helpers on float tuples; quaternions are (w, x, y, z)

def _dot(a, b) -> float:
    """Dot product as numpy's BLAS dot computes it (see the module notes)."""
    return float(np.array(a).dot(np.array(b)))


def _norm(v) -> float:
    """Euclidean norm as np.linalg.norm computes it: sqrt of a BLAS dot."""
    a = np.array(v)
    return math.sqrt(a.dot(a))


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
        if not 1 <= self.rate_hz <= MAX_IMU_RATE_HZ:
            raise ValueError(f"imu rate_hz {self.rate_hz} out of [1, {MAX_IMU_RATE_HZ}]")


@dataclass(frozen=True)
class CameraFrame:
    frame_id: int
    t_ns: int
    visible_landmarks: np.ndarray  # ascending landmark ids
    size_bytes: int = MIN_FRAME_BYTES


class FeatureBlock(NamedTuple):
    """One frame's extracted features: landmark ids, one per feature, and
    the block's serialized size in bytes."""
    frame_id: int
    features: np.ndarray
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
        if not np.isfinite(points).all():
            bad = ~np.isfinite(points).all(axis=1)
            raise ValueError(f"non-finite map point for landmark {int(ids[bad][0])}")
        new = ~self.known[ids]
        if self.points is None:
            self.points = np.empty((len(self.known), 3))
        if new.all():
            self.points[ids] = points
        else:
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

    def imu_signals(self, times_ns) -> tuple[np.ndarray, np.ndarray]:
        """`gyro_body` and `accel_body` at each time, as two (n, 3) arrays."""
        n = len(times_ns)
        return np.zeros((n, 3)), np.zeros((n, 3))


class CircleTrajectory:
    """Smooth closed loop: constant-speed horizontal circle, heading along
    the tangent. Twice continuously differentiable with analytic body-frame
    acceleration and angular velocity."""

    def __init__(self, radius_m: float, period_s: float):
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

    def imu_signals(self, times_ns) -> tuple[np.ndarray, np.ndarray]:
        """`gyro_body` and `accel_body` at each time, as two (n, 3) arrays
        with the same bits: the same operations column-wise, with libm's
        cos/sin, not numpy's vector kernels, which may round differently."""
        n = len(times_ns)
        r, w = self.radius, self.omega
        th = w * (np.asarray(times_ns, dtype=np.int64) / NS_PER_S)
        th_list, neg_yaw = th.tolist(), (-(th + math.pi / 2)).tolist()
        k = -r * w * w
        ax = k * np.fromiter(map(math.cos, th_list), float, n)
        ay = k * np.fromiter(map(math.sin, th_list), float, n)
        c = np.fromiter(map(math.cos, neg_yaw), float, n)
        s = np.fromiter(map(math.sin, neg_yaw), float, n)
        gyro, accel = np.zeros((n, 3)), np.zeros((n, 3))
        gyro[:, 2] = w
        accel[:, 0] = c * ax - s * ay
        accel[:, 1] = s * ax + c * ay
        return gyro, accel


# ---------------------------------------------------------------------------
# operations

def draw_imu(model: ImuModel, truth, times_ns, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """Gyro and accel of one IMU sample per time in `times_ns`, as two (n, 3)
    arrays: true analytic signal + bias + Gaussian noise, the whole block
    drawn as arrays (see the module notes)."""
    gyro_std, accel_std = model.gyro_noise_std, model.accel_noise_std
    gyro, accel = truth.imu_signals(times_ns)
    gyro += model.gyro_bias
    accel += model.accel_bias
    cols = 3 * ((gyro_std > 0) + (accel_std > 0))
    if cols:
        z = rng.standard_normal((len(times_ns), cols))
        if gyro_std > 0:
            gyro += 0.0 + gyro_std * z[:, :3]
        if accel_std > 0:
            accel += 0.0 + accel_std * z[:, cols - 3:]
    return gyro, accel


def sample_imu_block(model: ImuModel, truth, times_ns, rng: np.random.Generator
                     ) -> list[ImuSample]:
    """`draw_imu` as one `ImuSample` per time. Equal, value and draw for
    draw, to `sample_imu` at each time in turn."""
    rows = np.hstack(draw_imu(model, truth, times_ns, rng)).tolist()
    return [ImuSample(t_ns, (gx, gy, gz), (ax, ay, az))
            for t_ns, (gx, gy, gz, ax, ay, az) in zip(times_ns, rows)]


def sample_imu(model: ImuModel, truth, t_ns: int, rng: np.random.Generator) -> ImuSample:
    """True analytic signal + bias + Gaussian noise (six scalars)."""
    return sample_imu_block(model, truth, (t_ns,), rng)[0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The norm of each row of a C-order (n, 3) array as `_norm` takes it:
    the stacked product (n, 1, 3) @ (n, 3, 1) is one BLAS dot per row."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def imu_rows(times_ns, gyro: np.ndarray, accel: np.ndarray, from_t_ns: int,
             prev_gyro=None) -> list[list[float]]:
    """The state-free half of `propagate`: per sample, the row (dt, ew, ex,
    ey, ez, ax, ay, az) of the interval ending at it in seconds, the
    interval's rotation increment and the sample's body accel. `prev_gyro` is
    the gyro at `from_t_ns`; without it the first interval is a rectangle."""
    ticks = np.diff(np.asarray(times_ns, dtype=np.int64), prepend=from_t_ns)
    if (ticks <= 0).any():
        raise ValueError("IMU batch timestamps must be strictly increasing")
    dt = ticks / NS_PER_S
    mid = np.empty(gyro.shape)
    mid[0] = gyro[0] if prev_gyro is None else 0.5 * (prev_gyro + gyro[0])
    mid[1:] = 0.5 * (gyro[:-1] + gyro[1:])
    omega = mid * dt[:, None]
    angle = _row_norms(omega)
    half = (0.5 * angle).tolist()
    n = len(half)
    rows = np.empty((n, 8))
    rows[:, 0] = dt
    rows[:, 1] = np.fromiter(map(math.cos, half), float, n)
    with np.errstate(invalid="ignore", divide="ignore"):
        rows[:, 2:5] = np.fromiter(map(math.sin, half), float, n)[:, None] * (
            omega / angle[:, None])
    small = angle < 1e-12
    if small.any():
        rows[small, 1] = 1.0
        rows[small, 2:5] = 0.5 * omega[small]
    rows[:, 5:] = accel
    return rows.tolist()


def integrate(pose: Pose, rows, prev_accel=None) -> Pose:
    """The sequential half of `propagate`: advance `pose` through `imu_rows`
    rows. `prev_accel` is the body accel at the start, rotated with the
    pose's orientation; without it the first interval is a rectangle."""
    qw, qx, qy, qz = pose.orientation
    vx, vy, vz = pose.velocity
    px, py, pz = pose.position
    if prev_accel is not None:
        a0x, a0y, a0z = quat_rotate(pose.orientation, prev_accel)
    else:
        a0x = a0y = a0z = None
    # `_norm`'s BLAS dot on a scratch vector, written in place per row.
    buf = np.empty(4)
    fill, dot, sqrt = memoryview(buf), buf.dot, math.sqrt
    for dt, ew, ex, ey, ez, bx, by, bz in rows:
        # quat_multiply, then quat_normalize
        mw = qw * ew - qx * ex - qy * ey - qz * ez
        mx = qw * ex + qx * ew + qy * ez - qz * ey
        my = qw * ey - qx * ez + qy * ew + qz * ex
        mz = qw * ez + qx * ey - qy * ex + qz * ew
        fill[0] = mw
        fill[1] = mx
        fill[2] = my
        fill[3] = mz
        n = sqrt(dot(buf))
        qw, qx, qy, qz = mw / n, mx / n, my / n, mz / n
        # quat_rotate: (q * (0, accel)) * conj(q), vector part
        tw = qw * 0.0 - qx * bx - qy * by - qz * bz
        tx = qw * bx + qx * 0.0 + qy * bz - qz * by
        ty = qw * by - qx * bz + qy * 0.0 + qz * bx
        tz = qw * bz + qx * by - qy * bx + qz * 0.0
        cx, cy, cz = -qx, -qy, -qz
        ax = tw * cx + tx * qw + ty * cz - tz * cy
        ay = tw * cy - tx * cz + ty * qw + tz * cx
        az = tw * cz + tx * cy - ty * cx + tz * qw
        if a0x is None:
            a0x, a0y, a0z = ax, ay, az
        nvx = vx + 0.5 * (a0x + ax) * dt
        nvy = vy + 0.5 * (a0y + ay) * dt
        nvz = vz + 0.5 * (a0z + az) * dt
        px = px + 0.5 * (vx + nvx) * dt
        py = py + 0.5 * (vy + nvy) * dt
        pz = pz + 0.5 * (vz + nvz) * dt
        vx, vy, vz = nvx, nvy, nvz
        a0x, a0y, a0z = ax, ay, az
    return Pose((px, py, pz), (vx, vy, vz), (qw, qx, qy, qz))


def propagate(pose: Pose, batch: list[ImuSample], from_t_ns: int,
              prev_sample: ImuSample | None = None) -> Pose:
    """Advance pose through an IMU batch by double integration: `imu_rows`,
    then `integrate`. Trapezoidal rule for velocity and position, first-order
    quaternion exponential for orientation. `prev_sample` supplies the signal
    value at `from_t_ns`, which makes batched and sample-by-sample
    integration give bit-identical results (each interval is paired with the
    same endpoints either way); without it the first interval degrades to a
    rectangle rule."""
    if not batch:
        return pose.copy()
    times, gyro, accel = zip(*batch)
    prev_gyro, prev_accel = (None, None) if prev_sample is None else prev_sample[1:]
    rows = imu_rows(times, np.array(gyro, float), np.array(accel, float), from_t_ns,
                    prev_gyro)
    return integrate(pose, rows, prev_accel)


def feature_capacity(max_bytes: int = SocConfig().bank_capacity_bytes) -> int:
    return (max_bytes - FEATURE_BLOCK_HEADER_BYTES) // FEATURE_RECORD_BYTES


def extract_features(frame: CameraFrame, rng: np.random.Generator,
                     max_bytes: int = SocConfig().bank_capacity_bytes) -> FeatureBlock:
    """Synthetic stand-in for a real detector: one feature per visible
    landmark, capped so the serialized block fits a `max_bytes` bank. Over
    the cap, a sorted random subset is kept."""
    cap = feature_capacity(max_bytes)
    ids = frame.visible_landmarks
    if len(ids) > cap:
        ids = ids[np.sort(rng.choice(len(ids), size=cap, replace=False))]
    size = FEATURE_BLOCK_HEADER_BYTES + FEATURE_RECORD_BYTES * len(ids)
    return FeatureBlock(frame.frame_id, ids, size)


def update_pose(pose: Pose, block: FeatureBlock, world_map: WorldMap, truth_pose: Pose,
                rng: np.random.Generator, gain: float, obs_noise_std: float,
                min_matches: int) -> tuple[Pose, int]:
    """Correct drift against the map: if enough features match known
    landmarks, blend the pose toward a (noisy) observation of the truth pose
    with the configured gain. Returns (pose, matched feature count)."""
    matched = int(np.count_nonzero(world_map.known[block.features]))
    if matched < min_matches:
        return pose.copy(), matched
    (epx, epy, epz), (evx, evy, evz) = truth_pose.position, truth_pose.velocity
    if obs_noise_std > 0:
        # One draw of 6 gives the values, in order, of two draws of 3.
        npx, npy, npz, nvx, nvy, nvz = rng.normal(0.0, obs_noise_std, 6).tolist()
        epx, epy, epz = epx + npx, epy + npy, epz + npz
        evx, evy, evz = evx + nvx, evy + nvy, evz + nvz
    px, py, pz = pose.position
    vx, vy, vz = pose.velocity
    corrected = Pose(
        position=(px + gain * (epx - px), py + gain * (epy - py), pz + gain * (epz - pz)),
        velocity=(vx + gain * (evx - vx), vy + gain * (evy - vy), vz + gain * (evz - vz)),
        orientation=quat_normalize(quat_slerp(pose.orientation, truth_pose.orientation, gain)),
    )
    return corrected, matched


def extend_map(world_map: WorldMap, block: FeatureBlock, landmark_points: np.ndarray,
               rng: np.random.Generator, noise_std: float) -> int:
    """Insert unmatched landmarks at their true position (a row of
    `landmark_points`) perturbed by mapping noise; matched ids are left
    intact. Returns the number inserted."""
    ids = block.features[~world_map.known[block.features]]
    if not len(ids):
        return 0
    points = landmark_points[ids]
    if noise_std > 0:
        points += rng.normal(0.0, noise_std, (len(ids), 3))
    world_map.insert(ids, points)
    return len(ids)


# ---------------------------------------------------------------------------
# synthetic world

# Landmarks lie within 1 m of a ring of this radius (m) around the trajectory
# loop's centre, and at most this far (m) above or below its plane.
_RING_RADIUS_M = 8.0
_HEIGHT_SPREAD_M = 2.0


def generate_landmarks(count: int, rng: np.random.Generator) -> np.ndarray:
    """Scatter landmarks on a cylinder around the trajectory loop; row i of
    the (count, 3) result is the position of landmark id i. The result is
    the transpose of a (3, count) array, so each coordinate is contiguous."""
    angles = rng.uniform(0.0, 2.0 * math.pi, count).tolist()
    radii = _RING_RADIUS_M + rng.uniform(-1.0, 1.0, count)
    heights = rng.uniform(-_HEIGHT_SPREAD_M, _HEIGHT_SPREAD_M, count)
    # libm's cos/sin, not numpy's vector kernels, which may round differently
    cos = np.fromiter(map(math.cos, angles), float, count)
    sin = np.fromiter(map(math.sin, angles), float, count)
    return np.stack((radii * cos, radii * sin, heights)).T


# The block classification's margin (see the module notes): distances are
# widened by this fraction, angles by this many radians and cosines by twice
# it; a heading whose norm is further than this from 1 sends every landmark
# to the exact test.
_MARGIN = 1e-9
# A block of poses tests its edge landmarks for all poses at once when it has
# at most this many (pose, edge landmark) pairs, else one queried pose at a
# time (see the module notes). Measured on blocks of 32 poses: up to about
# this size testing all poses at once costs less per queried pose, even
# with only half the poses queried; past it the arrays outgrow the cache.
_STACKED_ROWS = 1 << 14
# The classification sorts the landmarks in chunks of this many, which keeps
# its temporary arrays below those of one pose's exact test on the whole
# array.
_CLASSIFY_ROWS = 1 << 16
# The pipeline makes a block only if its middle and last poses lie within
# this share of the range of its first pose, and their headings within this
# share of the cone's half angle of its first heading (`is_compact`); with a
# larger spread most landmarks would be edge landmarks.
_SPREAD = 0.25


def _angles_to(x, y, z, h) -> np.ndarray:
    """The angle between each vector (x, y, z) and the unit vector h, as
    atan2(|v x h|, v . h), which is accurate near 0 and pi as well."""
    hx, hy, hz = h
    cx, cy, cz = y * hz - z * hy, z * hx - x * hz, x * hy - y * hx
    return np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), x * hx + y * hy + z * hz)


class LandmarkField:
    """Landmark truth positions with a vectorized visibility query."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self._columns = np.ascontiguousarray(points.T)  # x, y, z rows

    def visible(self, true_pose: Pose, max_range_m: float, fov_deg: float) -> np.ndarray:
        """Ascending ids of the landmarks inside a forward field-of-view cone
        and range of the true pose."""
        heading = np.array([quat_rotate(true_pose.orientation, (1.0, 0.0, 0.0))])
        return np.flatnonzero(_exact(self._columns, np.array([true_pose.position]), heading,
                                     max_range_m, math.cos(math.radians(fov_deg) / 2.0))[0])

    def _classify(self, positions, heads, max_range_m, cos_half):
        """Two bool masks over the landmarks for a block of poses: those that
        every pose sees (sure-in), and the edge landmarks, which the exact
        test decides; no pose sees the rest (sure-out). If a pose or the cone
        fails the preconditions, every landmark is an edge landmark."""
        n = len(self.points)
        norms = np.sqrt((heads * heads).sum(axis=1))
        if not (np.isfinite(positions).all() and math.isfinite(cos_half)
                and (np.abs(norms - 1.0) <= _MARGIN).all()):
            return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        # The block's spread around its first pose: delta (m) and phi (rad).
        off = positions - positions[0]
        delta = float(np.sqrt((off * off).sum(axis=1)).max()) * (1.0 + _MARGIN)
        units = heads / norms[:, None]
        phi = float(_angles_to(*units.T, units[0]).max()) + _MARGIN
        half_in = math.acos(min(1.0, cos_half + 2.0 * _MARGIN)) - _MARGIN
        half_out = math.acos(max(-1.0, cos_half - 2.0 * _MARGIN)) + _MARGIN
        sure_in, sure_out = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        for first in range(0, n, _CLASSIFY_ROWS):
            part = slice(first, first + _CLASSIFY_ROWS)
            sure_in[part], sure_out[part] = _sort(
                self._columns[:, part] - positions[0][:, None], units[0], delta, phi,
                max_range_m, half_in, half_out)
        return sure_in, ~(sure_in | sure_out)


def _sort(rel, head, delta, phi, max_range_m, half_in, half_out):
    """The sure-in and the sure-out masks of the landmarks at `rel` (x, y, z
    rows) from a block's first pose, with unit heading `head`."""
    x, y, z = rel
    r0 = np.sqrt(x * x + y * y + z * z)
    r_lo = r0 * (1.0 - _MARGIN)
    sure_out = r_lo - delta > max_range_m
    sure_in = np.zeros(len(r0), dtype=bool)
    # Only a landmark farther than 2 delta, which no pose comes within 1e-6 m
    # of, can be sorted by its angle: the direction to it turns by at most
    # asin(delta / r) between two poses.
    at = np.flatnonzero((r_lo > 2.0 * delta + 2e-6) & ~sure_out)
    r_lo = r_lo[at]
    theta = _angles_to(x[at], y[at], z[at], head)
    spread = np.arcsin(np.minimum(1.0, delta / r_lo)) + phi
    sure_in[at] = (r0[at] * (1.0 + _MARGIN) + delta <= max_range_m) \
        & (theta + spread <= half_in)
    sure_out[at] = theta - spread >= half_out
    return sure_in, sure_out


def is_compact(first: Pose, middle: Pose, last: Pose, max_range_m: float,
               fov_deg: float) -> bool:
    """Whether a block of poses looks compact enough to classify, judged
    cheaply from its first, middle and last poses (see _SPREAD). The
    pipeline asks before it makes a block; `VisibilityBlock` does not."""
    (p0, h0), *rest = [(p.position, quat_rotate(p.orientation, (1.0, 0.0, 0.0)))
                       for p in (first, middle, last)]
    cos_half = math.cos(math.radians(fov_deg) / 2.0)
    cos_turn = math.cos(_SPREAD * math.acos(max(-1.0, min(1.0, cos_half))))
    for p, h in rest:
        dot = h[0] * h0[0] + h[1] * h0[1] + h[2] * h0[2]
        if math.dist(p, p0) > _SPREAD * max_range_m or \
                dot < cos_turn * math.hypot(*h) * math.hypot(*h0):
            return False
    return True


class VisibilityBlock:
    """A block of poses with its landmarks classified once: `visible(i)` is
    the ascending ids `field.visible(poses[i], max_range_m, fov_deg)`
    returns. A block with at most _STACKED_ROWS (pose, edge landmark) pairs
    runs the exact test for all its poses at once, on the first query; a
    larger block runs it for the queried pose alone."""

    __slots__ = ("positions", "heads", "max_range_m", "cos_half", "ids", "columns",
                 "seen", "at", "passed")

    def __init__(self, field: LandmarkField, poses, max_range_m: float, fov_deg: float):
        self.positions = np.array([p.position for p in poses], dtype=float)
        self.heads = np.array([quat_rotate(p.orientation, (1.0, 0.0, 0.0)) for p in poses],
                              dtype=float).reshape(-1, 3)
        self.max_range_m = max_range_m
        self.cos_half = cos_half = math.cos(math.radians(fov_deg) / 2.0)
        sure_in, edge = field._classify(self.positions, self.heads, max_range_m, cos_half)
        if np.count_nonzero(edge) == 1:
            # numpy takes a one-row product as a BLAS dot, not as the gemv
            # of the whole array; a second row keeps the gemv.
            edge[:2] = True
        # The ascending ids any pose may see (sure-in or edge), which of them
        # are sure-in, where the edge landmarks sit among them, and their
        # coordinates, the exact test's columns.
        self.ids = np.flatnonzero(sure_in | edge)
        self.seen = sure_in[self.ids]
        self.at = np.flatnonzero(edge[self.ids])
        self.columns = field._columns[:, self.ids[self.at]]
        self.passed = None  # the exact test of every pose, once computed

    def visible(self, i: int) -> np.ndarray:
        if self.passed is None and \
                len(self.positions) * self.columns.shape[1] <= _STACKED_ROWS:
            self.passed = _exact(self.columns, self.positions, self.heads,
                                 self.max_range_m, self.cos_half)
        passed = self.passed[i] if self.passed is not None else _exact(
            self.columns, self.positions[i:i + 1], self.heads[i:i + 1], self.max_range_m,
            self.cos_half)[0]
        seen = self.seen.copy()
        seen[self.at] = passed
        return self.ids[seen]


def _exact(columns, positions, heads, max_range_m, cos_half) -> np.ndarray:
    """The visibility formula (see the module notes): which of the landmarks
    at `columns` (x, y, z rows) each pose sees, as a (poses, landmarks) mask.
    rel = points - position is written in C order per pose, the layout of
    the gemv, from the coordinate rows; the distance sums the squared columns
    left to right, and the stacked matmul is one gemv per pose."""
    shape = (len(positions), columns.shape[1])
    rel = np.empty(shape + (3,))
    np.subtract(columns, positions[:, :, None], out=rel.transpose(0, 2, 1))
    x, y, z = rel.reshape(-1, 3).T
    dist = x * x
    dist += y * y
    dist += z * z
    np.sqrt(dist, out=dist)
    with np.errstate(invalid="ignore", divide="ignore"):
        depth = np.matmul(rel, heads[:, :, None]).reshape(-1) / dist
    return ((dist > 1e-6) & (dist <= max_range_m) & (depth >= cos_half)).reshape(shape)
