"""The kernel's numerics written once, per sample, per landmark and per
feature, on Python floats, tuples, lists and sets (a map is the set of its
landmark ids), in the operand order the `slamsim.kernel` module notes
promise, and the report's per-task aggregates written once, per element, in
the order `slamsim.report` promises. The kernel's fast paths and the
report's whole-array passes are tested against it bit for bit, draw for
draw. It takes only types and constants from `slamsim`, no kernel function.
The trace audit is written once too, as one loop over record dicts on
mutable state; `audit_trace`'s step function, on dicts and on a `Trace`'s
columns, is tested against it violation for violation.

BLAS is reached through two helpers only, `norm` and `depths`: the last bit
of numpy's BLAS dot and gemv depends on the OpenBLAS kernel, and writing
those reductions term by term changes the reference there and nowhere else.
Every other sum, product and quotient is plain float arithmetic.
"""

import math

import numpy as np

from slamsim.engine import NS_PER_MS, NS_PER_S
from slamsim.kernel import ImuSample, Pose
from slamsim.soc import FEATURE_BLOCK_HEADER_BYTES, FEATURE_RECORD_BYTES


# ---------------------------------------------------------------------------
# the two BLAS helpers

def norm(v) -> float:
    """The Euclidean norm as `np.linalg.norm` takes it for a 1-D array, the
    square root of a BLAS dot of a fresh array: every norm's one BLAS call."""
    a = np.array(v, dtype=float)
    return math.sqrt(a.dot(a))


def depths(rows, vector) -> list:
    """`rows @ vector` on the C-order array of `rows`, as numpy takes it: one
    gemv of the whole array, or a BLAS dot for one row (slerp's dot)."""
    return (np.array(rows, dtype=float).reshape(-1, len(vector))
            @ np.array(vector, dtype=float)).tolist()


# ---------------------------------------------------------------------------
# vectors and quaternions (w, x, y, z)

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _normalize(q):
    n = norm(q)
    return tuple(c / n for c in q)


def _rotate(q, v):
    """v turned from body to world frame: the vector part of q (0, v) q*."""
    conj = (q[0], -q[1], -q[2], -q[3])
    return _multiply(_multiply(q, (0.0, v[0], v[1], v[2])), conj)[1:]


def _exp(omega_dt):
    angle = norm(omega_dt)
    if angle < 1e-12:
        return (1.0,) + tuple(0.5 * c for c in omega_dt)
    half = 0.5 * angle
    s = math.sin(half)
    return (math.cos(half),) + tuple(s * (c / angle) for c in omega_dt)


def _slerp(a, b, t):
    dot = depths([a], b)[0]
    if dot < 0.0:
        b, dot = tuple(-c for c in b), -dot
    if dot > 0.9995:
        return _normalize(tuple(ac + t * (bc - ac) for ac, bc in zip(a, b)))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    wa, wb = math.sin((1 - t) * theta) / s, math.sin(t * theta) / s
    return tuple(wa * ac + wb * bc for ac, bc in zip(a, b))


# ---------------------------------------------------------------------------
# the IMU path

def sample_imu(model, truth, t_ns, rng) -> ImuSample:
    """One sample: (truth + bias) + noise per component. The noise is
    `rng.normal(0.0, std, 3)`, drawn for gyro, then for accel, each only if
    its std is > 0."""
    gyro = _add(truth.gyro_body(t_ns), model.gyro_bias)
    accel = _add(truth.accel_body(t_ns), model.accel_bias)
    if model.gyro_noise_std > 0:
        gyro = _add(gyro, rng.normal(0.0, model.gyro_noise_std, 3).tolist())
    if model.accel_noise_std > 0:
        accel = _add(accel, rng.normal(0.0, model.accel_noise_std, 3).tolist())
    return ImuSample(t_ns, gyro, accel)


def propagate(pose, batch, from_t_ns, prev_sample=None) -> Pose:
    """Integrate `batch` sample by sample from `pose` at `from_t_ns`: the
    orientation by the exponential of the mean gyro of each interval, the
    velocity and position by the trapezoidal rule on the world-frame accel.
    Without `prev_sample` the first interval is a rectangle."""
    p, v, q = pose.position, pose.velocity, pose.orientation
    prev_t, prev_gyro, prev_accel = from_t_ns, None, None
    if prev_sample is not None:
        prev_gyro, prev_accel = prev_sample.gyro, _rotate(q, prev_sample.accel)
    for t_ns, gyro, accel in batch:
        dt = (t_ns - prev_t) / NS_PER_S
        mid = gyro if prev_gyro is None else tuple(0.5 * (h + g)
                                                   for h, g in zip(prev_gyro, gyro))
        q = _normalize(_multiply(q, _exp(tuple(c * dt for c in mid))))
        a = _rotate(q, accel)
        a0 = a if prev_accel is None else prev_accel
        nv = tuple(vc + 0.5 * (a0c + ac) * dt for vc, a0c, ac in zip(v, a0, a))
        p = tuple(pc + 0.5 * (vc + nvc) * dt for pc, vc, nvc in zip(p, v, nv))
        v, prev_t, prev_gyro, prev_accel = nv, t_ns, gyro, a
    return Pose(p, v, q)


# ---------------------------------------------------------------------------
# the feature path

def generate_landmarks(count, rng) -> list:
    """Landmark positions on the cylinder of radius 8 +- 1 m and height
    +-2 m: angles, radius offsets and heights are drawn in that order."""
    angles = rng.uniform(0.0, 2.0 * math.pi, count).tolist()
    offsets = rng.uniform(-1.0, 1.0, count).tolist()
    heights = rng.uniform(-2.0, 2.0, count).tolist()
    return [((8.0 + r) * math.cos(a), (8.0 + r) * math.sin(a), h)
            for a, r, h in zip(angles, offsets, heights)]


def visible(points, pose, max_range_m, fov_deg) -> list:
    """Ascending ids of the landmarks at `points` farther than 1e-6 m, within
    the range and inside the forward cone of `pose`. The distance is
    sqrt((x*x + y*y) + z*z); the depth numerators are `depths` of the whole
    rel array by the heading."""
    heading = _rotate(pose.orientation, (1.0, 0.0, 0.0))
    cos_half = math.cos(math.radians(fov_deg) / 2.0)
    px, py, pz = pose.position
    rel = [(x - px, y - py, z - pz) for x, y, z in np.asarray(points).tolist()]
    ids = []
    for i, ((x, y, z), num) in enumerate(zip(rel, depths(rel, heading))):
        dist = math.sqrt((x * x + y * y) + z * z)
        if 1e-6 < dist <= max_range_m and num / dist >= cos_half:
            ids.append(i)
    return ids


def extract_features(ids, rng, max_bytes) -> tuple:
    """One feature per visible id, as many as a block of `max_bytes` holds:
    over that cap, the ids at the sorted positions of one `rng.choice`.
    Returns the features and the block's serialized bytes."""
    ids = list(ids)
    cap = (max_bytes - FEATURE_BLOCK_HEADER_BYTES) // FEATURE_RECORD_BYTES
    if len(ids) > cap:
        ids = [ids[i] for i in sorted(rng.choice(len(ids), size=cap, replace=False).tolist())]
    return ids, FEATURE_BLOCK_HEADER_BYTES + FEATURE_RECORD_BYTES * len(ids)


def update_pose(pose, features, world_map, truth_pose, rng, gain, obs_noise_std,
                min_matches) -> tuple:
    """With at least `min_matches` features in the map, blend each component
    c toward the truth's e, noised by one draw of 3 for the position and one
    for the velocity, as c + gain * (e - c), and slerp the orientation.
    Returns (pose, matched feature count)."""
    matched = sum(1 for i in features if i in world_map)
    if matched < min_matches:
        return Pose(pose.position, pose.velocity, pose.orientation), matched
    est_p, est_v = truth_pose.position, truth_pose.velocity
    if obs_noise_std > 0:
        est_p = _add(est_p, rng.normal(0.0, obs_noise_std, 3).tolist())
        est_v = _add(est_v, rng.normal(0.0, obs_noise_std, 3).tolist())
    return Pose(tuple(c + gain * (e - c) for c, e in zip(pose.position, est_p)),
                tuple(c + gain * (e - c) for c, e in zip(pose.velocity, est_v)),
                _normalize(_slerp(pose.orientation, truth_pose.orientation, gain))), matched


def extend_map(world_map, features) -> int:
    """Add to the map (a set of landmark ids) each feature not yet in it.
    Returns the number of features that were not in the map before the
    call."""
    new = [i for i in features if i not in world_map]
    world_map.update(new)
    return len(new)


# ---------------------------------------------------------------------------
# report aggregates, one element at a time

def stage_mean_ms(durations_ns) -> float:
    """Each integer duration in ms, added one after another from 0.0, over
    the count."""
    total = 0.0
    for d in durations_ns:
        total += d / NS_PER_MS
    return total / len(durations_ns)


def stage_p99_ms(durations_ns) -> float:
    """The nearest-rank 99th percentile of the integer durations, in ms."""
    xs = sorted(durations_ns)
    k = min(len(xs) - 1, max(0, math.ceil(0.99 * len(xs)) - 1))
    return xs[k] / NS_PER_MS


def rms(values) -> float:
    """The root of the squares added one after another, over the count; 0.0
    for none."""
    if not values:
        return 0.0
    total = 0.0
    for e in values:
        total += e * e
    return math.sqrt(total / len(values))


def tracking_loss_count(completions_ns, threshold_ns) -> int:
    """Gaps between consecutive completions longer than the threshold, the
    first measured from t = 0."""
    count, last = 0, 0
    for t in completions_ns:
        count += t - last > threshold_ns
        last = t
    return count


# ---------------------------------------------------------------------------
# the trace audit

def audit_violations(records) -> list:
    """The bank-protocol and time-order violations of a list of record
    dicts, in record order, each a dict of the record's `t_ns`, the rule and
    the message."""
    EMPTY, FILLING, FULL, LOCKED = "empty", "filling", "full", "locked"
    CONSUMERS = ("update", "mapping")
    state = {0: EMPTY, 1: EMPTY}
    register = None
    consumers_pending: dict[int, set] = {}
    consuming: dict[int, set] = {0: set(), 1: set()}
    violations = []
    last_t = None

    def violate(rec, rule, msg):
        violations.append({"t_ns": rec.get("t_ns"), "rule": rule, "message": msg})

    for rec in records:
        t = rec.get("t_ns")
        if last_t is not None and t is not None and t < last_t:
            violate(rec, "time-ordered", f"trace goes backwards at t={t}")
        if t is not None:
            last_t = t
        if rec.get("entity") != "bank":
            continue
        tr = rec.get("transition")
        bank = rec.get("bank")
        if type(bank) is not int or bank not in state:
            violate(rec, "malformed-record", f"{tr} record names no bank 0 or 1: {bank!r}")
            continue
        if tr == "FillStart":
            if state[bank] != EMPTY:
                violate(rec, "fill-on-empty", f"fill into bank {bank} in state {state[bank]}")
            if FILLING in state.values():
                violate(rec, "single-filler", "two banks filling simultaneously")
            if consuming[bank]:
                violate(rec, "mutual-exclusion", f"fill into bank {bank} while being consumed")
            state[bank] = FILLING
        elif tr == "BankFilled":
            if state[bank] != FILLING:
                violate(rec, "fill-complete", f"bank {bank} filled from state {state[bank]}")
            state[bank] = FULL
        elif tr == "RegisterSet":
            if state[bank] != FULL:
                violate(rec, "register-coherence",
                        f"register set to non-full bank {bank} ({state[bank]})")
            register = bank
        elif tr == "RegisterCleared":
            register = None
        elif tr == "BankLocked":
            if state[bank] != FULL:
                violate(rec, "lock-full-only", f"bank {bank} locked from state {state[bank]}")
            if register != bank:
                violate(rec, "lock-registered-only",
                        f"bank {bank} locked but register holds {register}")
            state[bank] = LOCKED
            consumers_pending[bank] = set(CONSUMERS)
        elif tr == "ConsumeStart" or tr == "ConsumeDone":
            consumer = rec.get("consumer")
            if consumer not in CONSUMERS:
                violate(rec, "malformed-record",
                        f"{tr} record names no consumer {' or '.join(CONSUMERS)}: {consumer!r}")
            elif tr == "ConsumeStart":
                if state[bank] != LOCKED:
                    violate(rec, "consume-locked-only",
                            f"consume of bank {bank} in state {state[bank]}")
                consuming[bank].add(consumer)
            else:
                pending = consumers_pending.get(bank, set())
                if consumer not in pending:
                    violate(rec, "exactly-once", f"{consumer} consumed bank {bank} twice")
                pending.discard(consumer)
                consuming[bank].discard(consumer)
        elif tr == "BankReleased":
            if state[bank] != LOCKED:
                violate(rec, "release-locked-only",
                        f"release of bank {bank} in state {state[bank]}")
            if consumers_pending.get(bank):
                violate(rec, "release-after-consumers",
                        f"release of bank {bank} with pending {sorted(consumers_pending[bank])}")
            state[bank] = EMPTY
            consumers_pending.pop(bank, None)
        elif tr == "InterruptRaised":
            if state[bank] != FULL:
                violate(rec, "interrupt-on-full",
                        f"interrupt for bank {bank} in state {state[bank]}")
    return violations
