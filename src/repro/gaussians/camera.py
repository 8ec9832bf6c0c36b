"""Camera model: pinhole intrinsics and SE(3) poses.

Poses follow the world-to-camera convention used by SplaTAM: a point in
world coordinates ``p_w`` maps to camera coordinates via

    p_c = R @ p_w + t

where ``R`` is a rotation matrix (stored as a unit quaternion) and ``t``
is a translation vector.  Tracking optimizes ``(q, t)`` directly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "Intrinsics",
    "Pose",
    "Camera",
    "quat_to_rotmat",
    "rotmat_to_quat",
    "quat_multiply",
    "quat_normalize",
    "so3_exp",
    "se3_exp",
]


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return a unit quaternion with the same orientation as ``q``.

    The quaternion is stored as ``(w, x, y, z)``.  A zero quaternion is
    mapped to the identity rotation.
    """
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q)
    if norm < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return q / norm


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Convert a quaternion ``(w, x, y, z)`` to a 3x3 rotation matrix."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotmat_to_quat(rot: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a quaternion ``(w, x, y, z)``."""
    rot = np.asarray(rot, dtype=np.float64)
    trace = np.trace(rot)
    if trace > 0:
        s = math.sqrt(trace + 1.0) * 2.0
        w = 0.25 * s
        x = (rot[2, 1] - rot[1, 2]) / s
        y = (rot[0, 2] - rot[2, 0]) / s
        z = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] > rot[1, 1] and rot[0, 0] > rot[2, 2]:
        s = math.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
        w = (rot[2, 1] - rot[1, 2]) / s
        x = 0.25 * s
        y = (rot[0, 1] + rot[1, 0]) / s
        z = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] > rot[2, 2]:
        s = math.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0
        w = (rot[0, 2] - rot[2, 0]) / s
        x = (rot[0, 1] + rot[1, 0]) / s
        y = 0.25 * s
        z = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = math.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0
        w = (rot[1, 0] - rot[0, 1]) / s
        x = (rot[0, 2] + rot[2, 0]) / s
        y = (rot[1, 2] + rot[2, 1]) / s
        z = 0.25 * s
    return quat_normalize(np.array([w, x, y, z]))


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of two ``(w, x, y, z)`` quaternions."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Exponential map from an axis-angle vector to a rotation matrix."""
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        return np.eye(3) + skew(omega)
    axis = omega / theta
    k = skew(axis)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def se3_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map of a 6-vector ``(rho, omega)`` to ``(R, t)``.

    Uses the first-order approximation for the translation part, which is
    sufficient for the small incremental updates used during tracking.
    """
    xi = np.asarray(xi, dtype=np.float64)
    rho, omega = xi[:3], xi[3:]
    rot = so3_exp(omega)
    return rot, rho.copy()


def skew(v: np.ndarray) -> np.ndarray:
    """Return the skew-symmetric (cross-product) matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclasses.dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera intrinsics.

    Attributes:
        fx, fy: focal lengths in pixels.
        cx, cy: principal point in pixels.
        width, height: image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    @classmethod
    def from_fov(cls, width: int, height: int, fov_x_deg: float = 60.0) -> "Intrinsics":
        """Build intrinsics from a horizontal field of view."""
        fov_x = math.radians(fov_x_deg)
        fx = (width / 2.0) / math.tan(fov_x / 2.0)
        fy = fx
        return cls(fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0, width=width, height=height)

    def as_matrix(self) -> np.ndarray:
        """Return the 3x3 calibration matrix ``K``."""
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def scaled(self, factor: float) -> "Intrinsics":
        """Return intrinsics for an image resized by ``factor``."""
        return Intrinsics(
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            width=int(round(self.width * factor)),
            height=int(round(self.height * factor)),
        )


@dataclasses.dataclass
class Pose:
    """World-to-camera SE(3) transform stored as quaternion + translation."""

    quat: np.ndarray
    trans: np.ndarray

    def __post_init__(self) -> None:
        self.quat = quat_normalize(np.asarray(self.quat, dtype=np.float64))
        self.trans = np.asarray(self.trans, dtype=np.float64).copy()

    @classmethod
    def identity(cls) -> "Pose":
        """Return the identity pose."""
        return cls(quat=np.array([1.0, 0.0, 0.0, 0.0]), trans=np.zeros(3))

    def as_vector(self) -> np.ndarray:
        """Pack the pose as a flat ``[quat(4), trans(3)]`` vector (checkpoints)."""
        return np.concatenate([self.quat, self.trans])

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "Pose":
        """Restore a pose packed by :meth:`as_vector` bit-exactly.

        ``__post_init__`` re-normalizes the quaternion, which can perturb
        the last ulp of an already-normalized quaternion; checkpoints must
        restore the stored bits exactly, so the normalization is undone by
        re-assigning the raw stored values.
        """
        vector = np.asarray(vector, dtype=np.float64)
        pose = cls(quat=vector[:4], trans=vector[4:7])
        pose.quat = vector[:4].copy()
        return pose

    @classmethod
    def look_at(cls, eye: np.ndarray, target: np.ndarray, up: np.ndarray | None = None) -> "Pose":
        """Build a world-to-camera pose for a camera at ``eye`` looking at ``target``.

        The camera convention is +z forward, +x right, +y down (OpenCV).
        """
        eye = np.asarray(eye, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if up is None:
            up = np.array([0.0, 0.0, 1.0])
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm < 1e-12:
            forward = np.array([1.0, 0.0, 0.0])
        else:
            forward = forward / norm
        right = np.cross(forward, up)
        if np.linalg.norm(right) < 1e-8:
            right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
        right = right / np.linalg.norm(right)
        down = np.cross(forward, right)
        down = down / np.linalg.norm(down)
        # Rows of R are the camera axes expressed in world coordinates.
        rot = np.stack([right, down, forward], axis=0)
        trans = -rot @ eye
        return cls(quat=rotmat_to_quat(rot), trans=trans)

    @property
    def rotation(self) -> np.ndarray:
        """Return the 3x3 rotation matrix of the world-to-camera transform."""
        return quat_to_rotmat(self.quat)

    def as_matrix(self) -> np.ndarray:
        """Return the 4x4 world-to-camera matrix."""
        matrix = np.eye(4)
        matrix[:3, :3] = self.rotation
        matrix[:3, 3] = self.trans
        return matrix

    @property
    def camera_center(self) -> np.ndarray:
        """Return the camera origin in world coordinates."""
        return -self.rotation.T @ self.trans

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Transform Nx3 world points into camera coordinates."""
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.trans

    def copy(self) -> "Pose":
        """Return a deep copy of the pose."""
        return Pose(quat=self.quat.copy(), trans=self.trans.copy())

    def compose(self, other: "Pose") -> "Pose":
        """Return ``self @ other`` as world-to-camera transforms."""
        rot = self.rotation @ other.rotation
        trans = self.rotation @ other.trans + self.trans
        return Pose(quat=rotmat_to_quat(rot), trans=trans)

    def relative_to(self, other: "Pose") -> "Pose":
        """Return the relative transform mapping ``other``'s frame to ``self``'s."""
        rot = self.rotation @ other.rotation.T
        trans = self.trans - rot @ other.trans
        return Pose(quat=rotmat_to_quat(rot), trans=trans)

    def perturbed(self, delta: np.ndarray) -> "Pose":
        """Return the pose left-perturbed by a 6-vector ``(rho, omega)``."""
        delta_rot, delta_trans = se3_exp(np.asarray(delta, dtype=np.float64))
        rot = delta_rot @ self.rotation
        trans = delta_rot @ self.trans + delta_trans
        return Pose(quat=rotmat_to_quat(rot), trans=trans)

    def rotation_angle_to(self, other: "Pose") -> float:
        """Return the rotation angle (radians) between two poses."""
        rel = self.rotation @ other.rotation.T
        cos_angle = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
        return float(np.arccos(cos_angle))

    def translation_distance_to(self, other: "Pose") -> float:
        """Return the Euclidean distance between the two camera centers."""
        return float(np.linalg.norm(self.camera_center - other.camera_center))


@dataclasses.dataclass
class Camera:
    """A camera view: intrinsics plus a world-to-camera pose."""

    intrinsics: Intrinsics
    pose: Pose

    @property
    def width(self) -> int:
        return self.intrinsics.width

    @property
    def height(self) -> int:
        return self.intrinsics.height

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project Nx3 world points.

        Returns:
            A tuple ``(pixels, depths)`` where ``pixels`` is Nx2 and
            ``depths`` is the camera-space z of every point.
        """
        cam_points = self.pose.transform(points)
        depths = cam_points[:, 2]
        safe_depth = np.where(np.abs(depths) < 1e-8, 1e-8, depths)
        intr = self.intrinsics
        u = intr.fx * cam_points[:, 0] / safe_depth + intr.cx
        v = intr.fy * cam_points[:, 1] / safe_depth + intr.cy
        return np.stack([u, v], axis=1), depths

    def copy(self) -> "Camera":
        """Return a deep copy of the camera."""
        return Camera(intrinsics=self.intrinsics, pose=self.pose.copy())
