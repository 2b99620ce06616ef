"""Positive-definite kernels, Gram matrices, and constant-function Hilbert norms.

Supported kernel families on real vectors:

* shifted Gaussian       ``k(x, y) = a + exp(-(x-y)' Sigma^{-1} (x-y))``
* polynomial             ``k(x, y) = (x'y + a)^p``
* first-order Sobolev    ``k(x, y) = a + min(x, y)`` on [0, 1]
* second-order Sobolev   ``k(x, y) = a + m*x*y - m^2*(x+y)/2 + m^3/3`` with ``m = min(x, y)``
* additive sums of one-dimensional kernels applied to selected coordinates

Kernels are evaluated in vectorised form only: ``cross_matrix`` between two
point sets and ``gram_matrix`` over one.  ``constant_norm_squared`` gives the
squared Hilbert norm of the constant function in closed form, which the
centred penalty needs, and ``kernel_to_json``/``kernel_from_json`` are the
configuration wire format.  All configurations are immutable and all
operations are pure, so they can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotInSpaceError(ValueError):
    """The constant function does not belong to the kernel's Hilbert space.

    Raised when the relevant shift is zero, in which case centred-penalty
    fitting must not be attempted with this kernel.
    """


@dataclass(frozen=True)
class GaussianKernel:
    """Shifted Gaussian kernel with per-dimension lengthscales or a full matrix.

    With ``lengthscales`` l the quadratic form is sum_j ((x_j-y_j)/l_j)^2,
    i.e. Sigma = diag(l^2).  A full symmetric positive-definite ``sigma``
    may be given instead.
    """

    shift: float = 0.0
    lengthscales: tuple[float, ...] | None = None
    sigma: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        _check_shift(self.shift)
        if (self.lengthscales is None) == (self.sigma is None):
            raise ValueError("give exactly one of lengthscales or sigma")
        if self.lengthscales is not None:
            ls = np.asarray(self.lengthscales, dtype=float)
            if ls.ndim != 1 or ls.size == 0 or not np.all(np.isfinite(ls)) or np.any(ls <= 0):
                raise ValueError("lengthscales must be finite and positive")
            object.__setattr__(self, "lengthscales", tuple(float(v) for v in ls))
        else:
            s = np.asarray(self.sigma, dtype=float)
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise ValueError("sigma must be a square matrix")
            if not np.allclose(s, s.T, atol=1e-12 * max(1.0, np.abs(s).max())):
                raise ValueError("sigma must be symmetric")
            if np.linalg.eigvalsh(s).min() <= 0:
                raise ValueError("sigma must be positive definite")
            object.__setattr__(self, "sigma", tuple(tuple(float(v) for v in row) for row in s))

    @property
    def dimension(self) -> int:
        if self.lengthscales is not None:
            return len(self.lengthscales)
        return len(self.sigma)


@dataclass(frozen=True)
class PolynomialKernel:
    degree: int
    shift: float = 0.0

    def __post_init__(self):
        _check_shift(self.shift)
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ValueError("polynomial degree must be an integer >= 1")

    @property
    def dimension(self) -> None:
        return None  # works for any consistent input dimension


@dataclass(frozen=True)
class Sobolev1Kernel:
    shift: float = 0.0

    def __post_init__(self):
        _check_shift(self.shift)

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class Sobolev2Kernel:
    shift: float = 0.0

    def __post_init__(self):
        _check_shift(self.shift)

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class AdditiveKernel:
    """Sum of one-dimensional kernels, each applied to one coordinate."""

    summands: tuple[tuple[int, "KernelConfig"], ...]

    def __post_init__(self):
        if len(self.summands) == 0:
            raise ValueError("additive kernel needs at least one summand")
        coords = [c for c, _ in self.summands]
        if len(set(coords)) != len(coords):
            raise ValueError("additive summands must use distinct coordinates")
        for c, k in self.summands:
            if not isinstance(c, int) or c < 0:
                raise ValueError("coordinate indices must be non-negative integers")
            if isinstance(k, AdditiveKernel):
                raise ValueError("additive summands must be one-dimensional kernels")
            if getattr(k, "dimension", 1) not in (1, None):
                raise ValueError("additive summands must be one-dimensional kernels")
        object.__setattr__(self, "summands", tuple((int(c), k) for c, k in self.summands))

    @property
    def dimension(self) -> None:
        return None  # any dimension exceeding the largest coordinate index

    @property
    def min_dimension(self) -> int:
        return max(c for c, _ in self.summands) + 1


KernelConfig = GaussianKernel | PolynomialKernel | Sobolev1Kernel | Sobolev2Kernel | AdditiveKernel


def _check_shift(a) -> None:
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a >= 0):
        raise ValueError("shift must be finite and non-negative")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise kernel values over a point set."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("Gram matrix must be square")
        scale = max(1.0, float(np.abs(e).max()))
        if np.abs(e - e.T).max() > 1e-10 * scale:
            raise ValueError("Gram matrix must be symmetric")
        e = 0.5 * (e + e.T)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_points(points, expected_dim=None) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must form a non-empty 2-d array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if expected_dim is not None and pts.shape[1] != expected_dim:
        raise ValueError(f"expected dimension {expected_dim}, got {pts.shape[1]}")
    return pts


def _check_unit_interval(values: np.ndarray) -> None:
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("Sobolev kernels require coordinates in [0, 1]")


def cross_matrix(config: KernelConfig, xs, ys) -> np.ndarray:
    """Matrix of kernel values k(xs[i], ys[j]), vectorised over both point sets."""
    if isinstance(config, GaussianKernel):
        xs = _as_points(xs, config.dimension)
        ys = _as_points(ys, config.dimension)
        diff = xs[:, None, :] - ys[None, :, :]
        if config.lengthscales is not None:
            ls = np.asarray(config.lengthscales)
            quad = ((diff / ls) ** 2).sum(axis=-1)
        else:
            sigma_inv = np.linalg.inv(np.asarray(config.sigma))
            quad = np.einsum("nmi,ij,nmj->nm", diff, sigma_inv, diff)
        return config.shift + np.exp(-quad)
    if isinstance(config, PolynomialKernel):
        xs, ys = _as_points(xs), _as_points(ys)
        if xs.shape[1] != ys.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        return (xs @ ys.T + config.shift) ** config.degree
    if isinstance(config, Sobolev1Kernel):
        xs, ys = _as_points(xs, 1), _as_points(ys, 1)
        _check_unit_interval(xs)
        _check_unit_interval(ys)
        return config.shift + np.minimum(xs[:, 0][:, None], ys[:, 0][None, :])
    if isinstance(config, Sobolev2Kernel):
        xs, ys = _as_points(xs, 1), _as_points(ys, 1)
        _check_unit_interval(xs)
        _check_unit_interval(ys)
        x = xs[:, 0][:, None]
        y = ys[:, 0][None, :]
        m = np.minimum(x, y)
        # closed form of int_0^m (x-z)(y-z) dz; grouped so the expression
        # is exactly symmetric in floating point
        return config.shift + m * (x * y) - m**2 * (x + y) / 2.0 + m**3 / 3.0
    if isinstance(config, AdditiveKernel):
        xs, ys = _as_points(xs), _as_points(ys)
        if xs.shape[1] != ys.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        if xs.shape[1] < config.min_dimension:
            raise ValueError(
                f"additive kernel needs dimension >= {config.min_dimension}, got {xs.shape[1]}"
            )
        out = np.zeros((xs.shape[0], ys.shape[0]))
        for coord, sub in config.summands:
            out += cross_matrix(sub, xs[:, [coord]], ys[:, [coord]])
        return out
    raise TypeError(f"unknown kernel config {type(config).__name__}")


def gram_matrix(config: KernelConfig, points) -> GramMatrix:
    pts = _as_points(points)
    return GramMatrix(cross_matrix(config, pts, pts))


def subtractable_shift(config: KernelConfig) -> float:
    """Largest constant s such that k - s is still a kernel.

    Equals the shift a for the Gaussian and Sobolev kernels, a^p for the
    polynomial kernel, and the sum over summands for additive kernels.
    """
    if isinstance(config, (GaussianKernel, Sobolev1Kernel, Sobolev2Kernel)):
        return config.shift
    if isinstance(config, PolynomialKernel):
        return config.shift**config.degree
    if isinstance(config, AdditiveKernel):
        return sum(subtractable_shift(sub) for _, sub in config.summands)
    raise TypeError(f"unknown kernel config {type(config).__name__}")


def constant_norm_squared(config: KernelConfig) -> float:
    """Squared Hilbert norm of the unit constant function.

    Raises NotInSpaceError when the constant does not belong to the space,
    i.e. when the subtractable shift is zero.
    """
    s = subtractable_shift(config)
    if s == 0.0:
        raise NotInSpaceError(
            "constant function is not in the Hilbert space (kernel shift is 0)"
        )
    return 1.0 / s


_VARIANT_NAMES = {
    GaussianKernel: "gaussian",
    PolynomialKernel: "polynomial",
    Sobolev1Kernel: "sobolev1",
    Sobolev2Kernel: "sobolev2",
    AdditiveKernel: "additive",
}


def kernel_to_json(config: KernelConfig) -> dict:
    if isinstance(config, GaussianKernel):
        out = {"variant": "gaussian", "shift": config.shift}
        if config.lengthscales is not None:
            out["lengthscales"] = list(config.lengthscales)
        else:
            out["sigma"] = [list(row) for row in config.sigma]
        return out
    if isinstance(config, PolynomialKernel):
        return {"variant": "polynomial", "degree": config.degree, "shift": config.shift}
    if isinstance(config, (Sobolev1Kernel, Sobolev2Kernel)):
        return {"variant": _VARIANT_NAMES[type(config)], "shift": config.shift}
    if isinstance(config, AdditiveKernel):
        return {
            "variant": "additive",
            "summands": [
                {"coord": c, "kernel": kernel_to_json(sub)} for c, sub in config.summands
            ],
        }
    raise TypeError(f"unknown kernel config {type(config).__name__}")


def kernel_from_json(obj: dict) -> KernelConfig:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("kernel config must be an object with a 'variant' key")
    variant = obj["variant"]
    keys = set(obj) - {"variant"}
    if variant == "gaussian":
        allowed = {"shift", "lengthscales", "sigma"}
        if not keys <= allowed:
            raise ValueError(f"unknown kernel keys: {sorted(keys - allowed)}")
        return GaussianKernel(
            shift=float(obj.get("shift", 0.0)),
            lengthscales=tuple(obj["lengthscales"]) if "lengthscales" in obj else None,
            sigma=tuple(tuple(r) for r in obj["sigma"]) if "sigma" in obj else None,
        )
    if variant == "polynomial":
        if not keys <= {"degree", "shift"}:
            raise ValueError(f"unknown kernel keys: {sorted(keys - {'degree', 'shift'})}")
        return PolynomialKernel(degree=int(obj["degree"]), shift=float(obj.get("shift", 0.0)))
    if variant in ("sobolev1", "sobolev2"):
        if not keys <= {"shift"}:
            raise ValueError(f"unknown kernel keys: {sorted(keys - {'shift'})}")
        cls = Sobolev1Kernel if variant == "sobolev1" else Sobolev2Kernel
        return cls(shift=float(obj.get("shift", 0.0)))
    if variant == "additive":
        if not keys <= {"summands"}:
            raise ValueError(f"unknown kernel keys: {sorted(keys - {'summands'})}")
        return AdditiveKernel(
            summands=tuple(
                (int(s["coord"]), kernel_from_json(s["kernel"])) for s in obj["summands"]
            )
        )
    raise ValueError(f"unknown kernel variant {variant!r}")
