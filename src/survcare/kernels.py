"""Positive-definite kernels, Gram matrices, and constant-function Hilbert norms.

Supported kernel families on real vectors:

* shifted Gaussian       ``k(x, y) = a + exp(-(x-y)' Sigma^{-1} (x-y))``
* polynomial             ``k(x, y) = (x'y + a)^p``
* first-order Sobolev    ``k(x, y) = a + min(x, y)`` on [0, 1]
* second-order Sobolev   ``k(x, y) = a + m*x*y - m^2*(x+y)/2 + m^3/3`` with ``m = min(x, y)``
* additive sums of one-dimensional kernels applied to selected coordinates

Kernels are evaluated in vectorised form only: ``cross_matrix`` between two
point sets and ``gram_matrix`` over one, each set taken by ``data.as_points``.
A Gram matrix is a plain read-only array, symmetric bit for bit because
every family computes k(x, y) and k(y, x) by the same operations.  The
Gaussian kernel takes the rows of the first set in blocks whose coordinate
differences hold at most ``_DIFF_BLOCK`` doubles (or one row's worth), so
its cross matrix needs little more memory than the output.
``constant_norm_squared`` gives the squared Hilbert norm of the constant
function in closed form, which the centred penalty needs, and
``kernel_to_json``/``kernel_from_json`` are the configuration wire format.
All configurations are immutable and all operations are pure, so they can
be evaluated concurrently.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from .data import as_points

# Doubles per block of Gaussian coordinate differences: ``cross_matrix`` takes
# as many rows of ``xs`` at a time as keep the (rows, m, d) block this small.
_DIFF_BLOCK = 2**15


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
            ls = _floats(self.lengthscales, "lengthscales")
            if ls.ndim != 1 or ls.size == 0 or not np.all(np.isfinite(ls)) or np.any(ls <= 0):
                raise ValueError("lengthscales must be finite and positive")
            object.__setattr__(self, "lengthscales", tuple(float(v) for v in ls))
        else:
            s = _floats(self.sigma, "sigma")
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
        if not isinstance(self.degree, int) or not 1 <= self.degree <= sys.float_info.max:
            raise ValueError("polynomial degree must be an integer >= 1 within the double range")

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
    # bool is an int subclass, but True is no shift.  An int compares with a
    # float exactly, so NaN, infinity and an int beyond the double range all
    # fail the bound (math.isfinite would raise OverflowError on that int).
    if isinstance(a, bool) or not (isinstance(a, (int, float)) and 0 <= a <= sys.float_info.max):
        raise ValueError(f"shift must be a finite non-negative number, got {a!r}")


def _floats(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:  # a JSON integer beyond the double range
        raise ValueError(f"{name} must be finite") from None


def _check_unit_interval(values: np.ndarray) -> None:
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("Sobolev kernels require coordinates in [0, 1]")


def cross_matrix(config: KernelConfig, xs, ys) -> np.ndarray:
    """Matrix of kernel values k(xs[i], ys[j]), vectorised over both point sets.

    A polynomial kernel value beyond the double range raises ValueError.
    """
    if isinstance(config, GaussianKernel):
        xs = as_points(xs, config.dimension)
        ys = as_points(ys, config.dimension)
        if config.lengthscales is not None:
            ls = np.asarray(config.lengthscales)
        else:
            sigma_inv = np.linalg.inv(np.asarray(config.sigma))
        out = np.empty((xs.shape[0], ys.shape[0]))
        rows = max(1, _DIFF_BLOCK // ys.size)
        for start in range(0, xs.shape[0], rows):
            block = out[start:start + rows]
            diff = xs[start:start + rows, None, :] - ys[None, :, :]
            if config.lengthscales is not None:
                diff /= ls
                np.square(diff, out=diff)
                quad = diff.sum(axis=-1)
            else:
                quad = np.einsum("nmi,ij,nmj->nm", diff, sigma_inv, diff)
            np.negative(quad, out=quad)
            np.exp(quad, out=block)
            block += config.shift
        return out
    if isinstance(config, PolynomialKernel):
        xs, ys = as_points(xs), as_points(ys)
        if xs.shape[1] != ys.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        with np.errstate(over="ignore", invalid="ignore"):
            out = (xs @ ys.T + config.shift) ** config.degree
        if not np.isfinite(out).all():
            raise ValueError("polynomial kernel values overflow")
        return out
    if isinstance(config, Sobolev1Kernel):
        xs, ys = as_points(xs, 1), as_points(ys, 1)
        _check_unit_interval(xs)
        _check_unit_interval(ys)
        return config.shift + np.minimum(xs[:, 0][:, None], ys[:, 0][None, :])
    if isinstance(config, Sobolev2Kernel):
        xs, ys = as_points(xs, 1), as_points(ys, 1)
        _check_unit_interval(xs)
        _check_unit_interval(ys)
        x = xs[:, 0][:, None]
        y = ys[:, 0][None, :]
        m = np.minimum(x, y)
        # closed form of int_0^m (x-z)(y-z) dz; grouped so the expression
        # is exactly symmetric in floating point
        return config.shift + m * (x * y) - m**2 * (x + y) / 2.0 + m**3 / 3.0
    if isinstance(config, AdditiveKernel):
        xs, ys = as_points(xs), as_points(ys)
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


def gram_matrix(config: KernelConfig, points) -> np.ndarray:
    """The read-only, bitwise symmetric matrix of k over every pair of ``points``."""
    pts = as_points(points)
    k = cross_matrix(config, pts, pts)
    k.flags.writeable = False
    return k


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


# The JSON wire format: an object's "variant" names the class, and its other
# keys are the class's fields, of which those without a default are required.
_VARIANTS = {
    "gaussian": GaussianKernel,
    "polynomial": PolynomialKernel,
    "sobolev1": Sobolev1Kernel,
    "sobolev2": Sobolev2Kernel,
    "additive": AdditiveKernel,
}


def kernel_to_json(config: KernelConfig) -> dict:
    """The JSON object of a config: its variant, then each set field (a tuple is an array)."""
    names = [name for name, cls in _VARIANTS.items() if type(config) is cls]
    if not names:
        raise TypeError(f"unknown kernel config {type(config).__name__}")
    out = {"variant": names[0]}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "summands":
            value = [{"coord": c, "kernel": kernel_to_json(sub)} for c, sub in value]
        if value is not None:
            out[f.name] = value
    return out


def kernel_from_json(obj: dict) -> KernelConfig:
    """The kernel config a JSON object describes; a malformed one raises ValueError.

    Integers (a polynomial degree, a summand's coordinate) are taken as
    given, never rounded.  A shift must be a number, not a string or a
    boolean, and is stored as a float.
    """
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("kernel config must be an object with a 'variant' key")
    variant = obj["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ValueError(f"unknown kernel variant {variant!r}")
    fields = dataclasses.fields(_VARIANTS[variant])
    kwargs = {k: v for k, v in obj.items() if k != "variant"}
    unknown = set(kwargs) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown kernel keys: {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(kwargs)
    if missing:
        raise ValueError(f"{variant} kernel needs keys: {sorted(missing)}")
    if "shift" in kwargs:
        _check_shift(kwargs["shift"])  # before float(), which would take "1.5" or true
        kwargs["shift"] = float(kwargs["shift"])
    try:  # a summand's unhashable coordinate and the like raise TypeError
        if variant == "additive":
            summands = kwargs["summands"]
            if not isinstance(summands, list) or not all(
                    isinstance(s, dict) and set(s) == {"coord", "kernel"} for s in summands):
                raise ValueError("additive summands must be a list of objects "
                                 "with the keys 'coord' and 'kernel'")
            kwargs["summands"] = [(s["coord"], kernel_from_json(s["kernel"])) for s in summands]
        return _VARIANTS[variant](**kwargs)
    except TypeError as exc:
        raise ValueError(f"malformed {variant} kernel config: {exc}") from None
