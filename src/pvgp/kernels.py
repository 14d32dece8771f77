"""Covariance kernels for the PV power Gaussian-process model.

A kernel is described declaratively by :class:`KernelSpec` and evaluated
as a Gram block by one evaluator, :class:`GramEvaluator`: it computes the
input geometry of a block once -- the per-axis distances ``|x_d - x'_d|``
and the periodic half chord ``|sin(pi*dt/T)|``, rebuilt only when T
changes -- and evaluates ``K_main`` and each shape hyperparameter's
``d log K_main / d log theta`` (roughness, lengthscales, alpha)
element-wise from it for the fitter in :mod:`pvgp.gp`, into ``K`` and one
scratch buffer: the distance variables are rebuilt where they are read.
``main_matrix`` is the one-shot form used for posteriors: it runs the
evaluator over row blocks written straight into the result, which may be
a buffer the caller owns (``out``), so that :mod:`pvgp.gp` can factorise
the Gram in the memory it was built in.  For a factorisation it fills
exactly the triangle the factorisation reads (``upper``: row i from
column i on, nothing below the diagonal changed), so that
:mod:`pvgp.gp` can build a Gram's two diagonal blocks into one
rectangular full packed array, and hands each row block to the caller's
``finish`` while it is in cache, where :mod:`pvgp.gp` adds the noise,
scales and checks finiteness; the ``sin`` and ``cos`` of B's time column
that the chord is built from are computed once per call and sliced to
each row block, and each row block computes those of its own rows.  The
non-exponential shapes' expressions (rq, matern32, matern52, and every
shape's derivatives) are evaluated a row block at a time too, so that
their temporaries are block-sized and a fit holds and peaks near the
same number of n x n arrays.  Shapes that are ``exp(-x)`` (se,
matern12) multiply as one ``exp`` of the summed distance variables, so a
periodic se or matern12 Gram costs one ``exp`` per entry; the warp's
variable is built negated for it, and a unit amplitude is not multiplied
in.  A spec is
flat: :meth:`KernelSpec.hyperparameters` lists the scalars a fit frees
(every one it reads but the amplitude ``h``, which the fit solves in
closed form, and the constants ``T`` and ``nu``), each a
:class:`Hyperparameter` addressing one by field, and
:func:`with_hyperparameters` sets any of them in one ``replace``.  Five
families are supported:

* ``whitenoise``   -- index-keyed noise, ``h^2`` on the diagonal only
* ``se``           -- squared exponential, ``h^2 * exp(-r2)``
* ``rq``           -- rational quadratic, ``h^2 * (1 + r2/alpha)^-alpha``
* ``matern``       -- half-integer Matern (nu in {1/2, 3/2, 5/2})
* ``periodic``     -- sinusoidal warp of the time axis around a stationary
                      base shape (the daily solar cycle); ``base`` names its
                      family and its ``alpha``/``nu`` are the spec's own

``r2`` is the per-dimension-scaled squared distance
``sum_d ((x_d - x'_d) / ls_d)^2``.  The plain stationary forms carry no 1/2
factor in the exponent; inside the periodic warp the base profiles use the
standard periodic-kernel parameterisation (an SE base yields
``h^2 * exp(-2 sin^2(pi*d/T) / w^2)``).

On multi-dimensional inputs (time index, cloud coverage) a stationary spec
acts on the joint scaled distance, while a periodic spec warps the time
dimension only and multiplies by its base kernel over the remaining
dimensions; ``lengthscales[0]`` is ignored for periodic specs because the
roughness ``w`` plays that role on the warped axis.

Text form
---------
Every spec has a canonical textual serialisation::

    kernel     = main [" + " noiseterm]
    noiseterm  = "whitenoise(sigma2=" FLOAT ")"
    main       = stationary | periodic | "whitenoise(h=" FLOAT ")"
    stationary = name "(" args ")"      ; name in {se, rq, matern12,
                                        ;          matern32, matern52}
    periodic   = "periodic(" name "; " args ")"
    args       = "h=" FLOAT ", ls=[" FLOAT {", " FLOAT} "]"
                 [", alpha=" FLOAT]     ; rq only
                 [", w=" FLOAT ", T=" FLOAT]   ; periodic only

Floats are written with ``repr`` so that ``parse(to_text(s)) == s``
round-trips exactly.  ``parse`` rejects an argument its term does not take
(``alpha`` off rq, ``w``/``T`` off periodic, ``sigma2`` off the noise
term, any other key), a repeated argument, and a list where a number
belongs.  Example::

    periodic(matern12; h=1.0, ls=[1.0, 0.3], w=1.0, T=288.0) + whitenoise(sigma2=0.01)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "WHITE_NOISE",
    "SQUARED_EXPONENTIAL",
    "RATIONAL_QUADRATIC",
    "MATERN",
    "PERIODIC",
    "STATIONARY_FAMILIES",
    "MATERN_NUS",
    "KernelSpec",
    "KernelSpecError",
    "main_matrix",
    "GramEvaluator",
    "Hyperparameter",
    "with_hyperparameters",
    "parse",
]

WHITE_NOISE = "whitenoise"
SQUARED_EXPONENTIAL = "se"
RATIONAL_QUADRATIC = "rq"
MATERN = "matern"
PERIODIC = "periodic"

STATIONARY_FAMILIES = (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN)
MATERN_NUS = (0.5, 1.5, 2.5)

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


class KernelSpecError(ValueError):
    """Invalid kernel description (bad hyperparameters or text form)."""


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a (possibly composite) covariance kernel.

    Parameters
    ----------
    family : str
        One of the module family constants.
    amplitude : float
        Signal amplitude ``h`` in target units (watts for power models).
        For a ``whitenoise`` main kernel, ``amplitude**2`` is the variance.
    lengthscales : tuple of float
        One lengthscale per input dimension.  Ignored for ``whitenoise``;
        index 0 is ignored for ``periodic`` (superseded by ``roughness``).
    alpha : float, optional
        Rational-quadratic index, read when the :attr:`shape` is ``rq``.
    nu : float, optional
        Matern smoothness, one of ``MATERN_NUS``, read when the
        :attr:`shape` is ``matern``.
    roughness : float, optional
        Lengthscale ``w`` on the warped time axis (``periodic`` only).
    period : float, optional
        Period ``T`` in time-index units (``periodic`` only); one solar
        day is 288.
    base : str, optional
        Stationary family name (``se``, ``rq`` or ``matern``) of a
        ``periodic`` spec's base shape, whose ``alpha``/``nu`` are this
        spec's own.
    noise_variance : float
        White-noise variance ``sigma^2`` added on the training diagonal,
        in squared target units.  Attached at the composite level.

    A field the spec's family and shape do not read is cleared on
    construction: ``alpha`` off a non-rq shape, ``nu`` off a non-matern
    shape, ``base``/``roughness``/``period`` off a non-periodic spec, and a
    ``whitenoise`` spec's lengthscales reset to ``(1.0,)``.  So
    ``parse(to_text(s)) == s`` for every valid spec.
    """

    family: str
    amplitude: float = 1.0
    lengthscales: tuple[float, ...] = (1.0,)
    alpha: float | None = None
    nu: float | None = None
    roughness: float | None = None
    period: float | None = None
    base: str | None = None
    noise_variance: float = 0.0

    def __post_init__(self):
        # keep only what the family and shape read, which is what the text form
        # carries, so that specs of the same kernel compare equal
        kept = {"lengthscales": tuple(float(v) for v in np.atleast_1d(self.lengthscales))}
        if self.family == WHITE_NOISE:
            kept["lengthscales"] = (1.0,)
        if self.shape != RATIONAL_QUADRATIC:
            kept["alpha"] = None
        if self.shape != MATERN:
            kept["nu"] = None
        if self.family != PERIODIC:
            kept.update(base=None, roughness=None, period=None)
        for name, value in kept.items():
            object.__setattr__(self, name, value)
        self.validate()

    def hyperparameters(self) -> tuple[Hyperparameter, ...]:
        """Every scalar a fit frees, in order: ``w``, lengthscales, ``alpha``, ``sigma^2``.

        The amplitude ``h`` is not among them: the fit solves it in closed
        form.  The lengthscales start at axis 1 on a periodic spec and are
        none on ``whitenoise``; any other field is listed unless
        construction cleared it.  The period ``T``, like ``nu``, is a
        constant of the kernel.
        """

        def read(*names):
            return [Hyperparameter(name) for name in names if getattr(self, name) is not None]

        first = len(self.lengthscales) if self.family == WHITE_NOISE else int(self.family == PERIODIC)
        lengthscales = [Hyperparameter("lengthscales", d) for d in range(first, len(self.lengthscales))]
        return (*read("roughness"), *lengthscales, *read("alpha", "noise_variance"))

    @property
    def shape(self) -> str | None:
        """Family of the stationary profile: the base of a ``periodic`` spec, else the family."""
        return self.base if self.family == PERIODIC else self.family

    def validate(self, ndim: int | None = None) -> None:
        """Check hyperparameter invariants; raise :class:`KernelSpecError`."""
        fam = self.family
        if fam not in (WHITE_NOISE, PERIODIC) + STATIONARY_FAMILIES:
            raise KernelSpecError(f"unknown kernel family {fam!r}")
        # the Gram is scaled by h^2, so h^2 must be finite too; a * a cannot raise
        if not (self.amplitude > 0 and math.isfinite(self.amplitude * self.amplitude)):
            raise KernelSpecError(f"amplitude h must be > 0 with a finite h^2, got {self.amplitude}")
        if not (self.noise_variance >= 0 and math.isfinite(self.noise_variance)):
            raise KernelSpecError(f"noise_variance must be >= 0, got {self.noise_variance}")
        if fam != WHITE_NOISE and not self.lengthscales:
            raise KernelSpecError(f"{fam} kernel needs at least one lengthscale (ls)")
        if fam != WHITE_NOISE and any(not (v > 0 and math.isfinite(v)) for v in self.lengthscales):
            raise KernelSpecError(f"lengthscales must be > 0, got {self.lengthscales}")
        if fam == PERIODIC:
            _require_positive(self.roughness, "periodic kernel needs a finite roughness w > 0")
            _require_positive(self.period, "periodic kernel needs a finite period T > 0")
            if self.base not in STATIONARY_FAMILIES:
                raise KernelSpecError("periodic base must be a stationary family (se, rq, matern)")
        if self.shape == RATIONAL_QUADRATIC:
            _require_positive(self.alpha, "rq kernel needs a finite alpha > 0")
        if self.shape == MATERN and self.nu not in MATERN_NUS:
            raise KernelSpecError(f"matern nu must be one of {MATERN_NUS}, got {self.nu}")
        if ndim is not None and fam != WHITE_NOISE and len(self.lengthscales) != ndim:
            raise KernelSpecError(
                f"spec has {len(self.lengthscales)} lengthscale(s) but inputs have {ndim} dimension(s)"
            )

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical textual serialisation (see module docstring)."""
        main = self._main_text()
        if self.noise_variance > 0:
            return f"{main} + whitenoise(sigma2={self.noise_variance!r})"
        return main

    def _main_text(self) -> str:
        if self.family == WHITE_NOISE:
            return f"whitenoise(h={self.amplitude!r})"
        ls = "[" + ", ".join(repr(v) for v in self.lengthscales) + "]"
        args = f"h={self.amplitude!r}, ls={ls}"
        if self.shape == RATIONAL_QUADRATIC:
            args += f", alpha={self.alpha!r}"
        if self.family != PERIODIC:
            return f"{_shape_name(self)}({args})"
        return f"periodic({_shape_name(self)}; {args}, w={self.roughness!r}, T={self.period!r})"

    def __str__(self) -> str:
        return self.to_text()


def _require_positive(value: float | None, message: str) -> None:
    """Raise :class:`KernelSpecError` with ``message`` and ``value`` unless ``value`` is finite and > 0."""
    if not (value is not None and value > 0 and math.isfinite(value)):
        raise KernelSpecError(f"{message}, got {value}")


def _shape_name(spec: KernelSpec) -> str:
    """Text name of ``spec``'s shape: its family, with a matern's smoothness (``matern12``)."""
    if spec.shape == MATERN:
        return {0.5: "matern12", 1.5: "matern32", 2.5: "matern52"}[spec.nu]
    return spec.shape


_NAME_TO_FAMILY = {
    "se": (SQUARED_EXPONENTIAL, None),
    "rq": (RATIONAL_QUADRATIC, None),
    "matern12": (MATERN, 0.5),
    "matern32": (MATERN, 1.5),
    "matern52": (MATERN, 2.5),
}

_TERM_RE = re.compile(r"^(\w+)\(\s*(?:(\w+)\s*;\s*)?(.*)\)$")


def parse(text: str) -> KernelSpec:
    """Parse the canonical text form back into a :class:`KernelSpec`."""
    terms = _split_outside(text, " + ", "()")
    if not 1 <= len(terms) <= 2:
        raise KernelSpecError(f"expected 'main' or 'main + whitenoise(...)', got {text!r}")
    spec = _parse_main(terms[0])
    if len(terms) == 2:
        name, base_name, args = _parse_term(terms[1])
        if name != "whitenoise" or base_name is not None:
            raise KernelSpecError(f"noise term must be whitenoise(sigma2=...), got {terms[1]!r}")
        _check_keys(args, {"sigma2"}, terms[1])
        sigma2 = _require_float(args, "sigma2", terms[1])
        if sigma2 < 0:
            raise KernelSpecError(f"sigma2 must be >= 0, got {sigma2}")
        spec = replace(spec, noise_variance=sigma2)
    return spec


def _split_outside(text: str, sep: str, brackets: str) -> list[str]:
    """``text`` split at each ``sep`` outside the ``brackets`` pair; pieces stripped, empty ones dropped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == brackets[0]) - (ch == brackets[1])
        if depth == 0 and i >= start and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _parse_term(term: str) -> tuple[str, str | None, dict[str, object]]:
    m = _TERM_RE.match(term.strip())
    if not m:
        raise KernelSpecError(f"cannot parse kernel term {term!r}")
    name, base_name, argtext = m.group(1), m.group(2), m.group(3).strip()
    args: dict[str, object] = {}
    for piece in _split_outside(argtext, ",", "[]"):
        if "=" not in piece:
            raise KernelSpecError(f"expected key=value in {term!r}, got {piece!r}")
        key, val = (s.strip() for s in piece.split("=", 1))
        if key in args:
            raise KernelSpecError(f"repeated argument {key!r} in {term!r}")
        is_list = val.startswith("[")
        if is_list and not val.endswith("]"):
            raise KernelSpecError(f"unterminated list in {term!r}")
        try:
            args[key] = tuple(float(v) for v in val[1:-1].split(",") if v.strip()) if is_list else float(val)
        except ValueError as exc:
            raise KernelSpecError(f"bad number in {key}={val} in {term!r}") from exc
    return name, base_name, args


def _parse_main(term: str) -> KernelSpec:
    name, base_name, args = _parse_term(term)
    periodic = name == "periodic"
    if base_name is not None and not periodic:
        raise KernelSpecError(f"only periodic takes a base kernel, got {term!r}")
    if name == "whitenoise":
        _check_keys(args, {"h"}, term)
        return KernelSpec(WHITE_NOISE, amplitude=_require_float(args, "h", term))
    named = base_name if periodic else name
    if named not in _NAME_TO_FAMILY:
        raise KernelSpecError(f"unknown periodic base {base_name!r}" if periodic else f"unknown kernel name {name!r}")
    shape, nu = _NAME_TO_FAMILY[named]
    rq = shape == RATIONAL_QUADRATIC
    _check_keys(args, {"h", "ls"} | ({"alpha"} if rq else set()) | ({"w", "T"} if periodic else set()), term)
    alpha = _require_float(args, "alpha", term) if rq else None
    common = dict(amplitude=_require_float(args, "h", term), lengthscales=args.get("ls", (1.0,)), alpha=alpha, nu=nu)
    if not periodic:
        return KernelSpec(shape, **common)  # type: ignore[arg-type]
    w, T = (_require_float(args, key, term) for key in ("w", "T"))
    return KernelSpec(PERIODIC, roughness=w, period=T, base=shape, **common)  # type: ignore[arg-type]


def _check_keys(args: dict[str, object], allowed: set[str], term: str) -> None:
    unexpected = sorted(set(args) - allowed)
    if unexpected:
        raise KernelSpecError(f"unexpected argument {', '.join(map(repr, unexpected))} in {term!r}")


def _require_float(args: dict[str, object], key: str, term: str) -> float:
    if key not in args:
        raise KernelSpecError(f"missing scalar argument {key!r} in {term!r}")
    if not isinstance(args[key], float):
        raise KernelSpecError(f"argument {key!r} must be one number, not a list, in {term!r}")
    return args[key]  # type: ignore[return-value]


# -- Gram evaluation ---------------------------------------------------------
#
# Every stationary shape is a function of one distance variable x: the scaled
# squared distance for se/rq, the scaled distance for matern.  The periodic
# warp feeds its base shape x = s^2/2 (se/rq) or x = s (matern), where
# s = chord / w.  A derivative with respect to a log-hyperparameter is then
# (d log shape / dx) * (dx / d log theta), so every derivative block is K_main
# times an element-wise factor.

# elements per row block of main_matrix and of the shapes' expressions: bounds their temporaries
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(rows: int, cols: int):
    """``(start, stop)`` of the row blocks of a rows x cols array, each about :data:`_BLOCK_ELEMENTS` entries."""
    step = max(1, _BLOCK_ELEMENTS // max(cols, 1))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def _below_diagonal(m: int) -> np.ndarray:
    """Read-only (m, m) mask, true where column j < row i, as a view of one 2m-entry array.

    Row i is ``flags[m - i : 2m - i]``, true in its first i entries: no
    m x m array is made, and the mask costs about as much as one row.
    """
    flags = np.zeros(2 * m, dtype=bool)
    flags[:m] = True
    below = np.ndarray((m, m), dtype=bool, buffer=flags, offset=m, strides=(-1, 1))
    below.flags.writeable = False
    return below


def _distance_power(spec: KernelSpec) -> int:
    """How the distance variable of ``spec``'s shape scales with distance: 2 for se/rq, 1 for matern."""
    return 1 if spec.shape == MATERN else 2


def _is_exponential(spec: KernelSpec) -> bool:
    """Whether the shape is ``exp(-x)`` (se, matern12), so that a product of two is one ``exp``."""
    return spec.shape == SQUARED_EXPONENTIAL or (spec.shape == MATERN and spec.nu == 0.5)


def _shape_value(spec: KernelSpec, x):
    """Unit-amplitude shape of ``spec`` at distance variable ``x``.

    se and matern12: ``exp(-x)``; rq: ``(1 + x/alpha)^-alpha``; matern32:
    ``(1 + sqrt(3) x) exp(-sqrt(3) x)``; matern52:
    ``(1 + sqrt(5) x + 5 x^2/3) exp(-sqrt(5) x)``.
    """
    if _is_exponential(spec):
        return np.exp(-x)
    if spec.shape == RATIONAL_QUADRATIC:
        return (1.0 + x / spec.alpha) ** (-spec.alpha)
    if spec.nu == 1.5:
        return (1.0 + _SQRT3 * x) * np.exp(-_SQRT3 * x)
    return (1.0 + _SQRT5 * x + (5.0 / 3.0) * x * x) * np.exp(-_SQRT5 * x)


def _shape_dlog(spec: KernelSpec, x):
    """``d log shape / dx`` of ``spec``'s shape."""
    if _is_exponential(spec):
        return -1.0
    if spec.shape == RATIONAL_QUADRATIC:
        return -1.0 / (1.0 + x / spec.alpha)
    if spec.nu == 1.5:
        return -3.0 * x / (1.0 + _SQRT3 * x)
    return -(5.0 / 3.0) * x * (1.0 + _SQRT5 * x) / (1.0 + _SQRT5 * x + (5.0 / 3.0) * x * x)


def _shape_dlog_alpha(alpha: float, x):
    """``d log shape / d log alpha`` of the rational quadratic."""
    return x / (1.0 + x / alpha) - alpha * np.log1p(x / alpha)


@dataclass(frozen=True)
class Hyperparameter:
    """One positive scalar of a :class:`KernelSpec`, addressed by field.

    ``index`` picks an entry of ``lengthscales``.
    """

    field: str
    index: int | None = None

    def get(self, spec: KernelSpec) -> float:
        value = getattr(spec, self.field)
        return value if self.index is None else value[self.index]


def with_hyperparameters(spec: KernelSpec, params, values) -> KernelSpec:
    """``spec`` with each :class:`Hyperparameter` in ``params`` set to its value, in one ``replace``."""
    changes, lengthscales = {}, list(spec.lengthscales)
    for p, v in zip(params, values):
        if p.index is None:
            changes[p.field] = v
        else:
            lengthscales[p.index] = v
    return replace(spec, lengthscales=tuple(lengthscales), **changes)


def _phases(t: np.ndarray, period: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``sin`` and ``cos`` of ``pi*t/T`` on the time values ``t``."""
    t = t * (np.pi / period)
    return np.sin(t), np.cos(t)


class GramEvaluator:
    """Main-kernel block ``K_main(A, B)`` and its log-hyperparameter derivatives.

    It keeps the block's input geometry -- the per-axis distances
    ``|x_d - x'_d|`` and the periodic half chord ``|sin(pi*dt/T)|``,
    rebuilt only when T changes -- ``K`` and one scratch buffer; all but
    ``K`` are allocated on first use.  :meth:`gram` writes ``K_main`` into
    ``K`` (``out``, when given), and :meth:`log_derivative` writes one shape
    hyperparameter's ``d log K_main / d log theta`` into the scratch (or,
    for two of them, into one array of its own), so
    ``dK_main / d log theta = K_main * log_derivative``.  Each distance
    variable is rebuilt from the geometry where it is read, so no derivative
    depends on which blocks or Grams were asked for before it.

    ``same_samples`` marks A and B as the same ordered sample list, A
    starting ``row_offset`` samples in, which is what lets the index-keyed
    ``whitenoise`` family contribute its diagonal.  ``b_phases``, when given,
    is ``(T, sin, cos)``: the period and ``_phases`` of B's time column at
    it, from a caller that evaluates a larger block in row blocks against
    the same B.  The chord uses them at that T only and computes B's phases
    itself at any other; it always computes the phases of A's own rows.
    """

    def __init__(
        self, A: np.ndarray, B: np.ndarray, same_samples: bool = False, row_offset: int = 0, out=None, b_phases=None
    ):
        self.A, self.B = A, B
        self.same_samples = same_samples
        self.row_offset = row_offset
        self.K = np.empty((A.shape[0], B.shape[0])) if out is None else out
        self._absdiff: dict[int, np.ndarray] = {}
        self._b_phases = b_phases
        self._chord: np.ndarray | None = None
        self._chord_period: float | None = None
        self._scratch: np.ndarray | None = None

    @property
    def scratch(self) -> np.ndarray:
        """The one scratch buffer, allocated on first use."""
        if self._scratch is None:
            self._scratch = np.empty(self.K.shape)
        return self._scratch

    # -- geometry ---------------------------------------------------------

    def absdiff(self, axis: int) -> np.ndarray:
        """``|A[:, axis] - B[:, axis]^T|``, computed once in its own buffer."""
        d = self._absdiff.get(axis)
        if d is None:
            d = self._absdiff[axis] = np.subtract(self.A[:, axis : axis + 1], self.B[:, axis : axis + 1].T)
            np.abs(d, out=d)
        return d

    def chord(self, period: float) -> np.ndarray:
        """Half the chord of the time axis on the circle, ``|sin(pi*dt/T)|``, rebuilt when T changes.

        Expanded as ``sin(a)cos(b) - cos(a)sin(b)`` so that only 2(n + m)
        trigonometric values are evaluated, not n*m.  The chord's factor 2
        is put back by the warp, which divides by ``w / 2``.
        """
        if self._chord is None:
            self._chord = np.empty(self.K.shape)
        u = self._chord
        if self._chord_period != period:
            sin_a, cos_a = _phases(self.A[:, 0:1], period)
            if self._b_phases is not None and self._b_phases[0] == period:
                _, sin_b, cos_b = self._b_phases
            else:
                sin_b, cos_b = _phases(self.B[:, 0], period)
            np.multiply(sin_a, cos_b, out=u)
            u -= cos_a * sin_b
            np.abs(u, out=u)
            self._chord_period = period
        return u

    # -- evaluation -------------------------------------------------------

    def _variables(self, spec: KernelSpec) -> list:
        """Builders of the distance variables of ``spec``'s factors: the warp's, then the stationary one's."""
        periodic = spec.family == PERIODIC
        return [self._warp_variable] * periodic + [self._stationary_variable] * (self.A.shape[1] > periodic)

    def _warp_variable(self, spec: KernelSpec, out: np.ndarray, negated: bool = False) -> np.ndarray:
        """``s^2/2`` (se/rq) or ``s`` (matern), ``s = chord / w``, or its negative when ``negated``.

        ``chord / w`` is the half chord over ``w / 2``, and its negative the
        half chord over ``-w / 2``: both exact, as scaling by 2 and negation are.
        """
        half = 0.5 * spec.roughness
        if _distance_power(spec) == 2:
            x = np.divide(self.chord(spec.period), half, out=out)
            x *= x
            x *= -0.5 if negated else 0.5
        else:
            x = np.divide(self.chord(spec.period), -half if negated else half, out=out)
        return x

    def _stationary_variable(self, spec: KernelSpec, out: np.ndarray, negated: bool = False) -> np.ndarray:
        """Distance variable of the stationary factor, accumulated one axis at a time, or its negative when ``negated``."""
        axes = range(spec.family == PERIODIC, self.A.shape[1])
        squared = _distance_power(spec) == 2 or len(axes) > 1
        for k, axis in enumerate(axes):
            d = self.absdiff(axis)
            # a row block at a time, so that a later axis's term is block-sized
            for start, stop in _row_blocks(*out.shape):
                r = np.divide(d[start:stop], spec.lengthscales[axis], out=out[start:stop] if k == 0 else None)
                if squared:
                    r *= r
                if k:
                    out[start:stop] += r
        if squared and _distance_power(spec) == 1:
            np.sqrt(out, out=out)
        if negated:
            np.negative(out, out=out)
        return out

    def gram(self, spec: KernelSpec) -> np.ndarray:
        """``K_main`` under ``spec``, written into the reused output buffer."""
        K = self.K
        h2 = spec.amplitude**2
        if spec.family == WHITE_NOISE:
            K.fill(0.0)
            if self.same_samples:
                rows = np.arange(max(0, min(K.shape[0], K.shape[1] - self.row_offset)))
                K[rows, rows + self.row_offset] = h2
            return K
        first, *rest = self._variables(spec)
        if _is_exponential(spec):
            # exp(-a) exp(-b) = exp(-(a + b)): one exp per entry, and h^2 after
            # it, so that k(x, x) = h^2 exactly; the first variable is built negated in K
            first(spec, K, negated=True)
            for variable in rest:
                K -= variable(spec, self.scratch)
            np.exp(K, out=K)
            if h2 != 1.0:  # the concentrated objective's unit amplitude
                K *= h2
        else:
            K.fill(h2)
            for variable in (first, *rest):
                x = variable(spec, self.scratch)
                # a row block at a time, so that the shape's temporaries are block-sized
                for start, stop in _row_blocks(*K.shape):
                    K[start:stop] *= _shape_value(spec, x[start:stop])
        return K

    def log_derivative(self, spec: KernelSpec, param: Hyperparameter) -> np.ndarray:
        """``d log K_main / d log value`` of the shape hyperparameter ``param`` at ``spec``.

        The distance variable is built whole into the scratch; the shape's
        expressions are then evaluated a row block at a time, so that their
        temporaries are block-sized.  The result is the scratch, except for
        rq's ``alpha`` with two factors (their sum) and a matern's multi-axis
        lengthscale (``q_d / x``), which take one array of their own.
        """
        scratch = self.scratch
        if param.field == "alpha":
            # the rq factors' terms, summed, each variable rebuilt into the scratch in turn
            variables = self._variables(spec)
            total = scratch if len(variables) == 1 else np.empty(scratch.shape)
            for k, variable in enumerate(variables):
                x = variable(spec, scratch)
                for start, stop in _row_blocks(*x.shape):
                    term = _shape_dlog_alpha(spec.alpha, x[start:stop])
                    if k:
                        total[start:stop] += term
                    else:
                        total[start:stop] = term
            return total
        # the variable that param scales; x becomes dx/dlog value in place once d log shape / dx is taken
        lengthscale = param.field == "lengthscales"
        x = (self._stationary_variable if lengthscale else self._warp_variable)(spec, scratch)
        power = _distance_power(spec)
        # dx/dlog theta = -power * g; x scales as w^-power, as a single stationary axis's x does as ls^-power: g = x
        whole = not lengthscale or self.A.shape[1] - (spec.family == PERIODIC) == 1
        # otherwise g = q_d (se/rq) or q_d / x (matern), q_d = (dx_d / ls_d)^2;
        # q_d is 0 wherever x is; only a matern's q_d / x reads x, so only its q_d takes an array of its own
        out = x if whole or power == 2 else np.empty(x.shape)
        for start, stop in _row_blocks(*x.shape):
            xb = x[start:stop]
            dlog = _shape_dlog(spec, xb)
            g = out[start:stop]
            if not whole:
                np.divide(self.absdiff(param.index)[start:stop], spec.lengthscales[param.index], out=g)
                g *= g
                if power == 1:
                    np.divide(g, xb, out=g, where=xb > 0)
            if isinstance(dlog, float):
                # the exponential shapes' -1: one multiply by -power * dlog, exact as x(-1) is, or none
                if -power * dlog != 1.0:
                    g *= -power * dlog
            else:
                g *= -power
                g *= dlog
        return out


def main_matrix(
    spec: KernelSpec, A: np.ndarray, B: np.ndarray, same_samples: bool = False, out=None, upper: bool = False, finish=None
) -> np.ndarray:
    """Main-kernel block ``K_main(A, B)`` without the composite noise term.

    ``same_samples`` marks A and B as the same ordered sample list, which
    is what lets the index-keyed ``whitenoise`` family contribute its
    diagonal.  The composite noise term is handled by the caller
    (:func:`pvgp.gp.build_covariance`).  The block is evaluated by
    :class:`GramEvaluator` in row blocks written straight into the result,
    so the only full-size array is the result itself: ``out``, when given,
    else a new array.

    ``upper`` narrows each row block of a square block to the columns from
    its first row on, so row i is filled from column i to the end -- the
    triangle that the Fortran view ``K.T`` of a symmetric Gram is
    factorised from with ``lower=True`` -- and nothing below the diagonal
    is changed: the few entries a row block evaluates there, in its leading
    square, are put back as they were.  So two triangles can be built into
    one array, as :mod:`pvgp.gp` builds a Gram in rectangular full packed
    storage.  ``finish``, when given, is called on each row block (the view
    of the result just filled, its diagonal from column 0 under ``upper``)
    while it is in cache.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"input dimensionality mismatch: {A.shape[1]} vs {B.shape[1]}")
    spec.validate(ndim=A.shape[1])
    shape = (A.shape[0], B.shape[0])
    if out is not None and out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the block is {shape}")
    if upper and shape[0] != shape[1]:
        raise ValueError(f"upper needs a square block, got {shape}")
    K = np.empty(shape) if out is None else out
    # the chord's sin/cos of B's time column once for the whole block, not once per row block
    sin_b, cos_b = _phases(B[:, 0], spec.period) if spec.family == PERIODIC else (None, None)
    below = _below_diagonal(shape[0]) if upper else None
    for start, stop in _row_blocks(*shape):
        first = start if upper else 0
        block = K[start:stop, first:]
        if upper:
            square = block[:, : stop - start]
            kept = square.copy()
        b_phases = None if sin_b is None else (spec.period, sin_b[first:], cos_b[first:])
        GramEvaluator(
            A[start:stop], B[first:], same_samples, row_offset=start - first, out=block, b_phases=b_phases
        ).gram(spec)
        if finish is not None:
            finish(block)
        if upper:
            np.copyto(square, kept, where=below[: stop - start, : stop - start])
    return K
