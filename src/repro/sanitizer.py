"""Runtime tensor sanitizer: env-flagged contract checks for the hot path.

This module catches what is only visible in the live tensors — a NaN that
appeared three matmuls ago, a "probability" vector that drifted off the
simplex, a mask built in the wrong dtype, two requests whose KV-arena row
ranges overlap.  Guards
are compiled in permanently but *gated*: ``REPRO_SANITIZE`` is read once,
at import, into a module global, so with it unset (the default) a guard or
a contract wrapper costs the hot path one global load and a falsy branch
per call — no ``os.environ`` lookup, no signature binding.  Set
``REPRO_SANITIZE=1`` before the process starts (or call :func:`enable` /
use the :func:`sanitized` context manager in tests; :func:`reset` re-reads
the environment) to arm them; a violated contract raises
:class:`SanitizerError` at the first operation that can see it, instead of
surfacing as garbage tokens much later.

Two flavours:

* **guard functions** (``guard_finite``, ``guard_simplex``,
  ``guard_dtype``, ``guard_disjoint_ranges``) — called inline where the
  invariant lives;
* **the decorator** :func:`tensor_contract` — checks declared
  shape/dtype/contiguity properties of named array arguments on every
  call.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

ENV_FLAG = "REPRO_SANITIZE"


def _env_armed() -> bool:
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


#: Whether guards are armed.  Every guard and contract wrapper reads this
#: global directly; only :func:`enable`, :func:`reset` and :func:`sanitized`
#: write it, so the environment is consulted at import and on ``reset()``.
_ARMED: bool = _env_armed()


class SanitizerError(RuntimeError):
    """A runtime tensor contract was violated."""


def enabled() -> bool:
    """Whether guards are armed."""
    return _ARMED


def enable(on: bool = True) -> None:
    """Force the sanitizer on/off for this process (tests, debugging)."""
    global _ARMED
    _ARMED = on


def reset() -> None:
    """Drop any :func:`enable` override; re-read ``REPRO_SANITIZE``."""
    global _ARMED
    _ARMED = _env_armed()


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Arm (or disarm) the sanitizer for the duration of a ``with`` block."""
    global _ARMED
    previous = _ARMED
    _ARMED = on
    try:
        yield
    finally:
        _ARMED = previous


# -- guard functions ----------------------------------------------------------


def guard_finite(name: str, array: np.ndarray) -> None:
    """Raise if ``array`` contains NaN/Inf (armed mode only)."""
    if not _ARMED:
        return
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise SanitizerError(
            f"{name}: {bad} non-finite value(s) (NaN/Inf) in array of "
            f"shape {np.shape(array)}"
        )


def guard_simplex(name: str, probs: np.ndarray, atol: float = 1e-6) -> None:
    """Raise unless ``probs`` is a probability vector (armed mode only).

    Checks non-negativity, finiteness, and unit sum (within ``atol``).
    """
    if not _ARMED:
        return
    probs = np.asarray(probs)
    if not np.all(np.isfinite(probs)):
        raise SanitizerError(f"{name}: non-finite probability entries")
    if np.any(probs < 0.0):
        raise SanitizerError(
            f"{name}: negative probability (min={float(probs.min())!r})"
        )
    total = float(probs.sum())
    if abs(total - 1.0) > atol:
        raise SanitizerError(
            f"{name}: probabilities sum to {total!r}, expected 1 "
            f"(atol={atol})"
        )


def guard_dtype(name: str, array: np.ndarray, dtype) -> None:
    """Raise unless ``array.dtype`` matches ``dtype`` (armed mode only)."""
    if not _ARMED:
        return
    expected = np.dtype(dtype)
    if np.asarray(array).dtype != expected:
        raise SanitizerError(
            f"{name}: dtype {np.asarray(array).dtype} != expected {expected}"
        )


def guard_disjoint_ranges(
    name: str,
    live: Sequence[Tuple[int, int]],
    new: Tuple[int, int],
) -> None:
    """Raise if half-open range ``new`` overlaps any range in ``live``.

    The KV-arena invariant: every request owns a private row range of the
    shared slab.  An overlap means two requests silently read/write each
    other's keys — the worst kind of cross-request corruption, because
    attention still produces plausible numbers.
    """
    if not _ARMED:
        return
    start, stop = new
    if start >= stop:
        raise SanitizerError(f"{name}: empty or inverted range [{start}, {stop})")
    for other_start, other_stop in live:
        if start < other_stop and other_start < stop:
            raise SanitizerError(
                f"{name}: range [{start}, {stop}) overlaps live range "
                f"[{other_start}, {other_stop})"
            )


# -- contract decorator -------------------------------------------------------


def tensor_contract(**specs: Dict[str, object]):
    """Declare per-argument tensor contracts, checked when armed.

    Each keyword names a parameter of the decorated function and maps to a
    spec dict with any of:

    * ``ndim``: required number of dimensions;
    * ``dtype``: required dtype (anything ``np.dtype`` accepts);
    * ``shape``: required shape tuple, ``None`` entries matching any size;
    * ``contiguous``: ``True`` to require C-contiguity.

    Example::

        @tensor_contract(mask={"ndim": 2}, positions={"ndim": 1,
                                                      "dtype": np.intp})
        def forward_masked(self, tokens, positions, mask, cache): ...

    Disabled mode costs one global load and one branch per call; the
    signature is bound only when armed.
    """

    def decorate(fn):
        signature = inspect.signature(fn)
        unknown = sorted(set(specs) - set(signature.parameters))
        if unknown:
            raise TypeError(
                f"tensor_contract on {fn.__qualname__}: no parameter(s) "
                f"{', '.join(unknown)}"
            )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _ARMED:
                bound = signature.bind(*args, **kwargs)
                for arg_name, spec in specs.items():
                    if arg_name not in bound.arguments:
                        continue
                    _check_spec(
                        f"{fn.__qualname__}({arg_name})",
                        bound.arguments[arg_name],
                        spec,
                    )
            return fn(*args, **kwargs)

        return wrapper

    return decorate


def _check_spec(name: str, value, spec: Dict[str, object]) -> None:
    array = np.asarray(value)
    ndim = spec.get("ndim")
    if ndim is not None and array.ndim != ndim:
        raise SanitizerError(f"{name}: ndim {array.ndim} != expected {ndim}")
    dtype = spec.get("dtype")
    if dtype is not None and array.dtype != np.dtype(dtype):
        raise SanitizerError(
            f"{name}: dtype {array.dtype} != expected {np.dtype(dtype)}"
        )
    shape = spec.get("shape")
    if shape is not None:
        if array.ndim != len(shape) or any(
            want is not None and have != want
            for have, want in zip(array.shape, shape)
        ):
            raise SanitizerError(
                f"{name}: shape {array.shape} != expected {tuple(shape)}"
            )
    if spec.get("contiguous") and not array.flags["C_CONTIGUOUS"]:
        raise SanitizerError(f"{name}: array is not C-contiguous")
