"""Seeded complex random-matrix ensembles.

Conventions used throughout the package:

* A standard complex Gaussian entry has independent real and imaginary
  parts with variance 1/2 each, so ``E|x|^2 = 1``.  This normalization is
  load-bearing: the closed-form mean power of the shared right factor is
  scale sensitive and would be off by powers of two under the variance-2
  convention.
* Haar unitaries are produced by QR of a Gaussian draw followed by the
  diagonal-phase correction that makes the triangular factor's diagonal
  real and positive.  Plain QR alone is *not* Haar distributed.

All samplers are pure functions of ``(shape, RngStream)``: passing the same
stream twice replays the same draw.  Pass a ``numpy.random.Generator``
instead to draw sequentially from caller-managed state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

_SUBSTREAM_TAG = 1 << 62
_SUBSTREAM_CAP = 1 << 31


@dataclass(frozen=True)
class RngStream:
    """Addressable, reproducible random substream.

    The pair ``(master_seed, stream_index)`` keys a counter-based Philox
    generator, so distinct indices are statistically independent by
    construction and an identical pair always replays the identical
    sequence.  Both are non-negative integers; a negative one raises
    :class:`ParameterError`, so distinct pairs never share a stream.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if min(self.master_seed, self.stream_index) < 0:
            raise ParameterError(f"seed and stream index must be >= 0, got {self}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        The (seed, index) pair is hash-mixed through a SeedSequence into the
        Philox key, so even adjacent indices get unrelated keys.
        """
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64)))

    def substream(self, index: int) -> "RngStream":
        """Derived stream for batch chunk ``index``.

        Only one nesting level is supported: chunk indices pack into the
        upper half of the 64-bit stream word, tagged so derived streams can
        never collide with top-level ones.
        """
        if self.stream_index >= _SUBSTREAM_TAG:
            raise ParameterError("substreams cannot be subdivided further")
        if self.stream_index >= _SUBSTREAM_CAP:
            raise ParameterError(f"stream index too large to subdivide: {self.stream_index}")
        if not 0 <= index < _SUBSTREAM_CAP:
            raise ParameterError(f"substream index out of range: {index}")
        return RngStream(self.master_seed, _SUBSTREAM_TAG | (self.stream_index << 31) | index)


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either an RngStream (replayable) or a live Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def sample_ginibre(
    rows: int,
    cols: int,
    rng: RngStream | np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Matrix (or stack of matrices) of i.i.d. standard complex Gaussians.

    Each entry has zero mean and ``E|x|^2 = 1``.  With ``count`` given, the
    result has shape ``(count, rows, cols)``.
    """
    if rows < 1 or cols < 1:
        raise DimensionError(f"ginibre dimensions must be >= 1, got {rows}x{cols}")
    if count is not None and count < 1:
        raise DimensionError(f"count must be >= 1, got {count}")
    gen = as_generator(rng)
    shape = (rows, cols) if count is None else (count, rows, cols)
    # all real parts, then all imaginary parts, in one buffer: the same
    # stream order as two draws, without complex temporaries
    parts = gen.standard_normal((2, *shape))
    z = np.empty(shape, dtype=np.complex128)
    np.multiply(parts[0], np.sqrt(0.5), out=z.real)
    np.multiply(parts[1], np.sqrt(0.5), out=z.imag)
    return z


def sample_haar_unitary(
    dim: int,
    rng: RngStream | np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Haar-distributed unitary matrix (or stack, with ``count`` given).

    QR of a Ginibre draw, with the columns of Q rescaled by the phases of
    R's diagonal so that R has positive real diagonal; this makes the map
    from the Gaussian draw unique and the result exactly Haar.
    """
    if dim < 1:
        raise DimensionError(f"haar dimension must be >= 1, got {dim}")
    z = sample_ginibre(dim, dim, rng, count=count)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    mag = np.abs(d)
    # a zero diagonal entry has probability zero; keep the column unchanged
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phase[..., None, :]
