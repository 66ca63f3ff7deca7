"""Datasets and metrics: the 4x4 letter task, digit sets, and scoring.

The builtin letter set ships 4 classes x 10 stylized 4x4 glyph variants.
The published bitmap set is not available as data, so these are plausible
stand-ins with one deliberately engineered property: all 40 patterns are
pairwise Hamming distance >= 3 apart.  That makes the single-pixel-flip test
construction a true bijection — every flip pattern is distance 1 from
exactly its generating train pattern — which the flip-test semantics need.

Digit data loads from IDX files (the standard big-endian layout).  A
procedural 28x28 digit generator doubles as a stand-in corpus for
environments without the real files.  Both keep grayscale pixels as their
8-bit codes, as the IDX files store them, so a corpus and its IDX round trip
agree bit for bit; the input stage (``network.drive_voltages``) maps a code c
to the level 2 * (c / 255) - 1.
Its Gaussian stroke blur is numpy only, batched over blocks of images, and
equal bit for bit to ``scipy.ndimage.gaussian_filter``; scipy is needed
only by the test that checks it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DataMissingError, DimensionError

# 4 classes, 10 variants each; global pairwise Hamming distance >= 3.
_LETTER_CLASSES = "TOXV"
_LETTER_PATTERNS = [
    "1111011001100110", "0111111001110110", "1111111001001110",
    "1111011001101101", "1101011011100111", "1111011010101110",
    "1011011101101110", "0111011001000100", "1111001101000110",
    "1111111101100100",
    "1111100110011111", "1110100101011111", "1101000111011111",
    "1110100110011100", "1111100111010011", "1111000010001111",
    "1111110100001111", "1011100110011001", "1011000100011111",
    "1100100010011111",
    "1001011001101001", "1001011001100010", "0001011001001101",
    "1000011101001001", "1001101101101001", "1001111011101000",
    "0101001001101001", "1001111000111001", "1011110001101001",
    "1000011001100101",
    "1001100101100110", "1001100100101010", "1101000111100110",
    "1011100101100011", "1001101101010110", "1000001101100110",
    "1100100001100110", "1001000001101110", "1101101101100010",
    "1001100111111110",
]


@dataclass
class Dataset:
    """Pixel patterns with labels.

    encoding notes how pixels map to drive voltages downstream: "pm1"
    pixels are the drive levels themselves (binary +-1, letters); "gray01"
    pixels are uint8 grayscale codes 0-255 (digits), the level of code c
    being 2 * (c / 255) - 1.  A gray01 array of any other dtype is refused
    with DataFormatError: the codes are 8 times smaller than float levels,
    and a float array in [0, 1] would otherwise drive as near-black codes.
    Nothing writes to pixels, so they may be a read-only view.
    """

    pixels: np.ndarray
    labels: np.ndarray
    n_classes: int
    encoding: str = "pm1"

    def __post_init__(self):
        if self.pixels.ndim != 2:
            raise DimensionError("pixels must be a (patterns, features) array")
        if self.labels.shape != (self.pixels.shape[0],):
            raise DimensionError("labels length must match pattern count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ConfigError("labels must lie in [0, n_classes)")
        if self.encoding not in ("pm1", "gray01"):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.encoding == "gray01" and self.pixels.dtype != np.uint8:
            raise DataFormatError(
                f"gray01 pixels must be uint8 codes 0-255, got "
                f"{self.pixels.dtype}"
            )

    def __len__(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_features(self) -> int:
        return self.pixels.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.pixels[idx], self.labels[idx], self.n_classes,
                       self.encoding)


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------


def _flip_test_set(train: Dataset) -> Dataset:
    n, d = train.pixels.shape
    pix = np.repeat(train.pixels, d, axis=0)
    labels = np.repeat(train.labels, d)
    flip_at = np.tile(np.arange(d), n)
    pix[np.arange(n * d), flip_at] *= -1
    return Dataset(pix, labels, train.n_classes, train.encoding)


def letter_dataset(*, n_classes: int = 4) -> tuple[Dataset, Dataset]:
    """(train, test) letter sets: 10 patterns per class, plus every
    single-pixel flip of every train pattern as test (label inherited).

    n_classes=3 selects the first three classes (30 train / 480 test).
    """
    if n_classes not in (3, 4):
        raise ConfigError("letter task supports 3 or 4 classes")
    pix = np.array(
        [[1.0 if c == "1" else -1.0 for c in p] for p in _LETTER_PATTERNS]
    )
    labels = np.repeat(np.arange(4, dtype=np.int64), 10)
    keep = labels < n_classes
    train = Dataset(pix[keep], labels[keep], n_classes, "pm1")
    return train, _flip_test_set(train)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049


def _read_exact(f, n: int, path, what: str) -> bytes:
    offset = f.tell()
    buf = f.read(n)
    if len(buf) != n:
        raise DataFormatError(
            f"{path}: truncated {what} at offset {offset} "
            f"(wanted {n} bytes, got {len(buf)})"
        )
    return buf


def _read_idx(path: Path, magic_expected: int, n_dims: int) -> np.ndarray:
    if not path.exists():
        raise DataMissingError(f"IDX file not found: {path}")
    with open(path, "rb") as f:
        magic = struct.unpack(">I", _read_exact(f, 4, path, "magic"))[0]
        if magic != magic_expected:
            raise DataFormatError(
                f"{path}: bad magic {magic} at offset 0 "
                f"(expected {magic_expected})"
            )
        dims = struct.unpack(
            f">{n_dims}I", _read_exact(f, 4 * n_dims, path, "dimension header")
        )
        count = int(np.prod(dims))
        payload = _read_exact(f, count, path, "payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_mnist(image_file: str | Path, label_file: str | Path) -> Dataset:
    """Load an IDX image/label pair: 28x28 images flattened to 784 uint8
    codes (a read-only view of the file's payload), labels 0-9."""
    images = _read_idx(Path(image_file), _IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(Path(label_file), _IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    return Dataset(images.reshape(images.shape[0], -1),
                   labels.astype(np.int64), 10, "gray01")


def save_idx(dataset: Dataset, image_file: str | Path, label_file: str | Path,
             *, side: int = 28):
    """Write a gray01 dataset's codes back to an IDX image/label pair, which
    load_mnist reads back unchanged."""
    if dataset.encoding != "gray01":
        raise ConfigError("only gray01 datasets serialize to IDX")
    n, d = dataset.pixels.shape
    if d != side * side:
        raise DimensionError(f"feature count {d} is not {side}x{side}")
    with open(image_file, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, side, side))
        f.write(dataset.pixels.tobytes())
    with open(label_file, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# procedural digit corpus (stand-in when no IDX files are available)
# ---------------------------------------------------------------------------

# stroke skeletons on a [0,1]^2 canvas, as (x, y) polyline/arc pieces
def _arc(cx, cy, rx, ry, a0, a1, n=40):
    t = np.linspace(a0, a1, n)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(x0, y0, x1, y1, n=30):
    t = np.linspace(0.0, 1.0, n)
    return np.stack([x0 + (x1 - x0) * t, y0 + (y1 - y0) * t], axis=1)


def _digit_strokes() -> list[np.ndarray]:
    pi = np.pi
    return [
        np.vstack([_arc(0.5, 0.5, 0.28, 0.38, 0, 2 * pi, 80)]),            # 0
        np.vstack([_line(0.5, 0.12, 0.5, 0.88), _line(0.35, 0.26, 0.5, 0.12)]),  # 1
        np.vstack([_arc(0.5, 0.68, 0.27, 0.2, 0.15 * pi, pi),
                   _line(0.72, 0.62, 0.28, 0.14), _line(0.28, 0.14, 0.75, 0.14)]),  # 2
        np.vstack([_arc(0.48, 0.68, 0.25, 0.19, -0.6 * pi, 0.8 * pi),
                   _arc(0.48, 0.3, 0.27, 0.19, -0.8 * pi, 0.6 * pi)]),      # 3
        np.vstack([_line(0.62, 0.88, 0.25, 0.4), _line(0.25, 0.4, 0.78, 0.4),
                   _line(0.62, 0.6, 0.62, 0.1)]),                           # 4
        np.vstack([_line(0.72, 0.86, 0.32, 0.86), _line(0.32, 0.86, 0.3, 0.55),
                   _arc(0.5, 0.36, 0.26, 0.24, -0.9 * pi, 0.7 * pi)]),      # 5
        np.vstack([_arc(0.52, 0.68, 0.26, 0.32, 0.45 * pi, 1.05 * pi),
                   _arc(0.5, 0.32, 0.24, 0.2, 0, 2 * pi, 60)]),             # 6
        np.vstack([_line(0.25, 0.86, 0.75, 0.86), _line(0.75, 0.86, 0.42, 0.1)]),  # 7
        np.vstack([_arc(0.5, 0.67, 0.22, 0.17, 0, 2 * pi, 60),
                   _arc(0.5, 0.3, 0.26, 0.2, 0, 2 * pi, 60)]),              # 8
        np.vstack([_arc(0.5, 0.66, 0.24, 0.2, 0, 2 * pi, 60),
                   _line(0.73, 0.62, 0.62, 0.1)]),                          # 9
    ]


def _blur(canvases: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Gaussian-blur each canvas of an (n, side, side) stack by its own sigma,
    bit for bit as ``scipy.ndimage.gaussian_filter(canvas, sigma)``: scipy's
    kernel, its "reflect" boundary (numpy's "symmetric" pad), and the
    summation order of its symmetric-kernel loop, axis 0 before axis 1.  A
    kernel shorter than the stack's longest is padded with zero weights,
    which add exact zeros to a non-negative sum."""
    radii = (4.0 * sigmas + 0.5).astype(int)
    big = int(radii.max())
    weights = np.zeros((len(sigmas), 1, 1, big + 1))
    for k, (sigma, radius) in enumerate(zip(sigmas, radii)):
        x = np.arange(-radius, radius + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
        weights[k, 0, 0, :radius + 1] = (phi / phi.sum())[radius:]
    side = canvases.shape[1]
    out = canvases
    for _ in range(2):  # along axis 1, then along the transpose's axis 1
        padded = np.pad(out, ((0, 0), (big, big), (0, 0)), mode="symmetric")
        acc = out * weights[..., 0]
        pair = np.empty_like(acc)
        for j in range(big, 0, -1):  # outermost pair first, as scipy sums
            np.add(padded[:, big - j:big - j + side],
                   padded[:, big + j:big + j + side], out=pair)
            pair *= weights[..., j]
            acc += pair
        out = acc.transpose(0, 2, 1)
    return out


def synthetic_digits(n: int, seed, *, side: int = 28) -> Dataset:
    """Procedural handwritten-style digit corpus, one glyph skeleton per
    class plus random affine distortion, stroke-width jitter, and pixel
    noise.  Deterministic per seed; balanced class counts (round-robin).
    Pixels are uint8 codes, quantized as an IDX file stores them."""
    if n <= 0:
        raise ConfigError("sample count must be positive")
    rng = np.random.default_rng(seed)
    strokes = _digit_strokes()
    labels = rng.permutation(np.arange(n, dtype=np.int64) % 10)
    # the draws and the strokes stay per image, in the rng's order; the
    # noise waits in its own array until the blocks below blur the strokes.
    # A pixel holds at most a skeleton's 120 points, so uint8 counts do,
    # and each block then overwrites its counts with its codes.
    codes = np.zeros((n, side, side), dtype=np.uint8)
    widths = np.empty(n)
    noise = np.empty((n, side, side))
    for i in range(n):
        pts = strokes[labels[i]] - 0.5
        angle = rng.normal(0.0, 0.14)
        shear = rng.normal(0.0, 0.13)
        sx, sy = 1.0 + rng.normal(0.0, 0.1, 2)
        c, s = np.cos(angle), np.sin(angle)
        mat = np.array([[c, -s], [s, c]]) @ np.array([[sx, shear * sx], [0.0, sy]])
        moved = pts @ mat.T + 0.5 + rng.normal(0.0, 0.035, 2)
        ij = np.clip(np.round(moved * (side - 1)).astype(int), 0, side - 1)
        np.add.at(codes[i], (side - 1 - ij[:, 1], ij[:, 0]), 1)
        widths[i] = max(0.55, rng.normal(0.9, 0.18))
        noise[i] = rng.normal(0.0, 0.04, (side, side))
    # blocks of near-equal widths pad few kernels with zero weights
    order = np.argsort(widths)
    for start in range(0, n, 256):
        block = order[start:start + 256]
        canvas = _blur(codes[block].astype(float), widths[block])
        canvas /= canvas.max(axis=(1, 2), keepdims=True)
        canvas += noise[block]
        np.clip(canvas, 0.0, 1.0, out=canvas)
        canvas *= 255.0
        # whole numbers 0-255: the cast to uint8 is exact
        codes[block] = np.round(canvas, out=canvas)
    return Dataset(codes.reshape(n, side * side), labels, 10, "gray01")


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def score(predictions: np.ndarray, labels: np.ndarray, n_classes: int
          ) -> float:
    """Fidelity percentage: the share of predictions equal to their labels.

    Both arrays must share a non-empty shape, and every value must lie in
    [0, n_classes).
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DimensionError(
            f"predictions {predictions.shape} vs labels {labels.shape}"
        )
    if labels.size == 0:
        raise DimensionError("cannot score an empty batch")
    for name, values in (("prediction", predictions), ("label", labels)):
        bad = np.flatnonzero((values < 0) | (values >= n_classes))
        if bad.size:
            i = int(bad[0])
            raise DimensionError(
                f"{name} {values.flat[i]} at index {i} lies outside "
                f"[0, {n_classes})"
            )
    correct = int(np.sum(predictions == labels))
    return 100.0 * correct / labels.size
