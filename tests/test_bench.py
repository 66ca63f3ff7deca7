"""Datasets (letters, IDX digits, procedural corpus) and scoring."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import gaussian_filter

import xbarnet
from xbarnet.bench import (Dataset, _blur, letter_dataset, load_mnist,
                           save_idx, score, synthetic_digits)
from xbarnet.errors import (ConfigError, DataFormatError, DataMissingError,
                            DimensionError)


# --- letters ----------------------------------------------------------------

def test_letter_set_sizes():
    train, test = letter_dataset()
    assert len(train) == 40 and len(test) == 640
    assert train.n_features == 16
    assert train.n_classes == 4
    np.testing.assert_array_equal(np.bincount(train.labels), [10] * 4)


def test_letter_three_class_sizes():
    train, test = letter_dataset(n_classes=3)
    assert len(train) == 30 and len(test) == 480
    assert train.labels.max() == 2


def test_letter_class_count_validation():
    with pytest.raises(ConfigError):
        letter_dataset(n_classes=5)


def test_letter_pixels_are_pm1():
    train, test = letter_dataset()
    assert set(np.unique(train.pixels)) == {-1.0, 1.0}
    assert set(np.unique(test.pixels)) == {-1.0, 1.0}


def test_flip_test_hamming_one_bijection():
    # every test pattern sits at Hamming distance 1 from exactly one train
    # pattern, and inherits that pattern's label
    train, test = letter_dataset()
    for k in range(len(test)):
        dists = (test.pixels[k] != train.pixels).sum(axis=1)
        assert (dists == 1).sum() == 1
        assert train.labels[np.argmin(dists)] == test.labels[k]


def test_train_patterns_well_separated():
    train, _ = letter_dataset()
    d = (train.pixels[:, None, :] != train.pixels[None, :, :]).sum(axis=2)
    off_diag = d[~np.eye(len(train), dtype=bool)]
    assert off_diag.min() >= 3


def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), 2)
    with pytest.raises(DimensionError):
        Dataset(np.zeros((4, 3)), np.zeros(2, dtype=int), 2)
    with pytest.raises(ConfigError):
        Dataset(np.zeros((2, 3)), np.array([0, 5]), 2)
    with pytest.raises(ConfigError):
        Dataset(np.zeros((2, 3)), np.array([0, 1]), 2, "hex")


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64,
                                   np.uint16, np.int8, bool])
def test_gray_pixels_must_be_uint8_codes(dtype):
    # a float array in [0, 1] would otherwise drive as near-black codes
    with pytest.raises(DataFormatError, match="gray01 pixels must be uint8"):
        Dataset(np.zeros((2, 3), dtype=dtype), np.array([0, 1]), 2, "gray01")
    codes = Dataset(np.zeros((2, 3), dtype=np.uint8), np.array([0, 1]), 2,
                    "gray01")
    assert codes.subset(np.array([1])).pixels.dtype == np.uint8


# --- IDX files --------------------------------------------------------------

def test_idx_roundtrip(tmp_path):
    ds = synthetic_digits(30, seed=5)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(ds, img, lab)
    back = load_mnist(img, lab)
    np.testing.assert_array_equal(back.pixels, ds.pixels)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.encoding == "gray01"


def test_idx_pixel_scaling(tmp_path):
    # the stored bytes load as they are, as uint8 codes
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 2051, 1, 2, 2))
        f.write(bytes([0, 51, 204, 255]))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 2049, 1))
        f.write(bytes([7]))
    ds = load_mnist(img, lab)
    assert ds.pixels.dtype == np.uint8
    np.testing.assert_array_equal(ds.pixels[0], [0, 51, 204, 255])
    assert ds.labels[0] == 7


def test_idx_bad_magic_names_offset(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 2050, 1, 2, 2))
        f.write(bytes(4))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 2049, 1) + bytes([0]))
    with pytest.raises(DataFormatError) as err:
        load_mnist(img, lab)
    assert "2051" in str(err.value) and "offset 0" in str(err.value)


def test_idx_truncation_names_offset(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 2051, 2, 2, 2))
        f.write(bytes(5))  # 8 wanted
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 2049, 2) + bytes(2))
    with pytest.raises(DataFormatError) as err:
        load_mnist(img, lab)
    assert "offset" in str(err.value)


def test_idx_count_mismatch(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 2051, 2, 2, 2))
        f.write(bytes(8))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 2049, 3) + bytes(3))
    with pytest.raises(DataFormatError):
        load_mnist(img, lab)


def test_idx_missing_file(tmp_path):
    with pytest.raises(DataMissingError):
        load_mnist(tmp_path / "no.idx", tmp_path / "no2.idx")


# --- procedural digits ------------------------------------------------------

def test_synthetic_digits_shape_and_range():
    ds = synthetic_digits(50, seed=1)
    assert ds.pixels.shape == (50, 784)
    assert ds.n_classes == 10
    assert ds.pixels.dtype == np.uint8
    assert ds.pixels.min() == 0 and ds.pixels.max() == 255
    counts = np.bincount(ds.labels, minlength=10)
    assert counts.max() - counts.min() <= 1  # round-robin balance


def test_synthetic_digits_deterministic():
    a = synthetic_digits(20, seed=9)
    b = synthetic_digits(20, seed=9)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synthetic_digits(20, seed=10)
    assert not np.array_equal(a.pixels, c.pixels)


def test_synthetic_digits_bytes_pinned():
    # recorded while the corpus still blurred with scipy's gaussian_filter
    # and held the float pixels code / 255; apart from fig12's golden
    # summary, the one check of the corpus bytes
    ds = synthetic_digits(200, seed=0)
    digest = hashlib.sha256((ds.pixels / 255.0).tobytes()
                            + ds.labels.tobytes())
    assert digest.hexdigest() == (
        "5d65995c2e4c070b7720aeb097740ae43732f60abceb6e98d85449008e50a676")


# mixed radii in one call: the shorter kernels get zero weights
@settings(max_examples=40, deadline=None)
@given(sigmas=st.lists(st.floats(0.55, 2.5), min_size=2, max_size=4),
       side=st.integers(1, 28), counts=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(sigmas=[0.55, 2.5], side=1, counts=True, seed=0)
@example(sigmas=[2.5, 0.55, 1.3], side=28, counts=False, seed=1)
def test_blur_is_scipys_gaussian_filter_bit_for_bit(sigmas, side, counts,
                                                     seed):
    rng = np.random.default_rng(seed)
    shape = (len(sigmas), side, side)
    canvases = (rng.integers(0, 9, shape).astype(float) if counts
                else rng.random(shape))
    blurred = _blur(canvases, np.array(sigmas))
    for canvas, sigma, got in zip(canvases, sigmas, blurred):
        assert got.tobytes() == gaussian_filter(canvas, sigma).tobytes()


def test_importing_the_package_loads_no_scipy():
    # scipy served only the corpus blur, yet every run paid for its import
    src = Path(xbarnet.__file__).resolve().parents[1]
    code = ("import sys, xbarnet, xbarnet.cli; "
            "assert 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_synthetic_digits_classes_distinct():
    # mean images of different classes should not be near-identical
    ds = synthetic_digits(400, seed=3)
    means = np.stack([ds.pixels[ds.labels == k].mean(axis=0) / 255.0
                      for k in range(10)])
    for a in range(10):
        for b in range(a + 1, 10):
            assert np.abs(means[a] - means[b]).mean() > 0.01


@pytest.mark.parametrize("call, error, message", [
    (lambda p: save_idx(letter_dataset()[0], p / "i", p / "l"), ConfigError,
     "only gray01 datasets"),
    (lambda p: save_idx(synthetic_digits(2, seed=0), p / "i", p / "l",
                        side=20), DimensionError, "feature count 784"),
    (lambda p: synthetic_digits(0, seed=0), ConfigError,
     "sample count must be positive"),
], ids=["pm1-to-idx", "idx-side", "no-digits"])
def test_corpus_entry_points_refuse_bad_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
    assert not any(tmp_path.iterdir())


# --- scoring ----------------------------------------------------------------

def test_score_perfect():
    labels = np.array([0, 1, 2, 3, 0])
    assert score(labels, labels, 4) == 100.0


def test_score_counts():
    pred = np.array([0, 0, 1, 2])
    true = np.array([0, 1, 1, 2])
    assert score(pred, true, 3) == 75.0


def test_score_shape_mismatch():
    with pytest.raises(DimensionError):
        score(np.zeros(3), np.zeros(4), 2)


def test_score_refuses_an_empty_batch():
    # no fidelity is defined over zero patterns
    with pytest.raises(DimensionError, match="empty batch"):
        score(np.array([], int), np.array([], int), 4)


@pytest.mark.parametrize("bad", [3, -1])
def test_score_out_of_range_index_named(bad):
    pred = np.array([0, 1, bad, 2])
    with pytest.raises(DimensionError, match=rf"prediction {bad} at index 2"):
        score(pred, np.array([0, 1, 2, 2]), 3)
    with pytest.raises(DimensionError, match=rf"label {bad} at index 2"):
        score(np.array([0, 1, 2, 2]), pred, 3)


def test_random_guessing_near_chance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 20_000)
    preds = rng.integers(0, 4, 20_000)
    assert score(preds, labels, 4) == pytest.approx(25.0, abs=1.5)
