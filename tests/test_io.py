import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsdiffsfm import CameraConfig, MotionEstimate
from rsdiffsfm.io_formats import (
    ExperimentConfig,
    FlowFile,
    read_flo,
    read_flow,
    read_keyvalues,
    read_motion,
    read_pfm,
    read_pnm,
    write_flow,
    write_keyvalues,
    write_motion,
    write_pfm,
    write_pnm,
)


@pytest.fixture
def cam():
    return CameraConfig(gamma=0.73, h=48, fx=40.5, fy=41.5, cx=24.25, cy=23.75, width=64)


def test_dense_flow_roundtrip(tmp_path, cam):
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(48, 64, 2)).astype(np.float32)
    path = tmp_path / "f.rsflow"
    write_flow(path, FlowFile(config=cam, width=64, height=48, dense=dense))
    back = read_flow(path)
    assert back.is_dense
    assert np.array_equal(back.dense, dense)  # bit exact
    assert back.config == cam


def test_sparse_flow_roundtrip(tmp_path, cam):
    rng = np.random.default_rng(1)
    sparse = rng.normal(size=(17, 4)).astype(np.float32)
    path = tmp_path / "f.rsflow"
    write_flow(path, FlowFile(config=cam, width=64, height=48, sparse=sparse))
    back = read_flow(path)
    assert not back.is_dense
    assert np.array_equal(back.sparse, sparse)


def test_flow_bad_magic(tmp_path):
    path = tmp_path / "bad.rsflow"
    path.write_bytes(b"NOTFLOW" + b"\0" * 100)
    with pytest.raises(ValueError, match="magic"):
        read_flow(path)


def test_flow_header_with_invalid_camera(tmp_path):
    path = tmp_path / "bad.rsflow"
    path.write_bytes(struct.pack("<7sII dI dddd B I", b"RSFLOW1", 8, 8,
                                 1.5, 48, 40.0, 40.0, 24.0, 24.0, 0, 0))
    with pytest.raises(ValueError, match=r"bad\.rsflow: gamma must lie in \[0, 1\]"):
        read_flow(path)


def test_flow_truncated(tmp_path, cam):
    path = tmp_path / "f.rsflow"
    dense = np.zeros((48, 64, 2), dtype=np.float32)
    write_flow(path, FlowFile(config=cam, width=64, height=48, dense=dense))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_flow(path)


def test_flow_truncated_sparse_count(tmp_path, cam):
    path = tmp_path / "f.rsflow"
    write_flow(path, FlowFile(config=cam, width=64, height=48,
                              sparse=np.zeros((3, 4), dtype=np.float32)))
    data = path.read_bytes()
    path.write_bytes(data[:-3 * 16 - 1])  # the count loses its last byte
    with pytest.raises(ValueError, match="count truncated"):
        read_flow(path)


@pytest.mark.parametrize("name, content, read", [
    ("f.rsflow", struct.pack("<7sII dI dddd B", b"RSFLOW1", 2**32 - 1, 2**32 - 1,
                             0.5, 48, 40.0, 40.0, 24.0, 24.0, 1), read_flow),
    ("s.rsflow", struct.pack("<7sII dI dddd B I", b"RSFLOW1", 8, 8,
                             0.5, 48, 40.0, 40.0, 24.0, 24.0, 0, 2**32 - 1), read_flow),
    ("f.flo", b"PIEH" + struct.pack("<ii", 2**31 - 1, 2**31 - 1), read_flo),
    ("d.pfm", b"Pf\n99999999999 99999999999\n-1.0\n", read_pfm),
    ("g.pgm", b"P5\n99999999999 99999999999\n255\n", read_pnm),
])
def test_header_claiming_more_than_the_file_is_rejected(tmp_path, name, content, read):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError, match="truncated"):
        read(path)


def _write_flo(path, data):
    with open(path, "wb") as f:
        f.write(b"PIEH")
        f.write(struct.pack("<ii", data.shape[1], data.shape[0]))
        f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


FORMATS = {
    # name: (writer of a random array of shape (h, w) or n rows, reader, payload view)
    "dense flow": (lambda p, a: write_flow(p, FlowFile(
        config=CameraConfig(gamma=0.5, h=48, fx=40.0, fy=40.0, cx=24.0, cy=24.0),
        width=a.shape[1], height=a.shape[0], dense=a)), lambda p: read_flow(p).dense, (2,)),
    "sparse flow": (lambda p, a: write_flow(p, FlowFile(
        config=CameraConfig(gamma=0.5, h=48, fx=40.0, fy=40.0, cx=24.0, cy=24.0),
        width=8, height=8, sparse=a.reshape(-1, 4))), lambda p: read_flow(p).sparse, (4,)),
    "flo": (_write_flo, read_flo, (2,)),
    "pfm": (write_pfm, read_pfm, ()),
    "pgm": (write_pnm, read_pnm, ()),
    "ppm": (write_pnm, read_pnm, (3,)),
}


def _random_payload(fmt, h, w, seed):
    """Random data of the array shape `fmt` writes for an h x w image."""
    rng = np.random.default_rng(seed)
    shape = ((h * w - 1, 4) if fmt == "sparse flow" else (h, w, *FORMATS[fmt][2]))
    return rng.integers(0, 256, shape).astype(np.uint8 if fmt in ("pgm", "ppm") else np.float32)


@settings(max_examples=30, deadline=None)
@given(fmt=st.sampled_from(sorted(FORMATS)), h=st.integers(1, 4), w=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_every_strict_prefix_is_rejected(tmp_path_factory, fmt, h, w, seed):
    """A file cut anywhere short of its end raises ValueError naming it."""
    write, read, _ = FORMATS[fmt]
    data = _random_payload(fmt, h, w, seed)
    path = tmp_path_factory.mktemp("prefix") / f"file.{fmt.replace(' ', '_')}"
    write(path, data)
    assert np.array_equal(read(path), data)
    full = path.read_bytes()
    for n in range(len(full)):
        path.write_bytes(full[:n])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_read_from_a_pipe(tmp_path, fmt):
    """A stream has no size to check ahead (process substitution, stdin):
    a whole one reads back, a short one raises ValueError."""
    write, read, _ = FORMATS[fmt]
    data = _random_payload(fmt, 3, 4, seed=0)
    path = tmp_path / "file"
    write(path, data)
    full = path.read_bytes()
    for content in (full, full[:-1]):
        r, w = os.pipe()
        os.write(w, content)
        os.close(w)
        if content is full:
            assert np.array_equal(read(r), data)
        else:
            with pytest.raises(ValueError, match="truncated"):
                read(r)


def test_flow_shape_mismatch(tmp_path, cam):
    with pytest.raises(ValueError):
        write_flow(tmp_path / "f.rsflow",
                   FlowFile(config=cam, width=64, height=48,
                            dense=np.zeros((10, 10, 2), dtype=np.float32)))


def test_flo_import(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.normal(size=(5, 7, 2)).astype("<f4")
    path = tmp_path / "x.flo"
    with open(path, "wb") as f:
        f.write(b"PIEH")
        f.write(struct.pack("<ii", 7, 5))
        f.write(data.tobytes())
    assert np.array_equal(read_flo(path), data)
    path.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_flo(path)


def test_pfm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(9, 13)).astype(np.float32)
    data[0, 0] = np.nan
    path = tmp_path / "d.pfm"
    write_pfm(path, data)
    back = read_pfm(path)
    assert back.shape == data.shape
    assert np.array_equal(back[~np.isnan(data)], data[~np.isnan(data)])
    assert np.isnan(back[0, 0])


def test_pnm_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    gray = rng.integers(0, 256, (11, 6), dtype=np.uint8)
    color = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
    write_pnm(tmp_path / "g.pgm", gray)
    write_pnm(tmp_path / "c.ppm", color)
    assert np.array_equal(read_pnm(tmp_path / "g.pgm"), gray)
    assert np.array_equal(read_pnm(tmp_path / "c.ppm"), color)
    # comment lines after the magic number are skipped
    data = (tmp_path / "g.pgm").read_bytes()
    (tmp_path / "gc.pgm").write_bytes(data.replace(b"P5\n", b"P5\n# one\n# two\n", 1))
    assert np.array_equal(read_pnm(tmp_path / "gc.pgm"), gray)
    # the header is whitespace-separated tokens, with comments before maxval
    raster = data[len(b"P5\n6 11\n255\n"):]
    for header in (b"P5 6 11 255\n", b"P5\n6\n11\n255\n", b"P5\n6 11\n# maxval\n255\n",
                   b"P5\t6 # width\n11\r255 "):
        (tmp_path / "gh.pgm").write_bytes(header + raster)
        assert np.array_equal(read_pnm(tmp_path / "gh.pgm"), gray)
    for header, message in ((b"P4\n6 11\n255\n", "magic"), (b"P5x 6 11 255\n", "magic"),
                            (b"P5\n6 x\n255\n", "malformed"), (b"P5\n6 11\n", "malformed"),
                            (b"P5\n0 11\n255\n", "size"), (b"P5\n6 11\n65535\n", "8-bit"),
                            (b"", "magic")):
        (tmp_path / "gh.pgm").write_bytes(header)
        with pytest.raises(ValueError, match=message):
            read_pnm(tmp_path / "gh.pgm")


def test_pnm_float_input_clipped(tmp_path):
    img = np.array([[-5.0, 300.0], [127.4, 127.6]])
    write_pnm(tmp_path / "g.pgm", img)
    back = read_pnm(tmp_path / "g.pgm")
    assert back[0, 0] == 0 and back[0, 1] == 255
    assert back[1, 0] == 127 and back[1, 1] == 128


def test_keyvalues_roundtrip(tmp_path):
    path = tmp_path / "kv.txt"
    write_keyvalues(path, {"a": 1.5, "b": "text", "c": 7})
    kv = read_keyvalues(path)
    assert kv == {"a": "1.5", "b": "text", "c": "7"}
    # comment and blank lines are skipped
    path.write_text("# written by hand\n\n" + path.read_text() + "  # trailing\n")
    assert read_keyvalues(path) == kv


def test_keyvalues_malformed(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("valid=1\nno equals sign\n")
    with pytest.raises(ValueError):
        read_keyvalues(path)


def test_motion_roundtrip(tmp_path):
    m = MotionEstimate(v=np.array([0.1, -0.2, 0.3]), w=np.array([0.01, 0.02, -0.03]),
                       k=0.12345678901234, v_reliable=False)
    path = tmp_path / "m.txt"
    write_motion(path, m)
    back = read_motion(path)
    assert np.array_equal(back.v, m.v)  # repr round trip is exact
    assert np.array_equal(back.w, m.w)
    assert back.k == m.k
    assert back.v_reliable is False


def test_experiment_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(models=["gs", "ca"], gammas=[0.1, 0.7], ks=[-0.2, 0.2],
                           trials=5, use_refine=True, threshold=0.002)
    path = tmp_path / "exp.cfg"
    path.write_text("models=gs,ca\ngammas=0.1,0.7\nks=-0.2,0.2\ntrials=5\nuse_refine=1\n"
                    "threshold=0.002\n")
    back = ExperimentConfig.from_file(path)
    assert back == cfg


def test_experiment_config_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("trials=3\nbogus_knob=1\n")
    with pytest.raises(ValueError, match="unknown config key 'bogus_knob'"):
        ExperimentConfig.from_file(path)


def test_experiment_config_empty_list():
    with pytest.raises(ValueError):
        ExperimentConfig(models=[])


@pytest.mark.parametrize("setting, message", [
    ({"models": ["gs", "xx"]}, "config: unknown model 'xx': choose from gs, cv, ca"),
    ({"gammas": [0.5, 1.5]}, r"gamma must lie in \[0, 1\], got 1.5"),
    ({"image_size": 1}, "h must be >= 2"),
    ({"focal": 0.0}, "focal lengths must be positive"),
    ({"n_points": -5}, "n_points must be >= 1"),
    ({"ransac_iters": 0}, "iterations must be an integer >= 1"),
    ({"threshold": -1.0}, "threshold must be positive"),
    ({"trials": 0}, "trials must be an integer >= 1"),
    ({"n_points": 0}, "n_points must be >= 1"),
])
def test_experiment_config_rejects_what_a_sweep_cannot_run(setting, message):
    """A config is checked when it is built, by the camera's and RANSAC's
    own checks where they apply."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**setting)
