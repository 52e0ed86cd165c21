"""File formats: the RSFLOW1 flow container, PFM depth maps, PGM/PPM images,
key=value motion and experiment-config files.

All binary payloads are little-endian; round trips are bit exact for finite
values.  NaN marks invalid pixels in dense flow layouts.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import CameraConfig
from .robust import MINIMAL_SIZE, RansacConfig, _is_integer

FLOW_MAGIC = b"RSFLOW1"
_HEADER = struct.Struct("<7sII dI dddd B")


@dataclass
class FlowFile:
    """Dense or sparse flow payload with the owning camera configuration."""

    config: CameraConfig
    width: int
    height: int
    dense: np.ndarray | None = None  # (H, W, 2) float32, pixel units
    sparse: np.ndarray | None = None  # (N, 4) float32: x_px, y_px, u_px, v_px

    @property
    def is_dense(self):
        return self.dense is not None


def write_flow(path, flow: FlowFile):
    cfg = flow.config
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                FLOW_MAGIC,
                flow.width,
                flow.height,
                cfg.gamma,
                cfg.h,
                cfg.fx,
                cfg.fy,
                cfg.cx,
                cfg.cy,
                1 if flow.is_dense else 0,
            )
        )
        if flow.is_dense:
            data = np.ascontiguousarray(flow.dense, dtype="<f4")
            if data.shape != (flow.height, flow.width, 2):
                raise ValueError(
                    f"dense payload shape {data.shape} does not match header "
                    f"({flow.height}, {flow.width}, 2)"
                )
            f.write(data.tobytes())
        else:
            data = np.ascontiguousarray(flow.sparse, dtype="<f4")
            if data.ndim != 2 or data.shape[1] != 4:
                raise ValueError(f"sparse payload must be (N, 4), got {data.shape}")
            f.write(struct.pack("<I", data.shape[0]))
            f.write(data.tobytes())


def read_flow(path) -> FlowFile:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated flow header")
        magic, width, height, gamma, h, fx, fy, cx, cy, dense_flag = _HEADER.unpack(head)
        if magic != FLOW_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        _check_size(path, width, height)
        try:
            config = CameraConfig(gamma=gamma, h=h, fx=fx, fy=fy, cx=cx, cy=cy, width=width)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if dense_flag:
            buf = _payload(f, path, width * height * 2 * 4, "dense payload")
            dense = np.frombuffer(buf, dtype="<f4").reshape(height, width, 2).copy()
            return FlowFile(config=config, width=width, height=height, dense=dense)
        (count,) = struct.unpack("<I", _payload(f, path, 4, "sparse count"))
        buf = _payload(f, path, count * 16, "sparse payload")
        sparse = np.frombuffer(buf, dtype="<f4").reshape(count, 4).copy()
        return FlowFile(config=config, width=width, height=height, sparse=sparse)


def _payload(f, path, n, what="payload"):
    """The next n bytes of f; ValueError naming the file when fewer remain.

    For a regular file the size is checked before reading, so a header that
    claims more data than the file holds is rejected without allocating for
    it; a pipe or other stream is read and its length compared.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        left = st.st_size - f.tell()
        if n > left:
            raise ValueError(f"{path}: {what} truncated ({left} of {n} bytes)")
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: {what} truncated ({len(buf)} of {n} bytes)")
    return buf


def _check_size(path, width, height):
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad image size {width} x {height}")


def read_flo(path):
    """Middlebury .flo file -> (H, W, 2) float32 array."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != b"PIEH":
            raise ValueError(f"{path}: not a .flo file (magic {magic!r})")
        width, height = struct.unpack("<ii", _payload(f, path, 8, ".flo header"))
        _check_size(path, width, height)
        data = np.frombuffer(_payload(f, path, width * height * 8), dtype="<f4")
    return data.reshape(height, width, 2).copy()


def write_pfm(path, data):
    """Grayscale PFM, little-endian (scale -1.0)."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"PFM writer expects a 2-D array, got shape {data.shape}")
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{data.shape[1]} {data.shape[0]}\n".encode())
        f.write(b"-1.0\n")
        # PFM stores rows bottom-to-top
        f.write(np.ascontiguousarray(data[::-1], dtype="<f4").tobytes())


def read_pfm(path):
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError(f"{path}: not a grayscale PFM")
        try:
            width, height = map(int, f.readline().split())
            scale = float(f.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: malformed PFM header ({exc})") from exc
        _check_size(path, width, height)
        if not np.isfinite(scale) or scale == 0:
            raise ValueError(f"{path}: bad PFM scale {scale}")
        dtype = "<f4" if scale < 0 else ">f4"
        data = np.frombuffer(_payload(f, path, width * height * 4), dtype=dtype)
    return data.reshape(height, width)[::-1].copy()


def write_pnm(path, image):
    """8-bit binary PGM (2-D input) or PPM (H, W, 3 input)."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = np.clip(np.round(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        if img.ndim == 2:
            f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        elif img.ndim == 3 and img.shape[2] == 3:
            f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        else:
            raise ValueError(f"unsupported image shape {img.shape}")
        f.write(np.ascontiguousarray(img).tobytes())


def _pnm_header(f):
    """The magic, width, height and maxval of a PNM header, split at whitespace
    and `#` comments, b"" past the end of the file; f is left at the raster,
    after the one whitespace byte that ends maxval."""
    tokens, token = [], bytearray()
    while len(tokens) < 4:
        c = f.read(1)
        if c == b"#":
            f.readline()
            c = b"\n"
        if c and not c.isspace():
            token += c
        elif token or not c:
            tokens.append(bytes(token))
            token.clear()
    return tokens


def read_pnm(path):
    with open(path, "rb") as f:
        magic, *size = _pnm_header(f)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
        try:
            width, height, maxval = map(int, size)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed PNM header ({exc})") from exc
        _check_size(path, width, height)
        if maxval != 255:
            raise ValueError(f"{path}: only 8-bit PNM supported, maxval={maxval}")
        channels = 1 if magic == b"P5" else 3
        data = np.frombuffer(_payload(f, path, width * height * channels), dtype=np.uint8)
    if channels == 1:
        return data.reshape(height, width).copy()
    return data.reshape(height, width, 3).copy()


def write_keyvalues(path, mapping):
    """Flat key=value text file; values formatted with full float precision."""
    with open(path, "w") as f:
        for key, val in mapping.items():
            if isinstance(val, float):
                f.write(f"{key}={val!r}\n")
            else:
                f.write(f"{key}={val}\n")


def read_keyvalues(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed line {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def write_motion(path, motion, extra=None):
    vals = {
        "vx": float(motion.v[0]),
        "vy": float(motion.v[1]),
        "vz": float(motion.v[2]),
        "wx": float(motion.w[0]),
        "wy": float(motion.w[1]),
        "wz": float(motion.w[2]),
        "k": float(motion.k),
        "v_reliable": int(motion.v_reliable),
    }
    if extra:
        vals.update(extra)
    write_keyvalues(path, vals)


def read_motion(path):
    from .geometry import MotionEstimate

    kv = read_keyvalues(path)
    try:
        v = np.array([float(kv["vx"]), float(kv["vy"]), float(kv["vz"])])
        w = np.array([float(kv["wx"]), float(kv["wy"]), float(kv["wz"])])
        k = float(kv.get("k", "0"))
        v_reliable = bool(int(kv.get("v_reliable", "1")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # a NaN or infinite motion would pass through depth and rectification
    # as an all-NaN depth map and a meaningless image
    for key, val in zip(("vx", "vy", "vz", "wx", "wy", "wz", "k"), (*v, *w, k)):
        if not np.isfinite(val):
            raise ValueError(f"{path}: motion entry {key}={val} is not finite")
    return MotionEstimate(v=v, w=w, k=k, v_reliable=v_reliable)


@dataclass
class ExperimentConfig:
    """Sweep description: axes, per-cell trial count and estimation knobs."""

    models: list = field(default_factory=lambda: ["gs", "cv"])
    gammas: list = field(default_factory=lambda: [0.8])
    translations: list = field(default_factory=lambda: [0.025])
    w_mags: list = field(default_factory=lambda: [3.0])
    ks: list = field(default_factory=lambda: [0.0])
    trials: int = 20
    seed: int = 0
    n_points: int = 300
    ransac_iters: int = 50
    threshold: float = 0.001
    use_refine: bool = False
    image_size: int = 900
    focal: float = 810.0
    depth_min: float = 4.0
    depth_max: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "list" and not getattr(self, f.name):  # annotations are strings here
                raise ValueError(f"config list '{f.name}' must be non-empty")
        unknown = [model for model in self.models if model not in MINIMAL_SIZE]
        if unknown:
            raise ValueError(f"unknown models {unknown} in config: choose from "
                             f"{', '.join(MINIMAL_SIZE)}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"config trials must be an integer >= 1, got {self.trials!r}")
        if self.n_points < 1:
            raise ValueError(f"config n_points must be >= 1, got {self.n_points}")
        # the camera and RANSAC settings of every cell, checked by their own types
        try:
            for gamma in self.gammas:
                self.camera(gamma)
            RansacConfig(iterations=self.ransac_iters, threshold=self.threshold)
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from exc

    def camera(self, gamma):
        """The sweep's square camera at readout ratio gamma."""
        n = self.image_size
        return CameraConfig(gamma=gamma, h=n, fx=self.focal, fy=self.focal, cx=n / 2.0,
                            cy=n / 2.0, width=n)

    @classmethod
    def from_file(cls, path):
        """The config of a key=value file; each value is parsed as the type
        of its field's default, and a list as comma-separated entries.
        Raises ValueError for a key that is no field."""
        defaults = cls()
        kwargs = {}
        for key, val in read_keyvalues(path).items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"{path}: unknown config key {key!r}")
            default = getattr(defaults, key)
            if isinstance(default, list):
                kwargs[key] = [type(default[0])(x.strip()) for x in val.split(",")]
            elif isinstance(default, bool):
                kwargs[key] = bool(int(val))
            else:
                kwargs[key] = type(default)(val)
        return cls(**kwargs)
