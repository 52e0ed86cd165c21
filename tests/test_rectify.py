import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_fill_holes

from rsdiffsfm import (
    CameraConfig,
    MotionEstimate,
    exp_so3,
    rectify_image,
    warp_field,
)
from rsdiffsfm.geometry import beta_timestamp
from rsdiffsfm.rectify import WarpField, _fill_holes

from oracles import masked_rectify_image, mgrid_warp_field, warp_field_backprojection


def small_camera(gamma=0.8, H=200):
    f = 0.9 * H
    return CameraConfig(gamma=gamma, h=H, fx=f, fy=f, cx=H / 2.0, cy=H / 2.0, width=H)


def bench_motion(Z0=6.0, k=0.1):
    v = np.array([1.0, 1.0, 0.3])
    v *= 0.025 * Z0 / np.linalg.norm(v)
    w = np.array([1.0, 1.0, 1.0])
    w *= np.deg2rad(3.0) / np.linalg.norm(w)
    return MotionEstimate(v=v, w=w, k=k)


def render_plane_scene(cfg, motion, Z0=6.0, texture=None):
    """Rolling-shutter view of a fronto-parallel plane plus per-pixel depth.

    Each scanline projects through its own finite pose; the returned gs
    image is what the first-scanline camera sees.
    """
    H, W = cfg.h, cfg.width
    py, px = np.mgrid[0:H, 0:W].astype(float)
    x, y = cfg.pixel_to_normalized(px, py)
    betas = beta_timestamp(cfg.timestamp(np.arange(H)), motion.k)
    depth = np.empty((H, W))
    gsx = np.empty((H, W))
    for r in range(H):
        b = betas[r]
        ray = exp_so3(b * motion.w) @ np.stack([x[r], y[r], np.ones(W)])
        t = (Z0 - b * motion.v[2]) / ray[2]
        Xw = ray * t + (b * motion.v)[:, None]
        depth[r] = t
        gsx[r] = Xw[0] / Xw[2]
    tex = texture or (lambda xn: 255.0 * (0.5 + 0.5 * np.cos(40.0 * xn)))
    return tex(gsx), tex(x), depth, gsx


def test_beta_first_scanline_zero_at_top():
    """The first scanline is exposed at timestamp 0, where beta vanishes."""
    assert beta_timestamp(small_camera(0.8, 900).timestamp(0), 0.2) == 0.0
    assert beta_timestamp(small_camera(0.0, 900).timestamp(0.0), 0.0) == 0.0


def test_warp_identity_at_zero_motion():
    cfg = small_camera()
    depth = np.full((cfg.h, cfg.width), 5.0)
    wf = warp_field(depth, MotionEstimate(v=np.zeros(3), w=np.zeros(3), k=0.0), cfg)
    assert np.all(wf.du == 0.0)
    assert np.all(wf.dv == 0.0)
    assert wf.valid.all()


def test_warp_identity_at_gamma_zero():
    cfg = small_camera(gamma=0.0)
    depth = np.full((cfg.h, cfg.width), 5.0)
    wf = warp_field(depth, bench_motion(), cfg)
    assert np.max(np.abs(wf.du)) == 0.0
    assert np.max(np.abs(wf.dv)) == 0.0


def test_warp_matches_backprojection():
    cfg = small_camera()
    motion = bench_motion()
    _, _, depth, _ = render_plane_scene(cfg, motion)
    wf = warp_field(depth, motion, cfg)
    wb = warp_field_backprojection(depth, motion, cfg)
    diff = np.hypot(wf.du - wb.du, wf.dv - wb.dv)
    assert diff.max() < 0.5


@pytest.mark.parametrize("gamma, k", [(0.0, 0.0), (0.8, 0.3)])
def test_warp_field_matches_full_grid_reference(gamma, k):
    cfg = small_camera(gamma=gamma, H=30)
    depth = np.random.default_rng(4).uniform(2.0, 9.0, (30, 30))
    depth[3, 4], depth[7, 8], depth[9, 1] = np.nan, -1.0, 0.0
    motion = bench_motion(k=k)
    wf, ref = warp_field(depth, motion, cfg), mgrid_warp_field(depth, motion, cfg)
    for name in ("du", "dv", "valid"):
        assert np.array_equal(getattr(wf, name), getattr(ref, name))
    assert not wf.valid[3, 4] and wf.valid.sum() == 30 * 30 - 3


def test_rectified_vertical_line_is_vertical():
    cfg = small_camera()
    motion = bench_motion()
    line = lambda xn: 255.0 * np.exp(-(((xn - 0.05) / 0.01) ** 2))
    rs_img, _, depth, _ = render_plane_scene(cfg, motion, texture=line)
    wf = warp_field(depth, motion, cfg)
    rect, _ = rectify_image(rs_img, wf)

    def col_spread(img):
        cents = []
        for r in range(10, cfg.h - 10):
            row = img[r]
            if row.sum() > 1.0:
                cents.append((row * np.arange(cfg.width)).sum() / row.sum())
        cents = np.array(cents)
        return cents.max() - cents.min()

    assert col_spread(rs_img) > 2.0  # distortion is visible before rectification
    assert col_spread(rect) < 0.5


def test_rectified_texture_close_to_gs_reference():
    cfg = small_camera()
    motion = bench_motion()
    rs_img, gs_img, depth, _ = render_plane_scene(cfg, motion)
    wf = warp_field(depth, motion, cfg)
    rect, _ = rectify_image(rs_img, wf)
    m = slice(10, -10)
    before = np.abs(rs_img - gs_img)[m, m].mean()
    after = np.abs(rect - gs_img)[m, m].mean()
    assert after < 0.25 * before


def test_gap_fraction_small_at_benchmark_scale():
    cfg = CameraConfig(gamma=0.8, h=900, fx=810.0, fy=810.0, cx=450.0, cy=450.0, width=900)
    motion = bench_motion()
    _, _, depth, _ = render_plane_scene(cfg, motion)
    wf = warp_field(depth, motion, cfg)
    _, gap = rectify_image(np.zeros((900, 900)), wf)
    assert gap < 0.01


def test_invalid_depth_passes_source_through():
    cfg = small_camera(H=40)
    depth = np.full((40, 40), np.nan)
    wf = warp_field(depth, bench_motion(), cfg)
    assert not wf.valid.any()
    img = np.arange(1600, dtype=float).reshape(40, 40)
    out, _ = rectify_image(img, wf)
    assert np.array_equal(out, img)


def test_rectify_shape_mismatch():
    cfg = small_camera(H=40)
    depth = np.full((40, 40), 5.0)
    wf = warp_field(depth, bench_motion(), cfg)
    with pytest.raises(ValueError):
        rectify_image(np.zeros((30, 40)), wf)


def test_warp_field_wrong_rows():
    cfg = small_camera(H=40)
    with pytest.raises(ValueError):
        warp_field(np.full((39, 40), 5.0), bench_motion(), cfg)


def test_rectify_color_image():
    cfg = small_camera(H=60)
    motion = bench_motion()
    _, _, depth, gsx = render_plane_scene(cfg, motion)
    wf = warp_field(depth, motion, cfg)
    img = np.stack([np.full((60, 60), 10.0), np.full((60, 60), 20.0),
                    np.full((60, 60), 30.0)], axis=2)
    out, _ = rectify_image(img, wf)
    assert out.shape == (60, 60, 3)
    # constant image stays constant wherever the splat covers
    assert np.allclose(out[20:40, 20:40], img[20:40, 20:40])


def add_at_splat(image, warp):
    """Reference bilinear forward splat, one `np.add.at` per corner: the
    filled mask and the splatted image before gap filling."""
    img = np.asarray(image, dtype=float)
    channels = img if img.ndim == 3 else img[..., None]
    H, W, C = channels.shape
    acc = np.zeros((H, W, C))
    wgt = np.zeros((H, W))
    py, px = np.mgrid[0:H, 0:W].astype(float)
    tx = (px + warp.du).ravel()
    ty = (py + warp.dv).ravel()
    x0 = np.floor(tx).astype(int)
    y0 = np.floor(ty).astype(int)
    fx, fy = tx - x0, ty - y0
    vals = channels.reshape(-1, C)
    for dx, dy, wq in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                       (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xi, yi = x0 + dx, y0 + dy
        ok = (xi >= 0) & (xi < W) & (yi >= 0) & (yi < H)
        np.add.at(wgt, (yi[ok], xi[ok]), wq[ok])
        np.add.at(acc, (yi[ok], xi[ok]), vals[ok] * wq[ok, None])
    filled = wgt > 1e-8
    out = np.zeros_like(acc)
    out[filled] = acc[filled] / wgt[filled, None]
    return filled, out.reshape(img.shape)


@pytest.mark.parametrize("color", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_splat_matches_add_at_reference(color, seed):
    """Random warps that squeeze several source pixels into one and push
    others out of the image splat as the `np.add.at` reference does."""
    rng = np.random.default_rng(seed)
    H, W = 37, 53
    py, px = np.mgrid[0:H, 0:W].astype(float)
    # squeeze the columns, stretch the rows apart (leaving holes), jitter,
    # and push a band of columns out of the image
    du = (rng.uniform(0.3, 0.6) - 1.0) * (px - W / 2) + rng.normal(0.0, 1.0, (H, W))
    dv = (rng.uniform(1.6, 2.0) - 1.0) * (py - H / 2) + rng.normal(0.0, 1.0, (H, W))
    du += rng.choice([-1, 1]) * 0.4 * W
    targets = np.floor(px + du).astype(int) * H + np.floor(py + dv).astype(int)
    inside = (px + du >= 0) & (px + du < W - 1) & (py + dv >= 0) & (py + dv < H - 1)
    assert np.unique(targets[inside]).size < 0.8 * np.count_nonzero(inside)
    assert np.count_nonzero(~inside) > 0.1 * H * W
    warp = WarpField(du=du, dv=dv, valid=np.ones((H, W), dtype=bool))
    image = rng.uniform(1.0, 255.0, (H, W, 3) if color else (H, W))
    filled, expected = add_at_splat(image, warp)
    out, gap_fraction = rectify_image(image, warp, fill_gaps=False)
    # every source value is positive, so exactly the unfilled pixels read 0
    assert np.array_equal(out.reshape(H, W, -1)[..., 0] != 0.0, filled)
    assert gap_fraction == np.count_nonzero(~filled & binary_fill_holes(filled)) / (H * W)
    assert gap_fraction > 0.0
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-9)
    filled_out, filled_gap = rectify_image(image, warp)
    assert filled_gap == gap_fraction
    np.testing.assert_array_equal(filled_out[filled], out[filled])


def spiral(n):
    """An n x n filled mask with an unfilled corridor that winds clockwise
    from an opening in the top border to the centre, one pixel wide between
    one-pixel walls."""
    mask = np.ones((n, n), dtype=bool)
    mask[0, 1] = False
    r, c, dr, dc = 1, 1, 0, 1
    for length in [n - 3] * 3 + [m for m in range(n - 5, 0, -2) for _ in range(2)]:
        for _ in range(length):
            mask[r, c] = False
            r, c = r + dr, c + dc
        dr, dc = dc, -dr  # turn clockwise
    mask[r, c] = False
    return mask


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 17), density=0.5, seed=0)
@example(shape=(17, 1), density=0.5, seed=0)
@example(shape=(9, 9), density=1.0, seed=0)
@example(shape=(9, 9), density=0.0, seed=0)
def test_fill_holes_matches_binary_fill_holes(shape, density, seed):
    filled = np.random.default_rng(seed).random(shape) < density
    np.testing.assert_array_equal(_fill_holes(filled), binary_fill_holes(filled))


@pytest.mark.parametrize("n", [9, 31])
def test_fill_holes_on_a_spiral(n):
    """The passes reach the corridor from the border one run at a time, over
    many rounds; closing its opening makes all of it one hole."""
    mask = spiral(n)
    for opening in (False, True):
        mask[0, 1] = opening
        np.testing.assert_array_equal(_fill_holes(mask), binary_fill_holes(mask))
    np.testing.assert_array_equal(_fill_holes(mask), np.ones_like(mask))


def edge_case_warp(rng, H, W):
    """A warp that stretches rows apart (leaving holes), jittered, with
    targets 1e6 px outside the frame, top-left corners exactly at -2, -1,
    W - 1 and H - 1, and invalid entries."""
    py = np.arange(H, dtype=float)[:, None]
    du = rng.normal(0.0, 0.7, (H, W))
    dv = 0.6 * (py - H / 2) + rng.normal(0.0, 0.7, (H, W))
    du[0, :4] = [1e6, -1e6, 1e6 + 0.5, -1e6 - 0.25]
    dv[1, :4] = [1e6, -1e6, 1e6 + 0.5, -1e6 - 0.25]
    for i, (tx, ty) in enumerate([(-2.0, 5.0), (-1.0, 5.5), (-1.5, 6.0), (W - 1.0, 7.0),
                                  (W - 0.5, 8.25), (4.0, -2.0), (5.5, -1.0), (6.0, -1.5),
                                  (7.25, H - 1.0), (8.0, H - 0.5), (-1.0, -1.0),
                                  (W - 1.0, H - 1.0), (-2.0, H - 1.0), (W - 0.5, -1.5)]):
        r, c = 2 + i, 3 + i
        du[r, c], dv[r, c] = tx - c, ty - r
    valid = rng.random((H, W)) > 0.1
    return WarpField(du=du, dv=dv, valid=valid)


@pytest.mark.parametrize("color", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_splat_matches_masked_reference_exactly(color, seed):
    """The padded-border splat and the mask-free gap fill give the masked
    splat's output bit for bit, on warps with targets far outside the
    frame, corners on the border and invalid entries."""
    rng = np.random.default_rng(seed)
    H, W = 29, 41
    warp = edge_case_warp(rng, H, W)
    image = rng.uniform(0.0, 255.0, (H, W, 3) if color else (H, W))
    for fill_gaps in (False, True):
        out, gap_fraction = rectify_image(image, warp, fill_gaps=fill_gaps)
        ref, ref_gap_fraction = masked_rectify_image(image, warp, fill_gaps=fill_gaps)
        assert out.shape == image.shape
        assert np.array_equal(out, ref)
        assert gap_fraction == ref_gap_fraction
    assert gap_fraction > 0.0
    # the fill changed some pixels, so it is covered too
    assert not np.array_equal(out, rectify_image(image, warp, fill_gaps=False)[0])
