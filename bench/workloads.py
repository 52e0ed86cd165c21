"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, runs one timed
unit of work per `run_unit` call and, in `finish`, checks the outputs
against its own ground truth (generator motion and depths, or the scene it
rendered itself), never against an earlier output of the package.

Calls into the package go through module attributes looked up at call
time (`robust.ransac`, `cli.main`), so the traced run's wrappers see them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import click
import numpy as np

from rsdiffsfm import cli, experiment, io_formats, robust, synth
from rsdiffsfm.errors import RsSfmError
from rsdiffsfm.geometry import CameraConfig, FlowSample

import scene as dense_scene


def _check(checks, name, ok, detail):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


class SweepReadout:
    """`run_sweep` over a gs + cv readout sweep, the shape of the Tier-1
    readout test: many small problems (100 points, 50 RANSAC iterations,
    refinement on) with synthesis inside the timed call.  Scoring is cheap
    at this size and the ca solver never runs, so this is the bypass
    workload for scoring and ca changes."""

    name = "sweep-readout"
    GAMMAS = [0.2, 0.4, 0.6, 0.8, 1.0]
    TRIALS = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.rows = None

    def _config(self, gammas, trials):
        return io_formats.ExperimentConfig(
            models=["gs", "cv"], gammas=gammas, trials=trials, n_points=100,
            ransac_iters=50, use_refine=True, seed=self.seed)

    def setup(self):
        self.cfg = self._config(self.GAMMAS, self.TRIALS)
        experiment.run_sweep(self._config([0.5], 1))  # warm-up

    def run_unit(self, i, tracer):
        rows = experiment.run_sweep(self.cfg)
        if self.rows is None:
            self.rows = rows
        done = sum(r[7] for r in rows)
        attempted = len(rows) * self.cfg.trials
        return {"estimates": done, "attempted": attempted, "failed": attempted - done}

    def finish(self):
        checks, metrics, layer = [], {}, {}
        cv = [r for r in self.rows if r[4] == "cv"]
        gs = [r for r in self.rows if r[4] == "gs"]
        for gamma, _, _, _, _, te, re, n in cv:
            _check(checks, f"cv gamma={gamma} trans_err < 3 deg", te < 3.0, f"{te:.4f} deg, {n} trials")
            _check(checks, f"cv gamma={gamma} rot_err < 0.1 deg", re < 0.1, f"{re:.5f} deg")
        metrics["trans_err_deg"] = (float(np.median([r[5] for r in cv])), len(cv))
        metrics["rot_err_deg"] = (float(np.median([r[6] for r in cv])), len(cv))
        # GS errors carry the known GS-scoring defect: information, not a gate
        layer["experiment.gs_trans_err_deg"] = (float(np.median([r[5] for r in gs])), "deg")
        layer["experiment.gs_rot_err_deg"] = (float(np.median([r[6] for r in gs])), "deg")
        dropped = len(self.rows) * self.cfg.trials - sum(r[7] for r in self.rows)
        layer["experiment.dropped_trials"] = (float(dropped), "count")
        return checks, metrics, layer


class RobustCa:
    """`ransac(..., "ca", 300 iterations)` + `refit_trimmed` on 2000-sample
    `generate_discrete` scenes (gamma 0.8, k != 0 varying per scene,
    sub-pixel noise, 30 % gross outliers).  Large N times many hypotheses
    makes scoring and the ca solver dominate; synthesis is set-up only and
    the dense and CLI layers are bypassed."""

    name = "robust-ca"
    SCENES = 5
    N_POINTS = 2000
    ITERATIONS = 300
    OUTLIER_FRAC = 0.3
    NOISE_PX = 0.05
    WARMUP_POINTS = 200

    def __init__(self, seed, workdir):
        self.seed = seed
        self.results = {}

    def _scene(self, rng, camera):
        scene_seed = int(rng.integers(2**31))
        k = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.25))
        spec = synth.SceneSpec(config=camera, n_points=self.N_POINTS, k=k, seed=scene_seed)
        clean, truth = synth.generate_discrete(spec)
        n_out = int(round(self.OUTLIER_FRAC * len(clean)))
        order = rng.permutation(len(clean))
        inlier = order >= n_out
        # the shuffled list is built in its own order, as a loader builds
        # one, so that its objects lie in memory in the order they are read
        samples = []
        for j in order:
            s = clean[j]
            if j < n_out:
                # gross outlier: a replacement flow at least 0.005 from the true one
                while True:
                    u = rng.uniform(-0.06, 0.06, 2)
                    if np.linalg.norm(u - s.u) > 0.005:
                        break
                samples.append(FlowSample(x=s.x.copy(), u=u, y1=s.y1, y2=s.y2))
            else:
                e = rng.normal(0.0, self.NOISE_PX, 2)
                samples.append(FlowSample(x=s.x.copy(), u=s.u + e / camera.fx, y1=s.y1,
                                          y2=s.y2 + e[1]))
        return {"samples": samples, "truth": truth.motion, "k": k, "inlier": inlier,
                "seed": scene_seed}

    def setup(self):
        self.camera = synth.benchmark_config(0.8)
        rng = np.random.default_rng(self.seed)
        self.scenes = [self._scene(rng, self.camera) for _ in range(self.SCENES)]
        # warm-up on a fixed-size outlier-free subset, so that its cost does
        # not depend on how good a short RANSAC run happens to be
        s = self.scenes[0]
        clean = [x for x, ok in zip(s["samples"], s["inlier"]) if ok][:self.WARMUP_POINTS]
        try:  # a short run may find no model, which is fine here
            warm = robust.ransac(clean, "ca", self.camera,
                                 robust.RansacConfig(iterations=10, seed=s["seed"]))
            robust.refit_trimmed(clean, warm, "ca", self.camera)
        except RsSfmError:
            pass

    def _estimate(self, s):
        rc = robust.RansacConfig(iterations=self.ITERATIONS, seed=s["seed"])
        result = robust.ransac(s["samples"], "ca", self.camera, rc)
        motion = robust.refit_trimmed(s["samples"], result, "ca", self.camera).motion
        return result, motion

    def run_unit(self, i, tracer):
        idx = i % len(self.scenes)
        try:
            out = self._estimate(self.scenes[idx])
        except RsSfmError as exc:
            self.results.setdefault(idx, exc)
            return {"estimates": 0, "attempted": 1, "failed": 1}
        self.results.setdefault(idx, out)
        return {"estimates": 1, "attempted": 1, "failed": 0}

    def finish(self):
        checks, te, re, ke = [], [], [], []
        for idx, s in enumerate(self.scenes):
            if idx not in self.results:  # not reached inside the timed window
                try:
                    self.results[idx] = self._estimate(s)
                except RsSfmError as exc:
                    self.results[idx] = exc
            out = self.results[idx]
            if isinstance(out, RsSfmError):
                _check(checks, f"scene {idx} estimated", False, f"{type(out).__name__}: {out}")
                continue
            result, motion = out
            t = synth.translation_error(motion.v, s["truth"].v)
            r = synth.rotation_error(motion.w, s["truth"].w)
            k = abs(motion.k - s["k"])
            precision = float(np.mean(s["inlier"][result.inliers]))
            recall = float(np.sum(s["inlier"][result.inliers]) / np.sum(s["inlier"]))
            te.append(t)
            re.append(r)
            ke.append(k)
            # per scene: guards against a wrong model (the true rotation is
            # 3 deg); single scenes reach about 4 deg of translation error and,
            # when RANSAC keeps few inliers, 0.5 deg of rotation error, so the
            # tight bounds below apply to the median over the scenes
            _check(checks, f"scene {idx} trans_err < 10 deg", t < 10.0, f"{t:.4f} deg")
            _check(checks, f"scene {idx} rot_err < 1.5 deg", r < 1.5, f"{r:.5f} deg")
            _check(checks, f"scene {idx} k_err < 0.2", k < 0.2, f"|{motion.k:+.4f} - {s['k']:+.4f}|")
            _check(checks, f"scene {idx} inlier precision >= 0.95", precision >= 0.95,
                   f"{precision:.4f} of {len(result.inliers)} inliers are true inliers; "
                   f"recall {recall:.4f}")
        metrics = {}
        if te:
            metrics["trans_err_deg"] = (float(np.median(te)), len(te))
            metrics["rot_err_deg"] = (float(np.median(re)), len(re))
            metrics["k_err"] = (float(np.median(ke)), len(ke))
            for name, bound in (("trans_err_deg", 2.5), ("rot_err_deg", 0.1), ("k_err", 0.05)):
                value = metrics[name][0]
                _check(checks, f"median {name} < {bound}", value < bound, f"{value:.5f}")
        return checks, metrics, {}


class DenseChain:
    """CLI `estimate` (default cv, no --flow-bwd) -> `depth` -> `rectify` on
    a 600x600 rendered scene, called in-process through `cli.main`.  Time
    goes to per-pixel work outside the solvers: sample extraction, file I/O,
    dense depth, warp and splat.  The --flow-bwd / filter_flows path is not
    exercised."""

    name = "dense-chain"
    SIZE = 600
    WARMUP_SIZE = 120

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.outputs = None

    def _write_inputs(self, sc, prefix):
        cam = CameraConfig(gamma=sc.gamma, h=sc.size, fx=sc.focal, fy=sc.focal,
                           cx=sc.size / 2.0, cy=sc.size / 2.0, width=sc.size)
        paths = {key: str(self.dir / f"{prefix}{key}") for key in
                 ("flow.rsf", "rs.pgm", "gs.pgm", "motion.txt", "depth.pfm", "rect.pgm")}
        io_formats.write_flow(paths["flow.rsf"], io_formats.FlowFile(
            config=cam, width=sc.size, height=sc.size, dense=sc.flow))
        io_formats.write_pnm(paths["rs.pgm"], sc.rs_image)
        io_formats.write_pnm(paths["gs.pgm"], sc.gs_image)
        return paths

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        sc = dense_scene.render(self.seed, size=self.SIZE)
        self.paths = self._write_inputs(sc, "")
        self.truth = {"motion": sc.truth_motion(), "depth": sc.depth,
                      "rs": sc.rs_image, "gs": sc.gs_image}
        del sc
        warm = dense_scene.render(self.seed, size=self.WARMUP_SIZE)
        self._chain(self._write_inputs(warm, "warmup-"), None, ["--ransac-iters", "20"])

    def _cli(self, tracer, command, args):
        with tracer.span(f"cli.{command}") if tracer else nullcontext():
            return _invoke([command, *args])

    def _chain(self, p, tracer, estimate_options=()):
        """Exit codes and CPU times of the three commands; stops at a failure."""
        steps = [
            ("estimate", ["--flow", p["flow.rsf"], "--out", p["motion.txt"], *estimate_options]),
            ("depth", ["--flow", p["flow.rsf"], "--motion", p["motion.txt"],
                       "--out", p["depth.pfm"]]),
            ("rectify", ["--image", p["rs.pgm"], "--depth", p["depth.pfm"],
                         "--motion", p["motion.txt"], "--out", p["rect.pgm"]]),
        ]
        codes, times = {}, {}
        for command, args in steps:
            t0 = time.process_time()
            codes[command] = self._cli(tracer, command, args)
            times[command] = time.process_time() - t0
            if codes[command] != 0:
                break
        return codes, times

    def run_unit(self, i, tracer):
        codes, times = self._chain(self.paths, tracer)
        self.outputs = codes  # the files on disk are this chain's
        failed = sum(1 for c in codes.values() if c != 0)
        ok = codes.get("estimate") == 0
        return {"estimates": int(ok), "attempted": len(codes), "failed": failed,
                "estimate_s": times["estimate"]}

    def finish(self):
        checks, metrics = [], {}
        for command in ("estimate", "depth", "rectify"):
            code = self.outputs.get(command)
            _check(checks, f"{command} exits 0", code == 0, f"exit code {code}")
        if self.outputs.get("estimate") == 0:
            motion = io_formats.read_motion(self.paths["motion.txt"])
            v_true, w_true = self.truth["motion"]
            t = synth.translation_error(motion.v, v_true)
            r = synth.rotation_error(motion.w, w_true)
            metrics["trans_err_deg"] = (t, 1)
            metrics["rot_err_deg"] = (r, 1)
            # one estimate per seed: guards against a wrong model only
            # (seeds give up to about 2.4 deg of translation error)
            _check(checks, "trans_err < 10 deg", t < 10.0, f"{t:.4f} deg")
            _check(checks, "rot_err < 0.5 deg", r < 0.5, f"{r:.5f} deg")
        if self.outputs.get("depth") == 0:
            depth = io_formats.read_pfm(self.paths["depth.pfm"]).astype(float)
            true = self.truth["depth"]
            valid = np.isfinite(depth) & (depth > 0)
            # translation is known only up to scale: fit one global scale
            scale = np.median(true[valid] / depth[valid])
            rel = np.abs(scale * depth[valid] - true[valid]) / true[valid]
            metrics["depth_rel_err"] = (float(np.median(rel)), int(valid.sum()))
            metrics["depth_valid_frac"] = (float(valid.mean()), int(valid.size))
            _check(checks, "depth shape", depth.shape == true.shape, f"{depth.shape}")
            _check(checks, "depth_rel_err < 0.05", metrics["depth_rel_err"][0] < 0.05,
                   f"{metrics['depth_rel_err'][0]:.5f}")
            _check(checks, "depth_valid_frac > 0.9", metrics["depth_valid_frac"][0] > 0.9,
                   f"{metrics['depth_valid_frac'][0]:.4f}")
        if self.outputs.get("rectify") == 0:
            rect = io_formats.read_pnm(self.paths["rect.pgm"]).astype(float)
            gs = self.truth["gs"].astype(float)
            crop = slice(self.SIZE // 10, -(self.SIZE // 10))
            err = float(np.abs(rect - gs)[crop, crop].mean())
            before = float(np.abs(self.truth["rs"].astype(float) - gs)[crop, crop].mean())
            metrics["rect_err"] = (err, rect[crop, crop].size)
            # `estimate` writes no camera, so `rectify` guesses gamma and the
            # focal length (a known defect); rect_err records that as shipped,
            # and the check asks for an image closer to the GS view than the
            # unrectified input
            _check(checks, "rect shape", rect.shape == gs.shape, f"{rect.shape}")
            _check(checks, "rect_err < unrectified input's", err < before,
                   f"{err:.2f} gray levels; the unrectified image scores {before:.2f}")
        return checks, metrics, {}


def _invoke(argv):
    """Run one CLI command in-process; returns its exit code."""
    try:
        rv = cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    return rv if isinstance(rv, int) else 0


WORKLOADS = {w.name: w for w in (SweepReadout, RobustCa, DenseChain)}
