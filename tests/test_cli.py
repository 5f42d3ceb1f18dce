"""Command-line pipeline and flat-config parsing."""

import math
import shutil
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

import lidardet.cli as cli
from lidardet.bevraster import read_grid
from lidardet.boxgeom import Box3D
from lidardet.cli import run
from lidardet.config import (DEFAULTS, default_config, load_config,
                             make_infer_config, make_layout, make_range_spec,
                             make_scene_spec, make_train_config, parse_config)
from lidardet.errors import ConfigError
from lidardet.model import (Detection, InferConfig, TrainConfig, feature_length,
                            load_detections, load_params, named_arrays,
                            save_detections)
from lidardet.pcio import Difficulty, GroundTruthObject, ObjectClass, save_labels
from lidardet.uncstats import UncertaintyRecord, load_records, save_records

CONFIG_TEXT = """\
# compact setup for pipeline exercises
seed = 0
raster.x_max = 32.0
raster.y_min = -16.0
raster.y_max = 16.0
raster.xy_resolution = 0.5
scene.num_cars = 3
scene.x_min = 4.0
scene.x_max = 28.0
scene.y_min = -10.0
scene.y_max = 10.0
scene.point_budget = 500
anchor.clusters = 1
train.phase1_steps = 6
train.phase2_steps = 6
train.decay_every = 6
train.hidden1 = 8
train.hidden2 = 8
train.pool_blocks = 2
train.pos_cap = 8
train.neg_per_scene = 8
train.roi_jitter = 1
train.roi_negatives = 4
infer.pre_nms_top = 128
infer.proposal_count = 16
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config, synthesized scenes, and a trained model shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_TEXT)
    scenes = root / "scenes"
    assert run(["synth", "--spec", str(cfg), "--count", "3",
                "--out", str(scenes)]) == 0
    params = root / "model.bin"
    log = root / "train_log.csv"
    assert run(["train", "--data", str(scenes), "--config", str(cfg),
                "--out-params", str(params), "--log", str(log)]) == 0
    return {"root": root, "cfg": cfg, "scenes": scenes, "params": params,
            "log": log}


class TestPipeline:
    def test_synth_writes_scene_triples(self, workspace):
        for i in range(3):
            stem = workspace["scenes"] / f"scene_{i:04d}"
            assert stem.with_suffix(".bin").exists()
            assert stem.with_suffix(".txt").exists()
            assert (workspace["scenes"] / f"scene_{i:04d}_noise.csv").exists()

    def test_rasterize(self, workspace, capsys):
        out = workspace["root"] / "grid.bin"
        cloud = workspace["scenes"] / "scene_0000.bin"
        assert run(["rasterize", "--cloud", str(cloud),
                    "--spec", str(workspace["cfg"]), "--out", str(out)]) == 0
        assert "64x64x6" in capsys.readouterr().out
        heights, density, meta = read_grid(out)
        assert heights.shape == (64, 64, 5)
        assert density.shape == (64, 64)

    def test_train_log_has_header_and_rows(self, workspace):
        lines = workspace["log"].read_text().splitlines()
        assert lines[0].startswith("step,lr,")
        assert len(lines) == 1 + 12

    def test_infer_eval_analyze(self, workspace, capsys):
        root = workspace["root"]
        dets = root / "dets"
        records = root / "records.csv"
        assert run(["infer", "--params", str(workspace["params"]),
                    "--data", str(workspace["scenes"]), "--out", str(dets),
                    "--config", str(workspace["cfg"]),
                    "--records", str(records)]) == 0
        for i in range(3):
            det_file = dets / f"scene_{i:04d}_dets.csv"
            assert det_file.exists()
            load_detections(det_file)  # parseable
        load_records(records)
        capsys.readouterr()

        pr = root / "pr.csv"
        assert run(["eval", "--dets", str(dets),
                    "--gts", str(workspace["scenes"]), "--iou", "0.1",
                    "--metric", "bev", "--out", str(pr)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("AP_bev@0.1 all"))
        ap = float(line.split()[-1])
        assert 0.0 <= ap <= 1.0
        assert pr.read_text().splitlines()[0] == "recall,precision"

        for analysis in ("tv-vs-distance", "tv-vs-score", "tv-vs-angle",
                         "difficulty-hist", "rpn-vs-frh", "loc-vs-orient"):
            target = root / f"{analysis}.csv"
            assert run(["analyze", "--records", str(records),
                        "--analysis", analysis, "--out", str(target)]) == 0
            assert target.exists()

    def test_eval_3d_metric(self, workspace, capsys):
        dets = workspace["root"] / "dets"
        if not dets.exists():  # ordering safety if run standalone
            pytest.skip("needs detections from the pipeline test")
        assert run(["eval", "--dets", str(dets),
                    "--gts", str(workspace["scenes"]), "--iou", "0.05",
                    "--metric", "3d"]) == 0
        assert "AP_3d@0.05 all" in capsys.readouterr().out

    def test_gradcheck_command(self, capsys):
        assert run(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "checked 1 seeds" in out


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_missing_required_argument(self):
        assert run(["synth", "--count", "2"]) == 2

    def test_unknown_analysis_choice(self):
        assert run(["analyze", "--records", "r.csv", "--analysis", "nope",
                    "--out", "o.csv"]) == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "--spec", "c.cfg", "--count", "0", "--out", "s"],
        ["synth", "--spec", "c.cfg", "--count", "-2", "--out", "s"],
        ["gradcheck", "--seeds", "-5"], ["gradcheck", "--seeds", "0"]])
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        assert run(argv) == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_rtol_is_usage_error(self, rtol, capsys):
        assert run(["gradcheck", "--rtol", rtol]) == 2
        assert "expected a finite positive number" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "lidardet" in capsys.readouterr().out

    def test_missing_cloud_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 0\n")
        code = run(["rasterize", "--cloud", str(tmp_path / "nope.bin"),
                    "--spec", str(cfg), "--out", str(tmp_path / "g.bin")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("raster.bogus = 1\n")
        code = run(["synth", "--spec", str(cfg), "--count", "1",
                    "--out", str(tmp_path / "s")])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_empty_scene_dir_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 0\n")
        (tmp_path / "empty").mkdir()
        code = run(["train", "--data", str(tmp_path / "empty"),
                    "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert "no scenes" in capsys.readouterr().err


class TestBoundaries:
    """Malformed inputs end in exit code 1 with a one-line message."""

    @staticmethod
    def _one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("keep", [5, 30, -5])
    def test_truncated_params_blob(self, workspace, tmp_path, capsys, keep):
        cut = tmp_path / "cut.bin"
        cut.write_bytes(workspace["params"].read_bytes()[:keep])
        code = run(["infer", "--params", str(cut), "--data", str(workspace["scenes"]),
                    "--out", str(tmp_path / "dets"), "--config", str(workspace["cfg"])])
        assert code == 1
        assert str(cut) in self._one_line_error(capsys)

    @pytest.mark.parametrize("line", [
        "infer.proposal_count = -1", "infer.pre_nms_top = 0",
        "infer.nms_threshold = 1.5", "infer.score_min = nan"])
    def test_bad_infer_config(self, workspace, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + line + "\n")
        code = run(["infer", "--params", str(workspace["params"]),
                    "--data", str(workspace["scenes"]), "--out", str(tmp_path / "dets"),
                    "--config", str(cfg)])
        assert code == 1
        assert line.split(".")[1].split(" ")[0] in self._one_line_error(capsys)

    @pytest.mark.parametrize("slices, height", [(4, 0.625), (10, 0.25)])
    def test_slice_count_other_than_the_models(self, workspace, tmp_path, capsys,
                                               slices, height):
        cfg = tmp_path / "slices.cfg"
        cfg.write_text(CONFIG_TEXT + f"raster.num_slices = {slices}\n"
                       f"raster.slice_height = {height}\n")
        code = run(["infer", "--params", str(workspace["params"]),
                    "--data", str(workspace["scenes"]), "--out", str(tmp_path / "dets"),
                    "--config", str(cfg)])
        assert code == 1
        err = self._one_line_error(capsys)
        want = feature_length(slices, 2)
        for part in (str(workspace["params"]), f"length {feature_length(5, 2)}",
                     f"gives {want}", "raster.num_slices", "raster.*"):
            assert part in err, (part, err)
        assert not (tmp_path / "dets").exists()

    @pytest.mark.parametrize("line", ["train.learning_rate = nan", "train.beta1 = inf"])
    def test_non_finite_train_config(self, workspace, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + line + "\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert "must be finite" in self._one_line_error(capsys)
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("line", [
        "train.pos_cap = -1", "train.neg_per_scene = -1", "train.roi_jitter = -2",
        "train.outlier_prob = 1.5", "train.loc_noise_scale = -1.0"])
    def test_negative_train_counts_and_noise(self, workspace, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + line + "\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        field = line.split(".")[1].split(" ")[0]
        assert f"{field} must be" in self._one_line_error(capsys)
        assert not (tmp_path / "m.bin").exists()


    @pytest.mark.parametrize("line, field", [
        ("raster.x_max = inf", "x_max"), ("scene.noise_base = nan", "noise_base"),
        ("raster.slice_height = nan", "slice_height"),
        ("scene.dim_mean_w = -inf", "dim_mean")])
    def test_non_finite_spec(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run(["synth", "--spec", str(cfg), "--count", "1",
                    "--out", str(tmp_path / "s")])
        assert code == 1
        assert f"{field} must be finite" in self._one_line_error(capsys)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("text, name", [
        ("train.rpn_pos = 0\ntrain.rpn_neg = 0", "rpn_pos"),
        ("train.rpn_neg = 0.6", "rpn_neg"), ("train.frh_pos = 1.5", "frh_pos"),
        ("train.frh_neg = -0.1", "frh_neg")])
    def test_assign_thresholds_out_of_range(self, workspace, tmp_path, capsys,
                                            text, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + text + "\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert f"{name} must be in" in self._one_line_error(capsys)
        assert not (tmp_path / "m.bin").exists()

    def test_assign_key_is_unknown(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(CONFIG_TEXT + "assign.rpn_pos = 0.5\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert "unknown key 'assign.rpn_pos'" in self._one_line_error(capsys)

    @pytest.mark.parametrize("clusters", [0, -1])
    def test_anchor_clusters_below_one(self, workspace, tmp_path, capsys, clusters):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + f"anchor.clusters = {clusters}\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert f"k must be >= 1, got {clusters}" in self._one_line_error(capsys)
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("value", [-4.2, 0.0])
    def test_non_positive_anchor_shape_in_params_blob(self, workspace, tmp_path, capsys,
                                                      value):
        blob = workspace["params"].read_bytes()
        # one anchor cluster: anchor_shapes is the (1, 3) array before meta.layout
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:-24] + struct.pack("<f", value) + blob[-20:])
        code = run(["infer", "--params", str(bad), "--data", str(workspace["scenes"]),
                    "--out", str(tmp_path / "dets"), "--config", str(workspace["cfg"])])
        assert code == 1
        assert f"{bad}: anchor_shapes must be positive, got {value:g}" \
            in self._one_line_error(capsys)

    def test_empty_anchor_lattice_in_train(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + "anchor.stride = 1000\n")
        code = run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
                    "--out-params", str(tmp_path / "m.bin"),
                    "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert "anchor stride 1000 places no anchor on the 64x64-cell grid" \
            in self._one_line_error(capsys)
        assert not (tmp_path / "m.bin").exists()

    def test_empty_anchor_lattice_in_params_blob(self, workspace, tmp_path, capsys):
        blob = workspace["params"].read_bytes()
        # meta.layout, the last array, starts with the stride
        wide = tmp_path / "wide.bin"
        wide.write_bytes(blob[:-12] + struct.pack("<f", 1000.0) + blob[-8:])
        code = run(["infer", "--params", str(wide), "--data", str(workspace["scenes"]),
                    "--out", str(tmp_path / "dets"), "--config", str(workspace["cfg"])])
        assert code == 1
        assert "anchor stride 1000 places no anchor on the 64x64-cell grid" \
            in self._one_line_error(capsys)

    def test_nan_detection_score(self, tmp_path, capsys):
        _, argv = eval_inputs(tmp_path, small_dets(score=math.nan))
        assert run(argv) == 1
        assert "s_dets.csv:2: bad score 'nan'" in self._one_line_error(capsys)

    @pytest.mark.parametrize("field", ["score", "distance", "rpn_tv", "frh_orient_tv"])
    def test_non_finite_record(self, tmp_path, capsys, field):
        _, argv = analyze_inputs(tmp_path, small_records(**{field: math.inf}))
        assert run(argv) == 1
        assert f"records.csv:2: bad {field} 'inf'" in self._one_line_error(capsys)

    def test_oversized_csv_field(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("a" * 200_000 + "\n")
        assert run(["analyze", "--records", str(path), "--analysis", "tv-vs-distance",
                    "--out", str(tmp_path / "o.csv")]) == 1
        err = self._one_line_error(capsys)
        assert f"{path}:1: field larger than field limit (131072)" in err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 0\n# caf\xe9\n")
        assert run(["synth", "--spec", str(cfg), "--count", "1",
                    "--out", str(tmp_path / "s")]) == 1
        assert f"{cfg}:2: not UTF-8: byte 0xe9" in self._one_line_error(capsys)

    def test_unmatched_record_keeps_nan_sigma(self, tmp_path, capsys):
        _, argv = analyze_inputs(tmp_path, small_records(sigma_label=math.nan))
        assert run(argv) == 0

    @pytest.mark.parametrize("field", ["l", "w", "h"])
    def test_zero_detection_dimension(self, tmp_path, capsys, field):
        path, argv = eval_inputs(tmp_path, small_dets())
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(field)] = "0.0"
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        assert run(argv) == 1
        assert f"s_dets.csv:3: bad {field} '0.0'" in self._one_line_error(capsys)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_noise_rows_must_match_labels(self, workspace, tmp_path, capsys, extra):
        path, argv = train_inputs(workspace, tmp_path)
        header, *rows = path.read_text().splitlines()
        n = len(rows)
        rows = rows[:-1] if extra < 0 else rows + rows[-1:]
        path.write_text("\n".join([header, *rows]) + "\n")
        assert run(argv) == 1
        # the first missing or extra row, counting the header as line 1
        want = f"scene_0000_noise.csv:{min(n, n + extra) + 2}: {n + extra} noise rows " \
            f"for {n} objects in scene_0000.txt"
        assert want in self._one_line_error(capsys)

    @pytest.mark.parametrize("column", ["sigma_label", "visibility"])
    def test_non_finite_scene_noise(self, workspace, tmp_path, capsys, column):
        path, argv = train_inputs(workspace, tmp_path)
        header, first, *rest = path.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = "nan"
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        assert run(argv) == 1
        assert f"noise.csv:2: bad {column} 'nan'" in self._one_line_error(capsys)


# CSV inputs with short cells, so that a file has few cut offsets.

def small_dets(score=0.75):
    return [Detection(box=Box3D(10.0, 0.5, 0.8, 4.0, 1.8, 1.5, 0.25), score=score,
                      rpn_log_var=np.full(6, -0.5), loc_log_var=np.full(10, 0.5),
                      orient_log_var=np.full(2, -1.5)),
            Detection(box=Box3D(20.0, -3.0, 0.8, 4.5, 2.0, 1.5, 1.5), score=0.5,
                      rpn_log_var=np.zeros(6), loc_log_var=np.zeros(10),
                      orient_log_var=np.zeros(2))]


def small_records(**changes):
    first = UncertaintyRecord("s:0", 0.75, 12.5, 0.25, 1.5, 2.5, 0.5, "Easy", 0.125)
    return [replace(first, **changes),
            UncertaintyRecord("s:1", 0.875, 31.0, -1.25, 2.0, 3.5, 0.75, "Hard")]


def eval_inputs(tmp_path, dets):
    """(detections file, eval arguments) for one scene with one truth."""
    gts, out = tmp_path / "gts", tmp_path / "dets"
    gts.mkdir()
    out.mkdir()
    save_labels([GroundTruthObject(ObjectClass.CAR, dets[0].box, Difficulty.EASY)],
                gts / "s.txt")
    save_detections(dets, out / "s_dets.csv")
    return out / "s_dets.csv", ["eval", "--dets", str(out), "--gts", str(gts),
                                "--iou", "0.5"]


def analyze_inputs(tmp_path, records, analysis="rpn-vs-frh"):
    """(records file, analyze arguments)."""
    path = tmp_path / "records.csv"
    save_records(records, path)
    return path, ["analyze", "--records", str(path), "--analysis", analysis,
                  "--out", str(tmp_path / f"{analysis}.csv")]


def train_inputs(workspace, tmp_path):
    """(noise file, train arguments) for a copy of one workspace scene."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for suffix in (".bin", ".txt", "_noise.csv"):
        shutil.copy(workspace["scenes"] / f"scene_0000{suffix}", scenes)
    return scenes / "scene_0000_noise.csv", [
        "train", "--data", str(scenes), "--config", str(workspace["cfg"]),
        "--out-params", str(tmp_path / "m.bin"), "--log", str(tmp_path / "l.csv")]


class TestTruncatedInputs:
    """Every prefix of a CSV input ends in exit 0 or 1 with at most one
    stderr line; a prefix that ends inside a row drops that row's last
    columns and must end in exit 1."""

    @staticmethod
    def _fuzz(capsys, path, argv):
        text = path.read_text()
        width = text.split("\n", 1)[0].count(",")
        for cut in range(len(text) + 1):
            path.write_text(text[:cut])
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 1) and err.count("\n") <= 1, (cut, err)
            last = text[:cut].rsplit("\n", 1)[-1]
            if last and last.count(",") < width:
                assert code == 1, (cut, last)

    def test_detections(self, tmp_path, capsys):
        self._fuzz(capsys, *eval_inputs(tmp_path, small_dets()))

    def test_records(self, tmp_path, capsys):
        self._fuzz(capsys, *analyze_inputs(tmp_path, small_records()))

    def test_scene_noise(self, workspace, tmp_path, capsys):
        self._fuzz(capsys, *train_inputs(workspace, tmp_path))


def test_analysis_cells_are_numbers(tmp_path):
    """Every cell of the six analyses except det_id and difficulty names,
    and the empty mean of an empty bin, parses with float()."""
    records = [UncertaintyRecord(f"s:{i}", 0.55 + 0.04 * i, 5.0 + 5.0 * i,
                                 -1.5 + 0.3 * i, 1.0 + 0.1 * i, 2.0 + 0.2 * i,
                                 0.5 + 0.05 * i, ("Easy", "Moderate", "Hard")[i % 3],
                                 0.1 * i) for i in range(11)]
    for analysis in cli.ANALYSES:
        _, argv = analyze_inputs(tmp_path, records, analysis)
        assert run(argv) == 0
        header, *rows = [line.split(",") for line in
                         (tmp_path / f"{analysis}.csv").read_text().splitlines()]
        assert rows
        for row in rows:
            for name, cell in zip(header, row, strict=True):
                if name not in ("det_id", "difficulty") and cell:
                    float(cell)


# Where a section's keys land: the dataclass its maker builds.
MAKERS = {"raster": make_range_spec, "scene": make_scene_spec,
          "train": make_train_config, "infer": make_infer_config,
          "anchor": lambda cfg: make_layout(cfg, [(4.0, 1.8, 1.5)])}

# Changes that a generic bump would make invalid, with the companion keys
# the cross-field checks need.
CHANGED = {
    "raster.z_min": "raster.z_min = 0.5\nraster.z_max = 3.0",
    "raster.z_max": "raster.z_max = 3.0\nraster.num_slices = 6",
    "raster.num_slices": "raster.num_slices = 10\nraster.slice_height = 0.25",
    "raster.slice_height": "raster.slice_height = 0.25\nraster.num_slices = 10",
    "train.form": "train.form = laplace",
    "train.rpn_pos": "train.rpn_pos = 0.6", "train.rpn_neg": "train.rpn_neg = 0.2",
    "train.frh_pos": "train.frh_pos = 0.7", "train.frh_neg": "train.frh_neg = 0.5",
}


def changed_text(key):
    """Config text setting ``key`` to a valid value other than its default."""
    if key in CHANGED:
        return CHANGED[key]
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return f"{key} = {not default}"
    if isinstance(default, int):
        return f"{key} = {default + 1}"
    return f"{key} = {default / 2 if default else 0.5!r}"


class _Seen(Exception):
    """Ends a faked training run once its arguments are recorded."""


def train_arguments(workspace, tmp_path, monkeypatch, text):
    """What `train` passes to anchor clustering."""
    seen = {}

    def kmeans(dims, k, seed):
        seen["anchor.clusters"] = k
        return np.full((k, 3), 2.0)

    def build(scenes, layout, spec, tcfg):
        raise _Seen
    monkeypatch.setattr(cli, "kmeans_anchor_dims", kmeans)
    monkeypatch.setattr(cli, "build_training_set", build)
    cfg = tmp_path / "k.cfg"
    cfg.write_text(text + "\n")
    with pytest.raises(_Seen):
        run(["train", "--data", str(workspace["scenes"]), "--config", str(cfg),
             "--out-params", str(tmp_path / "m.bin"), "--log", str(tmp_path / "l.csv")])
    return seen


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_every_key_takes_effect(key, request, tmp_path, monkeypatch):
    """A key that parses but reaches no field or call would be dead."""
    text = changed_text(key)
    cfg = parse_config(text)
    assert cfg[key] != DEFAULTS[key]
    section, _, name = key.partition(".")
    obj = MAKERS[section](cfg) if section in MAKERS else None
    names = {f.name for f in fields(obj)} if obj is not None else set()
    if key == "seed":
        landed = [make_train_config(cfg).seed, make_scene_spec(cfg).seed]
    elif name in names:
        landed = [getattr(obj, name)]
    elif name[:-2] in names and name[-2:] in ("_l", "_w", "_h"):
        landed = [getattr(obj, name[:-2])["lwh".index(name[-1])]]
    else:
        seen = train_arguments(request.getfixturevalue("workspace"), tmp_path,
                               monkeypatch, text)
        landed = [seen.get(key)]
    assert landed == [cfg[key]] * len(landed)


class TestConfig:
    def test_defaults_are_complete(self):
        cfg = default_config()
        make_range_spec(cfg)
        make_scene_spec(cfg)
        make_infer_config(cfg)
        assert make_train_config(cfg) == TrainConfig()
        assert make_infer_config(cfg) == InferConfig()

    def test_overrides_parse_by_default_type(self):
        cfg = parse_config("seed = 7\n"
                           "raster.xy_resolution = 0.2\n"
                           "scene.occlusion = false\n"
                           "train.form = laplace\n")
        assert cfg["seed"] == 7 and isinstance(cfg["seed"], int)
        assert cfg["raster.xy_resolution"] == 0.2
        assert cfg["scene.occlusion"] is False
        assert cfg["train.form"] == "laplace"
        # a grid default written as an int literal would reject 0.25
        floats = [k for k in DEFAULTS
                  if k.startswith("raster.") and k != "raster.num_slices"]
        assert len(floats) == 8
        cfg = parse_config("".join(f"{k} = 0.25\n" for k in floats))
        assert all(cfg[k] == 0.25 and isinstance(cfg[k], float) for k in floats)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# full-line comment\n\nseed = 3 # trailing\n")
        assert cfg["seed"] == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nope.key = 1\n")

    def test_assign_keys_are_gone(self):
        # the IoU thresholds are TrainConfig fields, set as train.*
        with pytest.raises(ConfigError, match="unknown key 'assign.rpn_pos'"):
            parse_config("assign.rpn_pos = 0.5\n")

    def test_evaluation_keys_are_gone(self):
        # eval and analyze take their settings from argv and library defaults
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("eval.iou = 0.5\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="train.phase1_steps"):
            parse_config("train.phase1_steps = soon\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config("seed = 1\nbroken line\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seed =\n")

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("train.learning_rate = 0.5\n")
        cfg = load_config(path)
        assert cfg["train.learning_rate"] == 0.5
        assert math.isclose(make_train_config(cfg).learning_rate, 0.5)

    def test_seed_threads_into_scene_spec(self):
        cfg = parse_config("seed = 42\n")
        assert make_scene_spec(cfg).seed == 42


class TestBitFlipFuzz:
    """Seeded truncations and single-bit flips of a saved cloud, a labels
    file, a detections CSV, a records CSV, a scene-noise CSV and a
    parameters blob, each run through the command that reads it: every run
    ends in exit 0, or in exit 1 with one ``error:`` line that names the
    damaged file. An escaping exception (a traceback at the command line)
    fails the test."""

    CUTS, FLIPS = 16, 64

    def _fuzz(self, capsys, path, argv, seed, bits=()):
        """``bits``: more bit positions to flip, one at a time, after the
        seeded ones."""
        data = path.read_bytes()
        rng = np.random.default_rng(seed)
        variants = [data[:cut] for cut in rng.integers(0, len(data), self.CUTS)]
        for bit in [*rng.choice(8 * len(data), self.FLIPS, replace=False), *bits]:
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        codes = []
        for damaged in variants:
            path.write_bytes(damaged)
            codes.append(run(argv))
            err = capsys.readouterr().err
            if codes[-1] != 0:
                assert codes[-1] == 1, (damaged, err)
                assert err.startswith("error: ") and err.count("\n") == 1, (damaged, err)
                assert path.name in err, (damaged, err)
        assert 1 in codes  # the damage reached the reader

    def test_cloud_through_rasterize(self, workspace, tmp_path, capsys):
        cloud = tmp_path / "c.bin"
        shutil.copy(workspace["scenes"] / "scene_0000.bin", cloud)
        argv = ["rasterize", "--cloud", str(cloud), "--spec", str(workspace["cfg"]),
                "--out", str(tmp_path / "g.bin")]
        self._fuzz(capsys, cloud, argv, 21)

    def test_labels_through_train(self, workspace, tmp_path, capsys):
        noise, argv = train_inputs(workspace, tmp_path)
        self._fuzz(capsys, noise.with_name("scene_0000.txt"), argv, 22)

    def test_detections_through_eval(self, tmp_path, capsys):
        self._fuzz(capsys, *eval_inputs(tmp_path, small_dets()), 23)

    def test_records_through_analyze(self, tmp_path, capsys):
        self._fuzz(capsys, *analyze_inputs(tmp_path, small_records()), 26)

    def test_scene_noise_through_train(self, workspace, tmp_path, capsys):
        self._fuzz(capsys, *train_inputs(workspace, tmp_path), 27)

    def test_params_through_infer(self, workspace, tmp_path, capsys):
        params = tmp_path / "m.bin"
        shutil.copy(workspace["params"], params)
        floats = sum(a.size for _, a in named_arrays(load_params(params)))
        body = params.stat().st_size - 4 * floats
        # Flipping a float32's top exponent bit (bit 6 of its last byte)
        # scales a value below 2 in size by 2**128: weights that large
        # overflow the decoders' exp or give non-finite boxes.
        rng = np.random.default_rng(25)
        tops = [8 * (body + 4 * int(i) + 3) + 6 for i in rng.choice(floats, 20, replace=False)]
        argv = ["infer", "--params", str(params), "--data", str(workspace["scenes"]),
                "--out", str(tmp_path / "dets"), "--config", str(workspace["cfg"])]
        self._fuzz(capsys, params, argv, 24, tops)
